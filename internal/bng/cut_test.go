package bng

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"dynamips/internal/bng/stripe"
	"dynamips/internal/sketch"
)

// serve runs one GET through the handler and returns the recorder.
func serve(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// cutRecord is what a replayed twin publishes at one round boundary.
type cutRecord struct {
	hash     string
	topk     []byte // the /sketch?op=topk answer body
	sessions []byte // the cutSessionsPath page body
}

const (
	cutTopKPath = "/sketch?op=topk&name=" + sketch.Churn24 + "&k=3"
	// cutSessionsPath's page spans the residential/business group
	// boundary (slot 1920) and keys from every stripe.
	cutSessionsPath = "/sessions?offset=1800&limit=300"
)

// TestReadersSeeOneRoundCut: readers hammering /ha, /snapshot, /sketch
// and /sessions while the daemon churns hourly rounds only ever see one
// round boundary's state. Every (virtual_hours, table_hash) pair, every
// /snapshot cut with its hour header, every heavy-hitter answer and
// every sessions page must equal what a replayed twin published at that
// hour. Run under -race, it also checks the barrier's publication
// against concurrent readers.
func TestReadersSeeOneRoundCut(t *testing.T) {
	cfg := testConfig(21)
	const hours = 36
	twin, err := New(cfg, Options{Workers: 1, RoundHours: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64]cutRecord, hours+1)
	for h := int64(0); h <= hours; h++ {
		if err := twin.Churn(h); err != nil {
			t.Fatal(err)
		}
		want[h] = cutRecord{
			hash:     twin.Stats().TableHash,
			topk:     serve(twin.Handler(), cutTopKPath).Body.Bytes(),
			sessions: serve(twin.Handler(), cutSessionsPath).Body.Bytes(),
		}
	}

	d, err := New(cfg, Options{Workers: 2, RoundHours: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := d.Handler()
	done := make(chan struct{})
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		reads = map[string]int{}
		bad   []string
	)
	reader := func(path string, check func(*httptest.ResponseRecorder) error) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			rec := serve(h, path)
			err := check(rec)
			if err == nil && rec.Code != http.StatusOK {
				err = fmt.Errorf("status %d", rec.Code)
			}
			mu.Lock()
			reads[path]++
			if err != nil && len(bad) < 5 {
				bad = append(bad, path+": "+err.Error())
			}
			mu.Unlock()
		}
	}
	wg.Add(4)
	go reader("/ha", func(rec *httptest.ResponseRecorder) error {
		var ha HAView
		if err := json.Unmarshal(rec.Body.Bytes(), &ha); err != nil {
			return err
		}
		if w := want[ha.VirtualHours].hash; ha.TableHash != w {
			return fmt.Errorf("hour %d with table hash %s, twin recorded %s", ha.VirtualHours, ha.TableHash, w)
		}
		return nil
	})
	go reader("/snapshot", func(rec *httptest.ResponseRecorder) error {
		at, err := strconv.ParseInt(rec.Header().Get(SnapshotHoursHeader), 10, 64)
		if err != nil {
			return err
		}
		recs, err := stripe.DecodeSnapshot(rec.Body)
		if err != nil {
			return err
		}
		if got, w := fmt.Sprintf("%016x", stripe.Hash(recs)), want[at].hash; got != w {
			return fmt.Errorf("cut of hour %d hashes to %s, twin recorded %s", at, got, w)
		}
		return nil
	})
	go reader(cutTopKPath, func(rec *httptest.ResponseRecorder) error {
		var ans TopKAnswer
		if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
			return err
		}
		if w := want[ans.VirtualHours].topk; !bytes.Equal(rec.Body.Bytes(), w) {
			return fmt.Errorf("hour %d answer %s, twin answered %s", ans.VirtualHours, rec.Body.Bytes(), w)
		}
		return nil
	})
	go reader(cutSessionsPath, func(rec *httptest.ResponseRecorder) error {
		var page SessionsPage
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			return err
		}
		if w := want[page.VirtualHours].sessions; !bytes.Equal(rec.Body.Bytes(), w) {
			return fmt.Errorf("hour %d page differs from the twin's", page.VirtualHours)
		}
		return nil
	})
	for hr := int64(1); hr <= hours; hr++ {
		if err := d.Churn(hr); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	for _, b := range bad {
		t.Error(b)
	}
	for _, path := range []string{"/ha", "/snapshot", cutTopKPath, cutSessionsPath} {
		if reads[path] == 0 {
			t.Errorf("no reads of %s during churn", path)
		}
	}
}

// TestSketchBinaryIsFreshMerge: /sketch?format=binary, now encoded on
// demand, is byte-identical to the encoding of a fresh stripe-order
// merge of the engines' partials, at any worker count.
func TestSketchBinaryIsFreshMerge(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 2, 16} {
		d := churned(t, testConfig(8), Options{Workers: workers, RoundHours: 3}, 24)
		rec := serve(d.Handler(), "/sketch?format=binary")
		if rec.Code != http.StatusOK {
			t.Fatalf("workers=%d: status %d", workers, rec.Code)
		}
		fresh := d.mergeEngineSketches().Encode()
		if !bytes.Equal(rec.Body.Bytes(), fresh) {
			t.Errorf("workers=%d: /sketch?format=binary differs from a fresh stripe-order merge", workers)
		}
		if ref == nil {
			ref = fresh
		} else if !bytes.Equal(fresh, ref) {
			t.Errorf("workers=%d: merged sketch bytes differ from workers=1", workers)
		}
	}
}

// BenchmarkRoundBarrier times serve-bng's default shape after a virtual
// day: 100k subscribers with hourly rounds. "round" is one whole round,
// engines included; "barrier" is the round cut alone (sorted table,
// counts, hash, sketch merge, both JSON views).
func BenchmarkRoundBarrier(b *testing.B) {
	d, err := New(DefaultConfig(100_000, 1), Options{Workers: 2, RoundHours: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Churn(24); err != nil {
		b.Fatal(err)
	}
	b.Run("round", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := d.Churn(d.Hours() + 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("barrier", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.buildCut(d.Hours())
		}
	})
}
