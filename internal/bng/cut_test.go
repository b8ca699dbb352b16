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

// mergeEngineSketches is the cut's oracle: every stripe's partial
// folded, in stripe-index order, into one fresh set. Call it only while
// no Churn runs.
func (d *Daemon) mergeEngineSketches() *sketch.Set {
	acc := sketch.BNGEngine.New()
	for _, e := range d.engines {
		if err := acc.Merge(e.sk); err != nil {
			panic(err) // engines share one schema by construction
		}
	}
	return acc
}

// cutScenario drives every fold path: CoA and Disconnect, lossy relay
// chains, and a renumbering takeover at hour 12.
const cutScenario = "coa-mean=72,disconnect-mean=200,relay-hops=2,relay-drop=0.3,failover-at=12,policy=renumber"

// checkCutIsFreshMerge fails unless the published cut's /sketch binary
// and full view equal the oracle's fresh merge of the partials.
func checkCutIsFreshMerge(t *testing.T, d *Daemon) {
	t.Helper()
	fresh := d.mergeEngineSketches()
	if !bytes.Equal(d.SketchBinary(), fresh.Encode()) {
		t.Fatalf("hour %d: /sketch?format=binary differs from a fresh stripe-order merge", d.Hours())
	}
	view := SketchView{VirtualHours: d.Hours(), Sketches: fresh.Summarize(summaryProbs, summaryTop)}
	if !bytes.Equal(d.current().sketchJSON, indentJSON(view)) {
		t.Fatalf("hour %d: /sketch view differs from the fresh merge's", d.Hours())
	}
}

// TestSketchBinaryIsFreshMerge: at every round, /sketch?format=binary
// and the /sketch view equal a fresh stripe-order merge of the engines'
// partials, at every shard width (shards 0 decrements its heavy
// hitters, so the cut rebuilds them), worker count, round length and
// with or without a scenario driving every fold path. Under the race
// detector only the widest worker count runs: the bytes are the same at
// every count, and the race detector needs the concurrency.
func TestSketchBinaryIsFreshMerge(t *testing.T) {
	sc, err := ParseScenario(cutScenario)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 3, 8} {
		for _, scen := range []*Scenario{nil, sc} {
			for _, rounds := range []struct{ hours, until int64 }{{1, 24}, {6, 48}} {
				for _, workers := range []int{1, 2, 4} {
					if raceEnabled && workers != 4 {
						continue
					}
					name := fmt.Sprintf("shards=%d/scenario=%t/round=%dh/workers=%d", shards, scen != nil, rounds.hours, workers)
					t.Run(name, func(t *testing.T) {
						cfg := scenarioConfig(8, scen)
						cfg.ShardBits = shards
						d, err := New(cfg, Options{Workers: workers, RoundHours: rounds.hours})
						if err != nil {
							t.Fatal(err)
						}
						checkCutIsFreshMerge(t, d)
						for d.Hours() < rounds.until {
							if err := d.Churn(d.Hours() + rounds.hours); err != nil {
								t.Fatal(err)
							}
							checkCutIsFreshMerge(t, d)
						}
					})
				}
			}
		}
	}
}

// TestCutRebuilds: the cut rebuilds a heavy hitter from every partial
// only when merging the round's listed keys would be wrong, and the
// engines' change lists never grow.
func TestCutRebuilds(t *testing.T) {
	// One engine holds every key, so its lists overflow and its heavy
	// hitters decrement, and the cut must rebuild.
	one := testConfig(3)
	one.ShardBits = 0
	d := churned(t, one, Options{Workers: 2, RoundHours: 1}, 48)
	if d.merged.rebuilds <= nChurn {
		t.Errorf("shards 0: %d rebuilds over 48 rounds, want more than the first cut's %d", d.merged.rebuilds, nChurn)
	}
	checkCutIsFreshMerge(t, d)

	// A 24-hour round overflows the lists; they keep their capacity.
	d = churned(t, testConfig(3), Options{Workers: 2, RoundHours: 24}, 24)
	if d.merged.rebuilds != 2*nChurn {
		t.Errorf("24-hour round: %d rebuilds, want %d (first cut and overflow)", d.merged.rebuilds, 2*nChurn)
	}
	for _, e := range d.engines {
		for i := range e.changes {
			if c := cap(e.changes[i].keys); c != changeCap {
				t.Fatalf("engine %d: change list %d has capacity %d, want %d", e.id, i, c, changeCap)
			}
		}
	}
	checkCutIsFreshMerge(t, d)

	if testing.Short() || raceEnabled {
		t.Skip("serve-bng's default shape takes seconds")
	}
	// At serve-bng's default shape the first cut is the only rebuild.
	d, err := New(DefaultConfig(100_000, 1), Options{Workers: 2, RoundHours: 1})
	if err != nil {
		t.Fatal(err)
	}
	for h := int64(1); h <= 25; h++ {
		if err := d.Churn(h); err != nil {
			t.Fatal(err)
		}
	}
	if d.merged.rebuilds != nChurn {
		t.Errorf("default shape: %d rebuilds over 25 hourly rounds, want only the first cut's %d", d.merged.rebuilds, nChurn)
	}
	checkCutIsFreshMerge(t, d)
}

// TestCutRebuildsOnDecrement: a round whose listed keys fit their lists
// but whose partial ran a Misra-Gries decrement is rebuilt, and equals
// the fresh merge. The daemon's own rounds reach a decrement only with
// lists that overflow too, so this folds fresh /24s into one engine
// directly, a list's worth per cut, until its summary passes capacity.
func TestCutRebuildsOnDecrement(t *testing.T) {
	d, err := New(testConfig(3), Options{Workers: 2, RoundHours: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := d.engines[0]
	tk := e.sk.TopK(sketch.Churn24)
	slid := 0
	for key := uint32(1); slid < 3; {
		slack := tk.Slack()
		for range changeCap {
			e.skV4Change(key << 8)
			key++
		}
		rebuilds := d.merged.rebuilds
		d.cut.Store(d.buildCut(d.Hours()))
		checkCutIsFreshMerge(t, d)
		if tk.Slack() != slack {
			slid++
			if d.merged.rebuilds != rebuilds+1 {
				t.Fatalf("slack moved %d → %d: the cut rebuilt %d heavy hitters, want 1", slack, tk.Slack(), d.merged.rebuilds-rebuilds)
			}
		}
	}
}

// BenchmarkRoundBarrier times serve-bng's default shape after a virtual
// day: 100k subscribers with hourly rounds. "round" is one whole round,
// engines included; "barrier" is the round cut alone (sorted table,
// counts, hash, sketch merge, both JSON views) of a round whose engines
// advanced an hour, untimed, so the cut merges one hour's changes.
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
			b.StopTimer()
			h := d.Hours() + 1
			if err := d.advanceEngines(h*3600, false); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			d.cut.Store(d.buildCut(h))
		}
	})
}
