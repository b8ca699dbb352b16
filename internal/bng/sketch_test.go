package bng

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"dynamips/internal/sketch"
)

func sketchJSONBytes(t *testing.T, d *Daemon) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteSketchJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSketchWorkerInvariance: the merged sketch set — binary encoding
// and canonical JSON view — must be byte-identical at any worker count,
// including under an operator-action scenario that exercises the CoA
// and disconnect fold paths.
func TestSketchWorkerInvariance(t *testing.T) {
	sc := &Scenario{CoAMeanHours: 12, DisconnectMeanHours: 48}
	cfg := scenarioConfig(42, sc)
	ref := churned(t, cfg, Options{Workers: 1, RoundHours: 5}, 24)
	wantBin := ref.SketchBinary()
	wantJSON := sketchJSONBytes(t, ref)
	if len(wantBin) == 0 || len(wantJSON) == 0 {
		t.Fatal("reference daemon produced empty sketch state")
	}
	for _, workers := range []int{2, 4, 16} {
		d := churned(t, cfg, Options{Workers: workers, RoundHours: 5}, 24)
		if !bytes.Equal(d.SketchBinary(), wantBin) {
			t.Errorf("workers=%d: sketch binary differs from workers=1", workers)
		}
		if !bytes.Equal(sketchJSONBytes(t, d), wantJSON) {
			t.Errorf("workers=%d: sketch JSON differs from workers=1", workers)
		}
	}
}

// TestSketchResumeIdentity: a daemon replayed from a checkpoint
// watermark rebuilds the exact sketch bytes of the uninterrupted run.
func TestSketchResumeIdentity(t *testing.T) {
	cfg := testConfig(77)
	dir := t.TempDir()
	first := churned(t, cfg, Options{Workers: 4, RoundHours: 2, CheckpointDir: dir}, 8)
	want := first.SketchBinary()
	second, err := New(cfg, Options{Workers: 2, RoundHours: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if h, err := second.Resume(); err != nil || h != 8 {
		t.Fatalf("Resume() = %d, %v; want 8, nil", h, err)
	}
	if !bytes.Equal(second.SketchBinary(), want) {
		t.Error("resumed daemon's sketch bytes differ from the uninterrupted run")
	}
}

// TestSketchMatchesEngineCounters cross-checks the sketches against the
// exact event counters the engines keep independently: every counted
// address change is one churn fold, every teardown is one duration
// sample, and the pool cardinalities agree with the live table.
func TestSketchMatchesEngineCounters(t *testing.T) {
	sc := &Scenario{CoAMeanHours: 12, DisconnectMeanHours: 48}
	d := churned(t, scenarioConfig(7, sc), Options{Workers: 4, RoundHours: 6}, 48)
	v := d.Stats()
	s, err := sketch.DecodeSet(d.SketchBinary())
	if err != nil {
		t.Fatal(err)
	}
	if n := s.TopK(sketch.Churn24).N(); n != v.Events.V4Changes {
		t.Errorf("churn24 N = %d, want V4Changes %d", n, v.Events.V4Changes)
	}
	if n := s.TopK(sketch.Churn64).N(); n != v.Events.V6Changes {
		t.Errorf("churn64 N = %d, want V6Changes %d", n, v.Events.V6Changes)
	}
	q := s.Quantile(sketch.DurHours)
	if want := v.Events.Flaps + v.Events.Disconnects; q.Count() != want {
		t.Errorf("dur_hours count = %d, want Flaps+Disconnects %d", q.Count(), want)
	}
	if q.Count() == 0 {
		t.Fatal("no completed sessions after 48h of churn")
	}
	if med := q.Query(0.5); med <= 0 {
		t.Errorf("median session duration %.3fh, want > 0", med)
	}
	// The pool cardinalities count every /24 (and /64 group) ever
	// assigned from, so the live table's distinct sets lower-bound them.
	live24 := map[uint64]bool{}
	live64 := map[uint64]bool{}
	for _, rec := range d.Table().SnapshotSorted() {
		live24[uint64(rec.Addr4>>8)] = true
		if rec.Pfx6Len != 0 {
			live64[rec.Pfx6Hi] = true
		}
	}
	c24 := s.Card(sketch.Pfx24)
	if min := float64(len(live24)) * (1 - 4*c24.RSE()); c24.Estimate() < min {
		t.Errorf("pfx24 estimate %.0f below live floor %.0f", c24.Estimate(), min)
	}
	c64 := s.Card(sketch.Pfx64)
	if min := float64(len(live64)) * (1 - 4*c64.RSE()); c64.Estimate() < min {
		t.Errorf("pfx64 estimate %.0f below live floor %.0f", c64.Estimate(), min)
	}
}

// TestSessionEndsBalanceAttaches: at every round boundary each session
// an attach or reattach opened is either live or has ended and folded
// its duration into dur_hours. A renumber whose relayed DORA exhausts
// its attempts ends a live session, and must fold it like a flap or a
// disconnect does; sticky business renumbering every 2 hours behind
// lossy relays makes that common.
func TestSessionEndsBalanceAttaches(t *testing.T) {
	relayed := DefaultConfig(1000, 20201201)
	relayed.ShardBits = 2
	relayed.Groups[1].RenumberMeanHours = 2
	relayed.Scenario = &Scenario{RelayHops: 2, RelayDrop: 0.3}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", testConfig(20201201)},
		{"relayed", relayed},
	} {
		d, err := New(tc.cfg, Options{Workers: 2, RoundHours: 6})
		if err != nil {
			t.Fatal(err)
		}
		for h := int64(6); h <= 48; h += 6 {
			if err := d.Churn(h); err != nil {
				t.Fatal(err)
			}
			v := d.Stats()
			s, err := sketch.DecodeSet(d.SketchBinary())
			if err != nil {
				t.Fatal(err)
			}
			ended := s.Quantile(sketch.DurHours).Count()
			if opened := v.Events.Attaches + v.Events.Reattach; opened != ended+uint64(v.ActiveSessions) {
				t.Fatalf("%s, hour %d: %d sessions opened, %d ended and %d active (%d relay outages)",
					tc.name, h, opened, ended, v.ActiveSessions, v.Events.RelayOutages)
			}
		}
	}
}

// TestSketchEndpoint drives the /sketch route through real HTTP: full
// view, per-op answers, the binary form, and the error statuses.
func TestSketchEndpoint(t *testing.T) {
	d := churned(t, testConfig(13), Options{Workers: 4, RoundHours: 6}, 24)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	c := NewClient(srv.URL, nil).WithRetry(0, 0)

	view, err := c.Sketch()
	if err != nil {
		t.Fatal(err)
	}
	if view.VirtualHours != 24 || len(view.Sketches) != 5 {
		t.Fatalf("full view: hours %d sketches %d, want 24 and 5", view.VirtualHours, len(view.Sketches))
	}
	qa, err := c.SketchQuantile(sketch.DurHours, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if qa.Count == 0 || qa.P != 0.9 {
		t.Errorf("quantile answer %+v, want count > 0 and p=0.9", qa)
	}
	ta, err := c.SketchTopK(sketch.Churn24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.Top) == 0 || len(ta.Top) > 5 || ta.N != d.Stats().Events.V4Changes {
		t.Errorf("topk answer %+v, want 1..5 entries and N=%d", ta, d.Stats().Events.V4Changes)
	}
	ca, err := c.SketchCard(sketch.Pfx64)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Estimate <= 0 || ca.RSE <= 0 {
		t.Errorf("card answer %+v, want positive estimate and RSE", ca)
	}
	set, err := c.SketchSet()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(set.Encode(), d.SketchBinary()) {
		t.Error("binary round-trip re-encodes differently")
	}
	// The full-view body must be the daemon's cached canonical JSON.
	resp, err := http.Get(srv.URL + "/sketch")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(body, sketchJSONBytes(t, d)) {
		t.Error("/sketch body differs from cached canonical JSON")
	}
	for _, tc := range []struct {
		query string
		code  int
	}{
		{"?op=bogus", http.StatusBadRequest},
		{"?op=quantile", http.StatusBadRequest},
		{"?op=quantile&name=" + sketch.DurHours + "&p=2", http.StatusBadRequest},
		{"?op=quantile&name=" + sketch.DurHours + "&k=3", http.StatusBadRequest},
		{"?format=binary&op=card&name=" + sketch.Pfx24, http.StatusBadRequest},
		{"?junk=1", http.StatusBadRequest},
		{"?op=card&name=nope", http.StatusNotFound},
		{"?op=topk&name=" + sketch.DurHours, http.StatusNotFound}, // kind mismatch
	} {
		resp, err := http.Get(srv.URL + "/sketch" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET /sketch%s: status %d, want %d", tc.query, resp.StatusCode, tc.code)
		}
	}
	if resp, err := http.Post(srv.URL+"/sketch", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /sketch: status %d, want 405", resp.StatusCode)
		}
	}
}

// TestSketchViewAdvances: querying at successive virtual hours sees
// monotone event mass — the live-query property the watch command
// polls for.
func TestSketchViewAdvances(t *testing.T) {
	d, err := New(testConfig(5), Options{Workers: 4, RoundHours: 4})
	if err != nil {
		t.Fatal(err)
	}
	var lastN uint64
	for _, h := range []int64{8, 24, 72} {
		if err := d.Churn(h); err != nil {
			t.Fatal(err)
		}
		s, err := sketch.DecodeSet(d.SketchBinary())
		if err != nil {
			t.Fatal(err)
		}
		n := s.TopK(sketch.Churn24).N() + s.Quantile(sketch.DurHours).Count()
		if n <= lastN {
			t.Fatalf("hour %d: event mass %d did not grow past %d", h, n, lastN)
		}
		lastN = n
		if d.Sketch().VirtualHours != h {
			t.Fatalf("hour %d: view reports %d", h, d.Sketch().VirtualHours)
		}
	}
}

// TestParseSketchQuery pins the parser's accept/reject behavior.
func TestParseSketchQuery(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want SketchQuery
		ok   bool
	}{
		{"", SketchQuery{P: 0.5, K: summaryTop}, true},
		{"op=quantile&name=dur_hours", SketchQuery{Op: "quantile", Name: "dur_hours", P: 0.5, K: summaryTop}, true},
		{"op=quantile&name=dur_hours&p=0.99", SketchQuery{Op: "quantile", Name: "dur_hours", P: 0.99, K: summaryTop}, true},
		{"op=topk&name=churn24&k=50", SketchQuery{Op: "topk", Name: "churn24", P: 0.5, K: 50}, true},
		{"op=card&name=pfx64", SketchQuery{Op: "card", Name: "pfx64", P: 0.5, K: summaryTop}, true},
		{"format=binary", SketchQuery{Op: "binary", P: 0.5, K: summaryTop}, true},
		{"op=quantile", SketchQuery{}, false},          // missing name
		{"op=nope&name=x", SketchQuery{}, false},       // unknown op
		{"name=x", SketchQuery{}, false},               // name without op
		{"p=0.5", SketchQuery{}, false},                // param without op
		{"op=card&name=x&p=0.5", SketchQuery{}, false}, // p on card
		{"op=topk&name=x&p=0.5", SketchQuery{}, false}, // p on topk
		{"op=quantile&name=x&k=3", SketchQuery{}, false},
		{"op=quantile&name=x&p=1.5", SketchQuery{}, false},
		{"op=quantile&name=x&p=NaN", SketchQuery{}, false},
		{"op=topk&name=x&k=0", SketchQuery{}, false},
		{"op=topk&name=x&k=999999", SketchQuery{}, false},
		{"op=topk&name=x&k=2&k=3", SketchQuery{}, false}, // repeated key
		{"format=json", SketchQuery{}, false},
		{"format=binary&op=card&name=x", SketchQuery{}, false},
		{"bogus=1", SketchQuery{}, false},
		{"%zz", SketchQuery{}, false},
	} {
		got, err := ParseSketchQuery(tc.raw)
		if tc.ok {
			if err != nil {
				t.Errorf("%q: unexpected error %v", tc.raw, err)
			} else if got != tc.want {
				t.Errorf("%q: got %+v, want %+v", tc.raw, got, tc.want)
			}
		} else if err == nil {
			t.Errorf("%q: parsed %+v, want error", tc.raw, got)
		}
	}
}

// FuzzSketchQuery: the parser must never panic, must return the zero
// query with every error, and accepted queries must satisfy the
// invariants the handler relies on.
func FuzzSketchQuery(f *testing.F) {
	f.Add("")
	f.Add("op=quantile&name=dur_hours&p=0.5")
	f.Add("op=topk&name=churn24&k=10")
	f.Add("format=binary")
	f.Add("%zz&op=card")
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := ParseSketchQuery(raw)
		again, err2 := ParseSketchQuery(raw)
		if q != again || (err == nil) != (err2 == nil) {
			t.Fatalf("%q: parse is not deterministic", raw)
		}
		if err != nil {
			if q != (SketchQuery{}) {
				t.Fatalf("%q: error with non-zero query %+v", raw, q)
			}
			return
		}
		switch q.Op {
		case "", "binary":
			if q.Name != "" {
				t.Fatalf("%q: op %q carries name %q", raw, q.Op, q.Name)
			}
		case "quantile", "topk", "card":
			if q.Name == "" {
				t.Fatalf("%q: op %q without name", raw, q.Op)
			}
		default:
			t.Fatalf("%q: unknown op %q accepted", raw, q.Op)
		}
		if !(q.P >= 0 && q.P <= 1) {
			t.Fatalf("%q: p %v out of range", raw, q.P)
		}
		if q.K < 1 || q.K > maxSketchTop {
			t.Fatalf("%q: k %d out of range", raw, q.K)
		}
	})
}

// marshalView guards the canonical JSON shape: encoding the cached view
// struct directly must match the cached bytes (modulo the trailing
// newline both carry).
func TestSketchViewJSONCanonical(t *testing.T) {
	d := churned(t, testConfig(3), Options{Workers: 2, RoundHours: 6}, 12)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d.Sketch()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), sketchJSONBytes(t, d)) {
		t.Error("re-encoded view differs from cached canonical JSON")
	}
}
