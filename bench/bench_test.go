package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tinySizes runs every workload in a fraction of a second.
var tinySizes = sizes{
	cdn:     cdnSize{scale: 0.01, days: 30, shards: 8, warmScale: 0.005},
	churn:   churnSize{subscribers: 2_000, repHours: 24},
	serve:   serveSize{subscribers: 2_000, repHours: 48, standbyPoll: 10 * time.Millisecond, watchInterval: 20 * time.Millisecond},
	figures: figuresSize{hours: 2_000, probeScale: 0.05, cdnScale: 0.01, cdnDays: 30},
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkSpec reads the metric lists of the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) (e2e, layers []metricSpec) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// checkMetrics asserts that the result line of b carries exactly the
// listed metrics, each with its unit and a finite value.
func checkMetrics(t *testing.T, b *bench, want []metricSpec, k kind) {
	t.Helper()
	line := newResultLine(&b.led, b.metrics, k)
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Errorf("%s: attempted %d, failed %d: %v", b.opt.workload, line.Attempted, line.Failed, b.led.failures)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", b.opt.workload, len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", b.opt.workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", b.opt.workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", b.opt.workload, m.Name, got.Value)
		}
	}
	if _, err := json.Marshal(line); err != nil {
		t.Errorf("%s: result line: %v", b.opt.workload, err)
	}
}

// TestWorkloads runs every workload untraced, then one traced run (which
// traces every workload), at tiny sizes. The ledger counts the output
// checks, replay identities included, so a zero failure count covers
// them.
func TestWorkloads(t *testing.T) {
	e2e, layers := benchmarkSpec(t)
	for _, w := range workloads {
		b, err := runBench(options{workload: w.name, seed: 7, size: tinySizes})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, b, e2e, endToEnd)
	}
	b, err := runBench(options{workload: "bng-churn", seed: 7, trace: true, size: tinySizes})
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, b, layers, perLayer)

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := b.tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	if len(chrome.TraceEvents) == 0 || chrome.TraceEvents[0].Ph != "X" {
		t.Errorf("chrome trace: %d events, first %+v", len(chrome.TraceEvents), chrome.TraceEvents)
	}
}

// TestBreakdown checks the wall-time charging on a hand-built trace: a
// root with a serial child, then two concurrent children, then a gap.
func TestBreakdown(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{name: "root", start: 0, end: 100},
		{name: "a", parent: 1, start: 0, end: 40},
		{name: "a.child", parent: 2, start: 10, end: 30},
		{name: "p", parent: 1, start: 40, end: 80},
		{name: "p", parent: 1, start: 50, end: 70},
	}
	l := tr.breakdown(1)
	want := map[string]time.Duration{"a": 20, "a.child": 20, "p": 40}
	for name, d := range want {
		if l.self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, l.self[name], d)
		}
	}
	if l.wall != 100 || l.residual != 20 {
		t.Errorf("wall %v residual %v, want 100 and 20", l.wall, l.residual)
	}
}

// TestRunRejectsUnknownWorkload checks that a bad workload fails without
// a result line.
func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}
