// Command bench is the repository's benchmark. It drives four seeded
// workloads through the public entry points of internal/cdn/stream,
// internal/bng and internal/experiments, checks their outputs, and
// prints end-to-end metrics (untraced timed reps) or per-layer metrics
// (traced reps). BENCHMARK.json at the repository root lists both; the
// README beside this file explains the workloads and how to run them.
//
//	go run . -workload cdn-stream -seed 7 -seconds 25 -trace 0
//
// The last line of standard output is the result as one JSON object.
// The exit status is non-zero when any operation or output check failed.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

const (
	defaultSeed = 20201201
	// benchWorkers is every pipeline's worker count: the 2 CPUs of the
	// machine the benchmark was calibrated on.
	benchWorkers = 2
	// minReps keeps the statistics meaningful when a rep outlasts
	// -seconds.
	minReps = 3
	// stageSumTolerance is how much of a traced rep's wall time its layer
	// spans may leave unattributed.
	stageSumTolerance = 0.15
)

// workload is one benchmark input set. timed sets up and runs the
// untraced reps; traced runs one traced rep and the layer probes.
type workload struct {
	name   string
	timed  func(*bench) (timing, error)
	traced func(*bench) (rep time.Duration, err error)
}

var workloads = []workload{
	{"cdn-stream", (*bench).cdnTimed, (*bench).cdnTraced},
	{"bng-churn", (*bench).churnTimed, (*bench).churnTraced},
	{"bng-serve", (*bench).serveTimed, (*bench).serveTraced},
	{"paper-figures", (*bench).figuresTimed, (*bench).figuresTraced},
}

// timing is what a workload's timed reps measured.
type timing struct {
	setup []float64 // seconds per set-up
	walls []float64 // seconds per rep
	rates []float64 // work items per second, per rep
	rss   []float64 // resident-set peak per rep, MiB
	// latency holds a serving workload's poll times in milliseconds; the
	// batch workloads leave it nil and their latency is the rep time.
	latency []float64
}

// expected pins outputs of the default seed at fullSizes.
type expected struct {
	Seed            int64    `json:"seed"`
	CDNStreamReport string   `json:"cdn_stream_report_sha256"`
	BNGChurn        churnPin `json:"bng_churn_rep"`
	PaperFigures    string   `json:"paper_figures_sha256"`
}

// churnPin is what one bng-churn rep leaves: the session table's hash
// and the events processed.
type churnPin struct {
	TableHash string `json:"table_hash"`
	Events    uint64 `json:"events"`
}

//go:embed expected.json
var expectedJSON []byte

// sizes holds every workload's input size. fullSizes is what the
// benchmark runs; the smoke test runs tinySizes.
type sizes struct {
	cdn     cdnSize
	churn   churnSize
	serve   serveSize
	figures figuresSize
}

var fullSizes = sizes{
	cdn:   cdnSize{scale: 1, days: 150, shards: 64, warmScale: 0.05},
	churn: churnSize{subscribers: 250_000, repHours: 24},
	// The poll intervals are the defaults of serve-bng -poll and
	// dynamips watch -interval.
	serve:   serveSize{subscribers: 100_000, repHours: 24, standbyPoll: time.Second, watchInterval: 2 * time.Second},
	figures: figuresSize{hours: 17520, probeScale: 0.3, cdnScale: 0.1, cdnDays: 150},
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	size     sizes
}

// bench is one run's state.
type bench struct {
	opt      options
	tmp      string
	led      ledger
	metrics  []metric
	tr       *tracer
	exp      expected
	workload string   // the workload whose metrics are being recorded
	notes    []string // output digests, for pinning them in expected.json
}

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, b.workload+" "+fmt.Sprintf(format, args...))
}

// pinned reports whether this run's outputs are pinned in expected.json.
func (b *bench) pinned() bool { return b.opt.seed == b.exp.Seed && b.opt.size == fullSizes }

func (b *bench) record(m metric) {
	m.Workload = b.workload
	b.metrics = append(b.metrics, m)
}

func (b *bench) layer(name, unit string, samples ...float64) {
	b.record(summarize(perLayer, name, unit, samples...))
}

// reps runs cycles back to back until the run's measuring time is used,
// and at least minReps times. A cycle starts from a collected heap and a
// reset resident-set high-water mark, runs the set-up (its time goes to
// t.setup), then the rep, which returns the work items it completed,
// then the optional untimed teardown, which runs even when the rep
// fails. The cycle's memory peak covers set-up and rep. Setting up in
// every cycle spreads the set-up samples over the run, as the rep
// samples are.
func (b *bench) reps(t *timing, setup func() error, rep func() (float64, error), teardown func() error) error {
	deadline := time.Now().Add(b.opt.seconds)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		debug.FreeOSMemory()
		resetPeakRSS()
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		t.setup = append(t.setup, time.Since(start).Seconds())
		start = time.Now()
		items, err := rep()
		wall := time.Since(start).Seconds()
		rss, rssErr := peakRSS()
		if teardown != nil {
			if terr := teardown(); err == nil {
				err = terr
			}
		}
		if err == nil {
			err = rssErr
		}
		if err != nil {
			b.led.ops(1, 1)
			return err
		}
		b.led.ops(1, 0)
		t.walls = append(t.walls, wall)
		t.rates = append(t.rates, items/wall)
		t.rss = append(t.rss, rss)
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cdn-stream, bng-churn, bng-serve or paper-figures")
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	secs := fs.Float64("seconds", 25, "how long the timed reps run")
	traceFlag := fs.Int("trace", 0, "1 adds one traced rep of every workload and reports the per-layer metrics")
	jsonOut := fs.String("json", "", "also write every metric to this file as JSON")
	traceOut := fs.String("trace-out", "", "write the traced reps' spans to this file as Chrome trace-event JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *secs < 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "bench: usage: -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-json FILE] [-trace-out FILE]")
		return 2
	}
	opt := options{
		workload: *name, seed: *seed, trace: *traceFlag == 1,
		seconds: time.Duration(*secs * float64(time.Second)), size: fullSizes,
	}
	b, err := runBench(opt)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	writeLines(stdout, b.metrics)
	for _, n := range b.notes {
		fmt.Fprintf(stderr, "bench: %s\n", n)
	}
	for _, f := range b.led.failures {
		fmt.Fprintf(stderr, "bench: FAILED: %s\n", f)
	}
	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, b.metrics); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *traceOut != "" && b.tr != nil {
		if err := b.tr.writeChrome(*traceOut); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	want := endToEnd
	if opt.trace {
		want = perLayer
	}
	line, err := json.Marshal(newResultLine(&b.led, b.metrics, want))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if b.led.failed > 0 {
		return 1
	}
	return 0
}

// runBench runs the timed reps of opt.workload and, when tracing, one
// traced rep of every workload, so that a traced run reports every
// per-layer metric whichever workload it names.
func runBench(opt options) (*bench, error) {
	var target *workload
	for i := range workloads {
		if workloads[i].name == opt.workload {
			target = &workloads[i]
		}
	}
	if target == nil {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	b := &bench{opt: opt, workload: opt.workload}
	if err := json.Unmarshal(expectedJSON, &b.exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	tmp, err := os.MkdirTemp("", "dynbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	b.tmp = tmp

	t, err := target.timed(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	b.recordTiming(t)
	if !opt.trace {
		return b, nil
	}
	b.tr = newTracer()
	for _, w := range workloads {
		debug.FreeOSMemory()
		b.workload = w.name
		rep, err := w.traced(b)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		if w.name == opt.workload {
			b.record(summarize(perLayer, "trace.overhead_ratio", "ratio", rep.Seconds()/median(t.walls)))
		}
	}
	b.workload = opt.workload
	return b, nil
}

// recordTiming records the end-to-end metrics of the timed reps. Rep
// times are reported by the run's fastest rep (the highest rate, the
// lowest time), not the median rep: the 2-CPU virtual machine the
// benchmark was calibrated on runs the same code up to half as fast for
// seconds at a time, and the fastest rep is the statistic that moved
// least from one run to the next there (README.md, "Noise and bounds").
// Every rep does the same work, so no rep can be fast by chance.
func (b *bench) recordTiming(t timing) {
	b.record(summarize(endToEnd, "setup_s", "s", t.setup...))
	b.record(summarizeAt(endToEnd, "throughput_per_s", "1/s", 1, t.rates))
	if t.latency != nil {
		b.record(summarize(endToEnd, "latency_ms", "ms", t.latency...))
	} else {
		b.record(summarizeAt(endToEnd, "latency_ms", "ms", 0, scaled(t.walls, 1e3)))
	}
	b.record(summarize(endToEnd, "peak_rss_mib", "MiB", t.rss...))
	b.record(summarize(info, "rep_s", "s", t.walls...))
	b.record(summarize(info, "gomaxprocs", "count", float64(runtime.GOMAXPROCS(0))))
}

// stageSum records the share of a traced rep's wall time that its layer
// spans leave unattributed, and checks it against stageSumTolerance.
// The self time of containers, spans that only group layer spans, is
// unattributed too.
func (b *bench) stageSum(name string, l layers, containers ...string) {
	unattributed := l.residual
	for _, c := range containers {
		unattributed += l.self[c]
	}
	share := unattributed.Seconds() / l.wall.Seconds()
	b.layer(name, "ratio", share)
	b.led.check(share <= stageSumTolerance,
		"%s: layer spans leave %.1f%% of the traced rep unattributed (limit %.0f%%)", b.workload, 100*share, 100*stageSumTolerance)
}
