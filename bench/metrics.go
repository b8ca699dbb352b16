package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// kind says which list of BENCHMARK.json a metric belongs to; info
// metrics are printed but never part of the result line.
type kind int

const (
	endToEnd kind = iota
	perLayer
	info
)

// metric is one reported figure: the statistic named by stat over n
// samples, with the samples' quartiles.
type metric struct {
	Workload string  `json:"workload"`
	Name     string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Stat     string  `json:"stat"`
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
	N        int     `json:"n"`
	kind     kind
}

// quantile is the linearly interpolated p-quantile of sorted samples.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// summarize builds a metric whose value is the median of samples.
func summarize(k kind, name, unit string, samples ...float64) metric {
	return summarizeAt(k, name, unit, 0.5, samples)
}

// statNames names the quantiles the metrics are reported at.
var statNames = map[float64]string{0: "min", 0.5: "median", 1: "max"}

// summarizeAt builds a metric whose value is the p-quantile of samples;
// p is one of statNames.
func summarizeAt(k kind, name, unit string, p float64, samples []float64) metric {
	s := sortedCopy(samples)
	stat := statNames[p]
	return metric{
		Name: name, Unit: unit, Stat: stat, kind: k, N: len(s),
		Value: quantile(s, p), Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75),
	}
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeLines prints every metric as "workload metric value unit" with its
// statistic, quartiles and sample count.
func writeLines(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %s %s %s q1=%s median=%s q3=%s n=%d\n",
			m.Workload, m.Name, num(m.Value), m.Unit, m.Stat, num(m.Q1), num(m.Median), num(m.Q3), m.N)
	}
}

func writeJSONFile(path string, ms []metric) error {
	b, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultLine is the run's result: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResultLine(led *ledger, ms []metric, want kind) resultLine {
	r := resultLine{
		Correct: led.failed == 0, Attempted: led.attempted, Failed: led.failed,
		Metrics: map[string]resultValue{},
	}
	for _, m := range ms {
		if m.kind == want {
			r.Metrics[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
		}
	}
	return r
}

// ledger counts attempted and failed operations: timed reps, API
// requests and output checks. Every failure is also described.
type ledger struct {
	attempted, failed int64
	failures          []string
}

func (l *ledger) ops(attempted, failed int64) {
	l.attempted += attempted
	l.failed += failed
}

// check records one output check.
func (l *ledger) check(ok bool, format string, args ...any) {
	l.attempted++
	if !ok {
		l.failed++
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// sameDigest checks that every rep of a workload produced the digest
// of its first rep.
func (l *ledger) sameDigest(what string, first *string, got string) {
	if *first == "" {
		*first = got
	}
	l.check(got == *first, "%s digest %s differs from the first rep's %s", what, got, *first)
}

// peakRSS reads the process's resident-set high-water mark in MiB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS resets the high-water mark to the current resident set,
// so the next peakRSS covers only what follows. Writing 5 to clear_refs
// is the kernel's reset; where it is refused, the mark covers everything
// since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
