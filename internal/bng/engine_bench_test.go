package bng

import (
	"fmt"
	"testing"

	"dynamips/internal/parallel"
)

// BenchmarkEngineAdvance times the "engine event pop → server decision"
// stage alone: every engine's advance over one virtual day after the
// attach, fanned out over the workers with no round barrier. The shape is
// bench/'s bng-churn at 50k subscribers: DefaultConfig with RADIUS CoA
// and two-hop DHCP relay chains. Each iteration builds and attaches a
// fresh daemon with the timer stopped, so every iteration churns the
// same day. It reports ns/event; BenchmarkRoundBarrier covers the
// barrier.
func BenchmarkEngineAdvance(b *testing.B) {
	cfg := DefaultConfig(50_000, 20201201)
	sc, err := ParseScenario("coa-mean=72,relay-hops=2")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Scenario = sc
	const until = 25 * 3600
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, err := New(cfg, Options{Workers: workers, RoundHours: 1})
				if err != nil {
					b.Fatal(err)
				}
				if err := d.Churn(1); err != nil {
					b.Fatal(err)
				}
				before := d.Stats().Events.Events
				b.StartTimer()
				_, err = parallel.MapErr(len(d.engines), workers, func(sh int) (struct{}, error) {
					return struct{}{}, d.engines[sh].advance(until)
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range d.engines {
					events += e.stats.Events
				}
				events -= before
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
