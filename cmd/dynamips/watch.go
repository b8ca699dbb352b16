package main

import (
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"dynamips/internal/bng"
	"dynamips/internal/cdn/stream"
	"dynamips/internal/sketch"
)

// cmdWatch follows live online summaries: with -bng it polls a running
// serve-bng daemon's /sketch endpoint; with -spill it tails a streaming
// pipeline's spill directory, folding whatever complete chunks the
// in-flight run has journaled so far. Each tick renders one snapshot to
// stdout. -once renders a single snapshot and exits (the CI smoke
// mode); otherwise the watch re-polls every -interval until SIGTERM.
func cmdWatch(args []string) error {
	fs := newFlagSet("watch")
	bngURL := fs.String("bng", "", "poll the live serve-bng daemon at this URL")
	spill := fs.String("spill", "", "tail this streaming-pipeline spill directory")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	once := fs.Bool("once", false, "render one snapshot and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("watch: unexpected arguments %q", fs.Args())
	}
	if (*bngURL == "") == (*spill == "") {
		return fmt.Errorf("watch: exactly one of -bng or -spill is required")
	}
	var tick func() error
	if *bngURL != "" {
		cl := bng.NewClient(*bngURL, nil)
		tick = func() error {
			v, err := cl.Sketch()
			if err != nil {
				return err
			}
			renderSketches(os.Stdout, fmt.Sprintf("bng virtual hour %d", v.VirtualHours), v.Sketches)
			return nil
		}
	} else {
		dir := *spill
		tick = func() error {
			s, n, err := stream.TailSpillDir(dir)
			if err != nil {
				return err
			}
			renderSketches(os.Stdout, fmt.Sprintf("spill tail, %d association rows folded", n),
				s.Summarize(watchProbs, watchTop))
			return nil
		}
	}
	if err := tick(); err != nil {
		return err
	}
	if *once {
		return nil
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	for {
		select {
		case <-sig:
			return nil
		case <-time.After(*interval):
			if err := tick(); err != nil {
				return err
			}
		}
	}
}

// watchProbs are the quantile points a snapshot prints. Each is on
// serve-bng's /sketch grid, so a daemon's view carries all of them.
var watchProbs = []float64{0.5, 0.95, 0.99}

// watchTop is the number of heavy hitters a snapshot prints per sketch.
const watchTop = 3

// fmtSketchKey renders a heavy-hitter key in the sketch's own address
// space: /24 sketches carry the address's top 24 bits, /64 sketches the
// prefix's high 64 bits; anything else prints as hex.
func fmtSketchKey(name string, key uint64) string {
	switch {
	case strings.HasSuffix(name, "24"):
		a := netip.AddrFrom4([4]byte{byte(key >> 16), byte(key >> 8), byte(key), 0})
		return a.String() + "/24"
	case strings.HasSuffix(name, "64"):
		var b [16]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(key >> (56 - 8*i))
		}
		return netip.PrefixFrom(netip.AddrFrom16(b), 64).String()
	default:
		return fmt.Sprintf("%#x", key)
	}
}

// renderSketches prints one snapshot of either source: a header line,
// then one line per sketch summary.
func renderSketches(w io.Writer, header string, sums []sketch.Summary) {
	fmt.Fprintf(w, "watch: %s\n", header)
	for _, s := range sums {
		switch s.Kind {
		case "quantile":
			fmt.Fprintf(w, "  %-10s n=%d", s.Name, s.Count)
			for _, qp := range s.Quantiles {
				if slices.Contains(watchProbs, qp.P) {
					fmt.Fprintf(w, " p%02.0f=%.2f", qp.P*100, qp.V)
				}
			}
			fmt.Fprintln(w)
		case "topk":
			fmt.Fprintf(w, "  %-10s n=%d slack=%d top:", s.Name, s.N, s.Slack)
			for _, e := range s.Top[:min(len(s.Top), watchTop)] {
				fmt.Fprintf(w, " %s=%d", fmtSketchKey(s.Name, e.Key), e.Count)
			}
			fmt.Fprintln(w)
		case "card":
			fmt.Fprintf(w, "  %-10s ~%.0f distinct (rse %.2f%%)\n", s.Name, s.Estimate, 100*s.RSE)
		}
	}
}
