package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynamips/internal/bng"
	"dynamips/internal/sketch"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := fn()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput so far:\n%s", ferr, out)
	}
	return out
}

// TestWatchLiveSmoke drives 'dynamips watch -bng -once' against an
// in-process serve-bng daemon over real HTTP; the session-duration line
// shows every watched quantile point.
func TestWatchLiveSmoke(t *testing.T) {
	cfg := bng.DefaultConfig(2000, 3)
	cfg.ShardBits = 3
	d, err := bng.New(cfg, bng.Options{Workers: 2, RoundHours: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Churn(24); err != nil {
		t.Fatal(err)
	}
	api, err := d.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer api.Shutdown(context.Background())

	out := captureStdout(t, func() error {
		return cmdWatch([]string{"-bng", "http://" + api.Addr(), "-once"})
	})
	for _, want := range []string{"virtual hour 24", sketch.DurHours, sketch.Churn24, sketch.Pfx64, "/24=",
		" p50=", " p95=", " p99="} {
		if !strings.Contains(out, want) {
			t.Errorf("watch -bng output missing %q:\n%s", want, out)
		}
	}
}

// TestWatchSpillTail: 'watch -spill -once' folds the spill files a
// streaming gen run left behind.
func TestWatchSpillTail(t *testing.T) {
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	out := filepath.Join(dir, "assoc.csv")
	if err := cmdGen([]string{"cdn", "-scale", "0.03", "-days", "60",
		"-spill-dir", spill, "-o", out}); err != nil {
		t.Fatalf("gen cdn: %v", err)
	}
	got := captureStdout(t, func() error {
		return cmdWatch([]string{"-spill", spill, "-once"})
	})
	if strings.Contains(got, " 0 association rows folded") {
		t.Fatalf("watch -spill folded nothing:\n%s", got)
	}
	for _, want := range []string{"rows folded", "rows24", "rows64", "pfx24", "pfx64"} {
		if !strings.Contains(got, want) {
			t.Errorf("watch -spill output missing %q:\n%s", want, got)
		}
	}
}

// TestWatchFlagErrors pins the mutually-exclusive source flags.
func TestWatchFlagErrors(t *testing.T) {
	if err := cmdWatch(nil); err == nil {
		t.Error("watch without a source accepted")
	}
	if err := cmdWatch([]string{"-bng", "http://x", "-spill", "/tmp"}); err == nil {
		t.Error("watch with both sources accepted")
	}
	if err := cmdWatch([]string{"-bng", "http://x", "extra"}); err == nil {
		t.Error("watch with positional arguments accepted")
	}
}

// TestFmtSketchKey pins the address-space renderings.
func TestFmtSketchKey(t *testing.T) {
	if got := fmtSketchKey("churn24", 0x0A0B0C); got != "10.11.12.0/24" {
		t.Errorf("churn24 key: %q", got)
	}
	if got := fmtSketchKey("rows64", 0x20010DB800000000); got != "2001:db8::/64" {
		t.Errorf("rows64 key: %q", got)
	}
	if got := fmtSketchKey("other", 0x2A); got != "0x2a" {
		t.Errorf("other key: %q", got)
	}
}
