package main

import (
	"math"
	"strings"
	"testing"
)

// TestExperimentSpecTable pins flag normalization for 'dynamips
// experiment': fault/relay profiles parse into canonical strings (so
// equivalent spellings share a checkpoint key), and invalid knob
// combinations are rejected before any pipeline work starts.
func TestExperimentSpecTable(t *testing.T) {
	base := experimentFlags{
		name: "all", out: "-", seed: 7, hours: 2000,
		probeScale: 0.5, cdnScale: 0.1, cdnDays: 30, workers: 2,
	}
	mod := func(edit func(*experimentFlags)) experimentFlags {
		f := base
		edit(&f)
		return f
	}
	for _, tc := range []struct {
		label   string
		flags   experimentFlags
		want    runSpec // zero when wantErr
		wantErr string
	}{
		{
			label: "defaults",
			flags: base,
			want: runSpec{Kind: "experiment", Name: "all", Out: "-", Seed: 7,
				Hours: 2000, ProbeScale: 0.5, CDNScale: 0.1, CDNDays: 30, Workers: 2},
		},
		{
			label: "relay hops without per-hop profile",
			flags: mod(func(f *experimentFlags) { f.relayHops = 3 }),
			want: runSpec{Kind: "experiment", Name: "all", Out: "-", Seed: 7,
				Hours: 2000, ProbeScale: 0.5, CDNScale: 0.1, CDNDays: 30, Workers: 2,
				RelayHops: 3},
		},
		{
			label: "relay hops with canonicalized per-hop profile",
			flags: mod(func(f *experimentFlags) { f.relayHops = 2; f.relayFaults = "dup=0.01,drop=0.25" }),
			want: runSpec{Kind: "experiment", Name: "all", Out: "-", Seed: 7,
				Hours: 2000, ProbeScale: 0.5, CDNScale: 0.1, CDNDays: 30, Workers: 2,
				RelayHops: 2, RelayFaults: "drop=0.25,dup=0.01"},
		},
		{
			label:   "relay faults require relay hops",
			flags:   mod(func(f *experimentFlags) { f.relayFaults = "drop=0.25" }),
			wantErr: "-relay-faults needs -relay-hops",
		},
		{
			label:   "negative relay hops",
			flags:   mod(func(f *experimentFlags) { f.relayHops = -1 }),
			wantErr: "-relay-hops must be >= 0",
		},
		{
			label:   "malformed faults",
			flags:   mod(func(f *experimentFlags) { f.faults = "drop=lots" }),
			wantErr: "experiment:",
		},
		{
			label:   "out-of-range faults",
			flags:   mod(func(f *experimentFlags) { f.faults = "drop=1.5" }),
			wantErr: "experiment:",
		},
		{
			label:   "out-of-range relay profile",
			flags:   mod(func(f *experimentFlags) { f.relayHops = 1; f.relayFaults = "drop=2" }),
			wantErr: "-relay-faults:",
		},
		{
			label:   "unknown experiment",
			flags:   mod(func(f *experimentFlags) { f.name = "nosuch" }),
			wantErr: `unknown experiment "nosuch"`,
		},
		{
			label:   "json of a tabular experiment",
			flags:   mod(func(f *experimentFlags) { f.name = "table1"; f.asJSON = true }),
			wantErr: "-json needs a figure",
		},
		{
			label:   "json of all",
			flags:   mod(func(f *experimentFlags) { f.asJSON = true }),
			wantErr: "-json needs a figure",
		},
		{
			label:   "zero cdn scale",
			flags:   mod(func(f *experimentFlags) { f.cdnScale = 0 }),
			wantErr: "-cdn-scale 0 is not a positive finite factor",
		},
		{
			label:   "negative cdn scale",
			flags:   mod(func(f *experimentFlags) { f.cdnScale = -2 }),
			wantErr: "-cdn-scale -2 is not a positive finite factor",
		},
		{
			label:   "zero hours",
			flags:   mod(func(f *experimentFlags) { f.hours = 0 }),
			wantErr: "-hours must be positive, got 0",
		},
		{
			label:   "negative hours",
			flags:   mod(func(f *experimentFlags) { f.hours = -5 }),
			wantErr: "-hours must be positive, got -5",
		},
		{
			label:   "zero cdn days",
			flags:   mod(func(f *experimentFlags) { f.cdnDays = 0 }),
			wantErr: "-cdn-days must be positive, got 0",
		},
		{
			label:   "negative cdn days",
			flags:   mod(func(f *experimentFlags) { f.cdnDays = -3 }),
			wantErr: "-cdn-days must be positive, got -3",
		},
		{
			label:   "zero probe scale",
			flags:   mod(func(f *experimentFlags) { f.probeScale = 0 }),
			wantErr: "-probe-scale 0 is not a positive finite factor",
		},
		{
			label:   "negative probe scale",
			flags:   mod(func(f *experimentFlags) { f.probeScale = -1 }),
			wantErr: "-probe-scale -1 is not a positive finite factor",
		},
		{
			label:   "NaN probe scale",
			flags:   mod(func(f *experimentFlags) { f.probeScale = math.NaN() }),
			wantErr: "-probe-scale NaN is not a positive finite factor",
		},
		{
			label:   "infinite probe scale",
			flags:   mod(func(f *experimentFlags) { f.probeScale = math.Inf(1) }),
			wantErr: "-probe-scale +Inf is not a positive finite factor",
		},
		{
			label: "json of a figure",
			flags: mod(func(f *experimentFlags) { f.name = "fig4"; f.asJSON = true }),
			want: runSpec{Kind: "experiment", Name: "fig4", Out: "-", JSON: true, Seed: 7,
				Hours: 2000, ProbeScale: 0.5, CDNScale: 0.1, CDNDays: 30, Workers: 2},
		},
	} {
		got, err := experimentSpec(tc.flags)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("%s: got %+v, want error containing %q", tc.label, got, tc.wantErr)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %q does not contain %q", tc.label, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.label, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.label, got, tc.want)
		}
	}
}

// TestExperimentSpecKeySeparation: relay knobs must land in the
// checkpoint manifest key — a relay run can never resume a direct run's
// journal.
func TestExperimentSpecKeySeparation(t *testing.T) {
	f := experimentFlags{name: "all", out: "-", seed: 7, hours: 2000, probeScale: 0.5, cdnScale: 1, cdnDays: 30}
	direct, err := experimentSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	f.relayHops = 2
	relay, err := experimentSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := specKey(direct)
	if err != nil {
		t.Fatal(err)
	}
	kr, err := specKey(relay)
	if err != nil {
		t.Fatal(err)
	}
	if kd == kr {
		t.Error("relay-hops did not change the checkpoint key")
	}
}

// TestExperimentRejectsRemovedFaultKnobs: the fault grammar is drop, dup
// and delay only, and -faults drop=p is the one way to set datagram loss,
// so reorder= and the -loss shorthand are refused before any pipeline
// work starts.
func TestExperimentRejectsRemovedFaultKnobs(t *testing.T) {
	small := []string{"-hours", "100", "-probe-scale", "0.01"}
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-faults", "reorder=0.5"}, `unknown field "reorder"`},
		{[]string{"-faults", "drop=0.1,reorder=0.5"}, `unknown field "reorder"`},
		{[]string{"-loss", "0.1"}, "flag provided but not defined: -loss"},
	} {
		args := append(append(append([]string(nil), small...), tc.args...), "table1")
		err := cmdExperiment(args)
		if err == nil {
			t.Errorf("experiment %v: accepted, want error containing %q", tc.args, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("experiment %v: error %q does not contain %q", tc.args, err, tc.wantErr)
		}
	}
}
