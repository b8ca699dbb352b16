package bng

import (
	"fmt"
	"testing"

	"dynamips/internal/evq"
)

// TestEventQueueOrder: under the engine's scheduling rules the lanes and
// the heap together pop exactly the sequence one evq.Heap of every event
// pops. Each popped event schedules its subscriber's next one: a
// renewal its lane's fixed cadence later, any other kind a random
// interval ≥ 1 later. Cadences and intervals are a few seconds, so many
// events share an at and the key tie-break decides.
func TestEventQueueOrder(t *testing.T) {
	kinds := []uint8{evRenumber, evFlap, evReattach, evCoA, evDisconnect}
	for seed := uint64(1); seed <= 200; seed++ {
		rng := seed * gamma
		groups := 1 + int(next(&rng)%4)
		renew := make([]int64, groups)
		var subs []subState
		for gi := 0; gi < groups; gi++ {
			renew[gi] = 1 + int64(next(&rng)%5)
			n := 1 + int(next(&rng)%30)
			for i := 0; i < n; i++ {
				subs = append(subs, subState{key: uint64(gi)<<32 | uint64(i), group: int32(gi)})
			}
		}
		q := newEventQueue(subs, groups, seed)
		var ref evq.Heap[action]
		for i, s := range subs {
			ref.Push(event{At: 0, Tie: s.key, P: action{idx: int32(i), kind: evAttach, rng: seed + (s.key+1)*gamma}})
		}
		for step := 0; step < 4000; step++ {
			src, top := q.earliest()
			if top == nil {
				t.Fatalf("seed %d step %d: queue empty, reference holds %d events", seed, step, ref.Len())
			}
			got, want := q.pop(src), ref.Pop()
			if got != want {
				t.Fatalf("seed %d step %d: popped %+v, reference popped %+v", seed, step, got, want)
			}
			ev := got
			if next(&rng)%3 == 0 {
				ev.P.kind = kinds[next(&rng)%uint64(len(kinds))]
				ev.At += 1 + int64(next(&rng)%4)
			} else {
				ev.P.kind = evRenew
				ev.At += renew[ev.Tie>>32]
			}
			q.push(ev)
			ref.Push(ev)
		}
	}
}

// TestEventQueueLaneFullPanics: a lane holds one event per subscriber of
// its group, so a second pending renewal for a subscriber is a bug and
// panics instead of overwriting the lane head.
func TestEventQueueLaneFullPanics(t *testing.T) {
	q := newEventQueue([]subState{{key: 0, group: 0}}, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("pushing past the lane's capacity did not panic")
		}
	}()
	q.push(event{At: 5, P: action{kind: evRenew}})
}

// TestCadenceSkipThreshold: for every cadence of DefaultConfig, with and
// without the scenario's CoA and Disconnect actions, the skip threshold
// sits at or above the exact boundary — the least top-53-bit draw whose
// interval is at least renewSec, found by bisecting expInterval — and
// race decides every draw within 2^20 steps of that boundary, the first
// 2^16 draws the threshold skips, and random draws exactly as the full
// computation does.
func TestCadenceSkipThreshold(t *testing.T) {
	type source struct {
		name string
		c    cadence
	}
	checked := map[cadence]bool{}
	for _, sc := range []*Scenario{nil, {CoAMeanHours: 72, DisconnectMeanHours: 200}} {
		cfg := DefaultConfig(3000, 1)
		cfg.Scenario = sc
		for gi := range cfg.Groups {
			g := &cfg.Groups[gi]
			gs, err := buildGroupServers(g, sc, cfg.ShardBits, 0, &engClock{})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []source{{"renumber", gs.renumber}, {"flap", gs.flap}, {"coa", gs.coa}, {"disconnect", gs.disc}} {
				if s.c.mean == 0 || checked[s.c] {
					continue
				}
				checked[s.c] = true
				name := g.Name + "/" + s.name
				bound := skipBoundary(s.c.mean, gs.renewSec)
				if s.c.skip < bound {
					t.Errorf("%s: threshold %d below the exact boundary %d", name, s.c.skip, bound)
				}
				if s.c.skip >= 1<<53 {
					t.Errorf("%s: threshold never skips", name)
				}
				lo := uint64(0)
				if bound > 1<<20 {
					lo = bound - 1<<20
				}
				hi := min(bound+1<<20, 1<<53)
				rng := uint64(gi)
				for r := lo; r < hi; r++ {
					if msg := raceMismatch(&s.c, r<<11|next(&rng)&(1<<11-1), gs.renewSec); msg != "" {
						t.Fatalf("%s: %s", name, msg)
					}
				}
				for r := s.c.skip; r < s.c.skip+1<<16; r++ {
					if msg := raceMismatch(&s.c, r<<11|next(&rng)&(1<<11-1), gs.renewSec); msg != "" {
						t.Fatalf("%s: %s", name, msg)
					}
				}
				for i := 0; i < 100_000; i++ {
					if msg := raceMismatch(&s.c, next(&rng), gs.renewSec); msg != "" {
						t.Fatalf("%s: %s", name, msg)
					}
				}
			}
		}
	}
	if len(checked) != 10 {
		t.Errorf("checked %d distinct cadences, want 10 (renumber and flap of 3 groups, CoA and Disconnect of 2)", len(checked))
	}
}

// skipBoundary bisects for the least r in [0, 2^53] with
// expInterval(r<<11, mean) >= renewSec, taking 2^53 as the draw that never
// comes.
func skipBoundary(mean float64, renewSec int64) uint64 {
	lo, hi := uint64(0), uint64(1)<<53
	for lo < hi {
		mid := lo + (hi-lo)/2
		if expInterval(mid<<11, mean) >= renewSec {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// raceMismatch compares race against the exact decision for raw, with
// the renewal leading and with another source leading, and describes the
// first difference ("" when there is none).
func raceMismatch(c *cadence, raw uint64, renewSec int64) string {
	d := expInterval(raw, c.mean)
	wantIn, wantKind := renewSec, evRenew
	if d < renewSec {
		wantIn, wantKind = d, evFlap
	}
	if in, kind := c.race(raw, renewSec, evRenew, evFlap); in != wantIn || kind != wantKind {
		return fmt.Sprintf("draw %#x against the renewal: race gave (%d, %d), exact (%d, %d)", raw, in, kind, wantIn, wantKind)
	}
	lead := renewSec / 2
	wantIn, wantKind = lead, evRenumber
	if d < lead {
		wantIn, wantKind = d, evFlap
	}
	if in, kind := c.race(raw, lead, evRenumber, evFlap); in != wantIn || kind != wantKind {
		return fmt.Sprintf("draw %#x against a renumber at %d: race gave (%d, %d), exact (%d, %d)", raw, lead, in, kind, wantIn, wantKind)
	}
	return ""
}

// TestWireRoundTripAllocs pins the engines' wire exchanges on a warmed
// shard: a CoA, a Disconnect, a relayed DHCPv4 DORA, and a relayed flap
// then reattach of a business subscriber allocate nothing. Each engine
// builds, encodes and decodes in its own scratch, each server replies in
// its own storage, and the DHCPv6 server's record of a client keeps its
// DUID's bytes as a string. Every run is 30
// virtual seconds after the last, so the RADIUS replay entries expire
// and the ring need not grow.
func TestWireRoundTripAllocs(t *testing.T) {
	cfg := DefaultConfig(2000, 20201201)
	sc, err := ParseScenario("coa-mean=72,relay-hops=2,relay-drop=0.1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sc
	d, err := New(cfg, Options{Workers: 1, RoundHours: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Churn(1); err != nil {
		t.Fatal(err)
	}
	e := d.engines[0]
	pick := func(want func(*groupSrv) bool) (*subState, *groupSrv, event) {
		for i := range e.subs {
			sub := &e.subs[i]
			g := &e.srvs[sub.group]
			if _, live := e.table.Get(sub.key); live && want(g) {
				return sub, g, event{At: e.clock.sec, Tie: sub.key, P: action{rng: sub.key * gamma, idx: int32(i)}}
			}
		}
		t.Fatal("no live subscriber of the wanted kind")
		return nil, nil, event{}
	}
	step := func(ev *event, kind uint8) {
		ev.At += 30
		ev.P.kind = kind
		e.clock.sec = ev.At
	}

	sub, g, ev := pick(func(g *groupSrv) bool { return g.rad != nil && g.coa.mean > 0 })
	if n := testing.AllocsPerRun(100, func() {
		step(&ev, evCoA)
		if err := e.coa(&ev, sub, g); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CoA: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		step(&ev, evDisconnect)
		if err := e.disconnect(&ev, sub, g); err != nil {
			t.Fatal(err)
		}
		step(&ev, evReattach)
		if ok, err := e.assign(&ev, sub, g); !ok || err != nil {
			t.Fatalf("reattach: %v, %v", ok, err)
		}
	}); n != 0 {
		t.Errorf("Disconnect then reattach: %v allocations, want 0", n)
	}

	sub, g, ev = pick(func(g *groupSrv) bool { return g.d6 != nil && len(g.relay4) > 0 })
	if n := testing.AllocsPerRun(100, func() {
		step(&ev, evRenew)
		if _, _, err := e.relayAcquire4(g, hwOf(sub.key), &ev.P.rng); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("relayed DHCPv4 DORA: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		step(&ev, evFlap)
		e.flap(&ev, sub, g)
		for {
			step(&ev, evReattach)
			ok, err := e.assign(&ev, sub, g)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				break
			}
		}
	}); n != 0 {
		t.Errorf("relayed flap then reattach: %v allocations, want 0", n)
	}
}
