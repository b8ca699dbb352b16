package main

import (
	"errors"
	"math/rand"
	"net/netip"
	"runtime/debug"
	"strconv"
	"time"

	"dynamips/internal/bng"
	"dynamips/internal/bng/stripe"
	"dynamips/internal/dhcp4"
	"dynamips/internal/dhcp6"
	"dynamips/internal/radius"
)

// churnSize sizes the bng-churn workload.
type churnSize struct {
	subscribers int
	repHours    int64 // virtual hours per rep, and the round length
}

// churnScenario layers RADIUS CoA and two-hop DHCP relay chains over the
// baseline churn, so that the reps drive traffic through the radius,
// dhcp4 and dhcp6 wire codecs.
const churnScenario = "coa-mean=72,relay-hops=2"

var errMissingSession = errors.New("stripe probe: session missing after Put")

// wireProbeOps is how many operations each standalone server and codec
// probe times.
const wireProbeOps = 20_000

// churnDaemon builds the bng-churn daemon and attaches every subscriber
// (the churn to hour 1).
func (b *bench) churnDaemon(workers int) (*bng.Daemon, error) {
	cfg := bng.DefaultConfig(b.opt.size.churn.subscribers, uint64(b.opt.seed))
	sc, err := bng.ParseScenario(churnScenario)
	if err != nil {
		return nil, err
	}
	cfg.Scenario = sc
	// One round per rep: the barrier runs once, so the engines dominate.
	d, err := bng.New(cfg, bng.Options{Workers: workers, RoundHours: b.opt.size.churn.repHours})
	if err != nil {
		return nil, err
	}
	return d, d.Churn(1)
}

// churnRep advances d by one rep and returns the events it processed.
func (b *bench) churnRep(d *bng.Daemon) (uint64, error) {
	before := d.Stats().Events.Events
	if err := d.Churn(d.Hours() + b.opt.size.churn.repHours); err != nil {
		return 0, err
	}
	return d.Stats().Events.Events - before, nil
}

// churnTimed gives every rep a fresh daemon, built and attached in the
// rep's set-up, so that every rep churns the same first day: the reps
// repeat exactly and the process's memory does not grow with their
// number.
func (b *bench) churnTimed() (timing, error) {
	var t timing
	var d *bng.Daemon
	var last, first churnPin
	err := b.reps(&t, func() error {
		var err error
		d, err = b.churnDaemon(benchWorkers)
		return err
	}, func() (float64, error) {
		events, err := b.churnRep(d)
		last = churnPin{TableHash: d.Stats().TableHash, Events: events}
		return float64(events), err
	}, func() error {
		d = nil
		if first == (churnPin{}) {
			first = last
		}
		b.led.check(last == first, "bng-churn rep %+v differs from the first rep's %+v", last, first)
		return nil
	})
	if err != nil {
		return t, err
	}
	b.notef("table_hash %s events %d", first.TableHash, first.Events)
	if b.pinned() {
		b.led.check(first == b.exp.BNGChurn, "bng-churn rep %+v, pinned %+v", first, b.exp.BNGChurn)
	}
	return t, nil
}

// churnTraced times one rep, replays the same hours at one worker to
// check the daemon's worker-count determinism, and times the assignment
// servers, wire codecs and session table on their own.
func (b *bench) churnTraced() (time.Duration, error) {
	d, err := b.churnDaemon(benchWorkers)
	if err != nil {
		return 0, err
	}
	tr := b.tr
	root := tr.begin("bng-churn", 0, 0)
	s := tr.begin("bng.churn", root, 0)
	events, err := b.churnRep(d)
	if err != nil {
		return 0, err
	}
	tr.end(s, int64(events))
	tr.end(root, int64(events))
	hash := d.Stats().TableHash
	b.layer("bng.round_ms", "ms", tr.duration(s).Seconds()*1e3)
	b.layer("bng.events_per_rep", "count", float64(events))
	if b.pinned() {
		b.led.check(hash == b.exp.BNGChurn.TableHash, "bng-churn traced rep table %s, pinned %s", hash, b.exp.BNGChurn.TableHash)
	}

	d = nil
	debug.FreeOSMemory()
	one, err := b.churnDaemon(1)
	if err != nil {
		return 0, err
	}
	if _, err := b.churnRep(one); err != nil {
		return 0, err
	}
	b.led.check(one.Stats().TableHash == hash, "bng-churn: table %s at 1 worker, %s at %d", one.Stats().TableHash, hash, benchWorkers)
	one = nil
	debug.FreeOSMemory()
	return tr.duration(root), b.wireProbes()
}

// wireProbes times the assignment servers the engines drive, built from
// the default group profiles (residential RADIUS, business DHCPv4 and
// DHCPv6-PD), and the wire codec of each server's reply.
func (b *bench) wireProbes() error {
	cfg := bng.DefaultConfig(b.opt.size.churn.subscribers, uint64(b.opt.seed))
	res, biz := cfg.Groups[0], cfg.Groups[1]
	rng := rand.New(rand.NewSource(b.opt.seed))

	rad := radius.NewServer(radius.ServerConfig{
		Pools4: []netip.Prefix{res.V4.Network}, Pools6: []netip.Prefix{res.V6.Network},
		DelegatedLen6: res.V6.DelegatedLen, SessionTimeout: res.V4.LeaseSeconds,
	})
	reqs := make([]*radius.Packet, wireProbeOps)
	for i := range reqs {
		p := radius.New(radius.AccessRequest, byte(i))
		rng.Read(p.Authenticator[:])
		p.AddString(radius.AttrUserName, "s"+strconv.Itoa(i))
		reqs[i] = p
	}
	var reply *radius.Packet
	start := time.Now()
	for _, p := range reqs {
		var err error
		if reply, err = rad.Handle(p, 0); err != nil {
			return err
		}
	}
	b.layer("radius.handle_us", "us", perOp(time.Since(start), wireProbeOps)/1e3)
	b.led.check(reply.Code == radius.AccessAccept, "radius probe: reply %v", reply.Code)
	last := reqs[len(reqs)-1]
	start = time.Now()
	for i := 0; i < wireProbeOps; i++ {
		if _, err := radius.Parse(reply.EncodeResponse(last, rad.Secret())); err != nil {
			return err
		}
	}
	b.layer("radius.codec_ns", "ns", perOp(time.Since(start), wireProbeOps))

	clock4 := dhcp4.ClockFunc(func() int64 { return 0 })
	d4 := dhcp4.NewServer(dhcp4.ServerConfig{Pools: []netip.Prefix{biz.V4.Network}, LeaseSeconds: biz.V4.LeaseSeconds, Sticky: true}, clock4)
	start = time.Now()
	for i := 0; i < wireProbeOps; i++ {
		if _, err := d4.Acquire(macOf(i), uint32(i)); err != nil {
			return err
		}
	}
	// Acquire is a Discover and a Request: two Handle calls.
	b.layer("dhcp4.handle_us", "us", perOp(time.Since(start), 2*wireProbeOps)/1e3)
	offer, err := d4.Handle(dhcp4.NewMessage(dhcp4.Discover, 1, macOf(wireProbeOps)))
	if err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < wireProbeOps; i++ {
		if _, err := dhcp4.Unmarshal(offer.Marshal()); err != nil {
			return err
		}
	}
	b.layer("dhcp4.codec_ns", "ns", perOp(time.Since(start), wireProbeOps))

	clock6 := dhcp6.ClockFunc(func() int64 { return 0 })
	d6 := dhcp6.NewServer(dhcp6.ServerConfig{Pools: []netip.Prefix{biz.V6.Network}, DelegatedLen: biz.V6.DelegatedLen, ValidSeconds: biz.V4.LeaseSeconds}, clock6)
	start = time.Now()
	for i := 0; i < wireProbeOps; i++ {
		if _, err := d6.Acquire(dhcp6.DUIDLL(macOf(i)), uint32(i)); err != nil {
			return err
		}
	}
	// Acquire is a Solicit and a Request: two Handle calls.
	b.layer("dhcp6.handle_us", "us", perOp(time.Since(start), 2*wireProbeOps)/1e3)
	adv, err := d6.Handle(dhcp6.NewMessage(dhcp6.Solicit, 1, dhcp6.DUIDLL(macOf(wireProbeOps))))
	if err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < wireProbeOps; i++ {
		if _, err := dhcp6.Unmarshal(adv.Marshal()); err != nil {
			return err
		}
	}
	b.layer("dhcp6.codec_ns", "ns", perOp(time.Since(start), wireProbeOps))

	table, err := stripe.New(cfg.ShardBits)
	if err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < wireProbeOps; i++ {
		key := uint64(i%3)<<32 | uint64(i)
		table.Put(stripe.Session{Key: key, Addr4: uint32(i), State: stripe.StateActive})
		if _, ok := table.Get(key); !ok {
			return errMissingSession
		}
	}
	b.layer("stripe.put_get_ns", "ns", perOp(time.Since(start), wireProbeOps))
	return nil
}

// macOf is a locally administered MAC unique per probe client.
func macOf(i int) [6]byte {
	return [6]byte{0x02, 0x00, byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
}

func perOp(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }
