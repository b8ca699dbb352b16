package bng

import (
	"fmt"
	"math"
	"net/netip"
	"strconv"

	"dynamips/internal/bng/stripe"
	"dynamips/internal/dhcp4"
	"dynamips/internal/dhcp6"
	"dynamips/internal/evq"
	"dynamips/internal/netutil"
	"dynamips/internal/radius"
	"dynamips/internal/sketch"
)

// horizonSeconds (~1.1 M virtual hours) is the lease, delegation and
// session lifetime the shard's servers advertise, and the cap on
// expInterval's draws. No server expires a binding: the engine releases,
// forgets or reassigns it, so the lifetime only fills replies. The
// subscriber-visible renewal cadence comes from the group's
// PoolProfile.LeaseSeconds instead.
const horizonSeconds = 4_000_000_000

// splitmix gamma (same constant as internal/faultnet's streams).
const gamma = 0x9E3779B97F4A7C15

// next steps a SplitMix64 cursor in place and returns the next draw.
func next(x *uint64) uint64 {
	*x += gamma
	return stripe.Mix64(*x)
}

// expSeconds draws an exponential interval with the given mean, in
// whole seconds, floored at 1 so events always advance time.
func expSeconds(x *uint64, meanSec float64) int64 {
	return expInterval(next(x), meanSec)
}

// expInterval maps one raw draw to its exponential interval: the top 53
// bits as u in [0, 1), then -ln(1-u)·mean, clamped to [1, horizon]. It is
// non-decreasing in raw>>11.
//
//lint:hotpath
func expInterval(raw uint64, meanSec float64) int64 {
	u := float64(raw>>11) / (1 << 53) // [0, 1)
	d := -math.Log(1-u) * meanSec
	if d < 1 {
		return 1
	}
	if d > horizonSeconds {
		return horizonSeconds
	}
	return int64(d)
}

// cadence is one of a group's exponential event sources (renumber, flap,
// CoA, disconnect) as scheduleNext races it against the fixed renewal.
// A draw whose top 53 bits reach skip yields at least renewSec, so it
// cannot beat a leading renewal and its logarithm need not be taken.
type cadence struct {
	mean float64
	skip uint64 // raw>>11 threshold; 1<<53 never skips
}

// skipGuard widens the exact boundary 1-exp(-renewSec/mean) on the unit
// draw u. math.Log and the multiply by mean are off by a few ulps, which
// moves the boundary on u by under 1e-14; the guard is 1e5 times wider,
// and sends only a further 1e-9 of all draws down the exact path.
const skipGuard = 1e-9

// newCadence returns the cadence for mean against a group's renewSec.
// mean 0 disables the source: scheduleNext then draws nothing for it.
func newCadence(mean float64, renewSec int64) cadence {
	c := cadence{mean: mean, skip: 1 << 53}
	if mean <= 0 {
		return c
	}
	u := -math.Expm1(-float64(renewSec)/mean) + skipGuard
	if t := math.Ceil(u * (1 << 53)); t < 1<<53 {
		c.skip = uint64(t)
	}
	return c
}

// race races the cadence's raw draw, as kind k, against the current
// leader (in, kind): (d, k) when its interval d beats in, else the leader
// unchanged. While the renewal leads, a draw at or above the skip
// threshold is known to lose and its interval is never computed; every
// other draw, and every draw once another source leads, takes the exact
// path.
//
//lint:hotpath
func (c *cadence) race(raw uint64, in int64, kind, k uint8) (int64, uint8) {
	if kind == evRenew && raw>>11 >= c.skip {
		return in, kind
	}
	if d := expInterval(raw, c.mean); d < in {
		return d, k
	}
	return in, kind
}

// Event kinds.
const (
	evAttach uint8 = iota
	evRenew
	evRenumber
	evFlap
	evReattach
	// evCoA and evDisconnect are scenario-driven operator actions on
	// RADIUS groups: a CoA-Request renumbers the live session in place,
	// a Disconnect-Request tears it down for a full reattach. They are
	// only ever scheduled when the scenario sets their cadences, so a
	// scenario-free config draws nothing extra and replays the legacy
	// history byte-for-byte.
	evCoA
	evDisconnect
)

// chance draws a Bernoulli(p) from the cursor, consuming no stream
// state for degenerate probabilities (faultnet's zero-consumption
// convention: p=0 profiles replay the fault-free schedule exactly).
func chance(x *uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(next(x)>>11)/(1<<53) < p
}

// event is one pending subscriber action: At its virtual second, Tie the
// subscriber's dense key, P the rest. Each subscriber has exactly one
// event in its shard's queue at any time (a flapped-down subscriber
// holds a pending reattach), so no two pending events tie.
type event = evq.Event[action]

// action is an event's payload. rng is the subscriber's SplitMix64
// cursor; it travels with the event so draws are independent of
// processing order across subscribers.
type action struct {
	rng  uint64
	idx  int32
	kind uint8
}

// eventQueue is a shard's pending events: one FIFO lane per group for
// the group's renewals, and a heap for everything drawn from an
// exponential (renumber, flap, CoA, disconnect, reattach). A lane starts
// with its group's t=0 attaches, in key order. It stays sorted by
// (at, key) with no comparison on push: every renewal lands the group's
// fixed renewSec after the event that scheduled it, and events leave the
// queue in (at, key) order, so renewals enter a lane in that order too.
// Popping the earliest of the heap top and the lane heads therefore
// yields exactly the sequence one heap of every event would.
type eventQueue struct {
	heap  evq.Heap[action]
	lanes []lane // indexed by group, the key's high 32 bits
}

// lane is a ring sized to its group's subscribers in the shard: with one
// pending event per subscriber it can never fill past that.
type lane struct {
	ring []event
	head int // index of the earliest event
	n    int // events held
}

// heapSrc is earliest's source index for the heap.
const heapSrc = -1

// newEventQueue queues an attach at t=0 for every subscriber of subs,
// which are in dense key order.
func newEventQueue(subs []subState, groups int, seed uint64) eventQueue {
	q := eventQueue{lanes: make([]lane, groups)}
	sizes := make([]int, groups)
	for i := range subs {
		sizes[subs[i].group]++
	}
	for gi, n := range sizes {
		q.lanes[gi].ring = make([]event, n)
	}
	for i := range subs {
		key := subs[i].key
		q.push(event{At: 0, Tie: key, P: action{idx: int32(i), kind: evAttach, rng: seed + (key+1)*gamma}})
	}
	return q
}

// push queues ev: attaches and renewals on their group's lane, every
// other kind on the heap.
//
//lint:hotpath
func (q *eventQueue) push(ev event) {
	if ev.P.kind != evAttach && ev.P.kind != evRenew {
		q.heap.Push(ev)
		return
	}
	l := &q.lanes[ev.Tie>>32]
	if l.n == len(l.ring) {
		panic(fmt.Sprintf("bng: group %d lane full at %d events: a subscriber holds two pending events", ev.Tie>>32, l.n))
	}
	i := l.head + l.n
	if i >= len(l.ring) {
		i -= len(l.ring)
	}
	l.ring[i] = ev
	l.n++
}

// earliest returns the source of the earliest pending event by
// (at, key), heapSrc or a lane index, and that event; nil when the queue
// is empty.
//
//lint:hotpath
func (q *eventQueue) earliest() (int, *event) {
	src, top := heapSrc, q.heap.Top()
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.n == 0 {
			continue
		}
		if h := &l.ring[l.head]; top == nil || h.Before(top) {
			src, top = i, h
		}
	}
	return src, top
}

// pop removes and returns the head of source src, as earliest named it.
//
//lint:hotpath
func (q *eventQueue) pop(src int) event {
	if src == heapSrc {
		return q.heap.Pop()
	}
	l := &q.lanes[src]
	ev := l.ring[l.head]
	l.head++
	if l.head == len(l.ring) {
		l.head = 0
	}
	l.n--
	return ev
}

// engClock is the shard-local virtual clock injected into the shard's
// DHCP servers; the event loop sets it to each event's timestamp.
type engClock struct{ sec int64 }

func (c *engClock) Now() int64 { return c.sec }

// subState is one subscriber's immutable identity within its shard.
type subState struct {
	key   uint64
	user  string     // RADIUS User-Name, for CoA and Disconnect packets (BackendRADIUS groups)
	duid  dhcp6.DUID // DHCPv6 client id (BackendDHCP groups with V6)
	group int32
	rid   int32 // the user's id in its group's RADIUS server
}

// groupSrv is one group's server set within one shard, plus the
// group's cadence parameters in seconds.
type groupSrv struct {
	rad *radius.Server
	d4  *dhcp4.Server
	d6  *dhcp6.Server

	renewSec int64
	renumber cadence
	flap     cadence
	downSec  float64

	// Scenario extras. coa/disc are the operator-action cadences (RADIUS
	// groups only; mean 0 disables). relay4/ldra route DHCP attach
	// traffic through an aggregation chain, each hop dropping with
	// relayDrop per direction.
	coa       cadence
	disc      cadence
	relay4    dhcp4.RelayChain
	ldra      dhcp6.LDRAChain
	relayDrop float64
}

// ShardStats are one shard's event totals; they sum commutatively into
// the daemon's StatsView in shard order.
type ShardStats struct {
	Events    uint64 `json:"events"`
	Attaches  uint64 `json:"attaches"`
	Renews    uint64 `json:"renews"`
	Renumbers uint64 `json:"renumbers"`
	Flaps     uint64 `json:"flaps"`
	Reattach  uint64 `json:"reattaches"`
	V4Changes uint64 `json:"v4_changes"`
	V6Changes uint64 `json:"v6_changes"`
	// Scenario counters: CoAs/Disconnects are RFC 5176 operator actions
	// delivered; FailoverRenumbers counts the sessions a failover
	// takeover reacquired, moved or not (V4Changes and V6Changes count
	// the moves); RelayDrops counts datagrams lost on relay hops and
	// RelayOutages attaches abandoned after exhausting retries.
	CoAs              uint64 `json:"coas"`
	Disconnects       uint64 `json:"disconnects"`
	FailoverRenumbers uint64 `json:"failover_renumbers"`
	RelayDrops        uint64 `json:"relay_drops"`
	RelayOutages      uint64 `json:"relay_outages"`
}

func (s *ShardStats) add(o ShardStats) {
	s.Events += o.Events
	s.Attaches += o.Attaches
	s.Renews += o.Renews
	s.Renumbers += o.Renumbers
	s.Flaps += o.Flaps
	s.Reattach += o.Reattach
	s.V4Changes += o.V4Changes
	s.V6Changes += o.V6Changes
	s.CoAs += o.CoAs
	s.Disconnects += o.Disconnects
	s.FailoverRenumbers += o.FailoverRenumbers
	s.RelayDrops += o.RelayDrops
	s.RelayOutages += o.RelayOutages
}

// shardEngine is one stripe's complete assignment plane: its
// subscribers, its per-group server instances (carved from disjoint
// per-shard pools), its event queue, and its virtual clock. Engines
// share only the daemon's session table, in which each writes just its
// own subscribers' slots, so any worker count processes them
// identically.
type shardEngine struct {
	id     int
	table  *stripe.Table
	clock  *engClock
	subs   []subState
	srvs   []groupSrv
	events eventQueue
	stats  ShardStats
	// sk is the stripe's streaming-summary partial (churn heavy
	// hitters, session-duration quantiles, pool cardinalities). The
	// engine folds into it single-threaded; the daemon merges partials
	// in stripe order at the round barrier, so the merged set is
	// worker-count invariant byte for byte.
	sk *sketch.Set
	// changes lists the keys this round folded into each churn heavy
	// hitter of sk (churnNames order), for the barrier's merge.
	changes [nChurn]changeList

	// Scratch for the wire exchanges, one set per protocol: the request
	// as built, its wire bytes, and the copy the server decodes. The
	// DHCPv6 server decodes a relayed request into its own storage, so
	// that set holds the reply unwrapped from the chain instead. Servers
	// own their replies until their next call; nothing here is shared
	// with another engine.
	req4, in4     dhcp4.Message
	wire4         []byte
	sol6, rep6    dhcp6.Message
	wire6         []byte
	radReq, radIn radius.Packet
	radWire       []byte
}

// hwOf derives a subscriber's MAC from its in-group index: locally
// administered, unique within the (group, shard) server that sees it.
func hwOf(key uint64) dhcp4.HWAddr {
	idx := uint32(key)
	return dhcp4.HWAddr{0x02, 0x00, byte(idx >> 24), byte(idx >> 16), byte(idx >> 8), byte(idx)}
}

// buildEngines constructs the per-shard engines for cfg: servers carved
// from per-shard sub-pools, subscribers routed by the table's stripe
// function, and an attach event at t=0 per subscriber.
func buildEngines(cfg *Config, table *stripe.Table) ([]*shardEngine, error) {
	shards := table.Shards()
	engines := make([]*shardEngine, shards)
	for sh := 0; sh < shards; sh++ {
		e := &shardEngine{id: sh, table: table, clock: &engClock{}, sk: sketch.BNGEngine.New()}
		for i := range e.changes {
			e.changes[i].keys = make([]uint64, 0, changeCap)
		}
		e.srvs = make([]groupSrv, len(cfg.Groups))
		for gi := range cfg.Groups {
			g := &cfg.Groups[gi]
			gs, err := buildGroupServers(g, cfg.Scenario, cfg.ShardBits, sh, e.clock)
			if err != nil {
				return nil, err
			}
			e.srvs[gi] = gs
		}
		engines[sh] = e
	}
	// Route subscribers to shards in (group, index) order so each
	// shard's sub list — and its initial attaches — are in dense key
	// order.
	var userBuf []byte
	for gi := range cfg.Groups {
		g := &cfg.Groups[gi]
		for i := 0; i < g.Subscribers; i++ {
			key := uint64(gi)<<32 | uint64(uint32(i))
			e := engines[table.ShardOf(key)]
			st := subState{key: key, group: int32(gi)}
			switch g.Backend {
			case BackendRADIUS:
				userBuf = append(userBuf[:0], 's')
				userBuf = strconv.AppendUint(userBuf, uint64(uint32(i)), 10)
				st.user = string(userBuf)
				st.rid = e.srvs[gi].rad.User(st.user)
			case BackendDHCP:
				if g.V6 != nil {
					hw := hwOf(key)
					st.duid = dhcp6.DUIDLL([6]byte(hw))
				}
			}
			e.subs = append(e.subs, st)
		}
	}
	for _, e := range engines {
		e.events = newEventQueue(e.subs, len(cfg.Groups), cfg.Seed)
	}
	return engines, nil
}

// buildGroupServers carves shard sh's pool slice out of the group's
// aggregates and instantiates the backend servers on it, plus any
// scenario machinery the group participates in.
func buildGroupServers(g *Group, sc *Scenario, shardBits, sh int, clock *engClock) (groupSrv, error) {
	gs := groupSrv{
		renewSec: int64(g.V4.LeaseSeconds / 2),
		downSec:  g.DowntimeMeanMinutes * 60,
	}
	if gs.renewSec < 1 {
		gs.renewSec = 1
	}
	gs.renumber = newCadence(g.RenumberMeanHours*3600, gs.renewSec)
	gs.flap = newCadence(g.FlapMeanHours*3600, gs.renewSec)
	pool4, err := netutil.SubPrefix(g.V4.Network, g.V4.Network.Bits()+shardBits, uint64(sh))
	if err != nil {
		return gs, fmt.Errorf("bng: group %s shard %d: carving v4 pool: %w", g.Name, sh, err)
	}
	var pool6 netip.Prefix
	if g.V6 != nil {
		pool6, err = netutil.SubPrefix(g.V6.Network, g.V6.Network.Bits()+shardBits, uint64(sh))
		if err != nil {
			return gs, fmt.Errorf("bng: group %s shard %d: carving v6 pool: %w", g.Name, sh, err)
		}
	}
	switch g.Backend {
	case BackendRADIUS:
		rc := radius.ServerConfig{
			Pools4:         []netip.Prefix{pool4},
			SessionTimeout: horizonSeconds,
		}
		if g.V6 != nil {
			rc.Pools6 = []netip.Prefix{pool6}
			rc.DelegatedLen6 = g.V6.DelegatedLen
		}
		gs.rad = radius.NewServer(rc)
		if sc != nil {
			gs.coa = newCadence(sc.CoAMeanHours*3600, gs.renewSec)
			gs.disc = newCadence(sc.DisconnectMeanHours*3600, gs.renewSec)
		}
	case BackendDHCP:
		serverID, err := netutil.HostAddr(pool4, 1)
		if err != nil {
			return gs, fmt.Errorf("bng: group %s shard %d: server id: %w", g.Name, sh, err)
		}
		gs.d4 = dhcp4.NewServer(dhcp4.ServerConfig{
			Pools:        []netip.Prefix{pool4},
			LeaseSeconds: horizonSeconds,
			Sticky:       true,
			ServerID:     serverID,
		}, clock)
		if g.V6 != nil {
			gs.d6 = dhcp6.NewServer(dhcp6.ServerConfig{
				Pools:        []netip.Prefix{pool6},
				DelegatedLen: g.V6.DelegatedLen,
				ValidSeconds: horizonSeconds,
			}, clock)
		}
		if sc != nil && sc.RelayHops > 0 {
			// Relay gateways live in TEST-NET-2, outside every pool: a
			// giaddr is routing metadata, never an allocation.
			gw := netip.AddrFrom4([4]byte{198, 51, 100, 1})
			gs.relay4, err = dhcp4.NewRelayChain(gw, sc.RelayHops)
			if err != nil {
				return gs, fmt.Errorf("bng: group %s shard %d: relay chain: %w", g.Name, sh, err)
			}
			gs.ldra = dhcp6.NewLDRAChain(fmt.Sprintf("%s/sh%d", g.Name, sh), sc.RelayHops)
			gs.relayDrop = sc.RelayDrop
		}
	}
	return gs, nil
}

// advance processes every pending event with at <= until, writing its
// subscribers' slots of the session table, and leaves the clock at
// until.
func (e *shardEngine) advance(until int64) error {
	for {
		src, top := e.events.earliest()
		if top == nil || top.At > until {
			break
		}
		ev := e.events.pop(src)
		e.clock.sec = ev.At
		e.stats.Events++
		sub := &e.subs[ev.P.idx]
		g := &e.srvs[sub.group]
		switch ev.P.kind {
		case evAttach, evReattach, evRenumber:
			ok, err := e.assign(&ev, sub, g)
			if err != nil {
				return err
			}
			if !ok {
				// The relay chain ate every attempt: the subscriber stays
				// down and retries after a fresh downtime draw.
				e.reattachLater(&ev, g)
				continue
			}
			e.scheduleNext(&ev, g)
		case evCoA:
			if err := e.coa(&ev, sub, g); err != nil {
				return err
			}
			e.scheduleNext(&ev, g)
		case evDisconnect:
			if err := e.disconnect(&ev, sub, g); err != nil {
				return err
			}
			e.reattachLater(&ev, g)
		case evRenew:
			if s, ok := e.table.Get(ev.Tie); ok {
				s.Renews++
				s.Expiry = ev.At + int64(2)*g.renewSec
				e.table.Put(s)
			}
			e.stats.Renews++
			e.scheduleNext(&ev, g)
		case evFlap:
			e.flap(&ev, sub, g)
			e.reattachLater(&ev, g)
		}
	}
	e.clock.sec = until
	return nil
}

// assignment is a subscriber's addresses in the session table's form:
// the IPv4 address, and the delegated prefix's high 64 bits and length
// (0 when there is no delegation).
type assignment struct {
	addr4 uint32
	p6hi  uint64
	p6len uint8
}

// assignmentOf converts a server's answer. An invalid address or prefix
// converts to 0: none assigned.
func assignmentOf(a4 netip.Addr, p6 netip.Prefix) assignment {
	var a assignment
	if a4.IsValid() {
		a.addr4 = netutil.U32(a4)
	}
	if p6.IsValid() {
		a.p6hi, _ = netutil.U128(p6.Addr())
		a.p6len = uint8(p6.Bits())
	}
	return a
}

// assign (re)allocates the subscriber's addresses through its backend
// and writes the resulting session record, bumping Gen when either
// family's assignment changed. ok=false (no error) means a relay-routed
// attach exhausted its wire attempts; the subscriber holds no record or
// server state and the caller schedules the retry.
func (e *shardEngine) assign(ev *event, sub *subState, g *groupSrv) (bool, error) {
	renum := ev.P.kind == evRenumber
	// Every path draws the id, the relayed one too, which draws its own
	// per datagram: the cursor's draw order is part of the history.
	txn := uint32(next(&ev.P.rng))
	var (
		a   assignment
		err error
	)
	if len(g.relay4) > 0 {
		// Wire-level attach through the aggregation chain: every
		// datagram crosses the relays and may be lost on any hop.
		var ok bool
		if a, ok, err = e.relayAssign(ev, sub, g, renum); !ok {
			return false, err
		}
	} else if a, err = e.acquire(g, sub, renum, txn); err != nil {
		return false, err
	}
	s, had := e.table.Get(ev.Tie)
	if !had {
		s = stripe.Session{Key: ev.Tie, Start: ev.At, State: stripe.StateActive}
	}
	s.Expiry = ev.At + 2*g.renewSec
	e.update(s, had, a)
	switch ev.P.kind {
	case evRenumber:
		e.stats.Renumbers++
	case evReattach:
		e.stats.Reattach++
	default:
		e.stats.Attaches++
	}
	return true, nil
}

// update writes the subscriber's record s with its addresses set to a.
// When the subscriber had a record, each family whose assignment moved
// counts a change and folds the address it left, and Gen bumps once for
// the pair. The new assignment is folded last.
func (e *shardEngine) update(s stripe.Session, had bool, a assignment) {
	if had {
		moved4 := s.Addr4 != a.addr4
		if moved4 {
			s.Gen++
			e.stats.V4Changes++
			e.skV4Change(s.Addr4)
		}
		if s.Pfx6Hi != a.p6hi || s.Pfx6Len != a.p6len {
			if !moved4 {
				s.Gen++
			}
			e.stats.V6Changes++
			e.skV6Change(s.Pfx6Hi, s.Pfx6Len)
		}
	}
	s.Addr4, s.Pfx6Hi, s.Pfx6Len = a.addr4, a.p6hi, a.p6len
	e.table.Put(s)
	e.skAssign(a.addr4, a.p6hi, a.p6len)
}

// acquire (re)assigns the subscriber's addresses through its backend,
// with no relays. A RADIUS subscriber starts a fresh session. A DHCP
// subscriber runs DORA, then the delegation; a renumber releases the
// IPv4 lease first, which the sticky server re-offers (stable business
// addressing), and reassigns the delegation, which forces a fresh one.
// txn is the DHCP exchanges' transaction id.
func (e *shardEngine) acquire(g *groupSrv, sub *subState, renum bool, txn uint32) (assignment, error) {
	if g.rad != nil {
		sess, err := g.rad.StartSession(sub.rid)
		if err != nil {
			return assignment{}, fmt.Errorf("bng: shard %d key %#x: radius: %w", e.id, sub.key, err)
		}
		return assignmentOf(sess.Addr4, sess.Prefix6), nil
	}
	hw := hwOf(sub.key)
	if renum {
		e.req4.Reset(dhcp4.Release, txn, hw)
		if _, err := g.d4.Handle(&e.req4); err != nil {
			return assignment{}, fmt.Errorf("bng: shard %d key %#x: dhcp4 release: %w", e.id, sub.key, err)
		}
	}
	lease, err := g.d4.Acquire(hw, txn)
	if err != nil {
		return assignment{}, fmt.Errorf("bng: shard %d key %#x: dhcp4: %w", e.id, sub.key, err)
	}
	var p6 netip.Prefix
	if g.d6 != nil {
		var bind dhcp6.Binding
		if renum {
			bind, err = g.d6.Reassign(sub.duid, txn)
		} else {
			bind, err = g.d6.Acquire(sub.duid, txn)
		}
		if err != nil {
			return assignment{}, fmt.Errorf("bng: shard %d key %#x: dhcp6: %w", e.id, sub.key, err)
		}
		p6 = bind.Prefix
	}
	return assignmentOf(lease.Addr, p6), nil
}

// release frees the subscriber's server-side state through its backend,
// with no relays: a RADIUS stop, or a DHCP Release (its transaction id
// drawn from the subscriber's cursor) and the delegation's release. A
// Release may name an address the subscriber no longer holds; the
// server then frees nothing.
//
//lint:hotpath every flap of a subscriber and every abandoned relayed attach
func (e *shardEngine) release(ev *event, sub *subState, g *groupSrv) {
	if g.rad != nil {
		g.rad.StopSession(sub.rid)
		return
	}
	e.req4.Reset(dhcp4.Release, uint32(next(&ev.P.rng)), hwOf(ev.Tie))
	_, _ = g.d4.Handle(&e.req4)
	if g.d6 != nil {
		g.d6.ReleaseBinding(sub.duid)
	}
}

// endSession folds the duration of the subscriber's session, if it has
// one, and clears its slot.
func (e *shardEngine) endSession(ev *event) {
	if s, ok := e.table.Get(ev.Tie); ok {
		e.skSessionEnd(s.Start, ev.At)
	}
	e.table.Delete(ev.Tie)
}

// relayAttemptCap bounds wire-exchange retries behind a lossy relay
// chain within one virtual attach.
const relayAttemptCap = 16

// crossRelays draws per-hop loss for one direction of one datagram, v4
// or v6 (the relay and LDRA chains both have the scenario's RelayHops
// hops), from the subscriber's cursor. It reports whether the datagram
// survived.
func (e *shardEngine) crossRelays(g *groupSrv, rng *uint64) bool {
	for h := 0; h < len(g.relay4); h++ {
		if chance(rng, g.relayDrop) {
			e.stats.RelayDrops++
			return false
		}
	}
	return true
}

// relayX4 pushes one DHCPv4 message up the relay chain, which stamps it
// in place, through the wire codec into the shard's server, and the
// reply back down. ok=false means the request or its reply was lost on
// a hop. The reply is the server's, valid until its next call.
func (e *shardEngine) relayX4(g *groupSrv, msg *dhcp4.Message, rng *uint64) (*dhcp4.Message, bool, error) {
	if err := g.relay4.Forward(msg); err != nil {
		return nil, false, fmt.Errorf("bng: shard %d: relay forward: %w", e.id, err)
	}
	if !e.crossRelays(g, rng) {
		return nil, false, nil
	}
	e.wire4 = msg.Append(e.wire4[:0])
	if err := e.in4.Decode(e.wire4); err != nil {
		return nil, false, fmt.Errorf("bng: shard %d: relay codec: %w", e.id, err)
	}
	rep, err := g.d4.Handle(&e.in4)
	if err != nil {
		return nil, false, fmt.Errorf("bng: shard %d: relayed dhcp4: %w", e.id, err)
	}
	if rep == nil {
		return nil, true, nil // Release elicits no reply
	}
	if !e.crossRelays(g, rng) {
		return nil, false, nil
	}
	if err := g.relay4.Return(rep); err != nil {
		return nil, false, fmt.Errorf("bng: shard %d: relay return: %w", e.id, err)
	}
	return rep, true, nil
}

// relayAcquire4 runs the full DORA exchange across the relay chain,
// redrawing the transaction id per attempt.
func (e *shardEngine) relayAcquire4(g *groupSrv, hw dhcp4.HWAddr, rng *uint64) (netip.Addr, bool, error) {
	for attempt := 0; attempt < relayAttemptCap; attempt++ {
		xid := uint32(next(rng))
		e.req4.Reset(dhcp4.Discover, xid, hw)
		offer, ok, err := e.relayX4(g, &e.req4, rng)
		if err != nil {
			return netip.Addr{}, false, err
		}
		if !ok {
			continue
		}
		e.req4.Reset(dhcp4.Request, xid, hw)
		e.req4.SetAddrOption(dhcp4.OptRequestedIP, offer.YIAddr)
		ack, ok, err := e.relayX4(g, &e.req4, rng)
		if err != nil {
			return netip.Addr{}, false, err
		}
		if !ok || ack.Type() != dhcp4.ACK {
			continue
		}
		return ack.YIAddr, true, nil
	}
	return netip.Addr{}, false, nil
}

// relayAcquire6 runs a rapid-commit Solicit through the LDRA chain:
// encapsulated on the way up, the Relay-reply peeled on the way down.
func (e *shardEngine) relayAcquire6(g *groupSrv, duid dhcp6.DUID, rng *uint64) (netip.Prefix, bool, error) {
	for attempt := 0; attempt < relayAttemptCap; attempt++ {
		e.sol6.Reset(dhcp6.Solicit, uint32(next(rng)), duid)
		e.sol6.RapidCommit = true
		wire, err := g.ldra.Wrap(e.wire6[:0], &e.sol6, netip.IPv6Unspecified())
		if err != nil {
			return netip.Prefix{}, false, fmt.Errorf("bng: shard %d: ldra wrap: %w", e.id, err)
		}
		e.wire6 = wire
		if !e.crossRelays(g, rng) {
			continue
		}
		repWire, err := g.d6.HandleRelay(wire)
		if err != nil {
			return netip.Prefix{}, false, fmt.Errorf("bng: shard %d: relayed dhcp6: %w", e.id, err)
		}
		if !e.crossRelays(g, rng) {
			continue
		}
		rep := &e.rep6
		if err := g.ldra.Unwrap(rep, repWire); err != nil {
			return netip.Prefix{}, false, fmt.Errorf("bng: shard %d: ldra unwrap: %w", e.id, err)
		}
		if len(rep.IAPDs) == 0 || len(rep.IAPDs[0].Prefixes) == 0 {
			continue
		}
		return rep.IAPDs[0].Prefixes[0].Prefix, true, nil
	}
	return netip.Prefix{}, false, nil
}

// relayAssign is the relay-routed attach path. ok=false means the
// exchange was abandoned and all partial state rolled back.
func (e *shardEngine) relayAssign(ev *event, sub *subState, g *groupSrv, renum bool) (assignment, bool, error) {
	hw := hwOf(ev.Tie)
	if renum {
		// The release may itself be lost on a hop; the sticky server
		// then still holds the old binding and simply re-offers it.
		e.req4.Reset(dhcp4.Release, uint32(next(&ev.P.rng)), hw)
		if _, _, err := e.relayX4(g, &e.req4, &ev.P.rng); err != nil {
			return assignment{}, false, err
		}
	}
	a4, ok, err := e.relayAcquire4(g, hw, &ev.P.rng)
	if err != nil {
		return assignment{}, false, err
	}
	if !ok {
		e.relayFail(ev, sub, g)
		return assignment{}, false, nil
	}
	var p6 netip.Prefix
	switch {
	case g.d6 == nil:
	case renum:
		// Renumbering stays programmatic: Reassign's
		// allocate-before-free contract is what guarantees a fresh
		// prefix, and it has no single-message wire equivalent.
		bind, err := g.d6.Reassign(sub.duid, uint32(next(&ev.P.rng)))
		if err != nil {
			return assignment{}, false, fmt.Errorf("bng: shard %d key %#x: dhcp6: %w", e.id, ev.Tie, err)
		}
		p6 = bind.Prefix
	default:
		if p6, ok, err = e.relayAcquire6(g, sub.duid, &ev.P.rng); err != nil {
			return assignment{}, false, err
		}
		if !ok {
			e.relayFail(ev, sub, g)
			return assignment{}, false, nil
		}
	}
	return assignmentOf(a4, p6), true, nil
}

// relayFail abandons an attach after the relay chain exhausted every
// attempt: any partial server state and the session are dropped so the
// retry starts clean. A renumber's attach abandons a live session, whose
// duration is folded like any other ending.
func (e *shardEngine) relayFail(ev *event, sub *subState, g *groupSrv) {
	e.stats.RelayOutages++
	e.release(ev, sub, g)
	e.endSession(ev)
}

// coa delivers an RFC 5176 CoA-Request through the wire codec and the
// group's RADIUS server, then applies the ACK's fresh addresses to the
// session record: operator-forced renumbering without a disconnect.
func (e *shardEngine) coa(ev *event, sub *subState, g *groupSrv) error {
	rep, err := e.dynauth(radius.CoARequest, ev, sub, g)
	if err != nil {
		return fmt.Errorf("bng: shard %d key %#x: coa: %w", e.id, ev.Tie, err)
	}
	e.stats.CoAs++
	if rep.Code != radius.CoAACK {
		return nil // NAKed: the subscriber keeps its current lease
	}
	if s, had := e.table.Get(ev.Tie); had {
		a4, _ := rep.GetAddr4(radius.AttrFramedIPAddress)
		p6, _ := rep.GetPrefix6(radius.AttrDelegatedIPv6Prefix)
		e.update(s, true, assignmentOf(a4, p6))
	}
	return nil
}

// disconnect tears the session down with an RFC 5176 Disconnect-Request
// through the wire codec; the caller schedules the reattach.
func (e *shardEngine) disconnect(ev *event, sub *subState, g *groupSrv) error {
	if _, err := e.dynauth(radius.DisconnectRequest, ev, sub, g); err != nil {
		return fmt.Errorf("bng: shard %d key %#x: disconnect: %w", e.id, ev.Tie, err)
	}
	e.stats.Disconnects++
	e.endSession(ev)
	return nil
}

// dynauth sends the subscriber's group server an RFC 5176 request of the
// given code, its identifier drawn from the subscriber's cursor: built,
// encoded with its Request Authenticator, verified and decoded in the
// engine's scratch packets. The reply is the server's, valid until its
// next call.
//
//lint:hotpath every CoA and Disconnect of a RADIUS subscriber
func (e *shardEngine) dynauth(code radius.Code, ev *event, sub *subState, g *groupSrv) (*radius.Packet, error) {
	e.radReq.Reset(code, byte(next(&ev.P.rng)))
	e.radReq.AddString(radius.AttrUserName, sub.user)
	e.radWire = e.radReq.AppendRequest(e.radWire[:0], g.rad.Secret())
	if err := radius.VerifyRequest(e.radWire, g.rad.Secret()); err != nil {
		return nil, err
	}
	if err := e.radIn.Decode(e.radWire); err != nil {
		return nil, err
	}
	return g.rad.Handle(&e.radIn, ev.At)
}

// failoverRenumber applies a renumbering takeover at atSec: the standby
// that assumed this shard holds no lease state, so every active
// subscriber is forced through reattachment. Two passes in dense key
// order: release every session, then reacquire each. The LIFO free
// lists hand each (group, shard) its addresses and prefixes back in
// reverse, so every subscriber moves except the middle one of a set of
// odd size, which gets its own address and prefix back. A DHCP
// subscriber's transaction id comes from a fresh cursor derived from
// (seed, atSec, key), which leaves the traveling event cursors
// untouched: the post-failover event schedule is identical to an
// uninterrupted run, only the assignments change.
func (e *shardEngine) failoverRenumber(atSec int64, seed uint64) error {
	e.clock.sec = atSec
	active := make([]int, 0, len(e.subs))
	for i := range e.subs {
		sub := &e.subs[i]
		g := &e.srvs[sub.group]
		_, had := e.table.Get(sub.key)
		if g.rad != nil {
			if had {
				g.rad.StopSession(sub.rid)
			}
		} else {
			// Forget drops the sticky memory too, so no DHCP
			// subscriber, online or mid-flap, is re-offered its old
			// address: each draws from the free list.
			g.d4.Forget(hwOf(sub.key))
			if g.d6 != nil {
				g.d6.ReleaseBinding(sub.duid)
			}
		}
		if had {
			active = append(active, i)
		}
	}
	for _, i := range active {
		sub := &e.subs[i]
		rng := (seed ^ uint64(atSec)*gamma) + (sub.key+1)*gamma
		a, err := e.acquire(&e.srvs[sub.group], sub, false, uint32(next(&rng)))
		if err != nil {
			return fmt.Errorf("failover at %ds: %w", atSec, err)
		}
		s, _ := e.table.Get(sub.key)
		e.update(s, true, a)
		e.stats.FailoverRenumbers++
	}
	return nil
}

// flap takes the subscriber offline: its server-side state is released
// and its session ended.
func (e *shardEngine) flap(ev *event, sub *subState, g *groupSrv) {
	e.release(ev, sub, g)
	e.endSession(ev)
	e.stats.Flaps++
}

// scheduleNext draws the subscriber's next action — routine renewal at
// T1 (lease/2), exponential renumbering, an exponential flap, and, when
// the scenario sets their cadences, an operator CoA or Disconnect — and
// queues whichever comes first. Each source consumes one draw in that
// order, so ties resolve renew < renumber < flap < CoA < disconnect.
//
//lint:hotpath
func (e *shardEngine) scheduleNext(ev *event, g *groupSrv) {
	in, kind := g.renewSec, evRenew
	in, kind = g.renumber.race(next(&ev.P.rng), in, kind, evRenumber)
	in, kind = g.flap.race(next(&ev.P.rng), in, kind, evFlap)
	// Scenario operator actions: drawn only when the cadence is set, so
	// a scenario-free config consumes no extra cursor state.
	if g.coa.mean > 0 {
		in, kind = g.coa.race(next(&ev.P.rng), in, kind, evCoA)
	}
	if g.disc.mean > 0 {
		in, kind = g.disc.race(next(&ev.P.rng), in, kind, evDisconnect)
	}
	e.requeue(ev, in, kind)
}

// reattachLater queues the subscriber's reattach after a fresh downtime
// draw.
func (e *shardEngine) reattachLater(ev *event, g *groupSrv) {
	e.requeue(ev, expSeconds(&ev.P.rng, g.downSec), evReattach)
}

// requeue queues the subscriber's next action, kind, in seconds after ev,
// carrying ev's key, index and cursor.
//
//lint:hotpath
func (e *shardEngine) requeue(ev *event, in int64, kind uint8) {
	e.events.push(event{At: ev.At + in, Tie: ev.Tie, P: action{rng: ev.P.rng, idx: ev.P.idx, kind: kind}})
}
