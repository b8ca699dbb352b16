package isp

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"net/netip"

	"dynamips/internal/bgp"
	"dynamips/internal/dhcp6"
	"dynamips/internal/evq"
	"dynamips/internal/faultnet"
	"dynamips/internal/netutil"
	"dynamips/internal/radius"
)

// Config drives one AS simulation.
type Config struct {
	Profile Profile
	// Subscribers is the population size.
	Subscribers int
	// Hours is the simulated horizon (the paper's Atlas window is
	// ~50,400 hours; 6 years).
	Hours int64
	// Seed makes the run reproducible.
	Seed int64
	// Faults, when non-nil, routes every assignment change through a
	// lossy subscriber↔server link: RADIUS Access-Requests go over the
	// wire codec with RFC-style retransmission and server-side duplicate
	// detection, and DHCPv6 changes only land when the simulated
	// Solicit/Request (or Renew) exchange survives the link. Each
	// subscriber×family link draws its fault schedule from its own
	// faultnet stream seeded by Seed, so the simulation's main RNG — and
	// with it the change schedule — is untouched: a non-nil all-zero
	// profile reproduces the nil-Faults output byte for byte. nil keeps
	// the direct in-process call path.
	Faults *faultnet.Profile
	// RelayHops, when positive, inserts that many aggregation hops — a
	// DHCPv4 relay chain or DHCPv6 LDRA path — between every subscriber
	// and its servers. Each hop applies RelayFaults independently in
	// both directions from its own streams; the access link's schedule
	// is untouched (faultnet.NewRelayLink), so hops with a zero relay
	// profile reproduce the hop-free output byte for byte.
	RelayHops int
	// RelayFaults is the per-hop fault profile; nil reuses Faults.
	// Setting RelayHops with a nil Faults runs a perfect access link
	// behind lossy relays.
	RelayFaults *faultnet.Profile
}

// V4Step is one IPv4 assignment: Addr holds from Start (hours) until the
// next step's Start, or the horizon.
type V4Step struct {
	Start int64
	Addr  netip.Addr
}

// V6Step is one IPv6 assignment: the LAN /64 the subscriber's devices see
// and the delegated prefix behind it.
type V6Step struct {
	Start     int64
	LAN       netip.Prefix
	Delegated netip.Prefix
}

// Subscriber is one simulated CPE with its full assignment history.
type Subscriber struct {
	ID        int
	DualStack bool
	Static    bool
	Scramble  bool
	Region    int
	V4        []V4Step
	V6        []V6Step

	class   Class
	gen     int // bumped when a policy shift re-classes the subscriber
	shifted bool
	duid    dhcp6.DUID
	user    string
	v4Srv   *radius.Server
	v6Srv   *dhcp6.Server
	v6SrvID int
}

// NetStats aggregates one AS simulation's assignment-plane totals:
// per-family link fault events and per-protocol server counters. Every
// field is a plain sum over per-subscriber links and per-region servers,
// so the totals are invariant under the pipeline's worker count and
// merge deterministically across ASes.
type NetStats struct {
	// Link4/Link6 sum the per-subscriber lossy-link verdicts (zero
	// without Config.Faults, which keeps the in-process call path).
	Link4, Link6 faultnet.LinkStats
	// Radius sums the v4 session servers; DHCP6 sums the delegation
	// servers.
	Radius radius.ServerStats
	// DHCP6 sums the delegation servers' totals.
	DHCP6 dhcp6.ServerStats
}

// Result is a finished simulation: the ground truth the synthetic Atlas and
// CDN datasets are derived from.
type Result struct {
	Profile     Profile
	Hours       int64
	Subscribers []*Subscriber
	BGP         *bgp.Table
	// Net carries the simulation's protocol/fault accounting.
	Net NetStats
}

type simClock struct{ sec int64 }

func (c *simClock) Now() int64 { return c.sec }

// event kinds, ordered for deterministic tie-breaks.
const (
	evBoth = iota
	evV4
	evV6
	evScramble
	evInfraOutage // sub field holds the region index
	evAdminRenumber
)

// action is what an event does: kind for subscriber sub, or for the
// region sub when kind is evInfraOutage. An event's Tie is its push
// sequence, so events due in the same hour fire in the order they were
// scheduled.
type action struct {
	sub  int
	kind int
	gen  int // drops events scheduled under a superseded policy
}

// sim holds the live machinery of one run.
type sim struct {
	cfg   Config
	rng   *rand.Rand
	clock *simClock
	subs  []*Subscriber

	// v4Srvs[region][bgpIdx] allocates from that region's pool inside
	// that announced prefix.
	v4Srvs [][]*radius.Server
	// v6Srvs[i]: one delegation server per regional pool; indices
	// >= Regions are pools in BGP6Extra aggregates.
	v6Srvs []*dhcp6.Server

	// links4/links6 are the per-subscriber lossy links (nil without
	// cfg.Faults); link ids 2i and 2i+1 keep the families uncorrelated.
	links4, links6 []*faultnet.Link

	events evq.Heap[action]
	seq    uint64
}

// Run simulates the configured AS population and returns its full
// assignment history.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if cfg.Subscribers <= 0 || cfg.Hours <= 0 {
		return nil, fmt.Errorf("isp: need positive subscribers and hours")
	}
	s := &sim{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		clock: &simClock{},
	}
	if err := s.buildServers(); err != nil {
		return nil, err
	}
	s.buildSubscribers()
	s.run()
	res := &Result{
		Profile:     cfg.Profile,
		Hours:       cfg.Hours,
		Subscribers: s.subs,
		BGP:         s.buildBGP(),
		Net:         s.collectNetStats(),
	}
	return res, nil
}

// collectNetStats sums the simulation's link and server totals in their
// construction order, so the aggregate is reproducible by definition.
func (s *sim) collectNetStats() NetStats {
	var n NetStats
	for _, l := range s.links4 {
		n.Link4.Add(l.Stats())
	}
	for _, l := range s.links6 {
		n.Link6.Add(l.Stats())
	}
	for _, region := range s.v4Srvs {
		for _, srv := range region {
			n.Radius.Add(srv.Stats())
		}
	}
	for _, srv := range s.v6Srvs {
		n.DHCP6.Add(srv.Stats())
	}
	return n
}

func (s *sim) buildServers() error {
	p := s.cfg.Profile
	// Session timeouts/lease lifetimes are protocol-level dressing; the
	// change schedule is driven by the duration models.
	lease := p.LeaseHours
	if lease == 0 {
		lease = 24
	}
	s.v4Srvs = make([][]*radius.Server, p.Regions)
	for r := 0; r < p.Regions; r++ {
		s.v4Srvs[r] = make([]*radius.Server, len(p.BGP4))
		for b, bp := range p.BGP4 {
			// Spread regional pools across each announced prefix.
			span := uint64(1) << uint(p.PoolLen4-bp.Bits())
			idx := (uint64(r) * span) / uint64(p.Regions)
			pool, err := netutil.SubPrefix(bp, p.PoolLen4, idx)
			if err != nil {
				return fmt.Errorf("isp: carving v4 pool: %w", err)
			}
			s.v4Srvs[r][b] = radius.NewServer(radius.ServerConfig{
				Pools4:         []netip.Prefix{pool},
				SessionTimeout: lease * 3600,
			})
		}
	}
	// A delegation server never expires a binding: it holds its prefix
	// until the schedule moves it (a change, an outage or a renumbering).
	// The valid lifetime only fills the replies, and covers the horizon
	// plus a day.
	valid := uint32(4_000_000_000)
	if sec := (s.cfg.Hours + 24) * 3600; sec < int64(valid) {
		valid = uint32(sec)
	}
	addV6Pool := func(agg netip.Prefix, idx uint64) error {
		pool, err := netutil.SubPrefix(agg, p.PoolLen6, idx)
		if err != nil {
			return fmt.Errorf("isp: carving v6 pool: %w", err)
		}
		s.v6Srvs = append(s.v6Srvs, dhcp6.NewServer(dhcp6.ServerConfig{
			Pools:        []netip.Prefix{pool},
			DelegatedLen: p.DelegatedLen,
			ValidSeconds: valid,
		}, s.clock))
		return nil
	}
	// Place the regional pools so that a cross-pool jump shares about
	// CrossCPL leading bits with the previous assignment: the region
	// index field sits immediately below bit CrossCPL.
	crossCPL := p.CrossCPL
	if crossCPL == 0 {
		crossCPL = p.PoolLen6 - 16
	}
	if crossCPL < p.BGP6.Bits() {
		crossCPL = p.BGP6.Bits()
	}
	regionBits := bits.Len(uint(p.Regions - 1))
	shift := p.PoolLen6 - crossCPL - regionBits
	if shift < 0 {
		shift = 0
	}
	for r := 0; r < p.Regions; r++ {
		if err := addV6Pool(p.BGP6, uint64(r)<<uint(shift)); err != nil {
			return err
		}
	}
	for _, extra := range p.BGP6Extra {
		if p.PoolLen6 < extra.Bits() {
			return fmt.Errorf("isp: pool /%d shorter than extra aggregate %v", p.PoolLen6, extra)
		}
		if err := addV6Pool(extra, 0); err != nil {
			return err
		}
	}
	return nil
}

func (s *sim) buildBGP() *bgp.Table {
	p := s.cfg.Profile
	t := &bgp.Table{}
	for _, b := range p.BGP4 {
		t.Announce(b, p.ASN)
	}
	t.Announce(p.BGP6, p.ASN)
	for _, b := range p.BGP6Extra {
		t.Announce(b, p.ASN)
	}
	t.SetName(p.ASN, p.Name)
	return t
}

func pickClass(classes []Class, rng *rand.Rand) Class {
	var total float64
	for _, c := range classes {
		total += c.Weight
	}
	x := rng.Float64() * total
	for _, c := range classes {
		x -= c.Weight
		if x <= 0 {
			return c
		}
	}
	return classes[len(classes)-1]
}

func (s *sim) buildSubscribers() {
	p := s.cfg.Profile
	s.subs = make([]*Subscriber, s.cfg.Subscribers)
	for i := range s.subs {
		var mac [6]byte
		binary.BigEndian.PutUint32(mac[2:], uint32(i+1))
		mac[0] = 0x02 // locally administered
		sub := &Subscriber{
			ID:        i,
			DualStack: s.rng.Float64() < p.DualStackFrac,
			Static:    s.rng.Float64() < p.StaticFrac,
			Region:    s.rng.Intn(p.Regions),
			duid:      dhcp6.DUIDLL(mac),
			user:      fmt.Sprintf("%s-cpe-%06d", p.Name, i),
		}
		if sub.DualStack {
			sub.class = pickClass(p.DS, s.rng)
			sub.Scramble = s.rng.Float64() < p.ScrambleFrac
		} else {
			sub.class = pickClass(p.NDS, s.rng)
		}
		s.subs[i] = sub
	}
	if s.cfg.Faults != nil || s.cfg.RelayHops > 0 {
		var prof faultnet.Profile
		if s.cfg.Faults != nil {
			prof = *s.cfg.Faults
		}
		relayProf := prof
		if s.cfg.RelayFaults != nil {
			relayProf = *s.cfg.RelayFaults
		}
		s.links4 = make([]*faultnet.Link, len(s.subs))
		s.links6 = make([]*faultnet.Link, len(s.subs))
		for i := range s.subs {
			s.links4[i] = faultnet.NewRelayLink(prof, relayProf, uint64(s.cfg.Seed), uint64(2*i), s.cfg.RelayHops)
			s.links6[i] = faultnet.NewRelayLink(prof, relayProf, uint64(s.cfg.Seed), uint64(2*i+1), s.cfg.RelayHops)
		}
	}
}

// pushInfra schedules a regional infrastructure outage; these events are
// not tied to a subscriber generation.
func (s *sim) pushInfra(at int64, region int) {
	if at >= s.cfg.Hours {
		return
	}
	s.queue(at, action{sub: region, kind: evInfraOutage})
}

// infraOutage models the region's assignment servers losing state: fresh
// sessions and delegations for every affected (non-static) subscriber in
// the same hour.
func (s *sim) infraOutage(t int64, region int) {
	s.v6Srvs[region].LoseState()
	for _, sub := range s.subs {
		if sub.Region != region || sub.Static {
			continue
		}
		s.changeV4(t, sub)
		if sub.DualStack && sub.v6SrvID == region {
			s.changeV6(t, sub)
		}
	}
}

// adminRenumber models ISP-wide renumbering: every delegation server
// drops its bindings and advances past previously issued space, then all
// non-static subscribers re-acquire in the same hour.
func (s *sim) adminRenumber(t int64) {
	for _, srv := range s.v6Srvs {
		srv.Renumber()
	}
	for _, sub := range s.subs {
		if sub.Static {
			continue
		}
		s.changeV4(t, sub)
		if sub.DualStack {
			s.changeV6(t, sub)
		}
	}
}

func (s *sim) push(at int64, sub, kind int) {
	if at >= s.cfg.Hours {
		return
	}
	s.queue(at, action{sub: sub, kind: kind, gen: s.subs[sub].gen})
}

// queue schedules a at hour at, behind every event already queued for
// that hour.
func (s *sim) queue(at int64, a action) {
	s.seq++
	s.events.Push(evq.Event[action]{At: at, Tie: s.seq, P: a})
}

func (s *sim) scheduleNext(t int64, sub *Subscriber) {
	if sub.Static {
		return
	}
	c := sub.class
	if sub.DualStack && c.Coupled {
		if !c.V4.Static() {
			s.push(t+int64(c.V4.Next(s.rng)), sub.ID, evBoth)
		}
		return
	}
	if !c.V4.Static() {
		s.push(t+int64(c.V4.Next(s.rng)), sub.ID, evV4)
	}
	if sub.DualStack && !c.V6.Static() {
		s.push(t+int64(c.V6.Next(s.rng)), sub.ID, evV6)
	}
}

// scheduleOne re-arms a single process after it fired.
func (s *sim) scheduleOne(t int64, sub *Subscriber, kind int) {
	c := sub.class
	switch kind {
	case evBoth:
		s.push(t+int64(c.V4.Next(s.rng)), sub.ID, evBoth)
	case evV4:
		s.push(t+int64(c.V4.Next(s.rng)), sub.ID, evV4)
	case evV6:
		s.push(t+int64(c.V6.Next(s.rng)), sub.ID, evV6)
	case evScramble:
		s.push(t+max(1, int64(s.rng.ExpFloat64()*s.cfg.Profile.ScrambleMeanHours)), sub.ID, evScramble)
	}
}

func (s *sim) changeV4(t int64, sub *Subscriber) {
	p := s.cfg.Profile
	bgpIdx := 0
	if cur := sub.v4Srv; cur != nil {
		// Find the current server's BGP index to decide locality.
		curIdx := 0
		for b, srv := range s.v4Srvs[sub.Region] {
			if srv == cur {
				curIdx = b
				break
			}
		}
		bgpIdx = curIdx
		if len(p.BGP4) > 1 && s.rng.Float64() < p.CrossBGP4Frac {
			// Move to a different announced prefix.
			bgpIdx = s.rng.Intn(len(p.BGP4) - 1)
			if bgpIdx >= curIdx {
				bgpIdx++
			}
		}
	} else {
		bgpIdx = s.rng.Intn(len(p.BGP4))
	}
	srv := s.v4Srvs[sub.Region][bgpIdx]
	var addr netip.Addr
	if s.links4 != nil {
		a, ok := s.accessOverLink(sub, srv)
		if !ok {
			return // no Accept survived the network: keep the old address
		}
		addr = a
	} else {
		sess, err := srv.StartSession(srv.User(sub.user))
		if err != nil {
			return // pool exhausted: keep the old address
		}
		addr = sess.Addr4
	}
	if sub.v4Srv != nil && sub.v4Srv != srv {
		sub.v4Srv.StopSession(sub.v4Srv.User(sub.user))
	}
	sub.v4Srv = srv
	sub.pushV4(V4Step{Start: t, Addr: addr})
}

// v4AttemptCap bounds how many full retransmission schedules a CPE runs
// before giving up on a change and keeping its address — the same
// fallback as pool exhaustion.
const v4AttemptCap = 8

// accessOverLink runs Access-Request/Accept over the subscriber's lossy
// link. The request's identifier and authenticator come from the link's
// client stream; every copy the uplink delivers hits srv.Handle, so a
// duplicated request genuinely exercises the server's RFC 5080 duplicate
// cache (same reply, no second allocation); and the client takes the
// reply only when the downlink delivered it before the RADIUS
// retransmission schedule gave up. A failed schedule is retried with a
// fresh identifier — a new request, as a rebooting CPE would send — up to
// v4AttemptCap attempts.
func (s *sim) accessOverLink(sub *Subscriber, srv *radius.Server) (netip.Addr, bool) {
	link := s.links4[sub.ID]
	cs := link.Client()
	nowMS := s.clock.sec * 1000
	for attempt := 0; attempt < v4AttemptCap; attempt++ {
		req := radius.New(radius.AccessRequest, byte(cs.Uint64()))
		binary.BigEndian.PutUint64(req.Authenticator[0:8], cs.Uint64())
		binary.BigEndian.PutUint64(req.Authenticator[8:16], cs.Uint64())
		req.AddString(radius.AttrUserName, sub.user)
		// Holding rep is safe: every copy lands at one second, a duplicate served from rep's entry.
		var rep *radius.Packet
		v := link.Exchange(nowMS, radius.NewRetransmitter(cs), func(int) {
			if r, err := srv.Handle(req, s.clock.sec); err == nil && rep == nil {
				rep = r
			}
		})
		nowMS = v.DoneMS
		if !v.OK || rep == nil {
			continue // every transmission or every reply was lost
		}
		if rep.Code != radius.AccessAccept {
			return netip.Addr{}, false // pool exhausted: keep the old address
		}
		a, ok := rep.GetAddr4(radius.AttrFramedIPAddress)
		return a, ok
	}
	return netip.Addr{}, false
}

// pushV4 records a step, coalescing multiple changes within the same hour
// (the dataset's granularity: only the last address of an hour is visible).
func (sub *Subscriber) pushV4(st V4Step) {
	if n := len(sub.V4); n > 0 && sub.V4[n-1].Start == st.Start {
		sub.V4[n-1] = st
		return
	}
	sub.V4 = append(sub.V4, st)
}

// pushV6 records a step with the same same-hour coalescing as pushV4.
func (sub *Subscriber) pushV6(st V6Step) {
	if n := len(sub.V6); n > 0 && sub.V6[n-1].Start == st.Start {
		sub.V6[n-1] = st
		return
	}
	sub.V6 = append(sub.V6, st)
}

func (s *sim) lanFrom(delegated netip.Prefix, sub *Subscriber) netip.Prefix {
	lan := netip.PrefixFrom(delegated.Addr(), 64)
	if sub.Scramble {
		lan = netutil.ScrambleBits(lan, s.cfg.Profile.DelegatedLen, s.rng.Uint64())
	}
	return lan
}

func (s *sim) changeV6(t int64, sub *Subscriber) {
	p := s.cfg.Profile
	poolIdx := sub.v6SrvID
	if sub.v6Srv == nil {
		poolIdx = sub.Region
	} else if len(s.v6Srvs) > 1 && s.rng.Float64() < p.CrossPool6Frac {
		if len(p.BGP6Extra) > 0 && s.rng.Float64() < p.CrossBGP6Frac {
			poolIdx = p.Regions + s.rng.Intn(len(p.BGP6Extra))
		} else {
			poolIdx = s.rng.Intn(p.Regions)
		}
	}
	srv := s.v6Srvs[poolIdx]
	if s.links6 != nil && !s.v6ChangeDelivered(sub, sub.v6Srv == srv) {
		return // the exchange never completed: keep the old delegation
	}
	var (
		b   dhcp6.Binding
		err error
	)
	if sub.v6Srv == srv {
		b, err = srv.Reassign(sub.duid, uint32(t))
	} else {
		b, err = srv.Acquire(sub.duid, uint32(t))
		if err == nil && sub.v6Srv != nil {
			sub.v6Srv.ReleaseBinding(sub.duid)
		}
	}
	if err != nil {
		return // pool exhausted: keep the old delegation
	}
	sub.v6Srv = srv
	sub.v6SrvID = poolIdx
	sub.pushV6(V6Step{Start: t, LAN: s.lanFrom(b.Prefix, sub), Delegated: b.Prefix})
}

// v6SimBoundMS caps simulated DHCPv6 schedules at one virtual hour: RFC
// 8415 lets Solicit and Renew retransmit indefinitely, but past the hour
// the change is moot at the dataset's granularity and the CPE keeps its
// old delegation.
const v6SimBoundMS = 3_600_000

// v6ChangeDelivered replays the message exchanges a v6 change rides on:
// Renew for an in-place reassignment, Solicit then Request when the
// subscriber moves servers. The server-side allocation happens once,
// in-process, only after every exchange survived the link — DHCPv6
// transaction-id dedup is modeled by that single-call gate (the RADIUS
// path is where genuine server-side duplicate detection is exercised).
func (s *sim) v6ChangeDelivered(sub *Subscriber, sameSrv bool) bool {
	link := s.links6[sub.ID]
	cs := link.Client()
	nowMS := s.clock.sec * 1000
	exchange := func(p dhcp6.RetransParams) bool {
		p.MRD = v6SimBoundMS
		v := link.Exchange(nowMS, dhcp6.NewRetransmitter(p, cs), nil)
		nowMS = v.DoneMS
		return v.OK
	}
	if sameSrv && sub.v6Srv != nil {
		return exchange(dhcp6.RenewParams())
	}
	return exchange(dhcp6.SolicitParams()) && exchange(dhcp6.RequestParams())
}

func (s *sim) run() {
	p := s.cfg.Profile
	// Initial assignments at t=0.
	for _, sub := range s.subs {
		s.clock.sec = 0
		s.changeV4(0, sub)
		if sub.DualStack {
			s.changeV6(0, sub)
			if sub.Scramble && p.ScrambleMeanHours > 0 {
				s.push(max(1, int64(s.rng.ExpFloat64()*p.ScrambleMeanHours)), sub.ID, evScramble)
			}
		}
		s.scheduleNext(0, sub)
	}
	if p.InfraOutageMeanHours > 0 {
		for r := 0; r < p.Regions; r++ {
			s.pushInfra(max(1, int64(s.rng.ExpFloat64()*p.InfraOutageMeanHours)), r)
		}
	}
	for _, at := range p.AdminRenumberAtHours {
		if at > 0 && at < s.cfg.Hours {
			s.queue(at, action{kind: evAdminRenumber})
		}
	}
	shift := p.Shift
	for s.events.Len() > 0 {
		e := s.events.Pop()
		at, ev := e.At, e.P
		if ev.kind == evInfraOutage {
			s.clock.sec = at * 3600
			s.infraOutage(at, ev.sub)
			s.pushInfra(at+max(1, int64(s.rng.ExpFloat64()*p.InfraOutageMeanHours)), ev.sub)
			continue
		}
		if ev.kind == evAdminRenumber {
			s.clock.sec = at * 3600
			s.adminRenumber(at)
			continue
		}
		sub := s.subs[ev.sub]
		if ev.gen != sub.gen {
			continue // scheduled under a superseded policy
		}
		s.clock.sec = at * 3600
		switch ev.kind {
		case evBoth:
			s.changeV4(at, sub)
			s.changeV6(at, sub)
		case evV4:
			s.changeV4(at, sub)
		case evV6:
			s.changeV6(at, sub)
		case evScramble:
			if n := len(sub.V6); n > 0 {
				d := sub.V6[n-1].Delegated
				lan := netutil.ScrambleBits(netip.PrefixFrom(d.Addr(), 64), p.DelegatedLen, s.rng.Uint64())
				if lan != sub.V6[n-1].LAN {
					sub.pushV6(V6Step{Start: at, LAN: lan, Delegated: d})
				}
			}
		}
		if shift != nil && !sub.shifted && at >= shift.AtHour && ev.kind != evScramble {
			// Policy change: the subscriber re-draws its behavior class
			// and re-arms its change processes under the new policy.
			sub.shifted = true
			sub.gen++
			if sub.DualStack && shift.DSAfter != nil {
				sub.class = pickClass(shift.DSAfter, s.rng)
			} else if !sub.DualStack && shift.NDSAfter != nil {
				sub.class = pickClass(shift.NDSAfter, s.rng)
			}
			if sub.Scramble && p.ScrambleMeanHours > 0 {
				s.push(at+max(1, int64(s.rng.ExpFloat64()*p.ScrambleMeanHours)), sub.ID, evScramble)
			}
			s.scheduleNext(at, sub)
			continue
		}
		s.scheduleOne(at, sub, ev.kind)
	}
}
