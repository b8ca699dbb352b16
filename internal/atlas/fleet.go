package atlas

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"dynamips/internal/bgp"
	"dynamips/internal/echo"
	"dynamips/internal/faultnet"
	"dynamips/internal/isp"
	"dynamips/internal/netutil"
	"dynamips/internal/slaac"
)

// Kind is the ground-truth classification of a generated probe, used to
// validate the sanitization pipeline against what the generator injected.
type Kind int

// Probe kinds. Only KindClean probes should survive sanitization intact;
// KindASSwitch probes should survive as split virtual probes.
const (
	KindClean Kind = iota
	KindShort
	KindMultihomed
	KindBadTag
	KindAtypicalNAT
	KindASSwitch
)

var kindNames = [...]string{"clean", "short", "multihomed", "bad-tag", "atypical-nat", "as-switch"}

// String names the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// Foreign ASes used to synthesize multihoming and AS-switch anomalies.
var (
	foreignASN1     = uint32(64500)
	foreignASN2     = uint32(64501)
	foreignV4Pfx1   = netip.MustParsePrefix("198.51.100.0/24")
	foreignV4Pfx2   = netip.MustParsePrefix("203.0.113.0/24")
	foreignV6Pfx1   = netip.MustParsePrefix("3fff:100::/32")
	foreignV6Pfx2   = netip.MustParsePrefix("3fff:200::/32")
	privateProbeSrc = netip.MustParseAddr("192.168.1.2")
)

// FleetConfig shapes the probe fleet derived from one AS simulation.
type FleetConfig struct {
	// Probes is the number of probes to host (each on a distinct
	// simulated subscriber).
	Probes int
	// Seed makes the fleet reproducible.
	Seed int64
	// JoinSpreadFrac spreads probe join times uniformly over this
	// fraction of the horizon (Atlas probes joined over years).
	JoinSpreadFrac float64
	// UptimeMeanHours and DowntimeMeanHours model probe connectivity as
	// alternating exponential up/down periods. Zero disables downtime.
	UptimeMeanHours   float64
	DowntimeMeanHours float64
	// PrivacyIIDFrac is the fraction of probes whose host rotates its
	// interface identifier on every prefix change (RFC 4941 privacy
	// addresses). Atlas probes deliberately use stable IIDs, but the
	// option models general device populations for the §6 tracking
	// analysis. The /64 still identifies the subscriber either way.
	PrivacyIIDFrac float64
	// Anomaly fractions (Appendix A.1's filtered populations).
	ShortFrac       float64
	MultihomedFrac  float64
	BadTagFrac      float64
	AtypicalNATFrac float64
	TestAddrFrac    float64
	ASSwitchFrac    float64
	// Faults models the measurement plane's own lossiness: each hourly
	// echo is independently lost with probability Faults.Drop, punching
	// single-hour gaps into the observation spans (the missing
	// measurements Sanitize must tolerate without fabricating
	// reassignments). Decisions come from per-probe faultnet streams
	// seeded by Seed, so the fleet's main RNG — join times, anomalies —
	// is untouched and the zero profile changes nothing.
	Faults faultnet.Profile
}

// DefaultFleetConfig returns the configuration used by the experiments:
// mostly clean probes with the anomaly mix the appendix describes.
func DefaultFleetConfig(probes int, seed int64) FleetConfig {
	return FleetConfig{
		Probes:            probes,
		Seed:              seed,
		JoinSpreadFrac:    0.6,
		UptimeMeanHours:   4000,
		DowntimeMeanHours: 8,
		ShortFrac:         0.08,
		MultihomedFrac:    0.05,
		BadTagFrac:        0.03,
		AtypicalNATFrac:   0.03,
		TestAddrFrac:      0.10,
		ASSwitchFrac:      0.04,
	}
}

// Fleet is a generated probe population with its ground truth.
type Fleet struct {
	Series []echo.Series
	Truth  map[int]Kind
	BGP    *bgp.Table
	Result *isp.Result
	// EchoesDropped counts the measured hours the fault profile's echo
	// loss removed across the fleet — the measurement-plane side of the
	// pipeline's fault accounting.
	EchoesDropped int64
}

// BuildFleet derives a probe fleet from an AS simulation. Each probe sits
// behind one simulated subscriber's CPE and reports that subscriber's
// public IPv4 address and a stable (EUI-64-style) address inside the
// subscriber's LAN /64.
func BuildFleet(res *isp.Result, cfg FleetConfig) (*Fleet, error) {
	if cfg.Probes <= 0 || cfg.Probes > len(res.Subscribers) {
		return nil, fmt.Errorf("atlas: %d probes requested from %d subscribers", cfg.Probes, len(res.Subscribers))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Fleet{
		Truth:  make(map[int]Kind),
		Result: res,
		BGP:    fleetBGP(res),
	}
	for i := 0; i < cfg.Probes; i++ {
		sub := res.Subscribers[i]
		probe := echo.Probe{
			ID:           int(res.Profile.ASN)*100000 + i,
			ASN:          res.Profile.ASN,
			SubscriberID: sub.ID,
		}
		kind := pickKind(rng, cfg)
		if kind == KindMultihomed && !sub.DualStack {
			kind = KindClean // keep the mix simple: anomalies on DS probes
		}

		join := int64(rng.Float64() * cfg.JoinSpreadFrac * float64(res.Hours))
		end := res.Hours - 1
		if kind == KindShort {
			end = join + int64(rng.Float64()*600) // under a month observed
			if end >= res.Hours {
				end = res.Hours - 1
			}
		}
		up := upSegments(rng, join, end, cfg.UptimeMeanHours, cfg.DowntimeMeanHours)

		// Atlas probes use stable EUI-64 interface identifiers derived
		// from their MAC — deliberately, "to facilitate their use as
		// reliable measurement targets" (§6).
		var probeMAC [6]byte
		rng.Read(probeMAC[:])
		probeMAC[0] &^= 0x01 // unicast
		hostID := slaac.EUI64(probeMAC)
		privacySecret := probeMAC[:]
		privacy := rng.Float64() < cfg.PrivacyIIDFrac
		ser := echo.Series{Probe: probe}
		ser.V4 = buildFamilySpans(up, v4Timeline(sub), func(a netip.Addr) (netip.Addr, netip.Addr) {
			return a, privateProbeSrc
		})
		if sub.DualStack {
			ser.V6 = buildFamilySpans(up, v6Timeline(sub), func(p netip.Addr) (netip.Addr, netip.Addr) {
				host := hostID
				if privacy {
					// An RFC 4941 temporary IID rotated per observed
					// prefix: deterministic in the prefix so
					// re-observations of one assignment agree.
					host = slaac.Temporary(privacySecret, netutil.Key64(p))
				}
				addr := withHost(netutil.Prefix64(p), host)
				return addr, addr
			})
		}
		applyAnomaly(&ser, kind, rng)
		if rng.Float64() < cfg.TestAddrFrac {
			PrependTestAddr(&ser)
		}
		if cfg.Faults.Drop > 0 {
			before := measuredHours(ser.V4) + measuredHours(ser.V6)
			ser.V4 = dropEchoes(ser.V4, cfg.Faults.Drop, faultnet.NewStream(uint64(cfg.Seed), uint64(2*i)))
			ser.V6 = dropEchoes(ser.V6, cfg.Faults.Drop, faultnet.NewStream(uint64(cfg.Seed), uint64(2*i+1)))
			f.EchoesDropped += before - measuredHours(ser.V4) - measuredHours(ser.V6)
		}
		f.Truth[probe.ID] = kind
		if kind == KindBadTag {
			ser.Probe.Tags = append(ser.Probe.Tags, "datacentre")
		}
		f.Series = append(f.Series, ser)
	}
	return f, nil
}

func pickKind(rng *rand.Rand, cfg FleetConfig) Kind {
	x := rng.Float64()
	switch {
	case x < cfg.ShortFrac:
		return KindShort
	case x < cfg.ShortFrac+cfg.MultihomedFrac:
		return KindMultihomed
	case x < cfg.ShortFrac+cfg.MultihomedFrac+cfg.BadTagFrac:
		return KindBadTag
	case x < cfg.ShortFrac+cfg.MultihomedFrac+cfg.BadTagFrac+cfg.AtypicalNATFrac:
		return KindAtypicalNAT
	case x < cfg.ShortFrac+cfg.MultihomedFrac+cfg.BadTagFrac+cfg.AtypicalNATFrac+cfg.ASSwitchFrac:
		return KindASSwitch
	default:
		return KindClean
	}
}

func fleetBGP(res *isp.Result) *bgp.Table {
	t := &bgp.Table{}
	for _, e := range res.BGP.Entries() {
		t.Announce(e.Prefix, e.ASN)
	}
	t.SetName(res.Profile.ASN, res.Profile.Name)
	t.Announce(foreignV4Pfx1, foreignASN1)
	t.Announce(foreignV6Pfx1, foreignASN1)
	t.Announce(foreignV4Pfx2, foreignASN2)
	t.Announce(foreignV6Pfx2, foreignASN2)
	return t
}

type segment struct{ a, b int64 }

func upSegments(rng *rand.Rand, join, end int64, upMean, downMean float64) []segment {
	if upMean <= 0 || downMean <= 0 {
		return []segment{{join, end}}
	}
	var segs []segment
	t := join
	for t <= end {
		up := max(int64(1), int64(rng.ExpFloat64()*upMean))
		b := min(t+up-1, end)
		segs = append(segs, segment{t, b})
		down := max(int64(1), int64(rng.ExpFloat64()*downMean))
		t = b + 1 + down
	}
	return segs
}

type step struct {
	start int64
	addr  netip.Addr
}

func v4Timeline(sub *isp.Subscriber) []step {
	out := make([]step, len(sub.V4))
	for i, st := range sub.V4 {
		out[i] = step{st.Start, st.Addr}
	}
	return out
}

func v6Timeline(sub *isp.Subscriber) []step {
	out := make([]step, len(sub.V6))
	for i, st := range sub.V6 {
		out[i] = step{st.Start, st.LAN.Addr()}
	}
	return out
}

// buildFamilySpans intersects uptime segments with the assignment timeline,
// emitting one span per (segment ∩ assignment) stretch.
func buildFamilySpans(up []segment, steps []step, render func(netip.Addr) (echoed, src netip.Addr)) []echo.Span {
	if len(steps) == 0 {
		return nil
	}
	var spans []echo.Span
	for _, seg := range up {
		// Find the step active at seg.a (last step with start <= seg.a).
		i := 0
		for i+1 < len(steps) && steps[i+1].start <= seg.a {
			i++
		}
		for a := seg.a; a <= seg.b && i < len(steps); {
			end := seg.b
			if i+1 < len(steps) && steps[i+1].start-1 < end {
				end = steps[i+1].start - 1
			}
			if end >= a {
				echoed, src := render(steps[i].addr)
				spans = append(spans, echo.Span{Start: a, End: end, Echo: echoed, Src: src})
			}
			a = end + 1
			i++
		}
	}
	return spans
}

func withHost(p netip.Prefix, host uint64) netip.Addr {
	hi, _ := netutil.U128(p.Addr())
	return netutil.AddrFrom128(hi, host)
}

func foreignAddr4(pfx netip.Prefix, rng *rand.Rand) netip.Addr {
	a, err := netutil.HostAddr(pfx, uint64(rng.Intn(200)+2))
	if err != nil {
		panic(err)
	}
	return a
}

func foreignAddr6(pfx netip.Prefix, rng *rand.Rand) netip.Addr {
	p64, err := netutil.SubPrefix(pfx, 64, uint64(rng.Intn(1<<16)))
	if err != nil {
		panic(err)
	}
	return withHost(p64, rng.Uint64()|1)
}

func applyAnomaly(ser *echo.Series, kind Kind, rng *rand.Rand) {
	switch kind {
	case KindAtypicalNAT:
		// The probe reports a public src_addr in IPv4 (no home NAT) and a
		// src_addr differing from the echoed address in IPv6.
		for i := range ser.V4 {
			ser.V4[i].Src = ser.V4[i].Echo
		}
		for i := range ser.V6 {
			hi, lo := netutil.U128(ser.V6[i].Src)
			ser.V6[i].Src = netutil.AddrFrom128(hi, lo^0xff)
		}

	case KindMultihomed:
		// Alternate chunks of each span between the home ISP and a
		// foreign AS, as a dual-WAN deployment looks from the echo server.
		alt4 := foreignAddr4(foreignV4Pfx1, rng)
		alt6 := foreignAddr6(foreignV6Pfx1, rng)
		ser.V4 = alternate(ser.V4, alt4, privateProbeSrc, rng)
		ser.V6 = alternate(ser.V6, alt6, alt6, rng)

	case KindASSwitch:
		// The owner changed ISP mid-life: all observations after the
		// switch come from a different AS.
		ser.V4 = switchTail(ser.V4, foreignAddr4(foreignV4Pfx2, rng))
		ser.V6 = switchTail(ser.V6, foreignAddr6(foreignV6Pfx2, rng))

	default:
		// TestAddr contamination is orthogonal: applied by the caller
		// through PrependTestAddr when the draw selects it.
	}
}

func alternate(spans []echo.Span, altEcho, altSrc netip.Addr, rng *rand.Rand) []echo.Span {
	var out []echo.Span
	for _, sp := range spans {
		use := rng.Intn(2) == 0
		for a := sp.Start; a <= sp.End; {
			chunk := int64(6 + rng.Intn(18))
			b := min(a+chunk-1, sp.End)
			s := sp
			s.Start, s.End = a, b
			if use {
				s.Echo, s.Src = altEcho, altSrc
			}
			out = append(out, s)
			use = !use
			a = b + 1
		}
	}
	return out
}

func switchTail(spans []echo.Span, alt netip.Addr) []echo.Span {
	if len(spans) < 2 {
		return spans
	}
	cut := len(spans) / 2
	out := append([]echo.Span(nil), spans...)
	for i := cut; i < len(out); i++ {
		out[i].Echo = alt
		out[i].Src = alt
		if out[i].Src.Is4() {
			out[i].Src = privateProbeSrc
		}
	}
	return out
}

// measuredHours sums the measured hours across spans.
func measuredHours(spans []echo.Span) int64 {
	var n int64
	for _, sp := range spans {
		n += sp.Hours()
	}
	return n
}

// dropEchoes removes individual measured hours from spans with
// probability p each, splitting the RLE spans around the gaps. Lost hours
// are located by geometric skip-sampling (inversion of the geometric
// distribution), so the cost is proportional to the number of losses, not
// the number of measured hours, and the spans stay run-length encoded.
func dropEchoes(spans []echo.Span, p float64, st *faultnet.Stream) []echo.Span {
	if p <= 0 || len(spans) == 0 {
		return spans
	}
	if p >= 1 {
		return nil
	}
	// nextGap draws how many hours survive before the next loss.
	logq := math.Log(1 - p)
	nextGap := func() int64 {
		return int64(math.Log(1-st.Float64()) / logq)
	}
	out := make([]echo.Span, 0, len(spans))
	loss := nextGap() // index of the next lost hour, counted over measured hours
	var off int64
	for _, sp := range spans {
		n := sp.Hours()
		cur := sp
		for loss < off+n {
			h := sp.Start + (loss - off)
			if h > cur.Start {
				left := cur
				left.End = h - 1
				out = append(out, left)
			}
			cur.Start = h + 1
			loss += 1 + nextGap()
		}
		if cur.Start <= cur.End {
			out = append(out, cur)
		}
		off += n
	}
	return out
}

// PrependTestAddr marks the first hours of a probe's IPv4 history with the
// RIPE test address, as probes tested before shipping show.
func PrependTestAddr(ser *echo.Series) {
	if len(ser.V4) == 0 || ser.V4[0].Hours() < 3 {
		return
	}
	first := ser.V4[0]
	test := first
	test.End = first.Start + 1
	test.Echo = TestAddr
	rest := first
	rest.Start = first.Start + 2
	ser.V4 = append([]echo.Span{test, rest}, ser.V4[1:]...)
}
