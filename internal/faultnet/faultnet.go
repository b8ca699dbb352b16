// Package faultnet injects deterministic network faults into the
// assignment plane. The paper attributes a large share of observed
// reassignments to outages and measurement gaps (§2.2, Appendix A.1);
// this package supplies the lossy-network scenario those code paths need:
// datagrams are dropped, duplicated, and delayed according to a per-link
// Profile whose every decision comes from a seeded SplitMix64 stream
// and the simulation's virtual clock — never wall time and never a shared
// RNG — so identical seeds yield identical fault schedules regardless of
// worker count.
//
// Link is the one datagram transport: Exchange replays one request/reply
// datagram exchange, including the client's RFC retransmission schedule,
// entirely in virtual milliseconds. The internal/isp simulator drives its
// RADIUS, DHCPv4 and DHCPv6 exchanges through it.
package faultnet

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Profile configures the faults one link injects, all probabilities per
// datagram. The zero value is a perfect network: every datagram is
// delivered immediately, and no stream state is consumed deciding so.
type Profile struct {
	// Drop is the probability a datagram is lost.
	Drop float64
	// Dup is the probability a delivered datagram arrives twice.
	Dup float64
	// Delay is the probability a delivered datagram is delayed by a
	// uniform draw from [DelayMinMS, DelayMaxMS] virtual milliseconds.
	Delay                  float64
	DelayMinMS, DelayMaxMS int64
}

// Validate rejects probabilities outside [0,1] and inverted delay bounds.
func (p Profile) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"dup", p.Dup}, {"delay", p.Delay}} {
		if f.v < 0 || f.v > 1 || math.IsNaN(f.v) {
			return fmt.Errorf("faultnet: %s probability %v outside [0,1]", f.name, f.v)
		}
	}
	if p.DelayMinMS < 0 || p.DelayMaxMS < p.DelayMinMS {
		return fmt.Errorf("faultnet: delay bounds [%d,%d] ms invalid", p.DelayMinMS, p.DelayMaxMS)
	}
	return nil
}

// ParseProfile parses the CLI fault specification: comma-separated
// key=value fields, e.g. "drop=0.1,dup=0.02,delay=0.05:200-1500".
// The delay value is "prob" or "prob:minms-maxms".
func ParseProfile(s string) (Profile, error) {
	var p Profile
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Profile{}, fmt.Errorf("faultnet: field %q is not key=value", field)
		}
		switch key {
		case "drop", "dup":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Profile{}, fmt.Errorf("faultnet: %s=%q: %w", key, val, err)
			}
			if key == "drop" {
				p.Drop = f
			} else {
				p.Dup = f
			}
		case "delay":
			prob, bounds, hasBounds := strings.Cut(val, ":")
			f, err := strconv.ParseFloat(prob, 64)
			if err != nil {
				return Profile{}, fmt.Errorf("faultnet: delay=%q: %w", val, err)
			}
			p.Delay = f
			p.DelayMinMS, p.DelayMaxMS = 0, 1000
			if hasBounds {
				lo, hi, ok := strings.Cut(bounds, "-")
				if !ok {
					return Profile{}, fmt.Errorf("faultnet: delay bounds %q want minms-maxms", bounds)
				}
				if p.DelayMinMS, err = strconv.ParseInt(lo, 10, 64); err != nil {
					return Profile{}, fmt.Errorf("faultnet: delay min %q: %w", lo, err)
				}
				if p.DelayMaxMS, err = strconv.ParseInt(hi, 10, 64); err != nil {
					return Profile{}, fmt.Errorf("faultnet: delay max %q: %w", hi, err)
				}
			}
		default:
			return Profile{}, fmt.Errorf("faultnet: unknown field %q (have drop, dup, delay)", key)
		}
	}
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// String renders the profile in ParseProfile's format, fields in a fixed
// order with zero fields omitted.
func (p Profile) String() string {
	var fields []string
	if p.Drop > 0 {
		fields = append(fields, "drop="+trimFloat(p.Drop))
	}
	if p.Dup > 0 {
		fields = append(fields, "dup="+trimFloat(p.Dup))
	}
	if p.Delay > 0 {
		fields = append(fields, fmt.Sprintf("delay=%s:%d-%d", trimFloat(p.Delay), p.DelayMinMS, p.DelayMaxMS))
	}
	sort.Strings(fields) // already ordered; keeps output canonical regardless
	return strings.Join(fields, ",")
}

func trimFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// gamma is 2^64/φ, the SplitMix64 increment; it also spreads link ids
// drawn from one seed across the state space (as in cdn's operatorSeed).
const gamma = 0x9E3779B97F4A7C15

// Stream is one deterministic fault-decision sequence: a SplitMix64
// generator seeded from (seed, id). Each link direction owns a Stream, so
// no link's schedule depends on any other link's traffic — the property
// that makes fault injection invariant under the pipeline's worker count.
type Stream struct {
	x uint64
}

// NewStream derives the (seed, id) stream.
func NewStream(seed, id uint64) *Stream {
	return &Stream{x: seed + (id+1)*gamma}
}

// Uint64 advances the stream (SplitMix64 output function).
func (s *Stream) Uint64() uint64 {
	s.x += gamma
	z := s.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 draws uniformly from [0,1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// IntN draws uniformly from [0,n); n must be positive.
func (s *Stream) IntN(n int64) int64 {
	if n <= 0 {
		panic("faultnet: IntN on non-positive n")
	}
	return int64(s.Uint64() % uint64(n))
}

// bernoulli draws a biased coin. Degenerate probabilities consume no
// stream state, so a zero profile never advances its streams: the
// fault path with an all-zero profile replays the fault-free schedule
// exactly.
func (s *Stream) bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// delayMS draws one delay decision: 0 when the datagram is not delayed.
func (s *Stream) delayMS(p Profile) int64 {
	if !s.bernoulli(p.Delay) {
		return 0
	}
	if p.DelayMaxMS <= p.DelayMinMS {
		return p.DelayMinMS
	}
	return p.DelayMinMS + s.IntN(p.DelayMaxMS-p.DelayMinMS+1)
}

// Retransmitter paces a client's retransmissions. Next returns the wait
// in virtual milliseconds after the upcoming transmission and whether a
// further transmission may follow it; ok=false means the returned wait is
// the final timeout, after which the client gives up (RFC 2131 §4.1's
// 64 s ceiling, RFC 8415 §15's MRC/MRD). internal/dhcp4, internal/dhcp6,
// and internal/radius provide the RFC implementations.
type Retransmitter interface {
	Next() (waitMS int64, ok bool)
}

// LinkStats are a link's lifetime fault-event totals, the raw material
// for the pipeline's fault counters. All fields are plain sums, so
// per-link stats aggregate commutatively into per-AS and per-run totals
// that are invariant under worker count.
type LinkStats struct {
	// Exchanges counts Exchange calls; Failed counts those where the
	// client gave up without a reply.
	Exchanges, Failed int64
	// Sends counts client transmissions; Retransmits is Sends minus
	// first transmissions.
	Sends, Retransmits int64
	// Delivered counts request copies that reached the server;
	// Duplicates counts the dup-injected extras among them.
	Delivered, Duplicates int64
	// RelayDrops counts datagrams (requests or replies) lost on a relay
	// hop rather than the access link itself.
	RelayDrops int64
}

// Add accumulates o into s.
func (s *LinkStats) Add(o LinkStats) {
	s.Exchanges += o.Exchanges
	s.Failed += o.Failed
	s.Sends += o.Sends
	s.Retransmits += o.Retransmits
	s.Delivered += o.Delivered
	s.Duplicates += o.Duplicates
	s.RelayDrops += o.RelayDrops
}

// Link is one client↔server path with independent per-direction fault
// streams plus a client-side stream for retransmission jitter and
// transaction identifiers. A relay topology (NewRelayLink) adds
// aggregation hops between the access link and the server, each with its
// own per-direction streams.
type Link struct {
	prof             Profile
	up, down, client *Stream
	stats            LinkStats

	// relayProf/relayUp/relayDown model the relay hops. Empty slices
	// (plain NewLink) consume no stream state, so a hop-free link
	// replays the original schedule exactly.
	relayProf          Profile
	relayUp, relayDown []*Stream
}

// NewLink builds the link for (seed, id). Distinct ids yield uncorrelated
// fault schedules from the same seed.
func NewLink(prof Profile, seed, id uint64) *Link {
	return &Link{
		prof:   prof,
		up:     NewStream(seed, 3*id),
		down:   NewStream(seed, 3*id+1),
		client: NewStream(seed, 3*id+2),
	}
}

// relayStreamBase offsets relay-hop stream ids away from the 3*id space
// NewLink draws from, so adding hops never shifts an access link's
// schedule.
const relayStreamBase = 1 << 62

// NewRelayLink builds a link whose datagrams additionally traverse hops
// relay hops (a DHCPv4 relay chain or DHCPv6 LDRA aggregation path)
// between the access link and the server. Each hop applies relayProf
// independently in both directions from its own (seed, id)-derived
// streams; the access link keeps the exact schedule NewLink(prof, seed,
// id) would produce. hops <= 0 yields a plain link.
func NewRelayLink(prof, relayProf Profile, seed, id uint64, hops int) *Link {
	l := NewLink(prof, seed, id)
	l.relayProf = relayProf
	for h := 0; h < hops; h++ {
		l.relayUp = append(l.relayUp, NewStream(seed, relayStreamBase+2*uint64(hops)*id+2*uint64(h)))
		l.relayDown = append(l.relayDown, NewStream(seed, relayStreamBase+2*uint64(hops)*id+2*uint64(h)+1))
	}
	return l
}

// crossRelay traverses the relay chain in one direction, returning the
// accumulated hop delay and whether the datagram survived every hop.
func (l *Link) crossRelay(streams []*Stream) (delayMS int64, ok bool) {
	for _, st := range streams {
		if st.bernoulli(l.relayProf.Drop) {
			l.stats.RelayDrops++
			return 0, false
		}
		delayMS += st.delayMS(l.relayProf)
	}
	return delayMS, true
}

// Client returns the link's client-side stream, the deterministic source
// for retransmission jitter and message identifiers.
func (l *Link) Client() *Stream { return l.client }

// Stats returns the link's accumulated fault-event totals.
func (l *Link) Stats() LinkStats { return l.stats }

// Verdict summarizes one simulated request/reply exchange.
type Verdict struct {
	// OK reports whether a reply reached the client before it gave up.
	OK bool
	// DoneMS is the virtual millisecond the winning reply arrived, or
	// the give-up time when OK is false.
	DoneMS int64
	// Sends counts client transmissions (first send plus retransmits).
	Sends int
	// Delivered counts request copies that reached the server,
	// duplicates included.
	Delivered int
}

// Exchange replays one request/reply exchange starting at virtual time
// nowMS: the client transmits, the uplink may drop/duplicate/delay each
// copy, every copy that survives is handed to deliver (the server's
// Handle — duplicate deliveries are how RADIUS duplicate detection gets
// exercised), and each reply independently crosses the downlink. The
// client accepts the earliest surviving reply and stops retransmitting;
// replies arriving after give-up are discarded, the late-reply dedup a
// client performs by transaction id. deliver may be nil when only the
// timing verdict matters.
func (l *Link) Exchange(nowMS int64, rt Retransmitter, deliver func(copy int)) Verdict {
	const never = int64(math.MaxInt64)
	v := Verdict{DoneMS: nowMS}
	t := nowMS
	best := never
	defer func() {
		l.stats.Exchanges++
		l.stats.Sends += int64(v.Sends)
		l.stats.Retransmits += int64(v.Sends - 1)
		l.stats.Delivered += int64(v.Delivered)
		if !v.OK {
			l.stats.Failed++
		}
	}()
	for {
		v.Sends++
		if !l.up.bernoulli(l.prof.Drop) {
			copies := 1
			if l.up.bernoulli(l.prof.Dup) {
				copies = 2
				l.stats.Duplicates++
			}
			for c := 0; c < copies; c++ {
				upDelay := l.up.delayMS(l.prof)
				relayUpDelay, survived := l.crossRelay(l.relayUp)
				if !survived {
					continue // request lost on a relay hop
				}
				if deliver != nil {
					deliver(c)
				}
				v.Delivered++
				relayDownDelay, survived := l.crossRelay(l.relayDown)
				if !survived {
					continue // reply lost on a relay hop
				}
				if l.down.bernoulli(l.prof.Drop) {
					continue // reply lost on the way back
				}
				if arrival := t + upDelay + relayUpDelay + relayDownDelay + l.down.delayMS(l.prof); arrival < best {
					best = arrival
				}
			}
		}
		wait, more := rt.Next()
		if best <= t+wait {
			v.OK = true
			v.DoneMS = best
			return v
		}
		t += wait
		if !more {
			v.DoneMS = t
			return v
		}
	}
}
