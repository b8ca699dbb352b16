package dynamips_test

import (
	"fmt"
	"log"
	"math"
	"net/netip"

	"dynamips"
	"dynamips/internal/core"
	"dynamips/internal/isp"
	"dynamips/internal/netutil"
	"dynamips/internal/reputation"
	"dynamips/internal/stats"
)

// Example_quickstart runs the whole DynamIPs pipeline for one ISP —
// simulate the AS, host a probe fleet on it, sanitize the IP-echo
// observations, and ask the paper's questions: how long do assignments
// last, is renumbering periodic, and what prefix length identifies a
// subscriber?
func Example_quickstart() {
	profile, ok := dynamips.ProfileByName("DTAG")
	if !ok {
		log.Fatal("built-in DTAG profile missing")
	}
	// Three simulated years of a 400-subscriber population.
	res, err := dynamips.SimulateAS(profile, 400, 3*8760, 42)
	if err != nil {
		log.Fatalf("simulating %s: %v", profile.Name, err)
	}
	fleet, err := dynamips.BuildFleet(res, 200, 43)
	if err != nil {
		log.Fatalf("building fleet: %v", err)
	}
	clean := dynamips.Sanitize(fleet.Series, fleet.BGP)
	pas := dynamips.Analyze(clean)
	fmt.Printf("%s (AS%d): %d probes survived sanitization (of %d)\n\n",
		profile.Name, profile.ASN, len(pas), len(fleet.Series))

	// Temporal: how long do assignments last?
	durations := core.CollectDurations(pas)[profile.ASN]
	nds, ds, v6 := core.DurationCurves(durations)
	fmt.Println("fraction of assignment time in durations <= 1 day / 1 month:")
	fmt.Printf("  IPv4 non-dual-stack: %.2f / %.2f\n",
		stats.FractionAtOrBelow(nds, 24), stats.FractionAtOrBelow(nds, 720))
	fmt.Printf("  IPv4 dual-stack:     %.2f / %.2f\n",
		stats.FractionAtOrBelow(ds, 24), stats.FractionAtOrBelow(ds, 720))
	fmt.Printf("  IPv6 /64:            %.2f / %.2f\n",
		stats.FractionAtOrBelow(v6, 24), stats.FractionAtOrBelow(v6, 720))

	// Is the renumbering periodic?
	for _, p := range core.DetectPeriodicRenumbering(core.CollectDurations(pas), 0.05, 0.3) {
		fmt.Printf("periodic renumbering (%s): every %g hours (%.0f%% of assignment time)\n",
			p.Population, p.Modes[0].Period, 100*p.Modes[0].Fraction)
	}

	// Spatial: what prefix identifies a subscriber, and where do
	// delegations live?
	perAS, _ := core.SubscriberLengths(pas)
	if h := perAS[profile.ASN]; h != nil {
		fmt.Printf("\ninferred subscriber prefix length: /%d (over %d probes with changes)\n",
			h.ArgMax(), h.N)
	}
	dists := core.UniquePrefixes(pas, fleet.BGP)
	if d := dists[profile.ASN]; d != nil {
		if pool, ok := core.InferPoolBoundary(d, 8); ok {
			fmt.Printf("inferred dynamic-pool boundary: /%d\n", pool)
		}
	}
	sim := core.MeasureSimultaneity(pas)[profile.ASN]
	if sim != nil && sim.V6Changes > 0 {
		fmt.Printf("IPv6 changes co-occurring with IPv4 changes: %.1f%%\n", 100*sim.Fraction())
	}
	// Output:
	// DTAG (AS3320): 165 probes survived sanitization (of 200)
	//
	// fraction of assignment time in durations <= 1 day / 1 month:
	//   IPv4 non-dual-stack: 0.91 / 0.92
	//   IPv4 dual-stack:     0.64 / 0.67
	//   IPv6 /64:            0.68 / 0.75
	// periodic renumbering (v4-nds): every 24 hours (91% of assignment time)
	// periodic renumbering (v4-ds): every 24 hours (64% of assignment time)
	// periodic renumbering (v6): every 24 hours (68% of assignment time)
	//
	// inferred subscriber prefix length: /56 (over 101 probes with changes)
	// inferred dynamic-pool boundary: /40
	// IPv6 changes co-occurring with IPv4 changes: 97.7%
}

// Example_hitlist is the paper's active-probing application (§6). A
// measurement target with a stable EUI-64 interface identifier disappears
// from a hitlist when its ISP renumbers the delegated prefix. Knowing the
// AS's spatial structure — the dynamic-pool boundary (§5.2) and the
// per-subscriber delegation length (§5.3) — shrinks the rescan space from
// the whole BGP announcement to a tractable set of candidate prefixes.
//
// The example simulates an ISP, learns the structure from a probe fleet,
// then "loses" a set of target devices to renumbering and quantifies the
// search-space reduction while verifying that the reduced space still
// contains every target.
func Example_hitlist() {
	profile, ok := dynamips.ProfileByName("DTAG")
	if !ok {
		log.Fatal("built-in DTAG profile missing")
	}
	res, err := dynamips.SimulateAS(profile, 500, 2*8760, 7)
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}

	// Learn the AS's addressing structure from a probe fleet, exactly as
	// a measurement team would from public Atlas data.
	fleet, err := dynamips.BuildFleet(res, 250, 8)
	if err != nil {
		log.Fatalf("fleet: %v", err)
	}
	pas := dynamips.Analyze(dynamips.Sanitize(fleet.Series, fleet.BGP))
	dists := core.UniquePrefixes(pas, fleet.BGP)[profile.ASN]
	pool, ok := core.InferPoolBoundary(dists, 8)
	if !ok {
		log.Fatal("could not infer a pool boundary")
	}
	perAS, _ := core.SubscriberLengths(pas)
	subLen := perAS[profile.ASN].ArgMax()
	fmt.Printf("learned structure for %s: pool boundary /%d, subscriber delegation /%d\n\n",
		profile.Name, pool, subLen)

	// Every assignment change is a lost target: the device's /64 moved.
	// A core.ScanPlan built from the old prefix and the learned
	// structure defines the rescan space (delegation-aligned /64s for
	// zeroing CPEs; the full per-delegation scan for scramblers).
	var changes, found int
	var planSize uint64
	for _, sub := range res.Subscribers {
		for i := 1; i < len(sub.V6); i++ {
			oldLAN, newLAN := sub.V6[i-1].LAN, sub.V6[i].LAN
			changes++
			plan, err := core.NewScanPlan(oldLAN, pool, subLen, !sub.Scramble)
			if err != nil {
				log.Fatalf("scan plan: %v", err)
			}
			planSize = plan.Size()
			if plan.Contains(newLAN) {
				found++
			}
		}
	}
	if changes == 0 {
		log.Fatal("no renumbered targets in simulation")
	}
	var examplePlan core.ScanPlan
	for _, sub := range res.Subscribers {
		if len(sub.V6) > 0 {
			examplePlan, _ = core.NewScanPlan(sub.V6[0].LAN, pool, subLen, true)
			break
		}
	}
	fmt.Printf("assignment changes (lost targets):   %d\n", changes)
	fmt.Printf("recovered inside learned /%d plan:   %d (%.1f%%)\n", pool, found,
		100*float64(found)/float64(changes))
	fmt.Printf("aligned plan size:                   2^%.0f candidate prefixes\n", math.Log2(float64(examplePlan.Size())))
	fmt.Printf("last plan size (may be unaligned):   2^%.0f\n", math.Log2(float64(planSize)))
	fmt.Printf("search-space reduction vs BGP scan:  %.0fx\n", examplePlan.ReductionVsBGP(profile.BGP6))
	fmt.Println("\n(the paper: \"the search space is reduced from the scope of the BGP")
	fmt.Println(" announcement ... down to 2^(64-40) networks\" — §5.2)")
	// Output:
	// learned structure for DTAG: pool boundary /40, subscriber delegation /56
	//
	// assignment changes (lost targets):   133968
	// recovered inside learned /40 plan:   133022 (99.3%)
	// aligned plan size:                   2^16 candidate prefixes
	// last plan size (may be unaligned):   2^24
	// search-space reduction vs BGP scan:  536870912x
	//
	// (the paper: "the search space is reduced from the scope of the BGP
	//  announcement ... down to 2^(64-40) networks" — §5.2)
}

// Example_anonymize is the paper's privacy application (§6). Sharing IPv6
// datasets often "anonymizes" addresses by truncating them to a fixed
// prefix — Google Analytics masks to /48. The paper shows this is
// fallacious: Netcologne delegates entire /48s to individual subscribers,
// so a /48-truncated record still identifies one household.
//
// The example measures, against simulation ground truth, how many
// truncated prefixes still isolate a single subscriber under (a) the
// naive global /48 policy and (b) a per-AS policy derived from the
// inferred subscriber boundary (truncate strictly above it so each
// released prefix aggregates many subscribers).
func Example_anonymize() {
	fmt.Println("anonymization by truncation: does the released prefix still identify a household?")
	fmt.Println()
	for _, name := range []string{"Netcologne", "DTAG", "Kabel DE"} {
		anonymizeReport(name)
	}
	fmt.Println("(the paper: a /48 boundary \"would consist of a single subscriber in the")
	fmt.Println(" case of Netcologne!\" — §5.3)")
	// Output:
	// anonymization by truncation: does the released prefix still identify a household?
	//
	// Netcologne inferred subscriber boundary /48
	//            naive /48 truncation:   381 of  381 released prefixes identify ONE subscriber (100%)
	//            boundary-aware /32:       0 of    3 released prefixes identify one subscriber (0%)
	//
	// DTAG       inferred subscriber boundary /56
	//            naive /48 truncation:   281 of  281 released prefixes identify ONE subscriber (100%)
	//            boundary-aware /40:       0 of    8 released prefixes identify one subscriber (0%)
	//
	// Kabel DE   inferred subscriber boundary /62
	//            naive /48 truncation:     0 of   40 released prefixes identify ONE subscriber (0%)
	//            boundary-aware /54:     235 of  235 released prefixes identify one subscriber (100%)
	//
	// (the paper: a /48 boundary "would consist of a single subscriber in the
	//  case of Netcologne!" — §5.3)
}

// kAnonymity measures instantaneous re-identifiability: at a snapshot
// hour, each subscriber's current LAN /64 is truncated to the given
// length; a released prefix that covers exactly one concurrent subscriber
// still identifies a household. It returns the singleton count and the
// number of released prefixes.
func kAnonymity(res *isp.Result, truncate int, at int64) (singletons, prefixes int) {
	subsPer := make(map[netip.Prefix]int)
	for _, sub := range res.Subscribers {
		var cur netip.Prefix
		for _, st := range sub.V6 {
			if st.Start > at {
				break
			}
			cur = st.LAN
		}
		if !cur.IsValid() {
			continue
		}
		subsPer[netutil.PrefixAt(cur.Addr(), truncate)]++
	}
	for _, n := range subsPer {
		if n == 1 {
			singletons++
		}
	}
	return singletons, len(subsPer)
}

func anonymizeReport(name string) {
	profile, ok := dynamips.ProfileByName(name)
	if !ok {
		log.Fatalf("missing profile %s", name)
	}
	res, err := dynamips.SimulateAS(profile, 400, 8760, 21)
	if err != nil {
		log.Fatalf("simulate %s: %v", name, err)
	}
	fleet, err := dynamips.BuildFleet(res, 200, 22)
	if err != nil {
		log.Fatalf("fleet %s: %v", name, err)
	}
	pas := dynamips.Analyze(dynamips.Sanitize(fleet.Series, fleet.BGP))
	perAS, _ := core.SubscriberLengths(pas)
	h := perAS[profile.ASN]
	if h == nil || h.N == 0 {
		log.Fatalf("no subscriber-length inference for %s", name)
	}
	subscriberLen := h.ArgMax()
	// Releasing just above the subscriber boundary is not enough when
	// pools are sparsely occupied; aggregate to the inferred dynamic
	// pool, where the data shows many subscribers actually live. This
	// is the paper's "per-network approach to obfuscating IPv6
	// datasets" (§6).
	safeLen := subscriberLen - 8
	if dists := core.UniquePrefixes(pas, fleet.BGP)[profile.ASN]; dists != nil {
		if pool, ok := core.InferPoolBoundary(dists, 4); ok && pool < safeLen {
			safeLen = pool
		}
	}
	if safeLen < profile.BGP6.Bits() {
		safeLen = profile.BGP6.Bits()
	}

	at := res.Hours / 2
	s48, p48 := kAnonymity(res, 48, at)
	sSafe, pSafe := kAnonymity(res, safeLen, at)
	fmt.Printf("%-10s inferred subscriber boundary /%d\n", name, subscriberLen)
	fmt.Printf("           naive /48 truncation:  %4d of %4d released prefixes identify ONE subscriber (%.0f%%)\n",
		s48, p48, pct(s48, p48))
	fmt.Printf("           boundary-aware /%d:    %4d of %4d released prefixes identify one subscriber (%.0f%%)\n\n",
		safeLen, sSafe, pSafe, pct(sSafe, pSafe))
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Example_doublecount is the paper's tracking application (§2.3, §6).
// Systems that estimate user populations from observed IP identifiers —
// botnet size estimates, peer-to-peer host counts, open-resolver censuses
// — double-count every subscriber whose address changed inside the
// counting window, and once more when the subscriber is seen over both
// IPv4 and IPv6. The per-AS duration analysis tells you how big that
// error is for a given window.
//
// The example counts distinct identifiers over growing windows against
// the simulation's known subscriber population and reports the overcount
// factor per AS.
func Example_doublecount() {
	windows := []struct {
		label string
		hours int64
	}{
		{"1d", 24}, {"1w", 168}, {"1m", 720}, {"3m", 2160},
	}
	fmt.Println("overcount factor: distinct identifiers / true active subscribers")
	fmt.Printf("%-10s %8s %10s %10s %10s\n", "AS", "window", "v4-only", "v6 /64s", "naive v4+v6")
	for _, name := range []string{"DTAG", "Comcast", "Netcologne"} {
		profile, ok := dynamips.ProfileByName(name)
		if !ok {
			log.Fatalf("missing profile %s", name)
		}
		res, err := dynamips.SimulateAS(profile, 300, 8760, 31)
		if err != nil {
			log.Fatalf("simulate %s: %v", name, err)
		}
		for _, w := range windows {
			v4, v64, naive, truth := countWindow(res, 2000, w.hours)
			if truth == 0 {
				continue
			}
			fmt.Printf("%-10s %8s %9.2fx %9.2fx %9.2fx\n", name, w.label,
				float64(v4)/float64(truth), float64(v64)/float64(truth), float64(naive)/float64(truth))
		}
	}
	fmt.Println("\n(a 24h-renumbering ISP doubles a one-week census; dual-stack naive")
	fmt.Println(" counting adds another factor of ~2 — §2.3's double-counting warning)")
	// Output:
	// overcount factor: distinct identifiers / true active subscribers
	// AS           window    v4-only    v6 /64s naive v4+v6
	// DTAG             1d      1.15x      0.82x      1.97x
	// DTAG             1w      1.39x      1.37x      2.76x
	// DTAG             1m      1.59x      3.27x      4.86x
	// DTAG             3m      1.73x      8.02x      9.76x
	// Comcast          1d      1.00x      0.68x      1.68x
	// Comcast          1w      1.03x      0.70x      1.73x
	// Comcast          1m      1.06x      0.72x      1.78x
	// Comcast          3m      1.13x      0.74x      1.87x
	// Netcologne       1d      1.12x      0.97x      2.09x
	// Netcologne       1w      1.19x      0.99x      2.18x
	// Netcologne       1m      1.23x      1.03x      2.26x
	// Netcologne       3m      1.28x      1.04x      2.33x
	//
	// (a 24h-renumbering ISP doubles a one-week census; dual-stack naive
	//  counting adds another factor of ~2 — §2.3's double-counting warning)
}

// countWindow returns distinct IPv4 addresses, distinct IPv6 /64s, and
// the naive dual-stack total over [start, start+window), plus the true
// number of active subscribers.
func countWindow(res *isp.Result, start, window int64) (v4, v64, naive, truth int) {
	seen4 := map[netip.Addr]bool{}
	seen6 := map[netip.Prefix]bool{}
	end := start + window
	for _, sub := range res.Subscribers {
		active := false
		for i, st := range sub.V4 {
			stEnd := res.Hours
			if i+1 < len(sub.V4) {
				stEnd = sub.V4[i+1].Start
			}
			if st.Start < end && stEnd > start {
				seen4[st.Addr] = true
				active = true
			}
		}
		for i, st := range sub.V6 {
			stEnd := res.Hours
			if i+1 < len(sub.V6) {
				stEnd = sub.V6[i+1].Start
			}
			if st.Start < end && stEnd > start {
				seen6[st.LAN] = true
			}
		}
		if active {
			truth++
		}
	}
	return len(seen4), len(seen6), len(seen4) + len(seen6), truth
}

// Example_reputation is the paper's host-reputation application (§6): a
// blocklist TTL advisor. An address observed misbehaving is blocklisted;
// the entry is useful while the offender still holds the address and
// collateral damage once the ISP reassigns it to an innocent subscriber.
// internal/reputation derives per-AS advice from the duration analysis
// (how long to block) and the subscriber-boundary inference (what to
// block in IPv6); the example prints the advice and replays blocklist
// decisions against the simulation's ground truth to measure the
// effective/collateral split.
func Example_reputation() {
	fmt.Println("blocklist advice (residual-assignment risk 50%):")
	for _, n := range []string{"Comcast", "DTAG", "Netcologne"} {
		advise(n, 0.5)
	}
	// Output:
	// blocklist advice (residual-assignment risk 50%):
	// Comcast    block IPv6 at /60, TTL <= 4608h keeps residual-assignment risk under 50%
	//            TTL    24h:  99.5% of blocked time on the offender,  0.5% collateral
	//            TTL   168h:  99.4% of blocked time on the offender,  0.6% collateral
	//            TTL   720h:  97.6% of blocked time on the offender,  2.4% collateral
	//            exported block set: [67.180.0.0/32 2601:0:2800::/60]
	//
	// DTAG       block IPv6 at /56, TTL <= 24h keeps residual-assignment risk under 50%
	//            TTL    24h:  99.1% of blocked time on the offender,  0.9% collateral
	//            TTL   168h:  55.6% of blocked time on the offender, 44.4% collateral
	//            TTL   720h:  44.8% of blocked time on the offender, 55.2% collateral
	//            exported block set: [87.168.0.0/32 2003:a0::/56]
	//
	// Netcologne block IPv6 at /48, TTL <= 24h keeps residual-assignment risk under 50%
	//            TTL    24h:  98.6% of blocked time on the offender,  1.4% collateral
	//            TTL   168h:  29.3% of blocked time on the offender, 70.7% collateral
	//            TTL   720h:  18.1% of blocked time on the offender, 81.9% collateral
	//            exported block set: [87.79.64.0/32 2001:4dd1::/48]
}

func advise(name string, residual float64) {
	profile, ok := dynamips.ProfileByName(name)
	if !ok {
		log.Fatalf("missing profile %s", name)
	}
	res, err := dynamips.SimulateAS(profile, 300, 2*8760, 11)
	if err != nil {
		log.Fatalf("simulate %s: %v", name, err)
	}
	fleet, err := dynamips.BuildFleet(res, 150, 12)
	if err != nil {
		log.Fatalf("fleet %s: %v", name, err)
	}
	pas := dynamips.Analyze(dynamips.Sanitize(fleet.Series, fleet.BGP))
	adv, err := reputation.Advise(profile.ASN, pas, residual)
	if err != nil {
		log.Fatalf("advise %s: %v", name, err)
	}
	fmt.Printf("%-10s block IPv6 at /%d, TTL <= %.0fh keeps residual-assignment risk under %.0f%%\n",
		name, adv.BlockLen6, adv.TTLHours, 100*residual)

	// Replay against ground truth for several TTL choices.
	for _, ttl := range []int64{24, 168, 720} {
		eff, col := replay(res, ttl)
		fmt.Printf("           TTL %5dh: %5.1f%% of blocked time on the offender, %4.1f%% collateral\n",
			ttl, 100*eff, 100*col)
	}

	// Demonstrate the blocklist itself: block a misbehaving dual-stack
	// subscriber over both families and export the coalesced set.
	b := reputation.NewBlocklist(adv)
	for _, sub := range res.Subscribers {
		if len(sub.V6) > 0 && len(sub.V4) > 0 {
			b.BlockV4(sub.V4[0].Addr, profile.ASN, 0)
			b.BlockV6(sub.V6[0].LAN.Addr(), profile.ASN, 0)
			break
		}
	}
	fmt.Printf("           exported block set: %v\n\n", b.Export())
}

// replay blocks each dual-stack subscriber's mid-history IPv4 address for
// ttl hours and splits the blocked time into offender vs collateral using
// ground truth.
func replay(res *isp.Result, ttl int64) (effective, collateral float64) {
	var onOffender, onOthers int64
	for _, sub := range res.Subscribers {
		if !sub.DualStack || len(sub.V4) < 2 {
			continue
		}
		i := len(sub.V4) / 2
		start := sub.V4[i].Start
		end := start + ttl
		hold := res.Hours
		if i+1 < len(sub.V4) {
			hold = sub.V4[i+1].Start
		}
		if hold > end {
			hold = end
		}
		onOffender += hold - start
		onOthers += end - hold
	}
	total := onOffender + onOthers
	if total == 0 {
		return 0, 0
	}
	return float64(onOffender) / float64(total), float64(onOthers) / float64(total)
}
