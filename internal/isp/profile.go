// Package isp simulates ISP address-assignment practice: regional address
// pools behind DHCPv4/DHCPv6-PD/RADIUS machinery, periodic renumbering,
// outage-driven churn, CPE prefix behaviors, and dual-stack coupling.
//
// The RIPE Atlas and CDN datasets the paper analyzes are unavailable
// offline; this package is the substitution (see DESIGN.md): it encodes the
// paper's published per-AS findings as generative ground truth, so the
// analysis pipeline (internal/core) runs on data with the same dynamics and
// its inferences can be checked against what the generator actually did.
package isp

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
)

// Backend labels a profile's IPv4 assignment style. It is descriptive:
// the simulator runs every profile's IPv4 on RADIUS sessions, and the
// stability a sticky DHCP server would give lives in the profile's
// class duration models. `dynamips profiles` prints the label, and
// RemoteProfile picks its classes by it.
type Backend int

// Assignment backends.
const (
	// BackendRADIUS labels session-based assignment, where every
	// session draws a fresh address (Orange, DTAG and most European DSL
	// profiles).
	BackendRADIUS Backend = iota
	// BackendDHCP labels sticky DHCP servers that re-offer the same
	// address to returning clients (typical US cable profiles).
	BackendDHCP
)

// DurationModel generates inter-change intervals for one address family.
// Periodic and exponential components may be combined; the shorter draw
// wins. A model with neither component never fires (static assignment).
type DurationModel struct {
	// PeriodHours is a deterministic renumbering period (24 for DTAG,
	// 168 for Orange, 336 for BT, …). 0 disables.
	PeriodHours float64
	// JitterHours spreads the period uniformly by ±J.
	JitterHours float64
	// MeanHours is the mean of an exponential inter-change time for
	// irregular (outage-like) changes. 0 disables.
	MeanHours float64
}

// Next draws the hours until the next change, or +Inf for a static model.
// The result is at least 1 (the echo dataset's hourly granularity).
func (m DurationModel) Next(rng *rand.Rand) float64 {
	next := math.Inf(1)
	if m.PeriodHours > 0 {
		p := m.PeriodHours
		if m.JitterHours > 0 {
			p += (rng.Float64()*2 - 1) * m.JitterHours
		}
		next = math.Min(next, p)
	}
	if m.MeanHours > 0 {
		next = math.Min(next, rng.ExpFloat64()*m.MeanHours)
	}
	if next < 1 {
		next = 1
	}
	return next
}

// Static reports whether the model never fires.
func (m DurationModel) Static() bool { return m.PeriodHours <= 0 && m.MeanHours <= 0 }

// Class is one behavior class of subscribers within an AS.
type Class struct {
	// Weight is the class's share of its population (normalized over
	// the class list it appears in).
	Weight float64
	// V4 models IPv4 address changes.
	V4 DurationModel
	// V6 models IPv6 delegated-prefix changes (ignored for
	// non-dual-stack subscribers).
	V6 DurationModel
	// Coupled makes IPv4 and IPv6 change together, driven by the V4
	// model (DTAG: 90.6% of changes co-occur, §3.2).
	Coupled bool
}

// PolicyShift is a mid-horizon change of assignment policy.
type PolicyShift struct {
	// AtHour is when the new policy takes effect.
	AtHour int64
	// DSAfter and NDSAfter replace the DS/NDS class lists; nil keeps
	// the original list for that population.
	DSAfter  []Class
	NDSAfter []Class
}

// Profile is the ground-truth description of one AS's assignment practice.
type Profile struct {
	Name    string
	ASN     uint32
	Country string

	// BGP4 lists the announced IPv4 prefixes; v4 pools are carved from
	// them per region. BGP6 is the v6 aggregate (e.g. DTAG's 2003::/19);
	// BGP6Extra adds further announced v6 prefixes for ISPs whose
	// subscribers hop across routed prefixes (Table 2's Free SAS).
	BGP4      []netip.Prefix
	BGP6      netip.Prefix
	BGP6Extra []netip.Prefix

	// Regions is the number of regional pool groups (BRAS/DHCP areas).
	Regions int
	// PoolLen4 is the per-(region, BGP prefix) IPv4 pool length; it
	// controls how often successive assignments stay in the same /24
	// (Table 2's "Diff /24").
	PoolLen4 int
	// PoolLen6 is the per-region IPv6 pool length (§5.2 finds /40 to be
	// a common dynamic-pool size).
	PoolLen6 int
	// DelegatedLen is the prefix length delegated to each CPE
	// (RIPE-690 recommends /56; Netcologne /48; Kabel DE CPEs /62).
	DelegatedLen int

	// CrossBGP4Frac is the probability that an IPv4 change lands in a
	// different announced BGP prefix (Table 2 "Diff BGP (v4)").
	CrossBGP4Frac float64
	// CrossPool6Frac is the probability that an IPv6 change draws from a
	// different regional pool; within BGP6 unless CrossBGP6Frac fires.
	CrossPool6Frac float64
	// CrossBGP6Frac is the probability that such a jump leaves the main
	// aggregate for one of BGP6Extra (Table 2 "Diff BGP (v6)").
	CrossBGP6Frac float64
	// CrossCPL positions the regional pools inside BGP6 so that a
	// cross-pool jump shares about this many leading bits with the
	// previous assignment (the low-CPL secondary mode of Fig. 5 — e.g.
	// BT's 28–32 mode). Zero picks PoolLen6-16, floored at the
	// aggregate length.
	CrossCPL int

	// Backend labels the IPv4 assignment style; the simulator does not
	// read it (see Backend).
	Backend Backend
	// LeaseHours is the DHCP lease / RADIUS session-timeout horizon in
	// hours, bounded below by 1.
	LeaseHours uint32

	// DualStackFrac is the fraction of subscribers with IPv6.
	DualStackFrac float64
	// StaticFrac is the fraction of subscribers with effectively static
	// assignments (the 45% of probes that never changed, §3.1).
	StaticFrac float64

	// DS and NDS are the behavior classes for dual-stack and
	// non-dual-stack subscribers.
	DS  []Class
	NDS []Class

	// ScrambleFrac is the fraction of dual-stack CPEs that randomize the
	// bits between the delegated length and /64 of the LAN prefix they
	// announce, and re-randomize them periodically without any ISP-side
	// change (a feature of many DTAG CPE devices, §5.2 fn. 5); the rest
	// announce the delegation's lowest /64. ScrambleMeanHours is the
	// re-scramble cadence.
	ScrambleFrac      float64
	ScrambleMeanHours float64

	// AdminRenumberAtHours schedules administrative renumbering events
	// (§2.2: "network restructuring, IP address acquisitions/losses
	// during mergers, and changes in address pools"): at each hour,
	// every region's delegation server renumbers and every non-static
	// subscriber moves to a fresh prefix drawn from virgin pool space.
	AdminRenumberAtHours []int64

	// InfraOutageMeanHours, when positive, schedules exponential
	// ISP-side outages per region: the region's assignment servers lose
	// state (§2.2 "Changes due to outages") and every non-static
	// subscriber in the region draws fresh assignments in the same
	// hour — the correlated-change signature of infrastructure failures.
	// The built-in profiles leave this at 0 because their exponential
	// class models already absorb outage-driven churn statistically.
	InfraOutageMeanHours float64

	// Shift models a policy change during the horizon: §3.2's
	// "Evolution over time" finds assignment durations lengthening over
	// the years, especially in DTAG and Orange. After Shift.AtHour,
	// subscribers re-draw their behavior class from the After lists at
	// their next change. Nil keeps policy stationary.
	Shift *PolicyShift
}

// Validate checks a profile for internal consistency.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("isp: profile without name")
	case p.ASN == 0:
		return fmt.Errorf("isp: profile %s: zero ASN", p.Name)
	case len(p.BGP4) == 0:
		return fmt.Errorf("isp: profile %s: no BGP4 prefixes", p.Name)
	case !p.BGP6.IsValid():
		return fmt.Errorf("isp: profile %s: no BGP6 aggregate", p.Name)
	case p.Regions <= 0:
		return fmt.Errorf("isp: profile %s: no regions", p.Name)
	case p.PoolLen6 < p.BGP6.Bits() || p.PoolLen6 > p.DelegatedLen:
		return fmt.Errorf("isp: profile %s: pool /%d incompatible with aggregate %v and delegation /%d",
			p.Name, p.PoolLen6, p.BGP6, p.DelegatedLen)
	case p.DelegatedLen > 64:
		return fmt.Errorf("isp: profile %s: delegation /%d longer than /64", p.Name, p.DelegatedLen)
	case len(p.DS) == 0 && p.DualStackFrac > 0:
		return fmt.Errorf("isp: profile %s: dual-stack fraction without DS classes", p.Name)
	case len(p.NDS) == 0 && p.DualStackFrac < 1:
		return fmt.Errorf("isp: profile %s: non-dual-stack population without NDS classes", p.Name)
	}
	for _, b := range p.BGP4 {
		if p.PoolLen4 < b.Bits() || p.PoolLen4 > 30 {
			return fmt.Errorf("isp: profile %s: v4 pool /%d incompatible with %v", p.Name, p.PoolLen4, b)
		}
	}
	if p.CrossCPL != 0 && (p.CrossCPL < p.BGP6.Bits() || p.CrossCPL >= p.PoolLen6) {
		return fmt.Errorf("isp: profile %s: CrossCPL /%d outside [%d, %d)",
			p.Name, p.CrossCPL, p.BGP6.Bits(), p.PoolLen6)
	}
	return nil
}

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// Profiles returns the built-in ground-truth profiles for the ASes the
// paper reports on (Table 1 plus Sky UK from Fig. 6). The duration models
// encode the paper's measured findings: modes at 24 h (DTAG, Versatel,
// Netcologne), 36 h (Proximus), 1 week (Orange), 2 weeks (BT); long
// dual-stack durations; coupling where the paper found simultaneous
// changes.
func Profiles() []Profile {
	return []Profile{
		{
			Name: "DTAG", ASN: 3320, Country: "DE",
			BGP4:    []netip.Prefix{pfx("79.192.0.0/10"), pfx("87.128.0.0/10"), pfx("91.0.0.0/10"), pfx("217.80.0.0/12")},
			BGP6:    pfx("2003::/19"),
			Regions: 8, PoolLen4: 20, PoolLen6: 40, DelegatedLen: 56,
			CrossBGP4Frac: 0.27, CrossPool6Frac: 0.008, CrossCPL: 24,
			Backend: BackendRADIUS, LeaseHours: 24,
			DualStackFrac: 0.68, StaticFrac: 0.02,
			DS: []Class{
				{Weight: 0.50, V4: DurationModel{PeriodHours: 24, JitterHours: 1}, V6: DurationModel{}, Coupled: true},
				{Weight: 0.50, V4: DurationModel{MeanHours: 2200}, V6: DurationModel{MeanHours: 4000}},
			},
			NDS: []Class{
				{Weight: 0.9, V4: DurationModel{PeriodHours: 24, JitterHours: 1}},
				{Weight: 0.1, V4: DurationModel{MeanHours: 1500}},
			},
			ScrambleFrac: 0.25, ScrambleMeanHours: 700,
			// §3.2 "Evolution over time": DTAG's durations lengthen in
			// the later years as more subscribers leave the 24 h cycle.
			Shift: &PolicyShift{
				AtHour: 26280,
				DSAfter: []Class{
					{Weight: 0.35, V4: DurationModel{PeriodHours: 24, JitterHours: 1}, V6: DurationModel{}, Coupled: true},
					{Weight: 0.65, V4: DurationModel{MeanHours: 3200}, V6: DurationModel{MeanHours: 5200}},
				},
				NDSAfter: []Class{
					{Weight: 0.72, V4: DurationModel{PeriodHours: 24, JitterHours: 1}},
					{Weight: 0.28, V4: DurationModel{MeanHours: 2600}},
				},
			},
		},
		{
			Name: "Comcast", ASN: 7922, Country: "US",
			BGP4:      []netip.Prefix{pfx("24.0.0.0/12"), pfx("67.160.0.0/11"), pfx("73.0.0.0/8"), pfx("98.192.0.0/10")},
			BGP6:      pfx("2601::/20"),
			BGP6Extra: []netip.Prefix{pfx("2603:3000::/24")},
			Regions:   8, PoolLen4: 23, PoolLen6: 40, DelegatedLen: 60,
			CrossBGP4Frac: 0.43, CrossPool6Frac: 0.12, CrossBGP6Frac: 0.8, CrossCPL: 34,
			Backend: BackendDHCP, LeaseHours: 96,
			DualStackFrac: 0.68, StaticFrac: 0.05,
			DS: []Class{
				{Weight: 1, V4: DurationModel{MeanHours: 9000}, V6: DurationModel{MeanHours: 5000}},
			},
			NDS: []Class{
				{Weight: 1, V4: DurationModel{MeanHours: 7000}},
			},
		},
		{
			Name: "Orange", ASN: 3215, Country: "FR",
			BGP4:      []netip.Prefix{pfx("90.0.0.0/9"), pfx("86.192.0.0/11"), pfx("92.128.0.0/10"), pfx("176.128.0.0/10")},
			BGP6:      pfx("2a01:c000::/19"),
			BGP6Extra: []netip.Prefix{pfx("2a01:9000::/20")},
			Regions:   8, PoolLen4: 18, PoolLen6: 40, DelegatedLen: 56,
			CrossBGP4Frac: 0.60, CrossPool6Frac: 0.03, CrossBGP6Frac: 0.7, CrossCPL: 36,
			Backend: BackendRADIUS, LeaseHours: 168,
			DualStackFrac: 0.55, StaticFrac: 0.03,
			DS: []Class{
				{Weight: 1, V4: DurationModel{MeanHours: 2600}, V6: DurationModel{MeanHours: 16000}},
			},
			NDS: []Class{
				{Weight: 0.92, V4: DurationModel{PeriodHours: 168, JitterHours: 2}},
				{Weight: 0.08, V4: DurationModel{MeanHours: 3000}},
			},
			// Orange also drifts toward longer durations (§3.2).
			Shift: &PolicyShift{
				AtHour: 26280,
				NDSAfter: []Class{
					{Weight: 0.7, V4: DurationModel{PeriodHours: 168, JitterHours: 2}},
					{Weight: 0.3, V4: DurationModel{MeanHours: 4500}},
				},
			},
		},
		{
			Name: "LGI", ASN: 6830, Country: "EU",
			BGP4:      []netip.Prefix{pfx("80.56.0.0/14"), pfx("84.104.0.0/14"), pfx("62.140.0.0/15"), pfx("94.208.0.0/12")},
			BGP6:      pfx("2001:4c40::/22"),
			BGP6Extra: []netip.Prefix{pfx("2a02:5800::/21")},
			Regions:   6, PoolLen4: 23, PoolLen6: 44, DelegatedLen: 60,
			CrossBGP4Frac: 0.14, CrossPool6Frac: 0.04, CrossBGP6Frac: 0.5, CrossCPL: 36,
			Backend: BackendDHCP, LeaseHours: 48,
			DualStackFrac: 0.32, StaticFrac: 0.04,
			DS: []Class{
				{Weight: 1, V4: DurationModel{MeanHours: 650}, V6: DurationModel{MeanHours: 12000}},
			},
			NDS: []Class{
				{Weight: 1, V4: DurationModel{MeanHours: 1500}},
			},
		},
		{
			Name: "Free SAS", ASN: 12322, Country: "FR",
			BGP4:      []netip.Prefix{pfx("78.192.0.0/10"), pfx("82.224.0.0/11")},
			BGP6:      pfx("2a01:e000::/26"),
			BGP6Extra: []netip.Prefix{pfx("2a01:e400::/26")},
			Regions:   4, PoolLen4: 19, PoolLen6: 40, DelegatedLen: 60,
			CrossBGP4Frac: 0.72, CrossPool6Frac: 0.5, CrossBGP6Frac: 0.85, CrossCPL: 30,
			Backend: BackendRADIUS, LeaseHours: 168,
			DualStackFrac: 0.65, StaticFrac: 0.25,
			DS: []Class{
				{Weight: 1, V4: DurationModel{MeanHours: 9000}, V6: DurationModel{MeanHours: 42000}},
			},
			NDS: []Class{
				{Weight: 1, V4: DurationModel{MeanHours: 8000}},
			},
		},
		{
			Name: "Kabel DE", ASN: 31334, Country: "DE",
			BGP4:      []netip.Prefix{pfx("95.112.0.0/13"), pfx("188.192.0.0/11")},
			BGP6:      pfx("2a02:8100::/21"),
			BGP6Extra: []netip.Prefix{pfx("2a02:908::/29")},
			Regions:   5, PoolLen4: 20, PoolLen6: 42, DelegatedLen: 62,
			CrossBGP4Frac: 0.60, CrossPool6Frac: 0.07, CrossBGP6Frac: 0.7, CrossCPL: 30,
			Backend: BackendDHCP, LeaseHours: 72,
			DualStackFrac: 0.55, StaticFrac: 0.05,
			DS: []Class{
				{Weight: 1, V4: DurationModel{MeanHours: 4200}, V6: DurationModel{MeanHours: 15000}},
			},
			NDS: []Class{
				{Weight: 1, V4: DurationModel{MeanHours: 3500}},
			},
		},
		{
			Name: "Proximus", ASN: 5432, Country: "BE",
			BGP4:    []netip.Prefix{pfx("81.240.0.0/13"), pfx("91.176.0.0/13"), pfx("109.128.0.0/13")},
			BGP6:    pfx("2a02:a000::/21"),
			Regions: 5, PoolLen4: 19, PoolLen6: 40, DelegatedLen: 56,
			CrossBGP4Frac: 0.56, CrossPool6Frac: 0.008, CrossCPL: 32,
			Backend: BackendRADIUS, LeaseHours: 36,
			DualStackFrac: 0.56, StaticFrac: 0.03,
			DS: []Class{
				{Weight: 0.45, V4: DurationModel{PeriodHours: 36, JitterHours: 2}, V6: DurationModel{}, Coupled: true},
				{Weight: 0.55, V4: DurationModel{MeanHours: 2800}, V6: DurationModel{MeanHours: 4500}},
			},
			NDS: []Class{
				{Weight: 0.85, V4: DurationModel{PeriodHours: 36, JitterHours: 2}},
				{Weight: 0.15, V4: DurationModel{MeanHours: 2500}},
			},
		},
		{
			Name: "Versatel", ASN: 8881, Country: "DE",
			BGP4:      []netip.Prefix{pfx("84.128.0.0/11"), pfx("89.244.0.0/14")},
			BGP6:      pfx("2001:16b8::/32"),
			BGP6Extra: []netip.Prefix{pfx("2001:1438::/32")},
			Regions:   4, PoolLen4: 20, PoolLen6: 44, DelegatedLen: 56,
			CrossBGP4Frac: 0.59, CrossPool6Frac: 0.012, CrossBGP6Frac: 0.85, CrossCPL: 36,
			Backend: BackendRADIUS, LeaseHours: 24,
			DualStackFrac: 0.71, StaticFrac: 0.01,
			DS: []Class{
				{Weight: 0.85, V4: DurationModel{PeriodHours: 24, JitterHours: 1}, V6: DurationModel{}, Coupled: true},
				{Weight: 0.15, V4: DurationModel{MeanHours: 2000}, V6: DurationModel{MeanHours: 3000}},
			},
			NDS: []Class{
				{Weight: 1, V4: DurationModel{PeriodHours: 24, JitterHours: 1}},
			},
		},
		{
			Name: "BT", ASN: 2856, Country: "GB",
			BGP4:    []netip.Prefix{pfx("81.128.0.0/12"), pfx("86.128.0.0/11"), pfx("109.144.0.0/12")},
			BGP6:    pfx("2a00:2300::/28"),
			Regions: 6, PoolLen4: 20, PoolLen6: 44, DelegatedLen: 56,
			CrossBGP4Frac: 0.45, CrossPool6Frac: 0.18, CrossCPL: 28,
			Backend: BackendRADIUS, LeaseHours: 336,
			DualStackFrac: 0.34, StaticFrac: 0.05,
			DS: []Class{
				{Weight: 1, V4: DurationModel{MeanHours: 4200}, V6: DurationModel{MeanHours: 11000}},
			},
			NDS: []Class{
				{Weight: 0.88, V4: DurationModel{PeriodHours: 336, JitterHours: 4}},
				{Weight: 0.12, V4: DurationModel{MeanHours: 4000}},
			},
		},
		{
			Name: "Netcologne", ASN: 8422, Country: "DE",
			BGP4:      []netip.Prefix{pfx("78.34.0.0/15"), pfx("87.78.0.0/15")},
			BGP6:      pfx("2001:4dd0::/29"),
			BGP6Extra: []netip.Prefix{pfx("2001:4de8::/29")},
			Regions:   3, PoolLen4: 19, PoolLen6: 36, DelegatedLen: 48,
			CrossBGP4Frac: 0.61, CrossPool6Frac: 0.09, CrossBGP6Frac: 0.8, CrossCPL: 31,
			Backend: BackendRADIUS, LeaseHours: 24,
			DualStackFrac: 0.93, StaticFrac: 0.01,
			DS: []Class{
				{Weight: 0.8, V4: DurationModel{PeriodHours: 24, JitterHours: 1}, V6: DurationModel{}, Coupled: true},
				{Weight: 0.2, V4: DurationModel{MeanHours: 1800}, V6: DurationModel{MeanHours: 2600}},
			},
			NDS: []Class{
				{Weight: 1, V4: DurationModel{PeriodHours: 24, JitterHours: 1}},
			},
		},
		{
			Name: "Sky UK", ASN: 5607, Country: "GB",
			BGP4:    []netip.Prefix{pfx("90.192.0.0/11"), pfx("2.24.0.0/13")},
			BGP6:    pfx("2a02:c7c0::/27"),
			Regions: 5, PoolLen4: 20, PoolLen6: 40, DelegatedLen: 56,
			CrossBGP4Frac: 0.50, CrossPool6Frac: 0.04, CrossCPL: 32,
			Backend: BackendDHCP, LeaseHours: 168,
			DualStackFrac: 0.80, StaticFrac: 0.05,
			DS: []Class{
				{Weight: 1, V4: DurationModel{MeanHours: 5200}, V6: DurationModel{MeanHours: 30000}},
			},
			NDS: []Class{
				{Weight: 1, V4: DurationModel{MeanHours: 5000}},
			},
		},
	}
}

// ProfileByName returns the built-in profile with the given name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// RemoteProfile builds a runnable Profile from the pool layout of a
// live assignment-plane daemon (dynamips serve-bng): the daemon's
// published pool prefixes and lease cadence become the generative
// ground truth, with class mixes derived heuristically from the
// backend. The daemon's groups are fully dual-stack, so the profile
// is too. The result passes Validate.
func RemoteProfile(name string, asn uint32, backend Backend, v4 []netip.Prefix, v6 netip.Prefix, delegatedLen int, leaseHours uint32) (Profile, error) {
	if name == "" {
		return Profile{}, fmt.Errorf("isp: remote profile without name")
	}
	if len(v4) == 0 {
		return Profile{}, fmt.Errorf("isp: remote profile %s: no IPv4 pools", name)
	}
	if !v6.IsValid() {
		return Profile{}, fmt.Errorf("isp: remote profile %s: no IPv6 aggregate", name)
	}
	if delegatedLen <= v6.Bits() || delegatedLen > 64 {
		return Profile{}, fmt.Errorf("isp: remote profile %s: delegation /%d outside (%d, 64]",
			name, delegatedLen, v6.Bits())
	}
	if leaseHours < 1 {
		leaseHours = 1
	}
	// Two regional pool groups, carved one level below the announced
	// prefixes: v4 pools two bits below the longest announcement
	// (capped at /30, the Validate ceiling), v6 pools six bits below
	// the aggregate (capped at the delegation length so at least one
	// delegation fits per pool).
	pool4 := 0
	for _, p := range v4 {
		if p.Bits() > pool4 {
			pool4 = p.Bits()
		}
	}
	pool4 += 2
	if pool4 > 30 {
		pool4 = 30
	}
	pool6 := v6.Bits() + 6
	if pool6 > delegatedLen {
		pool6 = delegatedLen
	}
	lease := float64(leaseHours)
	p := Profile{
		Name: name, ASN: asn, Country: "ZZ",
		BGP4:    append([]netip.Prefix(nil), v4...),
		BGP6:    v6,
		Regions: 2, PoolLen4: pool4, PoolLen6: pool6, DelegatedLen: delegatedLen,
		CrossPool6Frac: 0.01,
		Backend:        backend, LeaseHours: leaseHours,
		DualStackFrac: 1, StaticFrac: 0.05,
	}
	if len(v4) > 1 {
		p.CrossBGP4Frac = 0.2
	}
	switch backend {
	case BackendDHCP:
		// Sticky servers re-offer the same address: changes are rare
		// and outage-like, decoupled across families.
		p.DS = []Class{
			{Weight: 0.7, V4: DurationModel{MeanHours: 40 * lease}, V6: DurationModel{MeanHours: 80 * lease}},
			{Weight: 0.3, V4: DurationModel{MeanHours: 120 * lease}, V6: DurationModel{MeanHours: 240 * lease}},
		}
	default:
		// Session-based assignment renumbers on the lease cadence for
		// most subscribers, with a long-duration exponential tail.
		p.DS = []Class{
			{Weight: 0.6, V4: DurationModel{PeriodHours: lease, JitterHours: 1}, Coupled: true},
			{Weight: 0.4, V4: DurationModel{MeanHours: 24 * lease}, V6: DurationModel{MeanHours: 48 * lease}},
		}
	}
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}
