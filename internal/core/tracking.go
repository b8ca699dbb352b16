package core

import (
	"net/netip"
	"sort"

	"dynamips/internal/echo"
	"dynamips/internal/netutil"
)

// EUI-64 tracking (§2.3, §6): devices with stable interface identifiers
// remain linkable across network renumbering — an observer who sees the
// full address can follow the device from /64 to /64 by its IID alone.
// This file measures that trackability over IP-echo observations, and the
// collision rate that bounds the technique's precision.

// IID extracts the 64-bit interface identifier of an IPv6 address.
func IID(a netip.Addr) (uint64, bool) {
	if !a.Is6() || a.Unmap().Is4() {
		return 0, false
	}
	_, lo := netutil.U128(a)
	return lo, true
}

// TrackingReport quantifies IID-based cross-renumbering tracking over a
// probe population.
type TrackingReport struct {
	// Devices is the number of probes with IPv6 observations.
	Devices int
	// Changes counts /64 changes across all devices.
	Changes int
	// Linkable counts changes where the device's IID stayed constant
	// across the change — the observer re-links the device immediately.
	Linkable int
	// Collisions counts IIDs shared by more than one device, which
	// would cause the tracker to conflate them.
	Collisions int
}

// LinkableFrac is the share of renumberings that IID tracking survives.
func (r TrackingReport) LinkableFrac() float64 {
	if r.Changes == 0 {
		return 0
	}
	return float64(r.Linkable) / float64(r.Changes)
}

// MeasureTracking evaluates IID trackability over raw series (the IIDs
// live in the full echoed addresses, which Analyze's /64 aggregation
// discards).
func MeasureTracking(series []echo.Series) TrackingReport {
	var rep TrackingReport
	owners := make(map[uint64]map[int]bool) // IID -> set of probes
	for i := range series {
		s := &series[i]
		if len(s.V6) == 0 {
			continue
		}
		rep.Devices++
		var (
			prev64   netip.Prefix
			prevIID  uint64
			havePrev bool
		)
		for _, sp := range s.V6 {
			iid, ok := IID(sp.Echo)
			if !ok {
				continue
			}
			om, ok2 := owners[iid]
			if !ok2 {
				om = make(map[int]bool)
				owners[iid] = om
			}
			om[s.Probe.ID] = true
			p64 := sp.Prefix64()
			if havePrev && p64 != prev64 {
				rep.Changes++
				if iid == prevIID {
					rep.Linkable++
				}
			}
			prev64, prevIID, havePrev = p64, iid, true
		}
	}
	for _, om := range owners {
		if len(om) > 1 {
			rep.Collisions++
		}
	}
	return rep
}

// TrackedDevice is one device's trajectory across /64s, reconstructed
// purely from its IID — what a tracker (or a hitlist maintainer, §6)
// derives from passively observed addresses.
type TrackedDevice struct {
	IID      uint64
	Prefixes []netip.Prefix // /64s in order of first appearance
}

// LinkByIID groups observed IPv6 addresses (with observation hours) by
// IID, returning per-device /64 trajectories sorted by IID.
func LinkByIID(series []echo.Series) []TrackedDevice {
	type sighting struct {
		hour int64
		p64  netip.Prefix
	}
	byIID := make(map[uint64][]sighting)
	for i := range series {
		for _, sp := range series[i].V6 {
			iid, ok := IID(sp.Echo)
			if !ok {
				continue
			}
			byIID[iid] = append(byIID[iid], sighting{sp.Start, sp.Prefix64()})
		}
	}
	out := make([]TrackedDevice, 0, len(byIID))
	for iid, ss := range byIID {
		sort.Slice(ss, func(a, b int) bool { return ss[a].hour < ss[b].hour })
		d := TrackedDevice{IID: iid}
		for _, s := range ss {
			if n := len(d.Prefixes); n == 0 || d.Prefixes[n-1] != s.p64 {
				if !containsPrefix(d.Prefixes, s.p64) {
					d.Prefixes = append(d.Prefixes, s.p64)
				}
			}
		}
		out = append(out, d)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].IID < out[b].IID })
	return out
}

func containsPrefix(ps []netip.Prefix, p netip.Prefix) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}
