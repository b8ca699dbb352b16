// Package bng is the persistent assignment-plane daemon behind
// `dynamips serve-bng`: subscriber groups with address-pool profiles
// (the osvbng shape — named v4 pools and v6 delegation profiles
// referenced by groups), the existing DHCPv4/DHCPv6/RADIUS servers
// sharded behind one dense session table (internal/bng/stripe),
// and a virtual-time event loop that churns lease-renewal, renumbering
// and flap events for millions of subscribers deterministically.
//
// Determinism contract: every shard owns a fixed subset of subscribers
// (stripe routing of the dense key), its own per-group server instances
// carved from disjoint sub-pools, its own event queue popped in
// (time, key) order, and per-subscriber SplitMix64 draw streams. Shards never
// communicate, so processing them with any `-workers` count — or
// killing the daemon and replaying from a checkpoint watermark —
// produces byte-identical session-table snapshots.
package bng

import (
	"fmt"
	"net/netip"
)

// Backend names a group's assignment machinery.
const (
	// BackendRADIUS assigns both families through one RADIUS server
	// per (group, shard): fresh framed address and delegated prefix on
	// every (re)connect — PPPoE-style residential and mobile access.
	BackendRADIUS = "radius"
	// BackendDHCP runs a sticky DHCPv4 server plus (when a delegation
	// profile is attached) a DHCPv6-PD server per (group, shard) —
	// cable-style access with stable addresses.
	BackendDHCP = "dhcp"
)

// PoolProfile is a named IPv4 address pool, the osvbng "ipv4-profile"
// shape: groups reference it for framed-address assignment.
type PoolProfile struct {
	Name string `json:"name"`
	// Network is the aggregate the per-shard pools are carved from.
	Network netip.Prefix `json:"network"`
	// LeaseSeconds is the subscriber-visible lease length; it drives
	// the renewal cadence (T1 = lease/2), not server-side reclaim.
	LeaseSeconds uint32 `json:"lease_seconds"`
}

// DelegationProfile is a named IPv6 prefix-delegation pool.
type DelegationProfile struct {
	Name string `json:"name"`
	// Network is the v6 aggregate the per-shard pools are carved from.
	Network netip.Prefix `json:"network"`
	// DelegatedLen is the per-subscriber delegation length (≤ 64).
	DelegatedLen int `json:"delegated_len"`
}

// Group is one subscriber population: a pool profile, an optional
// delegation profile, and the churn cadences that drive its events.
type Group struct {
	Name        string `json:"name"`
	Subscribers int    `json:"subscribers"`
	// Backend is BackendRADIUS or BackendDHCP.
	Backend string `json:"backend"`
	// V4 is the group's IPv4 pool profile.
	V4 PoolProfile `json:"v4"`
	// V6 is the delegation profile; nil means IPv4-only.
	V6 *DelegationProfile `json:"v6,omitempty"`
	// RenumberMeanHours is the mean interval between forced address
	// changes (ISP-side renumbering; §2.2 of the paper).
	RenumberMeanHours float64 `json:"renumber_mean_hours"`
	// FlapMeanHours is the mean interval between subscriber
	// disconnects; DowntimeMeanMinutes the mean off-line gap.
	FlapMeanHours       float64 `json:"flap_mean_hours"`
	DowntimeMeanMinutes float64 `json:"downtime_mean_minutes"`
}

// Config is the daemon's full specification. It is the checkpoint
// identity: two daemons with equal Configs replay identical histories.
type Config struct {
	Seed uint64 `json:"seed"`
	// ShardBits sets the stripe width: 2^ShardBits shards, each with
	// its own servers, event queue, and pool slice.
	ShardBits int     `json:"shard_bits"`
	Groups    []Group `json:"groups"`
	// Scenario layers operator events — failovers, CoA/Disconnect,
	// relay topologies — over the baseline churn; nil runs none and
	// keeps pre-scenario checkpoint identities valid.
	Scenario *Scenario `json:"scenario,omitempty"`
}

// headroomNum/headroomDen is the required pool slack: each shard's pool
// must hold at least 3× its expected subscriber share (plus a small
// absolute margin) so renumbering — which allocates a fresh address
// before releasing the old one — and shard-assignment variance never
// exhaust a pool.
const (
	headroom       = 3
	headroomMargin = 16
)

// Validate checks the configuration and the per-shard pool arithmetic.
func (c *Config) Validate() error {
	if c.ShardBits < 0 || c.ShardBits > 14 {
		return fmt.Errorf("bng: shard bits %d outside [0, 14]", c.ShardBits)
	}
	if len(c.Groups) == 0 {
		return fmt.Errorf("bng: no subscriber groups")
	}
	if len(c.Groups) > 1<<16 {
		return fmt.Errorf("bng: %d groups exceed the 65536 group limit", len(c.Groups))
	}
	shards := 1 << uint(c.ShardBits)
	for gi := range c.Groups {
		g := &c.Groups[gi]
		if g.Name == "" {
			return fmt.Errorf("bng: group %d has no name", gi)
		}
		if g.Subscribers <= 0 {
			return fmt.Errorf("bng: group %s: no subscribers", g.Name)
		}
		if g.Subscribers >= 1<<32 {
			return fmt.Errorf("bng: group %s: %d subscribers exceed the 32-bit index space", g.Name, g.Subscribers)
		}
		if g.Backend != BackendRADIUS && g.Backend != BackendDHCP {
			return fmt.Errorf("bng: group %s: unknown backend %q", g.Name, g.Backend)
		}
		if !g.V4.Network.IsValid() || !g.V4.Network.Addr().Is4() {
			return fmt.Errorf("bng: group %s: v4 profile %q needs an IPv4 network", g.Name, g.V4.Name)
		}
		if g.V4.LeaseSeconds == 0 {
			return fmt.Errorf("bng: group %s: v4 profile %q has zero lease", g.Name, g.V4.Name)
		}
		perShard := (g.Subscribers + shards - 1) / shards
		need := uint64(perShard)*headroom + headroomMargin
		shardLen := g.V4.Network.Bits() + c.ShardBits
		if shardLen > 30 {
			return fmt.Errorf("bng: group %s: %v cannot be split into %d shard pools", g.Name, g.V4.Network, shards)
		}
		if cap4 := uint64(1) << uint(32-shardLen); cap4 < need {
			return fmt.Errorf("bng: group %s: shard pool /%d holds %d addresses, need %d (%d subscribers × %d shards, %dx headroom)",
				g.Name, shardLen, cap4, need, g.Subscribers, shards, headroom)
		}
		if g.V6 != nil {
			v6 := g.V6
			if !v6.Network.IsValid() || !v6.Network.Addr().Is6() || v6.Network.Addr().Is4In6() {
				return fmt.Errorf("bng: group %s: v6 profile %q needs an IPv6 network", g.Name, v6.Name)
			}
			if v6.DelegatedLen <= v6.Network.Bits() || v6.DelegatedLen > 64 {
				return fmt.Errorf("bng: group %s: delegated /%d outside (%d, 64]", g.Name, v6.DelegatedLen, v6.Network.Bits())
			}
			shardLen6 := v6.Network.Bits() + c.ShardBits
			if shardLen6 >= v6.DelegatedLen {
				return fmt.Errorf("bng: group %s: %v cannot carve %d shard pools of /%d delegations",
					g.Name, v6.Network, shards, v6.DelegatedLen)
			}
			if cap6 := uint64(1) << uint(v6.DelegatedLen-shardLen6); cap6 < need {
				return fmt.Errorf("bng: group %s: shard pool /%d holds %d /%d delegations, need %d",
					g.Name, shardLen6, cap6, v6.DelegatedLen, need)
			}
		}
		if g.RenumberMeanHours <= 0 || g.FlapMeanHours <= 0 || g.DowntimeMeanMinutes <= 0 {
			return fmt.Errorf("bng: group %s: renumber/flap/downtime means must be positive", g.Name)
		}
	}
	return c.Scenario.Validate()
}

// Subscribers returns the configured total across groups.
func (c *Config) Subscribers() int {
	n := 0
	for i := range c.Groups {
		n += c.Groups[i].Subscribers
	}
	return n
}

func mustPfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// MinSubscribers is the smallest total DefaultConfig splits as given: it
// raises any smaller total to this floor, where the 64/16/20 split gives
// every group subscribers.
const MinSubscribers = 100

// DefaultConfig is the built-in three-group BNG: PPPoE residential
// (RADIUS, dual-stack /56), sticky-DHCP business (dual-stack /56), and
// CGNAT mobile (RADIUS from 100.64.0.0/10, bare /64s) — the populations
// whose assignment signatures the paper contrasts. totalSubs, floored at
// MinSubscribers, is split 64/16/20 across them.
func DefaultConfig(totalSubs int, seed uint64) Config {
	if totalSubs < MinSubscribers {
		totalSubs = MinSubscribers
	}
	res := totalSubs * 64 / 100
	biz := totalSubs * 16 / 100
	mob := totalSubs - res - biz
	return Config{
		Seed:      seed,
		ShardBits: 8,
		Groups: []Group{
			{
				Name:        "residential",
				Subscribers: res,
				Backend:     BackendRADIUS,
				V4:          PoolProfile{Name: "res-v4", Network: mustPfx("10.0.0.0/9"), LeaseSeconds: 14400},
				V6:          &DelegationProfile{Name: "res-v6", Network: mustPfx("2001:db8::/34"), DelegatedLen: 56},
				// Daily-ish forced renumbering, the DTAG/Orange regime.
				RenumberMeanHours:   24,
				FlapMeanHours:       96,
				DowntimeMeanMinutes: 20,
			},
			{
				Name:        "business",
				Subscribers: biz,
				Backend:     BackendDHCP,
				V4:          PoolProfile{Name: "biz-v4", Network: mustPfx("10.128.0.0/12"), LeaseSeconds: 86400},
				V6:          &DelegationProfile{Name: "biz-v6", Network: mustPfx("2001:db8:8000::/34"), DelegatedLen: 56},
				// Sticky DHCP: renumbering is rare and flaps re-bind the
				// same address.
				RenumberMeanHours:   2160,
				FlapMeanHours:       336,
				DowntimeMeanMinutes: 10,
			},
			{
				Name:        "mobile",
				Subscribers: mob,
				Backend:     BackendRADIUS,
				V4:          PoolProfile{Name: "cgn-v4", Network: mustPfx("100.64.0.0/10"), LeaseSeconds: 7200},
				V6:          &DelegationProfile{Name: "mob-v6", Network: mustPfx("2001:db8:4000::/34"), DelegatedLen: 64},
				// Mobile sessions are short and every reconnect
				// renumbers ("87% of /64s seen once", §4.3).
				RenumberMeanHours:   12,
				FlapMeanHours:       8,
				DowntimeMeanMinutes: 45,
			},
		},
	}
}
