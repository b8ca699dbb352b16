package experiments

import (
	"dynamips/internal/faultnet"
	"dynamips/internal/isp"
	"dynamips/internal/obs"
)

// recordFleetMetrics folds one AS's simulation totals into the run's
// counters, labeled by AS name. The per-AS stats are plain sums gathered
// single-threaded inside each simulation, and this merge runs in profile
// order, so the resulting counters are identical for any worker count.
func recordFleetMetrics(o *obs.Observer, as string, n isp.NetStats, echoesDropped int64) {
	if o == nil {
		return
	}
	link := func(fam string, s faultnet.LinkStats) {
		l := []obs.Label{obs.L("as", as), obs.L("fam", fam)}
		o.Counter("net_exchanges", l...).Add(s.Exchanges)
		o.Counter("net_exchanges_failed", l...).Add(s.Failed)
		o.Counter("net_sends", l...).Add(s.Sends)
		o.Counter("net_retransmits", l...).Add(s.Retransmits)
		o.Counter("net_delivered", l...).Add(s.Delivered)
		o.Counter("net_duplicates", l...).Add(s.Duplicates)
	}
	link("v4", n.Link4)
	link("v6", n.Link6)

	asl := obs.L("as", as)
	o.Counter("radius_access_requests", asl).Add(n.Radius.AccessRequests)
	o.Counter("radius_replay_hits", asl).Add(n.Radius.ReplayHits)
	o.Counter("radius_rejects", asl).Add(n.Radius.Rejects)

	o.Counter("dhcp6_solicits", asl).Add(n.DHCP6.Solicits)
	o.Counter("dhcp6_requests", asl).Add(n.DHCP6.Requests)
	o.Counter("dhcp6_reassigns", asl).Add(n.DHCP6.Reassigns)
	o.Counter("dhcp6_no_bindings", asl).Add(n.DHCP6.NoBindings)
	o.Counter("dhcp6_lose_states", asl).Add(n.DHCP6.LoseStates)
	o.Counter("dhcp6_renumbers", asl).Add(n.DHCP6.Renumbers)

	o.Counter("atlas_echoes_dropped", asl).Add(echoesDropped)
}
