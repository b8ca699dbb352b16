package main

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynamips/internal/bng"
	"dynamips/internal/cdn"
	"dynamips/internal/isp"
	"dynamips/internal/rir"
)

// bngRoundHook, when non-nil, runs after every churn round with the
// daemon's virtual hour — the crash test's deterministic injection
// point for delivering SIGTERM mid-churn.
var bngRoundHook func(hours int64)

// cmdServeBNG runs the persistent assignment-plane daemon: a sharded
// subscriber population churning lease renewals, renumberings and
// flaps in virtual time, with an optional read-only HTTP API. With
// -listen empty the daemon runs headless: it churns to -churn-hours,
// writes -stats-out/-snapshot-out, and exits. With -listen set it
// serves the API while churning and keeps serving after the churn
// target until SIGTERM. Either way SIGTERM drains at a round boundary,
// persists the checkpoint watermark and outputs, and exits cleanly; a
// restart with the same flags resumes by deterministic replay.
func cmdServeBNG(args []string) error {
	fs := newFlagSet("serve-bng")
	subscribers := fs.Int("subscribers", 100_000, "total subscribers across the built-in groups")
	seed := fs.Uint64("seed", 1, "master seed")
	shardBits := fs.Int("shards", 8, "shard bits: the session table and event loop use 2^n stripes")
	workers := fs.Int("workers", 0, "shard fan-out per round (0 = GOMAXPROCS)")
	churnHours := fs.Int64("churn-hours", 24, "virtual hours of churn to run")
	roundHours := fs.Int64("round-hours", 1, "round granularity: stats/watermark refresh every n virtual hours")
	listen := fs.String("listen", "", "HTTP API listen address; empty runs headless")
	ckpt := fs.String("checkpoint", "", "checkpoint directory: persist a replay watermark every round and resume from it on start")
	statsOut := fs.String("stats-out", "", "write the final /stats JSON to this file (atomic)")
	snapOut := fs.String("snapshot-out", "", "write the final session-table snapshot to this file (atomic)")
	grace := fs.Duration("grace", 5*time.Second, "graceful API shutdown drain deadline")
	metrics := fs.String("metrics", "", "dump daemon counters (JSON) to this file at exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address for the run's duration")
	scenario := fs.String("scenario", "", "operator-event scenario, e.g. 'failover-at=12:36,policy=renumber,coa-mean=72,relay-hops=2,relay-drop=0.02'")
	standby := fs.String("standby", "", "run as warm standby tracking the active daemon at this URL; promote after -max-misses failed polls")
	poll := fs.Duration("poll", time.Second, "standby: interval between polls of the active daemon")
	maxMisses := fs.Int("max-misses", 3, "standby: consecutive failed polls before declaring the active dead and promoting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve-bng: unexpected arguments %q", fs.Args())
	}
	or, err := startObs(*metrics, *pprofAddr)
	if err != nil {
		return err
	}
	cfg := bng.DefaultConfig(*subscribers, *seed)
	cfg.ShardBits = *shardBits
	cfg.Scenario, err = bng.ParseScenario(*scenario)
	if err != nil {
		return err
	}
	role := "active"
	if *standby != "" {
		role = "standby"
	}
	d, err := bng.New(cfg, bng.Options{
		Workers:       *workers,
		RoundHours:    *roundHours,
		CheckpointDir: *ckpt,
		Obs:           or.o,
		Role:          role,
	})
	if err != nil {
		return err
	}

	// Register the signal handler before any churn so a SIGTERM during
	// replay or the first round is never lost.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	if resumed, err := d.Resume(); err != nil {
		return err
	} else if resumed > 0 {
		logf("serve-bng: resumed by replay to virtual hour %d", resumed)
	}

	var api *bng.APIServer
	if *listen != "" {
		api, err = d.Serve(*listen)
		if err != nil {
			return err
		}
		logf("serve-bng: %d subscribers in %d groups; API on http://%s (/sessions /pools /stats /ha /snapshot /sketch)",
			cfg.Subscribers(), len(cfg.Groups), api.Addr())
	}

	interrupted := false
	if *standby != "" {
		interrupted, err = runStandby(d, *standby, *churnHours, *poll, *maxMisses, sig)
		if err != nil {
			return err
		}
	} else {
		failovers := 0
	churn:
		for d.Hours() < *churnHours {
			next := d.Hours() + *roundHours
			if next > *churnHours {
				next = *churnHours
			}
			if err := d.Churn(next); err != nil {
				return err
			}
			if v := d.Stats(); v.Failovers > failovers {
				failovers = v.Failovers
				logf("serve-bng: failover #%d fired at virtual hour %d (policy %s)",
					failovers, v.LastFailoverHour, cfg.Scenario.EffectivePolicy())
			}
			if bngRoundHook != nil {
				bngRoundHook(d.Hours())
			}
			select {
			case s := <-sig:
				logf("serve-bng: received %v at virtual hour %d; draining", s, d.Hours())
				interrupted = true
				break churn
			default:
			}
		}
	}

	if api != nil && !interrupted {
		v := d.Stats()
		logf("serve-bng: churned to hour %d (%d active sessions, %d events); serving until SIGTERM",
			v.VirtualHours, v.ActiveSessions, v.Events.Events)
		s := <-sig
		logf("serve-bng: received %v; draining", s)
	}

	if *statsOut != "" {
		if err := writeOutput(*statsOut, d.WriteStats); err != nil {
			return err
		}
	}
	if *snapOut != "" {
		if err := writeOutput(*snapOut, func(w io.Writer) error {
			return d.WriteSnapshot(w)
		}); err != nil {
			return err
		}
	}
	if api != nil {
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := api.Shutdown(ctx); err != nil {
			return err
		}
	}
	return or.finish()
}

// runStandby tracks a remote active daemon: every poll interval it
// pulls the active's /ha view, replays its own deterministic copy of
// the same Config to the active's virtual hour, and cross-checks the
// table hash plus the codec-level /snapshot stream (warm state sync
// with split-brain detection). A /snapshot cut from another hour than
// the standby's means the active moved on mid-poll; that poll is
// skipped, not compared. After maxMisses consecutive failed polls
// it declares the active dead and promotes itself: the replayed state
// already reflects the scenario's recovery policy, so promotion churns
// straight on to churnHours as the new active. Returns interrupted=true
// when a signal ended the watch before promotion.
func runStandby(d *bng.Daemon, activeURL string, churnHours int64, poll time.Duration, maxMisses int, sig <-chan os.Signal) (bool, error) {
	cl := bng.NewClient(activeURL, nil).WithRetry(0, 0)
	logf("serve-bng: standby tracking %s (poll %v, promote after %d misses)", activeURL, poll, maxMisses)
	misses := 0
	for misses < maxMisses {
		select {
		case s := <-sig:
			logf("serve-bng: standby received %v at virtual hour %d; draining", s, d.Hours())
			return true, nil
		case <-time.After(poll):
		}
		ha, err := cl.HA()
		if err != nil {
			misses++
			logf("serve-bng: standby poll miss %d/%d: %v", misses, maxMisses, err)
			continue
		}
		misses = 0
		if ha.VirtualHours > d.Hours() {
			if err := d.Churn(ha.VirtualHours); err != nil {
				return false, err
			}
		}
		if d.Hours() != ha.VirtualHours {
			continue // the active moved on mid-poll; re-check next round
		}
		if my := d.Stats().TableHash; my != ha.TableHash {
			return false, fmt.Errorf("serve-bng: standby split brain at hour %d: active table %s, standby %s", d.Hours(), ha.TableHash, my)
		}
		// Codec-level sync: pull the active's snapshot stream and verify
		// it decodes to the standby's exact session records.
		at, recs, err := cl.SnapshotAt()
		if err != nil {
			misses++
			logf("serve-bng: standby snapshot miss %d/%d: %v", misses, maxMisses, err)
			continue
		}
		mineAt, mine := d.Snapshot()
		if at != mineAt {
			continue // the active moved on between /ha and /snapshot
		}
		if len(recs) != len(mine) {
			return false, fmt.Errorf("serve-bng: standby split brain: active snapshot has %d sessions, standby %d", len(recs), len(mine))
		}
		for i := range recs {
			if recs[i] != mine[i] {
				return false, fmt.Errorf("serve-bng: standby split brain at key %#x", recs[i].Key)
			}
		}
	}
	d.SetRole("active")
	logf("serve-bng: active lost; promoting standby at virtual hour %d (policy %s)",
		d.Hours(), d.Config().Scenario.EffectivePolicy())
	if d.Hours() < churnHours {
		if err := d.Churn(churnHours); err != nil {
			return false, err
		}
	}
	return false, nil
}

// bngBaseASN numbers remote-daemon groups into the private ASN range:
// group i is announced as 64512+i.
const bngBaseASN = 64512

// bngGroupPools extracts one group's (v4 pool, v6 pool, delegated
// length, v4 lease hours) from a daemon's /pools rows.
func bngGroupPools(pools []bng.PoolStats, group string) (v4, v6 netip.Prefix, delegatedLen int, leaseHours uint32, err error) {
	for _, p := range pools {
		if p.Group != group {
			continue
		}
		pfx, perr := netip.ParsePrefix(p.Network)
		if perr != nil {
			return v4, v6, 0, 0, fmt.Errorf("daemon pool %s/%s: bad network %q: %w", p.Group, p.Profile, p.Network, perr)
		}
		switch p.Family {
		case 4:
			v4 = pfx
			leaseHours = p.LeaseSeconds / 3600
			if leaseHours == 0 {
				leaseHours = 1
			}
		case 6:
			v6 = pfx
			delegatedLen = p.DelegatedLen
		}
	}
	if !v4.IsValid() || !v6.IsValid() {
		return v4, v6, 0, 0, fmt.Errorf("daemon group %q is missing a pool family (v4=%v v6=%v)", group, v4.IsValid(), v6.IsValid())
	}
	return v4, v6, delegatedLen, leaseHours, nil
}

// bngProfile builds an isp ground-truth profile from a live serve-bng
// daemon's published pool layout, so 'gen atlas -bng' models the
// assignment practice the daemon is actually running. group selects a
// subscriber group by name; empty picks the daemon's first group.
func bngProfile(baseURL, group string) (isp.Profile, error) {
	v, err := bng.NewClient(baseURL, nil).Stats()
	if err != nil {
		return isp.Profile{}, fmt.Errorf("querying daemon at %s: %w", baseURL, err)
	}
	gi := -1
	for i, g := range v.Groups {
		if group == "" || g.Name == group {
			gi = i
			break
		}
	}
	if gi < 0 {
		return isp.Profile{}, fmt.Errorf("daemon at %s has no group %q", baseURL, group)
	}
	g := v.Groups[gi]
	v4, v6, delegatedLen, leaseHours, err := bngGroupPools(v.Pools, g.Name)
	if err != nil {
		return isp.Profile{}, err
	}
	backend := isp.BackendRADIUS
	if g.Backend == bng.BackendDHCP {
		backend = isp.BackendDHCP
	}
	// Bare-/64 delegation is the cellular signature (§4.3).
	mobile := delegatedLen == 64
	return isp.RemoteProfile("bng/"+g.Name, uint32(bngBaseASN+gi), backend,
		[]netip.Prefix{v4}, v6, delegatedLen, leaseHours, mobile)
}

// bngOperators builds a CDN operator set from a live daemon: one
// operator per subscriber group, carved from the group's published
// pools, with multiplexing/association heuristics split on the
// fixed-line vs cellular delegation signature. Registries are Unknown
// — the analyses re-derive them from the prefixes.
func bngOperators(baseURL string) ([]cdn.Operator, error) {
	v, err := bng.NewClient(baseURL, nil).Stats()
	if err != nil {
		return nil, fmt.Errorf("querying daemon at %s: %w", baseURL, err)
	}
	ops := make([]cdn.Operator, 0, len(v.Groups))
	for i, g := range v.Groups {
		v4, v6, delegatedLen, _, err := bngGroupPools(v.Pools, g.Name)
		if err != nil {
			return nil, err
		}
		op := cdn.Operator{
			Name:         "bng/" + g.Name,
			ASN:          uint32(bngBaseASN + i),
			Registry:     rir.Unknown,
			BGP4:         v4,
			BGP6:         v6,
			Subscribers:  g.Subscribers,
			DelegatedLen: delegatedLen,
		}
		if delegatedLen == 64 {
			op.Mobile = true
			op.UsersPer24 = 400
			op.AssocMeanDays = 1.5
			op.KeepV6Frac = 0.25
			op.Activity = 0.12
		} else {
			op.UsersPer24 = 160
			op.AssocMeanDays = 30
			op.StableFrac = 0.1
			op.ZeroFrac = 0.8
			op.KeepV6Frac = 0.6
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("daemon at %s published no groups", baseURL)
	}
	return ops, nil
}
