package bng

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sync"

	"dynamips/internal/bng/stripe"
	"dynamips/internal/checkpoint"
	"dynamips/internal/netutil"
	"dynamips/internal/obs"
	"dynamips/internal/parallel"
	"dynamips/internal/sketch"
)

// Options are the run-shape knobs that do NOT affect daemon state:
// worker fan-out, stats-round granularity, checkpointing, and
// observability. None of them enter the checkpoint identity.
type Options struct {
	// Workers bounds the per-round shard fan-out (0 = GOMAXPROCS).
	Workers int
	// RoundHours is the churn round granularity: stats/watermark
	// refresh cadence in virtual hours (min 1).
	RoundHours int64
	// CheckpointDir, when set, persists a replay watermark after every
	// round; a restarted daemon with the same Config replays to it.
	CheckpointDir string
	// Obs instruments round/event counters (nil-safe).
	Obs *obs.Observer
	// Role labels the daemon in the /ha view ("active" when empty); it
	// never affects state.
	Role string
}

// GroupStats is one group's live state in the stats view.
type GroupStats struct {
	Name        string `json:"name"`
	Backend     string `json:"backend"`
	Subscribers int    `json:"subscribers"`
	Active      int    `json:"active"`
}

// PoolStats is one (group, family) pool's occupancy, the /pools API
// payload and the shape remote generators consume.
type PoolStats struct {
	Group   string `json:"group"`
	Profile string `json:"profile"`
	Family  int    `json:"family"` // 4 or 6
	Network string `json:"network"`
	// DelegatedLen is the per-subscriber assignment length (32 for
	// IPv4 framed addresses).
	DelegatedLen int `json:"delegated_len"`
	// LeaseSeconds is the subscriber-visible lease cadence.
	LeaseSeconds uint32 `json:"lease_seconds"`
	Capacity     uint64 `json:"capacity"`
	Active       int    `json:"active"`
}

// StatsView is the daemon's aggregate state at a round boundary: the
// /stats payload. Every field derives deterministically from the
// engine state, so two daemons at the same virtual hour render
// byte-identical views regardless of worker count or kill/resume.
type StatsView struct {
	VirtualHours   int64        `json:"virtual_hours"`
	Subscribers    int          `json:"subscribers"`
	ActiveSessions int          `json:"active_sessions"`
	TableHash      string       `json:"table_hash"`
	Events         ShardStats   `json:"events"`
	Groups         []GroupStats `json:"groups"`
	Pools          []PoolStats  `json:"pools"`
	// Failovers counts scenario failovers fired so far;
	// LastFailoverHour is the most recent one (0 = none yet).
	Failovers        int   `json:"failovers"`
	LastFailoverHour int64 `json:"last_failover_hour"`
}

// Daemon hosts the sharded assignment plane: the stripe table, one
// engine per stripe, and the round cut the HTTP API serves.
type Daemon struct {
	cfg     Config
	opt     Options
	table   *stripe.Table
	engines []*shardEngine

	// cumSubs[g] is the number of subscribers in groups < g: the
	// pagination index for /sessions.
	cumSubs []int

	// mu guards the published state below: the last round's cut, the
	// role, and the failover schedule. The churn goroutine replaces cut
	// and failovers together, so a reader never pairs one round's hour
	// with another round's view.
	mu   sync.RWMutex
	cut  *roundCut
	role string

	// Failover schedule (scenario-driven). failCursor draws exponential
	// gaps when FailoverMeanHours is set; failIdx walks the explicit
	// FailoverAtHours list. nextFail is the next failover hour (0 =
	// none pending); failovers records fired hours. Only the churn
	// goroutine writes these; readers go through mu.
	failCursor uint64
	failIdx    int
	nextFail   int64
	failovers  []int64

	confHash string
}

// roundCut is what a round boundary publishes: the virtual hour and
// everything the read API serves for it. The session table is retained
// in key order, so /snapshot encodes the boundary's table instead of
// re-reading the stripes the engines are writing. The sketch set is the
// stripe partials merged in stripe order; its binary form is encoded on
// demand. Every field is a pure function of engine state at the
// boundary, so two daemons at the same hour hold byte-identical cuts at
// any worker count. A cut is never modified once published.
type roundCut struct {
	hours     int64
	view      StatsView
	statsJSON []byte
	snap      []stripe.Session

	sketchSet  *sketch.Set
	sketchView SketchView
	sketchJSON []byte
}

// failoverSalt separates the daemon's failover-gap stream from every
// per-subscriber cursor.
const failoverSalt = 0xFA170FEE

// New validates cfg and builds the daemon with every subscriber's
// attach event pending at t=0; no churn has run yet.
func New(cfg Config, opt Options) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.RoundHours < 1 {
		opt.RoundHours = 1
	}
	table, err := stripe.New(cfg.ShardBits)
	if err != nil {
		return nil, err
	}
	engines, err := buildEngines(&cfg, table)
	if err != nil {
		return nil, err
	}
	hash, err := checkpoint.HashConfig(cfg)
	if err != nil {
		return nil, fmt.Errorf("bng: hashing config: %w", err)
	}
	d := &Daemon{
		cfg:      cfg,
		opt:      opt,
		table:    table,
		engines:  engines,
		confHash: hash,
	}
	d.cumSubs = make([]int, len(cfg.Groups)+1)
	for gi := range cfg.Groups {
		d.cumSubs[gi+1] = d.cumSubs[gi] + cfg.Groups[gi].Subscribers
	}
	d.role = opt.Role
	if d.role == "" {
		d.role = "active"
	}
	if cfg.Scenario.hasFailover() {
		d.failCursor = stripe.Mix64(cfg.Seed ^ failoverSalt)
		d.advanceFailover(0)
	}
	d.cut = d.buildCut(0, nil)
	return d, nil
}

// Config returns the daemon's validated configuration.
func (d *Daemon) Config() Config { return d.cfg }

// Hours returns the churned virtual time.
func (d *Daemon) Hours() int64 { return d.current().hours }

// current returns the last published round cut.
func (d *Daemon) current() *roundCut {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.cut
}

// Table exposes the session table (read-only use).
func (d *Daemon) Table() *stripe.Table { return d.table }

// Churn advances the daemon to the given virtual hour, processing
// rounds of Options.RoundHours: each round fans the shards out across
// workers (each engine exclusively borrows its stripe), then refreshes
// the stats view and persists the checkpoint watermark.
func (d *Daemon) Churn(toHours int64) error {
	for {
		h := d.Hours()
		if h >= toHours {
			return nil
		}
		round := h + d.opt.RoundHours
		if round > toHours {
			round = toHours
		}
		// Clamp rounds to the next failover hour so the takeover fires
		// at its exact virtual time regardless of round granularity.
		if nf := d.nextFailover(); nf > h && nf < round {
			round = nf
		}
		if err := d.runRound(round); err != nil {
			return err
		}
	}
}

// nextFailover returns the next pending failover hour (0 = none).
func (d *Daemon) nextFailover() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.nextFail
}

// advanceFailover computes the next scheduled failover hour strictly
// after from, under d.mu (or before the daemon is shared).
func (d *Daemon) advanceFailover(from int64) {
	sc := d.cfg.Scenario
	if !sc.hasFailover() {
		d.nextFail = 0
		return
	}
	if len(sc.FailoverAtHours) > 0 {
		for d.failIdx < len(sc.FailoverAtHours) && sc.FailoverAtHours[d.failIdx] <= from {
			d.failIdx++
		}
		if d.failIdx < len(sc.FailoverAtHours) {
			d.nextFail = sc.FailoverAtHours[d.failIdx]
		} else {
			d.nextFail = 0
		}
		return
	}
	gap := (expSeconds(&d.failCursor, sc.FailoverMeanHours*3600) + 3599) / 3600
	if gap < 1 {
		gap = 1
	}
	d.nextFail = from + gap
}

func (d *Daemon) runRound(toHours int64) error {
	until := toHours * 3600
	fire := d.nextFailover() == toHours && toHours != 0
	renumber := fire && d.cfg.Scenario.EffectivePolicy() == PolicyRenumber
	var span *obs.Span
	if d.opt.Obs != nil {
		span = d.opt.Obs.StartSpan("bng.round")
	}
	_, err := parallel.MapErr(len(d.engines), d.opt.Workers, func(sh int) (struct{}, error) {
		b := d.table.Borrow(sh)
		defer b.Release()
		if err := d.engines[sh].advance(b, until); err != nil {
			return struct{}{}, err
		}
		if renumber {
			// A lease-preserving takeover leaves the stripes untouched;
			// the renumbering one re-runs every assignment in place.
			return struct{}{}, d.engines[sh].failoverRenumber(b, until, d.cfg.Seed)
		}
		return struct{}{}, nil
	})
	if err != nil {
		return err
	}
	// Only this goroutine writes failovers, so it reads them unlocked;
	// readers see the appended hour only with the cut that counts it.
	failovers := d.failovers
	if fire {
		failovers = append(failovers, toHours)
	}
	cut := d.buildCut(toHours, failovers)
	d.mu.Lock()
	d.cut = cut
	d.failovers = failovers
	if fire {
		d.advanceFailover(toHours)
	}
	d.mu.Unlock()
	if d.opt.Obs != nil {
		v := cut.view
		d.opt.Obs.Counter("bng_rounds").Inc()
		d.opt.Obs.Gauge("bng_active_sessions").Set(int64(v.ActiveSessions))
		d.opt.Obs.Gauge("bng_events_total").Set(int64(v.Events.Events))
		if fire {
			d.opt.Obs.Counter("bng_failovers").Inc()
		}
		d.opt.Obs.Advance(1)
		span.End()
	}
	if d.opt.CheckpointDir != "" {
		if err := d.writeWatermark(); err != nil {
			return err
		}
	}
	return nil
}

// buildCut computes the round cut for hours with the given fired
// failovers. It runs at the round barrier, with the engines quiescent,
// as two independent halves: the table half (one sorted pass over the
// stripes for the counts, the hash and /stats) and the sketch half (the
// stripe merge and the /sketch view). Each writes only its own fields of
// the cut, so the halves run concurrently within Options.Workers.
func (d *Daemon) buildCut(hours int64, failovers []int64) *roundCut {
	c := &roundCut{hours: hours}
	parallel.Map(2, d.opt.Workers, func(half int) struct{} {
		if half == 0 {
			d.tableHalf(c, failovers)
		} else {
			d.sketchHalf(c)
		}
		return struct{}{}
	})
	return c
}

// tableHalf fills the cut's sorted session table, stats view and its
// canonical JSON.
func (d *Daemon) tableHalf(c *roundCut, failovers []int64) {
	snap := d.table.SnapshotSorted()
	groups := make([]GroupStats, len(d.cfg.Groups))
	var pools []PoolStats
	for gi := range d.cfg.Groups {
		g := &d.cfg.Groups[gi]
		groups[gi] = GroupStats{Name: g.Name, Backend: g.Backend, Subscribers: g.Subscribers}
		pools = append(pools, PoolStats{
			Group:        g.Name,
			Profile:      g.V4.Name,
			Family:       4,
			Network:      g.V4.Network.String(),
			DelegatedLen: 32,
			LeaseSeconds: g.V4.LeaseSeconds,
			Capacity:     uint64(1) << uint(32-g.V4.Network.Bits()),
		})
		if g.V6 != nil {
			pools = append(pools, PoolStats{
				Group:        g.Name,
				Profile:      g.V6.Name,
				Family:       6,
				Network:      g.V6.Network.String(),
				DelegatedLen: g.V6.DelegatedLen,
				LeaseSeconds: g.V4.LeaseSeconds,
				Capacity:     uint64(1) << uint(g.V6.DelegatedLen-g.V6.Network.Bits()),
			})
		}
	}
	// v4Idx/v6Idx map group -> its pool rows (v6Idx -1 for v4-only).
	v4Idx := make([]int, len(d.cfg.Groups))
	v6Idx := make([]int, len(d.cfg.Groups))
	row := 0
	for gi := range d.cfg.Groups {
		v4Idx[gi] = row
		row++
		v6Idx[gi] = -1
		if d.cfg.Groups[gi].V6 != nil {
			v6Idx[gi] = row
			row++
		}
	}
	for _, s := range snap {
		gi := int(s.Key >> 32)
		if gi >= len(groups) {
			continue
		}
		groups[gi].Active++
		if s.Addr4 != 0 {
			pools[v4Idx[gi]].Active++
		}
		if s.Pfx6Len != 0 && v6Idx[gi] >= 0 {
			pools[v6Idx[gi]].Active++
		}
	}
	var stats ShardStats
	for _, e := range d.engines {
		stats.add(e.stats)
	}
	var lastFail int64
	if n := len(failovers); n > 0 {
		lastFail = failovers[n-1]
	}
	c.snap = snap
	c.view = StatsView{
		VirtualHours:     c.hours,
		Subscribers:      d.cfg.Subscribers(),
		ActiveSessions:   len(snap),
		TableHash:        fmt.Sprintf("%016x", stripe.Hash(snap)),
		Events:           stats,
		Groups:           groups,
		Pools:            pools,
		Failovers:        len(failovers),
		LastFailoverHour: lastFail,
	}
	c.statsJSON = indentJSON(c.view)
}

// sketchHalf fills the cut's merged sketch set, its summary view and
// the view's canonical JSON.
func (d *Daemon) sketchHalf(c *roundCut) {
	c.sketchSet = d.mergeEngineSketches()
	c.sketchView = buildSketchView(c.hours, c.sketchSet)
	c.sketchJSON = indentJSON(c.sketchView)
}

// indentJSON is the canonical two-space-indented JSON of a view.
func indentJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // a buffer write of a plain struct cannot fail
	return buf.Bytes()
}

// Stats returns the cached round-boundary stats view.
func (d *Daemon) Stats() StatsView { return d.current().view }

// WriteStats writes the canonical /stats JSON.
func (d *Daemon) WriteStats(w io.Writer) error {
	_, err := w.Write(d.current().statsJSON)
	return err
}

// WriteSketchJSON writes the canonical /sketch full-view JSON.
func (d *Daemon) WriteSketchJSON(w io.Writer) error {
	_, err := w.Write(d.current().sketchJSON)
	return err
}

// Snapshot returns the last round boundary's virtual hour and its
// session table in key order. The slice is shared: callers must not
// modify it.
func (d *Daemon) Snapshot() (int64, []stripe.Session) {
	c := d.current()
	return c.hours, c.snap
}

// WriteSnapshot writes the canonical session-table snapshot of the last
// round boundary.
func (d *Daemon) WriteSnapshot(w io.Writer) error {
	_, snap := d.Snapshot()
	return stripe.EncodeSnapshot(w, snap)
}

// SessionView is one /sessions item. Every configured subscriber has a
// stable slot in the listing (down subscribers report active=false), so
// pagination offsets never shift under churn.
type SessionView struct {
	Key    uint64 `json:"key"`
	Group  string `json:"group"`
	Index  uint32 `json:"index"`
	Active bool   `json:"active"`
	Addr4  string `json:"addr4,omitempty"`
	Pfx6   string `json:"prefix6,omitempty"`
	Start  int64  `json:"start,omitempty"`
	Expiry int64  `json:"expiry,omitempty"`
	Gen    uint32 `json:"gen"`
	Renews uint32 `json:"renews"`
}

// Sessions returns the page of subscriber slots [offset, offset+limit)
// in dense key order.
func (d *Daemon) Sessions(offset, limit int) []SessionView {
	total := d.cumSubs[len(d.cumSubs)-1]
	if offset < 0 || offset >= total || limit <= 0 {
		return nil
	}
	end := offset + limit
	if end > total {
		end = total
	}
	out := make([]SessionView, 0, end-offset)
	gi := 0
	for d.cumSubs[gi+1] <= offset {
		gi++
	}
	for i := offset; i < end; i++ {
		for d.cumSubs[gi+1] <= i {
			gi++
		}
		idx := uint32(i - d.cumSubs[gi])
		key := uint64(gi)<<32 | uint64(idx)
		v := SessionView{Key: key, Group: d.cfg.Groups[gi].Name, Index: idx}
		if s, ok := d.table.Get(key); ok {
			v.Active = true
			v.Addr4 = netutil.AddrFromU32(s.Addr4).String()
			if s.Pfx6Len != 0 {
				v.Pfx6 = netip.PrefixFrom(netutil.AddrFrom128(s.Pfx6Hi, 0), int(s.Pfx6Len)).String()
			}
			v.Start = s.Start
			v.Expiry = s.Expiry
			v.Gen = s.Gen
			v.Renews = s.Renews
		}
		out = append(out, v)
	}
	return out
}

// watermark is the replay checkpoint: enough to re-derive the full
// state by deterministic replay, plus the identity that guards against
// resuming a different configuration or code version.
type watermark struct {
	ConfigHash string `json:"config_hash"`
	Code       string `json:"code"`
	Hours      int64  `json:"hours"`
}

const watermarkFile = "bng-watermark.json"

// ErrWatermarkMismatch reports a watermark written by a different
// configuration or code version.
var ErrWatermarkMismatch = errors.New("bng: checkpoint watermark does not match this config/code")

func (d *Daemon) writeWatermark() error {
	if err := os.MkdirAll(d.opt.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("bng: checkpoint dir: %w", err)
	}
	wm := watermark{ConfigHash: d.confHash, Code: checkpoint.CodeVersion(), Hours: d.Hours()}
	path := filepath.Join(d.opt.CheckpointDir, watermarkFile)
	return checkpoint.WriteFileAtomic(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(wm)
	})
}

// Resume replays churn up to the checkpoint watermark, if one exists.
// Deterministic replay reproduces the pre-crash state byte-for-byte.
// It returns the watermark hour (0 with no or fresh checkpoint) and
// ErrWatermarkMismatch when the watermark belongs to a different
// config or code version.
func (d *Daemon) Resume() (int64, error) {
	if d.opt.CheckpointDir == "" {
		return 0, nil
	}
	raw, err := os.ReadFile(filepath.Join(d.opt.CheckpointDir, watermarkFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("bng: reading watermark: %w", err)
	}
	var wm watermark
	if err := json.Unmarshal(raw, &wm); err != nil {
		return 0, fmt.Errorf("bng: decoding watermark: %w", err)
	}
	if wm.ConfigHash != d.confHash || wm.Code != checkpoint.CodeVersion() {
		return 0, ErrWatermarkMismatch
	}
	if wm.Hours <= d.Hours() {
		return wm.Hours, nil
	}
	if err := d.Churn(wm.Hours); err != nil {
		return 0, err
	}
	return wm.Hours, nil
}

// HAView is the /ha payload: the daemon's failover posture.
type HAView struct {
	Role     string `json:"role"`
	Policy   string `json:"policy"`
	Scenario string `json:"scenario,omitempty"`
	// FailoverHours lists fired failovers; NextFailoverHour is the next
	// scheduled one (0 = none pending).
	FailoverHours    []int64 `json:"failover_hours,omitempty"`
	NextFailoverHour int64   `json:"next_failover_hour"`
	VirtualHours     int64   `json:"virtual_hours"`
	TableHash        string  `json:"table_hash"`
}

// HA returns the daemon's high-availability posture.
func (d *Daemon) HA() HAView {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return HAView{
		Role:             d.role,
		Policy:           d.cfg.Scenario.EffectivePolicy(),
		Scenario:         d.cfg.Scenario.String(),
		FailoverHours:    append([]int64(nil), d.failovers...),
		NextFailoverHour: d.nextFail,
		VirtualHours:     d.cut.hours,
		TableHash:        d.cut.view.TableHash,
	}
}

// SetRole relabels the daemon (standby promotion); state is unaffected.
func (d *Daemon) SetRole(role string) {
	d.mu.Lock()
	d.role = role
	d.mu.Unlock()
}
