package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"time"

	"dynamips/internal/bng"
	"dynamips/internal/bng/stripe"
	"dynamips/internal/sketch"
)

// serveSize sizes the bng-serve workload.
type serveSize struct {
	subscribers int
	repHours    int64 // virtual hours per rep, one round each
	// standbyPoll and watchInterval are the readers' poll intervals.
	standbyPoll, watchInterval time.Duration
}

const (
	// requestTimeout bounds one API request.
	requestTimeout = 5 * time.Second
	// handlerProbes caps the iterations of each idle handler timing, and
	// handlerProbeTime its duration: /snapshot costs milliseconds where
	// the others cost microseconds.
	handlerProbes    = 200
	handlerProbeTime = 250 * time.Millisecond
	// barrierProbes is the iterations of the round-barrier component
	// timings, and idleSyncs the back-to-back standby polls of the idle
	// daemon.
	barrierProbes = 5
	idleSyncs     = 5
)

// apiRoutes are the routes the repository's clients read from a live
// daemon: the standby's /ha and /snapshot, watch's /sketch, and /stats,
// which gen atlas -bng and gen cdn -bng read once per run.
var apiRoutes = []struct{ name, path string }{
	{"ha", "/ha"},
	{"snapshot", "/snapshot"},
	{"sketch", "/sketch"},
	{"stats", "/stats"},
}

// served is a daemon with its API listening.
type served struct {
	d    *bng.Daemon
	srv  *bng.APIServer
	base string
}

// serveSetup builds the serve-bng default shape: the default groups,
// hourly rounds, the API on a loopback port, and every subscriber
// attached. It returns once the API has answered.
func (b *bench) serveSetup() (*served, error) {
	cfg := bng.DefaultConfig(b.opt.size.serve.subscribers, uint64(b.opt.seed))
	d, err := bng.New(cfg, bng.Options{Workers: benchWorkers, RoundHours: 1})
	if err != nil {
		return nil, err
	}
	if err := d.Churn(1); err != nil {
		return nil, err
	}
	srv, err := d.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{d: d, srv: srv, base: "http://" + srv.Addr()}
	cl, hc := s.client()
	defer hc.CloseIdleConnections()
	if _, err := cl.Stats(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// client returns a bng.Client on a connection of its own, without
// retries, so that every failed request is counted.
func (s *served) client() (*bng.Client, *http.Client) {
	hc := &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	return bng.NewClient(s.base, hc).WithRetry(0, 0), hc
}

func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// serveRound advances the daemon one virtual hour: one round and its
// barrier (sorted snapshot, table hash, sketch merge, JSON encode).
func serveRound(d *bng.Daemon) error { return d.Churn(d.Hours() + 1) }

// serveTimed gives every rep a fresh daemon and API server, set up
// before the rep, and polls it while the rep churns; as with bng-churn,
// every rep churns the same first day.
func (b *bench) serveTimed() (timing, error) {
	var t timing
	var s *served
	var p *pollers
	var first string
	err := b.reps(&t, func() error {
		var err error
		s, err = b.serveSetup()
		return err
	}, func() (float64, error) {
		p = startPollers(s, b.opt.size.serve)
		before := s.d.Stats().Events.Events
		for h := int64(0); h < b.opt.size.serve.repHours; h++ {
			if err := serveRound(s.d); err != nil {
				return 0, err
			}
		}
		return float64(s.d.Stats().Events.Events - before), nil
	}, func() error {
		res := p.stop()
		b.countPolls(res)
		t.latency = append(t.latency, res.sync...)
		b.led.sameDigest("bng-serve table", &first, s.d.Stats().TableHash)
		err := b.checkIdle(s)
		if cerr := s.close(); err == nil {
			err = cerr
		}
		s = nil
		return err
	})
	return t, err
}

// serveTraced runs one traced rep under the readers, then polls the idle
// daemon and times each handler and the round barrier's components on
// their own.
func (b *bench) serveTraced() (time.Duration, error) {
	s, err := b.serveSetup()
	if err != nil {
		return 0, err
	}
	defer s.close()
	tr := b.tr
	p := startPollers(s, b.opt.size.serve)
	root := tr.begin("bng-serve", 0, 0)
	before := s.d.Stats().Events.Events
	for h := int64(0); h < b.opt.size.serve.repHours; h++ {
		r := tr.begin("bng.round", root, 0)
		err := serveRound(s.d)
		tr.end(r, 0)
		if err != nil {
			p.stop()
			return 0, err
		}
	}
	tr.end(root, int64(s.d.Stats().Events.Events-before))
	res := p.stop()
	b.countPolls(res)

	rounds := scaled(seconds(tr.durations(root, "bng.round")), 1e3)
	b.layer("bng.round_ms_p50", "ms", rounds...)
	b.record(summarizeAt(perLayer, "bng.round_ms_max", "ms", 1, rounds))
	b.layer("bng.api.ha_ms", "ms", res.ha...)
	b.layer("bng.api.snapshot_ms", "ms", res.snapshot...)
	b.layer("bng.api.sketch_ms", "ms", res.sketch...)
	idle, err := b.idleSyncs(s)
	if err != nil {
		return 0, err
	}
	b.layer("bng.api.idle_sync_ms", "ms", idle...)
	if err := b.checkIdle(s); err != nil {
		return 0, err
	}
	if err := b.handlerProbes(s.d); err != nil {
		return 0, err
	}
	return tr.duration(root), b.barrierProbes(s.d)
}

// countPolls adds a polling run's requests to the ledger.
func (b *bench) countPolls(r pollResult) {
	b.led.ops(r.attempted, r.failed)
	if r.firstErr != nil {
		b.led.failures = append(b.led.failures, fmt.Sprintf("%s API: %v", b.workload, r.firstErr))
	}
}

// checkIdle checks, with churn stopped, that the API serves exactly what
// the daemon holds: /stats is Daemon.WriteStats, /ha is Daemon.HA, and
// /snapshot decodes to the sorted session table, the standby's
// split-brain check.
func (b *bench) checkIdle(s *served) error {
	cl, hc := s.client()
	defer hc.CloseIdleConnections()
	stats, err := get(hc, s.base+"/stats")
	if err != nil {
		return err
	}
	var want bytes.Buffer
	if err := s.d.WriteStats(&want); err != nil {
		return err
	}
	b.led.check(bytes.Equal(stats, want.Bytes()), "%s: /stats body differs from Daemon.WriteStats", b.workload)
	ha, err := cl.HA()
	if err != nil {
		return err
	}
	b.led.check(reflect.DeepEqual(ha, s.d.HA()), "%s: /ha %+v, Daemon.HA %+v", b.workload, ha, s.d.HA())
	recs, err := cl.Snapshot()
	if err != nil {
		return err
	}
	b.led.check(slices.Equal(recs, s.d.Table().SnapshotSorted()), "%s: /snapshot differs from the sorted session table", b.workload)
	return nil
}

// get fetches url and returns the body of a 200 response.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// idleSyncs times standby polls of the idle daemon back to back, in
// milliseconds.
func (b *bench) idleSyncs(s *served) ([]float64, error) {
	cl, hc := s.client()
	defer hc.CloseIdleConnections()
	var out []float64
	for i := 0; i < idleSyncs; i++ {
		start := time.Now()
		if _, err := cl.HA(); err != nil {
			return nil, err
		}
		if _, err := cl.Snapshot(); err != nil {
			return nil, err
		}
		out = append(out, msSince(start))
	}
	return out, nil
}

// handlerProbes times Handler().ServeHTTP per route on the idle daemon,
// without the network.
func (b *bench) handlerProbes(d *bng.Daemon) error {
	h := d.Handler()
	for _, r := range apiRoutes {
		var us []float64
		begin := time.Now()
		for i := 0; i < handlerProbes && (i < 3 || time.Since(begin) < handlerProbeTime); i++ {
			req := httptest.NewRequest(http.MethodGet, r.path, nil)
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, req)
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler probe %s: status %d", r.path, rec.Code)
			}
		}
		b.layer("bng.api."+r.name+"_handler_us", "us", us...)
	}
	return nil
}

// barrierProbes times, on the idle daemon, what every round's barrier
// does: the sorted snapshot and its hash, the snapshot codec a standby
// syncs through, and a decode and merge of the engines' sketch set.
func (b *bench) barrierProbes(d *bng.Daemon) error {
	var snapMS, hashMS, encMS, decMS, mergeUS []float64
	for i := 0; i < barrierProbes; i++ {
		start := time.Now()
		snap := d.Table().SnapshotSorted()
		snapMS = append(snapMS, msSince(start))
		start = time.Now()
		stripe.Hash(snap)
		hashMS = append(hashMS, msSince(start))
		var buf bytes.Buffer
		start = time.Now()
		if err := stripe.EncodeSnapshot(&buf, snap); err != nil {
			return err
		}
		encMS = append(encMS, msSince(start))
		start = time.Now()
		got, err := stripe.DecodeSnapshot(&buf)
		if err != nil {
			return err
		}
		decMS = append(decMS, msSince(start))
		b.led.check(len(got) == len(snap), "bng-serve: snapshot round trip kept %d of %d sessions", len(got), len(snap))
		bin := d.SketchBinary()
		start = time.Now()
		acc, err := sketch.DecodeSet(bin)
		if err != nil {
			return err
		}
		part, err := sketch.DecodeSet(bin)
		if err != nil {
			return err
		}
		if err := acc.Merge(part); err != nil {
			return err
		}
		mergeUS = append(mergeUS, msSince(start)*1e3)
	}
	b.layer("stripe.snapshot_sorted_ms", "ms", snapMS...)
	b.layer("stripe.hash_ms", "ms", hashMS...)
	b.layer("stripe.encode_snapshot_ms", "ms", encMS...)
	b.layer("stripe.decode_snapshot_ms", "ms", decMS...)
	b.layer("sketch.decode_merge_us", "us", mergeUS...)
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// pollers are bng-serve's readers: the two clients the repository ships
// for a live daemon, each a closed loop on a keep-alive connection of its
// own that waits its interval between polls, as they do. The standby
// (serve-bng -standby, -poll 1s) syncs with GET /ha, then pulls GET
// /snapshot through the session codec. The watcher (dynamips watch -bng,
// -interval 2s) reads GET /sketch. Both go through bng.Client, the code
// those commands use. Both poll first when the rep starts, so that every
// rep has a poll of each, however fast it churns.
type pollers struct {
	quit chan struct{}
	wg   sync.WaitGroup
	// mu guards res, which both pollers write.
	mu  sync.Mutex
	res pollResult
}

// pollResult is what one polling run observed. Latencies are in
// milliseconds; sync is a standby poll's /ha and /snapshot together.
type pollResult struct {
	ha, snapshot, sync, sketch []float64
	attempted, failed          int64
	firstErr                   error
}

func startPollers(s *served, size serveSize) *pollers {
	p := &pollers{quit: make(chan struct{})}
	p.wg.Add(2)
	standby, hcStandby := s.client()
	watch, hcWatch := s.client()
	go p.standby(standby, hcStandby, size.standbyPoll)
	go p.watch(watch, hcWatch, size.watchInterval)
	return p
}

// wait sleeps d and reports false if the pollers were stopped meanwhile.
// A poller's loop is "poll, then wait", so it polls at least once.
func (p *pollers) wait(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-p.quit:
		return false
	case <-t.C:
		return true
	}
}

// done records one poll; what is nil unless the poll failed.
func (p *pollers) done(record func(*pollResult), what error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.res.attempted++
	if what != nil {
		p.res.failed++
		if p.res.firstErr == nil {
			p.res.firstErr = what
		}
		return
	}
	record(&p.res)
}

func (p *pollers) standby(cl *bng.Client, hc *http.Client, every time.Duration) {
	defer p.wg.Done()
	defer hc.CloseIdleConnections()
	var hours int64
	for ok := true; ok; ok = p.wait(every) {
		start := time.Now()
		ha, err := cl.HA()
		haMS := msSince(start)
		if err == nil && (ha.VirtualHours < hours || ha.TableHash == "") {
			err = fmt.Errorf("/ha at hour %d after hour %d, table hash %q", ha.VirtualHours, hours, ha.TableHash)
		}
		var snapMS float64
		if err == nil {
			hours = ha.VirtualHours
			mid := time.Now()
			var recs []stripe.Session
			recs, err = cl.Snapshot()
			snapMS = msSince(mid)
			if err == nil && len(recs) == 0 {
				err = fmt.Errorf("/snapshot: no sessions")
			}
		}
		syncMS := msSince(start)
		p.done(func(r *pollResult) {
			r.ha = append(r.ha, haMS)
			r.snapshot = append(r.snapshot, snapMS)
			r.sync = append(r.sync, syncMS)
		}, err)
	}
}

func (p *pollers) watch(cl *bng.Client, hc *http.Client, every time.Duration) {
	defer p.wg.Done()
	defer hc.CloseIdleConnections()
	var hours int64
	for ok := true; ok; ok = p.wait(every) {
		start := time.Now()
		v, err := cl.Sketch()
		ms := msSince(start)
		if err == nil && (v.VirtualHours < hours || len(v.Sketches) == 0) {
			err = fmt.Errorf("/sketch at hour %d after hour %d with %d sketches", v.VirtualHours, hours, len(v.Sketches))
		}
		if err == nil {
			hours = v.VirtualHours
		}
		p.done(func(r *pollResult) { r.sketch = append(r.sketch, ms) }, err)
	}
}

// stop ends both pollers, waits for the polls in flight, and returns
// what the run observed.
func (p *pollers) stop() pollResult {
	close(p.quit)
	p.wg.Wait()
	return p.res
}
