package bng

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"dynamips/internal/bng/stripe"
)

// SnapshotHoursHeader carries the virtual hour of the round boundary a
// /snapshot response encodes, so a standby can tell a cut from another
// hour than the /ha it polled.
const SnapshotHoursHeader = "X-Dynamips-Virtual-Hours"

// Pagination limits for /sessions.
const (
	DefaultPageLimit = 100
	MaxPageLimit     = 1000
)

// SessionsPage is the /sessions payload. NextOffset is nil on the last
// page. Offsets index the stable subscriber-slot space (every
// configured subscriber has a slot whether or not it is online), so a
// paginated walk under churn never skips or repeats a slot.
type SessionsPage struct {
	Total      int           `json:"total"`
	Offset     int           `json:"offset"`
	Limit      int           `json:"limit"`
	NextOffset *int          `json:"next_offset"`
	Sessions   []SessionView `json:"sessions"`
}

// PoolsPayload is the /pools payload.
type PoolsPayload struct {
	Pools []PoolStats `json:"pools"`
}

// Handler returns the read-only API: GET /stats (cached round-boundary
// view, canonical JSON), GET /pools, GET /sessions?offset=&limit=,
// GET /ha (failover posture), GET /snapshot (the last round boundary's
// binary session-table codec stream a standby syncs from, with the
// boundary's hour in SnapshotHoursHeader), and GET /sketch (streaming
// summaries: ?op=quantile|topk|card&name=... or ?format=binary).
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", d.handleStats)
	mux.HandleFunc("/pools", d.handlePools)
	mux.HandleFunc("/sessions", d.handleSessions)
	mux.HandleFunc("/ha", d.handleHA)
	mux.HandleFunc("/snapshot", d.handleSnapshot)
	mux.HandleFunc("/sketch", d.handleSketch)
	return mux
}

// handleSketch serves the round-boundary streaming summaries: the full
// canonical view by default, a single quantile/topk/card answer under
// op=, or the CRC-framed binary set under format=binary.
func (d *Daemon) handleSketch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q, err := ParseSketchQuery(r.URL.RawQuery)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch q.Op {
	case "":
		w.Header().Set("Content-Type", "application/json")
		_ = d.WriteSketchJSON(w)
	case "binary":
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(d.SketchBinary())
	default:
		ans, err := d.QuerySketch(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(ans)
	}
}

// Connection timeouts for the API server. ReadTimeout caps the whole
// request read, WriteTimeout the response write — /snapshot streams a
// full session table, so it gets the largest budget — and IdleTimeout
// reaps keep-alive connections between generator pulls.
const (
	httpReadHeaderTimeout = 5 * time.Second
	httpReadTimeout       = 10 * time.Second
	httpWriteTimeout      = 60 * time.Second
	httpIdleTimeout       = 120 * time.Second
	// shutdownGrace bounds the graceful drain when the caller's context
	// has no deadline of its own.
	shutdownGrace = 5 * time.Second
)

// APIServer is the daemon's running northbound HTTP endpoint.
type APIServer struct {
	srv *http.Server
	ln  net.Listener
}

// Addr returns the bound listen address.
func (s *APIServer) Addr() string { return s.ln.Addr().String() }

// Shutdown drains in-flight requests, then closes whatever is left. The
// drain is always bounded: a caller context without a deadline gets
// shutdownGrace, so a wedged client can never block daemon exit.
func (s *APIServer) Shutdown(ctx context.Context) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, shutdownGrace)
		defer cancel()
	}
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return s.srv.Close()
	}
	return err
}

// Serve starts the read-only API on addr. The listener goroutine lives
// for the daemon's lifetime and is drained by Shutdown; it only reads
// the stripe table (per-shard locks, for /sessions) and the published
// round cut, never the engines.
func (d *Daemon) Serve(addr string) (*APIServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bng: api listener on %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           d.Handler(),
		ReadHeaderTimeout: httpReadHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		WriteTimeout:      httpWriteTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
	//lint:ignore goroutines background API listener joined by APIServer.Shutdown; read-only view of the striped table, never touches the engines
	go srv.Serve(ln) //nolint:errcheck // Shutdown surfaces as ErrServerClosed here
	return &APIServer{srv: srv, ln: ln}, nil
}

func (d *Daemon) handleHA(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(d.HA())
}

func (d *Daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	hours, snap := d.Snapshot()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(SnapshotHoursHeader, strconv.FormatInt(hours, 10))
	_ = stripe.EncodeSnapshot(w, snap)
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = d.WriteStats(w)
}

func (d *Daemon) handlePools(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	v := d.Stats()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(PoolsPayload{Pools: v.Pools})
}

func (d *Daemon) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	offset := 0
	if s := q.Get("offset"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			http.Error(w, "bad offset", http.StatusBadRequest)
			return
		}
		offset = v
	}
	limit := DefaultPageLimit
	if s := q.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = v
	}
	if limit > MaxPageLimit {
		limit = MaxPageLimit
	}
	total := d.cumSubs[len(d.cumSubs)-1]
	page := SessionsPage{
		Total:    total,
		Offset:   offset,
		Limit:    limit,
		Sessions: d.Sessions(offset, limit),
	}
	if n := offset + len(page.Sessions); len(page.Sessions) > 0 && n < total {
		page.NextOffset = &n
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(page)
}
