package bng

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"dynamips/internal/bng/stripe"
	"dynamips/internal/sketch"
)

// Retry defaults: up to DefaultRetries re-attempts on transient errors,
// with a deterministic doubling backoff starting at DefaultRetryBase
// (250ms, 500ms, 1s, 2s — no jitter, so retry schedules are
// reproducible in tests and logs).
const (
	DefaultRetries   = 4
	DefaultRetryBase = 250 * time.Millisecond
)

// Client reads a live serve-bng daemon's API: the hook the atlas and
// CDN generators use to pull assignment-plane ground truth from a
// running BNG instead of in-process servers. Transient failures —
// connection errors and 5xx responses, the signature of an active
// daemon dying mid-pull during a failover — are retried with a bounded
// deterministic backoff so a generator survives a takeover window.
type Client struct {
	base string
	hc   *http.Client
	ctx  context.Context

	retries   int
	retryBase time.Duration
}

// NewClient builds a client for the daemon at base (e.g.
// "http://127.0.0.1:8447"). A nil hc uses http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{
		base:      strings.TrimRight(base, "/"),
		hc:        hc,
		ctx:       context.Background(),
		retries:   DefaultRetries,
		retryBase: DefaultRetryBase,
	}
}

// WithRetry overrides the retry budget; retries <= 0 disables retrying
// and base <= 0 keeps the default backoff. Returns the client.
func (c *Client) WithRetry(retries int, base time.Duration) *Client {
	c.retries = retries
	if base > 0 {
		c.retryBase = base
	}
	return c
}

// WithContext attaches a cancellation context: in-flight requests and
// backoff sleeps abort when it is done. Returns the client.
func (c *Client) WithContext(ctx context.Context) *Client {
	if ctx != nil {
		c.ctx = ctx
	}
	return c
}

// statusError is a non-2xx response; 5xx ones are transient.
type statusError struct {
	code   int
	status string
}

func (e *statusError) Error() string { return "status " + e.status }

// transient reports whether the error is worth a retry: anything except
// a non-5xx HTTP status (4xx means the request itself is wrong).
func transient(err error) bool {
	if se, ok := err.(*statusError); ok {
		return se.code >= 500
	}
	return true
}

// fetch GETs path with the retry budget, handing each successful
// response to read. Bodies are fully consumed per attempt, so a decode
// error mid-stream (the daemon died mid-response) retries too.
func (c *Client) fetch(path string, read func(*http.Response) error) error {
	delay := c.retryBase
	var err error
	for attempt := 0; ; attempt++ {
		err = c.fetchOnce(path, read)
		if err == nil {
			return nil
		}
		if c.ctx.Err() != nil || attempt >= c.retries || !transient(err) {
			return fmt.Errorf("bng: GET %s: %w", path, err)
		}
		t := time.NewTimer(delay)
		select {
		case <-c.ctx.Done():
			t.Stop()
			return fmt.Errorf("bng: GET %s: %w (last error: %v)", path, c.ctx.Err(), err)
		case <-t.C:
		}
		delay *= 2
	}
}

func (c *Client) fetchOnce(path string, read func(*http.Response) error) error {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode, status: resp.Status}
	}
	return read(resp)
}

func (c *Client) get(path string, into any) error {
	return c.fetch(path, func(resp *http.Response) error {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			return fmt.Errorf("decoding: %w", err)
		}
		return nil
	})
}

// Stats fetches /stats.
func (c *Client) Stats() (StatsView, error) {
	var v StatsView
	err := c.get("/stats", &v)
	return v, err
}

// Pools fetches /pools.
func (c *Client) Pools() ([]PoolStats, error) {
	var p PoolsPayload
	if err := c.get("/pools", &p); err != nil {
		return nil, err
	}
	return p.Pools, nil
}

// Sessions fetches one /sessions page.
func (c *Client) Sessions(offset, limit int) (SessionsPage, error) {
	var p SessionsPage
	err := c.get("/sessions?offset="+strconv.Itoa(offset)+"&limit="+strconv.Itoa(limit), &p)
	return p, err
}

// AllSessions walks the full paginated listing, calling fn per page.
func (c *Client) AllSessions(limit int, fn func(SessionsPage) error) error {
	offset := 0
	for {
		page, err := c.Sessions(offset, limit)
		if err != nil {
			return err
		}
		if err := fn(page); err != nil {
			return err
		}
		if page.NextOffset == nil {
			return nil
		}
		offset = *page.NextOffset
	}
}

// HA fetches /ha, the daemon's failover posture.
func (c *Client) HA() (HAView, error) {
	var v HAView
	err := c.get("/ha", &v)
	return v, err
}

// Sketch fetches the full /sketch summary view.
func (c *Client) Sketch() (SketchView, error) {
	var v SketchView
	err := c.get("/sketch", &v)
	return v, err
}

// SketchQuantile fetches one quantile answer from /sketch.
func (c *Client) SketchQuantile(name string, p float64) (QuantileAnswer, error) {
	var a QuantileAnswer
	err := c.get("/sketch?op=quantile&name="+url.QueryEscape(name)+
		"&p="+strconv.FormatFloat(p, 'g', -1, 64), &a)
	return a, err
}

// SketchTopK fetches one heavy-hitter answer from /sketch.
func (c *Client) SketchTopK(name string, k int) (TopKAnswer, error) {
	var a TopKAnswer
	err := c.get("/sketch?op=topk&name="+url.QueryEscape(name)+"&k="+strconv.Itoa(k), &a)
	return a, err
}

// SketchCard fetches one cardinality answer from /sketch.
func (c *Client) SketchCard(name string) (CardAnswer, error) {
	var a CardAnswer
	err := c.get("/sketch?op=card&name="+url.QueryEscape(name), &a)
	return a, err
}

// SketchSet fetches /sketch?format=binary and decodes the CRC-framed
// set — the mergeable form a watcher folds across daemons or rounds.
func (c *Client) SketchSet() (*sketch.Set, error) {
	var s *sketch.Set
	err := c.fetch("/sketch?format=binary", func(resp *http.Response) error {
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		s, err = sketch.DecodeSet(raw)
		return err
	})
	return s, err
}

// Snapshot fetches /snapshot and decodes the session-table codec
// stream: the standby's state-sync pull.
func (c *Client) Snapshot() ([]stripe.Session, error) {
	_, recs, err := c.SnapshotAt()
	return recs, err
}

// SnapshotAt is Snapshot plus the virtual hour of the round boundary
// the daemon cut the table at (SnapshotHoursHeader). A standby compares
// only cuts from the hour it has replayed to; an active that moved on
// between polls answers with a later hour.
func (c *Client) SnapshotAt() (int64, []stripe.Session, error) {
	var (
		hours int64
		recs  []stripe.Session
	)
	err := c.fetch("/snapshot", func(resp *http.Response) error {
		h, err := strconv.ParseInt(resp.Header.Get(SnapshotHoursHeader), 10, 64)
		if err != nil {
			return fmt.Errorf("%s header: %w", SnapshotHoursHeader, err)
		}
		var buf bytes.Buffer
		if _, err := io.Copy(&buf, resp.Body); err != nil {
			return err
		}
		recs, err = stripe.DecodeSnapshot(&buf)
		hours = h
		return err
	})
	return hours, recs, err
}
