package bng

import (
	"bytes"
	"fmt"

	"dynamips/internal/bng/stripe"
)

// Pair couples an active daemon with a warm standby built from the same
// Config. Both replay the identical deterministic history — scenario
// included — so the standby's state is the active's state by
// construction; Sync proves it after every round by streaming the
// active's session table through the 48-byte wire codec and comparing
// record-for-record at the standby (the state-sync channel doubling as
// split-brain detection). Promote then makes a takeover a pure role
// swap: the survivor already holds the right state, lease-preserving or
// renumbered per the scenario's policy.
type Pair struct {
	active  *Daemon
	standby *Daemon
	syncs   int64
}

// NewPair builds the active/standby pair. The standby never owns the
// checkpoint watermark or the observer: those belong to whichever
// process is active.
func NewPair(cfg Config, opt Options) (*Pair, error) {
	activeOpt := opt
	activeOpt.Role = "active"
	a, err := New(cfg, activeOpt)
	if err != nil {
		return nil, err
	}
	standbyOpt := opt
	standbyOpt.Role = "standby"
	standbyOpt.CheckpointDir = ""
	standbyOpt.Obs = nil
	s, err := New(cfg, standbyOpt)
	if err != nil {
		return nil, err
	}
	return &Pair{active: a, standby: s}, nil
}

// Active returns the current active daemon.
func (p *Pair) Active() *Daemon { return p.active }

// Standby returns the current standby daemon.
func (p *Pair) Standby() *Daemon { return p.standby }

// Syncs returns how many state syncs have been verified.
func (p *Pair) Syncs() int64 { return p.syncs }

// Churn advances both daemons in lockstep rounds to the given virtual
// hour, verifying the standby against the active's encoded snapshot at
// every round boundary.
func (p *Pair) Churn(toHours int64) error {
	for {
		h := p.active.Hours()
		if h >= toHours {
			return nil
		}
		round := h + p.active.opt.RoundHours
		if round > toHours {
			round = toHours
		}
		if err := p.active.Churn(round); err != nil {
			return err
		}
		if err := p.standby.Churn(round); err != nil {
			return err
		}
		if err := p.Sync(); err != nil {
			return err
		}
	}
}

// Sync streams the active's session table through the wire codec and
// verifies the standby holds the identical state. A mismatch is a split
// brain: the pair's replay contract is broken and a takeover would
// corrupt assignments.
func (p *Pair) Sync() error {
	var buf bytes.Buffer
	if err := p.active.WriteSnapshot(&buf); err != nil {
		return fmt.Errorf("bng: ha sync encode: %w", err)
	}
	recs, err := stripe.DecodeSnapshot(&buf)
	if err != nil {
		return fmt.Errorf("bng: ha sync decode: %w", err)
	}
	_, mine := p.standby.Snapshot()
	if len(recs) != len(mine) {
		return fmt.Errorf("bng: ha split brain: active has %d sessions, standby %d", len(recs), len(mine))
	}
	for i := range recs {
		if recs[i] != mine[i] {
			return fmt.Errorf("bng: ha split brain at key %#x: active %+v, standby %+v", recs[i].Key, recs[i], mine[i])
		}
	}
	p.syncs++
	return nil
}

// Promote swaps roles after the active is lost. The promoted daemon's
// replayed state already reflects the scenario's recovery policy —
// preserved leases or a deterministic mass renumbering — so the swap
// itself touches no session state.
func (p *Pair) Promote() *Daemon {
	p.active, p.standby = p.standby, p.active
	p.active.SetRole("active")
	p.standby.SetRole("standby")
	return p.active
}
