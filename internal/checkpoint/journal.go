package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"dynamips/internal/obs"
)

// Journal file layout: an 8-byte file header followed by length-prefixed,
// CRC-32C-checksummed frames, one per completed work unit, appended in
// strictly increasing unit order:
//
//	file   := header frame*
//	header := "DYNWAL01"                                  (8 bytes)
//	frame  := magic index length crc payload
//	magic  := "DJF1"                                      (4 bytes)
//	index  := uint32 BE   unit index; must equal the frame's position
//	length := uint32 BE   payload byte count
//	crc    := uint32 BE   CRC-32C over index||length||payload
//	payload:= length bytes, the unit's encoded result
//
// Because frames land in index order, the set of intact frames is always a
// contiguous prefix of the run's units; recovery truncates at the first
// corrupt or torn frame and the pipeline recomputes from there.

const (
	fileHeader      = "DYNWAL01"
	frameMagic      = "DJF1"
	frameHdrSize    = 16 // magic + index + length + crc
	maxFramePayload = 1 << 30
	// syncEvery bounds how many appended frames may sit unsynced: the
	// journal fsyncs every syncEvery-th append (and on Sync/Close). A
	// power loss can cost at most that many units; a plain process crash
	// costs none, since appends are single unbuffered writes.
	syncEvery = 32
)

// ErrCrashInjected is returned by Append when the configured crash plan
// fires (see SetCrashPlan): the deterministic stand-in for a SIGKILL at a
// journal sync point.
var ErrCrashInjected = errors.New("checkpoint: crash injected")

// Journal is one stage's write-ahead log of completed work units.
type Journal struct {
	f           *os.File
	path        string
	payloads    [][]byte // frames recovered at open, unit 0..len-1
	next        uint32   // index the next Append must carry
	unsynced    int
	truncations int64 // corruption-recovery truncations during open
	units       *obs.Counter
	logf        func(format string, args ...any)
}

// SetObserver attaches o to the journal: completed work units count under
// journal_units{stage=...}, whether they were replayed from disk at open
// or appended live afterwards. Counting units instead of append/replay
// events keeps the metric resume-invariant — a run killed and resumed at
// any point reports exactly the same totals as an uninterrupted one.
// Recovery truncations are diagnostics of a particular crash, not of the
// computation, so they go to the run log only. A nil o is a no-op.
func (j *Journal) SetObserver(o *obs.Observer, stage string) {
	if o == nil {
		return
	}
	j.units = o.Counter("journal_units", obs.L("stage", stage))
	j.units.Add(int64(len(j.payloads)))
}

// OpenJournal opens (or creates) a journal, scanning any existing frames.
// Corruption — a bad file header, a torn or checksum-failing frame, an
// out-of-sequence index — is never an error: the journal is truncated at
// the last intact frame, a warning goes to logf, and the scan's survivors
// are exposed via Payloads. logf may be nil.
func OpenJournal(path string, logf func(format string, args ...any)) (*Journal, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening journal %s: %w", path, err)
	}
	j := &Journal{f: f, path: path, logf: logf}
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// recover scans the journal, truncating at the first sign of corruption.
func (j *Journal) recover() error {
	st, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("checkpoint: stat %s: %w", j.path, err)
	}
	size := st.Size()
	if size == 0 {
		if _, err := j.f.Write([]byte(fileHeader)); err != nil {
			return fmt.Errorf("checkpoint: writing journal header %s: %w", j.path, err)
		}
		return nil
	}
	hdr := make([]byte, len(fileHeader))
	if _, err := io.ReadFull(j.f, hdr); err != nil || string(hdr) != fileHeader {
		j.logf("journal %s: unrecognized file header; discarding journal", j.path)
		return j.truncate(0, true)
	}
	off := int64(len(fileHeader))
	var frame [frameHdrSize]byte
	for off < size {
		if size-off < frameHdrSize {
			j.logf("journal %s: %d trailing bytes are a torn frame header; truncating", j.path, size-off)
			return j.truncate(off, false)
		}
		if _, err := io.ReadFull(j.f, frame[:]); err != nil {
			return fmt.Errorf("checkpoint: reading %s at %d: %w", j.path, off, err)
		}
		index := binary.BigEndian.Uint32(frame[4:8])
		length := binary.BigEndian.Uint32(frame[8:12])
		sum := binary.BigEndian.Uint32(frame[12:16])
		switch {
		case string(frame[:4]) != frameMagic:
			j.logf("journal %s: bad frame magic at offset %d; truncating", j.path, off)
			return j.truncate(off, false)
		case index != j.next:
			j.logf("journal %s: frame at offset %d has index %d, want %d; truncating", j.path, off, index, j.next)
			return j.truncate(off, false)
		case int64(length) > size-off-frameHdrSize || length > maxFramePayload:
			j.logf("journal %s: frame %d claims %d payload bytes with %d available; truncating torn frame",
				j.path, index, length, size-off-frameHdrSize)
			return j.truncate(off, false)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(j.f, payload); err != nil {
			return fmt.Errorf("checkpoint: reading %s frame %d: %w", j.path, index, err)
		}
		if frameCRC(index, payload) != sum {
			j.logf("journal %s: frame %d failed CRC-32C; truncating", j.path, index)
			return j.truncate(off, false)
		}
		j.payloads = append(j.payloads, payload)
		j.next++
		off += frameHdrSize + int64(length)
	}
	return nil
}

// truncate cuts the journal at off (re-writing the file header when the
// existing one was bad) and positions the write cursor at the new end.
func (j *Journal) truncate(off int64, rewriteHeader bool) error {
	j.truncations++
	if rewriteHeader {
		off = int64(len(fileHeader))
		if _, err := j.f.WriteAt([]byte(fileHeader), 0); err != nil {
			return fmt.Errorf("checkpoint: rewriting journal header %s: %w", j.path, err)
		}
	}
	if err := j.f.Truncate(off); err != nil {
		return fmt.Errorf("checkpoint: truncating %s to %d: %w", j.path, off, err)
	}
	if _, err := j.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("checkpoint: seeking %s: %w", j.path, err)
	}
	return nil
}

// Payloads returns the recovered unit payloads: a contiguous prefix of the
// run's units. The caller must not mutate them.
func (j *Journal) Payloads() [][]byte { return j.payloads }

// Next returns the index the next Append must carry.
func (j *Journal) Next() int { return int(j.next) }

// frameCRC computes a frame's CRC-32C over index, length, and payload.
func frameCRC(index uint32, payload []byte) uint32 {
	var pre [8]byte
	binary.BigEndian.PutUint32(pre[0:4], index)
	binary.BigEndian.PutUint32(pre[4:8], uint32(len(payload)))
	crc := crc32.New(castagnoli)
	crc.Write(pre[:])
	crc.Write(payload)
	return crc.Sum32()
}

// Append journals one completed unit. Units must arrive in index order
// (parallel.MapErrOrdered guarantees this), so the on-disk frames are
// always a contiguous prefix. The frame goes out in a single unbuffered
// write; fsync happens every syncEvery appends and on Sync/Close.
func (j *Journal) Append(index int, payload []byte) error {
	if index != int(j.next) {
		return fmt.Errorf("checkpoint: journal %s: append index %d out of order, want %d", j.path, index, j.next)
	}
	if len(payload) > maxFramePayload {
		return fmt.Errorf("checkpoint: journal %s: %d-byte payload exceeds frame limit", j.path, len(payload))
	}
	frame := make([]byte, frameHdrSize+len(payload))
	copy(frame[0:4], frameMagic)
	binary.BigEndian.PutUint32(frame[4:8], j.next)
	binary.BigEndian.PutUint32(frame[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[12:16], frameCRC(j.next, payload))
	copy(frame[frameHdrSize:], payload)
	if torn, crashed := crashTicket(); crashed {
		if torn && len(frame) > 1 {
			j.f.Write(frame[:1+len(frame)/2]) //nolint:errcheck // simulating a kill mid-write
		}
		return ErrCrashInjected
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("checkpoint: appending to %s: %w", j.path, err)
	}
	j.units.Inc()
	j.next++
	j.unsynced++
	if j.unsynced >= syncEvery {
		return j.Sync()
	}
	return nil
}

// Sync fsyncs pending appends.
func (j *Journal) Sync() error {
	if j.unsynced == 0 {
		return nil
	}
	j.unsynced = 0
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing %s: %w", j.path, err)
	}
	return nil
}

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	serr := j.Sync()
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", j.path, cerr)
	}
	return nil
}

// Crash plan: the deterministic crash-injection harness behind the
// kill-and-resume tests. SetCrashPlan(k, torn) makes the k-th journal
// Append across the process fail with ErrCrashInjected instead of (torn:
// after partially) writing its frame. Because appends are single
// unbuffered writes with no user-space buffering, the file state this
// leaves is byte-identical to what a SIGKILL at the same sync point would
// leave, so in-process tests exercise real kill semantics.
var crash struct {
	mu    sync.Mutex
	after int // 0 disables
	torn  bool
	count int
}

// SetCrashPlan arms (afterAppends > 0) or disarms (afterAppends <= 0) the
// crash plan and resets the process-wide append counter.
func SetCrashPlan(afterAppends int, torn bool) {
	crash.mu.Lock()
	defer crash.mu.Unlock()
	crash.after = max(afterAppends, 0)
	crash.torn = torn
	crash.count = 0
}

// crashTicket advances the append counter and reports whether this append
// is the planned crash point.
func crashTicket() (torn, crashed bool) {
	crash.mu.Lock()
	defer crash.mu.Unlock()
	if crash.after == 0 {
		return false, false
	}
	crash.count++
	return crash.torn, crash.count == crash.after
}
