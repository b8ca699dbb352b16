package stream

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"dynamips/internal/cdn"
	"dynamips/internal/checkpoint"
	"dynamips/internal/parallel"
)

// GenConfig configures the streaming generate path.
type GenConfig struct {
	// Gen is the shared generation model; its Checkpoint, Obs, and
	// Workers fields drive this path exactly as they drive cdn.Generate.
	Gen cdn.GenConfig
	// SpillDir overrides where per-operator spill files live (see
	// ensureSpillDir for the default resolution).
	SpillDir string
}

// genMeta is the journaled result of one operator unit: its spill file
// plus the counts the pipeline's counters need. Size lets a resume
// re-validate the file before trusting it.
type genMeta struct {
	File       string
	Raw        int64
	Kept       int64
	Mismatches int64
	Size       int64
}

// Generate streams the synthetic dataset to w as CSV without ever
// holding more than one codec chunk per worker in memory: each operator
// unit streams its associations through the ASN-mismatch filter into a
// binary spill file (journaled, so interrupted runs resume), then the
// spills are concatenated in operator order through the append-based CSV
// encoder, batches formatted on the workers and written in order. For
// the same normalized config the output is byte-identical to
// cdn.WriteCSV over cdn.Generate's dataset, at any worker count.
func Generate(cfg GenConfig, w io.Writer) error {
	gen := cfg.Gen.Normalized()
	if err := gen.Validate(); err != nil {
		return err
	}
	dir, temp, err := ensureSpillDir(cfg.SpillDir, gen.Checkpoint)
	if err != nil {
		return err
	}
	if temp {
		defer os.RemoveAll(dir)
	}
	g := &generator{cfg: gen, env: cdn.NewEnv(gen.OperatorSet()), dir: dir}
	n := len(g.env.Ops)
	span := gen.Obs.StartSpan("cdn/generate")
	metas, err := checkpoint.Stage(gen.Checkpoint, "cdn-stream-gen", n, gen.Workers,
		g.unit, checkpoint.GobEncode[genMeta], g.decMeta)
	if err != nil {
		return err
	}
	gen.Obs.Advance(int64(n))
	span.End()
	var raw, kept, mism int64
	unitHist := gen.Obs.Histogram("cdn_stream_unit_records", unitBounds)
	for i := range metas {
		raw += metas[i].Raw
		kept += metas[i].Kept
		mism += metas[i].Mismatches
		unitHist.Observe(metas[i].Kept)
	}
	gen.Obs.Counter("cdn_assocs_raw").Add(raw)
	gen.Obs.Counter("cdn_assocs_filtered").Add(kept)
	gen.Obs.Counter("cdn_mismatches_dropped").Add(mism)

	bw := bufio.NewWriterSize(w, 1<<16)
	if err := cdn.WriteCSVHeader(bw); err != nil {
		return err
	}
	if err := writeCSVTail(bw, dir, metas, gen.Workers); err != nil {
		return err
	}
	return bw.Flush()
}

// writeCSVTail re-encodes the operator spills, in operator order, as CSV
// rows into bw: batches decode from the spills serially, format on up to
// workers goroutines, and are written in the order they were decoded.
func writeCSVTail(bw *bufio.Writer, dir string, metas []genMeta, workers int) error {
	t := &csvTail{dir: dir, metas: metas, w: bw}
	defer t.close()
	return parallel.Pipeline(workers, t.fill, encodeCSVBatch, t.write)
}

// generator carries the run state so the stage hooks are method values
// (hot-path rule: no capturing closures).
type generator struct {
	cfg cdn.GenConfig
	env *cdn.Env
	dir string
}

// unit generates one operator's filtered associations into its spill
// file and returns the journaled meta.
func (g *generator) unit(oi int) (genMeta, error) {
	name := "gen-" + strconv.Itoa(oi) + ".bin"
	sf, err := createSpill(filepath.Join(g.dir, name))
	if err != nil {
		return genMeta{}, err
	}
	e := &genEmitter{w: sf.cw, env: g.env}
	if err := cdn.EmitOperator(oi, g.cfg, e.emit); err != nil {
		sf.abort()
		return genMeta{}, err
	}
	size, err := sf.finish()
	if err != nil {
		return genMeta{}, err
	}
	return genMeta{File: name, Raw: e.raw, Kept: e.kept, Mismatches: e.mism, Size: size}, nil
}

func (g *generator) decMeta(b []byte) (genMeta, error) {
	m, err := checkpoint.GobDecode[genMeta](b)
	if err != nil {
		return genMeta{}, err
	}
	if err := validateSpill(filepath.Join(g.dir, m.File), m.Size); err != nil {
		return genMeta{}, err
	}
	return m, nil
}

// csvBatchRecords bounds one batch of Generate's CSV tail: the chunk
// codec's chunk size, so a batch's text stays near 200 KiB.
const csvBatchRecords = chunkRecords

// csvBatch is one pipeline slot of Generate's CSV tail: up to
// csvBatchRecords spill records and their CSV rows.
type csvBatch struct {
	recs []cdn.Association
	text []byte
}

// csvTail is the producer and commit state of writeCSVTail's pipeline.
type csvTail struct {
	dir   string
	metas []genMeta
	next  int // index of the next spill to open
	f     *os.File
	r     *Reader
	w     *bufio.Writer
}

func (t *csvTail) fill(b *csvBatch) (bool, error) {
	if b.recs == nil {
		b.recs = make([]cdn.Association, 0, csvBatchRecords)
	}
	b.recs = b.recs[:0]
	for len(b.recs) < csvBatchRecords {
		if t.r == nil {
			if t.next == len(t.metas) {
				break
			}
			f, r, err := openSpill(filepath.Join(t.dir, t.metas[t.next].File))
			if err != nil {
				return false, err
			}
			t.f, t.r = f, r
			t.next++
		}
		a, ok, err := t.r.Next()
		if err != nil {
			return false, err
		}
		if !ok {
			t.close()
			continue
		}
		b.recs = append(b.recs, a)
	}
	return len(b.recs) > 0, nil
}

func (t *csvTail) close() {
	if t.f != nil {
		t.f.Close()
		t.f, t.r = nil, nil
	}
}

func encodeCSVBatch(b *csvBatch) error {
	b.text = b.text[:0]
	for i := range b.recs {
		b.text = cdn.AppendCSVRow(b.text, b.recs[i])
	}
	return nil
}

func (t *csvTail) write(b *csvBatch) error {
	if _, err := t.w.Write(b.text); err != nil {
		return wrap("stream: writing csv rows", err)
	}
	return nil
}

// genEmitter applies the ASN-mismatch pre-filter in generation order —
// the filter is per-record, so filtering inside each operator stream is
// equivalent to the oracle's post-concatenation pass.
type genEmitter struct {
	w    *Writer
	env  *cdn.Env
	raw  int64
	kept int64
	mism int64
}

func (e *genEmitter) emit(a cdn.Association) error {
	e.raw++
	if !e.env.Keep(a) {
		e.mism++
		return nil
	}
	e.kept++
	return e.w.Append(a)
}
