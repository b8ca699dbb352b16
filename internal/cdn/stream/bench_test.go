package stream

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dynamips/internal/cdn"
	"dynamips/internal/parallel"
)

// The per-stage benchmarks time one phase of the streaming path at a
// time, each parallel phase at one and two workers, and report ns/record
// so a stage's before and after compare directly:
//
//	go test -run '^$' -bench 'GenerateUnits|GenerateTail|Partition|ShardUnit|Reduce' ./internal/cdn/stream
//
// Their input is a tenth of the cdn-stream benchmark workload: about
// 315 000 associations. ns/record divides by that dataset size (the
// records Generate keeps) in every stage.

var benchWorkers = []int{1, 2}

// benchThreshold is the mobile degree threshold of the experiments and
// the cdn-stream workload (experiments.MobileDegreeThreshold).
const benchThreshold = 350

func benchGenConfig() cdn.GenConfig {
	cfg := cdn.DefaultGenConfig(20201201)
	cfg.Scale = 0.1
	cfg.Days = 150
	return cfg.Normalized()
}

// benchSpills runs Generate's operator units into dir and returns their
// metas and the number of records they kept.
func benchSpills(b *testing.B, dir string) ([]genMeta, int64) {
	b.Helper()
	gen := benchGenConfig()
	g := &generator{cfg: gen, env: cdn.NewEnv(gen.OperatorSet()), dir: dir}
	metas, err := parallel.MapErr(len(g.env.Ops), 0, g.unit)
	if err != nil {
		b.Fatal(err)
	}
	var recs int64
	for i := range metas {
		recs += metas[i].Kept
	}
	return metas, recs
}

// benchCSV writes the benchmark dataset's CSV and returns its path and
// record count.
func benchCSV(b *testing.B) (string, int64) {
	b.Helper()
	dir := b.TempDir()
	metas, recs := benchSpills(b, dir)
	path := filepath.Join(dir, "assocs.csv")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := cdn.WriteCSVHeader(bw); err != nil {
		b.Fatal(err)
	}
	if err := writeCSVTail(bw, dir, metas, 0); err != nil {
		b.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	return path, recs
}

func reportPerRecord(b *testing.B, recs int64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*recs), "ns/record")
}

// BenchmarkGenerateUnits times Generate's operator units: emit every
// operator's raw associations, filter them, and write the kept ones to
// the operator's spill file.
func BenchmarkGenerateUnits(b *testing.B) {
	gen := benchGenConfig()
	env := cdn.NewEnv(gen.OperatorSet())
	for _, workers := range benchWorkers {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			g := &generator{cfg: gen, env: env, dir: b.TempDir()}
			var recs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				metas, err := parallel.MapErr(len(env.Ops), workers, g.unit)
				if err != nil {
					b.Fatal(err)
				}
				recs = 0
				for j := range metas {
					recs += metas[j].Kept
				}
			}
			reportPerRecord(b, recs)
		})
	}
}

// BenchmarkGenerateTail times Generate's CSV tail: decode the operator
// spills, format the rows, write them (to io.Discard).
func BenchmarkGenerateTail(b *testing.B) {
	dir := b.TempDir()
	metas, recs := benchSpills(b, dir)
	for _, workers := range benchWorkers {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			bw := bufio.NewWriterSize(io.Discard, 1<<16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := writeCSVTail(bw, dir, metas, workers); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRecord(b, recs)
		})
	}
}

// BenchmarkPartition times Analyze's partition phase: scan the CSV and
// route every record to its shard's spill file.
func BenchmarkPartition(b *testing.B) {
	in, recs := benchCSV(b)
	for _, workers := range benchWorkers {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			az := &analyzer{cfg: AnalyzeConfig{In: in, Shards: DefaultShards, Workers: workers}, dir: b.TempDir()}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := az.partition(0); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRecord(b, recs)
		})
	}
}

// BenchmarkShardUnit times Analyze's shard phase: every shard's load,
// sort, degree summaries, run file and sketch partial.
func BenchmarkShardUnit(b *testing.B) {
	in, recs := benchCSV(b)
	for _, workers := range benchWorkers {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			az := &analyzer{cfg: AnalyzeConfig{In: in, Shards: DefaultShards, Workers: workers}, dir: b.TempDir()}
			part, err := az.partition(0)
			if err != nil {
				b.Fatal(err)
			}
			az.part = part
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := parallel.MapErr(az.cfg.Shards, workers, az.shard); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRecord(b, recs)
		})
	}
}

// BenchmarkReduce times Analyze's reduce phase: merge the shard sketch
// partials, k-way-merge the sorted runs and scan their episodes. The
// reduce is serial, so it has no worker sweep.
func BenchmarkReduce(b *testing.B) {
	in, recs := benchCSV(b)
	az := &analyzer{cfg: AnalyzeConfig{In: in, Shards: DefaultShards, Threshold: benchThreshold}, dir: b.TempDir()}
	part, err := az.partition(0)
	if err != nil {
		b.Fatal(err)
	}
	az.part = part
	shards, err := parallel.MapErr(az.cfg.Shards, 0, az.shard)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := az.reduce(shards); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRecord(b, recs)
}
