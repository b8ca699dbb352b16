package sketch

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// refit recomputes the CRC trailer after a test mutated the body, so
// corruption tests exercise the structural validators, not just CRC.
func refit(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:],
		crc32.Checksum(b[:len(b)-4], castagnoli))
	return b
}

// sampleSet builds a populated three-kind set.
func sampleSet() *Set {
	s := buildSet()
	r := testRNG(99)
	for i := 0; i < 5000; i++ {
		foldRecord(s, &r)
	}
	return s
}

// TestCodecRoundtrip proves decode(encode(s)) reproduces both the
// bytes and the query behavior.
func TestCodecRoundtrip(t *testing.T) {
	s := sampleSet()
	enc := s.Encode()
	got, err := DecodeSet(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("re-encode differs from original encoding")
	}
	if got.Quantile("duration").Query(0.5) != s.Quantile("duration").Query(0.5) {
		t.Fatal("median changed across roundtrip")
	}
	if got.TopK("churn24").N() != s.TopK("churn24").N() {
		t.Fatal("topk N changed across roundtrip")
	}
	if got.Card("pfx64").Estimate() != s.Card("pfx64").Estimate() {
		t.Fatal("cardinality changed across roundtrip")
	}
	// AppendBinary appends after existing bytes and CRCs only its own.
	pre := []byte("prefix")
	ext := s.AppendBinary(append([]byte(nil), pre...))
	if !bytes.Equal(ext[:len(pre)], pre) || !bytes.Equal(ext[len(pre):], enc) {
		t.Fatal("AppendBinary did not append the canonical encoding")
	}
	// An empty set also roundtrips.
	empty := NewSet().Encode()
	if es, err := DecodeSet(empty); err != nil || es.Len() != 0 {
		t.Fatalf("empty set roundtrip: %v", err)
	}
}

// TestCodecRejects walks the corruption table: every non-canonical or
// damaged encoding is rejected with the right sentinel.
func TestCodecRejects(t *testing.T) {
	enc := sampleSet().Encode()
	for _, tc := range []struct {
		name string
		mut  func() []byte
		want error
	}{
		{"empty", func() []byte { return nil }, ErrCodecTruncate},
		{"short", func() []byte { return enc[:10] }, ErrCodecTruncate},
		{"bad-magic", func() []byte {
			b := append([]byte(nil), enc...)
			b[0] ^= 0xFF
			return b
		}, ErrCodecMagic},
		{"bad-crc", func() []byte {
			b := append([]byte(nil), enc...)
			b[len(b)-1] ^= 0xFF
			return b
		}, ErrCodecCRC},
		{"flipped-payload", func() []byte {
			b := append([]byte(nil), enc...)
			b[20] ^= 0x01
			return b
		}, ErrCodecCRC},
		{"trailing-junk", func() []byte {
			b := append([]byte(nil), enc[:len(enc)-4]...)
			b = append(b, 0xAA)
			return refit(append(b, 0, 0, 0, 0))
		}, ErrCodecTruncate},
		{"count-overruns", func() []byte {
			b := append([]byte(nil), enc...)
			binary.LittleEndian.PutUint32(b[8:], 200)
			return refit(b)
		}, ErrCodecTruncate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeSet(tc.mut()); err != tc.want {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// encodeItems frames raw pre-built item bytes as a set encoding.
func encodeItems(count uint32, items []byte) []byte {
	b := append([]byte(nil), setMagic...)
	b = le32(b, count)
	b = append(b, items...)
	return le32(b, crc32.Checksum(b, castagnoli))
}

// item frames one named sketch body.
func rawItem(name string, kind Kind, body []byte) []byte {
	var b []byte
	b = append(b, byte(len(name)))
	b = append(b, name...)
	b = append(b, byte(kind))
	b = le32(b, uint32(len(body)))
	return append(b, body...)
}

// TestCodecStructuralRejects crafts canonical-framing violations that
// pass the CRC: wrong ordering, bad parameters, broken invariants.
func TestCodecStructuralRejects(t *testing.T) {
	q := NewQuantile(0.01)
	q.Add(3)
	qBody := q.appendBody(nil)
	tk := NewTopK(4)
	tk.Add(7, 2)
	tkBody := tk.appendBody(nil)
	ca := NewCard(4, 1)
	ca.Add(9)
	caBody := ca.appendBody(nil)

	mut := func(src []byte, at int, v byte) []byte {
		b := append([]byte(nil), src...)
		b[at] = v
		return b
	}

	for _, tc := range []struct {
		name  string
		items []byte
		count uint32
		want  error
	}{
		{"empty-name", rawItem("", KindQuantile, qBody), 1, ErrCodecValue},
		{"bad-kind", rawItem("x", Kind(9), qBody), 1, ErrCodecValue},
		{"unsorted-names", append(rawItem("b", KindQuantile, qBody), rawItem("a", KindTopK, tkBody)...), 2, ErrCodecOrder},
		{"dup-names", append(rawItem("a", KindQuantile, qBody), rawItem("a", KindTopK, tkBody)...), 2, ErrCodecOrder},
		{"quantile-short-body", rawItem("q", KindQuantile, qBody[:10]), 1, ErrCodecTruncate},
		{"quantile-bad-alpha", rawItem("q", KindQuantile, mut(qBody, 6, 0xFF)), 1, ErrCodecValue},
		{"quantile-zero-count", rawItem("q", KindQuantile, mut(qBody, 24, 0)), 1, ErrCodecValue},
		{"quantile-bad-idx", rawItem("q", KindQuantile, mut(qBody, 20, 0)), 1, ErrCodecValue},
		{"quantile-len-mismatch", rawItem("q", KindQuantile, qBody[:len(qBody)-1]), 1, ErrCodecTruncate},
		{"topk-short-body", rawItem("t", KindTopK, tkBody[:3]), 1, ErrCodecTruncate},
		{"topk-zero-k", rawItem("t", KindTopK, mut(tkBody, 0, 0)), 1, ErrCodecValue},
		{"topk-huge-k", rawItem("t", KindTopK, mut(tkBody, 3, 0xFF)), 1, ErrCodecValue},
		{"topk-len-mismatch", rawItem("t", KindTopK, tkBody[:len(tkBody)-1]), 1, ErrCodecTruncate},
		{"topk-zero-count", rawItem("t", KindTopK, mut(tkBody, len(tkBody)-8, 0)), 1, ErrCodecValue},
		{"topk-invariant", rawItem("t", KindTopK, mut(tkBody, 4, 0)), 1, ErrCodecValue},
		{"card-short-body", rawItem("c", KindCard, caBody[:2]), 1, ErrCodecTruncate},
		{"card-bad-p", rawItem("c", KindCard, mut(caBody, 0, 3)), 1, ErrCodecValue},
		{"card-len-mismatch", rawItem("c", KindCard, caBody[:len(caBody)-1]), 1, ErrCodecTruncate},
		{"card-bad-register", rawItem("c", KindCard, mut(caBody, 9, 0xFF)), 1, ErrCodecValue},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeSet(encodeItems(tc.count, tc.items)); err != tc.want {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// FuzzSketchCodec throws arbitrary bytes at the decoder and checks the
// strict-canonical contract: anything accepted re-encodes to the exact
// input bytes, merges with its own clone, and summarizes without
// panicking.
func FuzzSketchCodec(f *testing.F) {
	// Seeds stay small (tiny register arrays, a handful of buckets):
	// large seeds make the engine's coverage-minimization passes crawl.
	f.Add(NewSet().Encode())
	small := NewSet()
	if err := small.Put("d", NewQuantile(0.05)); err != nil {
		f.Fatal(err)
	}
	small.Quantile("d").Add(2)
	f.Add(small.Encode())
	trio := NewSet()
	for _, err := range []error{
		trio.Put("c", NewCard(4, 7)),
		trio.Put("q", NewQuantile(0.02)),
		trio.Put("t", NewTopK(3)),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	for i := uint64(0); i < 6; i++ {
		trio.Quantile("q").Add(float64(2000 * (i + 1)))
		trio.TopK("t").Add(i%4, i+1)
		trio.Card("c").Add(i)
	}
	f.Add(trio.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSet(data)
		if err != nil {
			return
		}
		enc := s.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical encoding: re-encode differs")
		}
		again, err := DecodeSet(enc)
		if err != nil {
			t.Fatalf("decoding a re-encoded set: %v", err)
		}
		if err := s.Merge(again); err != nil {
			t.Fatalf("self-merge of decoded set: %v", err)
		}
		if got := s.Summarize([]float64{0.5}, 5); len(got) != s.Len() {
			t.Fatalf("summarized %d of %d sketches", len(got), s.Len())
		}
	})
}
