package stream

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"dynamips/internal/cdn"
)

// FuzzChunkCodec feeds arbitrary bytes to the chunk reader: it must never
// panic, never allocate unboundedly, and fail only with the codec's own
// error values (or a clean end of stream). Valid prefixes decode exactly
// the records the writer framed.
func FuzzChunkCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte("DYNCDN1\nxxxx"))
	var seed bytes.Buffer
	w, err := NewWriter(&seed)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(cdn.Association{K24: uint32(i), K64: uint64(i) << 40, Day: uint16(i), Hits: uint32(i * i)}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-1])
	f.Add(append(append([]byte{}, seed.Bytes()...), 0xFF, 0xFF, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadMagic) {
				t.Fatalf("NewReader: unexpected error class: %v", err)
			}
			return
		}
		var recs []cdn.Association
		for {
			a, ok, err := r.Next()
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Next: unexpected error class: %v", err)
				}
				return
			}
			if !ok {
				break
			}
			if len(recs) < 1<<16 {
				recs = append(recs, a)
			}
		}
		// A cleanly-decoded stream must re-encode to a stream that decodes
		// to the same records (chunk boundaries may differ from the input's).
		var re bytes.Buffer
		w, err := NewWriter(&re)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range recs {
			if err := w.Append(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r2, err := NewReader(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			a, ok, err := r2.Next()
			if err != nil || !ok || a != recs[i] {
				t.Fatalf("re-decode diverged at record %d (ok=%v err=%v)", i, ok, err)
			}
		}
	})
}

// FuzzScanCSV exercises the hot-path CSV parser (fast paths plus their
// netip/strconv fallbacks) on arbitrary input: it must never panic, the
// partition's parallel scan (cdn.ScanCSVBlocks) must deliver the same
// records and end with the same error text as the serial ScanCSV, and
// every line it accepts must re-encode canonically and re-parse to the
// same association. (cdn's FuzzScanCSVBlocks holds both to the old
// line-at-a-time scanner with blocks of a few bytes.)
func FuzzScanCSV(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("# v4_prefix24,v6_prefix64,day,hits\n81.16.10.0/24,2003:1000:0:100::/64,3,12\n"))
	f.Add([]byte("1.2.3.0/24,::/64,0,0\n"))
	f.Add([]byte("1.2.3.0/24,2001:db8::/64,65535,4294967295\n"))
	f.Add([]byte("01.2.3.0/24,::/64,0,0\n"))
	f.Add([]byte("1.2.3.4/24,2001:0db8:0:0::/64,9,9\n"))
	f.Add([]byte("256.2.3.0/24,::/64,1,1\n"))
	f.Add([]byte("1.2.3.0/24,::/64,99999,1\n"))
	f.Add([]byte("a,b,c\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var accepted []cdn.Association
		err := cdn.ScanCSV(bytes.NewReader(data), func(a cdn.Association) error {
			accepted = append(accepted, a)
			return nil
		})
		var blocked []cdn.Association
		berr := cdn.ScanCSVBlocks(bytes.NewReader(data), 4, func(recs []cdn.Association) error {
			blocked = append(blocked, recs...)
			return nil
		})
		if errText(berr) != errText(err) || !slices.Equal(blocked, accepted) {
			t.Fatalf("ScanCSVBlocks: %d records, err %v; ScanCSV: %d records, err %v",
				len(blocked), berr, len(accepted), err)
		}
		if err != nil {
			return
		}
		// Round-trip: canonical encoding of everything accepted parses back
		// verbatim.
		var buf bytes.Buffer
		if err := cdn.WriteCSV(&buf, accepted); err != nil {
			t.Fatal(err)
		}
		got, err := cdn.ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round-trip rejected canonical output: %v", err)
		}
		if len(got) != len(accepted) {
			t.Fatalf("round-trip count %d != %d", len(got), len(accepted))
		}
		for i := range got {
			if got[i] != accepted[i] {
				t.Fatalf("round-trip record %d: %+v != %+v", i, got[i], accepted[i])
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
