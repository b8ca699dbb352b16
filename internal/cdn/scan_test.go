package cdn

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// scanCSVOracle is the line-at-a-time bufio.Scanner loop the block
// scanner replaced, kept as the reference for its accepted language,
// its records and its error text.
func scanCSVOracle(r io.Reader, fn func(Association) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxCSVLine)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		a, err := parseCSVRow(text, line)
		if err != nil {
			return err
		}
		if err := fn(a); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("cdn: reading associations: %w", err)
	}
	return nil
}

// scanResult is what a scan delivered before it ended, and how it ended.
type scanResult struct {
	recs []Association
	err  string
}

func (r scanResult) equal(o scanResult) bool {
	if r.err != o.err || len(r.recs) != len(o.recs) {
		return false
	}
	for i := range r.recs {
		if r.recs[i] != o.recs[i] {
			return false
		}
	}
	return true
}

func endOf(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func oracleScan(r io.Reader) scanResult {
	var out scanResult
	err := scanCSVOracle(r, func(a Association) error {
		out.recs = append(out.recs, a)
		return nil
	})
	out.err = endOf(err)
	return out
}

func blockScan(r io.Reader, workers, blockSize int) scanResult {
	var out scanResult
	err := scanCSV(r, workers, blockSize, func(recs []Association) error {
		out.recs = append(out.recs, recs...)
		return nil
	})
	out.err = endOf(err)
	return out
}

// FuzzScanCSVBlocks holds the block scanner to the bufio.Scanner oracle
// on arbitrary input: the same records and the same error text, line
// numbers included, at one and four workers. Blocks of a few bytes put
// their boundaries mid-line, between '\r' and '\n', and at an EOF that
// has no final newline.
func FuzzScanCSVBlocks(f *testing.F) {
	for i, s := range []string{
		"",
		"# v4_prefix24,v6_prefix64,day,hits\n81.16.10.0/24,2003:1000:0:100::/64,3,12\n",
		"1.2.3.0/24,::/64,0,0\r\n\r\n1.2.3.0/24,2001:db8::/64,65535,4294967295",
		"1.2.3.0/24,::/64,0,0\n\n  # note\n01.2.3.0/24,::/64,0,0\n",
		"1.2.3.4/24,2001:0db8:0:0::/64,9,9\n256.2.3.0/24,::/64,1,1\n",
		"1.2.3.0/24,::/64,99999,1\r",
		"a,b,c\n1.2.3.0/24,::/64,1,1\n",
		"\n\n\n1.2.3.0/24,::/64,1,1,1\n",
	} {
		f.Add([]byte(s), uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, block uint8) {
		want := oracleScan(bytes.NewReader(data))
		size := int(block%16) + 1
		for _, workers := range []int{1, 4} {
			if got := blockScan(bytes.NewReader(data), workers, size); !got.equal(want) {
				t.Fatalf("workers=%d block=%d: %d records, err %q; oracle %d records, err %q",
					workers, size, len(got.recs), got.err, len(want.recs), want.err)
			}
		}
		if got := blockScan(bytes.NewReader(data), 4, csvBlockSize); !got.equal(want) {
			t.Fatalf("default blocks: %d records, err %q; oracle %d records, err %q",
				len(got.recs), got.err, len(want.recs), want.err)
		}
	})
}

// TestScanCSVLongLines: a line of maxCSVLine bytes or more fails with
// the oracle's "token too long" error, after every earlier record, and a
// line one byte shorter is read, terminated or at EOF.
func TestScanCSVLongLines(t *testing.T) {
	row := "1.2.3.0/24,::/64,1,1\n"
	pad := func(n int) string { return strings.Repeat(" ", n-len(row)+1) + row[:len(row)-1] }
	cases := map[string]string{
		"max-1 terminated": row + pad(maxCSVLine-1) + "\n" + row,
		"max-1 at EOF":     row + pad(maxCSVLine-1),
		"max terminated":   row + pad(maxCSVLine) + "\n" + row,
		"max at EOF":       row + pad(maxCSVLine),
		"bad line first":   "x\n" + pad(maxCSVLine+5),
		"comment too long": row + "#" + strings.Repeat("c", maxCSVLine) + "\n",
	}
	for name, in := range cases {
		want := oracleScan(strings.NewReader(in))
		for _, workers := range []int{1, 4} {
			for _, size := range []int{7, csvBlockSize} {
				if got := blockScan(strings.NewReader(in), workers, size); !got.equal(want) {
					t.Errorf("%s, workers=%d block=%d: %d records, err %q; oracle %d records, err %q",
						name, workers, size, len(got.recs), got.err, len(want.recs), want.err)
				}
			}
		}
		if name == "max terminated" && !strings.Contains(want.err, bufio.ErrTooLong.Error()) {
			t.Errorf("%s: oracle err %q, want token too long", name, want.err)
		}
	}
}

// TestScanCSVReaderErrors: read errors, empty reads and one-byte reads
// end the scan as they end the oracle's. Every reader fails at a fixed
// byte offset, not after a fixed number of reads, because the two
// scanners size their reads differently.
func TestScanCSVReaderErrors(t *testing.T) {
	in := "1.2.3.0/24,::/64,1,1\n1.2.4.0/24,::/64,2,2\n1.2.5.0/24,::/64"
	failAt := func(n int) func() io.Reader {
		return func() io.Reader {
			return io.MultiReader(strings.NewReader(in[:n]), iotest.ErrReader(errors.New("disk gone")))
		}
	}
	readers := map[string]func() io.Reader{
		"one byte":     func() io.Reader { return iotest.OneByteReader(strings.NewReader(in)) },
		"data+EOF":     func() io.Reader { return iotest.DataErrReader(strings.NewReader(in)) },
		"half":         func() io.Reader { return iotest.HalfReader(strings.NewReader(in)) },
		"err mid-line": failAt(30),
		"err at EOL":   failAt(42),
		"no advance":   func() io.Reader { return io.MultiReader(strings.NewReader(in[:30]), emptyReader{}) },
	}
	for name, mk := range readers {
		want := oracleScan(mk())
		for _, workers := range []int{1, 3} {
			for _, size := range []int{1, 5, csvBlockSize} {
				if got := blockScan(mk(), workers, size); !got.equal(want) {
					t.Errorf("%s, workers=%d block=%d: %d records, err %q; oracle %d records, err %q",
						name, workers, size, len(got.recs), got.err, len(want.recs), want.err)
				}
			}
		}
	}
}

// emptyReader returns no data and no error, forever.
type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, nil }

// TestScanCSVCallbackError: an error from fn stops the scan at that
// record (ScanCSV) or block (ScanCSVBlocks) and is returned as is, at
// any worker count.
func TestScanCSVCallbackError(t *testing.T) {
	stop := errors.New("stop")
	in := strings.Repeat("1.2.3.0/24,::/64,1,1\n", 50)
	n := 0
	err := ScanCSV(strings.NewReader(in), func(Association) error {
		if n++; n == 17 {
			return stop
		}
		return nil
	})
	if err != stop || n != 17 {
		t.Fatalf("err = %v after %d records, want stop after 17", err, n)
	}
	for _, workers := range []int{1, 4} {
		blocks, recs := 0, 0
		err := scanCSV(strings.NewReader(in), workers, 64, func(b []Association) error {
			recs += len(b)
			if blocks++; blocks == 5 {
				return stop
			}
			return nil
		})
		// 64-byte blocks hold three 21-byte rows each.
		if err != stop || blocks != 5 || recs != 15 {
			t.Fatalf("workers=%d: err = %v after %d blocks, %d records; want stop after 5, 15", workers, err, blocks, recs)
		}
	}
}
