package cdn

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"strconv"

	"dynamips/internal/netutil"
	"dynamips/internal/parallel"
)

// csvHeader is the interchange format's comment header.
const csvHeader = "# v4_prefix24,v6_prefix64,day,hits"

// WriteCSV writes associations as "v4_prefix24,v6_prefix64,day,hits"
// lines with a header comment, the interchange format of
// `dynamips gen cdn`. Rows are formatted with AppendCSVRow into a reused
// buffer, so the writer allocates nothing per record.
func WriteCSV(w io.Writer, assocs []Association) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(csvHeader + "\n"); err != nil {
		return fmt.Errorf("cdn: writing header: %w", err)
	}
	buf := make([]byte, 0, 64)
	for _, a := range assocs {
		buf = AppendCSVRow(buf[:0], a)
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("cdn: writing association: %w", err)
		}
	}
	return bw.Flush()
}

// WriteCSVHeader writes just the header comment; the streaming pipeline
// uses it before concatenating per-shard row buffers.
func WriteCSVHeader(w io.Writer) error {
	if _, err := io.WriteString(w, csvHeader+"\n"); err != nil {
		return fmt.Errorf("cdn: writing header: %w", err)
	}
	return nil
}

// AppendCSVRow appends one association's CSV line (newline included) to
// dst and returns the extended slice. The output is byte-identical to
// formatting via netip's Prefix.String: the /24 prints as dotted decimal
// and the /64 — whose low 64 bits are zero by construction — always
// compresses its trailing zero run per RFC 5952, since that run spans at
// least four hextets while any internal run spans at most three.
//
//lint:hotpath
func AppendCSVRow(dst []byte, a Association) []byte {
	dst = appendP24(dst, a.K24)
	dst = append(dst, ',')
	dst = appendP64(dst, a.K64)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, uint64(a.Day), 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, uint64(a.Hits), 10)
	return append(dst, '\n')
}

// appendP24 appends "a.b.c.0/24" for the /24 key (the network address
// K24<<8, which always ends in a zero octet).
//
//lint:hotpath
func appendP24(dst []byte, k24 uint32) []byte {
	v := k24 << 8
	dst = strconv.AppendUint(dst, uint64(v>>24), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(v>>16&0xff), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(v>>8&0xff), 10)
	return append(dst, ".0/24"...)
}

// appendP64 appends the RFC 5952 canonical "h0:h1:h2:h3::/64" form for
// the /64 key: hextets up to the last non-zero one, then the compressed
// trailing run ("::/64" alone when the key is zero).
//
//lint:hotpath
func appendP64(dst []byte, k64 uint64) []byte {
	last := -1
	for i := 0; i < 4; i++ {
		if k64>>(48-16*i)&0xffff != 0 {
			last = i
		}
	}
	for i := 0; i <= last; i++ {
		if i > 0 {
			dst = append(dst, ':')
		}
		dst = strconv.AppendUint(dst, k64>>(48-16*i)&0xffff, 16)
	}
	return append(dst, "::/64"...)
}

// ScanCSV streams the association CSV format to fn one record at a time,
// never materializing the dataset — the entry point sized for paper-scale
// inputs. Blank lines and lines starting with '#' are skipped. Prefixes
// longer than the aggregation granularity are rejected. A non-nil error
// from fn aborts the scan.
//
// Rows in the canonical emitted form parse by direct byte indexing; any
// other accepted spelling (unmasked prefixes, uppercase or zero-padded
// hextets, uncompressed /64s) falls back to netip, keeping ReadCSV's
// accept/reject semantics exactly.
//
// ScanCSV is ScanCSVBlocks at one worker, run inline.
func ScanCSV(r io.Reader, fn func(Association) error) error {
	return ScanCSVBlocks(r, 1, func(recs []Association) error {
		for _, a := range recs {
			if err := fn(a); err != nil {
				return err
			}
		}
		return nil
	})
}

// ScanCSVBlocks is ScanCSV for consumers that take records in batches:
// the input is cut into text blocks of whole lines, the blocks are parsed
// on up to workers goroutines (per parallel.Workers), and fn receives
// each block's records on the caller's goroutine, in input order. The
// slice is reused once fn returns. Records, errors and their text are
// those of a serial scan at any worker count: an error is reported after
// fn has seen every record before the failing line.
func ScanCSVBlocks(r io.Reader, workers int, fn func([]Association) error) error {
	return scanCSV(r, workers, csvBlockSize, fn)
}

const (
	// csvBlockSize is the text the scanner parses as one pipeline item:
	// big enough that per-block overhead vanishes, small enough that a
	// window of blocks stays in the low megabytes.
	csvBlockSize = 256 << 10
	// maxCSVLine bounds one line's length: a line this long or longer
	// fails the scan with bufio.ErrTooLong, the format's long-standing
	// limit.
	maxCSVLine = 8 << 20
	// maxEmptyReads is how many consecutive empty reads the scan
	// tolerates; one more ends it with io.ErrNoProgress.
	maxEmptyReads = 100
)

// scanCSV is ScanCSVBlocks with the block size as a parameter, so tests
// can cut blocks mid-line.
func scanCSV(r io.Reader, workers, blockSize int, fn func([]Association) error) error {
	src := &csvBlocks{r: r, size: blockSize, line: 1}
	return parallel.Pipeline(workers, src.next, parseCSVBlock, func(b *csvBlock) error {
		if len(b.recs) > 0 {
			if err := fn(b.recs); err != nil {
				return err
			}
		}
		return b.err
	})
}

// csvBlock is one pipeline slot of the CSV scanner: a run of whole lines,
// the number of its first line, and what parsing it yielded — the records
// before the first bad line and that line's error.
type csvBlock struct {
	text  []byte
	first int
	recs  []Association
	err   error
}

// csvBlocks cuts a CSV stream into blocks that end at a newline (the
// final block may end at EOF instead).
type csvBlocks struct {
	r     io.Reader
	size  int
	carry []byte // the unterminated line that follows the last block
	line  int    // number of the next block's first line
	done  bool   // the input ended; err is reported after the final block
	err   error
}

// next fills b.text with the next block, reusing its buffer.
func (c *csvBlocks) next(b *csvBlock) (bool, error) {
	if c.done {
		return false, c.err
	}
	buf := append(b.text[:0], c.carry...)
	target := max(c.size, 1)
	empty := 0
	for {
		if len(buf) >= target {
			if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
				c.carry = append(c.carry[:0], buf[i+1:]...)
				buf = buf[:i+1]
				break
			}
			// The block so far is the start of one line.
			if len(buf) >= maxCSVLine {
				return false, fmt.Errorf("cdn: reading associations: %w", bufio.ErrTooLong)
			}
			target = min(2*len(buf), maxCSVLine)
		}
		if cap(buf) < target {
			buf = append(make([]byte, 0, target), buf...)
		}
		n, err := c.r.Read(buf[len(buf):target])
		buf = buf[:len(buf)+n]
		if err == nil && n == 0 {
			if empty++; empty > maxEmptyReads {
				err = io.ErrNoProgress
			}
		} else {
			empty = 0
		}
		if err != nil {
			c.done = true
			if err != io.EOF {
				c.err = fmt.Errorf("cdn: reading associations: %w", err)
			}
			c.carry = c.carry[:0]
			break
		}
	}
	b.text = buf
	b.first = c.line
	c.line += bytes.Count(buf, []byte{'\n'})
	if len(buf) == 0 {
		return false, c.err
	}
	return true, nil
}

// parseCSVBlock parses the block's lines into b.recs, stopping at the
// first bad line, whose error it keeps in b.err.
func parseCSVBlock(b *csvBlock) error {
	b.recs, b.err = b.recs[:0], nil
	text, line := b.text, b.first
	for len(text) > 0 {
		row := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			row, text = text[:i], text[i+1:]
		} else {
			text = nil
		}
		row = bytes.TrimSpace(row)
		if len(row) > 0 && row[0] != '#' {
			a, err := parseCSVRow(row, line)
			if err != nil {
				b.err = err
				return nil
			}
			b.recs = append(b.recs, a)
		}
		line++
	}
	return nil
}

// ReadCSV parses the association CSV format into memory. Blank lines and
// lines starting with '#' are skipped. Prefixes longer than the
// aggregation granularity are rejected.
func ReadCSV(r io.Reader) ([]Association, error) {
	var out []Association
	err := ScanCSV(r, func(a Association) error {
		out = append(out, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// parseCSVRow parses one non-comment CSV line. Fast paths cover the
// canonical emitted spellings; everything else goes through the same
// netip/strconv checks the original parser used, so the accepted language
// (and its error text) is unchanged.
func parseCSVRow(text []byte, line int) (Association, error) {
	var f [4][]byte
	rest := text
	for i := 0; i < 3; i++ {
		j := bytes.IndexByte(rest, ',')
		if j < 0 {
			return Association{}, fmt.Errorf("cdn: line %d: want 4 fields, got %d", line, i+1)
		}
		f[i] = rest[:j]
		rest = rest[j+1:]
	}
	if bytes.IndexByte(rest, ',') >= 0 {
		return Association{}, fmt.Errorf("cdn: line %d: want 4 fields, got %d", line, 4+bytes.Count(rest, []byte{','}))
	}
	f[3] = rest

	k24, ok := parseP24Fast(f[0])
	if !ok {
		p24, err := netip.ParsePrefix(string(f[0]))
		if err != nil || p24.Bits() != 24 || !p24.Addr().Is4() {
			return Association{}, fmt.Errorf("cdn: line %d: bad IPv4 /24 %q", line, f[0])
		}
		k24 = netutil.U32(p24.Masked().Addr()) >> 8
	}
	k64, ok := parseP64Fast(f[1])
	if !ok {
		p64, err := netip.ParsePrefix(string(f[1]))
		if err != nil || p64.Bits() != 64 || !p64.Addr().Is6() || p64.Addr().Unmap().Is4() {
			return Association{}, fmt.Errorf("cdn: line %d: bad IPv6 /64 %q", line, f[1])
		}
		k64 = netutil.Key64(p64.Masked().Addr())
	}
	day, ok := parseUintFast(f[2], 1<<16-1)
	if !ok {
		v, err := strconv.ParseUint(string(f[2]), 10, 16)
		if err != nil {
			return Association{}, fmt.Errorf("cdn: line %d: bad day: %w", line, err)
		}
		day = v
	}
	hits, ok := parseUintFast(f[3], 1<<32-1)
	if !ok {
		v, err := strconv.ParseUint(string(f[3]), 10, 32)
		if err != nil {
			return Association{}, fmt.Errorf("cdn: line %d: bad hits: %w", line, err)
		}
		hits = v
	}
	return Association{K24: k24, K64: k64, Day: uint16(day), Hits: uint32(hits)}, nil
}

// parseP24Fast parses "a.b.c.d/24" with canonical decimal octets (no
// leading zeros, values <= 255), returning the /24 key. Anything else —
// including spellings netip would still accept — reports !ok for the
// fallback path; what it does accept yields the same masked key netip
// would.
//
//lint:hotpath
func parseP24Fast(s []byte) (uint32, bool) {
	var v uint32
	for i := 0; i < 4; i++ {
		if i > 0 {
			if len(s) == 0 || s[0] != '.' {
				return 0, false
			}
			s = s[1:]
		}
		o, rest, ok := parseOctet(s)
		if !ok {
			return 0, false
		}
		v = v<<8 | o
		s = rest
	}
	if len(s) != 3 || s[0] != '/' || s[1] != '2' || s[2] != '4' {
		return 0, false
	}
	return v >> 8, true
}

// parseOctet parses one canonical decimal octet prefix of s.
//
//lint:hotpath
func parseOctet(s []byte) (uint32, []byte, bool) {
	n := 0
	var v uint32
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		v = v*10 + uint32(s[n]-'0')
		n++
		if n > 3 {
			return 0, nil, false
		}
	}
	if n == 0 || v > 255 {
		return 0, nil, false
	}
	if n > 1 && s[0] == '0' { // leading zeros: netip rejects them too
		return 0, nil, false
	}
	return v, s[n:], true
}

// parseP64Fast parses "h0:h1:h2:h3::/64" forms — up to four leading
// hextets, a trailing "::" compression, and the /64 length — covering
// every spelling AppendCSVRow emits. The hextets may carry leading zeros
// or uppercase digits (netip accepts both); dotted or uncompressed forms
// fall back.
//
//lint:hotpath
func parseP64Fast(s []byte) (uint64, bool) {
	var k64 uint64
	for i := 0; i < 4; i++ {
		if len(s) >= 2 && s[0] == ':' && s[1] == ':' {
			break
		}
		if i > 0 {
			if len(s) == 0 || s[0] != ':' {
				return 0, false
			}
			s = s[1:]
		}
		h, rest, ok := parseHextet(s)
		if !ok {
			return 0, false
		}
		k64 |= h << (48 - 16*i)
		s = rest
	}
	if len(s) != 5 || s[0] != ':' || s[1] != ':' || s[2] != '/' || s[3] != '6' || s[4] != '4' {
		return 0, false
	}
	return k64, true
}

// parseHextet parses one 1-4 digit hex hextet prefix of s.
//
//lint:hotpath
func parseHextet(s []byte) (uint64, []byte, bool) {
	n := 0
	var v uint64
	for n < len(s) {
		c := s[n]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint64(c-'A'+10)
		default:
			if n == 0 {
				return 0, nil, false
			}
			return v, s[n:], true
		}
		n++
		if n > 4 {
			return 0, nil, false
		}
	}
	if n == 0 {
		return 0, nil, false
	}
	return v, s[n:], true
}

// parseUintFast parses a plain decimal field (the complete base-10
// unsigned grammar strconv accepts), reporting !ok on any other byte or
// on overflow past max so the caller can route through strconv for the
// error.
//
//lint:hotpath
func parseUintFast(s []byte, max uint64) (uint64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
		if v > max {
			return 0, false
		}
	}
	return v, true
}
