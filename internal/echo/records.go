// Package echo is the IP-echo observation schema (§3.1): what a RIPE
// Atlas probe's hourly HTTP GETs against an echo server record, as
// hourly Records, their run-length encoding as Spans and Series, and
// the JSONL codecs of both. It is the leaf the analysis plane reads:
// core, hitlist, reputation and anonymize see probes only through
// these types, and the package imports nothing but netutil and the
// standard library, so no analysis package links the simulators that
// internal/atlas builds its fleets from.
package echo

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"slices"

	"dynamips/internal/netutil"
)

// Probe is one Atlas probe's metadata.
type Probe struct {
	ID           int      `json:"prb_id"`
	ASN          uint32   `json:"asn"`
	Tags         []string `json:"tags,omitempty"`
	SubscriberID int      `json:"subscriber_id"`
}

// Record is one hourly IP-echo measurement, the JSONL interchange unit.
type Record struct {
	ProbeID int        `json:"prb_id"`
	Hour    int64      `json:"hour"`
	Family  int        `json:"af"` // 4 or 6
	Echo    netip.Addr `json:"x_client_ip"`
	Src     netip.Addr `json:"src_addr"`
}

// Validate reports whether the record can enter a series: its family is
// 4 or 6 and it carries an echoed address of that family. ReadRecords
// rejects, and atlas.ReadRIPEResults skips, a record that fails it.
func (r *Record) Validate() error {
	switch {
	case r.Family != 4 && r.Family != 6:
		return fmt.Errorf("probe %d hour %d: family %d is neither 4 nor 6", r.ProbeID, r.Hour, r.Family)
	case !r.Echo.IsValid():
		return fmt.Errorf("probe %d hour %d has no echoed address", r.ProbeID, r.Hour)
	case r.Echo.Unmap().Is4() != (r.Family == 4):
		return fmt.Errorf("probe %d hour %d: echoed address %v is not of family %d", r.ProbeID, r.Hour, r.Echo, r.Family)
	}
	return nil
}

// Span is a run-length encoded stretch of identical hourly observations:
// the probe reported the same (Echo, Src) pair every hour in [Start, End].
type Span struct {
	Start int64      `json:"start"`
	End   int64      `json:"end"` // inclusive
	Echo  netip.Addr `json:"x_client_ip"`
	Src   netip.Addr `json:"src_addr"`
}

// Hours returns the number of hourly observations the span covers.
func (s Span) Hours() int64 { return s.End - s.Start + 1 }

// Prefix64 returns the /64 of the echoed address (IPv6 spans).
func (s Span) Prefix64() netip.Prefix { return netutil.Prefix64(s.Echo) }

// Series is one probe's full observation history, RLE per family.
type Series struct {
	Probe Probe  `json:"probe"`
	V4    []Span `json:"v4"`
	V6    []Span `json:"v6"`
}

// ObservedHours returns the total hours with at least one family observed,
// approximated as the max of the two families' coverage.
func (s *Series) ObservedHours() int64 { return max(hours(s.V4), hours(s.V6)) }

// DualStack reports whether the probe yielded more than a month of both
// IPv4 and IPv6 measurements, the paper's dual-stack probe criterion
// (Table 1, fn. 3).
func (s *Series) DualStack(minHours int64) bool {
	return hours(s.V4) >= minHours && hours(s.V6) >= minHours
}

// hours sums the hourly observations the spans cover.
func hours(spans []Span) int64 {
	var n int64
	for _, sp := range spans {
		n += sp.Hours()
	}
	return n
}

// Expand converts a series to hourly records, the raw form of the public
// dataset: the probe's IPv4 records in hour order, then its IPv6 records
// in hour order.
func (s *Series) Expand() []Record {
	var recs []Record
	for _, sp := range s.V4 {
		for h := sp.Start; h <= sp.End; h++ {
			recs = append(recs, Record{ProbeID: s.Probe.ID, Hour: h, Family: 4, Echo: sp.Echo, Src: sp.Src})
		}
	}
	for _, sp := range s.V6 {
		for h := sp.Start; h <= sp.End; h++ {
			recs = append(recs, Record{ProbeID: s.Probe.ID, Hour: h, Family: 6, Echo: sp.Echo, Src: sp.Src})
		}
	}
	return recs
}

// Compress rebuilds RLE series from hourly records that pass Validate.
// Records may arrive in any order; output spans are maximal runs of
// identical (Echo, Src) at contiguous hours, and of two records at one
// hour the first in the input wins. Series come out in probe ID order.
// Probe metadata beyond the ID is left zero — callers re-attach it from
// their probe table.
func Compress(recs []Record) []Series {
	sorted := slices.Clone(recs)
	slices.SortStableFunc(sorted, func(a, b Record) int {
		return cmp.Or(cmp.Compare(a.ProbeID, b.ProbeID), cmp.Compare(a.Family, b.Family), cmp.Compare(a.Hour, b.Hour))
	})
	var out []Series
	for _, r := range sorted {
		if len(out) == 0 || out[len(out)-1].Probe.ID != r.ProbeID {
			out = append(out, Series{Probe: Probe{ID: r.ProbeID}})
		}
		spans := &out[len(out)-1].V6
		if r.Family == 4 {
			spans = &out[len(out)-1].V4
		}
		n := len(*spans)
		if n > 0 {
			last := &(*spans)[n-1]
			if last.End >= r.Hour {
				continue // duplicate hour
			}
			if last.End+1 == r.Hour && last.Echo == r.Echo && last.Src == r.Src {
				last.End = r.Hour
				continue
			}
		}
		*spans = append(*spans, Span{Start: r.Hour, End: r.Hour, Echo: r.Echo, Src: r.Src})
	}
	return out
}

// WriteRecords writes records as JSON lines.
func WriteRecords(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("echo: encoding record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadRecords parses JSON lines into records, each checked by Validate.
func ReadRecords(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("echo: line %d: %w", line, err)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("echo: line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("echo: reading records: %w", err)
	}
	return recs, nil
}

// WriteSeries writes RLE series as JSON lines (one series per line).
func WriteSeries(w io.Writer, series []Series) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range series {
		if err := enc.Encode(&series[i]); err != nil {
			return fmt.Errorf("echo: encoding series %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadSeries parses JSONL series, validating each probe's span layout.
func ReadSeries(r io.Reader) ([]Series, error) {
	var out []Series
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ser Series
		if err := json.Unmarshal(sc.Bytes(), &ser); err != nil {
			return nil, fmt.Errorf("echo: line %d: %w", line, err)
		}
		if err := ValidateSeries(&ser); err != nil {
			return nil, fmt.Errorf("echo: line %d: %w", line, err)
		}
		out = append(out, ser)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("echo: reading series: %w", err)
	}
	return out, nil
}

// ValidateSeries checks the invariants every analysis assumes: spans
// sorted by start, non-overlapping, non-inverted, with valid echoed
// addresses of the right family.
func ValidateSeries(s *Series) error {
	check := func(spans []Span, family string, want4 bool) error {
		for i, sp := range spans {
			if sp.End < sp.Start {
				return fmt.Errorf("probe %d %s span %d inverted", s.Probe.ID, family, i)
			}
			if !sp.Echo.IsValid() {
				return fmt.Errorf("probe %d %s span %d has no echoed address", s.Probe.ID, family, i)
			}
			if sp.Echo.Unmap().Is4() != want4 {
				return fmt.Errorf("probe %d %s span %d wrong family: %v", s.Probe.ID, family, i, sp.Echo)
			}
			if i > 0 && sp.Start <= spans[i-1].End {
				return fmt.Errorf("probe %d %s spans %d/%d overlap or are unsorted", s.Probe.ID, family, i-1, i)
			}
		}
		return nil
	}
	if err := check(s.V4, "v4", true); err != nil {
		return err
	}
	return check(s.V6, "v6", false)
}
