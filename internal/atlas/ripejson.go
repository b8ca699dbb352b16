package atlas

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"strings"

	"dynamips/internal/echo"
)

// Adapter for the real RIPE Atlas "IP echo" result format (measurements
// 12027/13027, [48]/[49] in the paper): probes perform HTTP GETs and the
// result objects carry the echoed X-Client-IP header. This parser accepts
// the public JSON stream so the sanitization and analysis pipeline can run
// on the actual dataset, not only on synthetic fleets.

// ripeResult mirrors the fields of one Atlas HTTP measurement result we
// need; unknown fields are ignored.
type ripeResult struct {
	PrbID     int            `json:"prb_id"`
	Timestamp int64          `json:"timestamp"`
	SrcAddr   string         `json:"src_addr"`
	Result    []ripeHTTPPart `json:"result"`
}

type ripeHTTPPart struct {
	AF     int      `json:"af"`
	Header []string `json:"hdr"`
	// Newer firmware exposes the echoed address directly.
	XClientIP string `json:"x_client_ip"`
}

// ReadRIPEResults parses a stream of RIPE Atlas HTTP measurement results
// (one JSON object per line, as served by the Atlas API with
// format=txt) into Records. epoch is the Unix time mapped to hour 0;
// timestamps are floored to the hourly grid the paper's analysis uses.
// Results without a recoverable X-Client-IP, or whose af disagrees with
// the echoed address's family, are skipped; malformed JSON lines are an
// error.
func ReadRIPEResults(r io.Reader, epoch int64) ([]echo.Record, error) {
	var out []echo.Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var res ripeResult
		if err := json.Unmarshal([]byte(raw), &res); err != nil {
			return nil, fmt.Errorf("atlas: ripe result line %d: %w", line, err)
		}
		rec, ok := res.toRecord(epoch)
		if ok {
			out = append(out, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("atlas: reading ripe results: %w", err)
	}
	return out, nil
}

func (res *ripeResult) toRecord(epoch int64) (echo.Record, bool) {
	echoed, af, ok := res.clientIP()
	if !ok {
		return echo.Record{}, false
	}
	rec := echo.Record{
		ProbeID: res.PrbID,
		Hour:    (res.Timestamp - epoch) / 3600,
		Family:  af,
		Echo:    echoed,
	}
	if src, err := netip.ParseAddr(res.SrcAddr); err == nil {
		rec.Src = src
	}
	return rec, rec.Validate() == nil
}

// clientIP extracts the echoed public address from whichever field the
// probe firmware used.
func (res *ripeResult) clientIP() (netip.Addr, int, bool) {
	for _, part := range res.Result {
		if part.XClientIP != "" {
			if a, err := netip.ParseAddr(part.XClientIP); err == nil {
				return a, familyOf(a, part.AF), true
			}
		}
		for _, h := range part.Header {
			k, v, found := strings.Cut(h, ":")
			if !found || !strings.EqualFold(strings.TrimSpace(k), EchoHeader) {
				continue
			}
			if a, err := netip.ParseAddr(strings.TrimSpace(v)); err == nil {
				return a, familyOf(a, part.AF), true
			}
		}
	}
	return netip.Addr{}, 0, false
}

func familyOf(a netip.Addr, af int) int {
	if af == 4 || af == 6 {
		return af
	}
	if a.Unmap().Is4() {
		return 4
	}
	return 6
}
