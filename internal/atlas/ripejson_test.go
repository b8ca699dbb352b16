package atlas

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"dynamips/internal/echo"
)

func TestReadRIPEResults(t *testing.T) {
	in := `{"fw":4790,"prb_id":101,"timestamp":1004400,"msm_id":12027,"src_addr":"192.168.1.5","result":[{"af":4,"res":200,"hdr":["Date: x","X-Client-IP: 81.10.0.7"]}]}
{"fw":5020,"prb_id":101,"timestamp":1008000,"msm_id":13027,"src_addr":"2003:1000:0:100::2","result":[{"af":6,"x_client_ip":"2003:1000:0:100::2"}]}

{"fw":4790,"prb_id":102,"timestamp":1004400,"msm_id":12027,"result":[{"af":4,"res":599}]}
{"fw":4790,"prb_id":103,"timestamp":1004400,"msm_id":12027,"result":[{"hdr":["x-client-ip:  93.184.216.34"]}]}
`
	recs, err := ReadRIPEResults(strings.NewReader(in), 1000800)
	if err != nil {
		t.Fatalf("ReadRIPEResults: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %+v", recs)
	}
	r0 := recs[0]
	if r0.ProbeID != 101 || r0.Hour != 1 || r0.Family != 4 ||
		r0.Echo != netip.MustParseAddr("81.10.0.7") || r0.Src != netip.MustParseAddr("192.168.1.5") {
		t.Errorf("record 0 = %+v", r0)
	}
	r1 := recs[1]
	if r1.Family != 6 || r1.Hour != 2 || r1.Echo != netip.MustParseAddr("2003:1000:0:100::2") {
		t.Errorf("record 1 = %+v", r1)
	}
	// Case-insensitive header with missing af: family derived from the
	// address.
	r2 := recs[2]
	if r2.ProbeID != 103 || r2.Family != 4 || r2.Echo != netip.MustParseAddr("93.184.216.34") {
		t.Errorf("record 2 = %+v", r2)
	}
}

// TestReadRIPEResultsSkipsBeforeEpoch: a result stamped before the
// epoch has no hour on the grid. Half an hour early must not land on
// hour 0 and win Compress's first-wins rule over the real hour-0
// result, and two hours early must not become hour -2.
func TestReadRIPEResultsSkipsBeforeEpoch(t *testing.T) {
	const epoch = 1409529600
	in := fmt.Sprintf(`{"prb_id":7,"timestamp":%d,"result":[{"af":4,"x_client_ip":"81.10.0.1"}]}
{"prb_id":7,"timestamp":%d,"result":[{"af":4,"x_client_ip":"81.10.0.2"}]}
{"prb_id":7,"timestamp":%d,"result":[{"af":4,"x_client_ip":"81.10.0.3"}]}
`, epoch-1800, epoch, epoch-7200)
	recs, err := ReadRIPEResults(strings.NewReader(in), epoch)
	if err != nil {
		t.Fatal(err)
	}
	want := echo.Record{ProbeID: 7, Hour: 0, Family: 4, Echo: netip.MustParseAddr("81.10.0.2")}
	if len(recs) != 1 || recs[0] != want {
		t.Fatalf("records = %+v, want only %+v", recs, want)
	}
	if s := echo.Compress(recs); len(s) != 1 || len(s[0].V4) != 1 || s[0].V4[0].Echo != want.Echo {
		t.Fatalf("series = %+v", s)
	}
}

func TestReadRIPEResultsErrors(t *testing.T) {
	if _, err := ReadRIPEResults(strings.NewReader("{broken\n"), 0); err == nil {
		t.Error("broken JSON accepted")
	}
}

func TestReadRIPEResultsIntoPipeline(t *testing.T) {
	// Parsed records must flow through Compress and the analyzer.
	in := `{"prb_id":7,"timestamp":3600,"src_addr":"192.168.1.9","result":[{"af":4,"hdr":["X-Client-IP: 81.10.0.1"]}]}
{"prb_id":7,"timestamp":7200,"src_addr":"192.168.1.9","result":[{"af":4,"hdr":["X-Client-IP: 81.10.0.1"]}]}
{"prb_id":7,"timestamp":10800,"src_addr":"192.168.1.9","result":[{"af":4,"hdr":["X-Client-IP: 81.10.0.2"]}]}
`
	recs, err := ReadRIPEResults(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	series := echo.Compress(recs)
	if len(series) != 1 || len(series[0].V4) != 2 {
		t.Fatalf("series = %+v", series)
	}
	if series[0].V4[0].Hours() != 2 || series[0].V4[1].Hours() != 1 {
		t.Errorf("spans = %+v", series[0].V4)
	}
}

// TestReadRIPEResultsCorruptedInput: truncated or garbage streams must
// return an error or skip the unusable line — never panic and never
// fabricate a record.
func TestReadRIPEResultsCorruptedInput(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantErr bool
	}{
		{"truncated object", `{"prb_id":7,"timestamp":36`, true},
		{"binary garbage", "\x00\x01\x02\xff\xfe garbage\n", true},
		{"bare array", "[1,2,3]\n", true},
		{"wrong field type", `{"prb_id":"seven","timestamp":3600}` + "\n", true},
		{"result not a list", `{"prb_id":7,"result":{"af":4}}` + "\n", true},
		{"hdr not strings", `{"prb_id":7,"result":[{"hdr":[42]}]}` + "\n", true},
		{"valid JSON, no echo", `{"prb_id":7,"timestamp":3600,"result":[{"af":4,"hdr":["Date: x"]}]}` + "\n", false},
		{"unparsable echo addr", `{"prb_id":7,"result":[{"x_client_ip":"not-an-ip"}]}` + "\n", false},
		{"unparsable src addr", `{"prb_id":7,"src_addr":"::gg","result":[{"x_client_ip":"81.10.0.1"}]}` + "\n", false},
		{"header without colon", `{"prb_id":7,"result":[{"hdr":["X-Client-IP 81.10.0.1"]}]}` + "\n", false},
		{"null result entry", `{"prb_id":7,"result":[null]}` + "\n", false},
		{"af disagrees with echo", `{"prb_id":7,"timestamp":3600,"result":[{"af":6,"x_client_ip":"81.10.0.1"}]}` + "\n", false},
		{"blank lines only", "\n\n\n", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recs, err := ReadRIPEResults(strings.NewReader(c.in), 0)
			if c.wantErr {
				if err == nil {
					t.Fatalf("corrupted input accepted: %+v", recs)
				}
				return
			}
			if err != nil {
				t.Fatalf("skippable input errored: %v", err)
			}
			// Only the "unparsable src" case yields a record (the echo is
			// fine); everything else must yield none.
			if c.name != "unparsable src addr" && len(recs) != 0 {
				t.Fatalf("fabricated records: %+v", recs)
			}
		})
	}
}

// TestReadRIPEResultsOversizedLine: a line beyond the scanner's buffer is
// an error, not a hang or a panic.
func TestReadRIPEResultsOversizedLine(t *testing.T) {
	huge := `{"prb_id":7,"junk":"` + strings.Repeat("x", 17*1024*1024) + `"}`
	if _, err := ReadRIPEResults(strings.NewReader(huge), 0); err == nil {
		t.Error("oversized line accepted")
	}
}
