package bgp

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"

	"dynamips/internal/netutil"
)

func mp(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ma(s string) netip.Addr   { return netip.MustParseAddr(s) }

func TestOriginLookup(t *testing.T) {
	var tab Table
	tab.Announce(mp("2003::/19"), 3320)
	tab.Announce(mp("2003:40::/27"), 3320)
	tab.Announce(mp("81.0.0.0/10"), 3215)
	tab.SetName(3320, "DTAG")

	asn, p, ok := tab.Origin(ma("2003:40:aa00::1"))
	if !ok || asn != 3320 || p != mp("2003:40::/27") {
		t.Errorf("Origin = (%d, %v, %v)", asn, p, ok)
	}
	asn, p, ok = tab.Origin(ma("2003:80::1"))
	if !ok || asn != 3320 || p != mp("2003::/19") {
		t.Errorf("Origin = (%d, %v, %v)", asn, p, ok)
	}
	if _, _, ok := tab.Origin(ma("9.9.9.9")); ok {
		t.Error("unrouted address matched")
	}
	if got := tab.Name(3320); got != "DTAG" {
		t.Errorf("Name = %q", got)
	}
	if got := tab.Name(7922); got != "AS7922" {
		t.Errorf("fallback Name = %q", got)
	}
}

func TestOriginOfPrefix(t *testing.T) {
	var tab Table
	tab.Announce(mp("2a01:c000::/19"), 3215)
	asn, routed, ok := tab.OriginOfPrefix(mp("2a01:cb00:1:2::/64"))
	if !ok || asn != 3215 || routed != mp("2a01:c000::/19") {
		t.Errorf("OriginOfPrefix = (%d, %v, %v)", asn, routed, ok)
	}
}

func TestSameRoutedPrefix(t *testing.T) {
	var tab Table
	tab.Announce(mp("81.0.0.0/10"), 3215)
	tab.Announce(mp("90.0.0.0/9"), 3215)
	if !tab.SameRoutedPrefix(ma("81.1.2.3"), ma("81.60.9.9")) {
		t.Error("same routed prefix not detected")
	}
	if tab.SameRoutedPrefix(ma("81.1.2.3"), ma("90.1.2.3")) {
		t.Error("different routed prefixes matched")
	}
	if tab.SameRoutedPrefix(ma("81.1.2.3"), ma("8.8.8.8")) {
		t.Error("unrouted address matched")
	}
}

func TestPfx2asRoundTrip(t *testing.T) {
	var tab Table
	tab.Announce(mp("1.0.0.0/24"), 13335)
	tab.Announce(mp("2003::/19"), 3320)
	tab.Announce(mp("73.0.0.0/8"), 7922)

	var buf bytes.Buffer
	if err := tab.WritePfx2as(&buf); err != nil {
		t.Fatalf("WritePfx2as: %v", err)
	}
	got, err := ReadPfx2as(&buf)
	if err != nil {
		t.Fatalf("ReadPfx2as: %v", err)
	}
	if got.Len() != 3 {
		t.Fatalf("round-trip Len = %d", got.Len())
	}
	a, b := tab.Entries(), got.Entries()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("entry %d: %v != %v", i, a[i], b[i])
		}
	}
}

// TestPfx2asMappedPrefix: a pfx2as line with an IPv4-mapped prefix
// attributes the IPv4 addresses it covers and writes back as its plain
// IPv4 form, which reads back to the same table.
func TestPfx2asMappedPrefix(t *testing.T) {
	tab, err := ReadPfx2as(strings.NewReader("::ffff:10.0.0.0\t104\t64500\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
	if asn, routed, ok := tab.Origin(ma("10.1.2.3")); !ok || asn != 64500 || routed != mp("10.0.0.0/8") {
		t.Errorf("Origin(10.1.2.3) = (%d, %v, %v), want (64500, 10.0.0.0/8, true)", asn, routed, ok)
	}
	var buf bytes.Buffer
	if err := tab.WritePfx2as(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "10.0.0.0\t8\t64500\n"; got != want {
		t.Fatalf("WritePfx2as = %q, want %q", got, want)
	}
	back, err := ReadPfx2as(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := tab.Entries(), back.Entries(); len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Errorf("round trip: %v, want %v", b, a)
	}
}

func TestReadPfx2asFormats(t *testing.T) {
	in := `# comment
1.0.0.0	24	13335

2003::	19	3320_6695
9.9.9.0	24	19281,1234
`
	tab, err := ReadPfx2as(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadPfx2as: %v", err)
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if asn, _, _ := tab.Origin(ma("2003::1")); asn != 3320 {
		t.Errorf("multi-origin underscore: asn = %d", asn)
	}
	if asn, _, _ := tab.Origin(ma("9.9.9.9")); asn != 19281 {
		t.Errorf("multi-origin comma: asn = %d", asn)
	}
}

func TestReadPfx2asErrors(t *testing.T) {
	cases := []string{
		"1.0.0.0 24",              // too few fields
		"nonsense 24 13335",       // bad address
		"1.0.0.0 notanum 13335",   // bad length
		"1.0.0.0 99 13335",        // length out of range for v4
		"1.0.0.0 24 notanasn",     // bad asn
		"1.0.0.0 24 999999999999", // asn overflow
	}
	for _, c := range cases {
		if _, err := ReadPfx2as(strings.NewReader(c)); err == nil {
			t.Errorf("ReadPfx2as(%q) did not fail", c)
		}
	}
}

func TestEntriesSorted(t *testing.T) {
	var tab Table
	tab.Announce(mp("9.0.0.0/8"), 1)
	tab.Announce(mp("1.0.0.0/8"), 2)
	tab.Announce(mp("2003::/19"), 3)
	es := tab.Entries()
	for i := 1; i < len(es); i++ {
		if netutil.ComparePrefix(es[i-1].Prefix, es[i].Prefix) > 0 {
			t.Fatalf("entries not sorted: %v", es)
		}
	}
}
