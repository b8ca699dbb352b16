package faultnet

import "testing"

// FuzzParseProfile asserts the CLI parser never panics, that every
// accepted profile validates, and that accepted profiles survive a
// String/Parse roundtrip.
func FuzzParseProfile(f *testing.F) {
	f.Add("")
	f.Add("drop=0.1")
	f.Add("drop=0.1,dup=0.02,delay=0.05:200-1500")
	f.Add("delay=1:0-0")
	f.Add("drop=1e-3,dup=0.999")
	f.Add("drop=NaN")
	f.Add("delay=0.1:9-2")
	f.Add("=,=,=")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseProfile(s)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("ParseProfile(%q) accepted an invalid profile %+v: %v", s, p, verr)
		}
		back, err := ParseProfile(p.String())
		if err != nil {
			t.Fatalf("reparsing String() of %+v (%q): %v", p, p.String(), err)
		}
		// Delay bounds are only meaningful with Delay > 0 (String omits
		// them otherwise), so compare what the wire behavior depends on.
		if p.Delay <= 0 {
			back.DelayMinMS, back.DelayMaxMS = p.DelayMinMS, p.DelayMaxMS
		}
		if back != p {
			t.Fatalf("roundtrip of %q: %+v != %+v", s, back, p)
		}
	})
}
