package anonymize

import (
	"net/netip"
	"testing"

	"dynamips/internal/atlas"
	"dynamips/internal/core"
	"dynamips/internal/isp"
)

func TestPolicyAnonymize(t *testing.T) {
	p := Policy{ASN: 8422, TruncateLen: 40, SubscriberLen: 48}
	got, err := p.Anonymize(netip.MustParseAddr("2001:4dd0:ab:cd00::1"))
	if err != nil {
		t.Fatalf("Anonymize: %v", err)
	}
	if got != netip.MustParsePrefix("2001:4dd0::/40") {
		t.Errorf("Anonymize = %v", got)
	}
	if p.MarginBits() != 8 {
		t.Errorf("MarginBits = %d", p.MarginBits())
	}
	if _, err := p.Anonymize(netip.MustParseAddr("10.0.0.1")); err == nil {
		t.Error("IPv4 anonymized")
	}
}

// TestDerivePolicyNetcologne: the derived policy must clear the /48
// household boundary that naive /48 truncation violates.
func TestDerivePolicyNetcologne(t *testing.T) {
	profile, _ := isp.ProfileByName("Netcologne")
	res, err := isp.Run(isp.Config{Profile: profile, Subscribers: 150, Hours: 12000, Seed: 501})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := atlas.BuildFleet(res, atlas.DefaultFleetConfig(70, 502))
	if err != nil {
		t.Fatal(err)
	}
	pas := core.Analyze(atlas.Sanitize(fleet.Series, fleet.BGP, atlas.DefaultSanitizeConfig()).Clean,
		core.DefaultExtractConfig())
	pol, err := DerivePolicy(8422, pas, 8)
	if err != nil {
		t.Fatalf("DerivePolicy: %v", err)
	}
	if pol.SubscriberLen != 48 {
		t.Errorf("subscriber boundary /%d, want /48", pol.SubscriberLen)
	}
	if pol.TruncateLen >= 48 {
		t.Errorf("policy truncates at /%d, inside the household boundary", pol.TruncateLen)
	}

	// Audit against a snapshot of concurrent assignments: count the
	// released prefixes that still cover exactly one subscriber.
	audit := func(p Policy, snapshot []netip.Prefix) (singletons, released int) {
		counts := make(map[netip.Prefix]int)
		for _, s := range snapshot {
			rel, err := p.Anonymize(s.Addr())
			if err != nil {
				t.Fatalf("Anonymize(%v): %v", s, err)
			}
			counts[rel]++
		}
		for _, n := range counts {
			if n == 1 {
				singletons++
			}
		}
		return singletons, len(counts)
	}
	var snapshot []netip.Prefix
	at := res.Hours / 2
	for _, sub := range res.Subscribers {
		var cur netip.Prefix
		for _, st := range sub.V6 {
			if st.Start > at {
				break
			}
			cur = st.LAN
		}
		if cur.IsValid() {
			snapshot = append(snapshot, cur)
		}
	}
	// Naive /48: every released prefix is a single household.
	naive := Policy{TruncateLen: 48, SubscriberLen: 48}
	s48, r48 := audit(naive, snapshot)
	if s48 != r48 {
		t.Errorf("naive /48: %d of %d singletons, want all", s48, r48)
	}
	// Derived policy: no singletons.
	sd, rd := audit(pol, snapshot)
	if rd == 0 || sd != 0 {
		t.Errorf("derived policy: %d of %d singletons, want none", sd, rd)
	}
}

func TestDerivePolicyErrors(t *testing.T) {
	if _, err := DerivePolicy(1, nil, 8); err == nil {
		t.Error("policy without data derived")
	}
	if _, err := DerivePolicy(1, nil, -1); err == nil {
		t.Error("negative margin accepted")
	}
}
