package core_test

import (
	"fmt"
	"net/netip"

	"dynamips/internal/core"
	"dynamips/internal/echo"
)

// ExampleInferSubscriberLength shows the §5.3 zero-bit technique: three
// /64s whose low byte is always zero reveal a /56 delegation.
func ExampleInferSubscriberLength() {
	spans := []echo.Span{
		{Start: 0, End: 99, Echo: netip.MustParseAddr("2003:1000:0:1100::1")},
		{Start: 100, End: 199, Echo: netip.MustParseAddr("2003:1000:0:4300::1")},
		{Start: 200, End: 299, Echo: netip.MustParseAddr("2003:1000:1:af00::1")},
	}
	as := core.V6Assignments(spans, core.DefaultExtractConfig())
	length, ok := core.InferSubscriberLength(as)
	fmt.Println(length, ok)
	// Output: 56 true
}

// ExampleV4Assignments shows sandwiched-duration extraction: only the
// middle assignment has both boundaries observed.
func ExampleV4Assignments() {
	spans := []echo.Span{
		{Start: 0, End: 23, Echo: netip.MustParseAddr("81.10.0.1")},
		{Start: 24, End: 47, Echo: netip.MustParseAddr("81.10.0.2")},
		{Start: 48, End: 80, Echo: netip.MustParseAddr("81.10.0.3")},
	}
	as := core.V4Assignments(spans, core.DefaultExtractConfig())
	fmt.Println(core.Changes(as), core.SandwichedDurations(as))
	// Output: 2 [24]
}

// ExampleNewScanPlan shows the §6 rescan space after a target's prefix
// changed: a /40 pool of /56 delegations needs 2^16 probes instead of the
// announcement's 2^45.
func ExampleNewScanPlan() {
	lastSeen := netip.MustParsePrefix("2003:1000:40:ab00::/64")
	plan, _ := core.NewScanPlan(lastSeen, 40, 56, true)
	fmt.Println(plan.Pool, plan.Size())
	// Output: 2003:1000::/40 65536
}
