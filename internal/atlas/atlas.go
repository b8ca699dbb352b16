// Package atlas models the RIPE Atlas "IP echo" dataset (§3.1): probes in
// home networks perform hourly HTTP GETs against an echo server that
// returns the publicly visible client address in an X-Client-IP header.
//
// The package provides a real net/http echo server and probe client, a
// fleet generator that derives probe observations from internal/isp
// ground truth (with the anomaly types Appendix A.1 describes), the full
// sanitization pipeline from that appendix, and a reader for the public
// RIPE result stream. The observations themselves are internal/echo's
// schema, which the analysis packages read without linking this one.
package atlas

import (
	"net/netip"

	"dynamips/internal/echo"
)

// TestAddr is the RIPE NCC address probes echoed while being tested before
// distribution; Appendix A.1 filters all entries carrying it.
var TestAddr = netip.MustParseAddr("193.0.0.78")

// Series is echo.Series under its former name, kept only for the
// benchmark module's atlas pipeline replay; it goes with the next change
// to the benchmark.
type Series = echo.Series
