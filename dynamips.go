// Package dynamips is the public facade of the DynamIPs reproduction: a
// library for analyzing the temporal and spatial dynamics of IPv4 address
// and IPv6 prefix assignments, after Padmanabhan et al., "DynamIPs:
// Analyzing address assignment practices in IPv4 and IPv6" (CoNEXT 2020).
//
// The facade re-exports the pipeline's building blocks:
//
//   - ISP ground-truth simulation (internal/isp) behind real DHCPv4,
//     DHCPv6-PD and RADIUS machinery,
//   - the RIPE-Atlas-style IP-echo dataset: generation, JSONL codec,
//     sanitization (internal/atlas),
//   - the CDN association dataset: generation, filtering, labeling
//     (internal/cdn),
//   - the analyses themselves (internal/core): assignment durations,
//     total-time-fraction curves, periodic-renumbering detection, CPL
//     spectra, and subscriber/pool boundary inference,
//   - experiment runners regenerating every table and figure of the
//     paper's evaluation (internal/experiments).
//
// See the Example functions in example_test.go and the cmd/dynamips CLI.
package dynamips

import (
	"io"
	"net/netip"

	"dynamips/internal/anonymize"
	"dynamips/internal/atlas"
	"dynamips/internal/bgp"
	"dynamips/internal/cdn"
	"dynamips/internal/core"
	"dynamips/internal/experiments"
	"dynamips/internal/hitlist"
	"dynamips/internal/isp"
	"dynamips/internal/reputation"
)

// Version identifies the library release.
const Version = "1.0.0"

// Re-exported pipeline types. The heavy lifting lives in internal
// packages; these aliases are the supported surface.
type (
	// ISPProfile is the ground-truth description of one AS's
	// assignment practice.
	ISPProfile = isp.Profile
	// ISPResult is a finished AS simulation.
	ISPResult = isp.Result
	// Fleet is a generated Atlas probe population.
	Fleet = atlas.Fleet
	// Series is one probe's observation history.
	Series = atlas.Series
	// ProbeAnalysis is the per-probe analysis digest.
	ProbeAnalysis = core.ProbeAnalysis
	// BGPTable is a routed-prefix (pfx2as) table.
	BGPTable = bgp.Table
	// CDNDataset is a generated association collection.
	CDNDataset = cdn.Dataset
	// ExperimentConfig sizes the experiment pipelines.
	ExperimentConfig = experiments.Config
	// AtlasData is the built Atlas pipeline shared by experiments.
	AtlasData = experiments.AtlasData
	// CDNData is the built CDN pipeline shared by experiments.
	CDNData = experiments.CDNData
	// ScanPlan is the §6 active-probing rescan plan.
	ScanPlan = core.ScanPlan
	// HitlistStructure is a learned per-AS addressing structure.
	HitlistStructure = hitlist.Structure
	// Hitlist is a curated target list with per-AS expiry.
	Hitlist = hitlist.List
	// AnonymizePolicy is a per-AS truncation policy.
	AnonymizePolicy = anonymize.Policy
	// TrackingReport quantifies EUI-64 trackability.
	TrackingReport = core.TrackingReport
	// BlockAdvice is a per-AS blocklist policy (TTL + IPv6 granularity).
	BlockAdvice = reputation.Advice
	// Blocklist is a TTL-aware block set.
	Blocklist = reputation.Blocklist
)

// Profiles returns the built-in ground-truth ISP profiles (the paper's
// Table 1 ASes plus Sky UK).
func Profiles() []ISPProfile { return isp.Profiles() }

// ProfileByName returns a built-in profile.
func ProfileByName(name string) (ISPProfile, bool) { return isp.ProfileByName(name) }

// SimulateAS runs one ISP simulation.
func SimulateAS(p ISPProfile, subscribers int, hours, seed int64) (*ISPResult, error) {
	return isp.Run(isp.Config{Profile: p, Subscribers: subscribers, Hours: hours, Seed: seed})
}

// BuildFleet derives an Atlas probe fleet from a simulation, with the
// default anomaly mix.
func BuildFleet(res *ISPResult, probes int, seed int64) (*Fleet, error) {
	return atlas.BuildFleet(res, atlas.DefaultFleetConfig(probes, seed))
}

// Sanitize applies the Appendix A.1 pipeline and returns surviving series.
func Sanitize(series []Series, table *BGPTable) []Series {
	return atlas.Sanitize(series, table, atlas.DefaultSanitizeConfig()).Clean
}

// Analyze digests sanitized series into per-probe analyses.
func Analyze(series []Series) []ProbeAnalysis {
	return core.Analyze(series, core.DefaultExtractConfig())
}

// DefaultExperimentConfig is the full-scale experiment configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// ReducedExperimentConfig is a fast configuration for exploration.
func ReducedExperimentConfig() ExperimentConfig { return experiments.Reduced() }

// BuildAtlasPipeline builds the shared Atlas pipeline.
func BuildAtlasPipeline(cfg ExperimentConfig) (*AtlasData, error) {
	return experiments.BuildAtlas(cfg)
}

// BuildCDNPipeline builds the shared CDN pipeline.
func BuildCDNPipeline(cfg ExperimentConfig) (*CDNData, error) {
	return experiments.BuildCDN(cfg)
}

// ExperimentNames lists the runnable experiments in paper order.
func ExperimentNames() []string { return append([]string(nil), experiments.Names...) }

// RunExperiment regenerates one table or figure, writing its rows to w.
func RunExperiment(name string, w io.Writer, cfg ExperimentConfig) error {
	return experiments.Run(name, w, cfg)
}

// NewScanPlan builds a §6 rescan plan from a last-seen /64 and learned
// addressing structure.
func NewScanPlan(lastSeen netip.Prefix, poolLen, subscriberLen int, aligned bool) (ScanPlan, error) {
	return core.NewScanPlan(lastSeen, poolLen, subscriberLen, aligned)
}

// LearnHitlistStructure derives an AS's addressing structure for hitlist
// curation from analyzed probes.
func LearnHitlistStructure(asn uint32, pas []ProbeAnalysis, table *BGPTable, quantile float64) (HitlistStructure, error) {
	return hitlist.LearnStructure(asn, pas, table, quantile)
}

// NewHitlist builds a curated target list with the given structures.
func NewHitlist(structures ...HitlistStructure) *Hitlist {
	return hitlist.New(structures...)
}

// DeriveAnonymizePolicy builds a per-AS truncation policy that clears the
// inferred subscriber boundary by marginBits.
func DeriveAnonymizePolicy(asn uint32, pas []ProbeAnalysis, marginBits int) (AnonymizePolicy, error) {
	return anonymize.DerivePolicy(asn, pas, marginBits)
}

// MeasureTracking quantifies EUI-64 trackability over raw series (§6).
func MeasureTracking(series []Series) TrackingReport {
	return core.MeasureTracking(series)
}

// AdviseBlocking derives per-AS blocklist policy from analyzed probes.
func AdviseBlocking(asn uint32, pas []ProbeAnalysis, residualRisk float64) (BlockAdvice, error) {
	return reputation.Advise(asn, pas, residualRisk)
}

// NewBlocklist builds a TTL-aware blocklist with per-AS advice.
func NewBlocklist(advice ...BlockAdvice) *Blocklist {
	return reputation.NewBlocklist(advice...)
}
