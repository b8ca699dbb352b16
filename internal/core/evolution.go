package core

// Evolution over time (§3.2): the paper breaks durations down by year and
// finds that assignment durations across all categories have lengthened,
// especially in DTAG and Orange. CollectDurationsByEra reproduces that
// per-year view; internal/isp's PolicyShift provides the generative
// counterpart.

// EraDurations is one era's duration populations per AS.
type EraDurations struct {
	// Era is the era index (assignment start hour / eraHours).
	Era int
	// PerAS maps ASN to that era's duration populations.
	PerAS map[uint32]*ASDurations
}

// CollectDurationsByEra splits sandwiched duration samples by the era in
// which the assignment started (eraHours = 8760 gives the paper's
// per-year breakdown). The returned slice is indexed by era; eras without
// samples carry empty maps.
func CollectDurationsByEra(pas []ProbeAnalysis, eraHours int64) []EraDurations {
	if eraHours <= 0 {
		eraHours = 8760
	}
	var eras []EraDurations
	get := func(era int, asn uint32) *ASDurations {
		for len(eras) <= era {
			eras = append(eras, EraDurations{Era: len(eras), PerAS: make(map[uint32]*ASDurations)})
		}
		d := eras[era].PerAS[asn]
		if d == nil {
			d = &ASDurations{ASN: asn}
			eras[era].PerAS[asn] = d
		}
		return d
	}
	for _, pa := range pas {
		for _, a := range pa.V4 {
			if !a.Sandwiched() {
				continue
			}
			d := get(int(a.Start/eraHours), pa.Probe.ASN)
			if pa.DualStack {
				d.V4DS = append(d.V4DS, float64(a.Duration()))
			} else {
				d.V4NonDS = append(d.V4NonDS, float64(a.Duration()))
			}
		}
		for _, a := range pa.V6 {
			if !a.Sandwiched() {
				continue
			}
			d := get(int(a.Start/eraHours), pa.Probe.ASN)
			d.V6Hr = append(d.V6Hr, float64(a.Duration()))
		}
	}
	return eras
}
