package bng

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Recovery policies for a failover scenario: what a standby taking over
// does with the session state (osvbng tests 16/17 — both happen in the
// wild and leave distinct DynamIPs signatures).
const (
	// PolicyPreserve is a lease-preserving takeover: the standby has the
	// synced session state and subscribers keep their addresses — the
	// failover is invisible in snapshots.
	PolicyPreserve = "preserve"
	// PolicyRenumber is a full renumbering takeover: the standby holds
	// no lease state, so every subscriber re-attaches and draws fresh
	// addresses — a mass renumbering event with the paper's §2.2
	// "changes due to outages" footprint.
	PolicyRenumber = "renumber"
)

// Scenario layers operator events over the baseline churn. It is part
// of the Config (and therefore the checkpoint identity): two daemons
// with the same Config+Scenario replay identical histories, failovers
// included. The zero value — and a nil *Scenario — runs the plain PR-8
// churn byte-for-byte.
type Scenario struct {
	// FailoverMeanHours draws exponential inter-failover gaps from a
	// seeded stream; FailoverAtHours pins failovers to explicit virtual
	// hours instead (both set is a validation error).
	FailoverMeanHours float64 `json:"failover_mean_hours,omitempty"`
	FailoverAtHours   []int64 `json:"failover_at_hours,omitempty"`
	// Policy is PolicyPreserve (default) or PolicyRenumber.
	Policy string `json:"policy,omitempty"`
	// CoAMeanHours adds per-subscriber RADIUS CoA-Requests at the given
	// mean interval: mid-lease renumbering without a disconnect.
	CoAMeanHours float64 `json:"coa_mean_hours,omitempty"`
	// DisconnectMeanHours adds per-subscriber RADIUS
	// Disconnect-Requests: the session is torn down and the subscriber
	// re-attaches after its downtime draw.
	DisconnectMeanHours float64 `json:"disconnect_mean_hours,omitempty"`
	// RelayHops routes DHCP groups' attach traffic through an
	// aggregation chain of this many relay/LDRA hops; RelayDrop is the
	// per-hop, per-direction loss probability applied to each exchange.
	RelayHops int     `json:"relay_hops,omitempty"`
	RelayDrop float64 `json:"relay_drop,omitempty"`
}

// EffectivePolicy resolves the default.
func (s *Scenario) EffectivePolicy() string {
	if s == nil || s.Policy == "" {
		return PolicyPreserve
	}
	return s.Policy
}

// Validate checks the scenario's ranges.
func (s *Scenario) Validate() error {
	if s == nil {
		return nil
	}
	for _, v := range []struct {
		key string
		x   float64
	}{
		{"failover-mean", s.FailoverMeanHours},
		{"coa-mean", s.CoAMeanHours},
		{"disconnect-mean", s.DisconnectMeanHours},
		{"relay-drop", s.RelayDrop},
	} {
		if math.IsNaN(v.x) || math.IsInf(v.x, 0) {
			return fmt.Errorf("bng: scenario %s %v is not finite", v.key, v.x)
		}
	}
	if s.FailoverMeanHours < 0 || s.CoAMeanHours < 0 || s.DisconnectMeanHours < 0 {
		return fmt.Errorf("bng: scenario means must be non-negative")
	}
	if s.FailoverMeanHours > 0 && len(s.FailoverAtHours) > 0 {
		return fmt.Errorf("bng: scenario sets both failover-mean and failover-at")
	}
	for _, h := range s.FailoverAtHours {
		if h < 1 {
			return fmt.Errorf("bng: failover hour %d must be >= 1", h)
		}
	}
	switch s.Policy {
	case "", PolicyPreserve, PolicyRenumber:
	default:
		return fmt.Errorf("bng: unknown recovery policy %q", s.Policy)
	}
	if s.RelayHops < 0 || s.RelayHops > 8 {
		return fmt.Errorf("bng: relay hops %d outside [0, 8]", s.RelayHops)
	}
	if s.RelayDrop < 0 || s.RelayDrop > 0.9 {
		return fmt.Errorf("bng: relay drop %g outside [0, 0.9]", s.RelayDrop)
	}
	if s.RelayDrop > 0 && s.RelayHops == 0 {
		return fmt.Errorf("bng: relay drop set without relay hops")
	}
	return nil
}

// hasFailover reports whether the scenario schedules failovers.
func (s *Scenario) hasFailover() bool {
	return s != nil && (s.FailoverMeanHours > 0 || len(s.FailoverAtHours) > 0)
}

// ParseScenario parses the -scenario flag: comma-separated key=value
// pairs.
//
//	failover-mean=24          mean hours between failovers (seeded draws)
//	failover-at=12:36         explicit failover hours, colon-separated
//	policy=preserve|renumber  recovery policy
//	coa-mean=72               mean hours between per-subscriber CoAs
//	disconnect-mean=200       mean hours between operator disconnects
//	relay-hops=2              DHCP relay/LDRA aggregation depth
//	relay-drop=0.05           per-hop per-direction loss probability
func ParseScenario(spec string) (*Scenario, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	sc := &Scenario{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("bng: scenario field %q is not key=value", field)
		}
		var err error
		switch k {
		case "failover-mean":
			sc.FailoverMeanHours, err = parsePositiveFloat(v)
		case "failover-at":
			for _, hs := range strings.Split(v, ":") {
				h, perr := strconv.ParseInt(hs, 10, 64)
				if perr != nil {
					return nil, fmt.Errorf("bng: scenario failover-at hour %q: %w", hs, perr)
				}
				sc.FailoverAtHours = append(sc.FailoverAtHours, h)
			}
			sort.Slice(sc.FailoverAtHours, func(i, j int) bool {
				return sc.FailoverAtHours[i] < sc.FailoverAtHours[j]
			})
		case "policy":
			sc.Policy = v
		case "coa-mean":
			sc.CoAMeanHours, err = parsePositiveFloat(v)
		case "disconnect-mean":
			sc.DisconnectMeanHours, err = parsePositiveFloat(v)
		case "relay-hops":
			sc.RelayHops, err = strconv.Atoi(v)
		case "relay-drop":
			sc.RelayDrop, err = strconv.ParseFloat(v, 64)
		default:
			return nil, fmt.Errorf("bng: unknown scenario key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("bng: scenario %s=%q: %w", k, v, err)
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

func parsePositiveFloat(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if f <= 0 {
		return 0, fmt.Errorf("must be positive")
	}
	return f, nil
}

// String renders the scenario back in flag syntax (for logs and DESIGN
// examples); nil renders empty.
func (s *Scenario) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	if s.FailoverMeanHours > 0 {
		parts = append(parts, fmt.Sprintf("failover-mean=%g", s.FailoverMeanHours))
	}
	if len(s.FailoverAtHours) > 0 {
		hs := make([]string, len(s.FailoverAtHours))
		for i, h := range s.FailoverAtHours {
			hs[i] = strconv.FormatInt(h, 10)
		}
		parts = append(parts, "failover-at="+strings.Join(hs, ":"))
	}
	if s.Policy != "" {
		parts = append(parts, "policy="+s.Policy)
	}
	if s.CoAMeanHours > 0 {
		parts = append(parts, fmt.Sprintf("coa-mean=%g", s.CoAMeanHours))
	}
	if s.DisconnectMeanHours > 0 {
		parts = append(parts, fmt.Sprintf("disconnect-mean=%g", s.DisconnectMeanHours))
	}
	if s.RelayHops > 0 {
		parts = append(parts, fmt.Sprintf("relay-hops=%d", s.RelayHops))
	}
	if s.RelayDrop > 0 {
		parts = append(parts, fmt.Sprintf("relay-drop=%g", s.RelayDrop))
	}
	return strings.Join(parts, ",")
}
