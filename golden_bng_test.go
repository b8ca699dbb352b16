package dynamips

import (
	"bytes"
	"reflect"
	"testing"

	"dynamips/internal/bng"
)

// goldenBNGScenario drives every ShardStats counter: a renumbering
// failover at hours 12 and 36, RADIUS CoA and Disconnect actions, and
// lossy two-hop relay chains in front of the DHCP servers.
const goldenBNGScenario = "failover-at=12:36,policy=renumber,coa-mean=72,disconnect-mean=200,relay-hops=2,relay-drop=0.3"

// TestGoldenBNG pins the daemon's absolute history: a 3,000-subscriber
// DefaultConfig over 16 shards churned for 72 virtual hours in 6-hour
// rounds, once without and once with goldenBNGScenario. The /stats JSON
// (table hash and every event counter) and the /sketch JSON must match
// testdata/golden/bng byte for byte, so a change to the engines' event
// order or draws fails here even when it is deterministic.
func TestGoldenBNG(t *testing.T) {
	for _, tc := range []struct{ name, scenario string }{
		{"plain", ""},
		{"scenario", goldenBNGScenario},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := bng.DefaultConfig(3000, 20201201)
			cfg.ShardBits = 4
			if tc.scenario != "" {
				sc, err := bng.ParseScenario(tc.scenario)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Scenario = sc
			}
			d, err := bng.New(cfg, bng.Options{RoundHours: 6})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Churn(72); err != nil {
				t.Fatal(err)
			}
			if tc.scenario != "" {
				ev := reflect.ValueOf(d.Stats().Events)
				for i := 0; i < ev.NumField(); i++ {
					if ev.Field(i).IsZero() {
						t.Errorf("scenario leaves counter %s at zero", ev.Type().Field(i).Name)
					}
				}
			}
			var stats, sk bytes.Buffer
			if err := d.WriteStats(&stats); err != nil {
				t.Fatal(err)
			}
			if err := d.WriteSketchJSON(&sk); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "bng/"+tc.name+"_stats.json", stats.Bytes())
			checkGolden(t, "bng/"+tc.name+"_sketch.json", sk.Bytes())
		})
	}
}
