package bng

import (
	"fmt"

	"dynamips/internal/bng/stripe"
)

// CheckSync verifies that a standby's key-ordered session table holds
// the active's records exactly. Both daemons replay the identical
// deterministic history from the same Config — scenario included — so
// any difference is a split brain: the replay contract is broken and a
// takeover would corrupt assignments.
func CheckSync(active, standby []stripe.Session) error {
	if len(active) != len(standby) {
		return fmt.Errorf("bng: ha split brain: active has %d sessions, standby %d", len(active), len(standby))
	}
	for i := range active {
		if active[i] != standby[i] {
			return fmt.Errorf("bng: ha split brain at key %#x: active %+v, standby %+v", active[i].Key, active[i], standby[i])
		}
	}
	return nil
}
