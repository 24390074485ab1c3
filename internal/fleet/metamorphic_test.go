package fleet

import (
	"testing"

	"repro/internal/sim/simtest"
)

// TestFleetWorkersOneIsLegacy is the metamorphic no-op check for the
// parallel fleet engine: Workers values 0 and 1 must both take the legacy
// sequential sweep (every window runs inline and no gate is installed) and
// produce byte-identical artifacts — the parallel plumbing cannot perturb
// existing behaviour until it is switched on. Goldens and every pre-existing
// fleet test stay valid for exactly this reason.
func TestFleetWorkersOneIsLegacy(t *testing.T) {
	ref := fleetArtifacts(t, headlineConfig(PolicyAffinity), headlineMix(), 0, true)
	one := fleetArtifacts(t, headlineConfig(PolicyAffinity), headlineMix(), 1, true)
	simtest.Diff(t, "workers=1 vs workers=0", ref, one)
}
