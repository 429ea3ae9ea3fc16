package restart_test

import (
	"testing"

	"icoearth/internal/coupler"
	"icoearth/internal/grid"
	"icoearth/internal/machine"
	"icoearth/internal/restart"
)

// TestRealStateByteEqualToOracle puts the coupled model's own snapshot —
// every prognostic field, the exchange buffers, the six-element scalar
// record — through the writer/oracle comparison, after a window so the
// state is not the initial condition's round numbers.
func TestRealStateByteEqualToOracle(t *testing.T) {
	es := coupler.NewOnSuperchip(coupler.Config{
		Res:         grid.R2B(1),
		AtmLevels:   5,
		OceanLevels: 4,
		AtmDt:       120,
		OceanDt:     600,
		CouplingDt:  600,
		LandGraphs:  true,
	}, machine.GH200(680), 150)
	es.StepWindow()
	snap := es.Snapshot()
	for _, nfiles := range []int{1, 2, 3, 7, len(snap.Fields) + 5} {
		restart.CheckAgainstOracle(t, snap, nfiles)
	}
}
