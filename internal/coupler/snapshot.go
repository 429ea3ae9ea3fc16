// Checkpoint support for the assembled Earth system: the full prognostic
// state of every component plus the coupler's own lagged exchange buffers
// and scalar accounting, gathered into a restart.Snapshot. Restoring a
// snapshot (ApplySnapshot) makes a continuation bit-identical to an
// uninterrupted run, which is what the supervisor's rollback-and-retry
// recovery relies on: a re-run window lands on exactly the fault-free
// trajectory.
package coupler

import (
	"fmt"

	"icoearth/internal/bgc"
	"icoearth/internal/restart"
)

// scalarFields is the layout of the "coupler.scalars" snapshot entry:
// simTime, windows, oceanWaterAccount, AtmWait, OceanWait, exchange gen.
const scalarFields = 6

// Snapshot gathers every prognostic field of the coupled system plus the
// coupler's exchange buffers and scalar accounting: exactly the entries
// ApplySnapshot restores (fieldTable) plus "coupler.scalars". The snapshot
// references the live slices (no copy); write it out before stepping
// further.
func (es *EarthSystem) Snapshot() *restart.Snapshot {
	fields := es.fieldTable()
	// Scalar accounting: without it a restored run would report the wrong
	// conserved totals (oceanWaterAccount) and window count. The exchange
	// generation index rides along so a rollback taken between buffer
	// flips restores the very front/back parity the snapshot saw.
	fields["coupler.scalars"] = []float64{
		es.simTime, float64(es.windows), es.oceanWaterAccount,
		es.AtmWait, es.OceanWait, float64(es.x.gen),
	}
	return &restart.Snapshot{Fields: fields}
}

// fieldTable maps snapshot names to the live slices — the one list of
// what a checkpoint holds, read by Snapshot and written by ApplySnapshot.
// Each call builds a fresh map.
func (es *EarthSystem) fieldTable() map[string][]float64 {
	a, o, l, b := es.Atm.State, es.Oc.State, es.Land.State, es.Bgc.State
	tbl := map[string][]float64{
		"atm.rho": a.Rho, "atm.rhotheta": a.RhoTheta, "atm.vn": a.Vn,
		"atm.w": a.W, "atm.precip": a.PrecipAccum,
		// Exner/Theta are diagnostics of (rho, rhotheta) in exact
		// arithmetic but the dycore maintains them incrementally, so
		// recomputing them on restore (UpdateDiagnostics) perturbs the last
		// bit — and the coupler's pCO₂ reads Exner, so that bit walks
		// straight into the carbon cycle. Checkpoint them and restore
		// exactly.
		"atm.exner": a.Exner, "atm.theta": a.Theta,
		"oc.eta": o.Eta, "oc.ub": o.Ub, "oc.temp": o.Temp, "oc.salt": o.Salt,
		"oc.u": o.U, "oc.icethick": o.IceThick, "oc.icefrac": o.IceFrac,
		"land.soiltemp": l.SoilTemp, "land.soilmoist": l.SoilMoist,
		"land.snow": l.Snow, "land.skin": l.Skin, "land.pools": l.Pools,
		"land.lai": l.LAI, "land.cover": l.Cover, "land.nppavg": l.NPPAvg,
		"land.runoff": l.Runoff, "land.cumnee": l.CumNEE,
		"bgc.cumairsea": b.CumAirSea,
	}
	for t := range a.Tracers {
		tbl[fmt.Sprintf("atm.tracer%d", t)] = a.Tracers[t]
	}
	for t := 0; t < bgc.NumTracers; t++ {
		tbl[fmt.Sprintf("bgc.tracer%d", t)] = b.Tracers[t]
	}
	for _, xf := range es.ExchangeState() {
		tbl[xf.Name] = xf.Data
	}
	return tbl
}

// ApplySnapshot restores a snapshot produced by Snapshot on a system built
// with identical Config, rebuilding the derived boundary state
// (ResyncBoundary) so the next StepWindow continues bit-identically.
func (es *EarthSystem) ApplySnapshot(snap *restart.Snapshot) error {
	// Scalars FIRST: the exchange generation index must be restored before
	// fieldTable resolves the exchange names, so the "coupler.*" exchange
	// slices point at the front buffers of the snapshot's parity — a
	// rollback taken between buffer flips would otherwise restore the
	// lagged fluxes into the buffers the next window overwrites.
	sc, ok := snap.Fields["coupler.scalars"]
	if !ok {
		return fmt.Errorf("coupler: restart missing field %q", "coupler.scalars")
	}
	if len(sc) != scalarFields {
		return fmt.Errorf("coupler: restart scalars have %d values, want %d", len(sc), scalarFields)
	}
	es.simTime = sc[0]
	es.windows = int(sc[1])
	es.oceanWaterAccount = sc[2]
	es.AtmWait = sc[3]
	es.OceanWait = sc[4]
	es.x.gen = int(sc[5])
	for name, dst := range es.fieldTable() {
		src, ok := snap.Fields[name]
		if !ok {
			return fmt.Errorf("coupler: restart missing field %q", name)
		}
		if len(src) != len(dst) {
			return fmt.Errorf("coupler: restart field %q has %d values, want %d (different Config?)",
				name, len(src), len(dst))
		}
		copy(dst, src)
	}
	// No UpdateDiagnostics here: atm.exner/atm.theta were restored exactly
	// above, and recomputing them from the prognostics would reintroduce
	// the last-bit drift the checkpoint exists to avoid.
	es.ResyncBoundary()
	return nil
}
