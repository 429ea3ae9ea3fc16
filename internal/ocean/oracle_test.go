package ocean

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"icoearth/internal/par"
)

// distOracle is the distributed apply and the two CG sweeps as they stood
// before the packed term table and the fused update: four parallel term
// arrays with the far side's sign in refSub, a gather that branches on it,
// and one sweep per dot product. The bodies below are the retired code
// verbatim (receiver renamed); the tests hold the live kernels to them bit
// for bit.
type distOracle struct {
	dc         *DistCG
	refCoef    []float64
	refA, refB []int32
	refSub     []bool

	x, out             []float64
	solveEta, r, z, pv []float64
	ap                 []float64
	alpha              float64
}

// newDistOracle builds the retired term arrays for dc's owned cells, in the
// retired constructor's order.
func newDistOracle(dc *DistCG, dt float64) *distOracle {
	s := dc.S
	o := &distOracle{dc: dc}
	nref := dc.refStart[dc.nOwn]
	o.refCoef = make([]float64, nref)
	o.refA = make([]int32, nref)
	o.refB = make([]int32, nref)
	o.refSub = make([]bool, nref)
	owned := func(gw int) bool { return gw >= dc.w0 && gw < dc.w1 }
	cursor := append([]int32(nil), dc.refStart[:dc.nOwn]...)
	for ei := range s.Edges {
		g0, g1 := s.EdgeCells[ei][0], s.EdgeCells[ei][1]
		if !owned(g0) && !owned(g1) {
			continue
		}
		h := 0.5 * (s.Depth[g0] + s.Depth[g1])
		cf := GravO * dt * dt * s.G.EdgeLength[s.Edges[ei]] * h / s.G.DualLength[s.Edges[ei]]
		put := func(cell int, sub bool) {
			li := cell - dc.w0
			k := cursor[li]
			o.refCoef[k] = cf
			o.refA[k] = int32(dc.locOf[g0])
			o.refB[k] = int32(dc.locOf[g1])
			o.refSub[k] = sub
			cursor[li] = k + 1
		}
		if owned(g0) {
			put(g0, false)
		}
		if owned(g1) {
			put(g1, true)
		}
	}
	return o
}

func (dc *distOracle) gatherCells(list []int32, lo, hi int) {
	x, out := dc.x, dc.out
	for k := lo; k < hi; k++ {
		li := int(list[k])
		v := dc.dc.area[li] * x[li]
		for ri := dc.dc.refStart[li]; ri < dc.dc.refStart[li+1]; ri++ {
			f := dc.refCoef[ri] * (x[dc.refA[ri]] - x[dc.refB[ri]])
			if dc.refSub[ri] {
				v -= f
			} else {
				v += f
			}
		}
		out[li] = v
	}
}

func (dc *distOracle) bPap(lo, hi int) float64 {
	pv, ap := dc.pv, dc.ap
	var acc float64
	for i := lo; i < hi; i++ {
		acc += pv[i] * ap[i]
	}
	return acc
}

func (dc *distOracle) bUpdateNorm(lo, hi int) float64 {
	eta, r, pv, ap, alpha := dc.solveEta, dc.r, dc.pv, dc.ap, dc.alpha
	var acc float64
	for i := lo; i < hi; i++ {
		eta[i] += alpha * pv[i]
		r[i] -= alpha * ap[i]
		acc += r[i] * r[i]
	}
	return acc
}

func (dc *distOracle) bZRz(lo, hi int) float64 {
	r, z, diag := dc.r, dc.z, dc.dc.diag
	var acc float64
	for i := lo; i < hi; i++ {
		z[i] = r[i] / diag[i]
		acc += r[i] * z[i]
	}
	return acc
}

// oracleInputs are the local vectors (owned then halo cells) the kernels
// are compared on: values are a function of the global wet id, so a halo
// cell carries what its owner would have sent.
func oracleInputs(dc *DistCG) map[string][]float64 {
	nloc := dc.nOwn + len(dc.haloWet)
	global := func(li int) int {
		if li < dc.nOwn {
			return dc.w0 + li
		}
		return dc.haloWet[li-dc.nOwn]
	}
	fill := func(f func(gw int) float64) []float64 {
		x := make([]float64, nloc)
		for li := range x {
			x[li] = f(global(li))
		}
		return x
	}
	rng := func(gw int) *rand.Rand { return rand.New(rand.NewSource(int64(gw)*7919 + 1)) }
	return map[string][]float64{
		"random":    fill(func(gw int) float64 { return rng(gw).NormFloat64() * math.Exp(float64(gw%9)) }),
		"plus-zero": fill(func(int) float64 { return 0 }),
		// −0 everywhere: the row value is a sum of −0·area and ±0 fluxes,
		// the one place v−f and v+(−f) could part if the identity failed.
		"minus-zero": fill(func(int) float64 { return math.Copysign(0, -1) }),
		"mixed-zero": fill(func(gw int) float64 { return math.Copysign(0, float64(gw%2)-0.5) }),
		// Every difference x[c0]−x[c1] is an exact +0.
		"equal-neighbour": fill(func(int) float64 { return -3.25 }),
		"denormal":        fill(func(gw int) float64 { return float64(gw%7-3) * 5e-324 * float64(1+gw%1000) }),
		"huge":            fill(func(gw int) float64 { return rng(gw).NormFloat64() * 1e300 }),
	}
}

// eachAlignedRank builds the aligned decomposition of the test ocean at
// every rank count of the bit-identity contract and runs body on each
// rank's solver.
func eachAlignedRank(t *testing.T, body func(nranks int, dc *DistCG)) {
	t.Helper()
	s := testOcean()
	for _, nranks := range []int{1, 2, 4, 7} {
		d := alignedDecomposition(t, s, nranks)
		par.NewWorld(nranks).Run(func(c *par.Comm) {
			dc, err := NewDistCG(s, 600, d, c)
			if err != nil {
				t.Error(err)
				return
			}
			body(nranks, dc)
		})
	}
}

// sameBits returns the first index at which a and b differ in a bit, or −1
// (requireSameBits is fatal, and these comparisons run on rank goroutines).
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestDistGatherBitsEqualOracle: the packed, sign-folded, unrolled gather
// with ⟨x,Ãx⟩ fused in writes the retired gather's rows and the retired
// bPap's block partials, on every rank of every aligned decomposition and
// on the inputs where a sign identity would show: ±0, equal neighbours
// (every flux an exact zero), denormals, near-overflow.
func TestDistGatherBitsEqualOracle(t *testing.T) {
	var pure, mixed atomic.Int64 // blocks whose partial the interior pass, resp. the boundary pass, leaves
	defer func() {
		if pure.Load() == 0 || mixed.Load() == 0 {
			t.Errorf("%d all-interior and %d mixed blocks compared; the test wants both kinds", pure.Load(), mixed.Load())
		}
	}()
	eachAlignedRank(t, func(nranks int, dc *DistCG) {
		o := newDistOracle(dc, 600)
		pure.Add(int64(dc.nBlk - len(dc.mixed)))
		mixed.Add(int64(len(dc.mixed)))
		for name, x := range oracleInputs(dc) {
			want := make([]float64, dc.nOwn)
			o.x, o.out = x, want
			o.gatherCells(dc.interior, 0, len(dc.interior))
			o.gatherCells(dc.boundary, 0, len(dc.boundary))
			o.pv, o.ap = x, want

			got := make([]float64, dc.nOwn)
			dc.x, dc.out = x, got
			dc.parInterior(0, dc.nBlk)
			dc.parBoundary(0, len(dc.mixed))
			dc.x, dc.out = nil, nil

			if i := sameBits(got, want); i >= 0 {
				t.Errorf("nranks=%d rank %d %s: row %d = %x, retired gather %x", nranks, dc.comm.Rank, name, i, got[i], want[i])
			}
			for j := 0; j < dc.nBlk; j++ {
				lo, hi := dc.block(j)
				if w := o.bPap(lo, hi); math.Float64bits(dc.partials[j]) != math.Float64bits(w) {
					t.Errorf("nranks=%d rank %d %s: block %d ⟨x,Ãx⟩ partial = %x, retired bPap %x", nranks, dc.comm.Rank, name, j, dc.partials[j], w)
				}
			}
		}
	})
}

// TestDistUpdateBitsEqualOracle: the fused η/r/z sweep leaves the vectors
// and both partial lists the retired bUpdateNorm and bZRz left.
func TestDistUpdateBitsEqualOracle(t *testing.T) {
	eachAlignedRank(t, func(nranks int, dc *DistCG) {
		o := newDistOracle(dc, 600)
		in := oracleInputs(dc)
		for _, alpha := range []float64{0.37, -1e-9, 0, math.Copysign(0, -1)} {
			eta, r, pv, ap := in["random"], in["huge"][:dc.nOwn], in["denormal"], in["mixed-zero"][:dc.nOwn]
			if alpha == 0.37 {
				r, pv, ap = in["random"][:dc.nOwn], in["random"], in["equal-neighbour"][:dc.nOwn]
			}
			clone := func(x []float64) []float64 { return append([]float64(nil), x...) }
			o.solveEta, o.r, o.z, o.pv, o.ap, o.alpha = clone(eta), clone(r), make([]float64, dc.nOwn), pv, ap, alpha
			wantRR, wantRZ := make([]float64, dc.nBlk), make([]float64, dc.nBlk)
			for j := range wantRR {
				lo, hi := dc.block(j)
				wantRR[j] = o.bUpdateNorm(lo, hi)
			}
			for j := range wantRZ {
				lo, hi := dc.block(j)
				wantRZ[j] = o.bZRz(lo, hi)
			}

			dc.solveEta, dc.pv, dc.ap, dc.alpha = clone(eta), pv, ap, alpha
			copy(dc.r, r)
			dc.parUpdate(0, dc.nBlk)
			for _, cmp := range []struct {
				name      string
				got, want []float64
			}{
				{"eta", dc.solveEta, o.solveEta}, {"r", dc.r, o.r}, {"z", dc.z, o.z},
				{"‖r‖² partials", dc.partials[:dc.nBlk], wantRR}, {"⟨r,z⟩ partials", dc.partials[dc.nBlk:], wantRZ},
			} {
				if i := sameBits(cmp.got, cmp.want); i >= 0 {
					t.Errorf("nranks=%d rank %d alpha=%v: %s[%d] = %x, retired sweeps %x", nranks, dc.comm.Rank, alpha, cmp.name, i, cmp.got[i], cmp.want[i])
				}
			}
			dc.solveEta = nil
			dc.pv = make([]float64, len(pv)) // the solver's own again
			dc.ap = make([]float64, dc.nOwn)
		}
	})
}
