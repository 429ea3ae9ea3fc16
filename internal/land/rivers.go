package land

import "slices"

// Rivers routes land runoff to the coastal ocean — the paper's
// "hydrological discharge from land to ocean". Every land cell drains to
// its nearest ocean cell (multi-source BFS over the cell adjacency from
// all ocean cells), and the runoff reservoir releases with a linear
// timescale, producing a freshwater flux per river mouth.
type Rivers struct {
	S *State
	// DrainTarget[i] is the global ocean cell receiving land cell i's
	// discharge.
	DrainTarget []int
	// Mouths lists the distinct drain targets in ascending global cell
	// order; a step's discharge is a slice over it.
	Mouths []int
	// ReleaseTime is the linear reservoir timescale (s).
	ReleaseTime float64

	mouth []int // land cell i's index into Mouths, -1 without a target
}

// NewRivers computes the drainage map.
func NewRivers(s *State) *Rivers {
	g := s.G
	r := &Rivers{S: s, ReleaseTime: 5 * 86400}
	// Multi-source BFS from ocean cells over cell adjacency.
	next := make([]int, g.NCells) // nearest ocean cell
	dist := make([]int, g.NCells)
	for i := range next {
		next[i] = -1
		dist[i] = -1
	}
	queue := make([]int, 0, g.NCells)
	for _, c := range s.Mask.OceanCells {
		next[c] = c
		dist[c] = 0
		queue = append(queue, c)
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, nb := range g.CellNeighbors[c] {
			if next[nb] == -1 {
				next[nb] = next[c]
				dist[nb] = dist[c] + 1
				queue = append(queue, nb)
			}
		}
	}
	r.DrainTarget = make([]int, s.NLand())
	for i, c := range s.Cells {
		r.DrainTarget[i] = next[c]
	}
	r.Mouths = slices.Compact(slices.Sorted(slices.Values(r.DrainTarget)))
	if len(r.Mouths) > 0 && r.Mouths[0] < 0 {
		r.Mouths = r.Mouths[1:]
	}
	r.mouth = make([]int, s.NLand())
	for i, c := range r.DrainTarget {
		r.mouth[i] = -1
		if c >= 0 {
			r.mouth[i], _ = slices.BinarySearch(r.Mouths, c)
		}
	}
	return r
}

// release lets land cell i's runoff reservoir drain for dt and returns
// what leaves it, as a flux to its river mouth (kg/s).
func (r *Rivers) release(i int, dt float64) float64 {
	s := r.S
	if s.Runoff[i] <= 0 || r.DrainTarget[i] < 0 {
		return 0
	}
	frac := dt / r.ReleaseTime
	if frac > 1 {
		frac = 1
	}
	out := s.Runoff[i] * frac // kg/m²
	s.Runoff[i] -= out
	return out * s.G.CellArea[s.Cells[i]] / dt
}

// fold sums the land cells' releases into discharge, one entry per mouth
// (kg/s), in ascending land-cell order. A cell that released nothing adds
// +0, which leaves every sum's bits as they are.
func (r *Rivers) fold(release, discharge []float64) {
	clear(discharge)
	for i, j := range r.mouth {
		if j >= 0 {
			discharge[j] += release[i]
		}
	}
}
