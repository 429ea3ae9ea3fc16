// Package grid implements the icosahedral-triangular C-grid used by ICON
// (Giorgetta et al. 2018): a spherical mesh obtained by root-dividing the 20
// faces of an icosahedron and recursively bisecting the result. Scalar
// quantities (mass, temperature, tracers) live at triangle circumcentres,
// velocity components normal to the edges live at edge midpoints, and
// vorticity lives on the dual grid whose cells are hexagons plus exactly 12
// pentagons.
//
// The package provides the full topology (cell/edge/vertex incidence),
// spherical geometry (areas, lengths, normals), discrete C-grid operators
// (divergence, gradient, curl), synthetic land/sea masks, and a
// tree-ordered domain decomposition with halo construction used by the
// parallel runtime.
package grid

import (
	"fmt"
	"math"

	"icoearth/internal/gen"
	"icoearth/internal/sched"
	"icoearth/internal/sphere"
)

// Resolution identifies an ICON-style RnBk grid: the icosahedron edges are
// divided into Root parts (root division) and the result is bisected Bisect
// times. ICON production grids use R2Bk; the number of triangle cells is
// 20·Root²·4^Bisect.
type Resolution struct {
	Root   int // root division (ICON uses 2)
	Bisect int // number of bisection steps
}

// R2B returns the standard ICON resolution with root division 2 and k
// bisections.
func R2B(k int) Resolution { return Resolution{Root: 2, Bisect: k} }

// NumCells returns the number of triangle cells of the resolution.
func (r Resolution) NumCells() int {
	n := 20 * r.Root * r.Root
	for i := 0; i < r.Bisect; i++ {
		n *= 4
	}
	return n
}

// String returns the ICON-style name, e.g. "R2B4".
func (r Resolution) String() string { return fmt.Sprintf("R%dB%d", r.Root, r.Bisect) }

// NominalDx returns the nominal horizontal grid spacing in metres, defined
// as in the paper: the square root of the mean cell area.
func (r Resolution) NominalDx() float64 {
	meanArea := 4 * math.Pi * sphere.EarthRadius * sphere.EarthRadius / float64(r.NumCells())
	return math.Sqrt(meanArea)
}

// Grid is a fully constructed icosahedral mesh. All index slices are
// parallel arrays in generation (subdivision-tree) order, so contiguous
// index ranges correspond to spatially compact patches; the domain
// decomposition exploits this ordering.
type Grid struct {
	Res Resolution

	// Counts.
	NCells, NEdges, NVerts int

	// Vertex positions (unit vectors).
	VertPos []sphere.Vec3

	// Cell topology: for each cell, its three vertices, three edges and the
	// three edge-adjacent neighbour cells, in matching order (edge i of cell
	// c is opposite vertex i and shared with neighbour i).
	CellVerts     [][3]int
	CellEdges     [][3]int
	CellNeighbors [][3]int

	// EdgeOrient[c][i] is +1 if the normal of edge CellEdges[c][i] points
	// out of cell c, and -1 otherwise.
	EdgeOrient [][3]int8

	// Edge topology: the two endpoint vertices and the two adjacent cells.
	// EdgeCells[e][0] is the cell the edge normal points away from.
	EdgeVerts [][2]int
	EdgeCells [][2]int

	// Vertex topology: cells and edges around each vertex (5 for the 12
	// pentagon vertices, 6 elsewhere), in counterclockwise order.
	VertCells [][]int
	VertEdges [][]int

	// Geometry. Positions are unit vectors; lengths are in metres on the
	// Earth sphere; areas in m².
	CellCenter  []sphere.Vec3 // triangle circumcentres (dual vertices)
	EdgeCenter  []sphere.Vec3 // edge midpoints
	EdgeNormal  []sphere.Vec3 // unit normal (tangent to sphere, across edge)
	EdgeTangent []sphere.Vec3 // unit tangent (along edge)
	CellArea    []float64     // spherical triangle areas
	DualArea    []float64     // area of dual cell around each vertex
	EdgeLength  []float64     // primal edge length (vertex to vertex)
	DualLength  []float64     // dual edge length (circumcentre to circumcentre)

	// KineticCoeff[c][i] is the weight of edge i of cell c in the
	// edge-to-cell kinetic-energy interpolation (the paper's z_ekinh
	// kernel): KE(c) = Σᵢ KineticCoeff[c][i]·u²(eᵢ).
	KineticCoeff [][3]float64

	// Gen holds the flattened neighbour tables and operator coefficients
	// bound by the SDFG-generated kernels (internal/gen): one slice per
	// DSL array name, built once at construction and immutable after.
	// Geometry that is already a flat slice (EdgeLength, DualLength,
	// CellArea) is bound directly and not duplicated here.
	Gen GenTables
}

// GenTables is the slice-per-array form of the grid's [][3] neighbour
// tables and operator coefficients — the binding surface of the generated
// kernels. Each coefficient is computed once at grid build; the kernel
// sources in internal/sdfg/genkernels.go read them as plain fields.
type GenTables struct {
	Iel1, Iel2, Iel3 []int     // CellEdges columns
	Icell1, Icell2   []int     // EdgeCells columns
	O1, O2, O3       []float64 // float64(EdgeOrient) columns
	Ke1, Ke2, Ke3    []float64 // KineticCoeff columns
	W1, W2, W3       []float64 // Laplacian level weights o·l/(d·A)
	Tx, Ty, Tz       []float64 // EdgeTangent components
}

// New generates the grid at the given resolution. Generation is
// deterministic: the same resolution always produces identical topology and
// geometry.
func New(res Resolution) *Grid {
	if res.Root < 1 || res.Bisect < 0 {
		panic(fmt.Sprintf("grid: invalid resolution %+v", res))
	}
	b := newBuilder()
	b.icosahedron()
	b.rootDivide(res.Root)
	for i := 0; i < res.Bisect; i++ {
		b.bisect()
	}
	g := b.finish(res)
	return g
}

// builder accumulates vertices and triangles during subdivision.
type builder struct {
	verts    []sphere.Vec3
	tris     [][3]int
	midCache map[[2]int]int
}

func newBuilder() *builder {
	return &builder{midCache: make(map[[2]int]int)}
}

// icosahedron initialises the 12 vertices and 20 faces of the regular
// icosahedron, oriented with two vertices at the poles (the ICON
// "symmetric" orientation).
func (b *builder) icosahedron() {
	b.verts = b.verts[:0]
	b.tris = b.tris[:0]
	// North pole.
	b.verts = append(b.verts, sphere.Vec3{X: 0, Y: 0, Z: 1})
	// Two rings of five vertices at latitude ±atan(1/2).
	lat := math.Atan(0.5)
	for i := 0; i < 5; i++ {
		lon := 2 * math.Pi * float64(i) / 5
		b.verts = append(b.verts, sphere.FromLatLon(lat, lon))
	}
	for i := 0; i < 5; i++ {
		lon := 2*math.Pi*float64(i)/5 + math.Pi/5
		b.verts = append(b.verts, sphere.FromLatLon(-lat, lon))
	}
	// South pole.
	b.verts = append(b.verts, sphere.Vec3{X: 0, Y: 0, Z: -1})

	const south = 11
	for i := 0; i < 5; i++ {
		j := (i + 1) % 5
		nu, nv := 1+i, 1+j // upper ring
		lu, lv := 6+i, 6+j // lower ring
		b.tris = append(b.tris,
			[3]int{0, nu, nv},     // polar cap north
			[3]int{nu, lu, nv},    // upward band triangle
			[3]int{nv, lu, lv},    // downward band triangle
			[3]int{south, lv, lu}, // polar cap south
		)
	}
}

// midpoint returns (creating if necessary) the index of the spherical
// midpoint between vertices i and j.
func (b *builder) midpoint(i, j int) int {
	key := [2]int{min(i, j), max(i, j)}
	if m, ok := b.midCache[key]; ok {
		return m
	}
	m := len(b.verts)
	b.verts = append(b.verts, sphere.Midpoint(b.verts[i], b.verts[j]))
	b.midCache[key] = m
	return m
}

// bisect splits every triangle into four, keeping children contiguous in
// the output order (child c of parent p has index 4p+c), which preserves
// the subdivision-tree locality used by the decomposition.
func (b *builder) bisect() {
	next := make([][3]int, 0, 4*len(b.tris))
	for _, t := range b.tris {
		a, c, d := t[0], t[1], t[2]
		ab := b.midpoint(a, c)
		bc := b.midpoint(c, d)
		ca := b.midpoint(d, a)
		next = append(next,
			[3]int{a, ab, ca},
			[3]int{ab, c, bc},
			[3]int{ca, bc, d},
			[3]int{ab, bc, ca},
		)
	}
	b.tris = next
	b.midCache = make(map[[2]int]int)
}

// rootDivide divides every icosahedron edge into n parts, producing n²
// sub-triangles per face. n=1 is a no-op; n=2 is equivalent to one
// bisection and is implemented as such (ICON's production grids use n=2).
func (b *builder) rootDivide(n int) {
	switch n {
	case 1:
		return
	case 2:
		b.bisect()
		return
	}
	// General n-section: subdivide each face in barycentric coordinates.
	type vkey struct{ face, i, j int }
	orig := b.tris
	origVerts := b.verts
	// Shared edge vertices must be deduplicated across faces: key edge
	// points by the pair of original endpoint indices plus position.
	edgeCache := make(map[[3]int]int)
	vertIdx := make(map[vkey]int)
	var tris [][3]int

	vertexAt := func(face int, t [3]int, i, j int) int {
		// Barycentric position (i,j) with 0<=i+j<=n over triangle t.
		k := n - i - j
		// Corners map to original vertices.
		switch {
		case i == n:
			return t[1]
		case j == n:
			return t[2]
		case k == n:
			return t[0]
		}
		// Edge interior points are shared between two faces.
		var ek [3]int
		onEdge := true
		switch {
		case k == 0: // edge t1-t2
			ek = [3]int{min(t[1], t[2]), max(t[1], t[2]), edgePos(t[1], t[2], i, j, n)}
		case i == 0: // edge t0-t2
			ek = [3]int{min(t[0], t[2]), max(t[0], t[2]), edgePos(t[0], t[2], k, j, n)}
		case j == 0: // edge t0-t1
			ek = [3]int{min(t[0], t[1]), max(t[0], t[1]), edgePos(t[0], t[1], k, i, n)}
		default:
			onEdge = false
		}
		if onEdge {
			if idx, ok := edgeCache[ek]; ok {
				return idx
			}
		} else {
			if idx, ok := vertIdx[vkey{face, i, j}]; ok {
				return idx
			}
		}
		p := origVerts[t[0]].Scale(float64(k)).
			Add(origVerts[t[1]].Scale(float64(i))).
			Add(origVerts[t[2]].Scale(float64(j))).Normalize()
		idx := len(b.verts)
		b.verts = append(b.verts, p)
		if onEdge {
			edgeCache[ek] = idx
		} else {
			vertIdx[vkey{face, i, j}] = idx
		}
		return idx
	}

	for f, t := range orig {
		for row := 0; row < n; row++ {
			for col := 0; col+row < n; col++ {
				v00 := vertexAt(f, t, col, row)
				v10 := vertexAt(f, t, col+1, row)
				v01 := vertexAt(f, t, col, row+1)
				tris = append(tris, [3]int{v00, v10, v01})
				if col+row+1 < n {
					v11 := vertexAt(f, t, col+1, row+1)
					tris = append(tris, [3]int{v10, v11, v01})
				}
			}
		}
	}
	b.tris = tris
}

// edgePos encodes the position of an interior edge vertex so both adjacent
// faces agree: measured from the smaller-indexed endpoint.
func edgePos(a, bIdx, fromA, fromB, n int) int {
	_ = n
	if a < bIdx {
		return fromB // distance from a grows with fromB
	}
	return fromA
}

// finish converts the triangle soup into the full Grid with edges, duals,
// geometry and operator coefficients.
func (b *builder) finish(res Resolution) *Grid {
	g := &Grid{
		Res:     res,
		NCells:  len(b.tris),
		NVerts:  len(b.verts),
		VertPos: b.verts,
	}
	g.CellVerts = make([][3]int, g.NCells)
	copy(g.CellVerts, b.tris)

	// Build unique edges. Edge i of a cell is opposite vertex i.
	type ekey [2]int
	edgeIdx := make(map[ekey]int, 3*g.NCells/2)
	g.CellEdges = make([][3]int, g.NCells)
	for c, t := range g.CellVerts {
		for i := 0; i < 3; i++ {
			v1, v2 := t[(i+1)%3], t[(i+2)%3]
			k := ekey{min(v1, v2), max(v1, v2)}
			e, ok := edgeIdx[k]
			if !ok {
				e = len(g.EdgeVerts)
				edgeIdx[k] = e
				g.EdgeVerts = append(g.EdgeVerts, [2]int{k[0], k[1]})
				g.EdgeCells = append(g.EdgeCells, [2]int{-1, -1})
			}
			g.CellEdges[c][i] = e
			if g.EdgeCells[e][0] == -1 {
				g.EdgeCells[e][0] = c
			} else {
				g.EdgeCells[e][1] = c
			}
		}
	}
	g.NEdges = len(g.EdgeVerts)

	// Neighbours via shared edges.
	g.CellNeighbors = make([][3]int, g.NCells)
	for c := range g.CellVerts {
		for i := 0; i < 3; i++ {
			e := g.CellEdges[c][i]
			if g.EdgeCells[e][0] == c {
				g.CellNeighbors[c][i] = g.EdgeCells[e][1]
			} else {
				g.CellNeighbors[c][i] = g.EdgeCells[e][0]
			}
		}
	}

	// Vertex incidence.
	g.VertCells = make([][]int, g.NVerts)
	g.VertEdges = make([][]int, g.NVerts)
	for c, t := range g.CellVerts {
		for _, v := range t {
			g.VertCells[v] = append(g.VertCells[v], c)
		}
	}
	for e, vv := range g.EdgeVerts {
		g.VertEdges[vv[0]] = append(g.VertEdges[vv[0]], e)
		g.VertEdges[vv[1]] = append(g.VertEdges[vv[1]], e)
	}

	g.computeGeometry()
	return g
}

// computeGeometry fills all metric fields and the C-grid operator
// coefficients.
func (g *Grid) computeGeometry() {
	R := sphere.EarthRadius
	g.CellCenter = make([]sphere.Vec3, g.NCells)
	g.CellArea = make([]float64, g.NCells)
	for c, t := range g.CellVerts {
		a, b2, c2 := g.VertPos[t[0]], g.VertPos[t[1]], g.VertPos[t[2]]
		g.CellCenter[c] = sphere.Circumcenter(a, b2, c2)
		g.CellArea[c] = sphere.TriangleArea(a, b2, c2) * R * R
	}

	g.EdgeCenter = make([]sphere.Vec3, g.NEdges)
	g.EdgeNormal = make([]sphere.Vec3, g.NEdges)
	g.EdgeTangent = make([]sphere.Vec3, g.NEdges)
	g.EdgeLength = make([]float64, g.NEdges)
	g.DualLength = make([]float64, g.NEdges)
	for e, vv := range g.EdgeVerts {
		p1, p2 := g.VertPos[vv[0]], g.VertPos[vv[1]]
		mid := sphere.Midpoint(p1, p2)
		g.EdgeCenter[e] = mid
		g.EdgeLength[e] = sphere.ArcLength(p1, p2) * R
		// Tangent along the edge, normal = tangent × radial so that the
		// normal points from EdgeCells[0] towards EdgeCells[1].
		t := p2.Sub(p1)
		t = t.Sub(mid.Scale(t.Dot(mid))).Normalize()
		n := t.Cross(mid).Normalize()
		c0, c1 := g.EdgeCells[e][0], g.EdgeCells[e][1]
		d := g.CellCenter[c1].Sub(g.CellCenter[c0])
		if n.Dot(d) < 0 {
			n = n.Scale(-1)
			t = t.Scale(-1)
		}
		// Keep the tangent pointing from EdgeVerts[0] to EdgeVerts[1]; the
		// curl sign convention in Curl relies on (tangent, normal, radial)
		// forming a consistent frame with the vertex ordering.
		if t.Dot(p2.Sub(p1)) < 0 {
			g.EdgeVerts[e][0], g.EdgeVerts[e][1] = vv[1], vv[0]
		}
		g.EdgeNormal[e] = n
		g.EdgeTangent[e] = t
		g.DualLength[e] = sphere.ArcLength(g.CellCenter[c0], g.CellCenter[c1]) * R
	}

	// Edge orientation per cell: +1 when the edge normal points out of the
	// cell, i.e. when the cell is EdgeCells[0].
	g.EdgeOrient = make([][3]int8, g.NCells)
	for c := range g.CellEdges {
		for i, e := range g.CellEdges[c] {
			if g.EdgeCells[e][0] == c {
				g.EdgeOrient[c][i] = 1
			} else {
				g.EdgeOrient[c][i] = -1
			}
		}
	}

	// Dual cell areas: each (cell, vertex) corner contributes the kite
	// spanned by the circumcentre and the two adjacent edge midpoints.
	// Summing the triangle (vertex, edge-mid, circumcentre) pairs per
	// corner tiles the sphere exactly.
	g.DualArea = make([]float64, g.NVerts)
	for c, t := range g.CellVerts {
		cc := g.CellCenter[c]
		for i, v := range t {
			e1 := g.CellEdges[c][(i+1)%3] // edges incident to v
			e2 := g.CellEdges[c][(i+2)%3]
			p := g.VertPos[v]
			m1 := g.EdgeCenter[e1]
			m2 := g.EdgeCenter[e2]
			area := sphere.TriangleArea(p, m1, cc) + sphere.TriangleArea(p, cc, m2)
			g.DualArea[v] += area * sphere.EarthRadius * sphere.EarthRadius
		}
	}

	// Kinetic-energy interpolation weights (C-grid standard):
	// KE(c) = 1/A_c Σ_e (l_e·d_e/4)·u_e². The weights play the role of the
	// p_int%e_bln_c_s bilinear coefficients in ICON's z_ekinh kernel.
	g.KineticCoeff = make([][3]float64, g.NCells)
	for c := range g.CellEdges {
		for i, e := range g.CellEdges[c] {
			g.KineticCoeff[c][i] = g.EdgeLength[e] * g.DualLength[e] / (4 * g.CellArea[c])
		}
	}

	g.buildGenTables()
}

// buildGenTables flattens the [][3] tables into the per-column slices the
// generated kernels bind. W is the whole per-(cell,edge) Laplacian
// weight, so lap_levels does one multiply per edge per level.
func (g *Grid) buildGenTables() {
	t := &g.Gen
	t.Iel1 = make([]int, g.NCells)
	t.Iel2 = make([]int, g.NCells)
	t.Iel3 = make([]int, g.NCells)
	t.O1 = make([]float64, g.NCells)
	t.O2 = make([]float64, g.NCells)
	t.O3 = make([]float64, g.NCells)
	t.Ke1 = make([]float64, g.NCells)
	t.Ke2 = make([]float64, g.NCells)
	t.Ke3 = make([]float64, g.NCells)
	t.W1 = make([]float64, g.NCells)
	t.W2 = make([]float64, g.NCells)
	t.W3 = make([]float64, g.NCells)
	for c := range g.CellEdges {
		e1, e2, e3 := g.CellEdges[c][0], g.CellEdges[c][1], g.CellEdges[c][2]
		t.Iel1[c], t.Iel2[c], t.Iel3[c] = e1, e2, e3
		t.O1[c] = float64(g.EdgeOrient[c][0])
		t.O2[c] = float64(g.EdgeOrient[c][1])
		t.O3[c] = float64(g.EdgeOrient[c][2])
		t.Ke1[c], t.Ke2[c], t.Ke3[c] = g.KineticCoeff[c][0], g.KineticCoeff[c][1], g.KineticCoeff[c][2]
		t.W1[c] = float64(g.EdgeOrient[c][0]) * g.EdgeLength[e1] / (g.DualLength[e1] * g.CellArea[c])
		t.W2[c] = float64(g.EdgeOrient[c][1]) * g.EdgeLength[e2] / (g.DualLength[e2] * g.CellArea[c])
		t.W3[c] = float64(g.EdgeOrient[c][2]) * g.EdgeLength[e3] / (g.DualLength[e3] * g.CellArea[c])
	}
	t.Icell1 = make([]int, g.NEdges)
	t.Icell2 = make([]int, g.NEdges)
	t.Tx = make([]float64, g.NEdges)
	t.Ty = make([]float64, g.NEdges)
	t.Tz = make([]float64, g.NEdges)
	for e := range g.EdgeCells {
		t.Icell1[e], t.Icell2[e] = g.EdgeCells[e][0], g.EdgeCells[e][1]
		t.Tx[e], t.Ty[e], t.Tz[e] = g.EdgeTangent[e].X, g.EdgeTangent[e].Y, g.EdgeTangent[e].Z
	}
}

// Divergence computes the discrete divergence of an edge-normal velocity
// field un (m/s) into div (1/s) at cell centres:
// div(c) = 1/A_c Σᵢ orient·u·l. The two slices must have lengths NEdges and
// NCells. Dispatches the SDFG-generated div_cell kernel.
func (g *Grid) Divergence(un, div []float64) {
	t := &g.Gen
	sched.Run(g.NCells, gen.BindDivCell(g.CellArea, div, g.EdgeLength, t.O1, t.O2, t.O3, un, t.Iel1, t.Iel2, t.Iel3))
}

// Gradient computes the discrete normal gradient of a cell field psi onto
// edges: grad(e) = (ψ(c1)-ψ(c0))/d_e, following the edge normal direction.
// Dispatches the SDFG-generated grad_edge kernel.
func (g *Grid) Gradient(psi, grad []float64) {
	sched.Run(g.NEdges, gen.BindGradEdge(g.DualLength, grad, psi, g.Gen.Icell1, g.Gen.Icell2))
}

// Curl computes the discrete relative vorticity at dual vertices from the
// edge-normal velocity: ζ(v) = 1/A_v Σ circulation. The sign convention is
// counterclockwise-positive as seen from outside the sphere.
func (g *Grid) Curl(un, zeta []float64) {
	// Gather form over vertices: each vertex sums ±u_n·d_e over its
	// incident edges. The tangential circulation contribution of edge e
	// along the dual edge circulates around both endpoint vertices with
	// opposite signs (negative around EdgeVerts[e][0], positive around
	// EdgeVerts[e][1]). VertEdges lists edges in ascending order, so the
	// per-vertex fold order equals the former edge-scatter arrival order —
	// results are bit-identical to the serial scatter at any worker count.
	sched.Run(len(zeta), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			var s float64
			for _, e := range g.VertEdges[v] {
				contrib := un[e] * g.DualLength[e]
				if g.EdgeVerts[e][1] == v {
					s += contrib
				} else {
					s -= contrib
				}
			}
			zeta[v] = s / g.DualArea[v]
		}
	})
}

// KineticEnergy computes the cell-centre horizontal kinetic energy from the
// edge-normal velocity, the Go analogue of ICON's z_ekinh computation.
func (g *Grid) KineticEnergy(un, ke []float64) {
	sched.Run(g.NCells, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			var s float64
			for i, e := range g.CellEdges[c] {
				s += g.KineticCoeff[c][i] * un[e] * un[e]
			}
			ke[c] = s
		}
	})
}

// InterpCellToEdge averages a cell field to edges (arithmetic mean of the
// two adjacent cells).
func (g *Grid) InterpCellToEdge(cf, ef []float64) {
	sched.Run(g.NEdges, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			ef[e] = 0.5 * (cf[g.EdgeCells[e][0]] + cf[g.EdgeCells[e][1]])
		}
	})
}

// TotalArea returns the sum of all cell areas (should equal 4πR²).
func (g *Grid) TotalArea() float64 {
	var s float64
	for _, a := range g.CellArea {
		s += a
	}
	return s
}
