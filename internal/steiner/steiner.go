// Package steiner estimates net wire lengths with rectilinear Steiner
// trees (§3). Trees are rebuilt lazily: a cache subscribes to netlist
// change events and invalidates only the nets touched by a move or a
// connectivity edit, so wire-length (and downstream load/delay) queries are
// incremental exactly as the paper requires.
//
// Small nets use the iterated 1-Steiner heuristic of Kahng–Robins over the
// Hanan grid; larger nets fall back to a rectilinear minimum spanning tree,
// which is itself a valid (if slightly pessimistic) Steiner topology.
//
// Construction runs through a builder holding reusable scratch (dedup
// tables, Prim state, Hanan candidate buffers) and writes into an existing
// Tree's slices, so steady-state rebuilds — millions per flow at scale —
// allocate nothing once the per-net trees have reached their high-water
// capacity. The heuristics themselves are untouched: a builder produces
// node-for-node, edge-for-edge the tree the old allocate-per-call code
// built, which keeps every downstream float sum bit-identical.
package steiner

import "math"

// Point is a pin or Steiner-node location in µm.
type Point struct{ X, Y float64 }

// Dist returns the rectilinear (Manhattan) distance between two points.
func Dist(a, b Point) float64 {
	return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
}

// Edge connects node indices U and V of a Tree.
type Edge struct{ U, V int }

// Tree is a rectilinear Steiner topology. Nodes[0:NumPins] are the pin
// locations in the order given to Build; the remainder are Steiner points.
type Tree struct {
	Nodes   []Point
	Edges   []Edge
	NumPins int
	Length  float64
}

// HPWL returns the half-perimeter wire length of a point set — the lower
// bound every Steiner construction must respect.
func HPWL(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	minX, maxX := pts[0].X, pts[0].X
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
		minX = min(minX, p.X)
		maxX = max(maxX, p.X)
		minY = min(minY, p.Y)
		maxY = max(maxY, p.Y)
	}
	return (maxX - minX) + (maxY - minY)
}

// maxOneSteinerPins bounds the iterated 1-Steiner heuristic; above it the
// O(n²)-per-candidate cost stops paying for itself and RMST is used.
const maxOneSteinerPins = 7

// dedupLinearMax bounds the linear-scan duplicate search; nets with more
// pins (clock roots, mostly) fall back to a map.
const dedupLinearMax = 32

// builder holds the scratch state for allocation-free tree construction.
// A builder is single-goroutine; the cache keeps one per worker chunk.
type builder struct {
	rep         []int32 // pin → representative pin index
	distinct    []Point
	distinctPin []int32 // distinct index → representative pin index
	work        []Point // 1-Steiner working point set
	cand        []Point // work + one trial candidate
	xs, ys      []float64
	inTree      []bool
	bestD       []float64
	bestTo      []int
	deg         []int
	core        Tree // dedup path: tree over the distinct points
}

// reset prepares t for reuse, keeping its slice capacity.
func resetTree(t *Tree, numPins int) {
	t.Nodes = t.Nodes[:0]
	t.Edges = t.Edges[:0]
	t.NumPins = numPins
	t.Length = 0
}

// Build constructs a Steiner tree over the points. The input slice is not
// retained. Coincident points — the normal case while placement is still
// at bin resolution, when every pin in a bin shares the bin center — are
// collapsed before the heuristic runs and re-attached with zero-length
// edges, so the expensive construction only ever sees distinct locations.
func Build(pts []Point) *Tree {
	var b builder
	t := &Tree{}
	b.buildInto(t, pts)
	return t
}

// buildInto rebuilds t in place over pts, reusing t's slices.
func (b *builder) buildInto(t *Tree, pts []Point) {
	resetTree(t, len(pts))
	switch len(pts) {
	case 0, 1:
		t.Nodes = append(t.Nodes, pts...)
		return
	case 2:
		t.Nodes = append(t.Nodes, pts[0], pts[1])
		t.Edges = append(t.Edges, Edge{0, 1})
		t.Length = Dist(pts[0], pts[1])
		return
	}

	// Deduplicate coincident pins. The representative of a point is its
	// first occurrence in pts, matching the map-based original exactly.
	if cap(b.rep) < len(pts) {
		b.rep = make([]int32, len(pts))
	}
	b.rep = b.rep[:len(pts)]
	b.distinct = b.distinct[:0]
	b.distinctPin = b.distinctPin[:0]
	dups := 0
	if len(pts) <= dedupLinearMax {
		for i, p := range pts {
			found := false
			for j, q := range b.distinct {
				if q == p {
					b.rep[i] = b.distinctPin[j]
					dups++
					found = true
					break
				}
			}
			if found {
				continue
			}
			b.rep[i] = int32(i)
			b.distinct = append(b.distinct, p)
			b.distinctPin = append(b.distinctPin, int32(i))
		}
	} else {
		first := make(map[Point]int32, len(pts))
		for i, p := range pts {
			if j, ok := first[p]; ok {
				b.rep[i] = j
				dups++
				continue
			}
			first[p] = int32(i)
			b.rep[i] = int32(i)
			b.distinct = append(b.distinct, p)
			b.distinctPin = append(b.distinctPin, int32(i))
		}
	}
	if dups == 0 {
		b.buildCoreInto(t, pts)
		return
	}
	if len(b.distinct) == 1 {
		t.Nodes = append(t.Nodes, pts...)
		for i := 1; i < len(pts); i++ {
			t.Edges = append(t.Edges, Edge{0, i})
		}
		return
	}

	core := &b.core
	b.buildCoreInto(core, b.distinct)
	// Splice: nodes = all original pins, then core's Steiner nodes.
	t.Nodes = append(t.Nodes, pts...)
	t.Nodes = append(t.Nodes, core.Nodes[len(b.distinct):]...)
	t.Length = core.Length
	nd := len(b.distinct)
	mapNode := func(u int) int {
		if u < nd {
			return int(b.distinctPin[u])
		}
		return len(pts) + (u - nd)
	}
	for _, e := range core.Edges {
		t.Edges = append(t.Edges, Edge{mapNode(e.U), mapNode(e.V)})
	}
	for i := range pts {
		if int(b.rep[i]) != i {
			t.Edges = append(t.Edges, Edge{int(b.rep[i]), i}) // zero length
		}
	}
}

// buildCoreInto runs the RSMT heuristic on points assumed distinct.
func (b *builder) buildCoreInto(t *Tree, pts []Point) {
	resetTree(t, len(pts))
	if len(pts) == 3 {
		b.medianInto(t, pts)
		return
	}
	if len(pts) <= maxOneSteinerPins {
		b.oneSteinerInto(t, pts)
		return
	}
	b.rmstInto(t, pts)
}

// medianInto is the exact 3-pin RSMT: every pin connects to the
// coordinate-wise median point.
func (b *builder) medianInto(t *Tree, pts []Point) {
	mx := median3(pts[0].X, pts[1].X, pts[2].X)
	my := median3(pts[0].Y, pts[1].Y, pts[2].Y)
	m := Point{mx, my}
	if m == pts[0] || m == pts[1] || m == pts[2] {
		// Median coincides with a pin: no Steiner point needed.
		t.Nodes = append(t.Nodes, pts...)
		hub := 0
		for i, p := range pts {
			if p == m {
				hub = i
				break
			}
		}
		for i := range pts {
			if i != hub {
				t.Edges = append(t.Edges, Edge{hub, i})
				t.Length += Dist(pts[i], m)
			}
		}
		return
	}
	t.Nodes = append(t.Nodes, pts...)
	t.Nodes = append(t.Nodes, m)
	for i := range pts {
		t.Edges = append(t.Edges, Edge{i, 3})
		t.Length += Dist(pts[i], m)
	}
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// rmstInto appends a rectilinear minimum spanning tree over pts to the
// (reset) tree t with Prim's algorithm (O(n²), fine for the fanout sizes
// that reach it).
func (b *builder) rmstInto(t *Tree, pts []Point) {
	n := len(pts)
	t.Nodes = append(t.Nodes, pts...)
	if cap(b.inTree) < n {
		b.inTree = make([]bool, n)
		b.bestD = make([]float64, n)
		b.bestTo = make([]int, n)
	}
	inTree := b.inTree[:n]
	bestD := b.bestD[:n]
	bestTo := b.bestTo[:n]
	for i := range inTree {
		inTree[i] = false
		bestD[i] = math.Inf(1)
		bestTo[i] = 0
	}
	inTree[0] = true
	for i := 1; i < n; i++ {
		bestD[i] = Dist(pts[0], pts[i])
		bestTo[i] = 0
	}
	for k := 1; k < n; k++ {
		sel, selD := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !inTree[i] && bestD[i] < selD {
				sel, selD = i, bestD[i]
			}
		}
		inTree[sel] = true
		t.Edges = append(t.Edges, Edge{bestTo[sel], sel})
		t.Length += selD
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := Dist(pts[sel], pts[i]); d < bestD[i] {
					bestD[i] = d
					bestTo[i] = sel
				}
			}
		}
	}
}

// mstLength returns the RMST length of pts without building the topology.
// Small point sets (the only callers) use stack buffers.
func mstLength(pts []Point) float64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	if n <= 12 {
		var inTree [12]bool
		var bestD [12]float64
		for i := 1; i < n; i++ {
			bestD[i] = Dist(pts[0], pts[i])
		}
		inTree[0] = true
		var total float64
		for k := 1; k < n; k++ {
			sel, selD := -1, math.Inf(1)
			for i := 0; i < n; i++ {
				if !inTree[i] && bestD[i] < selD {
					sel, selD = i, bestD[i]
				}
			}
			inTree[sel] = true
			total += selD
			for i := 0; i < n; i++ {
				if !inTree[i] {
					if d := Dist(pts[sel], pts[i]); d < bestD[i] {
						bestD[i] = d
					}
				}
			}
		}
		return total
	}
	inTree := make([]bool, n)
	bestD := make([]float64, n)
	for i := 1; i < n; i++ {
		bestD[i] = Dist(pts[0], pts[i])
	}
	inTree[0] = true
	var total float64
	for k := 1; k < n; k++ {
		sel, selD := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !inTree[i] && bestD[i] < selD {
				sel, selD = i, bestD[i]
			}
		}
		inTree[sel] = true
		total += selD
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := Dist(pts[sel], pts[i]); d < bestD[i] {
					bestD[i] = d
				}
			}
		}
	}
	return total
}

// oneSteinerInto implements iterated 1-Steiner: repeatedly insert the
// Hanan-grid candidate that maximally reduces the RMST length, until no
// candidate helps.
func (b *builder) oneSteinerInto(t *Tree, pts []Point) {
	numPins := len(pts)
	b.work = append(b.work[:0], pts...)
	cur := mstLength(b.work)

	// Hanan coordinates come from the *pins* only; candidates from added
	// Steiner points rarely help and triple the candidate set.
	b.xs = b.xs[:0]
	b.ys = b.ys[:0]
	for _, p := range pts {
		b.xs = append(b.xs, p.X)
		b.ys = append(b.ys, p.Y)
	}

	const eps = 1e-9
	// Two insertions capture nearly all of the iterated heuristic's gain
	// at a fraction of its cost (each round is O(n²) candidates × O(n²)
	// spanning-tree evaluations).
	maxInsert := 2
	if numPins-2 < maxInsert {
		maxInsert = numPins - 2
	}
	for added := 0; added < maxInsert; added++ {
		bestGain := eps
		var bestPt Point
		found := false
		for _, x := range b.xs {
			for _, y := range b.ys {
				c := Point{x, y}
				if containsPoint(b.work, c) {
					continue
				}
				b.cand = append(append(b.cand[:0], b.work...), c)
				l := mstLength(b.cand)
				if gain := cur - l; gain > bestGain {
					bestGain, bestPt, found = gain, c, true
				}
			}
		}
		if !found {
			break
		}
		b.work = append(b.work, bestPt)
		cur -= bestGain
	}

	b.rmstInto(t, b.work)
	t.NumPins = numPins
	b.pruneSteinerLeaves(t)
}

func containsPoint(pts []Point, c Point) bool {
	for _, p := range pts {
		if p == c {
			return true
		}
	}
	return false
}

// pruneSteinerLeaves removes degree-≤1 Steiner points (they only inflate
// the node set; length is unchanged because such leaves contribute zero or
// positive length that the RMST would not include — degree-1 Steiner leaves
// can appear when a candidate stopped helping after later insertions).
func (b *builder) pruneSteinerLeaves(t *Tree) {
	for {
		if cap(b.deg) < len(t.Nodes) {
			b.deg = make([]int, len(t.Nodes))
		}
		deg := b.deg[:len(t.Nodes)]
		for i := range deg {
			deg[i] = 0
		}
		for _, e := range t.Edges {
			deg[e.U]++
			deg[e.V]++
		}
		victim := -1
		for i := t.NumPins; i < len(t.Nodes); i++ {
			if deg[i] <= 1 {
				victim = i
				break
			}
		}
		if victim < 0 {
			return
		}
		// Drop the victim node and its (at most one) incident edge,
		// renumbering the last node into its slot.
		newEdges := t.Edges[:0]
		for _, e := range t.Edges {
			if e.U == victim || e.V == victim {
				t.Length -= Dist(t.Nodes[e.U], t.Nodes[e.V])
				continue
			}
			newEdges = append(newEdges, e)
		}
		t.Edges = newEdges
		last := len(t.Nodes) - 1
		if victim != last {
			t.Nodes[victim] = t.Nodes[last]
			for i := range t.Edges {
				if t.Edges[i].U == last {
					t.Edges[i].U = victim
				}
				if t.Edges[i].V == last {
					t.Edges[i].V = victim
				}
			}
		}
		t.Nodes = t.Nodes[:last]
	}
}

// Adjacency returns, for each node, the incident edges as (neighbor,
// length) pairs — the form the Elmore calculator walks.
func (t *Tree) Adjacency() [][]Neighbor {
	adj := make([][]Neighbor, len(t.Nodes))
	for _, e := range t.Edges {
		d := Dist(t.Nodes[e.U], t.Nodes[e.V])
		adj[e.U] = append(adj[e.U], Neighbor{e.V, d})
		adj[e.V] = append(adj[e.V], Neighbor{e.U, d})
	}
	return adj
}

// Neighbor is one adjacency entry: the neighboring node and the wire
// length of the connecting edge.
type Neighbor struct {
	Node int
	Len  float64
}
