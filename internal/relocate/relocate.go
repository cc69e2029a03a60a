// Package relocate implements the circuit-relocation utility of §4.6: a
// min-cost network optimization over the bin grid that frees space in a
// congested bin by rippling non-critical cells outward along shortest
// paths toward bins with spare capacity, without hurting worst-case
// timing. It is callable stand-alone (fix every overfull bin) or from
// inside another transform (make room for a clone or buffer in a specific
// bin).
package relocate

import (
	"cmp"
	"container/heap"
	"math"
	"slices"

	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/timing"
)

// Relocator couples the bin image with the timing analyzer so only
// non-critical cells move.
type Relocator struct {
	NL  *netlist.Netlist
	Eng *timing.Engine
	Im  *image.Image
	// SlackMargin: only cells with slack above this are relocatable.
	SlackMargin float64
	// Moves counts cells relocated since construction.
	Moves int

	// Incremental bin index: bin flat id → movable gates inside, plus the
	// bin each gate is filed under. The relocator observes the netlist, so
	// gate moves land in a pending queue that the public entry points
	// drain; a full O(gates) rebuild happens only on the first call, after
	// bulk movement (global placement), or when the bin grid refines.
	// List order within a bin is arbitrary — moveOneCell sorts candidates
	// by the strict (area, ID) order, so every choice stays deterministic.
	binGates [][]*netlist.Gate
	gateBin  []int32 // gate ID → flat bin index, -1 when unindexed
	pending  []*netlist.Gate
	valid    bool
	indexNX  int
	indexNY  int
}

// New returns a relocator with a safe default margin, subscribed to
// netlist changes. Call Close to detach it.
func New(nl *netlist.Netlist, eng *timing.Engine, im *image.Image) *Relocator {
	r := &Relocator{NL: nl, Eng: eng, Im: im, SlackMargin: 0}
	nl.Observe(r)
	return r
}

// Close unsubscribes the relocator from the netlist.
func (r *Relocator) Close() { r.NL.Unobserve(r) }

// ---- netlist.Observer: keep the bin index in sync ----

func (r *Relocator) GateMoved(g *netlist.Gate)   { r.note(g) }
func (r *Relocator) GateAdded(g *netlist.Gate)   { r.note(g) }
func (r *Relocator) GateRemoved(g *netlist.Gate) { r.note(g) }
func (r *Relocator) GateResized(*netlist.Gate)   {}
func (r *Relocator) NetChanged(*netlist.Net)     {}

func (r *Relocator) note(g *netlist.Gate) {
	if !r.valid {
		return
	}
	if len(r.pending) >= r.NL.NumGates()/2+64 {
		// Bulk movement: replaying every event costs more than one rebuild
		// at the next entry point.
		r.valid = false
		r.pending = r.pending[:0]
		return
	}
	r.pending = append(r.pending, g)
}

// ensureIndex brings the bin index up to date with the netlist.
func (r *Relocator) ensureIndex() {
	if !r.valid || r.indexNX != r.Im.NX || r.indexNY != r.Im.NY {
		r.rebuildIndex()
		return
	}
	for _, g := range r.pending {
		r.refile(g)
	}
	r.pending = r.pending[:0]
}

// refile moves gate g to the bin list matching its current state. Replayed
// events are idempotent: a gate already filed where it belongs is a no-op.
func (r *Relocator) refile(g *netlist.Gate) {
	for g.ID >= len(r.gateBin) {
		r.gateBin = append(r.gateBin, -1)
	}
	old := r.gateBin[g.ID]
	want := int32(-1)
	if !g.Removed && !g.Fixed && !g.IsPad() {
		ix, iy := r.Im.Loc(g.X, g.Y)
		want = int32(iy*r.Im.NX + ix)
	}
	if old == want {
		return
	}
	if old >= 0 {
		bg := r.binGates[old]
		for i, og := range bg {
			if og == g {
				bg[i] = bg[len(bg)-1]
				r.binGates[old] = bg[:len(bg)-1]
				break
			}
		}
	}
	if want >= 0 {
		r.binGates[want] = append(r.binGates[want], g)
	}
	r.gateBin[g.ID] = want
}

// FreeSpace tries to create at least `need` µm² of free capacity in the
// bin containing (x, y) by relocating non-critical cells along min-cost
// (distance-weighted) augmenting paths to bins with spare capacity.
// Returns true if the space is available afterwards.
func (r *Relocator) FreeSpace(x, y, need float64) bool {
	r.ensureIndex()
	bi, bj := r.Im.Loc(x, y)
	for iter := 0; iter < 32; iter++ {
		b := r.Im.At(bi, bj)
		if b.Free() >= need {
			return true
		}
		if !r.augment(bi, bj) {
			return b.Free() >= need
		}
	}
	return r.Im.At(bi, bj).Free() >= need
}

// RelieveAll fixes every overfull bin (used as the stand-alone transform).
// Returns the number of cells moved.
func (r *Relocator) RelieveAll(slack float64) int {
	r.ensureIndex()
	before := r.Moves
	for _, flat := range r.Im.Overfull(slack) {
		ix, iy := flat%r.Im.NX, flat/r.Im.NX
		for iter := 0; iter < 64; iter++ {
			b := r.Im.At(ix, iy)
			if b.AreaUsed <= b.AreaCap*(1+slack) {
				break
			}
			if !r.augment(ix, iy) {
				break
			}
		}
	}
	return r.Moves - before
}

// pathNode is a Dijkstra state over bins.
type pathNode struct {
	cost float64
	flat int
}

type pathPQ []pathNode

func (p pathPQ) Len() int            { return len(p) }
func (p pathPQ) Less(i, j int) bool  { return p[i].cost < p[j].cost }
func (p pathPQ) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pathPQ) Push(x interface{}) { *p = append(*p, x.(pathNode)) }
func (p *pathPQ) Pop() interface{} {
	n := len(*p) - 1
	v := (*p)[n]
	*p = (*p)[:n]
	return v
}

// augment finds the min-cost path from the source bin to the nearest bin
// with spare capacity and ripples one cell across each hop, so each bin on
// the path keeps its occupancy while the source loses one cell. Returns
// false when no augmenting path or movable cell exists.
func (r *Relocator) augment(si, sj int) bool {
	nx, ny := r.Im.NX, r.Im.NY
	n := nx * ny
	dist := make([]float64, n)
	prev := make([]int32, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	start := sj*nx + si
	dist[start] = 0
	h := &pathPQ{{0, start}}
	goal := -1
	stepCost := r.Im.BinW() + r.Im.BinH()
	for h.Len() > 0 {
		it := heap.Pop(h).(pathNode)
		if it.cost > dist[it.flat] {
			continue
		}
		ci, cj := it.flat%nx, it.flat/nx
		b := r.Im.At(ci, cj)
		// A usable sink has meaningful spare room.
		if it.flat != start && b.Free() > b.AreaCap*0.1 {
			goal = it.flat
			break
		}
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			ti, tj := ci+d[0], cj+d[1]
			if ti < 0 || ti >= nx || tj < 0 || tj >= ny {
				continue
			}
			tf := tj*nx + ti
			if nd := it.cost + stepCost; nd < dist[tf] {
				dist[tf] = nd
				prev[tf] = int32(it.flat)
				heap.Push(h, pathNode{nd, tf})
			}
		}
	}
	if goal < 0 {
		return false
	}

	// Collect the path source→goal.
	var path []int
	for at := goal; at != -1; at = int(prev[at]) {
		path = append(path, at)
	}
	// path is goal..start; reverse to start..goal.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}

	// Ripple: move one cell from each bin to the next bin along the path.
	moved := false
	for i := 0; i+1 < len(path); i++ {
		fi, fj := path[i]%nx, path[i]/nx
		ti, tj := path[i+1]%nx, path[i+1]/nx
		if r.moveOneCell(fi, fj, ti, tj) {
			moved = true
		} else if i == 0 {
			return false // source bin has nothing movable
		}
	}
	return moved
}

// rebuildIndex refreshes the whole bin → gates index from the netlist,
// keeping per-bin list capacity when the grid shape is unchanged.
func (r *Relocator) rebuildIndex() {
	nb := r.Im.NumBins()
	if len(r.binGates) != nb {
		r.binGates = make([][]*netlist.Gate, nb)
	} else {
		for i := range r.binGates {
			r.binGates[i] = r.binGates[i][:0]
		}
	}
	ng := r.NL.GateCap()
	if cap(r.gateBin) < ng {
		r.gateBin = make([]int32, ng)
	}
	r.gateBin = r.gateBin[:ng]
	for i := range r.gateBin {
		r.gateBin[i] = -1
	}
	r.indexNX, r.indexNY = r.Im.NX, r.Im.NY
	r.NL.Gates(func(g *netlist.Gate) {
		if g.Fixed || g.IsPad() {
			return
		}
		ix, iy := r.Im.Loc(g.X, g.Y)
		flat := iy*r.Im.NX + ix
		r.binGates[flat] = append(r.binGates[flat], g)
		r.gateBin[g.ID] = int32(flat)
	})
	r.pending = r.pending[:0]
	r.valid = true
}

// moveOneCell relocates the best (smallest non-critical) movable cell from
// bin (fi,fj) to the center of bin (ti,tj).
func (r *Relocator) moveOneCell(fi, fj, ti, tj int) bool {
	t := r.NL.Lib.Tech
	from := fj*r.Im.NX + fi
	cands := r.binGates[from]
	if len(cands) == 0 {
		return false
	}
	// Prefer small cells with healthy slack: they disturb timing least
	// and exactly implement "move non-critical cells away" (§4.6).
	slices.SortFunc(cands, func(a, b *netlist.Gate) int {
		return cmp.Or(cmp.Compare(a.Area(t), b.Area(t)), cmp.Compare(a.ID, b.ID))
	})
	for k, g := range cands {
		if r.Eng != nil && r.Eng.GateSlack(g) <= r.SlackMargin {
			continue
		}
		cx, cy := r.Im.Center(ti, tj)
		r.Im.Withdraw(g.X, g.Y, g.Area(t))
		r.NL.MoveGate(g, cx, cy)
		r.Im.Deposit(cx, cy, g.Area(t))
		// Maintain the index across our own move (the observer echo of
		// this MoveGate replays as a no-op refile).
		r.binGates[from] = append(cands[:k], cands[k+1:]...)
		to := tj*r.Im.NX + ti
		r.binGates[to] = append(r.binGates[to], g)
		r.gateBin[g.ID] = int32(to)
		r.Moves++
		return true
	}
	return false
}
