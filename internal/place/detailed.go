package place

import (
	"fmt"
	"math"
	"sort"

	"tps/internal/netlist"
	"tps/internal/par"
	"tps/internal/steiner"
)

// Legalize snaps every movable gate to a standard-cell row and removes
// overlaps with a Tetris-style greedy assignment: gates are processed left
// to right and claim the cheapest (displacement-cost) row position that
// does not overlap previously legalized cells. Fixed gates (pads) are left
// alone; they live on the periphery outside the rows.
func Legalize(nl *netlist.Netlist, chipW, chipH float64) {
	t := nl.Lib.Tech
	numRows := int(chipH / t.RowHeight)
	if numRows < 1 {
		numRows = 1
	}
	rowEnd := make([]float64, numRows)

	var gates []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed && !g.IsPad() {
			gates = append(gates, g)
		}
	})
	sort.Slice(gates, func(i, j int) bool {
		if gates[i].X != gates[j].X {
			return gates[i].X < gates[j].X
		}
		return gates[i].ID < gates[j].ID
	})

	rowY := func(r int) float64 { return (float64(r) + 0.5) * t.RowHeight }

	for _, g := range gates {
		w := g.Width()
		if w <= 0 {
			w = t.SiteWidth
		}
		bestRow, bestX, bestCost := -1, 0.0, math.Inf(1)
		wantRow := clampInt(int(g.Y/t.RowHeight), 0, numRows-1)
		// Search rows outward from the desired one; displacement cost is
		// monotone in row distance, so we can stop once row distance alone
		// exceeds the best cost.
		for d := 0; d < numRows; d++ {
			for _, r := range []int{wantRow - d, wantRow + d} {
				if r < 0 || r >= numRows || (d == 0 && r != wantRow) {
					continue
				}
				dy := math.Abs(rowY(r) - g.Y)
				if dy >= bestCost {
					continue
				}
				x := math.Max(rowEnd[r], g.X-w/2)
				if x+w > chipW {
					x = chipW - w
					if x < rowEnd[r] {
						continue // row full
					}
				}
				cost := dy + math.Abs(x+w/2-g.X)
				if cost < bestCost {
					bestRow, bestX, bestCost = r, x, cost
				}
			}
			if float64(d)*t.RowHeight > bestCost {
				break
			}
		}
		if bestRow < 0 {
			// Every row is full at or right of the target; fall back to
			// the emptiest row (slight overflow beats a lost cell).
			bestRow = 0
			for r := 1; r < numRows; r++ {
				if rowEnd[r] < rowEnd[bestRow] {
					bestRow = r
				}
			}
			bestX = rowEnd[bestRow]
		}
		nl.MoveGate(g, bestX+w/2, rowY(bestRow))
		rowEnd[bestRow] = bestX + w
	}
}

// CheckLegal verifies that no two movable gates overlap and that every
// gate sits centered on a row. It returns the first violation.
func CheckLegal(nl *netlist.Netlist, chipW, chipH float64) error {
	t := nl.Lib.Tech
	type iv struct {
		g      *netlist.Gate
		lo, hi float64
	}
	rows := make(map[int][]iv)
	var err error
	nl.Gates(func(g *netlist.Gate) {
		if err != nil || g.Fixed || g.IsPad() {
			return
		}
		r := int(g.Y / t.RowHeight)
		cy := (float64(r) + 0.5) * t.RowHeight
		if math.Abs(g.Y-cy) > 1e-6 {
			err = fmt.Errorf("gate %s y=%g not on a row center", g.Name, g.Y)
			return
		}
		w := g.Width()
		rows[r] = append(rows[r], iv{g, g.X - w/2, g.X + w/2})
	})
	if err != nil {
		return err
	}
	for r, ivs := range rows {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].lo < ivs[i-1].hi-1e-6 {
				return fmt.Errorf("row %d: %s overlaps %s", r, ivs[i-1].g.Name, ivs[i].g.Name)
			}
		}
	}
	return nil
}

// DetailedOptions tunes DetailedPlace.
type DetailedOptions struct {
	// WindowSize is the number of consecutive same-row cells considered
	// together (the paper uses ≈20 objects).
	WindowSize int
	// MaxPermute bounds the sub-group size for exhaustive reordering.
	MaxPermute int
	// Passes over the whole chip.
	Passes int
	// MaxScoreNetPins excludes nets with more pins from the window scorer
	// (and therefore from the row conflict graph). Huge nets — clock and
	// scan chains — span every row: their HPWL barely responds to a
	// single-row swap, yet scoring them would both waste the delta scorer's
	// advantage and serialize all rows. Zero-weight nets are likewise
	// skipped (their contribution is exactly zero either way).
	MaxScoreNetPins int
	// Workers bounds how many non-conflicting rows optimize concurrently.
	// Rows are colored so same-color rows share no scored net, color
	// classes run in ascending order, and gate moves ride a netlist move
	// batch — results are identical at any worker count.
	Workers int
	// fullRescore disables the per-net contribution cache and recomputes
	// every affected net from scratch on both sides of each candidate
	// move. It is the reference evaluator the equivalence tests compare
	// the delta scorer against; decisions are identical by construction
	// whenever the cache is correct.
	fullRescore bool
}

// DefaultDetailedOptions mirrors the paper's description.
func DefaultDetailedOptions() DetailedOptions {
	return DetailedOptions{WindowSize: 20, MaxPermute: 3, Passes: 1, MaxScoreNetPins: 64}
}

// DetailedPlace is Algorithm DetailedPlaceOpt: a window slides across each
// row; within the window every pair swap and every permutation of small
// sub-groups is scored (weighted Steiner length of the affected nets) and
// the best improving move is kept, followed by in-row relegalization.
func DetailedPlace(nl *netlist.Netlist, opt DetailedOptions) int {
	if opt.WindowSize <= 1 {
		opt.WindowSize = 20
	}
	if opt.MaxPermute < 2 {
		opt.MaxPermute = 3
	}
	if opt.Passes < 1 {
		opt.Passes = 1
	}
	if opt.MaxScoreNetPins < 2 {
		opt.MaxScoreNetPins = 64
	}
	t := nl.Lib.Tech

	rows := make(map[int][]*netlist.Gate)
	nl.Gates(func(g *netlist.Gate) {
		if g.Fixed || g.IsPad() {
			return
		}
		r := int(g.Y / t.RowHeight)
		rows[r] = append(rows[r], g)
	})
	var rowIDs []int
	for r := range rows {
		rowIDs = append(rowIDs, r)
		sort.Slice(rows[r], func(i, j int) bool { return rows[r][i].X < rows[r][j].X })
	}
	sort.Ints(rowIDs)

	runRow := func(row []*netlist.Gate) int {
		acc := 0
		var sc windowScorer // reused by every window in this row
		for start := 0; start < len(row); start += opt.WindowSize / 2 {
			end := start + opt.WindowSize
			if end > len(row) {
				end = len(row)
			}
			acc += optimizeWindow(nl, row[start:end], opt, &sc)
			if end == len(row) {
				break
			}
		}
		return acc
	}

	// Swaps stay within their row, so rows are the parallel unit. Rows
	// coupled by a scored net must not run together (one's scorer reads
	// positions the other writes); color the conflict graph and run each
	// color class's rows concurrently, classes in ascending order. Gates
	// never change rows, so one coloring serves all passes. The move batch
	// defers observer notification to a single ID-ordered replay, identical
	// at every worker count.
	gateRow := make([]int32, nl.GateCap())
	for i := range gateRow {
		gateRow[i] = -1
	}
	for k, r := range rowIDs {
		for _, g := range rows[r] {
			gateRow[g.ID] = int32(k)
		}
	}
	color, ncolors := conflictColors(nl, gateRow, len(rowIDs), opt.MaxScoreNetPins)
	classes := make([][]int, ncolors)
	for k := range rowIDs {
		c := color[k]
		classes[c] = append(classes[c], k)
	}

	w := opt.Workers
	if w < 1 {
		w = 1
	}
	rowAcc := make([]int, len(rowIDs))
	nl.BeginMoveBatch()
	for pass := 0; pass < opt.Passes; pass++ {
		for _, class := range classes {
			class := class
			par.ForEach(w, len(class), func(kk int) {
				k := class[kk]
				rowAcc[k] += runRow(rows[rowIDs[k]])
			})
		}
	}
	nl.EndMoveBatch()
	accepted := 0
	for _, a := range rowAcc {
		accepted += a
	}
	return accepted
}

// windowScorer delta-evaluates candidate moves inside one window. It
// caches each window net's contribution (weight · HPWL) and, per
// candidate, re-evaluates only the nets touching the gates that actually
// moved — eliminating the O(windowNets·pins) scan per candidate that full
// rescoring pays. Cached contributions are maintained bit-identical to a
// fresh recomputation: every accepted or position-perturbing move commits
// freshly computed values, and sums always run over the affected nets in
// ascending net ID order, so delta and full-rescore evaluation take
// exactly the same accept/reject decisions.
type windowScorer struct {
	nets     []*netlist.Net // window nets in ascending ID order
	contrib  []float64      // cached weight·HPWL, parallel to nets
	gateSlot map[int]int32  // gate ID → build-time window slot
	gateOff  []int32        // CSR: slot → [gateOff[s], gateOff[s+1]) in gateIdx
	gateIdx  []int32        // concatenated per-slot net indices
	mark     []int          // epoch stamps for affected-set dedup
	epoch    int
	aff      []int32 // scratch: affected net indices, ascending
	newVals  []float64
	posBuf   []float64 // scratch: span gate positions before a trial
	pts      []steiner.Point
	fresh    bool // reference mode: ignore the cache on the before side

	// permutation scratch (tryPermuteDelta)
	group, best []*netlist.Gate
	perm        []int

	order, inv []int32        // net-ID-sort scratch
	sorted     []*netlist.Net // net-ID-sort scratch
}

func newWindowScorer(win []*netlist.Gate, opt DetailedOptions) *windowScorer {
	s := &windowScorer{}
	s.reset(win, opt)
	return s
}

// reset rebuilds the scorer's state for a new window, reusing every slice
// and map from the previous window on this scorer.
func (s *windowScorer) reset(win []*netlist.Gate, opt DetailedOptions) {
	s.fresh = opt.fullRescore
	s.nets = s.nets[:0]
	s.gateIdx = s.gateIdx[:0]
	s.gateOff = append(s.gateOff[:0], 0)
	if s.gateSlot == nil {
		s.gateSlot = make(map[int]int32, len(win))
	} else {
		clear(s.gateSlot)
	}
	maxPins := opt.MaxScoreNetPins
	if maxPins < 2 {
		maxPins = 64
	}
	for slot, g := range win {
		s.gateSlot[g.ID] = int32(slot)
		rowStart := len(s.gateIdx)
		for _, p := range g.Pins {
			n := p.Net
			if n == nil || n.Weight <= 0 {
				continue
			}
			if np := len(n.Pins()); np < 2 || np > maxPins {
				continue
			}
			// Net index: nets are few per window, linear scan beats a map.
			idx := int32(-1)
			for k, m := range s.nets {
				if m == n {
					idx = int32(k)
					break
				}
			}
			if idx < 0 {
				idx = int32(len(s.nets))
				s.nets = append(s.nets, n)
			}
			dup := false
			for _, x := range s.gateIdx[rowStart:] {
				if x == idx {
					dup = true
					break
				}
			}
			if !dup {
				s.gateIdx = append(s.gateIdx, idx)
			}
		}
		s.gateOff = append(s.gateOff, int32(len(s.gateIdx)))
	}
	// Ascending net ID order fixes the summation order; remap per-gate
	// index lists to the sorted positions.
	s.order = s.order[:0]
	for i := range s.nets {
		s.order = append(s.order, int32(i))
	}
	sort.Slice(s.order, func(a, b int) bool { return s.nets[s.order[a]].ID < s.nets[s.order[b]].ID })
	s.inv = grow32(s.inv, len(s.nets))
	s.sorted = s.sorted[:0]
	for newIdx, oldIdx := range s.order {
		s.inv[oldIdx] = int32(newIdx)
		s.sorted = append(s.sorted, s.nets[oldIdx])
	}
	s.nets, s.sorted = s.sorted, s.nets[:0]
	for k, x := range s.gateIdx {
		s.gateIdx[k] = s.inv[x]
	}
	s.contrib = growF(s.contrib, len(s.nets))
	s.newVals = growF(s.newVals, len(s.nets))
	s.mark = s.mark[:0]
	for range s.nets {
		s.mark = append(s.mark, 0)
	}
	s.epoch = 0
	for i := range s.nets {
		s.contrib[i] = s.netScore(i)
	}
}

func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// netScore freshly computes weight · HPWL of window net idx.
func (s *windowScorer) netScore(idx int) float64 {
	n := s.nets[idx]
	s.pts = s.pts[:0]
	for _, p := range n.Pins() {
		s.pts = append(s.pts, steiner.Point{X: p.X(), Y: p.Y()})
	}
	return n.Weight * steiner.HPWL(s.pts)
}

// affected returns the indices (ascending, deduplicated) of the window
// nets touching any of the given gates. It stamps each net's mark, then
// emits the stamped indices by scanning mark between the lowest and
// highest one touched, so no comparison sort is needed. The returned
// slice is scratch, valid until the next call.
func (s *windowScorer) affected(gates []*netlist.Gate) []int32 {
	s.epoch++
	s.aff = s.aff[:0]
	lo, hi := int32(len(s.mark)), int32(-1)
	for _, g := range gates {
		slot := s.gateSlot[g.ID]
		for _, idx := range s.gateIdx[s.gateOff[slot]:s.gateOff[slot+1]] {
			s.mark[idx] = s.epoch
			lo, hi = min(lo, idx), max(hi, idx)
		}
	}
	for idx := lo; idx <= hi; idx++ {
		if s.mark[idx] == s.epoch {
			s.aff = append(s.aff, idx)
		}
	}
	return s.aff
}

// sumBefore totals the affected nets' contributions in index order, from
// the cache (or from scratch in reference mode).
func (s *windowScorer) sumBefore(aff []int32) float64 {
	var sum float64
	for _, idx := range aff {
		if s.fresh {
			sum += s.netScore(int(idx))
		} else {
			sum += s.contrib[idx]
		}
	}
	return sum
}

// sumAfter freshly evaluates the affected nets in index order, staging the
// values for a later commit.
func (s *windowScorer) sumAfter(aff []int32) float64 {
	var sum float64
	for _, idx := range aff {
		v := s.netScore(int(idx))
		s.newVals[idx] = v
		sum += v
	}
	return sum
}

// commit installs the staged values from the last sumAfter call.
func (s *windowScorer) commit(aff []int32) {
	for _, idx := range aff {
		s.contrib[idx] = s.newVals[idx]
	}
}

// refresh recomputes the affected nets' cached contributions in place
// (used after a reverted trial that nonetheless re-packed positions).
func (s *windowScorer) refresh(aff []int32) {
	for _, idx := range aff {
		s.contrib[idx] = s.netScore(int(idx))
	}
}

// savePos snapshots the x-positions of a gate span.
func (s *windowScorer) savePos(gates []*netlist.Gate) {
	s.posBuf = s.posBuf[:0]
	for _, g := range gates {
		s.posBuf = append(s.posBuf, g.X)
	}
}

// posChanged reports whether any gate of the span moved since savePos.
// Reverted swaps re-pack the span abutted from its left edge, which
// usually restores the exact positions — but squeezes out any gaps the
// span had, in which case the cache must be refreshed.
func (s *windowScorer) posChanged(gates []*netlist.Gate) bool {
	for i, g := range gates {
		if g.X != s.posBuf[i] {
			return true
		}
	}
	return false
}

// optimizeWindow tries pair swaps and small permutations within one
// window. Gates within a window sit on the same row; swapping exchanges
// their x-position slots (widths differ, so positions are re-packed from
// the leftmost edge, which keeps the row legal). The default objective is
// the weighted HPWL of the affected nets — for single-row swap decisions
// HPWL ranks moves the same as the Steiner length at a fraction of the
// cost — evaluated through the delta scorer above.
func optimizeWindow(nl *netlist.Netlist, win []*netlist.Gate, opt DetailedOptions, sc *windowScorer) int {
	if len(win) < 2 {
		return 0
	}
	sc.reset(win, opt)

	accepted := 0
	improved := true
	for iter := 0; improved && iter < 3; iter++ {
		improved = false
		// All pair swaps. A candidate only perturbs win[i:j+1] (the swap
		// plus the re-pack of the span between), so only nets touching
		// those gates are re-evaluated.
		for i := 0; i < len(win); i++ {
			for j := i + 1; j < len(win); j++ {
				span := win[i : j+1]
				aff := sc.affected(span)
				before := sc.sumBefore(aff)
				sc.savePos(span)
				swapSlots(nl, win, i, j)
				if after := sc.sumAfter(aff); after < before-1e-9 {
					sc.commit(aff)
					accepted++
					improved = true
				} else {
					swapSlots(nl, win, i, j) // revert
					if sc.posChanged(span) {
						sc.refresh(aff)
					}
				}
			}
		}
		// Permutations of adjacent sub-groups of size MaxPermute.
		if k := opt.MaxPermute; k >= 2 && len(win) >= k {
			for i := 0; i+k <= len(win); i++ {
				if tryPermuteDelta(nl, win, i, k, sc) {
					accepted++
					improved = true
				}
			}
		}
	}
	return accepted
}

// swapSlots exchanges the ordinal slots of win[i] and win[j] and re-packs
// the x positions of the affected span so cells stay abutted and legal.
func swapSlots(nl *netlist.Netlist, win []*netlist.Gate, i, j int) {
	if i > j {
		i, j = j, i
	}
	lo := win[i].X - win[i].Width()/2
	win[i], win[j] = win[j], win[i]
	repack(nl, win[i:j+1], lo)
}

// repack lays the gates out left to right starting at x.
func repack(nl *netlist.Netlist, gs []*netlist.Gate, x float64) {
	for _, g := range gs {
		w := g.Width()
		nl.MoveGate(g, x+w/2, g.Y)
		x += w
	}
}

// tryPermuteDelta exhaustively reorders win[i:i+k] and keeps the best
// order, scoring every candidate over only the nets touching the span.
func tryPermuteDelta(nl *netlist.Netlist, win []*netlist.Gate, i, k int, sc *windowScorer) bool {
	span := win[i : i+k]
	aff := sc.affected(span)
	orig := sc.sumBefore(aff)
	lo := win[i].X - win[i].Width()/2
	group := append(sc.group[:0], span...)
	sc.group = group
	best := append(sc.best[:0], group...)
	sc.best = best
	bestScore := orig
	perm := append(sc.perm[:0], make([]int, k)...)
	sc.perm = perm
	for p := range perm {
		perm[p] = p
	}
	var rec func(depth int)
	rec = func(depth int) {
		if depth == k {
			for p, gi := range perm {
				win[i+p] = group[gi]
			}
			repack(nl, win[i:i+k], lo)
			if s := sc.sumAfter(aff); s < bestScore-1e-9 {
				bestScore = s
				for p := range best {
					best[p] = win[i+p]
				}
			}
			return
		}
		for p := depth; p < k; p++ {
			perm[depth], perm[p] = perm[p], perm[depth]
			rec(depth + 1)
			perm[depth], perm[p] = perm[p], perm[depth]
		}
	}
	rec(0)
	copy(win[i:i+k], best)
	repack(nl, win[i:i+k], lo)
	// Final positions can differ from the starting ones even when the
	// original order wins (the re-pack squeezes out gaps), so the cache is
	// refreshed unconditionally.
	sc.refresh(aff)
	return bestScore < orig-1e-9
}
