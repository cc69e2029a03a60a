// Package timing is the incremental static timing analyzer that every TPS
// transform queries (§1, §3). It mirrors the contract of the engine the
// paper cites (Hathaway et al., US 5,508,937): arrival and required times
// are maintained lazily through level-ordered dirty queues, so after a
// placement move or netlist edit only the affected cone is recomputed.
//
// Timing graph: pins are the timing nodes. Net edges run driver→sink with
// a wire delay from the registered net-delay calculators; gate arcs run
// input→output for combinational cells. Register Q pins and input-pad
// outputs are begin points (ideal clock, arrival = clock-to-Q for
// registers); register D/SI pins and output-pad inputs are end points with
// required time = clock period − setup. Clock nets are excluded from data
// propagation (ideal clock model; clock wiring quality is optimized
// geometrically by the clock transform of §4.5).
package timing

import (
	"math"
	"sort"

	"tps/internal/cell"
	"tps/internal/delay"
	"tps/internal/netlist"
	"tps/internal/par"
)

const eps = 1e-6

// Engine is the incremental STA engine.
type Engine struct {
	nl   *netlist.Netlist
	Calc *delay.Calculator
	// Period is the target clock period in ps.
	Period float64
	// Setup is the register setup time in ps.
	Setup float64

	// Workers bounds the fan-out of the full-design flush. Levels are a
	// natural barrier — every pin's inputs live at strictly lower levels
	// (arrival) or strictly higher levels (required) — so each level's
	// evaluations are independent and the parallel flush is bit-identical
	// to the serial one. 0 or 1 keeps the flush fully serial. The engine's
	// public API remains single-goroutine; parallelism is internal.
	Workers int

	arr, req []float64
	level    []int32
	// kind flags per pin, rebuilt at levelization.
	flags []pinFlag
	// late caches Port().Late*Tau per pin so the evaluation hot loops skip
	// the Gate→Cell→Port pointer chase; refreshed wherever flags are.
	late []float64
	// outPin caches the gate's output pin per pin, stored as ID+1 (0 = no
	// output) so the zero value of a grown slab means "none". Same
	// lifecycle as flags; saves the Gate.Output port scan in hot loops.
	outPin []int32

	endpoints []*netlist.Pin
	begins    []*netlist.Pin
	pinOf     []*netlist.Pin // pin ID → pin

	// levelsValid reports that level/flags/pinOf/begins/endpoints are
	// consistent with the current topology. Connectivity edits repair them
	// incrementally (relaxNet, GateAdded, GateRemoved); the flag drops only
	// when an edit is too awkward to patch — cycles, replaced cells that
	// change pin roles, relaxation budget blown — and the next query then
	// pays one full relevel.
	levelsValid bool
	kindEpoch   uint64 // nl.KindEpoch when levels were last built
	allDirty    bool

	pendArr, pendReq []int // pin IDs with pending recompute
	inPendArr        []bool
	inPendReq        []bool

	// Reusable scratch (relevel, full-flush ordering, incremental heaps):
	// sized to high-water marks so steady-state flushes allocate nothing.
	indegScratch []int32
	queueScratch []int
	idScratch    []int   // live pin ID collection buffer
	idSorted     []int   // level-sorted pin IDs (counting-sort output)
	levelCount   []int32 // counting-sort cursor workspace (per level)
	levelStart   []int32 // level → start offset in idSorted
	buckets      [][]int // per-level worklists for the incremental flushes
	relaxQueue   []int   // BFS workspace for incremental level repair

	// Recomputes counts pin evaluations since construction; tests use it
	// to demonstrate incrementality.
	Recomputes int
	// HasCycles reports that levelization found a combinational cycle;
	// pins on cycles are frozen at arrival 0 rather than looping.
	HasCycles bool
}

type pinFlag uint8

const (
	flagBegin pinFlag = 1 << iota
	flagEnd
	flagClockPin // excluded from data graph
	flagOnCycle
	flagOutput // pin direction, cached to skip the Port() chase in hot loops
)

// New creates an engine over nl with the given delay calculator and clock
// period. The engine subscribes to netlist changes.
func New(nl *netlist.Netlist, calc *delay.Calculator, period float64) *Engine {
	e := &Engine{
		nl:     nl,
		Calc:   calc,
		Period: period,
		Setup:  nl.Lib.Tech.Tau,
	}
	nl.Observe(e)
	return e
}

// Close unsubscribes the engine.
func (e *Engine) Close() { e.nl.Unobserve(e) }

// SetPeriod changes the clock period; all required times shift.
func (e *Engine) SetPeriod(p float64) {
	e.Period = p
	e.allDirty = true
}

// SetMode switches the delay model for the whole design (gain-based early,
// actual later, per §5) and invalidates all timing.
func (e *Engine) SetMode(m delay.Mode) {
	e.Calc.SetMode(m)
	e.allDirty = true
}

// InvalidateAll forces a full recomputation on the next query — for global
// delay-model parameter changes (e.g. the intra-bin wire estimate tracking
// the refining bin size).
func (e *Engine) InvalidateAll() { e.allDirty = true }

// ---- graph structure helpers ----

// dataNet reports whether net n participates in data timing.
func dataNet(n *netlist.Net) bool { return n != nil && n.Kind != netlist.Clock }

// isEndpointPin: register D/SI pins and output-pad I pins.
func isEndpointPin(p *netlist.Pin) bool {
	g := p.Gate
	if p.Dir() != cell.Input {
		return false
	}
	if g.IsSequential() {
		return !p.Port().Clock
	}
	return g.IsPad()
}

// isBeginPin: register Q pins and input-pad O pins.
func isBeginPin(p *netlist.Pin) bool {
	if p.Dir() != cell.Output {
		return false
	}
	return p.Gate.IsSequential() || p.Gate.IsPad()
}

// relevel rebuilds pin levels, flags, and begin/end lists with Kahn's
// algorithm over the pin graph. Arrival/required values survive (they are
// indexed by stable pin IDs): after a topology edit only the edit site —
// marked dirty by the observer callbacks — and any newly created pins need
// recomputation, so netlist transforms stay incremental.
func (e *Engine) relevel() {
	firstBuild := e.level == nil
	oldNP := len(e.pinOf)
	np := e.nl.NumPins()
	e.arr = grow(e.arr, np)
	e.req = grow(e.req, np)
	e.late = grow(e.late, np)
	e.level = growI32(e.level, np)
	e.outPin = growI32(e.outPin, np)
	e.flags = growFlags(e.flags, np)
	e.inPendArr = growBool(e.inPendArr, np)
	e.inPendReq = growBool(e.inPendReq, np)
	e.pinOf = growPins(e.pinOf, np)

	for i := range e.flags {
		e.flags[i] &= flagOnCycle // kept until the Kahn pass re-derives it
		e.level[i] = 0
		e.outPin[i] = 0
		e.pinOf[i] = nil
	}
	e.endpoints = e.endpoints[:0]
	e.begins = e.begins[:0]

	if cap(e.indegScratch) < np {
		e.indegScratch = make([]int32, np)
	}
	indeg := e.indegScratch[:np]
	for i := range indeg {
		indeg[i] = 0
	}
	queue := e.queueScratch[:0]

	tau := e.nl.Lib.Tech.Tau
	e.nl.Gates(func(g *netlist.Gate) {
		zid := int32(0)
		if z := g.Output(); z != nil {
			zid = int32(z.ID) + 1
		}
		for _, p := range g.Pins {
			e.pinOf[p.ID] = p
			e.outPin[p.ID] = zid
			if p.Dir() == cell.Output {
				e.flags[p.ID] |= flagOutput
			}
			e.late[p.ID] = p.Port().Late * tau
			if p.Port().Clock {
				e.flags[p.ID] |= flagClockPin
				continue
			}
			if isBeginPin(p) {
				e.flags[p.ID] |= flagBegin
				e.begins = append(e.begins, p)
			}
			if isEndpointPin(p) {
				e.flags[p.ID] |= flagEnd
				e.endpoints = append(e.endpoints, p)
			}
			indeg[p.ID] = e.countPreds(p)
			if indeg[p.ID] == 0 {
				queue = append(queue, p.ID)
			}
		}
	})

	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		p := e.pinOf[id]
		if p == nil {
			continue
		}
		e.forEachSucc(p, func(q *netlist.Pin) {
			if e.level[q.ID] < e.level[id]+1 {
				e.level[q.ID] = e.level[id] + 1
			}
			indeg[q.ID]--
			if indeg[q.ID] == 0 {
				queue = append(queue, q.ID)
			}
		})
	}

	e.queueScratch = queue[:0]
	// A pin that joins or leaves a cycle switches between its frozen
	// constant and its computed value, so it is re-marked even when no
	// edit touched it.
	e.HasCycles = false
	for id := range indeg {
		on := indeg[id] > 0
		if on != (e.flags[id]&flagOnCycle != 0) {
			e.flags[id] ^= flagOnCycle
			if !firstBuild && e.pinOf[id] != nil {
				e.markArr(id)
				e.markReq(id)
			}
		}
		e.HasCycles = e.HasCycles || on
	}

	e.levelsValid = true
	e.kindEpoch = e.nl.KindEpoch
	if firstBuild {
		e.allDirty = true
		return
	}
	// Incremental topology update: existing values stay valid away from
	// the edit site; new pins start unknown.
	for id := oldNP; id < np; id++ {
		if e.pinOf[id] != nil {
			e.markArr(id)
			e.markReq(id)
		}
	}
}

// forEachPred visits the timing fanin pins of p without allocating.
func (e *Engine) forEachPred(p *netlist.Pin, visit func(*netlist.Pin)) {
	if e.flags[p.ID]&flagClockPin != 0 {
		return
	}
	if e.flags[p.ID]&flagOutput == 0 {
		if !dataNet(p.Net) {
			return
		}
		if d := p.Net.Driver(); d != nil {
			visit(d)
		}
		return
	}
	if e.flags[p.ID]&flagBegin != 0 {
		return
	}
	for _, q := range p.Gate.Pins {
		if e.flags[q.ID]&(flagOutput|flagClockPin) == 0 {
			visit(q)
		}
	}
}

// forEachSucc visits the timing fanout pins of p without allocating.
func (e *Engine) forEachSucc(p *netlist.Pin, visit func(*netlist.Pin)) {
	if e.flags[p.ID]&flagClockPin != 0 {
		return
	}
	if e.flags[p.ID]&flagOutput != 0 {
		if !dataNet(p.Net) {
			return
		}
		for _, q := range p.Net.Pins() {
			if e.flags[q.ID]&(flagOutput|flagClockPin) == 0 {
				visit(q)
			}
		}
		return
	}
	if e.flags[p.ID]&flagEnd != 0 {
		return
	}
	if zid := e.outPin[p.ID]; zid != 0 {
		visit(e.pinOf[zid-1])
	}
}

// countPreds returns the timing fanin degree of p without allocating.
func (e *Engine) countPreds(p *netlist.Pin) int32 {
	var n int32
	e.forEachPred(p, func(*netlist.Pin) { n++ })
	return n
}

// ---- evaluation ----

func (e *Engine) evalArr(p *netlist.Pin) float64 {
	e.Recomputes++
	return e.arrOf(p)
}

// arrOf computes the arrival time of p from its predecessors' committed
// values. It is side-effect-free (no counter updates) so the parallel
// flush can call it from worker goroutines; all state it reads — arr
// values of strictly lower levels, flags, and the prepared delay caches —
// is frozen during a fan-out.
func (e *Engine) arrOf(p *netlist.Pin) float64 {
	if e.flags[p.ID]&flagOnCycle != 0 {
		return 0
	}
	if e.flags[p.ID]&flagOutput == 0 {
		if !dataNet(p.Net) {
			return 0
		}
		d := p.Net.Driver()
		if d == nil {
			return 0
		}
		return e.arr[d.ID] + e.Calc.PinArrivalDelay(p)
	}
	if p.Net != nil && !dataNet(p.Net) {
		// Drivers of clock nets sit outside the data graph (ideal clock
		// model): their "arrival" would be a load-dependent value nothing
		// propagates or queries, and the observers rightly never touch
		// clock nets — so pin it at 0 rather than letting a stale
		// evaluation linger.
		return 0
	}
	g := p.Gate
	if g.IsPad() {
		return 0
	}
	if g.IsSequential() {
		return e.Calc.ArcDelay(g, p) // clock-to-Q from an ideal clock edge
	}
	worst := 0.0
	have := false
	for _, q := range g.Pins {
		if e.flags[q.ID]&(flagOutput|flagClockPin) == 0 && q.Net != nil && dataNet(q.Net) {
			if a := e.arr[q.ID] + e.late[q.ID]; !have || a > worst {
				worst, have = a, true
			}
		}
	}
	return worst + e.Calc.ArcDelay(g, p)
}

func (e *Engine) evalReq(p *netlist.Pin) float64 {
	e.Recomputes++
	return e.reqOf(p)
}

// reqOf computes the required time of p from its successors' committed
// values; the side-effect-free counterpart of arrOf (see there).
func (e *Engine) reqOf(p *netlist.Pin) float64 {
	if e.flags[p.ID]&flagOnCycle != 0 {
		return math.Inf(1)
	}
	if e.flags[p.ID]&flagEnd != 0 {
		if p.Gate.IsSequential() {
			return e.Period - e.Setup
		}
		return e.Period
	}
	if e.flags[p.ID]&flagOutput != 0 {
		if !dataNet(p.Net) {
			return math.Inf(1)
		}
		r := math.Inf(1)
		for i, q := range p.Net.Pins() {
			if e.flags[q.ID]&(flagOutput|flagClockPin) != 0 {
				continue
			}
			if v := e.req[q.ID] - e.Calc.WireDelay(p.Net, i); v < r {
				r = v
			}
		}
		return r
	}
	zid := e.outPin[p.ID]
	if zid == 0 || p.Gate.IsSequential() {
		return math.Inf(1)
	}
	z := e.pinOf[zid-1]
	return e.req[z.ID] - e.Calc.ArcDelay(p.Gate, z) - e.late[p.ID]
}

// ---- dirty management & flushing ----

func (e *Engine) ensure() {
	// Net-kind changes (ClassifyKinds, SetNetKind) redraw the data graph's
	// edge set without any per-net event granularity, so they force a full
	// relevel via the kind epoch. Ordinary connectivity edits are repaired
	// in place by the observer callbacks and leave levelsValid set.
	if e.level == nil || !e.levelsValid || e.kindEpoch != e.nl.KindEpoch {
		e.relevel()
	}
}

// relaxNet repairs the levelization after a connectivity edit on net n by
// relaxing level[sink] ≥ level[driver]+1 forward through the fanout cone.
// Levels are maintained as an over-approximation of the minimal Kahn
// levels: edits only ever raise them (disconnects leave slack behind),
// which preserves the one property every flush needs — strictly ascending
// levels along every data edge — while avoiding the O(V+E) rebuild that
// made structural transforms quadratic at scale. The BFS carries a budget:
// blowing it means the edit created a cycle (levels would climb forever)
// or churned pathologically, and either way the next query falls back to a
// full relevel, which also re-derives the cycle flags.
func (e *Engine) relaxNet(n *netlist.Net) {
	if e.HasCycles {
		// Cycle pins are frozen at whatever the last relevel discovered;
		// patching levels around frozen pins is not worth the complexity.
		e.levelsValid = false
		return
	}
	if !dataNet(n) {
		return
	}
	d := n.Driver()
	if d == nil {
		return
	}
	q := e.relaxQueue[:0]
	dl := e.level[d.ID]
	for _, p := range n.Pins() {
		if p.Dir() != cell.Input || e.flags[p.ID]&flagClockPin != 0 {
			continue
		}
		if e.level[p.ID] <= dl {
			e.level[p.ID] = dl + 1
			q = append(q, p.ID)
		}
	}
	budget := 2*len(e.pinOf) + 64
	maxL := int32(2*len(e.pinOf) + 1024) // inflation guard: levels past this are pathological
	for len(q) > 0 {
		id := q[len(q)-1]
		q = q[:len(q)-1]
		budget--
		if budget < 0 || e.level[id] > maxL {
			e.relaxQueue = q[:0]
			e.levelsValid = false
			return
		}
		p := e.pinOf[id]
		if p == nil {
			continue
		}
		e.forEachSucc(p, func(s *netlist.Pin) {
			if e.level[s.ID] <= e.level[id] {
				e.level[s.ID] = e.level[id] + 1
				q = append(q, s.ID)
			}
		})
	}
	e.relaxQueue = q[:0]
}

func (e *Engine) markArr(id int) {
	if id < len(e.inPendArr) {
		if e.inPendArr[id] {
			return
		}
		e.inPendArr[id] = true
	}
	e.pendArr = append(e.pendArr, id)
}

func (e *Engine) markReq(id int) {
	if id < len(e.inPendReq) {
		if e.inPendReq[id] {
			return
		}
		e.inPendReq[id] = true
	}
	e.pendReq = append(e.pendReq, id)
}

// touchNet marks the pins whose timing depends directly on net n's
// geometry or load: the driver's arrival (arc delay sees the load), the
// sinks' arrivals (wire delay), the driver's required (wire delay), and
// the driver gate's input requireds (arc delay).
//
// Known approximation: a sink gate's output arrival also depends on WHICH
// of its inputs are connected (arrOf maxes over connected data inputs
// only), but that output is reached solely through value propagation from
// the sink — so a connect/disconnect that leaves the sink's own arrival
// numerically unchanged is stopped by the eps gate and the output keeps
// its old value until something else dirties it. This matches the
// original full-relevel engine exactly (relevel never re-marked values
// either) and is locked in by the bit-identical flow goldens; flows that
// need exact values after bulk restructuring call InvalidateAll.
func (e *Engine) touchNet(n *netlist.Net) {
	d := n.Driver()
	if d != nil {
		e.markArr(d.ID)
		e.markReq(d.ID)
		for _, q := range d.Gate.Pins {
			if q.Dir() == cell.Input {
				e.markReq(q.ID)
			}
		}
	}
	for _, q := range n.Pins() {
		if q.Dir() == cell.Input {
			e.markArr(q.ID)
		}
	}
}

// bucketPush files id under level l in the per-level worklists the
// incremental flushes drain. Bucket backing arrays persist across flushes,
// so steady-state pushes are a bounds check and an append.
func (e *Engine) bucketPush(l int32, id int) {
	for int(l) >= len(e.buckets) {
		e.buckets = append(e.buckets, nil)
	}
	e.buckets[l] = append(e.buckets[l], id)
}

// Flush brings all timing up to date. Queries call it implicitly.
func (e *Engine) Flush() {
	e.ensure()
	if e.allDirty {
		e.flushAll()
		return
	}
	if len(e.pendArr) > 0 {
		e.flushArr()
	}
	if len(e.pendReq) > 0 {
		e.flushReq()
	}
}

func (e *Engine) flushAll() {
	e.allDirty = false
	e.pendArr = e.pendArr[:0]
	e.pendReq = e.pendReq[:0]
	for i := range e.inPendArr {
		e.inPendArr[i] = false
	}
	for i := range e.inPendReq {
		e.inPendReq[i] = false
	}
	// Evaluate every pin once in level order (forward for arrival,
	// backward for required).
	ids := e.idScratch[:0]
	for id, p := range e.pinOf {
		if p != nil {
			ids = append(ids, id)
		}
	}
	// Batch-prepare the delay caches on both branches: prepared results
	// are identical to lazy ones, and preparing the same net set keeps
	// the analyzer pass counters (printed by tpsflow) worker-independent,
	// not just the metrics.
	e.Calc.Prepare(e.Workers)

	// Counting-sort the live pins into contiguous level blocks (ascending
	// level, ascending ID within a level — ids is collected in ID order and
	// the scatter is stable). Both passes and both execution modes walk
	// these blocks, so the evaluation order is identical to the previous
	// per-call sort/bucket construction without its allocations.
	var maxL int32
	for _, id := range ids {
		if e.level[id] > maxL {
			maxL = e.level[id]
		}
	}
	numL := int(maxL) + 1
	if cap(e.levelStart) < numL+1 {
		e.levelStart = make([]int32, numL+1)
		e.levelCount = make([]int32, numL)
	}
	start := e.levelStart[:numL+1]
	cur := e.levelCount[:numL]
	for i := range start {
		start[i] = 0
	}
	for _, id := range ids {
		start[e.level[id]+1]++
	}
	for i := 1; i <= numL; i++ {
		start[i] += start[i-1]
	}
	copy(cur, start[:numL])
	e.idScratch = ids
	if cap(e.idSorted) < len(ids) {
		e.idSorted = make([]int, len(ids))
	}
	sorted := e.idSorted[:len(ids)]
	for _, id := range ids {
		l := e.level[id]
		sorted[cur[l]] = id
		cur[l]++
	}

	if e.Workers > 1 {
		// Parallel mode: each level fanned out over the worker pool.
		// Correctness argument: levelization guarantees that every
		// predecessor read by arrOf sits at a strictly lower level than the
		// pin being evaluated (and every successor read by reqOf at a
		// strictly higher one); pins trapped on combinational cycles read
		// nothing. Each level is therefore a clean barrier, every pin is
		// written exactly once at its own slot, and the values are
		// bit-identical to the serial pass for any worker count. The delay
		// caches are batch-prepared above so worker goroutines only ever
		// read them.
		for l := 0; l < numL; l++ {
			lv := sorted[start[l]:start[l+1]]
			par.For(e.Workers, len(lv), func(_, lo, hi int) {
				for _, id := range lv[lo:hi] {
					e.arr[id] = e.arrOf(e.pinOf[id])
				}
			})
		}
		for l := numL - 1; l >= 0; l-- {
			lv := sorted[start[l]:start[l+1]]
			par.For(e.Workers, len(lv), func(_, lo, hi int) {
				for _, id := range lv[lo:hi] {
					e.req[id] = e.reqOf(e.pinOf[id])
				}
			})
		}
		e.Recomputes += 2 * len(ids) // same count the serial pass accumulates
		return
	}
	for l := 0; l < numL; l++ {
		for _, id := range sorted[start[l]:start[l+1]] {
			e.arr[id] = e.evalArr(e.pinOf[id])
		}
	}
	for l := numL - 1; l >= 0; l-- {
		for _, id := range sorted[start[l]:start[l+1]] {
			e.req[id] = e.evalReq(e.pinOf[id])
		}
	}
}

// flushArr drains the pending arrival set level by level through a
// monotone bucket queue: one ascending sweep over the per-level worklists,
// each bucket drained in push order. Under a valid stratification every
// propagation pushes strictly upward, at O(1) per push. The order inside a
// bucket is free: arrOf at level l reads only strictly lower levels, which
// are final by then, so neither the values nor the set of pins pushed into
// later buckets depend on it, and the pend flags admit each pin once, so
// Recomputes does not either.
// Cyclic graphs are the one exception (frozen pins keep whatever level the
// aborted Kahn pass left, so a push can land at or below the sweep
// cursor); the sweep then rewinds to the pushed level — already-drained
// entries are skipped by the pend flags. Frozen pins read nothing, so the
// values stay order-free there too; only how often a frozen pin is
// re-evaluated to its constant can follow the bucket order.
func (e *Engine) flushArr() {
	lo := int32(math.MaxInt32)
	for _, id := range e.pendArr {
		if id < len(e.pinOf) && e.pinOf[id] != nil {
			e.inPendArr[id] = true // ids marked before arrays grew
			e.bucketPush(e.level[id], id)
			if e.level[id] < lo {
				lo = e.level[id]
			}
		} else if id < len(e.inPendArr) {
			// The pin was tombstoned after being marked: clear the stale
			// flag instead of leaking a permanent true that would shadow
			// the slot in any future scan.
			e.inPendArr[id] = false
		}
	}
	e.pendArr = e.pendArr[:0]
	cur := int32(0)
	rewind := int32(-1)
	push := func(qid int) {
		if !e.inPendArr[qid] {
			e.inPendArr[qid] = true
			ql := e.level[qid]
			e.bucketPush(ql, qid)
			if ql <= cur && (rewind < 0 || ql < rewind) {
				rewind = ql
			}
		}
	}
	for l := lo; l < int32(len(e.buckets)); l++ {
		cur = l
		b := e.buckets[l]
		if len(b) == 0 {
			continue
		}
		for _, id := range b {
			if !e.inPendArr[id] {
				continue
			}
			e.inPendArr[id] = false
			p := e.pinOf[id]
			v := e.evalArr(p)
			if math.Abs(v-e.arr[id]) <= eps {
				continue
			}
			e.arr[id] = v
			// forEachSucc, inlined: this is the engine's hottest loop and
			// the closure dispatch per visited pin is measurable.
			fl := e.flags[id]
			if fl&flagClockPin != 0 {
				continue
			}
			if fl&flagOutput != 0 {
				if !dataNet(p.Net) {
					continue
				}
				for _, q := range p.Net.Pins() {
					if e.flags[q.ID]&(flagOutput|flagClockPin) == 0 {
						push(q.ID)
					}
				}
				continue
			}
			if fl&flagEnd != 0 {
				continue
			}
			if zid := e.outPin[id]; zid != 0 {
				push(int(zid - 1))
			}
		}
		if rewind >= 0 {
			// Cycle-frozen push at or below the cursor: leave this bucket
			// intact (drained ids fail the pend check on the revisit) and
			// resume from the lowest pushed level.
			l = rewind - 1
			rewind = -1
			continue
		}
		e.buckets[l] = b[:0]
	}
}

// flushReq is the mirror of flushArr with the sweep descending: required
// times propagate to strictly lower levels, so the bucket queue is
// monotone downward and the rewind guard fires on upward pushes instead.
// reqOf at level l reads only strictly higher levels, so each bucket is
// likewise drained in push order, by the same exactness argument.
func (e *Engine) flushReq() {
	hi := int32(-1)
	for _, id := range e.pendReq {
		if id < len(e.pinOf) && e.pinOf[id] != nil {
			e.inPendReq[id] = true // ids marked before arrays grew
			e.bucketPush(e.level[id], id)
			if e.level[id] > hi {
				hi = e.level[id]
			}
		} else if id < len(e.inPendReq) {
			e.inPendReq[id] = false // tombstoned since marked (see flushArr)
		}
	}
	e.pendReq = e.pendReq[:0]
	cur := int32(0)
	rewind := int32(-1)
	push := func(qid int) {
		if !e.inPendReq[qid] {
			e.inPendReq[qid] = true
			ql := e.level[qid]
			e.bucketPush(ql, qid)
			if ql >= cur && (rewind < 0 || ql > rewind) {
				rewind = ql
			}
		}
	}
	for l := hi; l >= 0; l-- {
		cur = l
		b := e.buckets[l]
		if len(b) == 0 {
			continue
		}
		for _, id := range b {
			if !e.inPendReq[id] {
				continue
			}
			e.inPendReq[id] = false
			p := e.pinOf[id]
			v := e.evalReq(p)
			fl := e.flags[id]
			// +Inf − +Inf is NaN, so the eps test reads an unchanged +Inf
			// as a change. A frozen pin is always +Inf: without the
			// equality check, two frozen pins on one cycle re-push each
			// other forever.
			if math.Abs(v-e.req[id]) <= eps || fl&flagOnCycle != 0 && v == e.req[id] {
				continue
			}
			e.req[id] = v
			// forEachPred, inlined (see flushArr).
			if fl&flagClockPin != 0 {
				continue
			}
			if fl&flagOutput == 0 {
				if !dataNet(p.Net) {
					continue
				}
				if d := p.Net.Driver(); d != nil {
					push(d.ID)
				}
				continue
			}
			if fl&flagBegin != 0 {
				continue
			}
			for _, q := range p.Gate.Pins {
				if e.flags[q.ID]&(flagOutput|flagClockPin) == 0 {
					push(q.ID)
				}
			}
		}
		if rewind >= 0 {
			l = rewind + 1
			rewind = -1
			continue
		}
		e.buckets[l] = b[:0]
	}
}

// ---- queries ----

// Arrival returns the arrival time at pin p in ps.
func (e *Engine) Arrival(p *netlist.Pin) float64 {
	e.Flush()
	return e.arr[p.ID]
}

// Required returns the required time at pin p in ps.
func (e *Engine) Required(p *netlist.Pin) float64 {
	e.Flush()
	return e.req[p.ID]
}

// Slack returns required − arrival at pin p.
func (e *Engine) Slack(p *netlist.Pin) float64 {
	e.Flush()
	return e.req[p.ID] - e.arr[p.ID]
}

// WorstSlack returns the minimum slack over all end points (+Inf if the
// design has none).
func (e *Engine) WorstSlack() float64 {
	e.Flush()
	ws := math.Inf(1)
	for _, p := range e.endpoints {
		if s := e.req[p.ID] - e.arr[p.ID]; s < ws {
			ws = s
		}
	}
	return ws
}

// TNS returns the total negative slack over end points.
func (e *Engine) TNS() float64 {
	e.Flush()
	var t float64
	for _, p := range e.endpoints {
		if s := e.req[p.ID] - e.arr[p.ID]; s < 0 {
			t += s
		}
	}
	return t
}

// NetSlack returns the slack of net n: the worst slack among its sink pins
// (+Inf for unloaded nets).
func (e *Engine) NetSlack(n *netlist.Net) float64 {
	e.Flush()
	s := math.Inf(1)
	for _, p := range n.Pins() {
		if p.Dir() != cell.Input || p.Port().Clock {
			continue
		}
		if v := e.req[p.ID] - e.arr[p.ID]; v < s {
			s = v
		}
	}
	return s
}

// GateSlack returns the worst slack among the gate's pins.
func (e *Engine) GateSlack(g *netlist.Gate) float64 {
	e.Flush()
	s := math.Inf(1)
	for _, p := range g.Pins {
		if e.flags[p.ID]&flagClockPin != 0 {
			continue
		}
		if v := e.req[p.ID] - e.arr[p.ID]; v < s {
			s = v
		}
	}
	return s
}

// CriticalNets returns the critical region as nets whose slack is within
// margin of the worst slack (and at most zero): the
// obtain_critical_region(design) primitive of §4.3.
func (e *Engine) CriticalNets(margin float64) []*netlist.Net {
	ws := e.WorstSlack()
	if ws >= 0 {
		return nil
	}
	thr := math.Min(ws+margin, 0)
	var out []*netlist.Net
	e.nl.Nets(func(n *netlist.Net) {
		if n.Kind != netlist.Signal {
			return
		}
		if e.NetSlack(n) <= thr {
			out = append(out, n)
		}
	})
	return out
}

// CriticalGates returns gates whose slack is within margin of the worst
// (and at most zero).
func (e *Engine) CriticalGates(margin float64) []*netlist.Gate {
	ws := e.WorstSlack()
	if ws >= 0 {
		return nil
	}
	thr := math.Min(ws+margin, 0)
	var out []*netlist.Gate
	e.nl.Gates(func(g *netlist.Gate) {
		if g.IsPad() {
			return
		}
		if e.GateSlack(g) <= thr {
			out = append(out, g)
		}
	})
	return out
}

// Endpoints returns the current end-point pins (valid until the next
// topology change).
func (e *Engine) Endpoints() []*netlist.Pin {
	e.Flush()
	return e.endpoints
}

// ---- netlist.Observer ----

// GateMoved implements netlist.Observer.
func (e *Engine) GateMoved(g *netlist.Gate) {
	if e.level == nil || e.allDirty {
		return // first Flush computes everything anyway
	}
	for _, p := range g.Pins {
		if p.Net != nil && dataNet(p.Net) {
			e.touchNet(p.Net)
		}
	}
}

// GateResized implements netlist.Observer.
func (e *Engine) GateResized(g *netlist.Gate) {
	if e.level == nil {
		return
	}
	if e.levelsValid {
		// ReplaceCell may swap a pin's derived role (clock/begin/end) even
		// with identical port shapes; any drift invalidates the leveling
		// and the begin/end lists wholesale. SetSize and friends never
		// drift, so the common case is a cheap confirming scan. The cached
		// Late product is refreshed unconditionally — the replacement cell
		// may change it without touching any role.
		tau := e.nl.Lib.Tech.Tau
		for _, p := range g.Pins {
			if p.ID >= len(e.flags) {
				e.levelsValid = false
				break
			}
			e.late[p.ID] = p.Port().Late * tau
			fl := pinFlag(0)
			if p.Port().Clock {
				fl = flagClockPin
			} else {
				if isBeginPin(p) {
					fl |= flagBegin
				}
				if isEndpointPin(p) {
					fl |= flagEnd
				}
			}
			if fl != e.flags[p.ID]&(flagClockPin|flagBegin|flagEnd) {
				e.levelsValid = false
				break
			}
		}
	}
	if e.allDirty {
		return
	}
	for _, p := range g.Pins {
		if p.Net == nil || !dataNet(p.Net) {
			continue
		}
		if p.Dir() == cell.Input {
			e.touchNet(p.Net) // our input cap loads the driving net
		}
	}
	if z := g.Output(); z != nil {
		e.markArr(z.ID) // drive strength changed
	}
	for _, p := range g.Pins {
		if p.Dir() == cell.Input {
			e.markReq(p.ID)
		}
	}
}

// NetChanged implements netlist.Observer. Connectivity changes repair the
// levelization in place (relaxNet) and mark the edit site dirty;
// weight-only changes just touch the net (cheap and conservative — the
// relaxation scan finds nothing to raise).
func (e *Engine) NetChanged(n *netlist.Net) {
	if e.level == nil {
		return
	}
	if e.levelsValid {
		e.relaxNet(n)
	}
	if e.allDirty {
		return
	}
	e.touchNet(n)
}

// GateAdded implements netlist.Observer. Both fresh and revived gates
// arrive with every pin disconnected, so registration is purely local:
// grow the pin-indexed arrays, record flags and list membership, and lift
// each combinational output above the gate's inputs (the only timing edges
// a disconnected gate has). Only genuinely new pin IDs are marked dirty —
// a revived pin keeps its stale values exactly as a full relevel would,
// and the reconnecting edits mark it through touchNet.
func (e *Engine) GateAdded(g *netlist.Gate) {
	if e.level == nil || !e.levelsValid {
		return // the next relevel registers (and marks) the pins
	}
	oldNP := len(e.pinOf)
	np := e.nl.NumPins()
	e.arr = grow(e.arr, np)
	e.req = grow(e.req, np)
	e.late = grow(e.late, np)
	e.level = growI32(e.level, np)
	e.outPin = growI32(e.outPin, np)
	e.flags = growFlags(e.flags, np)
	e.inPendArr = growBool(e.inPendArr, np)
	e.inPendReq = growBool(e.inPendReq, np)
	e.pinOf = growPins(e.pinOf, np)
	tau := e.nl.Lib.Tech.Tau
	zid := int32(0)
	if z := g.Output(); z != nil {
		zid = int32(z.ID) + 1
	}
	for _, p := range g.Pins {
		e.pinOf[p.ID] = p
		e.outPin[p.ID] = zid
		fl := pinFlag(0)
		if p.Dir() == cell.Output {
			fl |= flagOutput
		}
		e.late[p.ID] = p.Port().Late * tau
		if p.Port().Clock {
			fl |= flagClockPin
		} else {
			if isBeginPin(p) {
				fl |= flagBegin
				e.begins = insertByID(e.begins, p)
			}
			if isEndpointPin(p) {
				fl |= flagEnd
				e.endpoints = insertByID(e.endpoints, p)
			}
		}
		e.flags[p.ID] = fl
	}
	for _, p := range g.Pins {
		if p.Dir() != cell.Output || e.flags[p.ID]&(flagClockPin|flagBegin) != 0 {
			continue
		}
		lv := int32(0)
		for _, q := range g.Pins {
			if q.Dir() == cell.Input && e.flags[q.ID]&flagClockPin == 0 && e.level[q.ID] >= lv {
				lv = e.level[q.ID] + 1
			}
		}
		if e.level[p.ID] < lv {
			e.level[p.ID] = lv
		}
	}
	if e.allDirty {
		return
	}
	for _, p := range g.Pins {
		if p.ID >= oldNP {
			e.markArr(p.ID)
			e.markReq(p.ID)
		}
	}
}

// GateRemoved implements netlist.Observer. The per-pin Disconnects have
// already fired (RemoveGate detaches every pin first), so all that remains
// is tombstoning: nil the pinOf slots so flushes skip them, and drop the
// gate's pins from the begin/end lists in place, preserving ID order.
func (e *Engine) GateRemoved(g *netlist.Gate) {
	if e.level == nil || !e.levelsValid {
		return // the next relevel rebuilds pinOf and the lists anyway
	}
	hadFlagged := false
	for _, p := range g.Pins {
		if p.ID >= len(e.pinOf) {
			continue
		}
		if e.flags[p.ID]&(flagBegin|flagEnd) != 0 {
			hadFlagged = true
		}
		e.flags[p.ID] = 0
		e.pinOf[p.ID] = nil
	}
	if hadFlagged {
		e.begins = dropGatePins(e.begins, g)
		e.endpoints = dropGatePins(e.endpoints, g)
	}
}

// ---- small helpers ----

// The grow helpers extend pin-indexed arrays with amortized doubling:
// GateAdded grows them a few pins at a time, so exact-fit reallocation
// would copy the whole design per added gate. The reserve tail past len is
// zero (make zeroes the full capacity and nothing ever writes past len),
// matching what a fresh exact-size array would hold.

func grow(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]float64, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}

func growI32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]int32, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}

func growBool(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]bool, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}

func growFlags(s []pinFlag, n int) []pinFlag {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]pinFlag, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}

func growPins(s []*netlist.Pin, n int) []*netlist.Pin {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]*netlist.Pin, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}

// insertByID inserts p into s preserving ascending pin-ID order — the
// order relevel produces (gate slabs append in creation order, so gate
// iteration yields ascending pin IDs) and the order TNS summation depends
// on for bit-identical results. Fresh pins take the append fast path;
// revived pins binary-insert.
func insertByID(s []*netlist.Pin, p *netlist.Pin) []*netlist.Pin {
	if n := len(s); n == 0 || s[n-1].ID < p.ID {
		return append(s, p)
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= p.ID })
	if i < len(s) && s[i].ID == p.ID {
		return s
	}
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = p
	return s
}

// dropGatePins filters g's pins out of s in place, preserving order.
func dropGatePins(s []*netlist.Pin, g *netlist.Gate) []*netlist.Pin {
	out := s[:0]
	for _, p := range s {
		if p.Gate != g {
			out = append(out, p)
		}
	}
	return out
}
