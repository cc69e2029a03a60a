package netlist

// This file holds the ID-indexed hot-state slabs that parallel the Gate /
// Net / Pin object graph. The objects remain the public edit/observer API;
// the slabs give analyzer inner loops a pointer-chase-free view:
//
//	Positions()  — gate center coordinates by gate ID (MoveGate is the
//	               only writer; AddGate zero-initializes).
//	PinGates()   — owning gate ID by pin ID.
//	PinCSR()     — per-net pin membership in CSR form, rebuilt lazily and
//	               keyed on the Edits counter. Placement-only phases never
//	               bump Edits (MoveGate/SetSize/SetGain/SetAreaScale/
//	               SetNetWeight leave topology alone), so one CSR build
//	               typically serves an entire placement or sizing phase.
//
// Invariants (verified by Check):
//   - posX[g.ID] == g.X and posY[g.ID] == g.Y for every live gate.
//   - pinGate[p.ID] == int32(p.Gate.ID).
//   - When csrEdits == Edits: csrOff has NetCap()+1 entries and for every
//     live net n, csrPin[csrOff[n.ID]:csrOff[n.ID+1]] lists n.pins' IDs in
//     net pin order.

// Positions returns the gate-center coordinate slabs indexed by gate ID
// (length GateCap). Entries for tombstoned or never-issued IDs are stale or
// zero. The slices are live views — they must not be mutated, and they may
// be re-backed by the next AddGate, so do not retain them across
// topology edits.
func (nl *Netlist) Positions() (x, y []float64) { return nl.posX, nl.posY }

// PinGates returns the pin→gate ID slab indexed by pin ID (length
// NumPins). Same retention rules as Positions.
func (nl *Netlist) PinGates() []int32 { return nl.pinGate }

// registerPins appends newly created pins to the pin→gate slab.
func (nl *Netlist) registerPins(g *Gate) {
	for range g.Pins {
		nl.pinGate = append(nl.pinGate, int32(g.ID))
	}
}

// PinCSR returns the per-net pin membership in compressed sparse row form:
// pins[off[id]:off[id+1]] are the pin IDs of net id, in net pin order
// (Driver position included). off has NetCap()+1 entries; tombstoned nets
// have empty rows. The arrays are rebuilt at most once per topology
// generation (Edits value) and shared by all callers, so they must be
// treated as read-only and re-fetched after any topology edit.
func (nl *Netlist) PinCSR() (off, pins []int32) {
	if !nl.csrValid || nl.csrEdits != nl.Edits {
		nl.rebuildCSR()
	}
	return nl.csrOff, nl.csrPin
}

func (nl *Netlist) rebuildCSR() {
	nn := len(nl.nets)
	if cap(nl.csrOff) < nn+1 {
		nl.csrOff = make([]int32, nn+1)
	}
	nl.csrOff = nl.csrOff[:nn+1]
	total := 0
	for i, n := range nl.nets {
		nl.csrOff[i] = int32(total)
		if n != nil && !n.Removed {
			total += len(n.pins)
		}
	}
	nl.csrOff[nn] = int32(total)
	if cap(nl.csrPin) < total {
		nl.csrPin = make([]int32, total)
	}
	nl.csrPin = nl.csrPin[:total]
	for i, n := range nl.nets {
		if n == nil || n.Removed {
			continue
		}
		row := nl.csrPin[nl.csrOff[i]:nl.csrOff[i+1]]
		for j, p := range n.pins {
			row[j] = int32(p.ID)
		}
	}
	nl.csrEdits = nl.Edits
	nl.csrValid = true
}
