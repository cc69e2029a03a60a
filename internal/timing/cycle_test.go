package timing

import (
	"math"
	"testing"

	"tps/internal/cell"
	"tps/internal/delay"
	"tps/internal/netlist"
)

// TestCycleRewindMatchesFresh drives the incremental flushes through a
// combinational cycle. Closing the loop after the first query flags its
// pins as frozen while they still hold acyclic values, so the next flushes
// push from frozen pins to pins at or below the sweep cursor, which is the
// rewind path a cold first flush never takes. Edits on and off the cycle
// then interleave with queries, and after every query each pin's arrival
// and required time must equal a freshly built engine's.
func TestCycleRewindMatchesFresh(t *testing.T) {
	nl := netlist.New("cyc", cell.Default())
	lib := nl.Lib
	pad := func(name string, x, y float64) *netlist.Gate {
		g := nl.AddGate(name, lib.Cell("PAD"))
		g.SizeIdx = 0
		g.Fixed = true
		nl.MoveGate(g, x, y)
		return g
	}
	gate := func(name, cellName string, x, y float64, out *netlist.Net, ins ...*netlist.Net) *netlist.Gate {
		g := nl.AddGate(name, lib.Cell(cellName))
		for i, n := range ins {
			nl.Connect(g.Pin(string(rune('A'+i))), n)
		}
		nl.Connect(g.Output(), out)
		nl.MoveGate(g, x, y)
		return g
	}
	net := nl.AddNet

	// pi0 → g0 → c1.A; c1 → c2 → {a1 → a2 → po0, b2.B}; pi1 → c1.B and
	// pi1 → b1 → b2 → po1. Rewiring c1.B onto c2's output closes the loop
	// c1 → c2 → c1, leaving g0/b1/b2 acyclic around it.
	pi0, pi1 := pad("pi0", 0, 0), pad("pi1", 0, 200)
	n0, nb, nc1, nc2 := net("n0"), net("nb"), net("nc1"), net("nc2")
	na1, na2, nb1, nb2 := net("na1"), net("na2"), net("nb1"), net("nb2")
	nl.Connect(pi0.Pin("O"), n0)
	nl.Connect(pi1.Pin("O"), nb)
	n1 := net("n1")
	g0 := gate("g0", "INV", 30, 10, n1, n0)
	c1 := gate("c1", "NAND2", 60, 40, nc1, n1, nb)
	c2 := gate("c2", "INV", 90, 60, nc2, nc1)
	a1 := gate("a1", "BUF", 120, 30, na1, nc2)
	gate("a2", "INV", 150, 20, na2, na1)
	b1 := gate("b1", "INV", 40, 180, nb1, nb)
	b2 := gate("b2", "NAND2", 120, 150, nb2, nb1, nc2)
	nl.Connect(pad("po0", 200, 0).Pin("I"), na2)
	nl.Connect(pad("po1", 200, 200).Pin("I"), nb2)

	const period = 400.0
	eng, closeEng := engineStack(nl, period, 1, delay.Actual)
	defer closeEng()

	check := func(step string) {
		t.Helper()
		_ = eng.WorstSlack()
		fresh, closeFresh := engineStack(nl, period, 1, delay.Actual)
		defer closeFresh()
		nl.Gates(func(g *netlist.Gate) {
			for _, p := range g.Pins {
				if ai, af := eng.Arrival(p), fresh.Arrival(p); math.Abs(ai-af) > eps {
					t.Errorf("%s: pin %s arrival incremental %v != fresh %v", step, p.Name(), ai, af)
				}
				ri, rf := eng.Required(p), fresh.Required(p)
				if math.Abs(ri-rf) > eps && !(math.IsInf(ri, 1) && math.IsInf(rf, 1)) {
					t.Errorf("%s: pin %s required incremental %v != fresh %v", step, p.Name(), ri, rf)
				}
			}
		})
		if eng.HasCycles != fresh.HasCycles {
			t.Errorf("%s: HasCycles incremental %v != fresh %v", step, eng.HasCycles, fresh.HasCycles)
		}
	}

	check("acyclic")
	nl.Disconnect(c1.Pin("B"))
	nl.Connect(c1.Pin("B"), nc2)
	check("close loop")
	if !eng.HasCycles {
		t.Fatal("closing c1.B onto c2's output did not register a cycle")
	}

	edits := []struct {
		name string
		do   func()
	}{
		{"move c1 (on cycle)", func() { nl.MoveGate(c1, 70, 90) }},
		{"move g0 (feeds cycle)", func() { nl.MoveGate(g0, 10, 60) }},
		{"resize c2 (on cycle)", func() { nl.SetSize(c2, 2) }},
		{"move b1 (off cycle)", func() { nl.MoveGate(b1, 80, 190) }},
		{"resize b2 (fed by cycle)", func() { nl.SetSize(b2, 1) }},
		{"move a1 (downstream)", func() { nl.MoveGate(a1, 160, 50) }},
		{"resize g0 (feeds cycle)", func() { nl.SetSize(g0, 3) }},
		{"move c2 (on cycle)", func() { nl.MoveGate(c2, 100, 10) }},
	}
	for _, ed := range edits {
		ed.do()
		check(ed.name)
	}
}
