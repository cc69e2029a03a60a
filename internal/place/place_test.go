package place

import (
	"math"
	"testing"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/image"
	"tps/internal/netlist"
	"tps/internal/steiner"
)

func testDesign(t *testing.T, gates int, seed int64) (*gen.Design, *image.Image, *Placer) {
	t.Helper()
	d := gen.Generate(cell.Default(), gen.Params{
		NumGates: gates, Levels: 8, RegFraction: 0.15, Seed: seed,
	})
	im := image.New(d.ChipW, d.ChipH, d.NL.Lib.Tech.RowHeight, 0.75)
	p := New(d.NL, im, seed)
	return d, im, p
}

func TestPartitionAdvancesStatus(t *testing.T) {
	_, im, p := testDesign(t, 400, 1)
	if p.Status() != 0 {
		t.Fatalf("initial status = %d", p.Status())
	}
	s := p.Partition(50)
	if s < 50 {
		t.Fatalf("Partition(50) reached only %d", s)
	}
	if im.Status() != s {
		t.Fatalf("status mismatch")
	}
	s2 := p.Partition(100)
	if s2 != 100 {
		t.Fatalf("Partition(100) reached %d", s2)
	}
}

func TestPartitionReducesWirelength(t *testing.T) {
	d, _, p := testDesign(t, 500, 2)
	p.Init()
	// After Init, everything is at chip center: WL only from pads.
	p.Partition(100)
	wl := WirelengthHPWL(d.NL)
	// Compare against a deterministic "random scatter" placement.
	rngWL := scatterWL(d)
	if wl >= rngWL {
		t.Errorf("min-cut WL %g not better than random %g", wl, rngWL)
	}
}

func scatterWL(d *gen.Design) float64 {
	i := 0
	d.NL.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			x := float64((i*2654435761)%1000) / 1000 * d.ChipW
			y := float64((i*40503)%1000) / 1000 * d.ChipH
			d.NL.MoveGate(g, x, y)
			i++
		}
	})
	return WirelengthHPWL(d.NL)
}

func TestPartitionRespectsCapacity(t *testing.T) {
	_, im, p := testDesign(t, 500, 3)
	p.Partition(100)
	// No bin should be grossly overfull (capacity-driven targets).
	over := im.Overfull(0.6)
	if len(over) > im.NumBins()/10 {
		t.Errorf("%d of %d bins >60%% overfull", len(over), im.NumBins())
	}
}

func TestReflowDoesNotWorsenMuch(t *testing.T) {
	d, _, p := testDesign(t, 400, 4)
	p.Partition(60)
	before := WirelengthHPWL(d.NL)
	p.Reflow()
	after := WirelengthHPWL(d.NL)
	if after > before*1.05 {
		t.Errorf("reflow worsened WL: %g → %g", before, after)
	}
}

func TestReflowFreesTrappedGates(t *testing.T) {
	// Construct a pathological trap: two tightly-coupled gates forced to
	// opposite sides by fixed terminals, then reflow lets one cross back.
	nl := netlist.New("trap", cell.Default())
	lib := nl.Lib
	// A clique of 6 gates on the left, one stray member placed right.
	var gs []*netlist.Gate
	for i := 0; i < 7; i++ {
		g := nl.AddGate("g", lib.Cell("INV"))
		gs = append(gs, g)
	}
	for i := 0; i < 6; i++ {
		n := nl.AddNet("n")
		nl.Connect(gs[i].Output(), n)
		nl.Connect(gs[(i+1)%7].Pin("A"), n)
	}
	im := image.New(96, 96, lib.Tech.RowHeight, 0.8)
	p := New(nl, im, 1)
	im.Subdivide() // 2×2 grid
	for i, g := range gs {
		if i == 6 {
			nl.MoveGate(g, 72, 24) // stray on the right
		} else {
			nl.MoveGate(g, 24, 24)
		}
	}
	before := WirelengthHPWL(nl)
	p.Reflow()
	after := WirelengthHPWL(nl)
	if after > before {
		t.Errorf("reflow worsened trap case: %g → %g", before, after)
	}
}

func TestLegalizeRemovesOverlaps(t *testing.T) {
	d, _, p := testDesign(t, 300, 5)
	p.Partition(100)
	p.SpreadWithinBins()
	// Give everything a real size first (legalization needs widths).
	d.NL.Gates(func(g *netlist.Gate) {
		if !g.Fixed && g.SizeIdx < 0 {
			d.NL.SetSize(g, 1)
		}
	})
	Legalize(d.NL, d.ChipW, d.ChipH)
	if err := CheckLegal(d.NL, d.ChipW, d.ChipH); err != nil {
		t.Fatal(err)
	}
}

func TestLegalizeKeepsDisplacementModest(t *testing.T) {
	d, _, p := testDesign(t, 300, 6)
	p.Partition(100)
	p.SpreadWithinBins()
	d.NL.Gates(func(g *netlist.Gate) {
		if !g.Fixed && g.SizeIdx < 0 {
			d.NL.SetSize(g, 0)
		}
	})
	type pos struct{ x, y float64 }
	want := map[int]pos{}
	d.NL.Gates(func(g *netlist.Gate) {
		if !g.Fixed {
			want[g.ID] = pos{g.X, g.Y}
		}
	})
	Legalize(d.NL, d.ChipW, d.ChipH)
	var sum, worst float64
	n := 0
	d.NL.Gates(func(g *netlist.Gate) {
		if w, ok := want[g.ID]; ok {
			dd := math.Abs(g.X-w.x) + math.Abs(g.Y-w.y)
			sum += dd
			n++
			if dd > worst {
				worst = dd
			}
		}
	})
	if avg := sum / float64(n); avg > d.ChipW/4 {
		t.Errorf("average legalization displacement %g on a %g chip", avg, d.ChipW)
	}
	if worst > d.ChipW {
		t.Errorf("worst legalization displacement %g exceeds chip width %g", worst, d.ChipW)
	}
}

func TestDetailedPlaceImprovesWL(t *testing.T) {
	d, _, p := testDesign(t, 300, 7)
	p.Partition(100)
	p.SpreadWithinBins()
	d.NL.Gates(func(g *netlist.Gate) {
		if !g.Fixed && g.SizeIdx < 0 {
			d.NL.SetSize(g, 0)
		}
	})
	Legalize(d.NL, d.ChipW, d.ChipH)
	st := steiner.NewCache(d.NL)
	before := st.Total()
	n := DetailedPlace(d.NL, DefaultDetailedOptions())
	after := st.Total()
	if after > before+1e-6 {
		t.Errorf("detailed place worsened WL: %g → %g", before, after)
	}
	if n == 0 {
		t.Log("no accepted moves (placement may already be locally optimal)")
	}
	if err := CheckLegal(d.NL, d.ChipW, d.ChipH); err != nil {
		t.Fatalf("detailed place broke legality: %v", err)
	}
}

func TestDetailedPlaceSwapTwoGates(t *testing.T) {
	// Two gates placed in each other's ideal slots; one swap fixes it.
	nl := netlist.New("swap", cell.Default())
	lib := nl.Lib
	t1 := nl.AddGate("t1", lib.Cell("PAD"))
	t1.SizeIdx = 0
	t1.Fixed = true
	nl.MoveGate(t1, 0, 3)
	t2 := nl.AddGate("t2", lib.Cell("PAD"))
	t2.SizeIdx = 0
	t2.Fixed = true
	nl.MoveGate(t2, 100, 3)
	a := nl.AddGate("a", lib.Cell("INV"))
	nl.SetSize(a, 0)
	b := nl.AddGate("b", lib.Cell("INV"))
	nl.SetSize(b, 0)
	na, nb := nl.AddNet("na"), nl.AddNet("nb")
	nl.Connect(t1.Pin("O"), na)
	nl.Connect(a.Pin("A"), na)
	nl.Connect(t2.Pin("O"), nb)
	nl.Connect(b.Pin("A"), nb)
	// a far from t1, b far from t2 — same row, adjacent slots.
	nl.MoveGate(a, 60, 3)
	nl.MoveGate(b, 58, 3)
	st := steiner.NewCache(nl)
	before := st.Total()
	DetailedPlace(nl, DetailedOptions{WindowSize: 4, MaxPermute: 2, Passes: 1})
	if after := st.Total(); after >= before {
		t.Errorf("swap not found: %g → %g", before, after)
	}
	if a.X > b.X {
		t.Errorf("a (%g) should now be left of b (%g)", a.X, b.X)
	}
}

func TestSpreadWithinBins(t *testing.T) {
	d, im, p := testDesign(t, 200, 8)
	p.Partition(100)
	p.SpreadWithinBins()
	// No two movable gates should now be exactly coincident within a bin
	// (up to grid collisions across bins, coincidence should be rare).
	seen := map[[2]float64]int{}
	coincident := 0
	d.NL.Gates(func(g *netlist.Gate) {
		if g.Fixed {
			return
		}
		k := [2]float64{g.X, g.Y}
		if seen[k] > 0 {
			coincident++
		}
		seen[k]++
	})
	if coincident > d.NL.NumGates()/20 {
		t.Errorf("%d coincident gates after spreading", coincident)
	}
	_ = im
}

func TestPartitionDeterminism(t *testing.T) {
	d1, _, p1 := testDesign(t, 300, 9)
	p1.Partition(100)
	d2, _, p2 := testDesign(t, 300, 9)
	p2.Partition(100)
	if w1, w2 := WirelengthHPWL(d1.NL), WirelengthHPWL(d2.NL); w1 != w2 {
		t.Errorf("non-deterministic placement: %g vs %g", w1, w2)
	}
}

func TestZeroWeightNetsIgnored(t *testing.T) {
	// A heavy net with weight 0 must not influence partitioning: the
	// gates it connects stay driven by their other (weighted) nets.
	d, _, p := testDesign(t, 300, 10)
	d.NL.Nets(func(n *netlist.Net) {
		if n.Kind == netlist.Clock {
			d.NL.SetNetWeight(n, 0)
		}
	})
	p.Partition(100) // must not crash and must produce sane WL
	if wl := WirelengthHPWL(d.NL); wl <= 0 {
		t.Errorf("WL = %g", wl)
	}
}
