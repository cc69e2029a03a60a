package tps

import (
	"testing"

	"tps/internal/cell"
	"tps/internal/netlist"
	"tps/internal/scenario"
)

func TestTPSWithoutVirtualDiscretization(t *testing.T) {
	d := smallDesign(11)
	c := scenario.NewContext(d, 11)
	defer c.Close()
	opt := DefaultTPSOptions()
	opt.VirtualDiscretization = false
	opt.SkipRouting = true
	opt.TransformBudget = 8
	m := runBuiltin(c, TPSScript(opt))
	if m.ICells == 0 {
		t.Fatal("no metrics")
	}
	if err := c.NL.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTPSWithoutReflow(t *testing.T) {
	d := smallDesign(12)
	c := scenario.NewContext(d, 12)
	defer c.Close()
	opt := DefaultTPSOptions()
	opt.DisableReflow = true
	opt.SkipRouting = true
	opt.TransformBudget = 8
	m := runBuiltin(c, TPSScript(opt))
	if m.ICells == 0 {
		t.Fatal("no metrics")
	}
}

func TestTPSTraditionalClockPath(t *testing.T) {
	d := smallDesign(13)
	c := scenario.NewContext(d, 13)
	defer c.Close()
	opt := DefaultTPSOptions()
	opt.DisableClockScanSchedule = true
	opt.SkipRouting = true
	opt.TransformBudget = 8
	runBuiltin(c, TPSScript(opt))
	// Clock pins must still all be driven after the late optimization.
	c.NL.Gates(func(g *netlist.Gate) {
		if g.IsSequential() {
			if ck := g.ClockPin(); ck == nil || ck.Net == nil || ck.Net.Driver() == nil {
				t.Fatalf("register %s lost its clock", g.Name)
			}
		}
	})
	if err := c.NL.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSPRLeavesLegalPlacementAndClocks(t *testing.T) {
	d := smallDesign(14)
	c := scenario.NewContext(d, 14)
	defer c.Close()
	opt := DefaultSPROptions()
	opt.SkipRouting = true
	opt.TransformBudget = 8
	m := runBuiltin(c, SPRScript(opt))
	if m.Iterations < 2 {
		t.Fatalf("iterations = %d", m.Iterations)
	}
	clocked := true
	c.NL.Gates(func(g *netlist.Gate) {
		if g.IsSequential() {
			if ck := g.ClockPin(); ck == nil || ck.Net == nil {
				clocked = false
			}
		}
	})
	if !clocked {
		t.Fatal("SPR broke the clock network")
	}
}

func TestEvaluateFieldsConsistent(t *testing.T) {
	d := smallDesign(15)
	c := scenario.NewContext(d, 15)
	defer c.Close()
	opt := DefaultTPSOptions()
	opt.SkipRouting = true
	opt.TransformBudget = 4
	m := runBuiltin(c, TPSScript(opt))
	if m.CycleAchieved != c.Period-m.WorstSlack {
		t.Errorf("cycle %g != period %g − slack %g", m.CycleAchieved, c.Period, m.WorstSlack)
	}
	if m.AreaUm2 <= 0 || m.SteinerWireUm <= 0 {
		t.Errorf("area %g wire %g", m.AreaUm2, m.SteinerWireUm)
	}
	if m.HorizPeak < m.HorizAvg || m.VertPeak < m.VertAvg {
		t.Errorf("peaks below averages: %+v", m)
	}
	if m.TNS > 0 {
		t.Errorf("TNS positive: %g", m.TNS)
	}
}

func TestNoSizelessGatesEscapeEitherFlow(t *testing.T) {
	for seed := int64(16); seed <= 17; seed++ {
		d := smallDesign(seed)
		c := scenario.NewContext(d, seed)
		opt := DefaultTPSOptions()
		opt.SkipRouting = true
		opt.TransformBudget = 4
		runBuiltin(c, TPSScript(opt))
		c.NL.Gates(func(g *netlist.Gate) {
			if !g.Fixed && !g.IsPad() && g.Cell.Function != cell.FuncClkBuf && g.SizeIdx < 0 {
				t.Fatalf("seed %d: %s sizeless at end", seed, g.Name)
			}
		})
		c.Close()
	}
}
