package scenario

import (
	"fmt"

	"tps/internal/delay"
	"tps/internal/netlist"
)

// The engine's own transforms: steps that touch only the analyzer stack,
// the bin image, or raw netlist state. Everything gate-level lives in the
// transform packages' registration shims.
func init() {
	Register(Transform{
		Name: "mode", Doc: "switch the delay model (m=gain|wireload|actual)",
		Window: "init/final", Structural: true,
		Run: func(c *Context, a Args) (Report, error) {
			var m delay.Mode
			switch name := a.Str("m", "actual"); name {
			case "gain":
				m = delay.GainBased
			case "wireload":
				m = delay.WireLoad
			case "actual":
				m = delay.Actual
			default:
				return Report{}, fmt.Errorf("mode: unknown model %q", name)
			}
			c.Eng.SetMode(m)
			return Report{Detail: m.String()}, nil
		},
	})
	Register(Transform{
		Name: "trackbin", Doc: "track the refining bin size in the intra-bin wire estimate",
		Window: "every step", Structural: true,
		Run: func(c *Context, a Args) (Report, error) {
			bd := c.Im.BinW()
			if c.Im.BinH() > bd {
				bd = c.Im.BinH()
			}
			if bd != c.Calc.BinDim {
				c.Calc.SetBinDim(bd)
				c.Eng.InvalidateAll()
				return Report{Changed: 1, Detail: fmt.Sprintf("bin %.1f", bd)}, nil
			}
			return Report{}, nil
		},
	})
	Register(Transform{
		Name: "bindim0", Doc: "retire the intra-bin wire estimate (positions exact)",
		Window: "final", Structural: true,
		Run: func(c *Context, a Args) (Report, error) {
			c.Calc.SetBinDim(0)
			c.Eng.InvalidateAll()
			return Report{Changed: 1}, nil
		},
	})
	Register(Transform{
		Name: "sync", Doc: "rebuild bin image usage from gate geometry",
		Window: "any",
		Run: func(c *Context, a Args) (Report, error) {
			c.SyncImage()
			return Report{}, nil
		},
	})
	Register(Transform{
		Name: "subdivide_full", Doc: "refine the bin image to its maximum level",
		Window: "init", Structural: true,
		Run: func(c *Context, a Args) (Report, error) {
			n := 0
			for c.Im.Level < c.Im.MaxLevel {
				c.Im.Subdivide()
				n++
			}
			return Report{Changed: n}, nil
		},
	})
	Register(Transform{
		Name: "congest", Doc: "re-measure congestion (incremental over dirty nets)",
		Window: "every step",
		Run: func(c *Context, a Args) (Report, error) {
			dirty := c.Cong.DirtyNets()
			rep := c.Cong.Analyze()
			return Report{Changed: dirty,
				Detail: fmt.Sprintf("H %.0f/%.0f V %.0f/%.0f", rep.HorizPeak, rep.HorizAvg, rep.VertPeak, rep.VertAvg)}, nil
		},
	})
	Register(Transform{
		Name: "evaluate", Doc: "measure timing/area/congestion into the flow metrics (flow=<label>)",
		Window: "final",
		Run: func(c *Context, a Args) (Report, error) {
			m := c.Evaluate(a.Str("flow", c.ScenarioName))
			c.M = &m
			return Report{Detail: fmt.Sprintf("slack %.0f", m.WorstSlack)}, nil
		},
	})
	Register(Transform{
		Name: "remeasure", Doc: "refresh the metrics' timing numbers after post-evaluate edits",
		Window: "final",
		Run: func(c *Context, a Args) (Report, error) {
			if c.M == nil {
				c.M = &Metrics{Flow: c.ScenarioName, Iterations: 1}
			}
			c.M.WorstSlack = c.Eng.WorstSlack()
			c.M.TNS = c.Eng.TNS()
			c.M.CycleAchieved = c.Period - c.M.WorstSlack
			return Report{Detail: fmt.Sprintf("slack %.0f", c.M.WorstSlack)}, nil
		},
	})
	Register(Transform{
		Name: "logslack", Doc: "read and log the current worst slack (label=<tag>)",
		Window: "any",
		Run: func(c *Context, a Args) (Report, error) {
			// Read unconditionally: flows use this step to pin down exactly
			// where the timing engine flushes, traced or not.
			return Report{Detail: fmt.Sprintf("%.0f", c.Eng.WorstSlack())}, nil
		},
	})
	Register(Transform{
		Name: "freeze_nonsignal", Doc: "save and zero clock/scan net weights (traditional placement)",
		Window: "init",
		Run: func(c *Context, a Args) (Report, error) {
			saved := map[int]float64{}
			c.NL.Nets(func(n *netlist.Net) {
				if n.Kind != netlist.Signal {
					saved[n.ID] = n.Weight
					c.NL.SetNetWeight(n, 0)
				}
			})
			c.Scratch["frozen_weights"] = saved
			return Report{Changed: len(saved)}, nil
		},
	})
	Register(Transform{
		Name: "restore_weights", Doc: "restore net weights saved by freeze_nonsignal",
		Window: "init",
		Run: func(c *Context, a Args) (Report, error) {
			saved, _ := c.Scratch["frozen_weights"].(map[int]float64)
			if saved == nil {
				return Report{}, fmt.Errorf("restore_weights: no frozen_weights (run freeze_nonsignal first)")
			}
			n := 0
			c.NL.Nets(func(nt *netlist.Net) {
				if w, ok := saved[nt.ID]; ok {
					c.NL.SetNetWeight(nt, w)
					n++
				}
			})
			delete(c.Scratch, "frozen_weights")
			return Report{Changed: n}, nil
		},
	})
}
