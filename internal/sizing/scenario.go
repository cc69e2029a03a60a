package sizing

import (
	"tps/internal/delay"
	"tps/internal/scenario"
)

func init() {
	scenario.Register(scenario.Transform{
		Name: "assign_gains", Doc: "assert a uniform gain on every sizeless gate (gain=4)",
		Window: "init",
		Params: []scenario.ParamDomain{
			{Key: "gain", Kind: scenario.ParamFloat, Lo: 2, Hi: 8},
		},
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			AssignGains(c.NL, a.Float("gain", 4))
			return scenario.Report{}, nil
		},
	})
	scenario.Register(scenario.Transform{
		Name: "discretize", Doc: "Algorithm PlacementDisc: virtual discretization below the cut status, actual at it (cut=30 virtual=1)",
		Window: "every step", Structural: true,
		Params: []scenario.ParamDomain{
			{Key: "cut", Kind: scenario.ParamInt, Lo: 10, Hi: 60},
		},
		Guard: func(c *scenario.Context) bool {
			// Discretization is done once timing went actual.
			return c.Calc.Mode != delay.Actual
		},
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			if c.Status >= a.Int("cut", 30) || !a.Bool("virtual", true) {
				n := DiscretizeActual(c.NL, c.Calc)
				c.Eng.SetMode(delay.Actual)
				return scenario.Report{Changed: n, Detail: "actual"}, nil
			}
			n := DiscretizeVirtual(c.NL, c.Calc)
			return scenario.Report{Changed: n, Detail: "virtual"}, nil
		},
	})
	scenario.Register(scenario.Transform{
		Name: "discretize_actual", Doc: "bind every gate to its best discrete size (setmode=0 keeps the delay model)",
		Window: "init/final", Structural: true,
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			n := DiscretizeActual(c.NL, c.Calc)
			if a.Bool("setmode", true) {
				c.Eng.SetMode(delay.Actual)
			}
			return scenario.Report{Changed: n}, nil
		},
	})
	scenario.Register(scenario.Transform{
		Name: "size_area", Doc: "recover area on paths with slack above the margin (margin=50)",
		Window: "20..30, 80..",
		Params: []scenario.ParamDomain{
			{Key: "margin", Kind: scenario.ParamFloat, Lo: 20, Hi: 120},
		},
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			n := SizeForArea(c.NL, c.Eng, a.Margin(c, 50), c.Interrupted)
			return scenario.Report{Changed: n}, c.Interrupted()
		},
	})
	scenario.Register(scenario.Transform{
		Name: "size_speed", Doc: "upsize gates on critical paths (margin=60 budget=<scenario budget>)",
		Window: "30..",
		Params: []scenario.ParamDomain{
			{Key: "margin", Kind: scenario.ParamFloat, Lo: 20, Hi: 120},
			{Key: "budget", Kind: scenario.ParamInt, Lo: 8, Hi: 256},
		},
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			n := SizeForSpeed(c.NL, c.Eng, c.Im, a.Margin(c, 60), a.Int("budget", 0), c.Interrupted)
			return scenario.Report{Changed: n}, c.Interrupted()
		},
	})
	scenario.Register(scenario.Transform{
		Name: "infootprint", Doc: "footprint-preserving resize (no placement perturbation; margin=60)",
		Window: "final",
		Params: []scenario.ParamDomain{
			{Key: "margin", Kind: scenario.ParamFloat, Lo: 20, Hi: 120},
		},
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			n := InFootprintResize(c.NL, c.Eng, a.Margin(c, 60), c.Interrupted)
			return scenario.Report{Changed: n}, c.Interrupted()
		},
	})
}
