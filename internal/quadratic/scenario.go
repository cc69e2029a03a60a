package quadratic

import (
	"tps/internal/scenario"
)

func init() {
	scenario.Register(scenario.Transform{
		Name: "qplace", Doc: "stand-alone quadratic global placement (the SPR baseline's placer)",
		Window: "init", Structural: true,
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			opt := DefaultOptions()
			opt.Seed = c.Seed
			opt.Workers = c.Workers
			Place(c.NL, c.ChipW, c.ChipH, opt)
			return scenario.Report{Changed: 1}, nil
		},
	})
}
