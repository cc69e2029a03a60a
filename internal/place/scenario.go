package place

import (
	"tps/internal/scenario"
)

// forScenario returns the per-run placer actor, constructed exactly as
// the Figure 5 flow does.
func forScenario(c *scenario.Context) *Placer {
	return scenario.Actor(c, "placer", func() *Placer {
		p := New(c.NL, c.Im, c.Seed)
		p.Workers = c.Workers
		return p
	})
}

// PublishFMStats copies p's accumulated FM gain-structure counters into
// the context's analyzer-stats block. The scenario transform calls it
// after every partition advance; hand-scheduled flows (the golden-test
// references) must call it at the same points to stay stat-identical.
func PublishFMStats(c *scenario.Context, p *Placer) {
	st := p.FMStats()
	c.FM = scenario.FMStats{
		Pushes:      st.Pushes,
		Pops:        st.Pops,
		StalePops:   st.StalePops,
		GainUpdates: st.GainUpdates,
		Compactions: st.Compactions,
	}
}

func init() {
	scenario.Register(scenario.Transform{
		Name: "partition", Doc: "refine the placement partition to the current status (reflow=0 to skip reflow)",
		Window: "every step", Structural: true,
		Params: []scenario.ParamDomain{
			{Key: "reflow", Kind: scenario.ParamEnum, Enum: []string{"0", "1"}},
		},
		Guard: func(c *scenario.Context) bool {
			// The bin grid refines only when the advancing status target
			// passes the next level threshold; between thresholds the loop
			// keeps transforming on the placement plateau.
			return forScenario(c).Status() < c.Status
		},
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			p := forScenario(c)
			stop := c.Track("partition")
			p.Partition(c.Status)
			stop()
			if a.Bool("reflow", true) {
				stop = c.Track("reflow")
				p.Reflow()
				stop()
			}
			PublishFMStats(c, p)
			return scenario.Report{Changed: 1}, nil
		},
	})
	scenario.Register(scenario.Transform{
		Name: "spread", Doc: "spread gates from bin centers to distinct positions",
		Window: "final", Structural: true,
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			forScenario(c).SpreadWithinBins()
			return scenario.Report{Changed: 1}, nil
		},
	})
	scenario.Register(scenario.Transform{
		Name: "sync_placer", Doc: "re-deposit the placer's bin usage after synthesis edits",
		Window: "every step", Structural: true,
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			forScenario(c).SyncImage()
			return scenario.Report{}, nil
		},
	})
	scenario.Register(scenario.Transform{
		Name: "legalize", Doc: "snap gates to rows without overlap",
		Window: "final",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			stop := c.Track("legalize")
			Legalize(c.NL, c.ChipW, c.ChipH)
			stop()
			return scenario.Report{Changed: 1}, nil
		},
	})
	scenario.Register(scenario.Transform{
		Name: "detailed", Doc: "detailed placement (swap/shift refinement)",
		Window: "final",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			dopt := DefaultDetailedOptions()
			dopt.Workers = c.Workers
			stop := c.Track("detailed")
			DetailedPlace(c.NL, dopt)
			stop()
			return scenario.Report{Changed: 1}, nil
		},
	})
}
