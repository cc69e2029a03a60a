package migrate

import (
	"tps/internal/scenario"
)

func forScenario(c *scenario.Context) *Migrator {
	return scenario.Actor(c, "migrate", func() *Migrator {
		m := New(c.NL, c.Eng, c.Im)
		m.Stop = c.Interrupted
		if c.HasParam("migrate_marginfrac") {
			m.Margin = c.ParamFloat("migrate_marginfrac", 0) * c.Period
		} else if c.HasParam("migrate_margin") {
			m.Margin = c.ParamFloat("migrate_margin", m.Margin)
		}
		return m
	})
}

func init() {
	scenario.Register(scenario.Transform{
		Name: "migrate", Doc: "migrate logic across latch boundaries toward slack",
		Window: "30..50",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			n := forScenario(c).Run()
			return scenario.Report{Changed: n}, c.Interrupted()
		},
	})
}
