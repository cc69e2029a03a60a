package route

import (
	"fmt"

	"tps/internal/scenario"
)

func init() {
	scenario.Register(scenario.Transform{
		Name: "route", Doc: "global-route every net; records routed wire and overflows in the metrics",
		Window: "final",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			res := RouteAllN(c.NL, c.St, c.Im, c.Workers)
			if c.M == nil {
				c.M = &scenario.Metrics{Flow: c.ScenarioName, Iterations: 1}
			}
			c.M.RoutedWireUm = res.TotalLen
			c.M.RouteOverflows = res.Overflows
			return scenario.Report{Changed: res.Overflows,
				Detail: fmt.Sprintf("wire %.0f overflows %d", res.TotalLen, res.Overflows)}, nil
		},
	})
}
