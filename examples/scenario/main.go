// Scenario: load a hand-written flow script and run it through the
// scenario engine instead of the built-in RunTPS/RunSPR schedules.
//
// The script (congestion_first.tps) reorders the Figure 5 loop to put
// congestion relief before synthesis at every status advance, and wraps
// the aggressive timing transforms in `protect` checkpoints: a clone or
// buffer pass that regresses total wire is rolled back and counted as
// rejected. The engine's structured trace is written to trace.jsonl.
package main

import (
	_ "embed"
	"fmt"
	"os"

	"tps"
)

//go:embed congestion_first.tps
var script string

func main() {
	s, err := tps.ParseScenario(script)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("scenario %q: %d blocks\n", s.Name, len(s.Blocks))

	d := tps.NewDesign(tps.DesignParams{
		Name: "cong1", NumGates: 1500, Levels: 10, Seed: 7,
	})
	defer d.Close()

	tf, err := os.Create("trace.jsonl")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer tf.Close()
	// Progress lines on stdout and the JSONL trace from the same events.
	d.SetTrace(fanout{tps.NewTextTracer(os.Stdout), tps.NewJSONLTracer(tf)})

	m, err := d.RunScenario(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println()
	fmt.Printf("worst slack    %8.0f ps\n", m.WorstSlack)
	fmt.Printf("achieved cycle %8.0f ps\n", m.CycleAchieved)
	fmt.Printf("steiner wire   %8.0f µm\n", m.SteinerWireUm)
	fmt.Printf("routed wire    %8.0f µm (%d overflows)\n", m.RoutedWireUm, m.RouteOverflows)
	fmt.Printf("congestion     H %.0f/%.0f  V %.0f/%.0f (peak/avg wires cut)\n",
		m.HorizPeak, m.HorizAvg, m.VertPeak, m.VertAvg)

	ctx := d.Context()
	fmt.Printf("protected steps: %d accepted, %d rolled back\n", ctx.Accepts, ctx.Rejects)
	fmt.Println("structured trace written to trace.jsonl")

	if err := d.CheckLegal(); err != nil {
		fmt.Fprintln(os.Stderr, "placement not legal:", err)
		os.Exit(1)
	}
}

// fanout feeds every event to each of its tracers in turn.
type fanout []tps.Tracer

func (f fanout) Emit(e tps.TraceEvent) {
	for _, t := range f {
		t.Emit(e)
	}
}
