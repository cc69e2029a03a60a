package main

import (
	"context"
	"fmt"

	"tps"
	"tps/internal/serve"
)

// runAutotune executes a search locally: snapshot the design once, run
// the evolutionary loop, report each generation, and print the winning
// script.
func runAutotune(makeDesign func() (*tps.Design, error), spec *tps.AutotuneSpec, traceFile, out string, verbose bool) error {
	d, err := makeDesign()
	if err != nil {
		return err
	}
	defer d.Close()
	printDesign(d)
	fmt.Printf("AUTOTUNE search=%s objective=%s population=%d offspring=%d generations=%d\n",
		spec.Name, orDefault(spec.Objective, "slack"), spec.Population, spec.Offspring, spec.Generations)

	var res *tps.AutotuneResult
	err = traced(traceFile, verbose, func(t tps.Tracer) { spec.Trace = t }, func() (err error) {
		res, err = d.Autotune(context.Background(), *spec)
		return err
	})
	if res != nil {
		for _, g := range res.Gens {
			restart := ""
			if g.Restart {
				restart = " restart"
			}
			fmt.Printf("  gen %-3d evaluated=%-3d best=%-6s obj=%g%s\n",
				g.Gen, g.Evaluated, orDefault(g.Best, "-"), g.BestObjective, restart)
		}
	}
	if err != nil {
		return err
	}
	printAutotuneWinner(res.BestName, res.BestObjective, res.BaseObjective,
		res.Generations, res.Evaluated, res.BestScript)
	return writeWinner(out, res.BestDesign, res.BestName)
}

// autotuneRequest is the tpsd submission that runs spec as one search
// job.
func autotuneRequest(spec *tps.AutotuneSpec, workers int) serve.SubmitRequest {
	a := &serve.AutotuneRequest{
		Scenario:    spec.Script,
		Objective:   spec.Objective,
		Population:  spec.Population,
		Offspring:   spec.Offspring,
		Generations: spec.Generations,
		Stall:       spec.Stall,
		Seed:        spec.Seed,
		DeadlineSec: spec.Deadline.Seconds(),
		Freeze:      spec.Freeze,
		Insert:      spec.Insert,
		Params:      spec.Params,
	}
	if spec.Weights != (tps.MutationWeights{}) {
		w := spec.Weights
		a.Weights = &w
	}
	return serve.SubmitRequest{Workers: workers, Autotune: a}
}

// printAutotuneWinner prints the line an -autotune run ends with,
// followed by the winning canonical script, locally and under -submit
// alike. Like the RACE line it is timing-free, so runs at different
// -workers widths, or on a tpsd server, can be diffed verbatim.
func printAutotuneWinner(name string, obj, base float64, gens, evaluated int, script string) {
	fmt.Printf("AUTOTUNE winner=%s obj=%g baseline=%g gens=%d evaluated=%d\n",
		name, obj, base, gens, evaluated)
	fmt.Print(script)
}
