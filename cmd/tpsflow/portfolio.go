package main

import (
	"context"
	"fmt"
	"strings"

	"tps"
	"tps/internal/serve"
)

// runPortfolio executes a race locally: fork the design per entrant,
// race, report every verdict, and adopt the winner.
func runPortfolio(makeDesign func() (*tps.Design, error), spec *tps.RaceSpec, traceFile, out string, verbose bool) error {
	d, err := makeDesign()
	if err != nil {
		return err
	}
	defer d.Close()
	printDesign(d)
	fmt.Printf("RACE portfolio=%s objective=%s entrants=%d\n",
		spec.Name, orDefault(spec.Objective, "slack"), len(spec.Entrants))

	var res *tps.RaceResult
	err = traced(traceFile, verbose, func(t tps.Tracer) { spec.Trace = t }, func() (err error) {
		res, err = d.Race(context.Background(), *spec)
		return err
	})
	if res != nil {
		printVerdicts(res)
	}
	if err != nil {
		return err
	}
	w := &res.Verdicts[res.Winner]
	printRaceWinner(w.Name, w.Objective, w.Metrics)
	return writeWinner(out, res.WinnerDesign, w.Name)
}

// raceRequest is the tpsd submission that runs spec as one race job.
func raceRequest(spec *tps.RaceSpec, workers int) serve.SubmitRequest {
	req := serve.SubmitRequest{
		Workers:     workers,
		Objective:   spec.Objective,
		DeadlineSec: spec.Deadline.Seconds(),
	}
	for _, e := range spec.Entrants {
		req.Entrants = append(req.Entrants, serve.RaceEntrant{
			Name: e.Name, Scenario: e.Script, Seed: e.Seed,
			Bound: e.Bound, Params: e.Params,
		})
	}
	return req
}

// printRaceWinner prints the line a -portfolio run ends with, locally
// and under -submit alike. It is deliberately free of timings so runs at
// different -workers widths, or on a tpsd server, can be diffed
// verbatim — that is the determinism contract.
func printRaceWinner(name string, obj float64, m *tps.Metrics) {
	fmt.Printf("RACE winner=%s obj=%g slack=%.0fps cycle=%.0fps wire=%.0fµm\n",
		name, obj, m.WorstSlack, m.CycleAchieved, m.SteinerWireUm)
}

// printVerdicts prints the per-entrant outcome table.
func printVerdicts(res *tps.RaceResult) {
	for i := range res.Verdicts {
		v := &res.Verdicts[i]
		var detail string
		switch {
		case v.Status == "finished":
			detail = fmt.Sprintf("obj=%g accepts=%d rejects=%d (%.1fs)",
				v.Objective, v.Accepts, v.Rejects, v.DurMs/1000)
		case v.Err != "":
			detail = v.Err
		}
		fmt.Printf("  %-12s seed=%-4d %-10s %s\n", v.Name, v.Seed, v.Status, strings.TrimSpace(detail))
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
