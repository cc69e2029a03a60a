package tps

import (
	"testing"

	"tps/internal/congestion"
	"tps/internal/place"
	"tps/internal/route"
	"tps/internal/scenario"
)

// runWithWorkers runs the full TPS scenario (routing included) on a fresh
// copy of the same seeded design with the given worker count.
func runWithWorkers(t *testing.T, workers int) (Metrics, AnalyzerStats) {
	t.Helper()
	d := smallDesign(7)
	c := scenario.NewContext(d, 7)
	defer c.Close()
	c.SetWorkers(workers)
	opt := DefaultTPSOptions()
	opt.TransformBudget = 16
	m := runBuiltin(c, TPSScript(opt))
	return m, c.AnalyzerStats()
}

// TestWorkersBitIdentical is the acceptance gate for the parallel
// evaluation layer: the complete TPS flow — every analyzer query inside it
// and the final Metrics — must be bit-identical (==, not within-eps)
// between serial and 8-way parallel analysis. The layer only fans out
// pure per-item computation and reduces in a fixed order, so any
// divergence here is a determinism bug, not float noise.
func TestWorkersBitIdentical(t *testing.T) {
	serial, statS := runWithWorkers(t, 1)
	par8, statP := runWithWorkers(t, 8)

	type pair struct {
		name string
		s, p float64
	}
	checks := []pair{
		{"WorstSlack", serial.WorstSlack, par8.WorstSlack},
		{"TNS", serial.TNS, par8.TNS},
		{"CycleAchieved", serial.CycleAchieved, par8.CycleAchieved},
		{"AreaUm2", serial.AreaUm2, par8.AreaUm2},
		{"SteinerWireUm", serial.SteinerWireUm, par8.SteinerWireUm},
		{"HorizPeak", serial.HorizPeak, par8.HorizPeak},
		{"HorizAvg", serial.HorizAvg, par8.HorizAvg},
		{"VertPeak", serial.VertPeak, par8.VertPeak},
		{"VertAvg", serial.VertAvg, par8.VertAvg},
		{"RoutedWireUm", serial.RoutedWireUm, par8.RoutedWireUm},
	}
	for _, c := range checks {
		if c.s != c.p {
			t.Errorf("%s: serial %v != parallel %v", c.name, c.s, c.p)
		}
	}
	if serial.ICells != par8.ICells {
		t.Errorf("ICells: serial %d != parallel %d", serial.ICells, par8.ICells)
	}
	if serial.RouteOverflows != par8.RouteOverflows {
		t.Errorf("RouteOverflows: serial %d != parallel %d",
			serial.RouteOverflows, par8.RouteOverflows)
	}
	// The transform execution layer must not perturb the analyzers' work
	// accounting either: every dirty-set size and pass/recompute counter has
	// to match field for field, or some transform took a different path at
	// the two worker counts.
	if statS != statP {
		t.Errorf("AnalyzerStats diverged: serial %+v != parallel %+v", statS, statP)
	}
}

// transformTrace steps the placement transforms by hand at the given
// worker count and snapshots an analyzer reading after every step —
// wire length, worst slack, and congestion peaks — so transform
// execution and incremental analyzer queries interleave tightly. Under
// -race this exercises the parallel transform paths against the
// analyzers' observer machinery; the returned trace pins determinism.
func transformTrace(t *testing.T, workers int) []float64 {
	t.Helper()
	d := smallDesign(9)
	c := scenario.NewContext(d, 9)
	defer c.Close()
	c.SetWorkers(workers)

	placer := place.New(c.NL, c.Im, c.Seed)
	placer.Workers = c.Workers
	placer.Init()

	var trace []float64
	probe := func() {
		rep := c.Cong.Analyze()
		trace = append(trace, c.St.Total(), c.Eng.WorstSlack(),
			rep.HorizPeak, rep.VertPeak)
	}
	for status := 10; status <= 100; status += 30 {
		placer.Partition(status)
		probe()
		placer.Reflow()
		probe()
	}
	place.Legalize(c.NL, c.ChipW, c.ChipH)
	dopt := place.DefaultDetailedOptions()
	dopt.Workers = c.Workers
	place.DetailedPlace(c.NL, dopt)
	probe()
	return trace
}

// TestTransformAnalyzerInterleaveDeterministic interleaves parallel
// transform execution with incremental analyzer queries and requires the
// full observation trace to be bit-identical between serial and 8-way
// execution. Run with -race to also prove the interleaving is data-race
// free.
func TestTransformAnalyzerInterleaveDeterministic(t *testing.T) {
	serial := transformTrace(t, 1)
	par8 := transformTrace(t, 8)
	if len(serial) != len(par8) {
		t.Fatalf("trace length: serial %d != parallel %d", len(serial), len(par8))
	}
	for i := range serial {
		if serial[i] != par8[i] {
			t.Errorf("trace[%d]: serial %v != parallel %v", i, serial[i], par8[i])
		}
	}
}

// TestSetWorkersClampsAndPropagates checks the knob plumbing: the Steiner
// cache and timing engine must track the context, and n<1 must clamp to
// serial rather than wedging the pool.
func TestSetWorkersClampsAndPropagates(t *testing.T) {
	d := smallDesign(3)
	c := scenario.NewContext(d, 3)
	defer c.Close()
	if c.Workers < 1 || c.St.Workers != c.Workers || c.Eng.Workers != c.Workers {
		t.Fatalf("NewContext workers out of sync: ctx=%d st=%d eng=%d",
			c.Workers, c.St.Workers, c.Eng.Workers)
	}
	c.SetWorkers(0)
	if c.Workers != 1 || c.St.Workers != 1 || c.Eng.Workers != 1 {
		t.Fatalf("SetWorkers(0) did not clamp to serial: ctx=%d st=%d eng=%d",
			c.Workers, c.St.Workers, c.Eng.Workers)
	}
	c.SetWorkers(6)
	if c.Workers != 6 || c.St.Workers != 6 || c.Eng.Workers != 6 {
		t.Fatalf("SetWorkers(6) did not propagate: ctx=%d st=%d eng=%d",
			c.Workers, c.St.Workers, c.Eng.Workers)
	}
}

// TestEvaluateMatchesStandaloneAnalyzers pins Evaluate to the N-way
// analyzer entry points: the congestion report inside a Metrics record
// must equal a direct AnalyzeN call at the same worker count.
func TestEvaluateMatchesStandaloneAnalyzers(t *testing.T) {
	d := smallDesign(4)
	c := scenario.NewContext(d, 4)
	defer c.Close()
	c.SetWorkers(4)
	opt := DefaultTPSOptions()
	opt.TransformBudget = 8
	opt.SkipRouting = true
	runBuiltin(c, TPSScript(opt))

	m := c.Evaluate("probe")
	rep := congestion.AnalyzeN(c.NL, c.St, c.Im, c.Workers)
	if m.HorizPeak != rep.HorizPeak || m.VertPeak != rep.VertPeak ||
		m.HorizAvg != rep.HorizAvg || m.VertAvg != rep.VertAvg {
		t.Fatalf("Evaluate congestion %v/%v %v/%v != AnalyzeN %v/%v %v/%v",
			m.HorizPeak, m.HorizAvg, m.VertPeak, m.VertAvg,
			rep.HorizPeak, rep.HorizAvg, rep.VertPeak, rep.VertAvg)
	}
	if m.SteinerWireUm != c.St.Total() {
		t.Fatalf("Evaluate wire %v != cache total %v", m.SteinerWireUm, c.St.Total())
	}
	// Routing through the N-way entry point on an already-evaluated design
	// must agree with the serial entry point on a fresh demand grid.
	r1 := route.RouteAllN(c.NL, c.St, c.Im, 1)
	r8 := route.RouteAllN(c.NL, c.St, c.Im, 8)
	if r1.TotalLen != r8.TotalLen || r1.Overflows != r8.Overflows {
		t.Fatalf("route serial %v/%d != parallel %v/%d",
			r1.TotalLen, r1.Overflows, r8.TotalLen, r8.Overflows)
	}
}
