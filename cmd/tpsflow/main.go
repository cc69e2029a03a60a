// Tpsflow runs the TPS or SPR flow on a design — either a generated
// synthetic one or a .tpn netlist — and prints the closure metrics. With
// -submit it instead ships the design and scenario to a running tpsd
// server and streams the job's trace.
//
// Usage:
//
//	tpsflow -flow tps -gates 2000 -levels 12 -seed 1 [-v]
//	tpsflow -flow spr -in design.tpn
//	tpsflow -flow tps -gates 2000 -out placed.tpn
//	tpsflow -flow tps -des 3 -scale 1.0 -workers 8 -cpuprofile cpu.pprof
//	tpsflow -scenario custom.tps -gates 2000 -trace run.jsonl
//	tpsflow -portfolio examples/portfolio/quad.race -gates 2000 -out best.tpn
//	tpsflow -autotune examples/autoflow/quick.at -gates 2000 -out tuned.tpn
//	tpsflow -submit http://localhost:8077 -scenario custom.tps -gates 2000
//	tpsflow -submit http://localhost:8077 -portfolio examples/portfolio/quad.race
//	tpsflow -submit http://localhost:8077 -autotune examples/autoflow/quick.at
//	tpsflow -list-transforms
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"tps"
	"tps/internal/serve"
)

// main is the only place that may exit the process: every other path
// returns an error, so deferred cleanups (trace files, profiles, the
// design context) always run.
func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tpsflow:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	flow := fs.String("flow", "tps", "flow to run: tps or spr")
	in := fs.String("in", "", "input .tpn netlist (omit to generate)")
	out := fs.String("out", "", "write the final design as .tpn")
	gates := fs.Int("gates", 2000, "generated design: combinational gate count")
	levels := fs.Int("levels", 12, "generated design: logic depth")
	seed := fs.Int64("seed", 1, "generator / flow seed")
	des := fs.Int("des", 0, "use Table 1 design Des<n> (1–5) instead of -gates")
	scale := fs.Float64("scale", 0.1, "scale factor for -des designs")
	workers := fs.Int("workers", 0, "analyzer/transform fan-out width (0 = GOMAXPROCS; metrics are bit-identical at any width)")
	compare := fs.Bool("compare", false, "rerun the flow at workers=1 on an identical design and print per-transform speedups (generated designs only)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the flow to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-flow) to this file")
	scenarioFile := fs.String("scenario", "", "run this scenario script instead of the built-in flows")
	portfolioFile := fs.String("portfolio", "", "race a portfolio of scenario entrants from this spec file (see examples/portfolio)")
	autotuneFile := fs.String("autotune", "", "search the scenario space from this autotune spec file (see examples/autoflow)")
	traceFile := fs.String("trace", "", "write the engine's structured trace as JSONL to this file")
	listTransforms := fs.Bool("list-transforms", false, "list the registered transforms and exit")
	submit := fs.String("submit", "", "submit to a tpsd server at this base URL instead of running locally")
	verbose := fs.Bool("v", false, "print flow progress (one line per step) to stderr")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse

	if *listTransforms {
		for _, tr := range tps.ListTransforms() {
			kind := ""
			if tr.Structural {
				kind = " [structural]"
			}
			fmt.Printf("%-18s %-14s %s%s\n", tr.Name, tr.Window, tr.Doc, kind)
			for _, d := range tr.Params {
				fmt.Printf("%-18s   tunable %s\n", "", d)
			}
		}
		return nil
	}

	makeDesign := func() (*tps.Design, error) {
		switch {
		case *in != "":
			f, err := os.Open(*in)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return tps.Load(f)
		case *des >= 1 && *des <= 5:
			p := tps.Table1Params(*des, *scale)
			p.Seed = *seed
			return tps.NewDesign(p), nil
		default:
			return tps.NewDesign(tps.DesignParams{
				Name: "gen", NumGates: *gates, Levels: *levels, Seed: *seed,
			}), nil
		}
	}

	if *portfolioFile != "" {
		spec, err := readSpec(*portfolioFile, tps.ParseRaceSpec)
		if err != nil {
			return err
		}
		if *workers > 0 {
			spec.Workers = *workers
		}
		if *submit != "" {
			return submitJob(*submit, makeDesign, raceRequest(spec, *workers))
		}
		return runPortfolio(makeDesign, spec, *traceFile, *out, *verbose)
	}

	if *autotuneFile != "" {
		spec, err := readSpec(*autotuneFile, tps.ParseAutotuneSpec)
		if err != nil {
			return err
		}
		if *workers > 0 {
			spec.Workers = *workers
		}
		if spec.Seed == 0 {
			spec.Seed = *seed
		}
		if *submit != "" {
			return submitJob(*submit, makeDesign, autotuneRequest(spec, *workers))
		}
		return runAutotune(makeDesign, spec, *traceFile, *out, *verbose)
	}

	script, err := resolveScript(".", *flow, *scenarioFile)
	if err != nil {
		return err
	}
	if *submit != "" {
		return submitJob(*submit, makeDesign, serve.SubmitRequest{
			Scenario: script, Workers: *workers, Seed: *seed,
		})
	}

	d, err := makeDesign()
	if err != nil {
		return err
	}
	defer d.Close()
	if *workers > 0 {
		d.SetWorkers(*workers)
	}
	printDesign(d)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var m tps.Metrics
	err = traced(*traceFile, *verbose, d.SetTrace, func() (err error) {
		m, err = runScript(d, script)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-4s slack=%.0fps cycle=%.0fps area=%.0fµm² icells=%d\n",
		m.Flow, m.WorstSlack, m.CycleAchieved, m.AreaUm2, m.ICells)
	fmt.Printf("     wire: steiner=%.0fµm routed=%.0fµm overflows=%d\n",
		m.SteinerWireUm, m.RoutedWireUm, m.RouteOverflows)
	fmt.Printf("     congestion: Horiz %.0f/%.0f Vert %.0f/%.0f (pk/avg wires cut)\n",
		m.HorizPeak, m.HorizAvg, m.VertPeak, m.VertAvg)
	fmt.Printf("     cpu=%.1fs iterations=%d\n", m.CPUSeconds, m.Iterations)
	if ctx := d.Context(); ctx.Accepts+ctx.Rejects > 0 {
		fmt.Printf("     protected steps: %d accepted, %d rejected\n", ctx.Accepts, ctx.Rejects)
	}
	st := d.Stats()
	fmt.Printf("     analyzers: steiner rebuilds=%d, congestion passes full=%d incremental=%d, timing recomputes=%d\n",
		st.SteinerRebuilds, st.CongestionFullPasses, st.CongestionIncrementalPasses, st.TimingRecomputes)
	if st.FM.Pops > 0 {
		fmt.Printf("     fm: pushes=%d pops=%d stale=%.1f%% updates=%d compactions=%d\n",
			st.FM.Pushes, st.FM.Pops, 100*float64(st.FM.StalePops)/float64(st.FM.Pops),
			st.FM.GainUpdates, st.FM.Compactions)
	}
	printPhases(d.PhaseTimes(), nil)

	if *compare {
		ref, err := makeDesign()
		if err != nil {
			return err
		}
		defer ref.Close()
		ref.SetWorkers(1)
		mr, err := runScript(ref, script)
		if err != nil {
			return err
		}
		same := m.WorstSlack == mr.WorstSlack && m.TNS == mr.TNS &&
			m.SteinerWireUm == mr.SteinerWireUm && m.AreaUm2 == mr.AreaUm2 &&
			m.RoutedWireUm == mr.RoutedWireUm && m.RouteOverflows == mr.RouteOverflows
		stSame := d.Stats() == ref.Stats()
		fmt.Printf("     compare vs workers=1: metrics identical=%v analyzer+fm stats identical=%v\n", same, stSame)
		same = same && stSame
		printPhases(d.PhaseTimes(), ref.PhaseTimes())
		if mr.CPUSeconds > 0 {
			fmt.Printf("     speedup: %.2fx end-to-end (%.1fs → %.1fs)\n",
				mr.CPUSeconds/m.CPUSeconds, mr.CPUSeconds, m.CPUSeconds)
		}
		if !same {
			return fmt.Errorf("metrics or analyzer stats diverged between worker counts")
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := d.Save(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

// printPhases prints per-transform wall clock, and speedups against a
// reference (serial) run when ref is non-nil.
func printPhases(pt, ref map[string]time.Duration) {
	if len(pt) == 0 {
		return
	}
	names := make([]string, 0, len(pt))
	for n := range pt {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return pt[names[i]] > pt[names[j]] })
	fmt.Printf("     transforms:")
	for _, n := range names {
		fmt.Printf(" %s=%.2fs", n, pt[n].Seconds())
		if ref != nil && pt[n] > 0 {
			fmt.Printf("(%.2fx)", ref[n].Seconds()/pt[n].Seconds())
		}
	}
	fmt.Println()
}

// printDesign prints the one-line design header every local run starts
// with.
func printDesign(d *tps.Design) {
	w, h := d.Chip()
	fmt.Printf("design %s: %d gates, %d nets, die %.0f×%.0f µm, period %.0f ps\n",
		d.Netlist().Name, d.Netlist().NumGates(), d.Netlist().NumNets(), w, h, d.Period())
}

// resolveScript turns a flow reference into scenario script text: a
// script path (relative paths resolve against dir) is read verbatim,
// otherwise flow names a built-in flow, rendered as the same script
// RunTPS and RunSPR parse. The -scenario/-flow flags and the flow= and
// script= references of -portfolio and -autotune specs all resolve here.
func resolveScript(dir, flow, script string) (string, error) {
	if script != "" {
		if !filepath.IsAbs(script) {
			script = filepath.Join(dir, script)
		}
		b, err := os.ReadFile(script)
		return string(b), err
	}
	switch flow {
	case "tps":
		return tps.TPSScript(tps.DefaultTPSOptions()), nil
	case "spr":
		return tps.SPRScript(tps.DefaultSPROptions()), nil
	}
	return "", fmt.Errorf("unknown flow %q (want tps or spr)", flow)
}

// readSpec reads a -portfolio or -autotune spec file and parses it,
// resolving the spec's script paths relative to the spec file's
// directory so a spec can travel with its scripts.
func readSpec[T any](path string, parse func(text string, resolve func(flow, script string) (string, error)) (T, error)) (T, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		var zero T
		return zero, err
	}
	dir := filepath.Dir(path)
	return parse(string(b), func(flow, script string) (string, error) {
		return resolveScript(dir, flow, script)
	})
}

// runScript parses script text and runs it on d. A parsed script carries
// per-run state, so every run parses afresh.
func runScript(d *tps.Design, script string) (tps.Metrics, error) {
	s, err := tps.ParseScenario(script)
	if err != nil {
		return tps.Metrics{}, err
	}
	return d.RunScenario(s)
}

// traced runs body with the -v progress lines and the -trace file
// attached as asked, then appends the tool-level terminal flow_end
// record, carrying body's error, so every trace file tpsflow writes
// closes the same way whatever ran.
func traced(path string, verbose bool, attach func(tps.Tracer), body func() error) error {
	var sinks fanout
	if verbose {
		sinks = append(sinks, tps.NewTextTracer(os.Stderr))
	}
	var f *os.File
	if path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
		sinks = append(sinks, tps.NewJSONLTracer(f))
	}
	if len(sinks) == 0 {
		return body()
	}
	attach(sinks)
	err := body()
	if f == nil {
		return err
	}
	end := tps.TraceEvent{Type: tps.EvFlowEnd}
	if err != nil {
		end.Err = err.Error()
	}
	sinks.Emit(end)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// fanout feeds every event to each of its tracers in turn.
type fanout []tps.Tracer

func (f fanout) Emit(e tps.TraceEvent) {
	for _, t := range f {
		t.Emit(e)
	}
}

// writeWinner writes a race or search winner's design to the -out file.
func writeWinner(out, design, name string) error {
	if out == "" {
		return nil
	}
	if err := os.WriteFile(out, []byte(design), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (winner %s)\n", out, name)
	return nil
}
