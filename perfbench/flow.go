package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tps"
)

// flowParams is the generated design of both flow workloads: the same
// netlist `tpsflow -gates 10000 -levels 14 -seed <seed>` builds.
func flowParams(seed int64) tps.DesignParams {
	return tps.DesignParams{Name: "gen", NumGates: 10000, Levels: 14, Seed: seed}
}

// setupReps is how many extra NewDesign calls a run times on top of the
// one each flow needs, so setup_s is a median of several samples.
const setupReps = 40

// flowRun is one flow's outcome.
type flowRun struct {
	setup   float64 // NewDesign wall seconds
	wall    float64 // flow wall seconds
	cpu     float64 // process user+sys seconds during the flow
	allocMB float64 // Go heap bytes allocated during the flow, in MiB
	gcs     float64 // GC cycles during the flow
	gates   int     // gate count before the flow
	m       tps.Metrics
	stats   tps.AnalyzerStats
}

// runFlow generates the design, runs one TPS (or SPR) flow on it with
// Workers = nproc, and checks the result. tr, when non-nil, is attached
// as the design's tracer. A panic, an illegal placement, or a non-finite
// result is returned as an error.
func runFlow(seed int64, spr bool, tr *spanTracer) (fr flowRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("flow panicked: %v", p)
		}
	}()
	runtime.GC()
	t0 := time.Now()
	d := tps.NewDesign(flowParams(seed))
	fr.setup = time.Since(t0).Seconds()
	defer d.Close()
	d.SetWorkers(runtime.NumCPU())
	fr.gates = d.Netlist().NumGates()
	if tr != nil {
		tr.d = d
		d.SetTrace(tr)
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t1 := time.Now()
	if spr {
		fr.m = d.RunSPR(tps.DefaultSPROptions())
	} else {
		fr.m = d.RunTPS(tps.DefaultTPSOptions())
	}
	fr.wall = time.Since(t1).Seconds()
	fr.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	fr.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	fr.gcs = float64(ms1.NumGC - ms0.NumGC)
	fr.stats = d.Stats()

	if err := d.CheckLegal(); err != nil {
		return fr, fmt.Errorf("placement is not legal: %w", err)
	}
	for name, v := range qor(fr.m) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fr, fmt.Errorf("metric %s is not finite (%v)", name, v)
		}
	}
	return fr, nil
}

// qor is the flow's quality of result, reported per layer as qor.<key>.
func qor(m tps.Metrics) map[string]float64 {
	return map[string]float64{
		"wns_ps":          m.WorstSlack,
		"tns_ps":          m.TNS,
		"steiner_wire_um": m.SteinerWireUm,
		"route_overflows": float64(m.RouteOverflows),
		"area_um2":        m.AreaUm2,
	}
}

var qorUnits = map[string]string{
	"wns_ps": "ps", "tns_ps": "ps", "steiner_wire_um": "um",
	"route_overflows": "count", "area_um2": "um2",
}

// deterministic is everything about a flow that must repeat exactly:
// the full Metrics record except its wall clock, and the analyzer and
// FM counters.
func deterministic(fr flowRun) string {
	return deterministicMetrics(fr.m) + fmt.Sprintf(" %+v", fr.stats)
}

// runFlowWorkload runs tps-gen12k or spr-gen12k. Untraced, it repeats
// the flow until the time budget is spent and reports medians; traced,
// it alternates untraced and traced flows and reports the layer metrics.
func runFlowWorkload(o options, r *report, spr bool) error {
	// Warm up for a second untimed: the first NewDesign calls of a fresh
	// process run measurably slower than the ones after them.
	for t0 := time.Now(); time.Since(t0) < time.Second; {
		tps.NewDesign(flowParams(o.seed)).Close()
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		d := tps.NewDesign(flowParams(o.seed))
		setups = append(setups, time.Since(t0).Seconds())
		d.Close()
	}

	var plain, traced []flowRun
	var tracers []*spanTracer
	var want string
	check := func(fr flowRun, err error) bool {
		r.Attempted++
		if err != nil {
			r.fail("%v", err)
			return false
		}
		if want == "" {
			want = deterministic(fr)
		} else if got := deterministic(fr); got != want {
			r.fail("flow is not deterministic:\n  first %s\n  now   %s", want, got)
			return false
		}
		setups = append(setups, fr.setup)
		fmt.Fprintf(os.Stderr, "perfbench: flow %d: wall %.3f s, cpu %.3f s\n", r.Attempted, fr.wall, fr.cpu)
		return true
	}

	// Flows repeat until the next one would overrun the budget: at 30 s,
	// one TPS flow or four SPR flows. Back-to-back flows agree within
	// about a tenth; runs minutes apart differ by more, with the load on
	// the shared host, so a second TPS flow would double the run for
	// little steadiness.
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for len(plain) == 0 || time.Since(start)+roundTime(plain, traced) <= budget {
		fr, err := runFlow(o.seed, spr, nil)
		if check(fr, err) {
			plain = append(plain, fr)
		}
		if o.trace {
			tr := newSpanTracer()
			fr, err := runFlow(o.seed, spr, tr)
			if check(fr, err) {
				traced = append(traced, fr)
				tracers = append(tracers, tr)
			}
		}
		if r.Failed > 0 {
			break
		}
	}
	if len(plain) == 0 || (o.trace && len(traced) == 0) {
		return nil
	}

	first := plain[0]
	rec := map[string]any{"gates": first.gates}
	for k, v := range qor(first.m) {
		rec[k] = v
	}
	r.record["qor"] = rec
	r.record["stats"] = first.stats

	if !o.trace {
		r.set("setup_s", "s", median(setups))
		r.set("latency_s", "s", median(pick(plain, func(f flowRun) float64 { return f.wall })))
		r.set("cpu_s", "s", median(pick(plain, func(f flowRun) float64 { return f.cpu })))
		r.set("peak_rss_mb", "MiB", peakRSSMB())
		return nil
	}
	for k, v := range qor(first.m) {
		r.set("qor."+k, qorUnits[k], v)
	}

	setupLayers(r, o.seed, median(setups))
	tracers[0].report(r, traced[0])
	r.record["layers"] = tracers[0].counters(traced[0])
	r.record["steps"] = tracers[0].stepCounts()
	r.set("go.alloc_mb", "MiB", median(pick(traced, func(f flowRun) float64 { return f.allocMB })))
	r.set("go.gc_cycles", "count", median(pick(traced, func(f flowRun) float64 { return f.gcs })))
	r.set("trace.overhead_frac", "ratio",
		median(pick(traced, func(f flowRun) float64 { return f.wall }))/
			median(pick(plain, func(f flowRun) float64 { return f.wall }))-1)
	return nil
}

// roundTime estimates the next loop iteration's duration from the mean
// flow time so far.
func roundTime(plain, traced []flowRun) time.Duration {
	var sum float64
	for _, f := range plain {
		sum += f.wall + f.setup
	}
	est := sum / float64(len(plain))
	if len(traced) > 0 {
		est *= 2
	}
	return time.Duration(est * float64(time.Second))
}

// attachPairs is how many parse-only / parse-and-attach loads setupLayers
// times.
const attachPairs = 60

// setupLayers splits the NewDesign time into generation and analyzer
// attachment through the public facade: tps.Load of the design's .tpn
// text parses and attaches, and the same text without its period line
// parses and is then refused before attaching.
func setupLayers(r *report, seed int64, setup float64) {
	d := tps.NewDesign(flowParams(seed))
	var buf bytes.Buffer
	err := d.Save(&buf)
	d.Close()
	if err != nil {
		r.fail("save design: %v", err)
		return
	}
	text := buf.String()
	var noPeriod strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if !strings.HasPrefix(line, "period ") {
			noPeriod.WriteString(line)
		}
	}
	// Attaching costs about a millisecond against some 20 ms of parsing,
	// well inside the jitter of one parse, so attach is the mean of many
	// back-to-back differences rather than a difference of two medians.
	var parse []float64
	var attach float64
	for i := 0; i < attachPairs; i++ {
		runtime.GC()
		t0 := time.Now()
		_, err := tps.Load(strings.NewReader(noPeriod.String()))
		p := time.Since(t0).Seconds()
		if err == nil {
			r.fail("a netlist without a period constraint was accepted")
			return
		}
		runtime.GC()
		t0 = time.Now()
		ld, err := tps.Load(strings.NewReader(text))
		l := time.Since(t0).Seconds()
		if err != nil {
			r.fail("reload saved design: %v", err)
			return
		}
		ld.Close()
		parse = append(parse, p)
		attach += (l - p) / attachPairs
	}
	r.set("netio.parse_s", "s", median(parse))
	r.set("scenario.attach_s", "s", attach)
	r.set("gen.generate_s", "s", setup-attach)
}

func pick(fs []flowRun, f func(flowRun) float64) []float64 {
	out := make([]float64, len(fs))
	for i, fr := range fs {
		out[i] = f(fr)
	}
	return out
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
