package main

import (
	"runtime"
	"time"

	"tps"
)

// stepModule names the module that registers each scenario transform.
// Spans are attributed to these layers; the partition step is its own
// layer (FM bisection plus reflow) apart from the rest of place.
var stepModule = map[string]string{
	"clone": "synth", "buffer": "synth", "pinswap": "synth", "remap": "synth", "electrical": "synth",
	"assign_gains": "sizing", "discretize": "sizing", "discretize_actual": "sizing",
	"size_area": "sizing", "size_speed": "sizing", "infootprint": "sizing",
	"migrate": "migrate",
	"relieve": "relocate", "decongest": "relocate",
	"weight":     "netweight",
	"clocksched": "clockscan", "clock_opt": "clockscan", "scan_opt": "clockscan",
	"partition": "partition",
	"spread":    "place", "sync_placer": "place", "legalize": "place", "detailed": "place",
	"qplace":  "quadratic",
	"route":   "route",
	"congest": "congestion",
}

// moduleOf maps a step to its layer; the engine's own built-in steps
// (mode, evaluate, sync, …) belong to scenario.
func moduleOf(step string) string {
	if m, ok := stepModule[step]; ok {
		return m
	}
	return "scenario"
}

// layer accumulates the spans of one step name.
type layer struct {
	count      int
	selfS      float64
	changes    int
	recomputes int
	rebuilds   int
	allocMB    float64
}

// spanTracer is a tps.Tracer that opens a span at each step_begin and
// closes it at the matching step_end (or reject, for a rolled-back
// protected step). Across each span it diffs Design.Stats() and the Go
// runtime's allocation counter; the snapshots are taken outside the
// timed interval so the span's duration is the transform body's.
type spanTracer struct {
	d *tps.Design

	t0     time.Time
	st0    tps.AnalyzerStats
	alloc0 uint64

	steps map[string]*layer
	nstep int
	skips int
}

func newSpanTracer() *spanTracer { return &spanTracer{steps: map[string]*layer{}} }

// Emit implements tps.Tracer. The engine calls it synchronously from the
// interpreter goroutine, so no locking is needed.
func (t *spanTracer) Emit(e tps.TraceEvent) {
	switch e.Type {
	case "step_begin":
		t.st0 = t.d.Stats()
		t.alloc0 = totalAlloc()
		t.t0 = time.Now()
	case "step_end", "reject":
		dt := time.Since(t.t0).Seconds()
		st := t.d.Stats()
		l := t.steps[e.Step]
		if l == nil {
			l = &layer{}
			t.steps[e.Step] = l
		}
		l.count++
		l.selfS += dt
		l.changes += e.Changed
		l.recomputes += st.TimingRecomputes - t.st0.TimingRecomputes
		l.rebuilds += st.SteinerRebuilds - t.st0.SteinerRebuilds
		l.allocMB += float64(totalAlloc()-t.alloc0) / (1 << 20)
		t.nstep++
	case "step_skip":
		t.skips++
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// module sums the spans of every step that belongs to module m.
func (t *spanTracer) module(m string) layer {
	var sum layer
	for step, l := range t.steps {
		if moduleOf(step) == m {
			sum.count += l.count
			sum.selfS += l.selfS
			sum.changes += l.changes
			sum.recomputes += l.recomputes
			sum.rebuilds += l.rebuilds
			sum.allocMB += l.allocMB
		}
	}
	return sum
}

// selfTimes are the layers whose span self time is reported, as
// metric name → module (or single step, for place's two big steps).
var selfTimes = []struct{ metric, module, step string }{
	{"synth.self_s", "synth", ""},
	{"sizing.self_s", "sizing", ""},
	{"migrate.self_s", "migrate", ""},
	{"relocate.self_s", "relocate", ""},
	{"netweight.self_s", "netweight", ""},
	{"clockscan.self_s", "clockscan", ""},
	{"partition.self_s", "partition", ""},
	{"place.detailed_self_s", "", "detailed"},
	{"place.legalize_self_s", "", "legalize"},
	{"quadratic.self_s", "quadratic", ""},
	{"route.self_s", "route", ""},
	{"congestion.self_s", "congestion", ""},
}

// report sets the flow workloads' per-layer metrics from this tracer's
// spans and the traced flow's final counters.
func (t *spanTracer) report(r *report, fr flowRun) {
	for _, s := range selfTimes {
		var l layer
		if s.step != "" {
			if p := t.steps[s.step]; p != nil {
				l = *p
			}
		} else {
			l = t.module(s.module)
		}
		// A layer the flow never enters has no self time to report.
		if l.count > 0 {
			r.set(s.metric, "s", l.selfS)
		}
	}
	var stepS float64
	for _, l := range t.steps {
		stepS += l.selfS
	}
	r.set("scenario.overhead_s", "s", fr.wall-stepS)
	for name, v := range t.counters(fr) {
		r.set(name, counterUnits(name), v)
	}
	for _, m := range []string{"synth", "partition", "place", "route"} {
		if l := t.module(m); l.count > 0 {
			r.set("go.alloc_mb."+m, "MiB", l.allocMB)
		}
	}
}

// stepCounts lists each step's deterministic span counts for --record.
func (t *spanTracer) stepCounts() map[string][4]int {
	out := map[string][4]int{}
	for step, l := range t.steps {
		out[step] = [4]int{l.count, l.changes, l.recomputes, l.rebuilds}
	}
	return out
}

// counters are the traced flow's deterministic per-layer work counts:
// they repeat exactly for a given seed at any worker count.
func (t *spanTracer) counters(fr flowRun) map[string]float64 {
	st := fr.stats
	c := map[string]float64{
		"timing.recomputes":          float64(st.TimingRecomputes),
		"timing.recomputes_per_gate": float64(st.TimingRecomputes) / float64(fr.gates),
		"synth.changes":              float64(t.module("synth").changes),
		"partition.fm_pushes":        float64(st.FM.Pushes),
		"partition.fm_pops":          float64(st.FM.Pops),
		"partition.fm_gain_updates":  float64(st.FM.GainUpdates),
		"steiner.rebuilds":           float64(st.SteinerRebuilds),
		"congestion.full_passes":     float64(st.CongestionFullPasses),
		"congestion.incr_passes":     float64(st.CongestionIncrementalPasses),
		"scenario.steps":             float64(t.nstep),
		"scenario.skips":             float64(t.skips),
	}
	for _, m := range []string{"synth", "sizing", "relocate", "partition", "place"} {
		c["timing.recomputes."+m] = float64(t.module(m).recomputes)
	}
	// Steiner trees rebuild lazily, when a step queries a dirty net, so
	// the steps that move cells (partition, place) dirty nets and the
	// steps that query them (weight, sizing, synth, congest) pay.
	for _, m := range []string{"partition", "place", "netweight", "sizing", "synth", "congestion"} {
		c["steiner.rebuilds."+m] = float64(t.module(m).rebuilds)
	}
	// Stale pops over all pops; undefined when FM never ran (SPR).
	if st.FM.Pops > 0 {
		c["partition.fm_stale_frac"] = float64(st.FM.StalePops) / float64(st.FM.Pops)
	}
	return c
}

func counterUnits(name string) string {
	switch name {
	case "timing.recomputes_per_gate":
		return "1/gate"
	case "partition.fm_stale_frac":
		return "ratio"
	}
	return "count"
}
