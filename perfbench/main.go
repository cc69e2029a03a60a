// Command perfbench is the repository's benchmark. It drives the TPS
// system only through its public entry points — the tps facade for the
// placement flows and the tpsd binary over loopback HTTP for the job
// service — measures one workload for a fixed wall-clock budget, checks
// every output, and prints one JSON result object as the last line of
// standard output.
//
// Usage (normally through run.sh, which builds this binary and tpsd):
//
//	perfbench --workload tps-gen12k --seed 3 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced runs; --trace 1
// runs the same workload with benchmark-side spans and reports the
// per-layer metrics. See README.md for the workloads and metric
// definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's outcome: operations attempted and failed,
// and the metrics to print.
type report struct {
	result
	// record holds the run's deterministic outputs (quality-of-result
	// metrics and work counters) for --record; selfcheck.py compares
	// two records exactly.
	record map[string]any
}

func newReport() *report {
	return &report{
		result: result{Metrics: map[string]metric{}},
		record: map[string]any{},
	}
}

// set records a metric. A non-finite value is an output error: it is
// counted as a failed operation and the metric is left out.
func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not finite (%v)", name, v)
		return
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and says why on stderr.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tpsd     string
	record   string
	manifest string
}

var workloads = map[string]func(options, *report) error{
	"tps-gen12k": func(o options, r *report) error { return runFlowWorkload(o, r, false) },
	"spr-gen12k": func(o options, r *report) error { return runFlowWorkload(o, r, true) },
	"tpsd-mix":   runTpsdMix,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: tps-gen12k, spr-gen12k, tpsd-mix")
	flag.Int64Var(&o.seed, "seed", 3, "workload seed: picks the generated designs")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	flag.StringVar(&o.tpsd, "tpsd", ".bench_build/tpsd", "path to the built tpsd binary")
	flag.StringVar(&o.record, "record", "", "also write the run's deterministic outputs as JSON to this file")
	flag.StringVar(&o.manifest, "manifest", "BENCHMARK.json", "the benchmark manifest that declares every metric")
	flag.Parse()
	o.trace = trace == 1

	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	// A hung flow or server must not hang the benchmark: give up, without
	// a result, well inside the 180 s a run may take.
	// Exiting also kills tpsd (see startServer).
	time.AfterFunc(time.Duration(o.seconds+140)*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run did not finish in time")
		os.Exit(1)
	})

	declared, err := readManifest(o.manifest, o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	r := newReport()
	if err := run(o, r); err != nil {
		// A workload that cannot run at all (missing binary, server that
		// never came up) prints no result.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.conform(declared, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	printTable(r)
	if o.record != "" {
		b, err := json.MarshalIndent(r.record, "", "  ")
		if err == nil {
			err = os.WriteFile(o.record, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: record:", err)
			os.Exit(1)
		}
	}
	b, err := json.Marshal(r.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// readManifest returns the metrics the manifest declares for this kind
// of run, name → unit: the end_to_end list for an untraced run, the
// per_layer list for a traced one.
func readManifest(path string, trace bool) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type decl struct{ Name, Unit string }
	var m struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := m.EndToEnd
	if trace {
		list = m.PerLayer
	}
	out := map[string]string{}
	for _, d := range list {
		out[d.Name] = d.Unit
	}
	return out, nil
}

// conform holds the run's metrics to the manifest. Every metric must be
// declared, with its declared unit. An untraced run must report every
// end-to-end metric unless an operation failed. A traced run reports
// every per-layer metric; a layer the workload never enters reads 0.
func (r *report) conform(declared map[string]string, trace bool) error {
	for name, m := range r.Metrics {
		unit, ok := declared[name]
		if !ok {
			return fmt.Errorf("metric %s is not declared in the manifest", name)
		}
		if unit != m.Unit {
			return fmt.Errorf("metric %s has unit %s, the manifest says %s", name, m.Unit, unit)
		}
	}
	var absent []string
	for name, unit := range declared {
		if _, ok := r.Metrics[name]; ok {
			continue
		}
		if !trace {
			if r.Failed == 0 {
				return fmt.Errorf("end-to-end metric %s was not measured", name)
			}
			continue
		}
		absent = append(absent, name)
		r.Metrics[name] = metric{Value: 0, Unit: unit}
	}
	if len(absent) > 0 {
		sort.Strings(absent)
		fmt.Fprintf(os.Stderr, "perfbench: layers this workload does not enter, reported as 0: %s\n", strings.Join(absent, " "))
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable lists every metric by name with its unit on stderr.
func printTable(r *report) {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or NaN when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
