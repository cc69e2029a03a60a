package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tps"
)

// A hand-written scenario through the -scenario code path: quadratic
// placement, discretization, then a protected relocation pass that
// demands an impossible slack improvement (tol=-1e9) — the robustness
// layer must reject and roll it back, and the flow must still finish
// with a consistent design and metrics.
const guardedScript = `# hand-written scenario: placement + guarded relocation
scenario guarded-demo
set objective slack
set budget 16
init {
  mode m=wireload
  assign_gains gain=4
  discretize_actual setmode=0
  qplace
  subdivide_full
  legalize
  sync
  mode m=actual
  # must improve worst slack by 1e9 ps to be kept - always rejected
  relieve frac=0.25 protect tol=-1e9
  logslack label=after-guard
}
final {
  evaluate flow=demo
}
`

func TestRunScenarioFileWithRejectedStep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "guarded.tps")
	if err := os.WriteFile(path, []byte(guardedScript), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.jsonl")
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}

	d := tps.NewDesign(tps.DesignParams{Name: "cli", NumGates: 300, Levels: 8, Seed: 3})
	defer d.Close()
	d.SetTrace(tps.NewJSONLTracer(tf))

	script, err := resolveScript(".", "", path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := runScript(d, script)
	if err != nil {
		t.Fatalf("scenario run failed: %v", err)
	}
	tf.Close()

	if m.Flow != "demo" || m.ICells == 0 {
		t.Fatalf("bad metrics from scenario: %+v", m)
	}
	ctx := d.Context()
	if ctx.Rejects < 1 {
		t.Fatalf("rejects = %d, want ≥ 1 (the guarded relieve step must be rolled back)", ctx.Rejects)
	}
	if err := d.Netlist().Check(); err != nil {
		t.Fatalf("netlist inconsistent after rollback: %v", err)
	}

	// The JSONL trace must be parseable and must record the rejection.
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sawReject := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e tps.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if e.Type == "reject" && e.Step == "relieve" {
			sawReject = true
		}
	}
	if !sawReject {
		t.Fatal("trace has no reject event for the guarded relieve step")
	}
}

func TestScenarioFileErrors(t *testing.T) {
	d := tps.NewDesign(tps.DesignParams{Name: "cli", NumGates: 100, Levels: 6, Seed: 4})
	defer d.Close()
	if _, err := resolveScript(".", "", filepath.Join(t.TempDir(), "missing.tps")); err == nil {
		t.Error("missing scenario file not reported")
	}
	if _, err := resolveScript(".", "nope", ""); err == nil {
		t.Error("unknown flow not reported")
	}
	if _, err := runScript(d, "scenario x\ninit {\nnot_a_transform\n}\n"); err == nil {
		t.Error("unknown transform not reported at load")
	}
}
