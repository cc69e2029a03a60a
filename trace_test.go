package tps

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestTracersDoNotPerturbResults: a tracer only watches. A TPS run with
// no tracer, with the text tracer and with the JSONL tracer gives the
// same Metrics (wall clock aside) and AnalyzerStats at workers 1 and 2,
// and the engine's PhaseTimes hold exactly the steps the trace shows ran.
func TestTracersDoNotPerturbResults(t *testing.T) {
	type outcome struct {
		m  Metrics
		st AnalyzerStats
	}
	run := func(workers int, tracer func(*bytes.Buffer) Tracer) (outcome, *bytes.Buffer, map[string]time.Duration) {
		d := NewDesign(DesignParams{Name: "gen", NumGates: 2000, Levels: 10, Seed: 3})
		defer d.Close()
		d.SetWorkers(workers)
		var buf bytes.Buffer
		if tracer != nil {
			d.SetTrace(tracer(&buf))
		}
		m := d.RunTPS(DefaultTPSOptions())
		m.CPUSeconds = 0
		return outcome{m, d.Stats()}, &buf, d.PhaseTimes()
	}
	text := func(w *bytes.Buffer) Tracer { return NewTextTracer(w) }
	jsonl := func(w *bytes.Buffer) Tracer { return NewJSONLTracer(w) }

	want, _, _ := run(1, nil)
	for _, workers := range []int{1, 2} {
		if workers != 1 {
			if got, _, _ := run(workers, nil); got != want {
				t.Errorf("workers=%d untraced: %+v, want %+v", workers, got, want)
			}
		}

		got, out, _ := run(workers, text)
		if got != want {
			t.Errorf("workers=%d text tracer: %+v, want %+v", workers, got, want)
		}
		if !strings.Contains(out.String(), "status 100: route changed=") {
			t.Errorf("workers=%d: text trace has no route step line:\n%s", workers, out)
		}

		got, out, phases := run(workers, jsonl)
		if got != want {
			t.Errorf("workers=%d JSONL tracer: %+v, want %+v", workers, got, want)
		}
		ran := map[string]bool{}
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			var e TraceEvent
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
			}
			if e.Type == "step_end" || e.Type == "reject" {
				ran[e.Step] = true
			}
		}
		if a, b := sortedKeys(phases), sortedKeys(ran); strings.Join(a, " ") != strings.Join(b, " ") {
			t.Errorf("workers=%d: PhaseTimes keys %v, want the traced steps %v", workers, a, b)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
