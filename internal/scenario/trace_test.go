package scenario_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"tps/internal/scenario"
)

// recordWriter keeps each Write call as its own entry. It has no lock of
// its own: under -race, a tracer that wrote without serializing would be
// reported.
type recordWriter struct{ writes []string }

func (w *recordWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, string(p))
	return len(p), nil
}

// Two entrants emitting into one TextTracer at once: every Write is one
// whole line, and every line arrives.
func TestTextTracerKeepsLinesWhole(t *testing.T) {
	var w recordWriter
	tr := scenario.NewTextTracer(&w)
	const n = 500
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				tr.Emit(scenario.Event{Type: scenario.EvStepEnd, Entrant: name, Step: "clone", Status: i % 101, Changed: i})
				tr.Emit(scenario.Event{Type: scenario.EvStepBegin, Entrant: name, Step: "clone"}) // no line
			}
		}()
	}
	wg.Wait()
	if len(w.writes) != 2*n {
		t.Fatalf("%d writes, want %d", len(w.writes), 2*n)
	}
	seen := map[string]bool{}
	for _, line := range w.writes {
		if strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
			t.Fatalf("write is not one whole line: %q", line)
		}
		seen[line] = true
	}
	for _, name := range []string{"a", "b"} {
		for i := 0; i < n; i++ {
			line := fmt.Sprintf("%s: status %3d: clone changed=%d 0ms\n", name, i%101, i)
			if !seen[line] {
				t.Fatalf("missing line %q", line)
			}
		}
	}
}

// The engine keys PhaseTimes by step name and counts every executed step,
// accepted or rejected, but never a skipped one.
func TestPhaseTimesKeyedByExecutedSteps(t *testing.T) {
	c := rig(t, 4)
	var w recordWriter
	c.Trace = scenario.NewTextTracer(&w)
	s := mustParse(t, `
scenario phases
set objective wire
init {
  noop_ok protect
  spoil_wire protect tol=0
  probe when mode=actual
}
`)
	if _, err := scenario.Run(c, s); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sortedKeys(c.PhaseTimes), " "); got != "noop_ok spoil_wire" {
		t.Errorf("PhaseTimes keys %q, want \"noop_ok spoil_wire\"", got)
	}
	if len(w.writes) != 2 || !strings.HasPrefix(w.writes[1], "status   0: spoil_wire rejected (regression)") {
		t.Errorf("text trace %q, want a step line and the spoil_wire rejection", w.writes)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
