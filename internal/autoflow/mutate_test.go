package autoflow

import (
	"testing"

	"tps/internal/scenario"
)

// FuzzMutate drives mutation chains from fuzzed scripts and seeds and
// checks the operator contract at every step: the child's canonical
// text parses, re-formatting it is a fixpoint (so intern's dedup key is
// stable), and every step still resolves in the transform registry.
func FuzzMutate(f *testing.F) {
	// The built-in TPS and SPR flows seed the corpus from
	// testdata/fuzz/FuzzMutate/{tps,spr}-flow.
	f.Add(baseScript, int64(1), uint8(4))

	spec := testSpec("fuzz")
	mut := newMutator(&spec)
	partner, err := scenario.Parse(baseScript)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, text string, seed int64, n uint8) {
		s, err := scenario.Parse(text)
		if err != nil {
			return // only parseable scripts are in the mutation domain
		}
		// intern mutates canonical scripts only; establish that baseline.
		canon := s.Format()
		cur, err := scenario.Parse(canon)
		if err != nil {
			t.Fatalf("canonical text does not re-parse: %v\n%s", err, canon)
		}
		if cur.Format() != canon {
			t.Fatalf("Format is not a fixpoint on canonical text:\n%s", canon)
		}

		pool := []*scenario.Script{cur, partner}
		steps := int(n%8) + 1
		for i := 0; i < steps; i++ {
			prev := make([]int, len(cur.Blocks))
			for bi := range cur.Blocks {
				prev[bi] = len(cur.Blocks[bi].Steps)
			}
			child, op := mut.mutate(newRNG(seed, int64(i)), cur, pool)
			ctext := child.Format()
			re, err := scenario.Parse(ctext)
			if err != nil {
				t.Fatalf("step %d op %s: mutated script does not parse: %v\n%s", i, op, err, ctext)
			}
			if got := re.Format(); got != ctext {
				t.Fatalf("step %d op %s: canonical round-trip drifted:\n%s\nvs\n%s", i, op, ctext, got)
			}
			for bi, b := range re.Blocks {
				// The grammar allows empty blocks (a fuzzed base may carry
				// one), but deleteStep itself must never create one. Delete
				// preserves the block count, so indexes align with prev.
				if op == "delete" && len(b.Steps) == 0 && prev[bi] > 0 {
					t.Fatalf("step %d: delete emptied block %s", i, b.Label)
				}
				for _, st := range b.Steps {
					if scenario.Lookup(st.Name) == nil {
						t.Fatalf("step %d op %s: unresolved transform %q", i, op, st.Name)
					}
				}
			}
			cur, pool[0] = re, re
		}
	})
}

// TestMutateDeterministic: the same (seed, parent, pool) always breeds
// the same child — the property every per-variant stream relies on.
func TestMutateDeterministic(t *testing.T) {
	spec := testSpec("mdet")
	mut := newMutator(&spec)
	parent, err := scenario.Parse(baseScript)
	if err != nil {
		t.Fatal(err)
	}
	pool := []*scenario.Script{parent}
	for k := int64(0); k < 16; k++ {
		a, opA := mut.mutate(newRNG(11, 0, k), parent, pool)
		b, opB := mut.mutate(newRNG(11, 0, k), parent, pool)
		if opA != opB || a.Format() != b.Format() {
			t.Fatalf("child %d not reproducible: op %s/%s\n%s\nvs\n%s",
				k, opA, opB, a.Format(), b.Format())
		}
	}
}

// TestMutateNeverTouchesFrozen: across many seeds, the measurement
// steps survive every mutation with name and arguments intact.
func TestMutateNeverTouchesFrozen(t *testing.T) {
	spec := testSpec("frozen")
	mut := newMutator(&spec)
	parent, err := scenario.Parse(baseScript)
	if err != nil {
		t.Fatal(err)
	}
	pool := []*scenario.Script{parent}
	for k := int64(0); k < 64; k++ {
		child, _ := mut.mutate(newRNG(5, 0, k), parent, pool)
		found := 0
		for _, b := range child.Blocks {
			for _, st := range b.Steps {
				if st.Name == "evaluate" {
					found++
					if st.Args["flow"] != "af" {
						t.Fatalf("seed %d: frozen evaluate args mutated: %v", k, st.Args)
					}
				}
			}
		}
		if found != 1 {
			t.Fatalf("seed %d: evaluate step count %d, want 1", k, found)
		}
	}
}
