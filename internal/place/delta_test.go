package place

import (
	"math/rand"
	"testing"

	"tps/internal/netlist"
	"tps/internal/steiner"
)

// deltaDesign builds two independent but identical placed designs so the
// delta scorer and the full-rescore reference evaluator can each run
// DetailedPlace from the same starting state.
func deltaDesign(t *testing.T, seed int64) (*netlist.Netlist, float64, float64) {
	t.Helper()
	d, _, p := testDesign(t, 300, seed)
	p.Partition(100)
	p.SpreadWithinBins()
	d.NL.Gates(func(g *netlist.Gate) {
		if !g.Fixed && g.SizeIdx < 0 {
			d.NL.SetSize(g, 0)
		}
	})
	Legalize(d.NL, d.ChipW, d.ChipH)
	return d.NL, d.ChipW, d.ChipH
}

// TestDeltaScoringMatchesFullRescore regenerates the same design twice and
// runs DetailedPlace once with the cached delta scorer and once with the
// fullRescore reference evaluator. Both modes apply the identical
// affected-nets decision rule, so they must accept the same moves and land
// every gate on the same coordinates.
func TestDeltaScoringMatchesFullRescore(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		nlA, w, h := deltaDesign(t, seed)
		nlB, _, _ := deltaDesign(t, seed)

		stA := steiner.NewCache(nlA)
		stB := steiner.NewCache(nlB)
		defer stA.Close()
		defer stB.Close()

		opt := DefaultDetailedOptions()
		accA := DetailedPlace(nlA, stA, w, h, opt)
		opt.fullRescore = true
		accB := DetailedPlace(nlB, stB, w, h, opt)

		if accA != accB {
			t.Errorf("seed %d: delta accepted %d moves, full rescore accepted %d", seed, accA, accB)
		}
		nlA.Gates(func(ga *netlist.Gate) {
			gb := nlB.GateByID(ga.ID)
			if gb == nil {
				t.Fatalf("seed %d: gate %s missing from reference run", seed, ga.Name)
			}
			if ga.X != gb.X || ga.Y != gb.Y {
				t.Errorf("seed %d: gate %s at (%g,%g) delta vs (%g,%g) full",
					seed, ga.Name, ga.X, ga.Y, gb.X, gb.Y)
			}
		})
		if stA.Total() != stB.Total() {
			t.Errorf("seed %d: final WL %v (delta) != %v (full)", seed, stA.Total(), stB.Total())
		}
	}
}

// TestWindowScorerCacheStaysFresh drives a windowScorer through random
// swap/revert churn and checks the cached per-net contributions stay
// bit-identical to fresh recomputation — including after rejected swaps
// whose revert re-pack squeezes inter-cell gaps and shifts positions.
func TestWindowScorerCacheStaysFresh(t *testing.T) {
	nl, _, _ := deltaDesign(t, 5)
	var win []*netlist.Gate
	nl.Gates(func(g *netlist.Gate) {
		if !g.Fixed && !g.IsPad() && len(win) < 12 && (len(win) == 0 || g.Y == win[0].Y) {
			win = append(win, g)
		}
	})
	if len(win) < 4 {
		t.Skip("design row too sparse for a window")
	}
	sc := newWindowScorer(win, DefaultDetailedOptions())
	rng := rand.New(rand.NewSource(17))

	verify := func(ctx string) {
		t.Helper()
		for i := range sc.nets {
			if got, want := sc.contrib[i], sc.netScore(i); got != want {
				t.Fatalf("%s: cached contrib of net %s = %v, fresh = %v",
					ctx, sc.nets[i].Name, got, want)
			}
		}
	}
	verify("initial")

	for step := 0; step < 60; step++ {
		i := rng.Intn(len(win) - 1)
		j := i + 1 + rng.Intn(len(win)-i-1)
		span := win[i : j+1]
		aff := sc.affected(span)
		before := sc.sumBefore(aff)
		sc.savePos(span)
		swapSlots(nl, win, i, j)
		if after := sc.sumAfter(aff); after < before-1e-9 {
			sc.commit(aff)
		} else {
			swapSlots(nl, win, i, j) // revert
			if sc.posChanged(span) {
				sc.refresh(aff)
			}
		}
		verify("after swap")
	}
}
