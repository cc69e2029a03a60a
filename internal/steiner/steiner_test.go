package steiner

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTwoPinTree(t *testing.T) {
	tr := Build([]Point{{0, 0}, {3, 4}})
	if tr.Length != 7 {
		t.Errorf("length = %g, want 7", tr.Length)
	}
	if len(tr.Edges) != 1 || tr.NumPins != 2 {
		t.Errorf("bad topology %+v", tr)
	}
}

func TestSinglePin(t *testing.T) {
	tr := Build([]Point{{5, 5}})
	if tr.Length != 0 || len(tr.Edges) != 0 {
		t.Errorf("single pin tree %+v", tr)
	}
}

func TestEmpty(t *testing.T) {
	tr := Build(nil)
	if tr.Length != 0 {
		t.Errorf("empty tree length %g", tr.Length)
	}
}

// The classic 4-corner case: RSMT uses Steiner points and beats RMST.
func TestSteinerBeatsRMSTOnCross(t *testing.T) {
	pts := []Point{{0, 1}, {2, 1}, {1, 0}, {1, 2}}
	tr := Build(pts)
	// RMST needs 2+2+2=6 or worse; RSMT with Steiner point (1,1) needs 4.
	if tr.Length > 4+1e-9 {
		t.Errorf("cross RSMT length = %g, want 4", tr.Length)
	}
}

// Figure 4 of the paper: three pins where the optimal tree has a trunk.
func TestLShapedThreePin(t *testing.T) {
	pts := []Point{{0, 0}, {10, 0}, {5, 5}}
	tr := Build(pts)
	// Optimal: trunk along y=0 (10) + stub up (5) = 15.
	if tr.Length > 15+1e-9 {
		t.Errorf("3-pin RSMT = %g, want ≤ 15", tr.Length)
	}
	if tr.Length < 15-1e-9 {
		t.Errorf("3-pin RSMT = %g below optimum 15", tr.Length)
	}
}

func TestHPWL(t *testing.T) {
	pts := []Point{{0, 0}, {3, 4}, {1, 1}}
	if got := HPWL(pts); got != 7 {
		t.Errorf("HPWL = %g, want 7", got)
	}
	if HPWL(pts[:1]) != 0 {
		t.Errorf("HPWL of one point must be 0")
	}

	// Signed zeros and infinities in every position must give the same
	// bits as a math.Min/math.Max bounding box. The builtins differ from
	// math.Min/Max in one case: they propagate NaN even next to an
	// opposite infinity, where math.Min(NaN, -Inf) is -Inf. So any NaN
	// coordinate must give a NaN length.
	ref := func(pts []Point) float64 {
		minX, maxX, minY, maxY := pts[0].X, pts[0].X, pts[0].Y, pts[0].Y
		for _, p := range pts[1:] {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
		return (maxX - minX) + (maxY - minY)
	}
	vals := []float64{0, math.Copysign(0, -1), 1, -2.5, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				for _, pts := range [][]Point{{{a, b}, {b, c}}, {{a, c}, {b, a}, {c, b}}} {
					got, want := HPWL(pts), ref(pts)
					if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
						want = math.NaN()
					}
					if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Errorf("HPWL(%v) = %v, want %v", pts, got, want)
					}
				}
			}
		}
	}
}

// Property: HPWL ≤ RSMT ≤ RMST for any point set, and the tree spans all
// pins (connected topology).
func TestSteinerBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{float64(rng.Intn(50)), float64(rng.Intn(50))}
		}
		tr := Build(pts)
		lo, hi := HPWL(pts), mstLength(pts)
		if tr.Length < lo-1e-6 || tr.Length > hi+1e-6 {
			t.Logf("seed %d: RSMT %g outside [HPWL %g, RMST %g]", seed, tr.Length, lo, hi)
			return false
		}
		return connected(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: tree length equals the sum of its edge lengths.
func TestLengthConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 100, rng.Float64() * 100}
		}
		tr := Build(pts)
		var sum float64
		for _, e := range tr.Edges {
			sum += Dist(tr.Nodes[e.U], tr.Nodes[e.V])
		}
		return math.Abs(sum-tr.Length) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func connected(t *Tree) bool {
	if len(t.Nodes) == 0 {
		return true
	}
	adj := t.Adjacency()
	seen := make([]bool, len(t.Nodes))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[u] {
			if !seen[nb.Node] {
				seen[nb.Node] = true
				count++
				stack = append(stack, nb.Node)
			}
		}
	}
	return count == len(t.Nodes)
}

func TestLargeNetUsesRMST(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 40)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	tr := Build(pts)
	if len(tr.Nodes) != 40 {
		t.Errorf("large net should have no Steiner points, got %d nodes", len(tr.Nodes))
	}
	if !connected(tr) {
		t.Error("RMST not connected")
	}
}

func TestCollinearPins(t *testing.T) {
	tr := Build([]Point{{0, 0}, {5, 0}, {10, 0}, {2, 0}})
	if math.Abs(tr.Length-10) > 1e-9 {
		t.Errorf("collinear length = %g, want 10", tr.Length)
	}
}

func TestCoincidentPins(t *testing.T) {
	tr := Build([]Point{{1, 1}, {1, 1}, {1, 1}})
	if tr.Length != 0 {
		t.Errorf("coincident pins length = %g", tr.Length)
	}
	if !connected(tr) {
		t.Error("coincident tree disconnected")
	}
}

func TestAdjacencySymmetry(t *testing.T) {
	tr := Build([]Point{{0, 0}, {10, 0}, {5, 5}, {5, -5}})
	adj := tr.Adjacency()
	deg := 0
	for _, a := range adj {
		deg += len(a)
	}
	if deg != 2*len(tr.Edges) {
		t.Errorf("adjacency degree sum %d != 2×%d edges", deg, len(tr.Edges))
	}
}
