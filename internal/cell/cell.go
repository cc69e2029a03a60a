// Package cell models the standard-cell library and technology parameters
// that TPS transforms consume: logical effort, parasitic delay, input pin
// capacitances, drive resistances, discrete drive strengths sharing a
// footprint, and wire RC constants.
//
// The delay model follows the gain-based formulation of the paper's
// equation (1): the delay of an input→output arc is
//
//	d = p + g·h·τ
//
// where g is the logical effort of the gate type, p its parasitic delay
// (both in units of τ, the technology time constant), and h = Cload/Cin is
// the gain (electrical effort). When a gain is asserted on a gate the delay
// is load-independent; after discretization the same parameters combine with
// actual wire loads through the drive resistance.
package cell

import (
	"fmt"
	"sort"
)

// Dir is a pin direction.
type Dir int

const (
	// Input pins receive a signal.
	Input Dir = iota
	// Output pins drive a net.
	Output
)

func (d Dir) String() string {
	switch d {
	case Input:
		return "input"
	case Output:
		return "output"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// Func identifies the boolean function of a cell. The TPS transforms only
// need identity (for remapping patterns), inversion parity, and sequential
// vs combinational classification.
type Func int

const (
	FuncUnknown Func = iota
	FuncInv
	FuncBuf
	FuncNand2
	FuncNand3
	FuncNand4
	FuncNor2
	FuncNor3
	FuncAnd2
	FuncOr2
	FuncXor2
	FuncXnor2
	FuncAoi21
	FuncOai21
	FuncMux2
	FuncDFF
	FuncClkBuf
	FuncPad // IO pad pseudo-cell: fixed at the periphery
)

var funcNames = map[Func]string{
	FuncUnknown: "unknown",
	FuncInv:     "inv",
	FuncBuf:     "buf",
	FuncNand2:   "nand2",
	FuncNand3:   "nand3",
	FuncNand4:   "nand4",
	FuncNor2:    "nor2",
	FuncNor3:    "nor3",
	FuncAnd2:    "and2",
	FuncOr2:     "or2",
	FuncXor2:    "xor2",
	FuncXnor2:   "xnor2",
	FuncAoi21:   "aoi21",
	FuncOai21:   "oai21",
	FuncMux2:    "mux2",
	FuncDFF:     "dff",
	FuncClkBuf:  "clkbuf",
	FuncPad:     "pad",
}

func (f Func) String() string {
	if s, ok := funcNames[f]; ok {
		return s
	}
	return fmt.Sprintf("Func(%d)", int(f))
}

// Sequential reports whether the function is a storage element.
func (f Func) Sequential() bool { return f == FuncDFF }

// Port describes one formal pin of a cell master.
type Port struct {
	Name string
	Dir  Dir
	// CapX1 is the input pin capacitance in fF at drive strength X1.
	// Scales linearly with drive strength. Zero for outputs.
	CapX1 float64
	// Clock marks the clock pin of sequential cells.
	Clock bool
	// ScanIn / ScanOut mark scan-chain stitching pins of sequential cells.
	ScanIn  bool
	ScanOut bool
	// SwapClass groups logically-equivalent (commutative) input pins:
	// pins with the same nonzero SwapClass may be exchanged by the
	// pin-swapping transform without changing the boolean function.
	SwapClass int
	// Late is the extra arc delay through this input, in units of
	// Tech.Tau (inner transistor positions are slower). Pin swapping
	// moves the latest-arriving signal onto the fastest equivalent pin.
	Late float64
}

// Size is one discrete drive strength of a cell. All sizes of a cell share
// the library row height ("footprint" in the paper's in-footprint sizing
// sense when Width is also equal; the library below keeps widths
// proportional to X, and footprint groups are cells whose widths match).
type Size struct {
	Name string  // e.g. "X1"
	X    float64 // drive multiple; input caps and drive current scale by X
	// Width in µm occupied in a row at this size.
	Width float64
}

// Cell is a library master.
type Cell struct {
	Name     string
	Function Func
	Ports    []Port
	// LogicalEffort g of the worst input→output arc, in the
	// Sutherland–Sproull normalization (inverter = 1).
	LogicalEffort float64
	// Parasitic delay p in units of Tech.Tau.
	Parasitic float64
	// DriveResX1 is the equivalent output drive resistance in Ω at X1.
	// At drive multiple X the resistance is DriveResX1/X.
	DriveResX1 float64
	Sizes      []Size
	// Inverting reports output polarity (used by remapping patterns).
	Inverting bool
}

// InputCap returns the input capacitance (fF) of port index pi at drive
// strength index si.
func (c *Cell) InputCap(pi, si int) float64 {
	return c.Ports[pi].CapX1 * c.Sizes[si].X
}

// Output returns the index of the (single) output port, or -1.
func (c *Cell) Output() int {
	for i, p := range c.Ports {
		if p.Dir == Output {
			return i
		}
	}
	return -1
}

// PortIndex returns the index of the named port, or -1.
func (c *Cell) PortIndex(name string) int {
	for i, p := range c.Ports {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// NumInputs counts input ports.
func (c *Cell) NumInputs() int {
	n := 0
	for _, p := range c.Ports {
		if p.Dir == Input {
			n++
		}
	}
	return n
}

// SizeIndex returns the index of the smallest size with X ≥ x, or the
// largest size if none is big enough.
func (c *Cell) SizeIndex(x float64) int {
	for i, s := range c.Sizes {
		if s.X >= x {
			return i
		}
	}
	return len(c.Sizes) - 1
}

// NearestSizeIndex returns the index of the size whose X is closest to x in
// log space (ratio closest to 1), which is the natural metric for gain.
func (c *Cell) NearestSizeIndex(x float64) int {
	best, bestRatio := 0, 0.0
	for i, s := range c.Sizes {
		r := s.X / x
		if r < 1 {
			r = 1 / r
		}
		if i == 0 || r < bestRatio {
			best, bestRatio = i, r
		}
	}
	return best
}

// Tech holds technology constants shared by all delay and geometry
// calculations.
type Tech struct {
	// Tau is the technology time constant in ps (delay of a fanout-1
	// inverter stage per unit effort).
	Tau float64
	// RwOhmPerUm is wire resistance per µm.
	RwOhmPerUm float64
	// CwFfPerUm is wire capacitance per µm.
	CwFfPerUm float64
	// RowHeight is the standard-cell row height in µm.
	RowHeight float64
	// SiteWidth is the placement site width in µm.
	SiteWidth float64
	// LongWireUm is the length above which the distributed-RC two-moment
	// model replaces the lumped Elmore approximation.
	LongWireUm float64
}

// DefaultTech returns constants resembling a late-1990s 0.25µm process,
// scaled so Ω·fF → ps arithmetic stays in convenient ranges.
func DefaultTech() Tech {
	return Tech{
		Tau:        8.0,
		RwOhmPerUm: 0.12,
		CwFfPerUm:  0.20,
		RowHeight:  6.0,
		SiteWidth:  0.8,
		LongWireUm: 400.0,
	}
}

// Library is a set of cell masters plus technology constants.
type Library struct {
	Tech  Tech
	cells map[string]*Cell
	// byFunc indexes masters by function for remapping and generation.
	byFunc map[Func][]*Cell
	// maxLogicalEffort caches the largest g in the library, used to
	// normalize logical-effort net weights (§4.3).
	maxLogicalEffort float64
}

// NewLibrary returns an empty library with the given technology.
func NewLibrary(t Tech) *Library {
	return &Library{
		Tech:   t,
		cells:  make(map[string]*Cell),
		byFunc: make(map[Func][]*Cell),
	}
}

// Add registers a master. It panics on duplicate names (a library is
// constructed once, programmatically; a duplicate is a programming error).
func (l *Library) Add(c *Cell) {
	if _, dup := l.cells[c.Name]; dup {
		panic("cell: duplicate master " + c.Name)
	}
	if len(c.Sizes) == 0 {
		panic("cell: master " + c.Name + " has no sizes")
	}
	sort.Slice(c.Sizes, func(i, j int) bool { return c.Sizes[i].X < c.Sizes[j].X })
	l.cells[c.Name] = c
	l.byFunc[c.Function] = append(l.byFunc[c.Function], c)
	if c.Function != FuncPad && c.LogicalEffort > l.maxLogicalEffort {
		l.maxLogicalEffort = c.LogicalEffort
	}
}

// Cell returns the named master, or nil.
func (l *Library) Cell(name string) *Cell { return l.cells[name] }

// First returns the first master implementing f, or nil. The default
// library has exactly one master per function.
func (l *Library) First(f Func) *Cell {
	cs := l.byFunc[f]
	if len(cs) == 0 {
		return nil
	}
	return cs[0]
}

// MaxLogicalEffort returns the largest logical effort among non-pad
// masters; it normalizes net weights in Algorithm LogicalEffortNetWeight.
func (l *Library) MaxLogicalEffort() float64 { return l.maxLogicalEffort }

// Names returns all master names in sorted order (deterministic iteration).
func (l *Library) Names() []string {
	names := make([]string, 0, len(l.cells))
	for n := range l.cells {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AnalyzeLogicalEfforts returns name → logical effort for every master,
// mirroring the analyze_library() step of Algorithm LogicalEffortNetWeight.
func (l *Library) AnalyzeLogicalEfforts() map[string]float64 {
	m := make(map[string]float64, len(l.cells))
	for n, c := range l.cells {
		m[n] = c.LogicalEffort
	}
	return m
}

// sizes builds the standard geometric drive-strength ladder for a cell
// whose X1 width is w1 sites.
func sizes(t Tech, w1 float64, xs ...float64) []Size {
	out := make([]Size, len(xs))
	for i, x := range xs {
		out[i] = Size{
			Name:  fmt.Sprintf("X%g", x),
			X:     x,
			Width: t.SiteWidth * w1 * x,
		}
	}
	return out
}

// Default returns the library used throughout the reproduction. Logical
// efforts follow Sutherland–Sproull: inverter 1, NANDk (k+2)/3, NORk
// (2k+1)/3, XOR2 4; parasitics scale with the number of inputs.
func Default() *Library {
	t := DefaultTech()
	l := NewLibrary(t)

	in := func(name string, cap float64, swap int) Port {
		return Port{Name: name, Dir: Input, CapX1: cap, SwapClass: swap}
	}
	// inL marks a slower equivalent input (inner transistor position);
	// pin swapping exploits the asymmetry.
	inL := func(name string, cap float64, swap int, late float64) Port {
		return Port{Name: name, Dir: Input, CapX1: cap, SwapClass: swap, Late: late}
	}
	out := func(name string) Port { return Port{Name: name, Dir: Output} }

	const cin = 4.0 // fF, X1 inverter input cap
	ladder := []float64{1, 2, 4, 8, 16}

	l.Add(&Cell{
		Name: "INV", Function: FuncInv, Inverting: true,
		Ports:         []Port{in("A", cin, 0), out("Z")},
		LogicalEffort: 1.0, Parasitic: 1.0, DriveResX1: 1600,
		Sizes: sizes(t, 2, ladder...),
	})
	l.Add(&Cell{
		Name: "BUF", Function: FuncBuf,
		Ports:         []Port{in("A", cin, 0), out("Z")},
		LogicalEffort: 1.0, Parasitic: 2.0, DriveResX1: 1600,
		Sizes: sizes(t, 3, ladder...),
	})
	l.Add(&Cell{
		Name: "NAND2", Function: FuncNand2, Inverting: true,
		Ports:         []Port{in("A", cin*4/3, 1), inL("B", cin*4/3, 1, 0.3), out("Z")},
		LogicalEffort: 4.0 / 3.0, Parasitic: 2.0, DriveResX1: 1600,
		Sizes: sizes(t, 3, ladder...),
	})
	l.Add(&Cell{
		Name: "NAND3", Function: FuncNand3, Inverting: true,
		Ports:         []Port{in("A", cin*5/3, 1), inL("B", cin*5/3, 1, 0.25), inL("C", cin*5/3, 1, 0.5), out("Z")},
		LogicalEffort: 5.0 / 3.0, Parasitic: 3.0, DriveResX1: 1600,
		Sizes: sizes(t, 4, ladder...),
	})
	l.Add(&Cell{
		Name: "NAND4", Function: FuncNand4, Inverting: true,
		Ports:         []Port{in("A", cin*2, 1), inL("B", cin*2, 1, 0.2), inL("C", cin*2, 1, 0.4), inL("D", cin*2, 1, 0.6), out("Z")},
		LogicalEffort: 2.0, Parasitic: 4.0, DriveResX1: 1600,
		Sizes: sizes(t, 5, ladder...),
	})
	l.Add(&Cell{
		Name: "NOR2", Function: FuncNor2, Inverting: true,
		Ports:         []Port{in("A", cin*5/3, 1), inL("B", cin*5/3, 1, 0.3), out("Z")},
		LogicalEffort: 5.0 / 3.0, Parasitic: 2.0, DriveResX1: 1600,
		Sizes: sizes(t, 3, ladder...),
	})
	l.Add(&Cell{
		Name: "NOR3", Function: FuncNor3, Inverting: true,
		Ports:         []Port{in("A", cin*7/3, 1), inL("B", cin*7/3, 1, 0.25), inL("C", cin*7/3, 1, 0.5), out("Z")},
		LogicalEffort: 7.0 / 3.0, Parasitic: 3.0, DriveResX1: 1600,
		Sizes: sizes(t, 4, ladder...),
	})
	l.Add(&Cell{
		Name: "AND2", Function: FuncAnd2,
		Ports:         []Port{in("A", cin*4/3, 1), inL("B", cin*4/3, 1, 0.3), out("Z")},
		LogicalEffort: 4.0 / 3.0, Parasitic: 3.0, DriveResX1: 1600,
		Sizes: sizes(t, 4, ladder...),
	})
	l.Add(&Cell{
		Name: "OR2", Function: FuncOr2,
		Ports:         []Port{in("A", cin*5/3, 1), inL("B", cin*5/3, 1, 0.3), out("Z")},
		LogicalEffort: 5.0 / 3.0, Parasitic: 3.0, DriveResX1: 1600,
		Sizes: sizes(t, 4, ladder...),
	})
	l.Add(&Cell{
		Name: "XOR2", Function: FuncXor2,
		Ports:         []Port{in("A", cin*4, 1), inL("B", cin*4, 1, 0.3), out("Z")},
		LogicalEffort: 4.0, Parasitic: 4.0, DriveResX1: 1600,
		Sizes: sizes(t, 6, ladder...),
	})
	l.Add(&Cell{
		Name: "XNOR2", Function: FuncXnor2, Inverting: true,
		Ports:         []Port{in("A", cin*4, 1), inL("B", cin*4, 1, 0.3), out("Z")},
		LogicalEffort: 4.0, Parasitic: 4.0, DriveResX1: 1600,
		Sizes: sizes(t, 6, ladder...),
	})
	l.Add(&Cell{
		Name: "AOI21", Function: FuncAoi21, Inverting: true,
		Ports:         []Port{in("A", cin*2, 1), inL("B", cin*2, 1, 0.3), in("C", cin*5/3, 0), out("Z")},
		LogicalEffort: 2.0, Parasitic: 3.0, DriveResX1: 1600,
		Sizes: sizes(t, 4, ladder...),
	})
	l.Add(&Cell{
		Name: "OAI21", Function: FuncOai21, Inverting: true,
		Ports:         []Port{in("A", cin*2, 1), inL("B", cin*2, 1, 0.3), in("C", cin*4/3, 0), out("Z")},
		LogicalEffort: 2.0, Parasitic: 3.0, DriveResX1: 1600,
		Sizes: sizes(t, 4, ladder...),
	})
	l.Add(&Cell{
		Name: "MUX2", Function: FuncMux2,
		Ports:         []Port{in("A", cin*2, 0), in("B", cin*2, 0), in("S", cin*2, 0), out("Z")},
		LogicalEffort: 2.0, Parasitic: 4.0, DriveResX1: 1600,
		Sizes: sizes(t, 5, ladder...),
	})
	l.Add(&Cell{
		Name: "DFF", Function: FuncDFF,
		Ports: []Port{
			in("D", cin*1.5, 0),
			{Name: "CK", Dir: Input, CapX1: cin, Clock: true},
			{Name: "SI", Dir: Input, CapX1: cin, ScanIn: true},
			out("Q"),
		},
		LogicalEffort: 1.5, Parasitic: 6.0, DriveResX1: 1600,
		Sizes: sizes(t, 10, 1, 2, 4),
	})
	// DFF's Q doubles as scan-out; mark it.
	dff := l.Cell("DFF")
	dff.Ports[3].ScanOut = true

	l.Add(&Cell{
		Name: "CLKBUF", Function: FuncClkBuf,
		Ports:         []Port{in("A", cin*2, 0), out("Z")},
		LogicalEffort: 1.0, Parasitic: 2.5, DriveResX1: 800,
		Sizes: sizes(t, 20, 1, 2, 4, 8),
	})
	l.Add(&Cell{
		Name: "PAD", Function: FuncPad,
		Ports: []Port{
			{Name: "I", Dir: Input, CapX1: cin * 4},
			{Name: "O", Dir: Output},
		},
		LogicalEffort: 1.0, Parasitic: 0, DriveResX1: 400,
		Sizes: []Size{{Name: "X1", X: 8, Width: t.SiteWidth * 10}},
	})
	return l
}
