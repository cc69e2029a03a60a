package netlist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tps/internal/cell"
)

// TestDriverCacheMatchesScan is the driver-pin cache property test: under
// randomized interleaved edits (connect, disconnect, pin swaps, gate
// removal/revival), every live net's cached Driver() must equal a fresh
// scan of its pins.
func TestDriverCacheMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := newNL()
		masters := []*cell.Cell{nl.Lib.Cell("INV"), nl.Lib.Cell("NAND2"), nl.Lib.Cell("DFF")}
		var gates []*Gate
		var nets []*Net
		check := func() bool {
			ok := true
			nl.Nets(func(n *Net) {
				if n.Driver() != n.scanDriver() {
					t.Logf("seed %d: net %d cached driver diverged", seed, n.ID)
					ok = false
				}
			})
			return ok
		}
		for op := 0; op < 300; op++ {
			switch rng.Intn(7) {
			case 0:
				gates = append(gates, nl.AddGate("g", masters[rng.Intn(len(masters))]))
			case 1:
				nets = append(nets, nl.AddNet("n"))
			case 2:
				if len(gates) > 0 && len(nets) > 0 {
					g := gates[rng.Intn(len(gates))]
					n := nets[rng.Intn(len(nets))]
					if g.Removed || n.Removed {
						continue
					}
					p := g.Pins[rng.Intn(len(g.Pins))]
					if p.Net == nil && (p.Dir() != cell.Output || n.Driver() == nil) {
						nl.Connect(p, n)
					}
				}
			case 3:
				if len(gates) > 0 {
					if g := gates[rng.Intn(len(gates))]; !g.Removed {
						nl.Disconnect(g.Pins[rng.Intn(len(g.Pins))])
					}
				}
			case 4:
				if len(gates) > 0 && len(nets) > 0 {
					g := gates[rng.Intn(len(gates))]
					n := nets[rng.Intn(len(nets))]
					if g.Removed || n.Removed {
						continue
					}
					p := g.Pins[rng.Intn(len(g.Pins))]
					if p.Net != nil && (p.Dir() != cell.Output || n.Driver() == nil || p.Net == n) {
						nl.MovePin(p, n)
					}
				}
			case 5:
				if len(gates) > 0 && rng.Intn(4) == 0 {
					if g := gates[rng.Intn(len(gates))]; !g.Removed {
						nl.RemoveGate(g)
					}
				}
			case 6:
				if len(gates) > 0 && rng.Intn(4) == 0 {
					if g := gates[rng.Intn(len(gates))]; g.Removed {
						nl.ReviveGate(g)
					}
				}
			}
			if op%25 == 0 && !check() {
				return false
			}
		}
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPinCSRInterleavedEdits fuzzes the lazily rebuilt net→pin CSR against
// the object graph: after random bursts of interleaved edits, the CSR view
// fetched mid-sequence must always match net pin order exactly.
func TestPinCSRInterleavedEdits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := newNL()
		masters := []*cell.Cell{nl.Lib.Cell("INV"), nl.Lib.Cell("NAND2"), nl.Lib.Cell("NOR3")}
		var gates []*Gate
		var nets []*Net
		verify := func() bool {
			off, pins := nl.PinCSR()
			if len(off) != nl.NetCap()+1 {
				t.Logf("seed %d: off len %d != NetCap+1 %d", seed, len(off), nl.NetCap()+1)
				return false
			}
			ok := true
			nl.Nets(func(n *Net) {
				row := pins[off[n.ID]:off[n.ID+1]]
				np := n.Pins()
				if len(row) != len(np) {
					t.Logf("seed %d: net %d row len %d != %d", seed, n.ID, len(row), len(np))
					ok = false
					return
				}
				for i, p := range np {
					if int(row[i]) != p.ID {
						t.Logf("seed %d: net %d row[%d]=%d != %d", seed, n.ID, i, row[i], p.ID)
						ok = false
						return
					}
				}
			})
			return ok
		}
		for burst := 0; burst < 12; burst++ {
			for op := 0; op < 20; op++ {
				switch rng.Intn(6) {
				case 0:
					gates = append(gates, nl.AddGate("g", masters[rng.Intn(len(masters))]))
				case 1:
					nets = append(nets, nl.AddNet("n"))
				case 2, 3:
					if len(gates) > 0 && len(nets) > 0 {
						g := gates[rng.Intn(len(gates))]
						n := nets[rng.Intn(len(nets))]
						if g.Removed || n.Removed {
							continue
						}
						p := g.Pins[rng.Intn(len(g.Pins))]
						if p.Net == nil && (p.Dir() != cell.Output || n.Driver() == nil) {
							nl.Connect(p, n)
						}
					}
				case 4:
					if len(gates) > 0 {
						if g := gates[rng.Intn(len(gates))]; !g.Removed {
							nl.Disconnect(g.Pins[rng.Intn(len(g.Pins))])
						}
					}
				case 5:
					if len(gates) > 0 && rng.Intn(5) == 0 {
						if g := gates[rng.Intn(len(gates))]; !g.Removed {
							nl.RemoveGate(g)
						}
					}
				}
			}
			// Interleave: fetch the CSR mid-sequence (forcing rebuilds keyed
			// on Edits), then keep editing.
			if !verify() {
				return false
			}
		}
		// A fetch with no intervening edits must be the cached view.
		off1, pins1 := nl.PinCSR()
		off2, pins2 := nl.PinCSR()
		if &off1[0] != &off2[0] || (len(pins1) > 0 && &pins1[0] != &pins2[0]) {
			t.Logf("seed %d: CSR rebuilt without an edit", seed)
			return false
		}
		return verify()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
