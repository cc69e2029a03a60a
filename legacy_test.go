package tps

// This file is the pre-scenario-engine flow code, kept verbatim (modulo
// the progress lines and phase timers now reported by the engine, and
// the unused parameters since dropped from DetailedPlace; every analyzer
// read those lines made is kept) as the reference implementation for
// the golden equivalence tests: RunTPS/RunSPR through the scenario
// engine must produce bit-identical Metrics and AnalyzerStats to these
// hand-scheduled loops at every worker count.

import (
	"time"

	"tps/internal/clockscan"
	"tps/internal/delay"
	"tps/internal/migrate"
	"tps/internal/netlist"
	"tps/internal/netweight"
	"tps/internal/place"
	"tps/internal/quadratic"
	"tps/internal/relocate"
	"tps/internal/route"
	"tps/internal/scenario"
	"tps/internal/sizing"
	"tps/internal/synth"
)

func runTPSLegacy(c *scenario.Context, opt TPSOptions) Metrics {
	start := time.Now()
	if opt.Step <= 0 {
		opt.Step = 5
	}
	if opt.DiscretizeAt <= 0 {
		opt.DiscretizeAt = 30
	}

	placer := place.New(c.NL, c.Im, c.Seed)
	placer.Workers = c.Workers
	sched := clockscan.NewScheduler(c.NL, c.Im, c.St)
	weighter := netweight.New(c.NL, c.Eng, opt.WeightMode)
	weighter.UseLogicalEffort = opt.UseLogicalEffort
	weighter.Margin = 0.06 * c.Period
	rel := relocate.New(c.NL, c.Eng, c.Im)
	rel.SlackMargin = 0
	mig := migrate.New(c.NL, c.Eng, c.Im)
	mig.Margin = 0.08 * c.Period
	so := synth.New(c.NL, c.Eng, c.Im, rel)
	so.Margin = 0.08 * c.Period

	// Initialization (Fig. 5): gain-based timing, uniform gains, clock
	// tree and scan chain parked by the §4.5 schedule at status 10.
	c.Eng.SetMode(delay.GainBased)
	sizing.AssignGains(c.NL, 4)

	discretized := false
	status := 0
	budget := opt.TransformBudget
	electricalDone := false

	crossed := func(prev, cur, lo, hi int) bool {
		return prev < hi && cur > lo
	}

	for status < 100 {
		prev := status
		status += opt.Step
		if status > 100 {
			status = 100
		}
		if placer.Status() < status {
			placer.Partition(status)
			if !opt.DisableReflow {
				placer.Reflow()
			}
			c.FM = placer.FMStats()
		}
		bd := c.Im.BinW()
		if c.Im.BinH() > bd {
			bd = c.Im.BinH()
		}
		if bd != c.Calc.BinDim {
			c.Calc.SetBinDim(bd)
			c.Eng.InvalidateAll()
		}
		if !opt.DisableClockScanSchedule {
			sched.OnStatus(status)
		}
		weighter.Apply()

		if !discretized {
			if status >= opt.DiscretizeAt || !opt.VirtualDiscretization {
				sizing.DiscretizeActual(c.NL, c.Calc)
				c.Eng.SetMode(delay.Actual)
				discretized = true
			} else {
				sizing.DiscretizeVirtual(c.NL, c.Calc)
			}
		}

		if crossed(prev, status, 20, 30) {
			sizing.SizeForArea(c.NL, c.Eng, 50, nil)
		}
		if status > 30 && discretized {
			sizing.SizeForSpeed(c.NL, c.Eng, c.Im, 60, budget, nil)
		}
		if crossed(prev, status, 30, 50) && discretized {
			mig.Run()
			so.CloneCritical(budget)
			so.BufferCritical(budget)
		}
		if status > 50 {
			so.PinSwap(budget)
			so.Remap(budget)
			if !electricalDone && discretized {
				so.ElectricalCorrection(c.Calc)
				electricalDone = true
			}
		}
		if status > 80 {
			sizing.SizeForArea(c.NL, c.Eng, 80, nil)
		}
		rel.RelieveAll(0.25)
		placer.SyncImage()

		c.Cong.Analyze()
	}

	placer.SpreadWithinBins()
	c.Calc.SetBinDim(0)
	c.Eng.InvalidateAll()
	if !discretized {
		sizing.DiscretizeActual(c.NL, c.Calc)
		c.Eng.SetMode(delay.Actual)
	}
	dopt := place.DefaultDetailedOptions()
	dopt.Workers = c.Workers
	place.Legalize(c.NL, c.ChipW, c.ChipH)
	place.DetailedPlace(c.NL, dopt)
	syncImageLegacy(c)

	if opt.DisableClockScanSchedule {
		clockscan.OptimizeClock(c.NL, c.Im)
		clockscan.OptimizeScan(c.NL)
		place.Legalize(c.NL, c.ChipW, c.ChipH)
		syncImageLegacy(c)
	}

	{
		sizing.SizeForSpeed(c.NL, c.Eng, c.Im, 0.08*c.Period, 2*budget, nil)
		so.BufferCritical(budget)
		so.CloneCritical(budget)
		so.PinSwap(budget)
		place.Legalize(c.NL, c.ChipW, c.ChipH)
		place.DetailedPlace(c.NL, dopt)
		sizing.InFootprintResize(c.NL, c.Eng, 0.08*c.Period, nil)
		so.PinSwap(budget)
	}

	m := c.Evaluate("TPS")
	if !opt.SkipRouting {
		res := route.RouteAllN(c.NL, c.St, c.Im, c.Workers)
		m.RoutedWireUm = res.TotalLen
		m.RouteOverflows = res.Overflows
		sizing.InFootprintResize(c.NL, c.Eng, 60, nil)
		m.WorstSlack = c.Eng.WorstSlack()
		m.TNS = c.Eng.TNS()
		m.CycleAchieved = c.Period - m.WorstSlack
	}
	m.CPUSeconds = time.Since(start).Seconds()
	m.Iterations = 1
	return m
}

func runSPRLegacy(c *scenario.Context, opt SPROptions) Metrics {
	start := time.Now()
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = 4
	}
	budget := opt.TransformBudget

	rel := relocate.New(c.NL, c.Eng, c.Im)
	so := synth.New(c.NL, c.Eng, c.Im, rel)
	weighter := netweight.New(c.NL, c.Eng, netweight.Absolute)
	weighter.UseLogicalEffort = false

	// --- Stage 1: stand-alone synthesis on wire-load models. ---
	c.Eng.SetMode(delay.WireLoad)
	sizing.AssignGains(c.NL, 4)
	sizing.DiscretizeActual(c.NL, c.Calc)
	sizing.SizeForSpeed(c.NL, c.Eng, c.Im, 60, budget, nil)
	so.BufferCritical(budget)
	so.CloneCritical(budget)
	c.Eng.WorstSlack() // the read SPR's logslack step makes

	// --- Stage 2: stand-alone placement. ---
	weighter.Margin = 100
	weighter.Apply()
	savedW := map[int]float64{}
	c.NL.Nets(func(n *netlist.Net) {
		if n.Kind != netlist.Signal {
			savedW[n.ID] = n.Weight
			c.NL.SetNetWeight(n, 0)
		}
	})
	qopt := quadratic.DefaultOptions()
	qopt.Seed = c.Seed
	qopt.Workers = c.Workers
	quadratic.Place(c.NL, c.ChipW, c.ChipH, qopt)
	for c.Im.Level < c.Im.MaxLevel {
		c.Im.Subdivide()
	}
	place.Legalize(c.NL, c.ChipW, c.ChipH)
	c.NL.Nets(func(n *netlist.Net) {
		if w, ok := savedW[n.ID]; ok {
			c.NL.SetNetWeight(n, w)
		}
	})
	clockscan.OptimizeClock(c.NL, c.Im)
	clockscan.OptimizeScan(c.NL)
	place.Legalize(c.NL, c.ChipW, c.ChipH)
	syncImageLegacy(c)

	// --- Stage 3: measure with real wires; iterate resynthesis. ---
	c.Eng.SetMode(delay.Actual)
	iters := 1
	prev := c.Eng.WorstSlack()
	for it := 0; it < opt.MaxIterations; it++ {
		sizing.SizeForSpeed(c.NL, c.Eng, c.Im, 60, budget, nil)
		so.BufferCritical(budget)
		so.CloneCritical(budget)
		place.Legalize(c.NL, c.ChipW, c.ChipH)
		syncImageLegacy(c)
		iters++
		ws := c.Eng.WorstSlack()
		if ws <= prev+1 {
			prev = ws
			break
		}
		prev = ws
	}
	dopt := place.DefaultDetailedOptions()
	dopt.Workers = c.Workers
	place.DetailedPlace(c.NL, dopt)

	m := c.Evaluate("SPR")
	if !opt.SkipRouting {
		res := route.RouteAllN(c.NL, c.St, c.Im, c.Workers)
		m.RoutedWireUm = res.TotalLen
		m.RouteOverflows = res.Overflows
		sizing.InFootprintResize(c.NL, c.Eng, 60, nil)
		m.WorstSlack = c.Eng.WorstSlack()
		m.TNS = c.Eng.TNS()
		m.CycleAchieved = c.Period - m.WorstSlack
	}
	m.CPUSeconds = time.Since(start).Seconds()
	m.Iterations = iters
	return m
}

func syncImageLegacy(c *scenario.Context) {
	t := c.NL.Lib.Tech
	c.Im.ClearUsage()
	c.NL.Gates(func(g *netlist.Gate) {
		if !g.IsPad() {
			c.Im.Deposit(g.X, g.Y, g.Area(t))
		}
	})
}
