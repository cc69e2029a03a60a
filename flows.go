package tps

// The two built-in flows: the TPS scenario of Figure 5 and the
// traditional synthesis–place–resynthesize (SPR) baseline that Table 1
// compares against. Both are ordinary scenario scripts — TPSScript and
// SPRScript render them as text, and Design.RunTPS/RunSPR execute that
// text through the scenario engine.

import (
	"fmt"
	"strings"

	"tps/internal/netweight"
	"tps/internal/scenario"
)

// TPSOptions tunes the Figure 5 scenario.
type TPSOptions struct {
	// Step is the status advance per loop iteration (§5: "placement
	// advance in steps of a specified number", default 5).
	Step int
	// DiscretizeAt is the cut status T of Algorithm PlacementDisc where
	// virtual discretization becomes actual and timing switches to real
	// wire loads.
	DiscretizeAt int
	// WeightMode selects absolute or incremental net weighting (§4.3).
	WeightMode netweight.Mode
	// UseLogicalEffort toggles the g/gmax weight scaling (E7 ablation).
	UseLogicalEffort bool
	// DisableReflow skips the Reflow transform (E6 ablation).
	DisableReflow bool
	// VirtualDiscretization disables the virtual phase when false,
	// discretizing actually from the first cut (E8 ablation).
	VirtualDiscretization bool
	// TransformBudget caps accepted changes per transform invocation
	// (0 = unlimited).
	TransformBudget int
	// SkipRouting skips the final global route (faster tests).
	SkipRouting bool
	// DisableClockScanSchedule runs clock and scan optimization the
	// traditional way — once, after placement — instead of through the
	// §4.5 weight/size schedule (E9 ablation).
	DisableClockScanSchedule bool
}

// DefaultTPSOptions mirrors the paper's scenario.
func DefaultTPSOptions() TPSOptions {
	return TPSOptions{
		Step:                  5,
		DiscretizeAt:          30,
		WeightMode:            netweight.Incremental,
		UseLogicalEffort:      true,
		VirtualDiscretization: true,
		TransformBudget:       64,
	}
}

// TPSScript renders the Figure 5 flow as a scenario script. The step
// sequence is an exact transcription of the historical hand-scheduled
// loop, so running it through the engine reproduces that loop's metrics
// and analyzer counters bit for bit.
func TPSScript(opt TPSOptions) string {
	if opt.Step <= 0 {
		opt.Step = 5
	}
	if opt.DiscretizeAt <= 0 {
		opt.DiscretizeAt = 30
	}
	wm := "incremental"
	if opt.WeightMode == netweight.Absolute {
		wm = "absolute"
	}
	var b strings.Builder
	w := func(format string, args ...interface{}) { fmt.Fprintf(&b, format+"\n", args...) }
	w("# Figure 5: the TPS scenario (generated by tps.TPSScript)")
	w("scenario TPS")
	w("set step %d", opt.Step)
	w("set budget %d", opt.TransformBudget)
	w("set weight_mode %s", wm)
	w("set weight_le %s", boolArg(opt.UseLogicalEffort))
	w("set weight_marginfrac 0.06")
	w("set synth_marginfrac 0.08")
	w("set migrate_marginfrac 0.08")
	w("init {")
	w("  mode m=gain")
	w("  assign_gains gain=4")
	w("}")
	w("status {")
	w("  partition reflow=%s", boolArg(!opt.DisableReflow))
	w("  trackbin")
	if !opt.DisableClockScanSchedule {
		w("  clocksched")
	}
	w("  weight")
	w("  discretize cut=%d virtual=%s", opt.DiscretizeAt, boolArg(opt.VirtualDiscretization))
	w("  size_area at 20..30 margin=50")
	w("  size_speed at 30.. when mode=actual margin=60")
	w("  migrate at 30..50 when mode=actual")
	w("  clone at 30..50 when mode=actual")
	w("  buffer at 30..50 when mode=actual")
	w("  pinswap at 50..")
	w("  remap at 50..")
	w("  electrical at 50.. when mode=actual once")
	w("  size_area at 80.. margin=80")
	w("  relieve frac=0.25")
	w("  sync_placer")
	w("  congest")
	w("}")
	w("final {")
	w("  spread")
	w("  bindim0")
	w("  discretize_actual when mode!=actual")
	w("  legalize")
	w("  detailed")
	w("  sync")
	if opt.DisableClockScanSchedule {
		// Traditional methodology (E9 baseline): clock tree and scan
		// chain are optimized only now, against a finished placement.
		w("  clock_opt")
		w("  scan_opt")
		w("  legalize")
		w("  sync")
	}
	// Status-100 closing pass on the legal placement.
	w("  size_speed marginfrac=0.08 budget=%d", 2*opt.TransformBudget)
	w("  buffer")
	w("  clone")
	w("  pinswap")
	w("  legalize")
	w("  detailed")
	w("  infootprint marginfrac=0.08")
	w("  pinswap")
	w("  evaluate flow=TPS")
	if !opt.SkipRouting {
		w("  route")
		w("  infootprint margin=60")
		w("  remeasure")
	}
	w("}")
	return b.String()
}

// SPROptions tunes the baseline flow.
type SPROptions struct {
	// MaxIterations bounds the resynthesis↔replace loop (the paper's SPR
	// testcases went through many such iterations plus manual work).
	MaxIterations int
	// TransformBudget caps accepted changes per transform invocation.
	TransformBudget int
	// SkipRouting skips the final global route.
	SkipRouting bool
}

// DefaultSPROptions mirrors a conventional flow.
func DefaultSPROptions() SPROptions {
	return SPROptions{MaxIterations: 4, TransformBudget: 64}
}

// SPRScript renders the traditional baseline as a scenario script:
// stand-alone synthesis on wire-load models, stand-alone quadratic
// placement, then iterated incremental resynthesis + legalization until
// timing stops improving.
func SPRScript(opt SPROptions) string {
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = 4
	}
	var b strings.Builder
	w := func(format string, args ...interface{}) { fmt.Fprintf(&b, format+"\n", args...) }
	w("# Traditional synthesis-place-resynthesize baseline (generated by tps.SPRScript)")
	w("scenario SPR")
	w("set budget %d", opt.TransformBudget)
	w("set weight_mode absolute")
	w("set weight_le 0") // classic slack-only weighting
	w("set weight_margin 100")
	w("init {")
	// Stage 1: stand-alone synthesis on wire-load models.
	w("  mode m=wireload")
	w("  assign_gains gain=4")
	w("  discretize_actual setmode=0")
	w("  size_speed margin=60")
	w("  buffer")
	w("  clone")
	w("  logslack label=SPR-synthesis")
	// Stage 2: stand-alone placement. Net weights frozen from the WLM
	// timing picture — the §4.3 weakness the paper calls out — and clock
	// nets ignored until the tree is optimized afterwards.
	w("  weight")
	w("  freeze_nonsignal")
	w("  qplace")
	w("  subdivide_full")
	w("  legalize")
	w("  restore_weights")
	w("  clock_opt")
	w("  scan_opt")
	w("  legalize")
	w("  sync")
	// Stage 3: measure with real wires.
	w("  mode m=actual")
	w("}")
	w("repeat %d stall=1 {", opt.MaxIterations)
	w("  size_speed margin=60")
	w("  buffer")
	w("  clone")
	w("  legalize")
	w("  sync")
	w("}")
	w("final {")
	w("  detailed")
	w("  evaluate flow=SPR")
	if !opt.SkipRouting {
		w("  route")
		w("  infootprint margin=60")
		w("  remeasure")
	}
	w("}")
	return b.String()
}

// runBuiltin executes a generated built-in flow script on c.
func runBuiltin(c *scenario.Context, script string) Metrics {
	s, err := scenario.Parse(script)
	if err != nil {
		// The generators and the registry ship together; a parse failure
		// here is a build defect, not a runtime condition.
		panic("tps: builtin scenario does not parse: " + err.Error())
	}
	m, err := scenario.Run(c, s)
	if err != nil {
		panic("tps: builtin scenario failed: " + err.Error())
	}
	return m
}

func boolArg(v bool) string {
	if v {
		return "1"
	}
	return "0"
}
