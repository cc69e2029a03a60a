package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"tps/internal/autoflow"
	"tps/internal/gen"
	"tps/internal/portfolio"
	"tps/internal/scenario"
)

// Job is one queued or running job: a scenario flow, a portfolio race,
// or an autoflow search. The immutable fields are set at submit time;
// everything under mu is the externally visible state machine
// (queued → running → done|failed|canceled).
type Job struct {
	ID         string
	DesignName string
	run        engine
	gd         *gen.Design   // inline submission: private design
	sd         *storedDesign // stored-design submission
	want       int           // requested fan-out width

	hub *traceHub

	mu         sync.Mutex
	state      string
	err        string
	out        outcome
	granted    int
	cancel     context.CancelFunc // set while running
	cancelReq  bool
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
}

// engine runs one job on its design within a worker grant, streaming
// every event to the job's trace hub. It is the only part of a job that
// differs by kind.
type engine func(ctx context.Context, j *Job, gd *gen.Design, workers int) (outcome, error)

// outcome is what an engine hands back: the metrics that become the
// job's (the winner's, for a race or search), their protected-step
// counters, and the race or search summary.
type outcome struct {
	metrics          *scenario.Metrics
	accepts, rejects int
	race             *RaceInfo
	tune             *AutotuneInfo
}

// info snapshots the job's externally visible state.
func (j *Job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	in := JobInfo{
		ID: j.ID, Design: j.DesignName, State: j.state, Error: j.err,
		Workers: j.granted, Accepts: j.out.accepts, Rejects: j.out.rejects,
		QueuedAt: j.queuedAt, Metrics: j.out.metrics, Race: j.out.race,
		Autotune: j.out.tune,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		in.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		in.FinishedAt = &t
	}
	return in
}

// requestCancel flags the job for cancellation. A running job's context
// is canceled so the engine aborts at the next safe commit point; a
// queued job is skipped when a worker picks it up. Terminal jobs are
// unaffected.
func (j *Job) requestCancel() {
	j.mu.Lock()
	j.cancelReq = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// runJob executes one job end to end: state transitions, worker-budget
// grant, design acquisition, the engine run, and the terminal flow_end
// trace record. Called from a worker goroutine.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.cancelReq {
		j.state = JobCanceled
		j.err = "canceled while queued"
		j.finishedAt = time.Now()
		j.mu.Unlock()
		j.hub.terminate("canceled while queued")
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancel = cancel
	j.state = JobRunning
	j.startedAt = time.Now()
	j.mu.Unlock()
	defer cancel()

	granted := s.budget.grant(j.want)
	defer s.budget.release(granted)
	j.mu.Lock()
	j.granted = granted
	j.mu.Unlock()

	// A stored design stays locked until the job is terminal; a race or
	// search only reads it through its snapshot.
	gd := j.gd
	if j.sd != nil {
		var release func()
		var err error
		gd, release, err = j.sd.acquire()
		if err != nil {
			j.finish(outcome{}, err)
			return
		}
		defer release()
	}
	j.finish(j.run(ctx, j, gd, granted))
}

// finish moves the job to its terminal state and closes the trace
// stream with the flow_end record.
func (j *Job) finish(o outcome, err error) {
	j.mu.Lock()
	j.finishedAt = time.Now()
	j.out = o
	switch {
	case err == nil:
		j.state = JobDone
	case errIsCancel(err):
		j.state = JobCanceled
		j.err = err.Error()
	default:
		j.state = JobFailed
		j.err = err.Error()
	}
	errText := j.err
	j.mu.Unlock()
	j.hub.terminate(errText)
}

// newEngine maps a submission to the engine that will run it, and
// refuses at submit time any request that engine would refuse. Only
// the rules that exist on the wire live here: a job is a race or a
// search, not both; the request's scenario is the default script of
// entrants and of the search base; an entrant's seed defaults to its
// 1-based index; deadline_sec may not be negative. Every other race or
// search rule is the engine's own spec Validate.
func newEngine(req *SubmitRequest) (engine, error) {
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	switch {
	case req.Autotune != nil && len(req.Entrants) > 0:
		return nil, errors.New("a job is a race or an autotune search, not both")
	case req.Autotune != nil:
		return autotuneEngine(req, seed)
	case len(req.Entrants) > 0:
		return raceEngine(req)
	}
	if req.Scenario == "" {
		return nil, errors.New("missing scenario script")
	}
	script, err := scenario.Parse(req.Scenario)
	if err != nil {
		return nil, fmt.Errorf("parse scenario: %w", err)
	}
	return func(ctx context.Context, j *Job, gd *gen.Design, workers int) (outcome, error) {
		// Fresh analyzer stack per run: correctness over analyzer
		// warmness. The warm part of a stored-design re-run is the parsed
		// netlist object graph, not incremental analyzer state.
		c := scenario.NewContext(gd, seed)
		defer c.Close()
		c.SetWorkers(workers)
		c.Trace = j.hub
		m, err := scenario.RunContext(ctx, c, script)
		o := outcome{accepts: c.Accepts, rejects: c.Rejects}
		if err == nil {
			o.metrics = &m
		}
		return o, err
	}, nil
}

// raceEngine runs a race submission: the worker grant becomes the race
// width (each entrant runs its analyzers serially), the hub receives the
// merged entrant-tagged stream, and the job is judged by the winner.
func raceEngine(req *SubmitRequest) (engine, error) {
	deadline, err := deadlineOf(req.DeadlineSec)
	if err != nil {
		return nil, err
	}
	spec := portfolio.Spec{Objective: req.Objective, Deadline: deadline}
	for i, e := range req.Entrants {
		text := e.Scenario
		if text == "" {
			text = req.Scenario
		}
		seed := e.Seed
		if seed == 0 {
			seed = int64(i + 1)
		}
		spec.Entrants = append(spec.Entrants, portfolio.Entrant{
			Name: e.Name, Script: text, Seed: seed,
			Bound: e.Bound, Params: e.Params,
		})
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return func(ctx context.Context, j *Job, gd *gen.Design, workers int) (outcome, error) {
		spec := spec
		spec.Name, spec.Workers, spec.EntrantWorkers, spec.Trace = j.ID, workers, 1, j.hub
		res, err := portfolio.Race(ctx, gd, spec)
		return raceOutcome(res), err
	}, nil
}

// autotuneEngine runs an autotune submission: the worker grant bounds
// how many variants race concurrently (each variant's flow runs its
// analyzers serially, like race entrants), the hub receives every
// variant's tagged flow plus the search's gen_summary/autotune_verdict
// records, and the job is judged by the best variant.
func autotuneEngine(req *SubmitRequest, defaultSeed int64) (engine, error) {
	a := req.Autotune
	deadline, err := deadlineOf(a.DeadlineSec)
	if err != nil {
		return nil, err
	}
	spec := autoflow.Spec{
		Script:      a.Scenario,
		Objective:   a.Objective,
		Population:  a.Population,
		Offspring:   a.Offspring,
		Generations: a.Generations,
		Stall:       a.Stall,
		Seed:        a.Seed,
		Deadline:    deadline,
		Freeze:      a.Freeze,
		Insert:      a.Insert,
		Params:      a.Params,
	}
	if spec.Script == "" {
		spec.Script = req.Scenario
	}
	if spec.Seed == 0 {
		spec.Seed = defaultSeed
	}
	if a.Weights != nil {
		spec.Weights = *a.Weights
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return func(ctx context.Context, j *Job, gd *gen.Design, workers int) (outcome, error) {
		spec := spec
		spec.Name, spec.Workers, spec.Trace = j.ID, workers, j.hub
		res, err := autoflow.Search(ctx, gd, spec)
		return autotuneOutcome(res), err
	}, nil
}

// deadlineOf converts a request's deadline_sec, refusing a negative one.
func deadlineOf(sec float64) (time.Duration, error) {
	if sec < 0 {
		return 0, errors.New("negative deadline_sec")
	}
	return time.Duration(sec * float64(time.Second)), nil
}

// raceOutcome summarizes a race result: the winner's metrics and
// counters become the job's, and the full per-entrant verdict table is
// published as RaceInfo. A nil result (the race never started) is the
// zero outcome.
func raceOutcome(res *portfolio.Result) outcome {
	if res == nil {
		return outcome{}
	}
	o := outcome{race: &RaceInfo{Objective: res.Objective, WinnerIndex: res.Winner}}
	for i := range res.Verdicts {
		v := &res.Verdicts[i]
		o.race.Verdicts = append(o.race.Verdicts, RaceVerdict{
			Name: v.Name, Seed: v.Seed, Status: v.Status,
			Objective: v.Objective, DurMs: v.DurMs, Error: v.Err,
			Accepts: v.Accepts, Rejects: v.Rejects,
		})
	}
	if res.Winner >= 0 {
		w := &res.Verdicts[res.Winner]
		o.race.Winner = w.Name
		o.metrics = w.Metrics
		o.accepts, o.rejects = w.Accepts, w.Rejects
	}
	return o
}

// autotuneOutcome summarizes a search result: the best variant's metrics
// become the job's and the winning script is published as AutotuneInfo.
// Objectives travel as pointers because a failed base flow has none (and
// ±Inf does not survive JSON). A nil result is the zero outcome.
func autotuneOutcome(res *autoflow.Result) outcome {
	if res == nil {
		return outcome{}
	}
	o := outcome{tune: &AutotuneInfo{
		Objective:   res.Objective,
		Generations: res.Generations,
		Evaluated:   res.Evaluated,
		Restarts:    res.Restarts,
	}}
	if res.BestName != "" {
		o.tune.Winner = res.BestName
		o.tune.WinnerScript = res.BestScript
		obj := res.BestObjective
		o.tune.WinnerObjective = &obj
		o.metrics = res.BestMetrics
	}
	if !math.IsInf(res.BaseObjective, 0) && !math.IsNaN(res.BaseObjective) {
		b := res.BaseObjective
		o.tune.BaseObjective = &b
	}
	return o
}
