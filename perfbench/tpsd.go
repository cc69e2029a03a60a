package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"tps"
)

// The tpsd-mix workload: a closed loop of mixClients clients, each owning
// one stored design and repeating a four-job cycle (see prepareClients). A
// client submits its next job only after the previous job's trace
// stream delivered the terminal flow_end record.
//
// Each cycle uploads the client's design again before its stored-design
// run job, so that job always runs on a fresh upload. A second run on
// the same upload returns Metrics that differ from the first run's (a
// known tpsd defect), and the workload must not fail by design.
const (
	mixClients     = 2
	mixConcurrency = 2
	runGates       = 800 // stored / inline run-job design
	searchGates    = 300 // race and autotune design
	mixLevels      = 8
	// serverSetupReps is how many times a run starts tpsd and uploads
	// the designs; setup_s is their median.
	serverSetupReps = 15
	scenarioFile    = "examples/scenario/congestion_first.tps"
	raceFile        = "examples/portfolio/quad.race"
	autotuneFile    = "examples/autoflow/quick.at"
)

// Wire types: the subset of tpsd's JSON API the workload uses.
type submitRequest struct {
	Design      string           `json:"design,omitempty"`
	Netlist     string           `json:"netlist,omitempty"`
	Scenario    string           `json:"scenario,omitempty"`
	Entrants    []raceEntrant    `json:"entrants,omitempty"`
	Objective   string           `json:"objective,omitempty"`
	DeadlineSec float64          `json:"deadline_sec,omitempty"`
	Autotune    *autotuneRequest `json:"autotune,omitempty"`
}

type raceEntrant struct {
	Name     string            `json:"name,omitempty"`
	Scenario string            `json:"scenario,omitempty"`
	Seed     int64             `json:"seed,omitempty"`
	Bound    *float64          `json:"bound,omitempty"`
	Params   map[string]string `json:"params,omitempty"`
}

type autotuneRequest struct {
	Scenario    string               `json:"scenario,omitempty"`
	Objective   string               `json:"objective,omitempty"`
	Population  int                  `json:"population,omitempty"`
	Offspring   int                  `json:"offspring,omitempty"`
	Generations int                  `json:"generations,omitempty"`
	Stall       int                  `json:"stall,omitempty"`
	Seed        int64                `json:"seed,omitempty"`
	DeadlineSec float64              `json:"deadline_sec,omitempty"`
	Freeze      []string             `json:"freeze,omitempty"`
	Insert      []string             `json:"insert,omitempty"`
	Weights     *tps.MutationWeights `json:"weights,omitempty"`
	Params      []tps.ParamDomain    `json:"params,omitempty"`
}

type jobInfo struct {
	State      string       `json:"state"`
	Error      string       `json:"error"`
	Accepts    int          `json:"accepts"`
	Rejects    int          `json:"rejects"`
	QueuedAt   time.Time    `json:"queued_at"`
	StartedAt  *time.Time   `json:"started_at"`
	FinishedAt *time.Time   `json:"finished_at"`
	Metrics    *tps.Metrics `json:"metrics"`
	Race       *struct {
		Verdicts []struct {
			Status string `json:"status"`
		} `json:"verdicts"`
	} `json:"race"`
	Autotune *struct {
		Evaluated int `json:"evaluated"`
	} `json:"autotune"`
}

// jobSpec is one job of a client's cycle, with the Metrics an in-process
// run of the same request produced.
type jobSpec struct {
	kind   string // run | race | autotune
	inline bool   // run job with the netlist sent inline
	design string // stored design to upload again before the job
	text   string // that design's .tpn text
	body   []byte
	ref    string // deterministic(ref Metrics)
}

// jobSample is one completed job's measurements.
type jobSample struct {
	spec      *jobSpec
	latency   float64 // submit → flow_end receipt
	upload    float64 // re-upload of the stored design before submit
	rtt       float64 // POST /jobs round trip
	queueWait float64 // StartedAt − QueuedAt
	runS      float64 // FinishedAt − StartedAt
	lag       float64 // flow_end receipt − FinishedAt
	bytes     int     // trace stream bytes
	info      jobInfo
	rollbackS float64 // summed body time of rolled-back steps
	done      time.Time
}

type mixClient struct {
	http *http.Client
	jobs []*jobSpec

	attempted int
	samples   []jobSample
	cycles    []float64 // wall seconds of each whole cycle
	failed    []string
	refused   int
}

func runTpsdMix(o options, r *report) error {
	if _, err := os.Stat(o.tpsd); err != nil {
		return fmt.Errorf("tpsd binary: %w", err)
	}
	workers := runtime.NumCPU()
	clients, texts, err := prepareClients(o.seed, workers)
	if err != nil {
		return err
	}

	// Set-up: server healthy plus both uploads, several times; the last
	// server stays up for the measured phase.
	var setups []float64
	var srv *server
	for i := 0; i < serverSetupReps; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
			clients[0].http.CloseIdleConnections()
		}
		t0 := time.Now()
		srv, err = startServer(o.tpsd, workers)
		if err != nil {
			return err
		}
		if err := srv.waitHealthy(clients[0].http); err != nil {
			srv.stop()
			return err
		}
		for k, text := range texts {
			if err := upload(clients[0].http, srv.base, fmt.Sprintf("c%d", k), text); err != nil {
				srv.stop()
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	clients[0].http.CloseIdleConnections()

	// One untimed warm-up cycle per client, then the measured loop.
	runPhase(clients, srv.base, time.Time{})
	warm := make([]int, len(clients))
	for i, c := range clients {
		warm[i] = len(c.samples)
		c.cycles = nil
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		srv.stop()
		return err
	}
	start := time.Now()
	runPhase(clients, srv.base, start.Add(time.Duration(o.seconds*float64(time.Second))))
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		srv.stop()
		return err
	}
	if err := srv.stop(); err != nil {
		r.fail("tpsd shutdown: %v", err)
	}

	var measured []jobSample
	var cycles []float64
	var last time.Time
	refused := 0
	for i, c := range clients {
		cycles = append(cycles, c.cycles...)
		r.Attempted += c.attempted
		r.Failed += len(c.failed)
		refused += c.refused
		for _, f := range c.failed {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
		}
		for _, s := range c.samples[warm[i]:] {
			measured = append(measured, s)
			if s.done.After(last) {
				last = s.done
			}
		}
	}
	if len(measured) == 0 || len(cycles) == 0 {
		r.fail("no cycle completed in the measured phase")
		return nil
	}
	r.record["jobs"] = jobRecord(clients)

	lat := func(keep func(jobSample) bool, f func(jobSample) float64) []float64 {
		var xs []float64
		for _, s := range measured {
			if keep(s) {
				xs = append(xs, f(s))
			}
		}
		return xs
	}
	kind := func(k string) func(jobSample) bool {
		return func(s jobSample) bool { return s.spec.kind == k }
	}
	all := func(jobSample) bool { return true }
	latency := func(s jobSample) float64 { return s.latency }
	runLat := lat(kind("run"), latency)
	fmt.Fprintf(os.Stderr, "perfbench: closed loop, %d clients, %d measured jobs (%d run, %d race, %d autotune)\n",
		len(clients), len(measured), len(runLat), len(lat(kind("race"), latency)), len(lat(kind("autotune"), latency)))

	if !o.trace {
		// One operation is one client's whole cycle: its re-upload and
		// four jobs. Job kinds differ fivefold in latency, so a median
		// over single jobs would sit on the boundary between two kinds.
		r.set("setup_s", "s", median(setups))
		r.set("latency_s", "s", median(cycles))
		r.set("cpu_s", "s", (cpu1-cpu0)/float64(len(cycles)))
		r.set("peak_rss_mb", "MiB", srv.peakRSSMB())
		return nil
	}

	r.set("load.closed_loop_clients", "count", float64(len(clients)))
	r.set("load.jobs", "count", float64(len(measured)))
	r.set("serve.run_job_p50_s", "s", median(runLat))
	r.set("serve.run_job_p90_s", "s", quantile(runLat, 0.9))
	r.set("serve.race_job_p50_s", "s", median(lat(kind("race"), latency)))
	r.set("serve.autotune_job_p50_s", "s", median(lat(kind("autotune"), latency)))
	r.set("serve.jobs_per_s", "1/s", float64(len(measured))/last.Sub(start).Seconds())
	r.set("serve.upload_s", "s", median(lat(func(s jobSample) bool { return s.spec.design != "" },
		func(s jobSample) float64 { return s.upload })))
	r.set("serve.submit_rtt_s", "s", median(lat(all, func(s jobSample) float64 { return s.rtt })))
	r.set("serve.queue_wait_s", "s", median(lat(all, func(s jobSample) float64 { return s.queueWait })))
	for _, k := range []string{"run", "race", "autotune"} {
		r.set("serve.run_s."+k, "s", median(lat(kind(k), func(s jobSample) float64 { return s.runS })))
	}
	r.set("serve.stream_lag_s", "s", median(lat(all, func(s jobSample) float64 { return s.lag })))
	var traceBytes float64
	for _, s := range measured {
		traceBytes += float64(s.bytes)
	}
	r.set("serve.trace_bytes_per_job", "bytes", traceBytes/float64(len(measured)))
	r.set("serve.refused", "count", float64(refused))
	inline := func(want bool) func(jobSample) bool {
		return func(s jobSample) bool { return s.spec.kind == "run" && s.spec.inline == want }
	}
	r.set("netio.inline_extra_s", "s", median(lat(inline(true), latency))-median(lat(inline(false), latency)))

	var acc, rej, rollback, runs, entrants, finished, dominated, races, evaluated, tuneS float64
	for _, s := range measured {
		switch s.spec.kind {
		case "run":
			runs++
			acc += float64(s.info.Accepts)
			rej += float64(s.info.Rejects)
			rollback += s.rollbackS
		case "race":
			races++
			if s.info.Race != nil {
				for _, v := range s.info.Race.Verdicts {
					entrants++
					switch v.Status {
					case "finished":
						finished++
					case "dominated":
						dominated++
					}
				}
			}
		case "autotune":
			if s.info.Autotune != nil {
				evaluated += float64(s.info.Autotune.Evaluated)
			}
			tuneS += s.runS
		}
	}
	r.set("scenario.accept_frac", "ratio", ratio(acc, acc+rej))
	r.set("scenario.rollback_s", "s", ratio(rollback, runs))
	r.set("portfolio.entrants_finished_frac", "ratio", ratio(finished, entrants))
	r.set("portfolio.early_stopped", "count", ratio(dominated, races))
	r.set("autoflow.variants_per_s", "1/s", ratio(evaluated, tuneS))
	return nil
}

// prepareClients builds each client's designs, job bodies, and reference
// Metrics. It runs before any timing starts.
func prepareClients(seed int64, workers int) ([]*mixClient, []string, error) {
	scen, err := os.ReadFile(scenarioFile)
	if err != nil {
		return nil, nil, err
	}
	script, err := tps.ParseScenario(string(scen))
	if err != nil {
		return nil, nil, err
	}
	race, err := readSpec(raceFile, tps.ParseRaceSpec)
	if err != nil {
		return nil, nil, err
	}
	tune, err := readSpec(autotuneFile, tps.ParseAutotuneSpec)
	if err != nil {
		return nil, nil, err
	}

	var clients []*mixClient
	var texts []string
	for k := 0; k < mixClients; k++ {
		dseed := seed + int64(k)
		big, err := designText(runGates, dseed)
		if err != nil {
			return nil, nil, err
		}
		small, err := designText(searchGates, dseed)
		if err != nil {
			return nil, nil, err
		}
		texts = append(texts, big)

		runRef, err := refRun(big, workers, func(d *tps.Design) (*tps.Metrics, error) {
			m, err := d.RunScenario(script)
			return &m, err
		})
		if err != nil {
			return nil, nil, err
		}
		raceRef, err := refRun(small, workers, func(d *tps.Design) (*tps.Metrics, error) {
			spec := *race
			spec.Workers = workers
			res, err := d.Race(context.Background(), spec)
			if err != nil {
				return nil, err
			}
			return res.Verdicts[res.Winner].Metrics, nil
		})
		if err != nil {
			return nil, nil, err
		}
		tuneRef, err := refRun(small, workers, func(d *tps.Design) (*tps.Metrics, error) {
			spec := *tune
			spec.Workers = workers
			res, err := d.Autotune(context.Background(), spec)
			if err != nil {
				return nil, err
			}
			return res.BestMetrics, nil
		})
		if err != nil {
			return nil, nil, err
		}

		c := &mixClient{http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}}
		add := func(kind string, inline bool, req submitRequest, ref string) error {
			b, err := json.Marshal(req)
			c.jobs = append(c.jobs, &jobSpec{kind: kind, inline: inline, body: b, ref: ref})
			return err
		}
		name := fmt.Sprintf("c%d", k)
		errs := []error{
			add("run", false, submitRequest{Design: name, Scenario: string(scen)}, runRef),
			add("run", true, submitRequest{Netlist: big, Scenario: string(scen)}, runRef),
			add("race", false, raceRequest(small, race), raceRef),
			add("autotune", false, autotuneRequestFor(small, tune), tuneRef),
		}
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
		c.jobs[0].design, c.jobs[0].text = name, big
		clients = append(clients, c)
	}
	return clients, texts, nil
}

// resolveFlow maps a spec's flow=/script= reference to scenario text the
// way tpsflow does for specs under examples/.
func resolveFlow(dir string) func(flow, script string) (string, error) {
	return func(flow, script string) (string, error) {
		if script != "" {
			b, err := os.ReadFile(dir + "/" + script)
			return string(b), err
		}
		switch flow {
		case "tps":
			return tps.TPSScript(tps.DefaultTPSOptions()), nil
		case "spr":
			return tps.SPRScript(tps.DefaultSPROptions()), nil
		}
		return "", fmt.Errorf("unknown flow %q", flow)
	}
}

func readSpec[T any](path string, parse func(string, func(flow, script string) (string, error)) (*T, error)) (*T, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(string(b), resolveFlow(path[:strings.LastIndex(path, "/")]))
}

func designText(gates int, seed int64) (string, error) {
	d := tps.NewDesign(tps.DesignParams{Name: "gen", NumGates: gates, Levels: mixLevels, Seed: seed})
	defer d.Close()
	var buf bytes.Buffer
	err := d.Save(&buf)
	return buf.String(), err
}

// refRun runs a job's in-process reference on a design loaded from the
// same .tpn text the server receives, and returns its deterministic
// Metrics.
func refRun(text string, workers int, run func(*tps.Design) (*tps.Metrics, error)) (string, error) {
	d, err := tps.Load(strings.NewReader(text))
	if err != nil {
		return "", err
	}
	defer d.Close()
	d.SetWorkers(workers)
	m, err := run(d)
	if err != nil {
		return "", fmt.Errorf("reference run: %w", err)
	}
	if m == nil {
		return "", fmt.Errorf("reference run produced no metrics")
	}
	return deterministicMetrics(*m), nil
}

// deterministicMetrics renders m without its wall-clock field, for exact
// comparison.
func deterministicMetrics(m tps.Metrics) string {
	m.CPUSeconds = 0
	return fmt.Sprintf("%+v", m)
}

func raceRequest(netlist string, spec *tps.RaceSpec) submitRequest {
	req := submitRequest{Netlist: netlist, Objective: spec.Objective, DeadlineSec: spec.Deadline.Seconds()}
	for _, e := range spec.Entrants {
		req.Entrants = append(req.Entrants, raceEntrant{
			Name: e.Name, Scenario: e.Script, Seed: e.Seed, Bound: e.Bound, Params: e.Params,
		})
	}
	return req
}

func autotuneRequestFor(netlist string, spec *tps.AutotuneSpec) submitRequest {
	a := &autotuneRequest{
		Scenario: spec.Script, Objective: spec.Objective,
		Population: spec.Population, Offspring: spec.Offspring,
		Generations: spec.Generations, Stall: spec.Stall, Seed: spec.Seed,
		DeadlineSec: spec.Deadline.Seconds(),
		Freeze:      spec.Freeze, Insert: spec.Insert, Params: spec.Params,
	}
	if spec.Weights != (tps.MutationWeights{}) {
		w := spec.Weights
		a.Weights = &w
	}
	return submitRequest{Netlist: netlist, Autotune: a}
}

// runPhase runs every client concurrently. With a zero deadline each
// client runs its cycle once; otherwise clients repeat whole cycles until
// the deadline has passed, so every job kind is sampled.
func runPhase(clients []*mixClient, base string, deadline time.Time) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *mixClient) {
			defer wg.Done()
			for {
				t0 := time.Now()
				for _, js := range c.jobs {
					c.do(base, js)
				}
				c.cycles = append(c.cycles, time.Since(t0).Seconds())
				if deadline.IsZero() || time.Now().After(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// do submits one job, follows its trace stream to the terminal
// flow_end, and checks the job's final state and Metrics.
func (c *mixClient) do(base string, js *jobSpec) {
	fail := func(format string, args ...any) {
		c.failed = append(c.failed, fmt.Sprintf("%s job (inline=%v): ", js.kind, js.inline)+fmt.Sprintf(format, args...))
	}
	c.attempted++
	s := jobSample{spec: js}
	if js.design != "" {
		t0 := time.Now()
		if err := upload(c.http, base, js.design, js.text); err != nil {
			fail("%v", err)
			return
		}
		s.upload = time.Since(t0).Seconds()
	}
	t0 := time.Now()
	resp, err := c.http.Post(base+"/jobs", "application/json", bytes.NewReader(js.body))
	if err != nil {
		fail("submit: %v", err)
		return
	}
	s.rtt = time.Since(t0).Seconds()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		c.refused++
		fail("refused with 429")
		time.Sleep(50 * time.Millisecond)
		return
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := decode(resp, http.StatusAccepted, &sub); err != nil {
		fail("submit: %v", err)
		return
	}

	stream, err := c.http.Get(base + "/jobs/" + sub.JobID + "/trace")
	if err != nil {
		fail("trace stream: %v", err)
		return
	}
	var end time.Time
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		s.bytes += len(line) + 1
		var ev struct {
			Type    string  `json:"type"`
			Entrant string  `json:"entrant"`
			DurMs   float64 `json:"dur_ms"`
		}
		if json.Unmarshal(line, &ev) != nil || ev.Entrant != "" {
			continue
		}
		switch ev.Type {
		case string(tps.EvFlowEnd):
			end = time.Now()
		case "reject":
			s.rollbackS += ev.DurMs / 1000
		}
	}
	serr := sc.Err()
	stream.Body.Close()
	if serr != nil || stream.StatusCode != http.StatusOK {
		fail("trace stream: status %d, %v", stream.StatusCode, serr)
		return
	}
	if end.IsZero() {
		fail("trace stream ended without flow_end")
		return
	}
	s.latency = end.Sub(t0).Seconds()
	s.done = end

	ir, err := c.http.Get(base + "/jobs/" + sub.JobID)
	if err != nil {
		fail("job info: %v", err)
		return
	}
	if err := decode(ir, http.StatusOK, &s.info); err != nil {
		fail("job info: %v", err)
		return
	}
	in := &s.info
	switch {
	case in.State != "done":
		fail("state %q: %s", in.State, in.Error)
		return
	case in.Metrics == nil || in.StartedAt == nil || in.FinishedAt == nil:
		fail("done without metrics or timestamps")
		return
	}
	s.queueWait = in.StartedAt.Sub(in.QueuedAt).Seconds()
	s.runS = in.FinishedAt.Sub(*in.StartedAt).Seconds()
	s.lag = end.Sub(*in.FinishedAt).Seconds()
	// A job that completed with wrong Metrics still took its time: it
	// counts as failed and keeps its latency sample.
	c.samples = append(c.samples, s)
	if got := deterministicMetrics(*in.Metrics); got != js.ref {
		fail("metrics differ from the in-process reference:\n  server    %s\n  reference %s", got, js.ref)
	}
}

func decode(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

func upload(hc *http.Client, base, name, text string) error {
	resp, err := hc.Post(base+"/designs?name="+name, "text/plain", strings.NewReader(text))
	if err != nil {
		return fmt.Errorf("upload %s: %w", name, err)
	}
	var info map[string]any
	if err := decode(resp, http.StatusCreated, &info); err != nil {
		return fmt.Errorf("upload %s: %w", name, err)
	}
	return nil
}

// jobRecord lists each client's deterministic job outcomes (kind,
// protected-step counts) for --record.
func jobRecord(clients []*mixClient) []string {
	var out []string
	for k, c := range clients {
		for i, s := range c.samples {
			if i >= len(c.jobs) {
				break // one cycle is enough: later cycles repeat it
			}
			out = append(out, fmt.Sprintf("c%d %s inline=%v accepts=%d rejects=%d %s",
				k, s.spec.kind, s.spec.inline, s.info.Accepts, s.info.Rejects, s.spec.ref))
		}
	}
	return out
}

// server is one tpsd process.
type server struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{}
}

// startServer launches tpsd on an ephemeral loopback port and reads the
// bound address from its first output line.
func startServer(bin string, workers int) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-concurrency", fmt.Sprint(mixConcurrency), "-workers", fmt.Sprint(workers), "-drain", "10s")
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		io.Copy(io.Discard, br)
		close(s.drained)
	}()
	const prefix = "tpsd listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		s.stop()
		return nil, fmt.Errorf("tpsd did not start: %q %v", line, err)
	}
	s.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	return s, nil
}

func (s *server) waitHealthy(hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("tpsd at %s never became healthy", s.base)
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.Process.Kill()
	}
	<-s.drained
	return s.cmd.Wait()
}

// cpuSeconds is the running server's user+sys CPU time so far, read from
// /proc/<pid>/stat (utime and stime, in USER_HZ = 100 ticks a second).
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line for tpsd")
	}
	var utime, stime float64
	if _, err := fmt.Sscan(f[11], &utime); err != nil {
		return 0, err
	}
	if _, err := fmt.Sscan(f[12], &stime); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// peakRSSMB is the exited server's resident-set high-water mark in MiB.
func (s *server) peakRSSMB() float64 {
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
