package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"tps"
	"tps/internal/serve"
)

// submitJob is the -submit client for every job kind: it serializes the
// local design into req, posts the job to the tpsd server at baseURL,
// streams the job's JSONL trace to stdout until the terminal flow_end
// record, and reports the job's final state. The exit status mirrors the
// remote job's outcome.
func submitJob(baseURL string, makeDesign func() (*tps.Design, error), req serve.SubmitRequest) error {
	d, err := makeDesign()
	if err != nil {
		return err
	}
	var netBuf bytes.Buffer
	err = d.Save(&netBuf)
	d.Close()
	if err != nil {
		return err
	}
	req.Netlist = netBuf.String()

	base := strings.TrimRight(baseURL, "/")
	client := &http.Client{} // no timeout: the trace stream is long-lived

	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var sub serve.SubmitResponse
	if err := decodeOrError(resp, http.StatusAccepted, &sub); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Fprintf(os.Stderr, "tpsflow: job %s accepted by %s\n", sub.JobID, base)

	// Stream the trace; the server ends it with flow_end.
	stream, err := client.Get(base + "/jobs/" + sub.JobID + "/trace")
	if err != nil {
		return fmt.Errorf("trace stream: %w", err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return fmt.Errorf("trace stream: unexpected status %s", stream.Status)
	}
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sawEnd := false
	for sc.Scan() {
		line := sc.Bytes()
		os.Stdout.Write(line)
		os.Stdout.Write([]byte{'\n'})
		var ev tps.TraceEvent
		if json.Unmarshal(line, &ev) == nil && ev.Type == tps.EvFlowEnd {
			sawEnd = true
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace stream: %w", err)
	}
	if !sawEnd {
		return fmt.Errorf("trace stream ended without a flow_end record")
	}

	// The stream's flow_end means the job is terminal; fetch the verdict.
	info, err := fetchJob(client, base, sub.JobID)
	if err != nil {
		return err
	}
	if info.State != serve.JobDone {
		return fmt.Errorf("job %s %s: %s", info.ID, info.State, info.Error)
	}
	switch a, r, m := info.Autotune, info.Race, info.Metrics; {
	case a != nil:
		printAutotuneWinner(a.Winner, orZero(a.WinnerObjective), orZero(a.BaseObjective),
			a.Generations, a.Evaluated, a.WinnerScript)
	case r != nil:
		for _, v := range r.Verdicts {
			fmt.Fprintf(os.Stderr, "tpsflow:   %-12s seed=%-4d %-10s obj=%g\n",
				v.Name, v.Seed, v.Status, v.Objective)
		}
		if m != nil {
			printRaceWinner(r.Winner, r.Verdicts[r.WinnerIndex].Objective, m)
		}
	case m != nil:
		fmt.Fprintf(os.Stderr, "tpsflow: job %s done: slack=%.0fps cycle=%.0fps wire=%.0fµm\n",
			info.ID, m.WorstSlack, m.CycleAchieved, m.SteinerWireUm)
	}
	return nil
}

// orZero reads an optional objective; a missing one prints as 0.
func orZero(p *float64) float64 {
	if p == nil {
		return 0
	}
	return *p
}

// fetchJob retries briefly: the job goes terminal the instant flow_end
// is emitted, but the state write happens just before, so one fetch is
// normally enough.
func fetchJob(client *http.Client, base, id string) (serve.JobInfo, error) {
	var info serve.JobInfo
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		resp, err := client.Get(base + "/jobs/" + id)
		if err != nil {
			lastErr = err
		} else if err := decodeOrError(resp, http.StatusOK, &info); err != nil {
			lastErr = err
		} else {
			return info, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return info, fmt.Errorf("fetch job %s: %w", id, lastErr)
}

// decodeOrError decodes the expected JSON body, or surfaces the
// server's error envelope when the status differs.
func decodeOrError(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var e serve.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("unexpected status %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
