package main

import (
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"tps/internal/serve"
)

// TestSubmitWinnerLinesMatchLocal runs the CI race and autotune inputs
// locally and through -submit against an in-process tpsd: the RACE and
// AUTOTUNE winner lines must be byte-identical, because the server runs
// the same engines on the same design and both paths print through one
// formatter.
func TestSubmitWinnerLinesMatchLocal(t *testing.T) {
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		_ = srv.Shutdown(context.Background())
	})

	design := []string{"-gates", "300", "-levels", "8", "-seed", "3"}
	for _, tc := range []struct{ flag, spec, prefix string }{
		{"-portfolio", "../../examples/portfolio/quad.race", "RACE winner="},
		{"-autotune", "../../examples/autoflow/quick.at", "AUTOTUNE winner="},
	} {
		t.Run(tc.flag[1:], func(t *testing.T) {
			args := append([]string{tc.flag, tc.spec}, design...)
			local := winnerLine(t, tpsflow(t, args...), tc.prefix)
			remote := winnerLine(t, tpsflow(t, append([]string{"-submit", hs.URL}, args...)...), tc.prefix)
			if local != remote {
				t.Fatalf("winner lines differ:\nlocal:  %s\nsubmit: %s", local, remote)
			}
		})
	}
}

// tpsflow runs the command with args and returns its stdout; stderr is
// discarded.
func tpsflow(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = out, null
	err = run(args)
	os.Stdout, os.Stderr = stdout, stderr
	if err != nil {
		t.Fatalf("tpsflow %s: %v", strings.Join(args, " "), err)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// winnerLine returns the one output line starting with prefix.
func winnerLine(t *testing.T, out, prefix string) string {
	t.Helper()
	var found []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			found = append(found, line)
		}
	}
	if len(found) != 1 {
		t.Fatalf("want one %q line, got %d in:\n%s", prefix, len(found), out)
	}
	return found[0]
}
