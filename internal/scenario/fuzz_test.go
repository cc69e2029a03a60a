package scenario_test

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"tps"
	"tps/internal/scenario"
)

// FuzzParse asserts the parser's contract for arbitrary input: it never
// panics, and any script it accepts formats canonically — Format's
// output reparses, and formatting is idempotent from the first
// application on (parse→format→parse→format is a fixed point). That
// fixed point is what makes Format a safe serialization for script
// mutation tooling.
func FuzzParse(f *testing.F) {
	f.Add("scenario t\ninit {\n  noop_ok\n}\n")
	f.Add(tps.TPSScript(tps.DefaultTPSOptions()))
	f.Add(tps.SPRScript(tps.DefaultSPROptions()))
	f.Add("scenario w\nset objective tns\nstatus {\n  probe at 5..95\n  probe at 30..\n  probe at ..40\n  probe at 55+\n}\n")
	f.Add("scenario g\nrepeat 7 stall=2.5 {\n  noop_ok when mode=gain once\n  probe when mode!=actual\n}\nfinal {\n  noop_ok protect tol=-3.25 maxsec=0.5 k=v\n}\n")
	f.Add("# comment\nscenario c # trailing\ninit { # open\n  noop_ok k=a=b x=1e-9\n} # close\n")
	f.Add("scenario bad\ninit {\n  unknown_transform\n}\n")
	f.Add("scenario n\ninit {\n  probe at -1..101\n  probe at ..\n  probe tol=nan maxsec=inf\n}\n")
	f.Add("scenario dup\nset k 1\nset k 2\ninit {\n  noop_ok a=1 a=2 tol=1 tol=2\n}\n")
	f.Add("repeat 3 {\n}")
	f.Add("scenario {\nstatus {\n}\n")

	f.Fuzz(func(t *testing.T, in string) {
		s, err := scenario.Parse(in)
		if err != nil {
			return
		}
		f1 := s.Format()
		s2, err := scenario.Parse(f1)
		if err != nil {
			t.Fatalf("Format output does not reparse: %v\ninput: %q\nformatted: %q", err, in, f1)
		}
		if f2 := s2.Format(); f2 != f1 {
			t.Fatalf("Format not idempotent\ninput: %q\nfirst:  %q\nsecond: %q", in, f1, f2)
		}
	})
}

// TestFormatRoundTripConstructs walks every grammar construct through
// parse→format→parse and pins the canonical emission.
func TestFormatRoundTripConstructs(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // canonical Format output
	}{
		{"minimal", "scenario m\n", "scenario m\n"},
		{"params sorted", "scenario p\nset z 9\nset a 1\n", "scenario p\nset a 1\nset z 9\n"},
		{"window both", "scenario w\nstatus {\n probe at 20..30\n}\n", "scenario w\nstatus {\n  probe at 20..30\n}\n"},
		{"window open high", "scenario w\nstatus {\n probe at 30..\n}\n", "scenario w\nstatus {\n  probe at 30..\n}\n"},
		{"window open low", "scenario w\nstatus {\n probe at ..40\n}\n", "scenario w\nstatus {\n  probe at ..40\n}\n"},
		{"window ge", "scenario w\nstatus {\n probe at 55+\n}\n", "scenario w\nstatus {\n  probe at 55+\n}\n"},
		{"window default dropped", "scenario w\nstatus {\n probe at ..\n}\n", "scenario w\nstatus {\n  probe\n}\n"},
		{"guards", "scenario g\ninit {\n probe when mode=gain\n noop_ok when mode!=actual\n}\n",
			"scenario g\ninit {\n  probe when mode=gain\n  noop_ok when mode!=actual\n}\n"},
		{"once protect tol maxsec args sorted",
			"scenario s\nfinal {\n noop_ok z=2 a=1 protect once maxsec=2.5 tol=-0.5\n}\n",
			"scenario s\nfinal {\n  noop_ok once protect tol=-0.5 maxsec=2.5 a=1 z=2\n}\n"},
		{"repeat stall", "scenario r\nrepeat 4 stall=1.5 {\n noop_ok\n}\n", "scenario r\nrepeat 4 stall=1.5 {\n  noop_ok\n}\n"},
		{"repeat no stall", "scenario r\nrepeat 9 {\n}\n", "scenario r\nrepeat 9 {\n}\n"},
		{"comments stripped", "# head\nscenario c # tail\ninit { # open\n  noop_ok # step\n} # close\n",
			"scenario c\ninit {\n  noop_ok\n}\n"},
		{"arg value with equals", "scenario e\ninit {\n noop_ok k=a=b\n}\n", "scenario e\ninit {\n  noop_ok k=a=b\n}\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := scenario.Parse(tc.in)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			got := s.Format()
			if got != tc.want {
				t.Fatalf("canonical form mismatch\ngot:  %q\nwant: %q", got, tc.want)
			}
			s2, err := scenario.Parse(got)
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			if again := s2.Format(); again != got {
				t.Fatalf("not idempotent: %q → %q", got, again)
			}
		})
	}
}

// TestFormatRoundTripRandomScripts generates scripts over the whole
// grammar directly as structures, formats them, and requires the
// parse of that text to format identically — the property that Format
// and Parse agree on every construct combination, not just the
// hand-picked ones.
func TestFormatRoundTripRandomScripts(t *testing.T) {
	var names, protectable []string
	for _, tr := range scenario.List() {
		names = append(names, tr.Name)
		if !tr.Structural {
			protectable = append(protectable, tr.Name)
		}
	}
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		s := randomScript(rng, names, protectable)
		text := s.Format()
		p, err := scenario.Parse(text)
		if err != nil {
			t.Fatalf("iter %d: generated script does not parse: %v\n%s", iter, err, text)
		}
		if got := p.Format(); got != text {
			t.Fatalf("iter %d: round trip diverged\ngenerated: %q\nreparsed:  %q", iter, text, got)
		}
	}
}

func randomScript(rng *rand.Rand, names, protectable []string) *scenario.Script {
	s := &scenario.Script{Name: "r" + strconv.Itoa(rng.Intn(1000))}
	if rng.Intn(2) == 0 {
		s.Params = map[string]string{}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			s.Params["p"+strconv.Itoa(rng.Intn(5))] = randomToken(rng)
		}
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		kinds := []struct {
			kind  scenario.BlockKind
			label string
		}{
			{scenario.BlockOnce, "init"},
			{scenario.BlockStatus, "status"},
			{scenario.BlockRepeat, "repeat"},
			{scenario.BlockOnce, "final"},
		}
		k := kinds[rng.Intn(len(kinds))]
		b := scenario.Block{Kind: k.kind, Label: k.label}
		if k.kind == scenario.BlockRepeat {
			b.Max = 1 + rng.Intn(9)
			if rng.Intn(2) == 0 {
				b.Stall = float64(rng.Intn(40)) / 4
			}
		}
		for j, m := 0, rng.Intn(4); j < m; j++ {
			b.Steps = append(b.Steps, randomStep(rng, names, protectable))
		}
		s.Blocks = append(s.Blocks, b)
	}
	return s
}

func randomStep(rng *rand.Rand, names, protectable []string) *scenario.Step {
	st := &scenario.Step{Lo: -1, Hi: 101, Args: map[string]string{}}
	if rng.Intn(3) == 0 {
		st.Protect = true
		st.Name = protectable[rng.Intn(len(protectable))]
	} else {
		st.Name = names[rng.Intn(len(names))]
	}
	switch rng.Intn(4) {
	case 0: // default window
	case 1:
		st.Lo = rng.Intn(103) - 2
	case 2:
		st.Hi = rng.Intn(103) - 1
	case 3:
		st.Lo, st.GE = rng.Intn(101), true
	}
	if rng.Intn(3) == 0 {
		st.WhenMode = []string{"gain", "wireload", "actual"}[rng.Intn(3)]
		st.WhenNeq = rng.Intn(2) == 0
	}
	st.Once = rng.Intn(4) == 0
	if rng.Intn(3) == 0 {
		st.Tol = float64(rng.Intn(41)-20) / 8
	}
	if rng.Intn(4) == 0 {
		st.MaxSec = float64(1+rng.Intn(100)) / 16
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		st.Args["k"+strconv.Itoa(rng.Intn(4))] = randomToken(rng)
	}
	return st
}

// randomToken builds a parser-safe value token: anything without
// whitespace or '#', including '=' signs and numbers.
func randomToken(rng *rand.Rand) string {
	alphabet := []string{"v", "x1", "3.5", "-2", "1e-9", "a=b", "true", "..", "{", "wide_value"}
	var b strings.Builder
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		b.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// TestBuiltinScriptsFormatStable pins the built-in generated flows:
// their canonical form reparses to the same canonical form, so tooling
// may freely normalize TPS/SPR scripts.
func TestBuiltinScriptsFormatStable(t *testing.T) {
	for _, text := range []string{
		tps.TPSScript(tps.DefaultTPSOptions()),
		tps.SPRScript(tps.DefaultSPROptions()),
	} {
		s, err := scenario.Parse(text)
		if err != nil {
			t.Fatalf("builtin script does not parse: %v", err)
		}
		f1 := s.Format()
		s2, err := scenario.Parse(f1)
		if err != nil {
			t.Fatalf("canonical builtin does not reparse: %v\n%s", err, f1)
		}
		if f2 := s2.Format(); f2 != f1 {
			t.Fatalf("builtin canonical form unstable:\n%s\nvs\n%s", f1, f2)
		}
	}
}
