package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// Script is a parsed scenario: named, parameterized, and made of ordered
// blocks the interpreter executes in sequence.
//
// The text grammar is line-oriented and diff-friendly, like .tpn:
//
//	# comment
//	scenario <name>
//	set <key> <value>
//	init {            # run each step once, in order
//	  <step>
//	}
//	status {          # the Figure 5 loop: advance placement status by
//	  <step>          # "set step N" (default 5) until 100, running the
//	}                 # block's steps at each advance
//	repeat <n> [stall=<ps>] {   # rerun the block up to n times, stopping
//	  <step>                    # when worst slack improves by ≤ stall
//	}
//	final {           # run each step once, after the loops
//	  <step>
//	}
//
// Each step line is
//
//	<transform> [at <window>] [when mode=<m>|mode!=<m>] [once]
//	            [protect] [tol=<v>] [maxsec=<s>] [key=value ...]
//
// Status windows use the legacy flow's crossing semantics, built for
// coarse status jumps: `a..b` fires when the advance prev→cur entered or
// passed through the open interval (a,b), i.e. prev < b && cur > a;
// `a..` fires while cur > a; `..b` while cur < b; `a+` while cur ≥ a.
// Outside a status block, windows test against the resting status (0
// before any loop, 100 after).
//
// `once` retires the step after its first execution. `protect` wraps the
// step in a checkpoint: if the body errors, exceeds maxsec wall-clock
// seconds, or regresses the scenario objective by more than tol, the
// design is rolled back to the checkpoint and the step is counted as
// rejected. A negative tol inverts into a demand: the step must IMPROVE
// the objective by at least |tol| to be kept.
type Script struct {
	Name   string
	Params map[string]string
	Blocks []Block
}

// BlockKind distinguishes the interpreter's block semantics.
type BlockKind int

const (
	// BlockOnce runs each step a single time ("init"/"final").
	BlockOnce BlockKind = iota
	// BlockStatus runs the placement-status loop.
	BlockStatus
	// BlockRepeat reruns its steps until convergence or the cap.
	BlockRepeat
)

// Block is one phase of a scenario.
type Block struct {
	Kind BlockKind
	// Label is the source keyword ("init", "status", "repeat", "final").
	Label string
	// Max caps BlockRepeat iterations.
	Max int
	// Stall is BlockRepeat's convergence epsilon: stop when worst slack
	// improves by no more than Stall ps.
	Stall float64
	Steps []*Step
}

// Step is one scheduled transform invocation.
type Step struct {
	Name string
	Args map[string]string
	// Window trigger (see grammar). Sentinels: Lo=-1, Hi=101 means fire
	// on every advance.
	Lo, Hi int
	// GE is the `a+` form: fire while Status ≥ Lo (Hi ignored).
	GE bool
	// WhenMode/WhenNeq gate on the delay model in force ("gain",
	// "wireload", "actual"); empty = no condition.
	WhenMode string
	WhenNeq  bool
	Once     bool
	Protect  bool
	Tol      float64
	MaxSec   float64

	done bool // per-run once-latch (reset by Run)
	line int
}

// Parse parses a scenario script. Unknown transforms are rejected here,
// so a script that loads also resolves.
func Parse(text string) (*Script, error) {
	s := &Script{Params: map[string]string{}}
	var cur *Block
	lineNo := 0
	for _, raw := range strings.Split(text, "\n") {
		lineNo++
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		if cur == nil {
			switch f[0] {
			case "scenario":
				if len(f) != 2 {
					return nil, fmt.Errorf("scenario: line %d: scenario needs a name", lineNo)
				}
				s.Name = f[1]
				continue
			case "set":
				if len(f) != 3 {
					return nil, fmt.Errorf("scenario: line %d: set needs key and value", lineNo)
				}
				if f[1] == "objective" {
					if _, err := Objective(f[2]); err != nil {
						return nil, fmt.Errorf("scenario: line %d: %w", lineNo, err)
					}
				}
				s.Params[f[1]] = f[2]
				continue
			case "init", "status", "final", "repeat":
				b, err := openBlock(f, lineNo)
				if err != nil {
					return nil, err
				}
				cur = b
				continue
			default:
				return nil, fmt.Errorf("scenario: line %d: unexpected %q outside a block", lineNo, f[0])
			}
		}
		// Inside a block.
		if f[0] == "}" {
			if len(f) != 1 {
				return nil, fmt.Errorf("scenario: line %d: trailing tokens after }", lineNo)
			}
			s.Blocks = append(s.Blocks, *cur)
			cur = nil
			continue
		}
		st, err := parseStep(f, lineNo)
		if err != nil {
			return nil, err
		}
		cur.Steps = append(cur.Steps, st)
	}
	if cur != nil {
		return nil, fmt.Errorf("scenario: unterminated %s block", cur.Label)
	}
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: script has no `scenario <name>` line")
	}
	// Resolve transforms and validate protect eligibility now.
	for bi := range s.Blocks {
		for _, st := range s.Blocks[bi].Steps {
			tr := Lookup(st.Name)
			if tr == nil {
				return nil, fmt.Errorf("scenario: line %d: unknown transform %q", st.line, st.Name)
			}
			if st.Protect && tr.Structural {
				return nil, fmt.Errorf("scenario: line %d: transform %q is structural and cannot be protected", st.line, st.Name)
			}
		}
	}
	return s, nil
}

func openBlock(f []string, line int) (*Block, error) {
	if f[len(f)-1] != "{" {
		return nil, fmt.Errorf("scenario: line %d: %s block needs an opening {", line, f[0])
	}
	b := &Block{Label: f[0]}
	switch f[0] {
	case "init", "final":
		b.Kind = BlockOnce
		if len(f) != 2 {
			return nil, fmt.Errorf("scenario: line %d: %s takes no arguments", line, f[0])
		}
	case "status":
		b.Kind = BlockStatus
		if len(f) != 2 {
			return nil, fmt.Errorf("scenario: line %d: status takes no arguments", line)
		}
	case "repeat":
		b.Kind = BlockRepeat
		if len(f) < 3 {
			return nil, fmt.Errorf("scenario: line %d: repeat needs a count", line)
		}
		n, err := strconv.Atoi(f[1])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("scenario: line %d: bad repeat count %q", line, f[1])
		}
		b.Max = n
		for _, tok := range f[2 : len(f)-1] {
			k, v, ok := strings.Cut(tok, "=")
			if !ok || k != "stall" {
				return nil, fmt.Errorf("scenario: line %d: unexpected repeat option %q", line, tok)
			}
			sv, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("scenario: line %d: bad stall %q", line, v)
			}
			b.Stall = sv
		}
	}
	return b, nil
}

func parseStep(f []string, line int) (*Step, error) {
	st := &Step{
		Name: f[0], Args: map[string]string{},
		Lo: -1, Hi: 101, line: line,
	}
	i := 1
	for i < len(f) {
		tok := f[i]
		switch {
		case tok == "at":
			if i+1 >= len(f) {
				return nil, fmt.Errorf("scenario: line %d: at needs a window", line)
			}
			if err := st.parseWindow(f[i+1], line); err != nil {
				return nil, err
			}
			i += 2
		case tok == "when":
			if i+1 >= len(f) {
				return nil, fmt.Errorf("scenario: line %d: when needs a condition", line)
			}
			cond := f[i+1]
			switch {
			case strings.HasPrefix(cond, "mode!="):
				st.WhenMode, st.WhenNeq = cond[len("mode!="):], true
			case strings.HasPrefix(cond, "mode="):
				st.WhenMode = cond[len("mode="):]
			default:
				return nil, fmt.Errorf("scenario: line %d: unknown condition %q (want mode=… or mode!=…)", line, cond)
			}
			switch st.WhenMode {
			case "gain", "wireload", "actual":
			default:
				return nil, fmt.Errorf("scenario: line %d: unknown mode %q", line, st.WhenMode)
			}
			i += 2
		case tok == "once":
			st.Once = true
			i++
		case tok == "protect":
			st.Protect = true
			i++
		case strings.Contains(tok, "="):
			k, v, _ := strings.Cut(tok, "=")
			if k == "" || v == "" {
				return nil, fmt.Errorf("scenario: line %d: malformed argument %q", line, tok)
			}
			switch k {
			case "tol":
				t, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("scenario: line %d: bad tol %q", line, v)
				}
				st.Tol = t
			case "maxsec":
				t, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("scenario: line %d: bad maxsec %q", line, v)
				}
				st.MaxSec = t
			default:
				st.Args[k] = v
			}
			i++
		default:
			return nil, fmt.Errorf("scenario: line %d: unexpected token %q", line, tok)
		}
	}
	return st, nil
}

func (st *Step) parseWindow(w string, line int) error {
	if strings.HasSuffix(w, "+") {
		n, err := strconv.Atoi(w[:len(w)-1])
		if err != nil {
			return fmt.Errorf("scenario: line %d: bad window %q", line, w)
		}
		st.Lo, st.GE = n, true
		return nil
	}
	lo, hi, ok := strings.Cut(w, "..")
	if !ok {
		return fmt.Errorf("scenario: line %d: bad window %q (want a..b, a.., ..b, or a+)", line, w)
	}
	if lo != "" {
		n, err := strconv.Atoi(lo)
		if err != nil {
			return fmt.Errorf("scenario: line %d: bad window low %q", line, lo)
		}
		st.Lo = n
	}
	if hi != "" {
		n, err := strconv.Atoi(hi)
		if err != nil {
			return fmt.Errorf("scenario: line %d: bad window high %q", line, hi)
		}
		st.Hi = n
	}
	return nil
}

// triggered evaluates the step's status window against an advance
// prev→cur, using the legacy loop's crossing semantics.
func (st *Step) triggered(prev, cur int) bool {
	if st.GE {
		return cur >= st.Lo
	}
	return prev < st.Hi && cur > st.Lo
}
