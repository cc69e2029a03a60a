package portfolio

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec parses the portfolio race spec format — line-oriented and
// diff-friendly like the scenario grammar:
//
//	# comment
//	portfolio <name>
//	objective slack|tns|wire
//	deadline <seconds>
//	workers <n>
//	entrant [name=<n>] [flow=tps|spr] [script=<path>] [seed=<s>]
//	        [bound=<v>] [set.<key>=<value> ...]
//
// Each entrant line names its scenario exactly one way: `flow=` asks for
// a built-in generated script, `script=` for an external one. resolve
// turns that reference into script text — the CLI reads script= as a
// file path and renders flow= via tps's generators; tests can stub it.
// `set.` prefixed keys become the entrant's parameter overlay (e.g.
// set.budget=16 caps the synthesis budget, set.objective is NOT settable
// this way — the race objective judges all entrants uniformly).
//
// Seeds default to the entrant's 1-based index, so a spec listing the
// same flow N times races N seed variants with no further ceremony.
func ParseSpec(text string, resolve func(flow, script string) (string, error)) (*Spec, error) {
	spec := &Spec{}
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
		switch f[0] {
		case "portfolio":
			if len(f) != 2 {
				return nil, fmt.Errorf("portfolio spec: line %d: portfolio needs a name", lineNo)
			}
			spec.Name = f[1]
		case "objective":
			if len(f) != 2 {
				return nil, fmt.Errorf("portfolio spec: line %d: objective needs a value", lineNo)
			}
			if _, err := Objective(f[1]); err != nil {
				return nil, fmt.Errorf("portfolio spec: line %d: %w", lineNo, err)
			}
			spec.Objective = f[1]
		case "deadline":
			if len(f) != 2 {
				return nil, fmt.Errorf("portfolio spec: line %d: deadline needs seconds", lineNo)
			}
			sec, err := strconv.ParseFloat(f[1], 64)
			if err != nil || sec <= 0 {
				return nil, fmt.Errorf("portfolio spec: line %d: bad deadline %q", lineNo, f[1])
			}
			spec.Deadline = time.Duration(sec * float64(time.Second))
		case "workers":
			if len(f) != 2 {
				return nil, fmt.Errorf("portfolio spec: line %d: workers needs a count", lineNo)
			}
			n, err := strconv.Atoi(f[1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("portfolio spec: line %d: bad workers %q", lineNo, f[1])
			}
			spec.Workers = n
		case "entrant":
			e, err := parseEntrant(f[1:], lineNo, len(spec.Entrants), resolve)
			if err != nil {
				return nil, err
			}
			spec.Entrants = append(spec.Entrants, *e)
		default:
			return nil, fmt.Errorf("portfolio spec: line %d: unknown directive %q", lineNo, f[0])
		}
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("portfolio spec: missing `portfolio <name>` line")
	}
	if len(spec.Entrants) == 0 {
		return nil, fmt.Errorf("portfolio spec: no entrants")
	}
	return spec, nil
}

func parseEntrant(toks []string, line, index int, resolve func(flow, script string) (string, error)) (*Entrant, error) {
	e := &Entrant{Seed: int64(index + 1)}
	var flow, script string
	for _, tok := range toks {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("portfolio spec: line %d: malformed entrant option %q", line, tok)
		}
		switch {
		case k == "name":
			e.Name = v
		case k == "flow":
			flow = v
		case k == "script":
			script = v
		case k == "seed":
			s, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("portfolio spec: line %d: bad seed %q", line, v)
			}
			e.Seed = s
		case k == "bound":
			b, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("portfolio spec: line %d: bad bound %q", line, v)
			}
			e.Bound = &b
		case strings.HasPrefix(k, "set."):
			pk := k[len("set."):]
			if pk == "" {
				return nil, fmt.Errorf("portfolio spec: line %d: empty parameter name in %q", line, tok)
			}
			if e.Params == nil {
				e.Params = map[string]string{}
			}
			e.Params[pk] = v
		default:
			return nil, fmt.Errorf("portfolio spec: line %d: unknown entrant option %q", line, k)
		}
	}
	if (flow == "") == (script == "") {
		return nil, fmt.Errorf("portfolio spec: line %d: entrant needs exactly one of flow= or script=", line)
	}
	text, err := resolve(flow, script)
	if err != nil {
		return nil, fmt.Errorf("portfolio spec: line %d: %w", line, err)
	}
	e.Script = text
	return e, nil
}
