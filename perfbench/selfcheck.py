#!/usr/bin/env python3
"""Self-check of the benchmark: runs each workload's traced run twice and
requires its deterministic outputs (quality-of-result metrics, work
counters, job Metrics) to match exactly. For seed 3 it also requires the
tps-gen12k counters to equal the `analyzers:` / `fm:` lines that
`tpsflow -gates 10000 -levels 14 -seed 3` prints, which shows the
benchmark drives the same program as the command-line tool.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seed 3] [--workload tps-gen12k ...]

Exits 0 when every check passes, 1 otherwise.
"""
import argparse
import json
import os
import re
import subprocess
import sys

WORKLOADS = ["tps-gen12k", "spr-gen12k", "tpsd-mix"]


def build_dir():
    out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    os.makedirs(out, exist_ok=True)
    return os.path.abspath(out)


def traced_record(workload, seed, path):
    """Runs one traced run and returns (result line, record)."""
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1", "--record", path]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"selfcheck: {workload} exited {p.returncode}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    with open(path) as f:
        return result, json.load(f)


def tpsflow_counters(seed):
    """Builds tpsflow the way run.sh builds tpsd and parses its counters."""
    out = build_dir()
    env = dict(os.environ, GOCACHE=f"{out}/gocache", GOTMPDIR=f"{out}/tmp",
               GOPATH=f"{out}/gopath", GOFLAGS="-buildvcs=false", GOTOOLCHAIN="local",
               GOPROXY="off", GOWORK="off", GOTELEMETRY="off")
    os.makedirs(f"{out}/tmp", exist_ok=True)
    subprocess.run(["go", "build", "-o", f"{out}/tpsflow", "./cmd/tpsflow"], env=env, check=True)
    p = subprocess.run([f"{out}/tpsflow", "-gates", "10000", "-levels", "14", "-seed", str(seed)],
                       capture_output=True, text=True, check=True)
    a = re.search(r"analyzers: steiner rebuilds=(\d+), congestion passes full=(\d+) "
                  r"incremental=(\d+), timing recomputes=(\d+)", p.stdout)
    f = re.search(r"fm: pushes=(\d+) pops=(\d+) stale=([\d.]+)% updates=(\d+) compactions=(\d+)", p.stdout)
    if not a or not f:
        raise SystemExit("selfcheck: tpsflow printed no analyzers:/fm: lines:\n" + p.stdout)
    return {
        "SteinerRebuilds": int(a[1]), "CongestionFullPasses": int(a[2]),
        "CongestionIncrementalPasses": int(a[3]), "TimingRecomputes": int(a[4]),
        "FM.Pushes": int(f[1]), "FM.Pops": int(f[2]), "FM.stale%": f[3],
        "FM.GainUpdates": int(f[4]), "FM.Compactions": int(f[5]),
    }


def bench_counters(stats):
    fm = stats["FM"]
    return {
        "SteinerRebuilds": stats["SteinerRebuilds"],
        "CongestionFullPasses": stats["CongestionFullPasses"],
        "CongestionIncrementalPasses": stats["CongestionIncrementalPasses"],
        "TimingRecomputes": stats["TimingRecomputes"],
        "FM.Pushes": fm["Pushes"], "FM.Pops": fm["Pops"],
        "FM.stale%": f"{100 * fm['StalePops'] / fm['Pops']:.1f}",
        "FM.GainUpdates": fm["GainUpdates"], "FM.Compactions": fm["Compactions"],
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    out = build_dir()
    ok = True
    for wl in args.workload or WORKLOADS:
        runs = [traced_record(wl, args.seed, f"{out}/selfcheck-{wl}-{i}.json") for i in range(2)]
        (r1, rec1), (r2, rec2) = runs
        same = rec1 == rec2
        ok &= same
        print(f"{wl}: traced runs {'match' if same else 'DIFFER'}; "
              f"attempted={r1['attempted']}+{r2['attempted']} failed={r1['failed']}+{r2['failed']}")
        if not same:
            for key in sorted(set(rec1) | set(rec2)):
                if rec1.get(key) != rec2.get(key):
                    print(f"  {key}:\n    first  {rec1.get(key)}\n    second {rec2.get(key)}")
        if wl == "tps-gen12k" and args.seed == 3:
            want = tpsflow_counters(args.seed)
            got = bench_counters(rec1["stats"])
            same = want == got
            ok &= same
            print(f"{wl}: counters {'equal' if same else 'DIFFER from'} tpsflow -gates 10000 -levels 14 -seed 3")
            if not same:
                print(f"  tpsflow   {want}\n  benchmark {got}")
    print("selfcheck:", "ok" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
