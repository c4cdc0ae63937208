#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

One run, from the repository root:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

builds the Go benchmark from source into .bench_build/ and runs one
workload; the last line of standard output is the run's JSON result. A
traced run (--trace 1) also writes its spans to
.bench_build/spans-<workload>-<seed>.jsonl.

Steadiness report:

    python3 perfbench/run.py --steady 10 [--workload cold-plan] [--seconds 20]

repeats each workload untraced with seeds 1..N and prints, per end-to-end
metric, the median, the quartiles and the spread (interquartile range over
median), then one traced run's trace overhead. BENCHMARK.json's bounds are
set from this output (see perfbench/README.md).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
WORKLOADS = ["interactive", "cold-plan", "shared-reuse"]
# One run must end within this many seconds, build excluded.
RUN_TIMEOUT = 170


def go_env():
    """Keep every file the Go toolchain writes inside .bench_build."""
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    tmp = os.path.join(BUILD, "go-tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOMODCACHE=os.path.join(BUILD, "go-mod"),
        GOPATH=os.path.join(BUILD, "go-path"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
    )
    return env


def build():
    go = shutil.which("go")
    if go is None:
        sys.exit("run.py: no go toolchain on PATH")
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    proc = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("run.py: build failed")


def run_once(workload, seed, seconds, trace, echo=True):
    """Run the benchmark binary; return (exit code, parsed last line or None)."""
    cmd = [BINARY, "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds), "-trace", str(trace)]
    if trace:
        cmd += ["-spans", os.path.join(BUILD, f"spans-{workload}-{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired as e:
        if echo and e.stdout:
            sys.stdout.write(e.stdout if isinstance(e.stdout, str) else e.stdout.decode())
        print(f"run.py: {workload} seed {seed} exceeded {RUN_TIMEOUT}s", file=sys.stderr)
        return 1, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def spread_table(name, runs):
    metrics = sorted({m for r in runs for m in r["metrics"]})
    print(f"\n{name}: {len(runs)} runs")
    print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for m in metrics:
        vals = [r["metrics"][m]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        unit = runs[0]["metrics"][m]["unit"]
        print(f"  {m:32} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.2%}  {unit}")


def steady(workloads, n, seconds, first_seed):
    for w in workloads:
        runs = []
        for seed in range(first_seed, first_seed + n):
            code, res = run_once(w, seed, seconds, 0, echo=False)
            if code != 0 or res is None:
                print(f"{w} seed {seed}: run failed (exit {code})")
                continue
            runs.append(res)
        if len(runs) >= 2:
            spread_table(w, runs)
        code, res = run_once(w, first_seed, seconds, 1, echo=False)
        if code == 0 and res is not None:
            ratio = res["metrics"]["harness.trace_overhead_ratio"]["value"]
            unlinked = res["metrics"]["harness.unlinked_spans"]["value"]
            print(f"  traced/untraced session_p50_ms: {ratio:.3f}; unlinked spans: {unlinked:.0f}")
        else:
            print(f"  traced run failed (exit {code})")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="N", help="steadiness report over N seeds per workload")
    args = ap.parse_args()
    if args.steady is None and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.steady is not None:
        steady([args.workload] if args.workload else WORKLOADS, args.steady, args.seconds, args.seed)
        return 0
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
