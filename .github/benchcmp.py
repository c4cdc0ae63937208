#!/usr/bin/env python3
"""Same-runner benchmark comparison of two checkouts of this repository.

Usage: python3 .github/benchcmp.py BASE_DIR CHANGE_DIR

Runs the repository's `go test -bench` set five times in each checkout,
alternating which side runs first, and compares per-benchmark medians.
Exits 1 when the change's median ns/op, or its median p99-ns metric,
exceeds 2.0x the base's. Slides beyond 10% are printed as warnings only.
Benchmarks missing on the base are reported as new, and benchmarks
missing on the change as gone. Floors inside the benchmarks themselves
(b.Fatalf) are the benchmark smoke's job: a failed benchmark prints no
result here and shows up as gone.
"""
import re
import statistics
import subprocess
import sys

GO_TEST = ["go", "test", "-p", "1", "-run", "^$", "-bench", ".",
           "-benchtime", "100ms", "-count", "1", "./..."]
ROUNDS = 5
FAIL_RATIO = 2.0
WARN_RATIO = 1.10
# Metrics gated like ns/op; every other reported metric is printed only.
GATED = ("ns/op", "p99-ns")
LINE = re.compile(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$")


def run(tree):
    """One pass of the benchmark set: {(package, name): {unit: value}}."""
    proc = subprocess.run(GO_TEST, cwd=tree, capture_output=True, text=True)
    out, pkg = {}, ""
    for line in proc.stdout.splitlines():
        if line.startswith("pkg: "):
            pkg = line[5:].strip()
            continue
        m = LINE.match(line)
        if not m:
            continue
        fields = m.group(2).split()
        out[(pkg, m.group(1))] = {unit: float(val) for val, unit in zip(fields[::2], fields[1::2])}
    if proc.returncode != 0:
        print(f"warning: go test exited {proc.returncode} in {tree}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    trees = {"base": sys.argv[1], "change": sys.argv[2]}
    samples = {"base": {}, "change": {}}
    for i in range(ROUNDS):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            for key, metrics in run(trees[side]).items():
                for unit, val in metrics.items():
                    samples[side].setdefault(key, {}).setdefault(unit, []).append(val)
            print(f"round {i + 1}/{ROUNDS}: {side} done", flush=True)

    base, change = samples["base"], samples["change"]
    if not change:
        print("FAIL: the change reported no benchmarks")
        return 1
    failed = False
    for key in sorted(set(base) | set(change)):
        name = f"{key[0]}.{key[1]}"
        if key not in base:
            print(f"{name}: new")
            continue
        if key not in change:
            print(f"{name}: gone")
            continue
        for unit in sorted(change[key]):
            new = statistics.median(change[key][unit])
            if unit not in base[key]:
                print(f"{name} {unit}: {new:.4g} (new)")
                continue
            old = statistics.median(base[key][unit])
            ratio = new / old if old > 0 else 1.0
            line = f"{name} {unit}: {old:.4g} -> {new:.4g} ({ratio:.2f}x)"
            if unit in GATED and ratio > FAIL_RATIO:
                line, failed = line + "  REGRESSION", True
            elif unit in GATED and ratio > WARN_RATIO:
                # A GitHub Actions annotation; non-gating.
                line = "::warning::" + line + " >10% slower"
            print(line)
    if failed:
        print(f"FAIL: at least one benchmark's median exceeds {FAIL_RATIO}x the base's")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
