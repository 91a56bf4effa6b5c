#!/usr/bin/env python3
"""The repository benchmark, as BENCHMARK.json names it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Builds perfbench/ (which builds the library from src/) into .bench_build/
at the root of the tree, runs one workload, checks the result line and
prints it last. --self-check runs every workload at tiny sizes, traced
and untraced, and checks each result's metric names and units against
BENCHMARK.json.

Exits non-zero without a result line when the build fails, and non-zero
after the result line when the run found a correctness failure.
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def gate_rates(bench):
    """The gate-mixed phase rates, stated in that workload's `why`."""
    for w in bench["workloads"]:
        if w["name"] == "gate-mixed":
            steady = re.search(r"steady (\d+) req/s", w["why"])
            overload = re.search(r"overload (\d+) req/s", w["why"])
            if steady and overload:
                return steady.group(1), overload.group(1)
    fail("BENCHMARK.json: gate-mixed why must state the steady and "
         "overload rates")


def build():
    """Configures and builds (incrementally after the first run); the
    build's output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "perfbench",
              "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def source_rev():
    """The git revision, or a digest of the sources when not a checkout."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                  "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:12]


def expected_metrics(bench, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_result(line, expected):
    """Problems with a result line (empty list when it is well formed)."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if set(got) != set(expected):
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(set(expected) - set(got)),
                                      sorted(set(got) - set(expected))))
    for name, unit in got.items():
        if name in expected and unit != expected[name]:
            problems.append("%s: unit %s, BENCHMARK.json says %s"
                            % (name, unit, expected[name]))
        value = result["metrics"][name].get("value")
        if not isinstance(value, (int, float)):
            problems.append("%s: value %r is not a number" % (name, value))
    return problems


def run(bench, workload, seed, seconds, trace, rev, tiny=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    steady, overload = gate_rates(bench)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--steady-rps", steady, "--overload-rps", overload, "--rev", rev]
    if trace:
        cmd += ["--trace-out",
                str(BUILD / ("trace-%s-%s.json" % (workload, seed)))]
    if tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    return done.returncode, done.stdout.splitlines()


def self_check(bench):
    """Tiny sizes, every workload, traced and untraced."""
    rev = source_rev()
    ok = True
    for w in bench["workloads"]:
        for trace in (False, True):
            code, lines = run(bench, w["name"], 1, 1, trace, rev, tiny=True)
            problems = []
            if not lines:
                problems.append("no output (exit %d)" % code)
            else:
                problems = check_result(lines[-1],
                                        expected_metrics(bench, trace))
                if not problems and not json.loads(lines[-1])["correct"]:
                    problems.append("incorrect: " + lines[-2])
            if code != 0 and not problems:
                problems.append("exit code %d" % code)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("%-14s trace=%d  %s" % (w["name"], trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if not args.self_check and args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload, names))
    build()
    if args.self_check:
        return self_check(bench)

    code, lines = run(bench, args.workload, args.seed, args.seconds,
                      bool(args.trace), source_rev())
    if not lines:
        fail("no output (exit %d)" % code)
    problems = check_result(lines[-1], expected_metrics(bench, args.trace))
    if problems:
        for line in lines[:-1]:
            print(line, file=sys.stderr)
        fail("; ".join(problems))
    print("\n".join(lines))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
