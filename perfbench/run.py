#!/usr/bin/env python3
"""End-to-end benchmark of the TiFL reproduction.

Builds the library the way the repository's tier-1 build does (the root
CMake project, default Release, no extra flags) plus the benchmark binary
next to it, then runs one workload and prints its metrics:

    python3 perfbench/run.py --workload fig5-cnn-sync --seed 1 --seconds 20 --trace 0

Workloads: fig5-cnn-sync, fig5-mlp-async, scale-1m-churn, hier-4region
(BENCHMARK.json says why each is there).  With --trace 0 the last stdout
line holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics, which perfbench/metric_map.json ties to the end-to-end metric and
workloads each should move.  Build output goes to stderr, build trees,
traces and spans to .bench_build/ in the checkout.

    python3 perfbench/run.py --selfcheck

runs every workload at a tiny size, in both modes, and checks that each
emits every metric BENCHMARK.json names, with its unit.

Exit code 0 means every correctness check passed; anything else means a
check failed (the result line then says correct: false), or that the
build or the run itself failed (no result line).
"""
import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "tifl"
BENCH_BUILD = BUILD / "perfbench"
OUT = BUILD / "out"
SPEC = ROOT / "BENCHMARK.json"
RUN_LIMIT_S = 165.0  # one workload run, after the (incremental) build
# End-to-end figures printed per workload besides BENCHMARK.json's bounded
# ones: deterministic per seed, so their spread across seeds is input
# variation, not noise (vtime_to_target_s appears when every input
# reached the target).
OUTCOMES = ("vtime_s", "final_accuracy", "failed_share")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def env():
    """Child environment whose scratch files stay inside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def sh(cmd, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout, env=env())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(f"build step failed: {shlex.join(cmd)} ({e})")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no TiFL sources under {ROOT} (CMakeLists.txt and src/ needed)")
    jobs = str(os.cpu_count() or 1)
    if not (LIB_BUILD / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", str(ROOT), "-B", str(LIB_BUILD)], 600)
    sh(["cmake", "--build", str(LIB_BUILD), "--target", "tifl", "-j", jobs],
       900)
    if not (BENCH_BUILD / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BENCH_BUILD),
            f"-DTIFL_BUILD_DIR={LIB_BUILD}"], 600)
    sh(["cmake", "--build", str(BENCH_BUILD), "-j", jobs], 600)
    return BENCH_BUILD / "perfbench"


def provenance():
    """What produced the numbers: source revision and the library's build."""
    info = {"commit": "unknown (not a git checkout)"}
    if (ROOT / ".git").exists():
        try:
            info["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()[:16]

    cache = {}
    for line in (LIB_BUILD / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith(("#", "//")):
            cache[key.split(":")[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    info["build_type"] = build_type
    info["cxx"] = cache.get("CMAKE_CXX_COMPILER", "")
    # Flags exactly as the GEMM translation unit was compiled.
    try:
        commands = json.loads((LIB_BUILD / "compile_commands.json").read_text())
        for entry in commands:
            if entry["file"].endswith("src/tensor/gemm.cc"):
                args = shlex.split(entry["command"])[1:]
                info["gemm_flags"] = " ".join(
                    a for a in args if a.startswith("-")
                    and not a.startswith(("-I", "-o", "-c")))
    except (OSError, ValueError, KeyError):
        info["gemm_flags"] = "unknown"
    return info


def cpu_times():
    """Aggregate CPU tick counters of the machine (/proc/stat "cpu" line)."""
    with open("/proc/stat") as stat:
        return [int(t) for t in stat.readline().split()[1:]]


def run_workload(binary, workload, seed, seconds, trace, tiny, deadline):
    """Runs the benchmark binary once; returns (exit code, result, stdout)."""
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              env=env())
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in time")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except (IndexError, ValueError):
        print(proc.stdout, end="", file=sys.stderr)
        fail(f"{workload} exited {proc.returncode} without a result")
    return proc.returncode, result, lines[:-1]


def mismatches(result, trace):
    """Differences between a result's metrics and BENCHMARK.json's list."""
    spec = json.loads(SPEC.read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = [f"missing {n} [{u}]" for n, u in declared.items()
                if n not in got]
    problems += [f"undeclared {n}" for n in got if n not in declared]
    problems += [f"{n} in {got[n]}, declared {u}" for n, u in declared.items()
                 if n in got and got[n] != u]
    return problems


def selfcheck(binary):
    spec = json.loads(SPEC.read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, lines = run_workload(binary, workload, 1, 0.1, trace,
                                               True, time.monotonic() + 300)
            problems = mismatches(result, trace)
            # The simulation outcomes are printed in the table, not bounded.
            printed = {line.split()[0] for line in lines if line.strip()}
            problems += [f"table lacks {n}" for n in OUTCOMES
                         if not trace and n not in printed]
            if code != 0 or not result["correct"]:
                problems.append(f"exit {code}, correct={result['correct']}")
            print(f"{workload:16} trace={trace} "
                  f"{len(result['metrics']):3} metrics  "
                  f"{'ok' if not problems else '; '.join(problems)}")
            ok = ok and not problems
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if args.selfcheck:
        return selfcheck(binary)

    before = cpu_times()
    code, result, lines = run_workload(binary, args.workload, args.seed,
                                       args.seconds, args.trace, False,
                                       time.monotonic() + RUN_LIMIT_S)
    ticks = [b - a for a, b in zip(before, cpu_times())]
    for line in lines:
        if line.startswith('{"provenance"'):
            record = json.loads(line)
            record["provenance"].update(provenance())
            # Share of the machine's CPU time the hypervisor gave to other
            # guests while this ran: a run with a high share is suspect.
            record["provenance"]["cpu_steal_share"] = round(
                ticks[7] / max(1, sum(ticks)), 4) if len(ticks) > 7 else None
            line = json.dumps(record)
        print(line)
    problems = mismatches(result, args.trace)
    for problem in problems:
        print(f"perfbench: metric set: {problem}", file=sys.stderr)
    if problems:
        result["correct"] = False
        result["failed"] = result["attempted"]
        code = code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
