#!/usr/bin/env python3
"""End-to-end benchmark of the SDM-PEB repository.

Builds perfbench/ (which compiles the repository's libraries from src/)
into .bench_build/, runs one workload and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --list       # metric names, as in BENCHMARK.json
  python3 perfbench/run.py --selftest   # names match BENCHMARK.json, and a
                                        # wrong reference makes every
                                        # workload fail its checks

Run from the root of a checkout. --trace 1 reports the per-layer metrics of
a traced run and validates its Chrome trace with scripts/check_trace.py.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = BUILD_DIR / "out"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# The summary line main.cpp's report_latency() prints; group 1 is the p50.
LATENCY_LINE = re.compile(r"latency: .* p50 ([0-9.]+) ")

# Spans every traced run of a workload must contain.
REQUIRED_SPANS = {
    "surrogate_flow": ["flow.clip", "litho.aerial", "litho.dill", "core.predict",
                       "core.label_inverse", "develop.rate", "develop.eikonal",
                       "develop.cd", "core.stage1.scan", "core.decoder"],
    "rigorous_flow": ["flow.clip", "litho.aerial", "litho.dill", "peb.bake",
                      "develop.rate", "develop.eikonal", "develop.cd"],
    "serve_open_loop": ["serve.request", "serve.queue_wait",
                        "serve.protocol.encode", "serve.protocol.decode",
                        "serve.submit"],
    "train_steps": ["train.step", "train.forward", "train.loss",
                    "train.backward", "train.optim"],
}


def die(msg: str, code: int = 1) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_child(cmd: list, timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run in a process group of its own; on timeout, SIGTERM or
    any other way out, the whole group (make and compilers too) is killed
    and waited for before the exception propagates."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build_jobs() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build() -> None:
    for needed in (ROOT / "src" / "CMakeLists.txt",
                   ROOT / "cmake" / "gen_build_info.cmake"):
        if not needed.is_file():
            die(f"repository sources missing ({needed.relative_to(ROOT)}); "
                "run from the root of a full checkout", 2)
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(build_jobs())])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            rc = run_child(cmd, BUILD_TIMEOUT_S, stdout=log,
                           stderr=subprocess.STDOUT, cwd=ROOT).returncode
            if rc != 0:
                log.flush()
                tail = log_path.read_text(encoding="utf-8").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed ({' '.join(cmd)}); log in {log_path}")


def benchmark_json() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die("BENCHMARK.json not found at the checkout root", 2)
    return json.loads(path.read_text(encoding="utf-8"))


def run_binary(args: list, timeout: float) -> list:
    try:
        proc = run_child([str(BINARY)] + args, timeout,
                         stdout=subprocess.PIPE, text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"benchmark binary exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        die(f"benchmark binary exited with {proc.returncode}")
    return proc.stdout.splitlines()


def list_metrics() -> dict:
    names = {"end_to_end": [], "per_layer": [], "workload": []}
    for line in run_binary(["--list"], 60):
        kind, name = line.split()[:2]
        names[kind].append(name)
    return names


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 extra=None) -> tuple:
    """Run one workload; returns (summary lines, result dict)."""
    lines = run_binary(["--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace",
                        "1" if trace else "0", "--out", str(OUT_DIR)]
                       + (extra or []), RUN_TIMEOUT_S)
    if not lines:
        die("benchmark binary printed nothing")
    return lines[:-1], json.loads(lines[-1])


def rt_ratio_line(workload: str, seed: int, lines: list) -> list:
    """Record this run's median clip latency (from the summary's latency
    line); when both flows have run with this seed, return the paper-style
    RT line (rigorous / surrogate median s per clip)."""
    if workload not in ("surrogate_flow", "rigorous_flow"):
        return []
    found = [m for m in (LATENCY_LINE.search(line) for line in lines) if m]
    if not found:
        return []
    record = OUT_DIR / f"last_{workload}.json"
    record.write_text(json.dumps(
        {"seed": seed, "p50_ms": float(found[0].group(1))}), encoding="utf-8")
    try:
        sur = json.loads((OUT_DIR / "last_surrogate_flow.json").read_text())
        rig = json.loads((OUT_DIR / "last_rigorous_flow.json").read_text())
    except (OSError, ValueError):
        return []
    if sur["seed"] != rig["seed"]:
        return []
    return [f"  derived: RT ratio rigorous_flow / surrogate_flow = "
            f"{rig['p50_ms'] / sur['p50_ms']:.2f}x "
            f"({rig['p50_ms'] / 1e3:.3f} s vs {sur['p50_ms'] / 1e3:.3f} s "
            f"median per clip, seed {seed}; paper Table II: 147 s vs 1.06 s)"]


def check_trace(workload: str) -> tuple:
    """Validate the traced run's Chrome trace; returns (passed, report)."""
    trace = OUT_DIR / f"trace_{workload}.json"
    cmd = [sys.executable, str(ROOT / "scripts" / "check_trace.py"), str(trace)]
    for span in REQUIRED_SPANS[workload]:
        cmd += ["--require-span", span]
    proc = run_child(cmd, 60, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                     text=True)
    return proc.returncode == 0, "  " + proc.stdout.strip()


def selftest(spec: dict) -> int:
    names = list_metrics()
    problems = []
    for kind in ("end_to_end", "per_layer"):
        expected = [m["name"] for m in spec[kind]]
        if names[kind] != expected:
            problems.append(f"{kind} names differ from BENCHMARK.json: "
                            f"{sorted(set(names[kind]) ^ set(expected))}")
    if names["workload"] != [w["name"] for w in spec["workloads"]]:
        problems.append("workload names differ from BENCHMARK.json")
    for workload in names["workload"]:
        _, result = run_workload(workload, 1, 2, False, ["--wrong-reference"])
        share = result["failed"] / result["attempted"]
        print(f"selftest: {workload} with a wrong reference: failed_share "
              f"{share:.3f}, correct={result['correct']}")
        if share <= 0 or result["correct"]:
            problems.append(f"{workload}: wrong reference not detected")
    for p in problems:
        print(f"selftest: FAIL: {p}")
    print("selftest: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main() -> int:
    # SIGTERM unwinds like an exception, so run_child() stops its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec = benchmark_json()
    build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.list:
        names = list_metrics()
        print("\n".join(names["end_to_end"] + names["per_layer"]))
        return 0
    if args.selftest:
        return selftest(spec)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        die("--workload, --seed, --seconds and --trace are required", 2)
    if args.workload not in REQUIRED_SPANS:
        die(f"unknown workload '{args.workload}'", 2)

    started = time.monotonic()
    lines, result = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    kind = "per_layer" if args.trace else "end_to_end"
    expected = [m["name"] for m in spec[kind]]
    if list(result["metrics"]) != expected:
        die(f"reported {kind} metrics do not match BENCHMARK.json")
    if args.trace:
        passed, report = check_trace(args.workload)
        lines.append(report)
        if not passed:
            result["correct"] = False
            lines.append("  CHECK FAILED: trace rejected by check_trace.py")
    else:
        lines += rt_ratio_line(args.workload, args.seed, lines)
    share = result["failed"] / max(1, result["attempted"])
    lines.append(f"  failed_share {share:.6f} ({result['failed']} of "
                 f"{result['attempted']}); run took "
                 f"{time.monotonic() - started:.1f} s")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
