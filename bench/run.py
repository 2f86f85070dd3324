"""The qdha benchmark: timed verification sweeps, end to end and by layer.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every pass runs the workload's sweep list once in a fresh interpreter
(``bench/worker.py``), one process at a time, so each pass pays the import,
the instance loading and every cache fill, as ``qdha verify`` does.

``--trace 0`` repeats passes for about ``--seconds`` seconds (at least three)
and reports medians of the end-to-end metrics.  Times are given at the
reference speed of ``bench/speed.py``: each is the time the clocks read,
scaled by the speed of the core sampled while it ran, because the speed of a
shared host's cores drifts far more than the bound on a time metric allows.
The clock readings and speeds are recorded beside them.  ``--trace 1`` runs one
untraced pass and two traced passes and reports the per-layer metrics; the
two traced passes must give identical counters.

Every sweep report is checked against ``bench/references.json``.  A sweep
that raises or returns FAIL counts as failed; a sweep that returns PASS with
a report other than its reference is a wrong answer and makes the run
incorrect.  The last line of stdout is the result as one JSON object; the
line before it records the environment and the samples behind each metric.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import ROOT, WORKLOADS, all_sweeps

BENCH = Path(__file__).resolve().parent
MIN_PASSES = 3
SETUP_SAMPLES_PER_PASS = 5
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, mode: str) -> dict:
    """One worker in a fresh interpreter: mode "setup", "0" (a pass) or "1" (a traced pass)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {workload} pass ran over {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"a {workload} pass exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_reports(passes: list[dict], references: dict) -> tuple[int, int, list[str]]:
    """(sweeps attempted, sweeps failed, wrong answers) over all passes."""
    attempted = failed = 0
    wrong = []
    for p in passes:
        for s in p["sweeps"]:
            attempted += 1
            key = f"{s['instance']}/{s['check']}"
            report = s["report"]
            if report is None:
                print(f"{key} raised:\n{s['error']}", file=sys.stderr)
            if report is None or not report["pass"]:
                failed += 1
            elif report != references[key]:
                failed += 1
                wrong.append(key)
    return attempted, failed, wrong


def summary(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    tail = None
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            tail = {"p": p, "value": statistics.quantiles(samples, n=100, method="inclusive")[p - 1]}
            break
    return {"n": n, "median": statistics.median(samples), "tail": tail}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict, dict]:
    passes, setups, durations = [], [], []
    start = time.perf_counter()
    while True:
        # extra set-up-only interpreters steady the short set-up median
        t0 = time.perf_counter()
        setups += [run_pass(workload, seed, "setup") for _ in range(SETUP_SAMPLES_PER_PASS)]
        passes.append(run_pass(workload, seed, "0"))
        setups.append(passes[-1])
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            break
    samples = {name: [p[name] for p in passes]
               for name in ("wall_s", "cpu_s", "peak_rss_mb", "raw_wall_s", "raw_cpu_s", "speed")}
    samples["setup_s"] = [s["setup_s"] for s in setups]
    samples["raw_setup_s"] = [s["raw_setup_s"] for s in setups]
    samples["setup_speed"] = [s["setup_speed"] for s in setups]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return passes, metrics, {name: summary(values) for name, values in samples.items()}


def per_layer(workload: str, seed: int) -> tuple[list[dict], dict, dict, list[str]]:
    plain = run_pass(workload, seed, "0")
    traced = [run_pass(workload, seed, "1") for _ in range(2)]
    problems = []
    if traced[0]["counters"] != traced[1]["counters"]:
        problems.append("counters differ between two traced passes")
    reports = [[s["report"] for s in p["sweeps"]] for p in (plain, *traced)]
    if any(r != reports[0] for r in reports[1:]):
        problems.append("traced reports differ from untraced ones")
    metrics = dict(traced[0]["counters"])
    for layer in LAYERS:
        name = f"{layer}.self_s"
        metrics[name] = statistics.median(t["self_s"][name] * t["speed"] for t in traced)
    metrics["trace.overhead"] = statistics.median(t["wall_s"] for t in traced) / plain["wall_s"]
    own = {(s["instance"], s["check"]): s["s"] * plain["speed"] for s in plain["sweeps"]}
    for sweep in all_sweeps():
        metrics["cli.{}.{}.s".format(*sweep)] = own.get(sweep, 0.0)
    info = {name: [p[name] for p in (plain, *traced)]
            for name in ("wall_s", "raw_wall_s", "speed")}
    return [plain, *traced], metrics, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "qdha" / "__init__.py").is_file():
            raise BenchError(f"no qdha sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        references = json.loads((BENCH / "references.json").read_text())
        if args.trace:
            passes, metrics, info, problems = per_layer(args.workload, args.seed)
            declared = spec["per_layer"]
        else:
            passes, metrics, info = end_to_end(args.workload, args.seed, args.seconds)
            problems = []
            declared = spec["end_to_end"]
        attempted, failed, wrong = check_reports(passes, references)
        problems += [f"{key}: PASS with a report other than the reference" for key in wrong]
        if args.trace:
            metrics["fail_share"] = failed / attempted
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "sweeps": {f"{s['instance']}/{s['check']}": (s["report"] or {}).get("pass")
                   for s in passes[0]["sweeps"]},
        "samples": info,
    }, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
