"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/worker.py <workload> <seed> <mode>

Imports ``qdha`` from the checkout's ``src`` and loads every instance of the
workload.  Mode ``setup`` stops there; mode ``0`` (untraced) or ``1``
(traced) then runs the sweep list once.  Prints one JSON line with the set-up
time and, for a pass, its wall and CPU time, the peak resident set, each
sweep's time and report, and (traced) the layer counters and self times.
Set-up, wall and CPU times are given at the reference speed of
``bench/speed.py`` and, with a ``raw_`` prefix, as the clocks read them.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback

from speed import SpeedProbe
from workloads import ROOT, WORKLOADS, instance_data


def main(workload: str, seed: int, mode: str) -> dict:
    sweeps = WORKLOADS[workload]
    probe = SpeedProbe()
    with probe.timed() as setup:
        sys.path.insert(0, str(ROOT / "src"))
        import qdha
        from qdha.cli import CHECK_FUNCS
        if not qdha.__file__.startswith(str(ROOT / "src")):
            raise ImportError(f"qdha imported from {qdha.__file__}, not from the checkout")
        tracer = None
        if mode == "1":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        from qdha.instances import instance_from_data
        specs = {name: instance_from_data(instance_data(name)) for name, _ in sweeps}
    out = {"setup_s": setup.wall, "raw_setup_s": setup.raw_wall, "setup_speed": setup.speed}
    if mode == "setup":
        return out

    results = []
    with probe.timed() as run:
        for name, check in sweeps:
            sweep = CHECK_FUNCS[check]
            if tracer is not None:
                sweep = tracer.span("cli", sweep)
            spec = specs[name]
            start = time.perf_counter()
            try:
                report, error = sweep(spec, spec.ball, seed), None
            except Exception:  # a sweep that raises counts as failed, the pass goes on
                report, error = None, traceback.format_exc(limit=3)
            results.append({"instance": name, "check": check, "s": time.perf_counter() - start,
                            "report": report, "error": error})
    out.update({
        "wall_s": run.wall,
        "cpu_s": run.cpu,
        "raw_wall_s": run.raw_wall,
        "raw_cpu_s": run.raw_cpu,
        "speed": run.speed,
        "speed_samples": run.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sweeps": results,
    })
    if tracer is not None:
        out["counters"] = tracer.counters()
        out["self_s"] = tracer.layer_self_s()
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]), sort_keys=True))
