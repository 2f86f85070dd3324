"""The benchmark's sweeps give their reference reports.

Reads ``bench/workloads.py`` and ``bench/references.json`` and calls each sweep
as ``bench/worker.py`` calls it, ``CHECK_FUNCS[check](spec, spec.ball, seed)``
on ``instance_from_data``, comparing the report after the JSON round trip the
worker's output line makes.  The benchmark counts a sweep that raises, FAILs
or returns another report as failed, so a change that moves a report or that
signature fails here first.
"""
import importlib.util
import json
from pathlib import Path

import pytest

from qdha.cli import CHECK_FUNCS
from qdha.instances import instance_from_data

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
REFERENCES = json.loads((BENCH / "references.json").read_text())
SWEEPS = WORKLOADS.all_sweeps()


def sweep_report(name, check, seed):
    spec = instance_from_data(WORKLOADS.instance_data(name))
    return json.loads(json.dumps(CHECK_FUNCS[check](spec, spec.ball, seed)))


def test_every_sweep_has_a_reference():
    assert sorted(f"{name}/{check}" for name, check in SWEEPS) == sorted(REFERENCES)


@pytest.mark.parametrize("name,check", SWEEPS, ids=[f"{n}/{c}" for n, c in SWEEPS])
def test_sweep_report_equals_its_reference_at_seed_3(name, check):
    assert sweep_report(name, check, 3) == REFERENCES[f"{name}/{check}"]


def test_a2_wall_lite_frobenius_fails_on_its_known_seeds():
    # the sampled trace-symmetry pairs fail at this wall point on some seeds
    # and the benchmark's failed count depends on exactly which
    failing = [seed for seed in range(1, 21)
               if not sweep_report("a2_wall_lite", "frobenius", seed)["pass"]]
    assert failing == [1, 5, 6, 8, 9, 11, 16]
