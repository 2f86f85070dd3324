"""The benchmark's workloads: fixed lists of verification sweeps.

Each sweep is an (instance, check) pair run through ``qdha.cli.CHECK_FUNCS``
exactly as ``qdha verify`` runs it, with the benchmark seed passed as the
sweep seed.  Instances are either files under ``instances/`` or data owned by
the benchmark, loaded with ``qdha.instances.instance_from_data``.
"""
from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Benchmark-owned instances.
OWN_INSTANCES = {
    # G2 with a generic base point, order one on the two finite simple roots.
    "g2_generic": {
        "type": "G2",
        "lambda0": ["1/5", "1/7"],
        "omega": [
            {"root": {"alpha": [1, 0], "level": 0}, "value": 1},
            {"root": {"alpha": [0, 1], "level": 0}, "value": 1},
        ],
    },
    # The base point of instances/a2_wall.json (on the alpha_1 wall) with only
    # the wall's order -1 on +-alpha_1.  The stabilizer Demazure trace is
    # non-trivial as in a2_wall, but the frobenius sweep costs about a third.
    "a2_wall_lite": {
        "type": "A2",
        "lambda0": ["1/7", "2/7"],
        "omega": [
            {"root": {"alpha": [1, 0], "level": 0}, "value": -1},
            {"root": {"alpha": [-1, 0], "level": 0}, "value": -1},
        ],
    },
}

WORKLOADS: dict[str, list[tuple[str, str]]] = {
    # Gram matrix and Frobenius trace of the finite quotient at a wall point:
    # Poly/RatFunc arithmetic and the normal-form peel dominate.
    "finite-frobenius": [("a2_wall_lite", "frobenius")],
    # Idempotent truncation: deep lifts, sigma, coset representatives and the
    # affine normal-form peel, with small repeated root-system/Weyl keys.
    "lift-iso": [("c2_generic", "iso"), ("c2_generic", "gamma"),
                 ("c2_generic", "product"), ("g2_generic", "product")],
    # Clan enumeration, Fourier-Motzkin, growth and the kernel criterion over
    # many distinct affine elements.  The c2_generic kernel sweep is a known
    # failure; its reference is the passing report.
    "clan-kernel": [("a2_generic", "kernel"), ("a2_wall", "kernel"),
                    ("c2_generic", "kernel")],
}


def instance_data(name: str) -> dict:
    """The JSON description of a named instance."""
    if name in OWN_INSTANCES:
        return OWN_INSTANCES[name]
    with open(ROOT / "instances" / f"{name}.json") as fh:
        return json.load(fh)


def all_sweeps() -> list[tuple[str, str]]:
    return [sweep for sweeps in WORKLOADS.values() for sweep in sweeps]
