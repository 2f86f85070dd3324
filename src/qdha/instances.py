"""Instance files: JSON descriptions of a root system, base point and order data.

Schema::

    {
      "type": "A2",                     # root system label
      "lambda0": ["1/5", "1/7"],        # base point, coroot coordinates
      "omega": [                         # explicit support (alternative: ddaha_h)
        {"root": {"alpha": [1, 0], "level": 0}, "value": 1},
        ...
      ],
      "ddaha_h": "1/2",                 # or {"<norm2>": "<value>"} per length class
      "gamma": ["-1", "-1"],            # optional override of the deep lift
      "ball": 8                          # default sweep radius
    }

Exactly one of "omega" / "ddaha_h" must be present.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra
from .bqha import BAlgebra
from .kz import GammaChoice, check_gamma, choose_gamma, integral_b_order_function
from .orderfun import OrderFunction, from_ddaha_h
from .rootsys import AffineRoot, Vec, affinise
from .weyl import AffineWeylGroup


@dataclass
class InstanceSpec:
    label: str
    group: AffineWeylGroup
    omega: OrderFunction
    gamma_choice: GammaChoice
    ball: int = 8
    ddaha_h: object | None = None

    def algebra(self) -> Algebra:
        return Algebra(self.omega)

    def b_algebra(self) -> BAlgebra:
        return BAlgebra(integral_b_order_function(self.omega))

    def digest(self) -> dict:
        return {
            "type": self.label,
            "lambda0": [str(c) for c in self.omega.base_point],
            "support": [
                {"root": {"alpha": list(a.alpha), "level": a.level}, "value": v}
                for a, v in sorted(self.omega.support.items())
            ],
            "gamma": [str(c) for c in self.gamma_choice.gamma],
        }


def _parse_h(raw):
    if isinstance(raw, dict):
        return {Fraction(k): Fraction(v) for k, v in raw.items()}
    return Fraction(raw)


def _integer(x, key: str) -> int:
    """x as an int; ValueError naming key if the exact value of x is not an integer."""
    q = Fraction(x)
    if q.denominator != 1:
        raise ValueError(f"'{key}' is {x}; it must be an integer")
    return int(q)


def _rank_vector(data: dict, key: str, rank: int) -> Vec:
    xs = tuple(Fraction(c) for c in data[key])
    if len(xs) != rank:
        raise ValueError(f"'{key}' needs {rank} entries, one per simple root; it has {len(xs)}")
    return xs


def instance_from_data(data: dict) -> InstanceSpec:
    label = data["type"]
    group = AffineWeylGroup(affinise(label))
    lam0 = _rank_vector(data, "lambda0", group.rank)
    has_omega = "omega" in data
    has_h = "ddaha_h" in data
    if has_omega == has_h:
        raise ValueError("an instance needs exactly one of 'omega' or 'ddaha_h'")
    ddaha_h = None
    if has_omega:
        support = {}
        for item in data["omega"]:
            root = item["root"]
            a = AffineRoot(tuple(_integer(c, "alpha") for c in root["alpha"]),
                           _integer(root["level"], "level"))
            support[a] = _integer(item["value"], "value")
        omega = OrderFunction(group, lam0, support)
    else:
        ddaha_h = _parse_h(data["ddaha_h"])
        window = _integer(data.get("window", 12), "window")
        omega = from_ddaha_h(group, ddaha_h, lam0, window=window)
    if "gamma" in data:
        margin = omega.support_level_radius() + 1
        gamma = check_gamma(group, _rank_vector(data, "gamma", group.rank), margin)
        gc = GammaChoice(gamma=gamma, margin=margin)
    else:
        gc = choose_gamma(omega)
    ball = _integer(data.get("ball", 8), "ball")
    if ball < 0:
        raise ValueError(f"'ball' is {ball}; a length bound is >= 0")
    return InstanceSpec(
        label=label,
        group=group,
        omega=omega,
        gamma_choice=gc,
        ball=ball,
        ddaha_h=ddaha_h,
    )


def load_instance(path) -> InstanceSpec:
    with open(path) as fh:
        data = json.load(fh)
    return instance_from_data(data)


# ----- the canned instance of the worked example -----

def rank1_quarter() -> InstanceSpec:
    """Base point 1/4 in the rank-1 affinisation, order one on the affine basis."""
    return instance_from_data({
        "type": "A1",
        "lambda0": ["1/4"],
        "omega": [
            {"root": {"alpha": [1], "level": 0}, "value": 1},
            {"root": {"alpha": [-1], "level": 1}, "value": 1},
        ],
    })
