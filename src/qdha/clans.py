"""Clan decomposition of the weight space and genericity of clans.

The walls are the vanishing loci of affine roots where the order function is
at least 1.  Regions of the resulting finite arrangement are encoded by sign
vectors; a region is a clan, and it is generic when its recession cone is full
dimensional.  Alcove breadth-first search is cross-checked against an exact
feasibility sweep over all sign assignments, so a clan missed by the search is
an error rather than a silent gap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import fm
from .orderfun import OrderFunction
from .rootsys import AffineRoot, Vec
from .weyl import AffineWeylElement, AffineWeylGroup

Sign = tuple[int, ...]  # entries ±1, one per wall


def wall_roots(omega: OrderFunction) -> list[AffineRoot]:
    """One positive representative per wall carrying an order value >= 1."""
    walls = {}
    for a, v in omega.support.items():
        if v >= 1:
            pos = a if omega.ars.is_positive(a) else AffineRoot(tuple(-c for c in a.alpha), -a.level)
            walls[pos] = True
    return sorted(walls)


def alcove_point(group: AffineWeylGroup, w: AffineWeylElement) -> Vec:
    """Interior sample point of the alcove w^{-1}(fundamental alcove)."""
    return group.act_point(group.inverse(w), group.alcove_point)


def sign_vector_at(omega: OrderFunction, walls: Sequence[AffineRoot], x: Vec) -> Sign:
    out = []
    for a in walls:
        v = omega.ars.evaluate(a, x)
        if v == 0:
            raise ValueError(f"sample point {x} lies on the wall of {a}")
        out.append(1 if v > 0 else -1)
    return tuple(out)


def clan_of(omega: OrderFunction, w: AffineWeylElement,
            walls: Sequence[AffineRoot] | None = None) -> Sign:
    """The sign vector of the alcove w^{-1} nu_0."""
    walls = list(walls) if walls is not None else wall_roots(omega)
    return sign_vector_at(omega, walls, alcove_point(omega.group, w))


def sign_vector_feasible(omega: OrderFunction, walls: Sequence[AffineRoot], sigma: Sign) -> bool:
    """Exact feasibility of the open region with the given wall signs."""
    rs = omega.group.rs
    constraints = []
    for s, a in zip(sigma, walls):
        coeffs = [s * rs.pair_root_coroot(a.alpha, rs.simple_root(i)) for i in range(rs.rank)]
        constraints.append(fm.make_constraint(coeffs, -s * a.level, strict=True))
    return fm.feasible(constraints, rs.rank)


def is_generic_sign(omega: OrderFunction, walls: Sequence[AffineRoot], sigma: Sign) -> bool:
    """Full-dimensionality of the recession cone {v : s <da, v> >= 0 for all walls}."""
    rs = omega.group.rs
    rows = [
        [s * rs.pair_root_coroot(a.alpha, rs.simple_root(i)) for i in range(rs.rank)]
        for s, a in zip(sigma, walls)
    ]
    return fm.strictly_feasible_cone(rows, rs.rank)


class IncompleteExploration(RuntimeError):
    pass


@dataclass
class ClanDecomposition:
    walls: list[AffineRoot]
    clans: list[Sign]                      # sorted sign vectors
    representative: dict[Sign, AffineWeylElement]
    generic: dict[Sign, bool]

    def clan_count(self) -> int:
        return len(self.clans)

    def generic_clans(self) -> list[Sign]:
        return [s for s in self.clans if self.generic[s]]


def enumerate_clans(omega: OrderFunction, exploration_bound: int | None = None) -> ClanDecomposition:
    """All clans, by alcove search cross-checked against exact sign feasibility."""
    group = omega.group
    walls = wall_roots(omega)
    if exploration_bound is None:
        exploration_bound = 2 * (omega.support_level_radius() + 1) * group.rs.coxeter_number
    found: dict[Sign, AffineWeylElement] = {}
    for g in group.ball(exploration_bound):
        sigma = clan_of(omega, g, walls)
        if sigma not in found:
            found[sigma] = g
    # exact cross-check: every feasible assignment must have been seen
    feasible_signs = []
    for mask in range(1 << len(walls)):
        sigma = tuple(1 if (mask >> k) & 1 else -1 for k in range(len(walls)))
        if sign_vector_feasible(omega, walls, sigma):
            feasible_signs.append(sigma)
    missing = [s for s in feasible_signs if s not in found]
    if missing:
        raise IncompleteExploration(
            f"feasible sign vectors unreached by the alcove search: {missing}; "
            f"raise the exploration bound above {exploration_bound}"
        )
    extra = [s for s in found if s not in feasible_signs]
    if extra:
        raise IncompleteExploration(f"search produced infeasible sign vectors {extra}")
    clans = sorted(feasible_signs)
    generic = {s: is_generic_sign(omega, walls, s) for s in clans}
    return ClanDecomposition(
        walls=walls,
        clans=clans,
        representative={s: found[s] for s in clans},
        generic=generic,
    )


def generic_reference_elements(omega: OrderFunction, gamma: Vec) -> dict[Sign, list]:
    """The clans of the alcoves w^{-1} X^{-gamma} nu_0 for finite w.

    These land exactly in the generic clans; used as an independent check of
    the cone-based genericity test.
    """
    group = omega.group
    walls = wall_roots(omega)
    out: dict[Sign, list] = {}
    for w in group.finite.elements:
        u = group.compose(group.translation(gamma), group.from_finite(w))
        # u^{-1} nu_0 = w^{-1} X^{-gamma} nu_0
        sigma = clan_of(omega, u, walls)
        out.setdefault(sigma, []).append(w)
    return out
