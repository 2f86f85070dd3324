"""Clan decomposition of the weight space and the dimensions of the clans' recession cones.

The walls are the vanishing loci of affine roots where the order function is
at least 1.  Regions of the resulting finite arrangement are encoded by sign
vectors; a region is a clan.  Its recession cone ``{v : s_a <da, v> >= 0}``
has an exact dimension (``fm.cone_dimension``), and the clan is generic when
that dimension is the rank.  The census walks the alcoves ``g^{-1} nu_0`` by
``AffineWeylGroup.walk`` from ``alcove_point`` with the wall roots and reads
each sign vector off the walked wall images; it is cross-checked against an
exact feasibility sweep over all sign assignments, so a clan missed by the walk
is an error rather than a silent gap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import fm
from .orderfun import OrderFunction
from .rootsys import AffineRoot
from .weyl import AffineWeylElement, AffineWeylGroup, WalkEdge, WalkState

Sign = tuple[int, ...]  # entries ±1, one per wall


def wall_roots(omega: OrderFunction) -> list[AffineRoot]:
    """One positive representative per wall carrying an order value >= 1."""
    walls = {}
    for a, v in omega.support.items():
        if v >= 1:
            pos = a if omega.ars.is_positive(a) else AffineRoot(tuple(-c for c in a.alpha), -a.level)
            walls[pos] = True
    return sorted(walls)


def walked_signs(group: AffineWeylGroup,
                 found: dict[WalkState, WalkEdge]) -> Iterator[tuple[WalkState, Sign]]:
    """Each state ``(g lambda, g walls)`` of a walk with the sign vector of the alcove g^{-1} nu_0.

    Since ``a(g^{-1} x) = (g a)(x)`` and nu_0 lies inside the fundamental
    alcove, ``a(g^{-1} nu_0) > 0`` exactly when the image ``g a`` is a positive
    affine root, so no alcove point is built and no root is evaluated.
    """
    rs = group.rs
    positive = {i for i, alpha in enumerate(rs.roots) if rs.is_positive_root(alpha)}
    for state in found:
        yield state, tuple(1 if k > 0 or (k == 0 and i in positive) else -1 for i, k in state[1])


def sign_vector_feasible(omega: OrderFunction, walls: Sequence[AffineRoot], sigma: Sign) -> bool:
    """Exact feasibility of the open region with the given wall signs."""
    rs = omega.group.rs
    constraints = []
    for s, a in zip(sigma, walls):
        coeffs = [s * rs.pair_root_coroot(a.alpha, rs.simple_root(i)) for i in range(rs.rank)]
        constraints.append(fm.make_constraint(coeffs, -s * a.level, strict=True))
    return fm.feasible(constraints, rs.rank)


def cone_dimension(omega: OrderFunction, walls: Sequence[AffineRoot], sigma: Sign) -> int:
    """The dimension of the recession cone {v : s <da, v> >= 0 for all walls}."""
    rs = omega.group.rs
    rows = [
        [s * rs.pair_root_coroot(a.alpha, rs.simple_root(i)) for i in range(rs.rank)]
        for s, a in zip(sigma, walls)
    ]
    return fm.cone_dimension(rows, rs.rank)


class IncompleteExploration(RuntimeError):
    pass


@dataclass
class ClanDecomposition:
    walls: list[AffineRoot]
    clans: list[Sign]                      # sorted sign vectors
    representative: dict[Sign, AffineWeylElement]
    dimension: dict[Sign, int]             # of each clan's recession cone
    generic: dict[Sign, bool]              # dimension == rank

    def clan_count(self) -> int:
        return len(self.clans)

    def generic_clans(self) -> list[Sign]:
        return [s for s in self.clans if self.generic[s]]


def enumerate_clans(omega: OrderFunction, exploration_bound: int | None = None) -> ClanDecomposition:
    """All clans, by the alcove walk cross-checked against exact sign feasibility.

    A clan's representative is the first walked element of its sign, rebuilt
    from the walk's recorded edges.
    """
    group = omega.group
    walls = wall_roots(omega)
    if exploration_bound is None:
        exploration_bound = 2 * (omega.support_level_radius() + 1) * group.rs.coxeter_number
    walked = group.walk(group.alcove_point, exploration_bound, walls)
    found: dict[Sign, WalkState] = {}
    for state, sigma in walked_signs(group, walked):
        found.setdefault(sigma, state)
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
    dimension = {s: cone_dimension(omega, walls, s) for s in clans}
    return ClanDecomposition(
        walls=walls,
        clans=clans,
        representative={s: group.from_word(_edge_word(walked, found[s])) for s in clans},
        dimension=dimension,
        generic={s: d == group.rs.rank for s, d in dimension.items()},
    )


def _edge_word(found: dict[WalkState, WalkEdge], state: WalkState) -> list[int]:
    """The letters of the recorded edges from ``state`` back to the start: a
    word, in group order, of the element that walks the start to ``state``."""
    word = []
    while (edge := found[state])[1] is not None:
        word.append(edge[2])
        state = edge[1]
    return word
