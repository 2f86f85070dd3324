"""Exact rational linear algebra: Fourier-Motzkin elimination and matrix rank.

A constraint is (coeffs, rhs, strict) meaning ``coeffs . x > rhs`` (strict) or
``coeffs . x >= rhs``.  Elimination combines every lower bound on a variable
with every upper bound; a combination is strict when either parent is.  The
system is feasible over the rationals exactly when no contradictory constant
constraint survives.  The dimension of a polyhedral cone is the number of
variables minus the rank of its implicit equalities.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Constraint = tuple[tuple[Fraction, ...], Fraction, bool]


def make_constraint(coeffs: Sequence, rhs, strict: bool = True) -> Constraint:
    return (tuple(Fraction(c) for c in coeffs), Fraction(rhs), bool(strict))


def _eliminate(constraints: list[Constraint], var: int) -> list[Constraint]:
    lowers, uppers, rest = [], [], []
    for coeffs, rhs, strict in constraints:
        c = coeffs[var]
        if c > 0:
            lowers.append((coeffs, rhs, strict))
        elif c < 0:
            uppers.append((coeffs, rhs, strict))
        else:
            rest.append((coeffs, rhs, strict))
    for lc, lr, ls in lowers:
        for uc, ur, us in uppers:
            a, b = lc[var], -uc[var]
            coeffs = tuple(b * x + a * y for x, y in zip(lc, uc))
            rest.append((coeffs, b * lr + a * ur, ls or us))
    return rest


def feasible(constraints: list[Constraint], nvars: int) -> bool:
    """Whether the system admits a rational solution."""
    current = list(constraints)
    for var in range(nvars):
        current = _eliminate(current, var)
        # drop duplicates to keep the blowup in check
        current = list(dict.fromkeys(current))
    for coeffs, rhs, strict in current:
        if any(c != 0 for c in coeffs):
            raise AssertionError("elimination left a non-constant constraint")
        if strict and not (0 > rhs):
            return False
        if not strict and not (0 >= rhs):
            return False
    return True


def cone_dimension(rows: list[Sequence], nvars: int) -> int:
    """Dimension of the cone ``row . v >= 0`` for all rows.

    Its implicit equalities are the rows that vanish on the whole cone, those
    that cannot be made strictly positive on it; they span the orthogonal
    complement of the cone's linear hull.
    """
    cone = [make_constraint(r, 0, strict=False) for r in rows]
    equalities = [list(coeffs) for coeffs, rhs, _ in cone
                  if not feasible(cone + [(coeffs, rhs, True)], nvars)]
    return nvars - rank(equalities)


def rank(rows: list[list[Fraction]]) -> int:
    """Exact rank by Gauss-Jordan elimination; reduces ``rows`` in place."""
    n = len(rows)
    rank = 0
    col = 0
    ncols = n and len(rows[0])
    while rank < n and col < ncols:
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank
