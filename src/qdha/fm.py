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
from math import lcm
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


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank of a matrix of ints or ``Fraction``s by fraction-free (Bareiss)
    elimination: each row is scaled by the lcm of its denominators, and every
    entry stays an integer minor, so each division by the last pivot is exact."""
    m = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
    n, r, last = len(m), 0, 1
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, n) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p, top = m[r][col], m[r]
        for i in range(r + 1, n):
            a = m[i][col]
            m[i] = [(p * x - a * y) // last for x, y in zip(m[i], top)]
        last, r = p, r + 1
    return r
