"""Finite root systems and their affinisations, in exact rational arithmetic.

A finite root system is given by its simple roots in an ambient rational vector
space, read once for their Gram matrix and so their integer Cartan matrix.
Everything else is integer work in the simple-root basis: the roots are the
orbit of the simple roots under the simple reflections, each stored by its
integer coordinates, and the pairings, coroots and reflections of every pair of
roots are tables of ints; only a squared length is a ``Fraction``.  Points of
the reflection space E are stored by their coordinates in the simple-coroot
basis, so that lattice membership and root evaluation are exact; a vector of
the coroot lattice, a coroot or a translation, is a tuple of ints, checked once
by ``lattice_vector``.  A weight of an instance is a tuple of ints too, its
numerators over the instance's denominator (``PointKey``).

An affine root ``a = alpha + k`` is the affine function ``x -> <alpha, x> + k``
on E; the affine roots are ``{alpha + k : alpha in R, k in Z}``.  Every system
built here is reduced: no root's double is a root.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from typing import Iterable, Sequence

# a point of E in simple-coroot coordinates, as exact rationals: an input such
# as the base point lambda_0, or a weight written out in a report
Vec = tuple[Fraction, ...]
RootKey = tuple[int, ...]
# a coroot-lattice vector in simple-coroot coordinates
Lattice = tuple[int, ...]
# a weight of an instance: the integer numerators of its simple-coroot
# coordinates over the instance's one denominator D (``weyl.PointsOver``)
PointKey = tuple[int, ...]


def vec(xs: Iterable) -> Vec:
    return tuple(Fraction(x) for x in xs)


def lattice_vector(x: Sequence, what: str = "vector") -> Lattice:
    """x as integer simple-coroot coordinates; ValueError off the coroot lattice."""
    out = tuple(map(int, x))
    if out != tuple(x):
        raise ValueError(f"{what} [{', '.join(map(str, x))}] is not in the coroot lattice")
    return out


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _int_combination(terms: Sequence[tuple[int, int]], x: Sequence[Fraction]) -> Fraction:
    """``sum c * x[i]`` over nonempty integer terms ``(i, c)``, all c nonzero."""
    it = iter(terms)
    i, c = next(it)
    acc = x[i] if c == 1 else x[i] * c
    for i, c in it:
        acc = acc + x[i] if c == 1 else acc + x[i] * c
    return acc


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a square rational linear system by Gaussian elimination."""
    n = len(rows)
    m = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular linear system")
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


@dataclass(frozen=True, order=True)
class AffineRoot:
    """The affine root ``alpha + level`` with ``alpha`` in simple-root coordinates."""

    alpha: RootKey
    level: int

    def __repr__(self) -> str:
        return f"AffineRoot({self.alpha}, {self.level})"


class FiniteRootSystem:
    """An irreducible reduced finite root system with a fixed basis.

    All data is exact: roots are integer vectors in the simple-root basis, and
    every table is built from the integer Cartan matrix of the simple roots.
    """

    def __init__(self, label: str, simple_ambient: list[Vec]):
        self.label = label
        self.rank = len(simple_ambient)
        r = range(self.rank)
        ambient = [vec(v) for v in simple_ambient]
        # Gram matrix of the simple roots; its diagonal over one common denominator
        self.gram = [[_dot(a, b) for b in ambient] for a in ambient]
        den = lcm(*(g.denominator for row in self.gram for g in row))
        length = [int(self.gram[i][i] * den) for i in r]
        # cartan[j][i] = <alpha_j, alpha_i^vee>, refused unless integral before
        # any closure, so that a non-crystallographic basis cannot loop
        cartan = [[2 * self.gram[j][i] / self.gram[i][i] for i in r] for j in r]
        for j, i in product(r, r):
            if cartan[j][i].denominator != 1:
                raise ValueError(f"<alpha_{j}, alpha_{i}^vee> = {cartan[j][i]} is not an integer")
        cartan = [list(map(int, row)) for row in cartan]
        # coords c of varpi_i^vee in the coroot basis: sum_k c_k <alpha_j, alpha_k^vee> = delta_ij;
        # solving refuses linearly dependent simple roots, whose reflections
        # generate an infinite group
        self.fundamental_coweights = [tuple(solve_linear(cartan, [Fraction(int(j == i)) for j in r]))
                                      for i in r]
        # the roots are the orbit of the simple roots under s_i(b) = b - <b, alpha_i^vee> alpha_i;
        # norm[b] is (b, b) over den, constant on the orbit, and rows[b][i] = <b, alpha_i^vee>
        queue = [self.simple_root(i) for i in r]
        norm = dict(zip(queue, length))
        rows: dict[RootKey, list[int]] = {}
        for b in queue:  # grows as new roots are found
            rows[b] = row = [sum(b[j] * cartan[j][i] for j in r if b[j]) for i in r]
            for i in r:
                if row[i]:
                    img = b[:i] + (b[i] - row[i],) + b[i + 1:]
                    if img not in norm:
                        norm[img] = norm[b]
                        queue.append(img)
        self.roots: tuple[RootKey, ...] = tuple(sorted(norm))
        self._root_set = frozenset(self.roots)
        self.positive_roots = tuple(k for k in self.roots if self._key_sign(k) > 0)
        self.highest_root = self._find_highest()
        self.coxeter_number = self.height(self.highest_root) + 1
        self._norm2 = {a: Fraction(norm[a], den) for a in self.roots}
        # a^vee = sum_i a_i (alpha_i, alpha_i) / (a, a) alpha_i^vee, an integer vector
        self._coroot: dict[RootKey, Lattice] = {
            a: tuple(a[i] * length[i] // norm[a] for i in r) for a in self.roots}
        self._pairing: dict[tuple[RootKey, RootKey], int] = {
            (a, b): sum(map(mul, rows[a], self._coroot[b])) for a in self.roots for b in self.roots}
        # <a, x> = sum_i x_i <a, alpha_i^vee>, kept as the nonzero (i, pairing) terms
        self._point_terms: dict[RootKey, tuple[tuple[int, int], ...]] = {
            a: tuple((i, p) for i, p in enumerate(rows[a]) if p) for a in self.roots}
        self._reflect: dict[tuple[RootKey, RootKey], RootKey] = {
            (by, a): tuple(ai - self._pairing[(a, by)] * bi for ai, bi in zip(a, by))
            for by in self.roots for a in self.roots}

    # ----- construction helpers -----

    def _key_sign(self, key: RootKey) -> int:
        if all(c >= 0 for c in key):
            return 1
        if all(c <= 0 for c in key):
            return -1
        raise ValueError(f"{key} has mixed signs; not a root of an irreducible system")

    def _find_highest(self) -> RootKey:
        best = max(self.positive_roots, key=lambda k: (self.height(k), k))
        for k in self.roots:
            if k != best and any(b < c for b, c in zip(best, k)):
                raise ValueError("no dominant highest root; system is not irreducible")
        return best

    # ----- basic queries -----

    def simple_root(self, i: int) -> RootKey:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def is_root(self, key: RootKey) -> bool:
        return key in self._root_set

    def is_positive_root(self, key: RootKey) -> bool:
        return key in self._root_set and self._key_sign(key) > 0

    def height(self, key: RootKey) -> int:
        return sum(key)

    def norm2(self, a: RootKey) -> Fraction:
        """``(a, a)``, the squared length of the root a."""
        return self._norm2[a]

    def pair_root_coroot(self, a: RootKey, b: RootKey) -> int:
        """``<a, b^vee> = 2(a,b)/(b,b)``; an integer for roots a, b."""
        return self._pairing[(a, b)]

    def coroot_coords(self, a: RootKey) -> Lattice:
        """Coordinates of ``a^vee`` in the simple-coroot basis."""
        return self._coroot[a]

    def pair_root_point(self, a: RootKey, x: Sequence) -> Fraction:
        """``<a, x>`` for a point x given in simple-coroot coordinates; an integer
        for a lattice vector x, and the numerator of ``<a, x>`` over D for the
        key x of a weight over D."""
        return _int_combination(self._point_terms[a], x)

    def reflect_root(self, by: RootKey, a: RootKey) -> RootKey:
        """``s_by(a) = a - <by^vee, a> by``."""
        return self._reflect[(by, a)]


_AN = re.compile(r"^A(\d+)$")


def build_finite(type_label: str) -> FiniteRootSystem:
    """Build the finite root system named by ``type_label`` (A_n, B2, C2, G2).

    The realizations are fixed: A_n lives in the sum-zero hyperplane of
    Q^{n+1}, B2/C2 in standard coordinates of Q^2, G2 inside the sum-zero
    hyperplane of Q^3.
    """
    label = type_label.strip().upper()
    m = _AN.match(label)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ValueError(f"unknown root system label {type_label!r}")
        # e_i - e_{i+1} in R^{n+1}
        simple = [tuple(Fraction(int(k == i) - int(k == i + 1)) for k in range(n + 1)) for i in range(n)]
        return FiniteRootSystem(label, simple)
    if label == "B2":
        return FiniteRootSystem(label, [vec((1, -1)), vec((0, 1))])
    if label == "C2":
        return FiniteRootSystem(label, [vec((1, -1)), vec((0, 2))])
    if label == "G2":
        return FiniteRootSystem(label, [vec((1, -1, 0)), vec((-2, 1, 1))])
    raise ValueError(f"unknown root system label {type_label!r}")


class AffineRootSystem:
    """The affinisation of a finite root system, with the basis Delta = Delta_0 + {a_0}."""

    def __init__(self, finite: FiniteRootSystem):
        self.finite = finite
        self.rank = finite.rank
        neg_theta = tuple(-c for c in finite.highest_root)
        self.a0 = AffineRoot(neg_theta, 1)
        self.delta: tuple[AffineRoot, ...] = (self.a0,) + tuple(
            AffineRoot(finite.simple_root(i), 0) for i in range(finite.rank)
        )

    def is_root(self, a: AffineRoot) -> bool:
        return self.finite.is_root(a.alpha)

    def is_positive(self, a: AffineRoot) -> bool:
        if not self.is_root(a):
            raise ValueError(f"{a} is not an affine root of {self.finite.label}")
        return a.level > 0 or (a.level == 0 and self.finite.is_positive_root(a.alpha))

    def evaluate(self, a: AffineRoot, x: Vec) -> Fraction:
        return self.finite.pair_root_point(a.alpha, x) + a.level

    def positive_window(self, level_bound: int) -> list[AffineRoot]:
        """All positive affine roots with |level| <= level_bound, sorted."""
        if level_bound < 0:
            raise ValueError("level_bound must be >= 0")
        out = []
        for alpha in self.finite.roots:
            lo = 0 if self.finite.is_positive_root(alpha) else 1
            out.extend(AffineRoot(alpha, k) for k in range(lo, level_bound + 1))
        return sorted(out)

    def window(self, level_bound: int) -> list[AffineRoot]:
        """All affine roots with |level| <= level_bound, sorted."""
        pos = self.positive_window(level_bound)
        neg = [AffineRoot(tuple(-c for c in a.alpha), -a.level) for a in pos]
        return sorted(pos + neg)

def affinise(type_label: str) -> AffineRootSystem:
    return AffineRootSystem(build_finite(type_label))
