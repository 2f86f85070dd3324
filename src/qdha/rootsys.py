"""Finite root systems and their affinisations, in exact rational arithmetic.

A finite root system is realized once in an ambient rational vector space, then
converted to intrinsic data: every root is stored by its integer coordinates in
the simple-root basis, and all pairings go through the Gram matrix of the simple
roots.  Points of the reflection space E are stored by their coordinates in the
simple-coroot basis, so that lattice membership and root evaluation are exact;
a vector of the coroot lattice, a coroot or a translation, is a tuple of ints,
checked once by ``lattice_vector``.  A weight of an instance is a tuple of
ints too, its numerators over the instance's denominator (``PointKey``).

An affine root ``a = alpha + k`` is the affine function ``x -> <alpha, x> + k``
on E; the affine roots are ``{alpha + k : alpha in R, k in Z}``.  Every system
built here is reduced: no root's double is a root.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
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
        piv = next(r for r in range(col, n) if m[r][col] != 0)
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

    All data is exact: roots are integer vectors in the simple-root basis and
    the scalar product is the rational Gram matrix of the simple roots.
    """

    def __init__(self, label: str, simple_ambient: list[Vec]):
        self.label = label
        self.rank = len(simple_ambient)
        self._ambient = [vec(v) for v in simple_ambient]
        # Gram matrix of the simple roots.
        self.gram = [[_dot(a, b) for b in self._ambient] for a in self._ambient]
        keys = sorted(self._to_key(v) for v in self._reflection_closure(self._ambient))
        self.roots: tuple[RootKey, ...] = tuple(keys)
        self._root_set = frozenset(self.roots)
        self.positive_roots = tuple(k for k in self.roots if self._key_sign(k) > 0)
        self.highest_root = self._find_highest()
        self._build_tables()
        self.fundamental_coweights = self._fundamental_coweights()
        self.coxeter_number = int(self.height(self.highest_root)) + 1

    # ----- construction helpers -----

    def _reflection_closure(self, seed: list[Vec]) -> set[Vec]:
        roots = set(seed) | {tuple(-c for c in v) for v in seed}
        while True:
            new = set()
            for a in roots:
                na = _dot(a, a)
                for b in roots:
                    coef = 2 * _dot(a, b) / na
                    img = tuple(x - coef * y for x, y in zip(b, a))
                    if img not in roots:
                        new.add(img)
            if not new:
                return roots
            roots |= new

    def _to_key(self, ambient: Vec) -> RootKey:
        basis = self._ambient
        # Solve over the span of the simple roots (the ambient space may be larger).
        gm = [[_dot(a, b) for b in basis] for a in basis]
        rhs = [_dot(a, ambient) for a in basis]
        coords = solve_linear(gm, rhs)
        key = tuple(int(c) for c in coords)
        if any(Fraction(k) != c for k, c in zip(key, coords)):
            raise ValueError(f"root {ambient} is not an integer combination of the simple roots")
        return key

    def _build_tables(self) -> None:
        """Pairings, coroots and reflections for every pair of roots, built once."""
        roots, r = self.roots, range(self.rank)
        gram_b = {b: [sum(self.gram[i][j] * b[j] for j in r) for i in r] for b in roots}
        self._inner: dict[tuple[RootKey, RootKey], Fraction] = {
            (a, b): sum((a[i] * gb[i] for i in r if a[i]), Fraction(0))
            for a in roots for b, gb in gram_b.items()
        }
        self._pairing: dict[tuple[RootKey, RootKey], int] = {}
        for (a, b), ab in self._inner.items():
            c = 2 * ab / self._inner[(b, b)]
            if c.denominator != 1:
                raise ValueError(f"<{a}, {b}^vee> = {c} is not an integer")
            self._pairing[(a, b)] = int(c)
        self._coroot: dict[RootKey, Lattice] = {
            a: lattice_vector([a[i] * self.gram[i][i] / self._inner[(a, a)] for i in r],
                              f"the coroot of {a}")
            for a in roots
        }
        # <a, x> = sum_i x_i <a, alpha_i^vee>, kept as the nonzero (i, pairing) terms
        self._point_terms: dict[RootKey, tuple[tuple[int, int], ...]] = {
            a: tuple((i, p) for i in r if (p := self._pairing[(a, self.simple_root(i))]))
            for a in roots
        }
        self._reflect: dict[tuple[RootKey, RootKey], RootKey] = {
            (by, a): tuple(ai - self._pairing[(a, by)] * bi for ai, bi in zip(a, by))
            for by in roots for a in roots
        }

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

    def _fundamental_coweights(self) -> list[Vec]:
        # coords c of varpi_i^vee in the coroot basis: sum_k c_k <alpha_j, alpha_k^vee> = delta_ij
        out = []
        rows = [[self.pair_root_coroot(self.simple_root(j), self.simple_root(k)) for k in range(self.rank)]
                for j in range(self.rank)]
        for i in range(self.rank):
            rhs = [Fraction(1) if j == i else Fraction(0) for j in range(self.rank)]
            out.append(tuple(solve_linear(rows, rhs)))
        return out

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
        return self._inner[(a, a)]

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
        simple = []
        for i in range(n):
            e = [Fraction(0)] * (n + 1)
            e[i] = Fraction(1)
            e[i + 1] = Fraction(-1)
            simple.append(tuple(e))
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
