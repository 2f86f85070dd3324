"""The (extended) affine Weyl group of an affinised root system.

Elements are pairs ``X^mu * w`` with ``mu`` a translation (coroot coordinates)
and ``w`` in the finite Weyl group.  Finite elements are stored as permutations
of the root list, so equality is by action; each element's lexicographically
least reduced word, integer point matrix, inverse and length are tabulated
when the group is built.

Lengths come in two independent flavours: an inversion-set count obtained by
enumerating the finitely many affine roots a given element can invert, and the
closed formula

    l(w X^mu) = sum_{a in R+, w a < 0} |<a, mu> + 1|
              + sum_{a in R+, w a > 0} |<a, mu>|

together with its ``X^mu w`` variant.  The two are cross-checked in the tests.

Orbits are explored by ``walk``, a breadth-first search over integer states
rather than over group elements.  A state is a pair ``(x, images)``: x holds
the integer numerators of ``g lambda_0`` over the common denominator of
``lambda_0`` (the simple reflections translate by integral coroots), and
``images`` holds the images ``g a`` of a given list of affine roots as
``(root index, level)`` pairs.  A step applies one simple affine reflection
through integer tables built with the group.  Every element has a reduced
word, so the breadth-first distance of a state is the least ``l(g)`` over the
elements g that reach it, and the states found within n steps are exactly
``{(g lambda_0, g roots) : l(g) <= n}``.  ``walk`` is the only breadth-first
search over the group: ``ball`` is the walk from ``alcove_point``, whose
stabiliser is trivial, so there each state is one element.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rootsys import (AffineRoot, AffineRootSystem, FiniteRootSystem, RootKey, Vec,
                      _int_combination, vec)

Perm = tuple[int, ...]
# a state of ``AffineWeylGroup.walk``: integer point numerators and root images
WalkState = tuple[tuple[int, ...], tuple[tuple[int, int], ...]]
WalkEdge = tuple[int, "WalkState | None", "int | None"]


class FiniteWeylGroup:
    """The finite Weyl group as permutations of the root list.

    Every per-element table is built once, at construction: the reflection of
    every root, and per element its inverse, length, lexicographically least
    reduced word and integer point matrix.  ``elements`` lists the group in
    breadth-first discovery order, ``shortlex`` sorted by (length, word).
    """

    def __init__(self, rs: FiniteRootSystem):
        self.rs = rs
        self.rank = rs.rank
        n = len(rs.roots)
        self.identity: Perm = tuple(range(n))
        self._index = {key: i for i, key in enumerate(rs.roots)}
        self._reflection: dict[RootKey, Perm] = {
            a: tuple(self._index[rs.reflect_root(a, key)] for key in rs.roots) for a in rs.roots
        }
        self.simple: list[Perm] = [self._reflection[rs.simple_root(i)] for i in range(rs.rank)]
        self.elements: list[Perm] = []
        self._enumerate()
        r = range(self.rank)
        negative = frozenset(i for i, key in enumerate(rs.roots) if not rs.is_positive_root(key))
        self._negative = negative
        self._counted = [self._index[k] for k in rs.positive_roots]
        self._length: dict[Perm, int] = {w: len(self.inversions(w)) for w in self.elements}
        self._inverse: dict[Perm, Perm] = {w: _invert(w) for w in self.elements}
        # Words and point matrices by induction on the length: w = s_i (s_i w)
        # for the first left descent i.  On simple-coroot coordinates
        # s_i x = x - <alpha_i, x> e_i, so the integer pairings make every
        # point matrix integral.
        simple_index = [self._index[rs.simple_root(i)] for i in r]
        pairings = [[rs.pair_root_coroot(rs.simple_root(i), rs.simple_root(k)) for k in r] for i in r]
        self._word: dict[Perm, tuple[int, ...]] = {self.identity: ()}
        self._cols: dict[Perm, tuple[tuple[int, ...], ...]] = {
            self.identity: tuple(tuple(int(k == j) for k in r) for j in r)
        }
        for w in self.elements[1:]:  # by length, so s_i w comes first
            winv = self._inverse[w]
            i = next(i for i in r if winv[simple_index[i]] in negative)
            rest = self.compose(self.simple[i], w)
            self._word[w] = (i,) + self._word[rest]
            self._cols[w] = tuple(_simple_reflect(pairings[i], i, col) for col in self._cols[rest])
        self.shortlex: tuple[Perm, ...] = tuple(
            sorted(self.elements, key=lambda w: (self._length[w], self._word[w]))
        )
        self._longest = max(self.elements, key=self._length.__getitem__)
        # row j of w's action: the nonzero (i, c) with (w x)_j = sum c x_i
        self._point_rows: dict[Perm, tuple[tuple[tuple[int, int], ...], ...]] = {
            w: tuple(tuple((i, col[j]) for i, col in enumerate(cols) if col[j]) for j in r)
            for w, cols in self._cols.items()
        }

    def _enumerate(self) -> None:
        frontier = [self.identity]
        seen = {self.identity}
        self.elements.append(self.identity)
        while frontier:
            nxt = []
            for w in frontier:
                for s in self.simple:
                    ws = self.compose(w, s)  # w * s_i, appends a letter on the right
                    if ws not in seen:
                        seen.add(ws)
                        self.elements.append(ws)
                        nxt.append(ws)
            frontier = nxt

    # ----- group operations -----

    def compose(self, u: Perm, v: Perm) -> Perm:
        return tuple(u[v[i]] for i in range(len(v)))

    def inverse(self, w: Perm) -> Perm:
        return self._inverse[w]

    def act_root(self, w: Perm, key: RootKey) -> RootKey:
        return self.rs.roots[w[self._index[key]]]

    def length(self, w: Perm) -> int:
        return self._length[w]

    def inversions(self, w: Perm) -> list[RootKey]:
        """The positive roots that w sends to negative roots, in root order."""
        return [self.rs.roots[i] for i in self._counted if w[i] in self._negative]

    def word(self, w: Perm) -> tuple[int, ...]:
        """A lexicographically least reduced word (indices into the simple roots)."""
        return self._word[w]

    def from_word(self, word: Sequence[int]) -> Perm:
        w = self.identity
        for i in word:
            w = self.compose(w, self.simple[i])
        return w

    def longest_element(self) -> Perm:
        return self._longest

    def reflection(self, key: RootKey) -> Perm:
        return self._reflection[key]

    def act_point(self, w: Perm, x: Vec) -> Vec:
        return tuple(_int_combination(row, x) for row in self._point_rows[w])


def _simple_reflect(pairings: list[int], i: int, x: tuple[int, ...]) -> tuple[int, ...]:
    """``s_i x = x - <alpha_i, x> e_i`` for integer simple-coroot coordinates x."""
    c = sum(p * xk for p, xk in zip(pairings, x))
    return x[:i] + (x[i] - c,) + x[i + 1:]


def _invert(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, wi in enumerate(w):
        out[wi] = i
    return tuple(out)


class _PointsOver(dict):
    """Points from integer numerators over one denominator; each ``Fraction`` is built once."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, c: int) -> Fraction:
        f = self[c] = Fraction(c, self.den)
        return f

    def __call__(self, x: tuple[int, ...]) -> Vec:
        return tuple(map(self.__getitem__, x))


@dataclass(frozen=True, order=True)
class AffineWeylElement:
    """The element ``X^mu * w`` with mu in coroot coordinates and w a root permutation."""

    mu: Vec
    w: Perm


class AffineWeylGroup:
    """Operations for the affine (and extended affine) Weyl group of an affinisation."""

    def __init__(self, ars: AffineRootSystem):
        self.ars = ars
        self.rs = ars.finite
        self.rank = self.rs.rank
        self.finite = FiniteWeylGroup(self.rs)
        self.identity = AffineWeylElement(vec((0,) * self.rank), self.finite.identity)
        self._simple_affine = [self.reflection_of(a) for a in ars.delta]
        # the alcove walk in integers: points scaled by their common
        # denominator; the simple reflections translate by integral coroots
        self._walk_steps = tuple(
            (self.rs._point_terms[a.alpha], a.level, self.finite._point_rows[s.w],
             tuple(map(int, s.mu)), s.w)
            for a, s in zip(ars.delta, self._simple_affine)
        )
        # per simple reflection s, the image s(alpha_j + 0) = alpha_i + c of
        # every finite root as (i, c); then s(alpha_j + k) = alpha_i + (c + k)
        index = self.finite._index
        self._root_steps = tuple(
            tuple((index[b.alpha], b.level)
                  for b in (self.act_root(s, AffineRoot(alpha, 0)) for alpha in self.rs.roots))
            for s in self._simple_affine
        )
        self._word_cache: dict[AffineWeylElement, tuple[int, ...]] = {}
        # an exact interior point of the fundamental alcove: rho^vee / h
        rho = [sum(c) for c in zip(*self.rs.fundamental_coweights)]
        self.alcove_point: Vec = vec(Fraction(t) / self.rs.coxeter_number for t in rho)

    # ----- elements -----

    def simple_reflection(self, i: int) -> AffineWeylElement:
        """s_{a_i} for the affine basis, index 0 being the affine node."""
        return self._simple_affine[i]

    def translation(self, mu: Sequence) -> AffineWeylElement:
        return AffineWeylElement(vec(mu), self.finite.identity)

    def from_finite(self, w: Perm) -> AffineWeylElement:
        return AffineWeylElement(vec((0,) * self.rank), w)

    def reflection_of(self, a: AffineRoot) -> AffineWeylElement:
        w = self.finite.reflection(a.alpha)
        mu = tuple(-Fraction(a.level) * c for c in self.rs.coroot_coords(a.alpha))
        return AffineWeylElement(vec(mu), w)

    # ----- group law and actions -----

    def compose(self, u: AffineWeylElement, v: AffineWeylElement) -> AffineWeylElement:
        # (mu, w)(nu, y) = (mu + w nu, w y)
        wnu = self.finite.act_point(u.w, v.mu)
        return AffineWeylElement(
            vec(tuple(a + b for a, b in zip(u.mu, wnu))),
            self.finite.compose(u.w, v.w),
        )

    def inverse(self, g: AffineWeylElement) -> AffineWeylElement:
        wi = self.finite.inverse(g.w)
        mu = self.finite.act_point(wi, tuple(-c for c in g.mu))
        return AffineWeylElement(vec(mu), wi)

    def act_point(self, g: AffineWeylElement, x: Vec) -> Vec:
        wx = self.finite.act_point(g.w, x)
        return tuple(a + b if b else a for a, b in zip(wx, g.mu))

    def act_root(self, g: AffineWeylElement, a: AffineRoot) -> AffineRoot:
        # X^mu smashes the level: X^mu b = b - <db, mu>; the finite part permutes roots.
        beta = self.finite.act_root(g.w, a.alpha)
        shift = self.rs.pair_root_point(beta, g.mu)
        if shift.denominator != 1:
            raise ValueError("translation does not preserve the affine root lattice")
        return AffineRoot(beta, a.level - int(shift))

    # ----- lengths -----

    def inversion_set(self, g: AffineWeylElement) -> list[AffineRoot]:
        """S+ cap g^{-1} S-, enumerated exactly.

        Per finite root the image of alpha + k is beta + (k + c) with beta and
        c read off from the image of alpha + 0, so only levels up to |c| + 1
        can invert and each test is a sign check.
        """
        out = []
        pos = self.rs.is_positive_root
        for alpha in self.rs.roots:
            image0 = self.act_root(g, AffineRoot(alpha, 0))
            beta, c = image0.alpha, image0.level
            lo = 0 if pos(alpha) else 1
            hi = lo + abs(c) + 1
            beta_pos = pos(beta)
            for k in range(lo, hi + 1):
                lvl = k + c
                if lvl < 0 or (lvl == 0 and not beta_pos):
                    out.append(AffineRoot(alpha, k))
        return sorted(out)

    def length_inversions(self, g: AffineWeylElement) -> int:
        """#(S+ inverted by g), by direct enumeration of the inverting levels."""
        return len(self.inversion_set(g))

    def length_formula(self, g: AffineWeylElement) -> int:
        """Closed-form length, evaluated in both factorizations as a consistency check."""
        mu, w = g.mu, g.w
        # g = X^mu w
        total_a = self._length_formula_xw(mu, w)
        # g = w X^nu with nu = w^{-1} mu
        nu = self.finite.act_point(self.finite.inverse(w), mu)
        total_b = self._length_formula_wx(nu, w)
        if total_a != total_b:
            raise ArithmeticError("the two length formulas disagree; length data corrupt")
        return total_a

    def _length_formula_wx(self, mu: Vec, w: Perm) -> int:
        rs = self.rs
        total = Fraction(0)
        for alpha in rs.positive_roots:
            pairing = rs.pair_root_point(alpha, mu)
            if rs.is_positive_root(self.finite.act_root(w, alpha)):
                total += abs(pairing)
            else:
                total += abs(pairing + 1)
        if total.denominator != 1:
            raise ArithmeticError("length formula gave a non-integer")
        return int(total)

    def _length_formula_xw(self, mu: Vec, w: Perm) -> int:
        rs = self.rs
        total = Fraction(0)
        for alpha in rs.positive_roots:
            pairing = rs.pair_root_point(alpha, mu)
            # alpha in R+ cap w R- means w^{-1} alpha in R-
            if rs.is_positive_root(self.finite.act_root(self.finite.inverse(w), alpha)):
                total += abs(pairing)
            else:
                total += abs(pairing - 1)
        if total.denominator != 1:
            raise ArithmeticError("length formula gave a non-integer")
        return int(total)

    def length(self, g: AffineWeylElement) -> int:
        return self.length_formula(g)

    # ----- words -----

    def is_left_descent(self, g: AffineWeylElement, i: int) -> bool:
        """l(s_i g) < l(g), decided by the sign of g^{-1}(a_i)."""
        a = self.ars.delta[i]
        return not self.ars.is_positive(self.act_root(self.inverse(g), a))

    def reduced_word(self, g: AffineWeylElement) -> tuple[int, ...]:
        """The lexicographically least reduced word, stripping left descents.

        The word lists letters in group order: ``g = s_{w[0]} s_{w[1]} ...``.
        """
        if g in self._word_cache:
            return self._word_cache[g]
        out = []
        cur = g
        while cur != self.identity:
            i = next(i for i in range(len(self.ars.delta)) if self.is_left_descent(cur, i))
            out.append(i)
            cur = self.compose(self.simple_reflection(i), cur)
        word = tuple(out)
        self._word_cache[g] = word
        return word

    def from_word(self, word: Sequence[int]) -> AffineWeylElement:
        g = self.identity
        for i in word:
            g = self.compose(g, self.simple_reflection(i))
        return g

    # ----- stabilizers, orbits, witnesses -----

    def vanishing_roots(self, lam: Vec) -> list[AffineRoot]:
        """Positive affine roots vanishing at lam (one per wall through lam)."""
        out = []
        for alpha in self.rs.positive_roots:
            v = self.rs.pair_root_point(alpha, lam)
            if v.denominator == 1:
                out.append(AffineRoot(alpha, -int(v)))
        return sorted(out)

    def stabilizer(self, lam: Vec) -> tuple[list[AffineWeylElement], list[AffineWeylElement]]:
        """Generating reflections and the full (finite) stabilizer of a point."""
        lam = vec(lam)
        gens = [self.reflection_of(a) for a in self.vanishing_roots(lam)]
        elements = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for g in frontier:
                for s in gens:
                    h = self.compose(s, g)
                    if h not in elements:
                        elements.add(h)
                        nxt.append(h)
            frontier = nxt
        return gens, sorted(elements, key=lambda g: (self.length(g), g.mu, g.w))

    def to_fundamental_domain(self, lam: Vec) -> tuple[Vec, AffineWeylElement]:
        """The representative of lam in the closed fundamental alcove, with g: g lam = rep.

        Reflects in the first affine simple root that is negative at the current
        point until none is, on integer numerators over a common denominator.
        Only the finite part w of g is tracked; g = X^nu w with nu = rep - w lam.
        """
        lam = vec(lam)
        den = math.lcm(*(c.denominator for c in lam))
        x = [c.numerator * (den // c.denominator) for c in lam]
        w = self.finite.identity
        while True:
            for terms, level, rows, shift, s in self._walk_steps:
                if sum(p * x[j] for j, p in terms) + level * den < 0:
                    break
            else:
                rep = tuple(Fraction(c, den) for c in x)
                wlam = self.finite.act_point(w, lam)
                return rep, AffineWeylElement(tuple(r - c for r, c in zip(rep, wlam)), w)
            x = [sum(c * x[i] for i, c in row) + t * den for row, t in zip(rows, shift)]
            w = self.finite.compose(s, w)

    def witness_from(self, lam: Vec, walk0: tuple[Vec, AffineWeylElement]) -> AffineWeylElement | None:
        """Some w with w lam0 = lam, given ``walk0 = to_fundamental_domain(lam0)``;
        None if lam is not in the orbit of lam0."""
        rep1, g1 = self.to_fundamental_domain(vec(lam))
        rep0, g0 = walk0
        if rep1 != rep0:
            return None
        return self.compose(self.inverse(g1), g0)

    def walk(self, lam0: Vec, length_bound: int,
             roots: Sequence[AffineRoot] = ()) -> tuple[_PointsOver, dict[WalkState, WalkEdge]]:
        """Every state ``(g lam0, g roots)`` with l(g) <= length_bound, by breadth-first search.

        Returns ``point``, which turns a state's integer numerators back into
        the point, and, in discovery order, each state with the edge it was
        found by: ``(layer, parent, letter)``, the state being ``s_letter``
        applied to ``parent`` (None and None for the start).  An image is
        stored as ``(root index, level)``.

        Exactness: a product of k simple reflections has length <= k, and
        every element of length n is a product of n of them (a reduced word).
        So the states within n steps are exactly the states of the elements of
        length <= n, and the layer of a state is the least length reaching it.
        """
        lam0 = vec(lam0)
        den = math.lcm(*(c.denominator for c in lam0))
        steps = [(rows, tuple(t * den for t in shift), images)
                 for (_, _, rows, shift, _), images in zip(self._walk_steps, self._root_steps)]
        index = self.finite._index
        start = (tuple(c.numerator * (den // c.denominator) for c in lam0),
                 tuple((index[a.alpha], a.level) for a in roots))
        found: dict[WalkState, WalkEdge] = {start: (0, None, None)}
        frontier = [start]
        for n in range(1, length_bound + 1):
            nxt = []
            for state in frontier:
                x, images = state
                for letter, (rows, shift, table) in enumerate(steps):
                    y = []
                    for row, t in zip(rows, shift):
                        for i, c in row:
                            t += c * x[i]
                        y.append(t)
                    moved = []
                    for j, k in images:
                        i, c = table[j]
                        moved.append((i, k + c))
                    new = (tuple(y), tuple(moved))
                    if new not in found:
                        found[new] = (n, state, letter)
                        nxt.append(new)
            frontier = nxt
        return _PointsOver(den), found

    def _walk_elements(self, found: dict[WalkState, WalkEdge]) -> dict[WalkState, AffineWeylElement]:
        """An element reaching each state of a ``walk``, in discovery order.

        Each is its parent's element with the state's letter composed on the
        left, one ``compose`` per state; the start is the identity.
        """
        out: dict[WalkState, AffineWeylElement] = {}
        for state, (_, parent, letter) in found.items():
            out[state] = (self.identity if parent is None
                          else self.compose(self._simple_affine[letter], out[parent]))
        return out

    def ball(self, length_bound: int) -> list[AffineWeylElement]:
        """All elements of length <= length_bound, ordered by (length, discovery).

        These are the elements of ``walk(alcove_point, length_bound)``: the
        stabiliser of ``alcove_point`` is trivial, so each state is one element.
        """
        return list(self._walk_elements(self.walk(self.alcove_point, length_bound)[1]).values())

    def orbit_window(self, lam0: Vec, length_bound: int) -> dict[Vec, AffineWeylElement]:
        """All distinct w lam0 with l(w) <= bound, each with a minimal-length witness.

        The points are those of ``walk``, the witnesses its elements.
        """
        point, found = self.walk(lam0, length_bound)
        return {point(x): g for (x, _), g in self._walk_elements(found).items()}
