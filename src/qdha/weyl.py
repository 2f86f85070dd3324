"""The (extended) affine Weyl group of an affinised root system.

Elements are pairs ``X^mu * w`` with ``mu`` a translation, an integer vector
of the coroot lattice in simple-coroot coordinates, and ``w`` in the finite
Weyl group.  Finite elements are stored as permutations of the root list, so
equality is by action; each element's lexicographically least reduced word,
integer point matrix, inverse and length are tabulated when the group is
built.

Lengths come in two independent flavours: an inversion-set count obtained by
enumerating the finitely many affine roots a given element can invert, and,
for ``g = X^mu w``, the closed formula in integers

    l(X^mu w) = sum_{a in R+} |<a, mu> - [w^{-1} a < 0]|.

The ``length`` sweep compares the two.

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

The weights of an instance are handled the same way everywhere: every weight
``w lambda_0 + mu``, mu in the coroot lattice, is an integer vector over the
denominator D of ``lambda_0``, so it is keyed by its numerators
(``PointKey``).  ``act_point``, ``to_fundamental_domain``, ``witness_from``
and ``stabilizer`` work on keys over a given D, in integers only;
``PointsOver`` converts between keys and ``Fraction`` points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rootsys import (AffineRoot, AffineRootSystem, FiniteRootSystem, Lattice, PointKey, RootKey,
                      Vec, _int_combination, lattice_vector, vec)

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


def common_denominator(x: Vec) -> int:
    """The least common denominator of a rational point's coordinates."""
    return math.lcm(*(c.denominator for c in x))


class PointsOver(dict):
    """The weights over one denominator ``den``, keyed by their integer numerators.

    ``key(x)`` turns a ``Fraction`` point into its key, and calling turns a
    key back into its point, each ``Fraction`` built once.
    """

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, c: int) -> Fraction:
        f = self[c] = Fraction(c, self.den)
        return f

    def __call__(self, x: PointKey) -> Vec:
        return tuple(map(self.__getitem__, x))

    def key(self, x: Sequence) -> PointKey:
        """The numerators of x over ``den``; ValueError if a denominator of x does not divide it."""
        out = []
        for c in map(Fraction, x):
            scale, rest = divmod(self.den, c.denominator)
            if rest:
                raise ValueError(f"[{', '.join(map(str, x))}] is not a weight over the "
                                 f"denominator {self.den}")
            out.append(c.numerator * scale)
        return tuple(out)


@dataclass(frozen=True, order=True)
class AffineWeylElement:
    """The element ``X^mu * w`` with mu integral, in simple-coroot coordinates, and w
    a root permutation."""

    mu: Lattice
    w: Perm


class AffineWeylGroup:
    """Operations for the affine (and extended affine) Weyl group of an affinisation."""

    def __init__(self, ars: AffineRootSystem):
        self.ars = ars
        self.rs = ars.finite
        self.rank = self.rs.rank
        self.finite = FiniteWeylGroup(self.rs)
        self.identity = AffineWeylElement((0,) * self.rank, self.finite.identity)
        self._simple_affine = [self.reflection_of(a) for a in ars.delta]
        # the alcove walk in integers: points scaled by their common
        # denominator; the simple reflections translate by integral coroots
        self._walk_steps = tuple(
            (self.rs._point_terms[a.alpha], a.level, self.finite._point_rows[s.w],
             s.mu, s.w)
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
        return AffineWeylElement(lattice_vector(mu, "translation"), self.finite.identity)

    def from_finite(self, w: Perm) -> AffineWeylElement:
        return AffineWeylElement((0,) * self.rank, w)

    def reflection_of(self, a: AffineRoot) -> AffineWeylElement:
        mu = tuple(-a.level * c for c in self.rs.coroot_coords(a.alpha))
        return AffineWeylElement(mu, self.finite.reflection(a.alpha))

    # ----- group law and actions -----

    def compose(self, u: AffineWeylElement, v: AffineWeylElement) -> AffineWeylElement:
        # (mu, w)(nu, y) = (mu + w nu, w y)
        wnu = self.finite.act_point(u.w, v.mu)
        return AffineWeylElement(tuple(a + b for a, b in zip(u.mu, wnu)),
                                 self.finite.compose(u.w, v.w))

    def inverse(self, g: AffineWeylElement) -> AffineWeylElement:
        wi = self.finite.inverse(g.w)
        return AffineWeylElement(self.finite.act_point(wi, tuple(-c for c in g.mu)), wi)

    def act_point(self, g: AffineWeylElement, x: PointKey, den: int) -> PointKey:
        """``g x`` for the key x of a weight over den: ``w x + den mu`` in integers."""
        wx = self.finite.act_point(g.w, x)
        return tuple(a + den * b if b else a for a, b in zip(wx, g.mu))

    def act_root(self, g: AffineWeylElement, a: AffineRoot) -> AffineRoot:
        # X^mu smashes the level: X^mu b = b - <db, mu>; the finite part permutes roots.
        beta = self.finite.act_root(g.w, a.alpha)
        return AffineRoot(beta, a.level - self.rs.pair_root_point(beta, g.mu))

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
        """``l(X^mu w) = sum_{a > 0} |<a, mu> - [w^{-1} a < 0]|``, in integers."""
        fin, rs = self.finite, self.rs
        winv = fin.inverse(g.w)
        return sum(abs(rs.pair_root_point(rs.roots[i], g.mu) - (winv[i] in fin._negative))
                   for i in fin._counted)

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

    def vanishing_roots(self, x: PointKey, den: int) -> list[AffineRoot]:
        """Positive affine roots vanishing at the weight keyed x over den (one per wall
        through it)."""
        out = []
        for alpha in self.rs.positive_roots:
            v = self.rs.pair_root_point(alpha, x)
            if v % den == 0:
                out.append(AffineRoot(alpha, -(v // den)))
        return sorted(out)

    def stabilizer(self, x: PointKey, den: int) -> tuple[list[AffineWeylElement],
                                                         list[AffineWeylElement]]:
        """Generating reflections and the full (finite) stabilizer of the weight keyed x over den."""
        gens = [self.reflection_of(a) for a in self.vanishing_roots(x, den)]
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

    def to_fundamental_domain(self, x0: PointKey, den: int) -> tuple[PointKey, AffineWeylElement]:
        """The representative in the closed fundamental alcove of the weight keyed x0
        over den, with g: g x0 = rep; rep is a key over den too.

        Reflects in the first affine simple root that is negative at the current
        point until none is, on the integer numerators.  Only the finite part w
        of g is tracked; g = X^nu w with nu = rep - w x0, read off the
        numerators as ``(x - w x0) // den``, which is exact.
        """
        x = x0
        w = self.finite.identity
        while True:
            for terms, level, rows, shift, s in self._walk_steps:
                if sum(p * x[j] for j, p in terms) + level * den < 0:
                    break
            else:
                wx0 = self.finite.act_point(w, x0)
                return (tuple(x),
                        AffineWeylElement(tuple((c - c0) // den for c, c0 in zip(x, wx0)), w))
            x = [sum(c * x[i] for i, c in row) + t * den for row, t in zip(rows, shift)]
            w = self.finite.compose(s, w)

    def witness_from(self, x: PointKey, den: int,
                     walk0: tuple[PointKey, AffineWeylElement]) -> AffineWeylElement | None:
        """Some w with w x0 = x, given ``walk0 = to_fundamental_domain(x0, den)``;
        None if x is not in the orbit of x0.  Both are keys over den."""
        rep1, g1 = self.to_fundamental_domain(x, den)
        rep0, g0 = walk0
        if rep1 != rep0:
            return None
        return self.compose(self.inverse(g1), g0)

    def walk(self, lam0: Vec, length_bound: int,
             roots: Sequence[AffineRoot] = ()) -> dict[WalkState, WalkEdge]:
        """Every state ``(g lam0, g roots)`` with l(g) <= length_bound, by breadth-first search.

        Returns, in discovery order, each state with the edge it was found by:
        ``(layer, parent, letter)``, the state being ``s_letter`` applied to
        ``parent`` (None and None for the start).  A state's point is its key
        over the common denominator of lam0, and an image is stored as
        ``(root index, level)``.

        Exactness: a product of k simple reflections has length <= k, and
        every element of length n is a product of n of them (a reduced word).
        So the states within n steps are exactly the states of the elements of
        length <= n, and the layer of a state is the least length reaching it.
        """
        lam0 = vec(lam0)
        den = common_denominator(lam0)
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
        return found

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
        return list(self._walk_elements(self.walk(self.alcove_point, length_bound)).values())

    def orbit_window(self, lam0: Vec, length_bound: int) -> dict[PointKey, AffineWeylElement]:
        """All distinct w lam0 with l(w) <= bound, each with a minimal-length witness.

        The points are those of ``walk``, keys over the common denominator of
        lam0; the witnesses are its elements.
        """
        return {x: g for (x, _), g in self._walk_elements(self.walk(lam0, length_bound)).items()}
