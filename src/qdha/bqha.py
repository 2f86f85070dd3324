"""The finite quotient algebra on a torus orbit, with its Frobenius trace.

Operators act on one polynomial ring per point of the finite orbit; the
generators are the same two-case reflection-or-divided-difference operators,
driven by the finite order function, with finite Weyl twists only.  The
products, basis and normal forms are those of ``qdha.algebra.OperatorAlgebra``
with finite Weyl elements as basis; the peel always terminates, since the
group is finite.

The trace extracts the coefficient of the longest element (for its canonical
reduced word), applies the Demazure composition of the point stabilizer to
land in the invariant ring, pulls back along the chosen orbit representative,
and sums over the orbit.  Together with the multiplication it gives an exact
Gram pairing whose rank witnesses the Frobenius property.

The Gram matrix uses left Pol-linearity of the normal form: every block of
``tau_w e(ell)`` ends at ``w ell``, so ``nf(m tau_w e(ell) y) = m nf(tau_w e(ell) y)``
for a polynomial m, and one product and one normal form serve every monomial
of a spanning group ``(ell, w)``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebra import EntryKey, OperatorAlgebra, RatOperator
from .orderfun import BOrderFunction, torus_point
from .polyring import Poly, RatFunc, demazure, monomials
from .rootsys import RootKey, Vec, vec
from .weyl import Perm


class BAlgebra(OperatorAlgebra):
    """The operator calculus for a finite order function on its torus orbit."""

    def __init__(self, bof: BOrderFunction):
        super().__init__(bof.group)
        self.bof = bof
        self.torus = bof.torus
        self.orbit = bof.torus.points
        # the stabilizer Demazure word of every orbit point, for theta_trace
        self.theta_words = {ell: tuple(self.stabilizer_longest_word(ell)) for ell in self.orbit}

    # ----- points and basis elements -----

    def act_ell(self, w: Perm, ell: Vec) -> Vec:
        return self.torus.act(w, ell)

    def _weight(self, ell: Vec) -> Vec:
        return self.torus.point(ell)

    def _letter(self, i: int, ell: Vec) -> tuple[RootKey, int, Vec]:
        alpha = self.rs.simple_root(i)
        return alpha, self.bof.value(ell, alpha), self.act_ell(self.fin.reflection(alpha), ell)

    def _word(self, w: Perm) -> tuple[int, ...]:
        return self.fin.word(w)

    def _twist(self, w: Perm) -> Perm:
        return w

    def _length(self, w: Perm) -> int:
        return self.fin.length(w)

    _target = act_ell

    def element_of_entry(self, key: EntryKey) -> Perm:
        """The twist of a block key, after checking that it moves the source to the target."""
        src, tgt, u = key
        if tgt != self.act_ell(u, src):
            raise ValueError(f"block {key} is inconsistent with the orbit action")
        return u

    def inversion_orders(self, w: Perm, ell: Vec) -> list[tuple[RootKey, int]]:
        return [(beta, self.bof.value(ell, beta)) for beta in self.fin.inversions(w)]

    # ----- Frobenius structure -----

    def stabilizer_roots(self, ell: Vec) -> list[RootKey]:
        """Positive roots alpha with Y^alpha(ell) = 1 (the reflection stabilizer)."""
        ell = torus_point(vec(ell))
        out = []
        for alpha in self.rs.positive_roots:
            if self.rs.pair_root_point(alpha, ell).denominator == 1:
                out.append(alpha)
        return out

    def stabilizer_simple_system(self, ell: Vec) -> list[RootKey]:
        """The positive stabilizer roots not sums of two others (a simple system)."""
        pos = self.stabilizer_roots(ell)
        pset = set(pos)
        simple = []
        for a in pos:
            decomposable = any(
                tuple(x - y for x, y in zip(a, b)) in pset for b in pos if b != a
            )
            if not decomposable:
                simple.append(a)
        return sorted(simple)

    def demazure_for_root(self, alpha: RootKey, f: Poly) -> Poly:
        ap = self.root_poly(alpha)
        refl = self.act_poly(self.fin.reflection(alpha), f)
        return demazure(f, ap, refl)

    def stabilizer_longest_word(self, ell: Vec) -> list[RootKey]:
        """A reduced word (in stabilizer simple roots) for the stabilizer's longest element."""
        ell = self.torus.point(ell)
        simple = self.stabilizer_simple_system(ell)
        if not simple:
            return []
        # E modulo the coroot lattice is the torus of the simply connected
        # group, so the stabilizer of ell is generated by its reflections
        # (Steinberg); read it off the orbit table
        elems = [w for w in self.fin.elements if self.torus.act(w, ell) == ell]
        refl = {a: self.fin.reflection(a) for a in simple}
        sub_pos = self.stabilizer_roots(ell)

        def sub_inversions(g):
            return sum(
                1 for b in sub_pos if not self.rs.is_positive_root(self.fin.act_root(g, b))
            )

        w0 = max(sorted(elems), key=sub_inversions)
        word = []
        cur = w0
        while cur != self.fin.identity:
            a = next(
                a for a in simple
                if not self.rs.is_positive_root(self.fin.act_root(self.fin.inverse(cur), a))
            )
            word.append(a)
            cur = self.fin.compose(refl[a], cur)
        return word

    def theta_trace(self, ell: Vec, f: Poly) -> Poly:
        """The Demazure composition for the stabilizer's longest element at an orbit point."""
        out = f
        for alpha in self.theta_words[ell]:
            out = self.demazure_for_root(alpha, out)
        return out

    def top_coefficients(self, x: RatOperator) -> dict[Vec, Poly]:
        """The nonzero tau_{w0} coefficients of x, one per source, in source order.

        Each source part runs the full peel, so an x outside the algebra
        raises NotInAlgebra.
        """
        w0 = self.fin.longest_element()
        by_source: dict[Vec, dict[EntryKey, RatFunc]] = {}
        for k, v in x.entries:
            by_source.setdefault(k[0], {})[k] = v
        out = {}
        for src in sorted(by_source):
            f = self.normal_form(RatOperator.from_dict(by_source[src])).coeffs.get(w0)
            if f is not None and not f.is_zero():
                out[torus_point(src)] = f
        return out

    def coefficient_trace(self, ell: Vec, f: Poly) -> Poly:
        """The trace of ``f tau_{w0} e(ell)``: the stabilizer Demazure image of f,
        pulled back to the base point along the orbit representative of ell."""
        rep = self.torus.cosets[ell]
        return self.act_poly(self.fin.inverse(rep), self.theta_trace(ell, f))

    def frobenius_trace(self, x: RatOperator) -> Poly:
        """The trace of x: the coefficient traces of its sources, summed over the orbit."""
        total = Poly.zero(self.rank)
        for ell, f in self.top_coefficients(x).items():
            total = total + self.coefficient_trace(ell, f)
        return total

    def spanning_set(self, degree_bound: int) -> list[tuple[Vec, Perm, Poly]]:
        """All (ell, w, monomial) with 2|monomial| + deg tau_w e(ell) <= bound."""
        out = []
        monos = monomials(self.rank, degree_bound // 2)
        for ell in self.orbit:
            for w in sorted(self.fin.elements, key=lambda u: (self.fin.length(u), u)):
                d0 = self.tau_element_degree(w, ell)
                for m in monos:
                    if 2 * sum(m) + d0 <= degree_bound:
                        out.append((ell, w, Poly(self.rank, {m: Fraction(1)})))
        return out

    def gram_matrix(self, degree_bound: int) -> tuple[list[tuple[Vec, Perm, Poly]],
                                                      dict[tuple[int, int], Poly]]:
        """The exact trace-pairing matrix on the bounded spanning set, as its
        nonzero entries keyed by (row, column).

        Entry (i, j) is ``tr(x_i y_j)`` with ``x_i = m_i tau_{w_i} e(ell_i)``.
        The rows of one group (ell, w) share ``z = tau_w e(ell) y_j``: by left
        Pol-linearity the entry is the coefficient trace of ``m_i f``, with f
        the tau_{w0} coefficient of z.
        """
        span = self.spanning_set(degree_bound)
        targets = [self.act_ell(w, ell) for ell, w, _ in span]
        ops = [self.mul(self.poly_mult(m, tgt), self.tau_element(w, ell))
               for (ell, w, m), tgt in zip(span, targets)]
        groups: dict[tuple[Vec, Perm], list[int]] = {}
        for i, (ell, w, _) in enumerate(span):
            groups.setdefault((ell, w), []).append(i)
        n = len(span)
        matrix: dict[tuple[int, int], Poly] = {}
        for (ell, w), rows in groups.items():
            head = self.tau_element(w, ell)
            for j in range(n):
                # x_i y_j is zero unless the target of y_j matches the source of x_i
                if targets[j] != ell:
                    continue
                for src, f in self.top_coefficients(self.mul(head, ops[j])).items():
                    for i in rows:
                        entry = self.coefficient_trace(src, span[i][2] * f)
                        if not entry.is_zero():
                            matrix[i, j] = entry
        return span, matrix

    def expected_gram_rank(self) -> int:
        _, stab = self.group.stabilizer(self.bof.base_point)
        return len(self.orbit) * len(self.fin.elements) * len(stab)


def gram_rank_at_point(matrix: dict[tuple[int, int], Poly], point: Sequence[Fraction]) -> int:
    """Exact rank of the evaluated Gram matrix; a lower bound for the generic rank.

    ``matrix`` maps (row, column) to the nonzero entries; a row or column
    without one adds nothing to the rank.  The rank is summed over the
    connected blocks of the nonzero pattern (rows and columns joined by their
    nonzero entries).  The Gram pairing vanishes unless a column's target is
    the row's source, so the matrix is block-diagonal up to a permutation, one
    block or more per orbit point.
    """
    # union-find over the rows r >= 0 and the columns c, as the nodes -1 - c
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    values: dict[tuple[int, int], Fraction] = {}
    for (r, c), entry in matrix.items():
        x = entry.evaluate(point)
        if x != 0:
            values[r, c] = x
            parent[find(r)] = find(-1 - c)
    blocks: dict[int, tuple[set[int], set[int]]] = {}
    for r, c in values:
        rows, cols = blocks.setdefault(find(r), (set(), set()))
        rows.add(r)
        cols.add(c)
    return sum(_rank([[values.get((r, c), 0) for c in sorted(cols)] for r in sorted(rows)])
               for rows, cols in blocks.values())


def _rank(rows: list[list[Fraction]]) -> int:
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
