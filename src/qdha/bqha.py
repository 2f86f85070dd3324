"""The finite quotient algebra on a torus orbit, with its Frobenius trace.

Operators act on one polynomial ring per point of the finite orbit; the
generators are the same two-case reflection-or-divided-difference operators,
driven by the finite order function, with finite Weyl twists only.  The
products, basis and normal forms are those of ``qdha.algebra.OperatorAlgebra``
with finite Weyl elements as basis; the peel always terminates, since the
group is finite.

The trace of x takes two closed forms per source and sums over the orbit:

* the tau_{w0} coefficient.  w0 is the only element of maximal length, so
  the normal-form peel fixes its coefficient at its first step: the block
  ``(src, w0 src, w0)`` of x times the inverse of the leading block of
  ``tau_{w0} e(src)``;
* the trace of ``f tau_{w0} e(ell)``: the Demazure operator of the
  stabilizer's longest element, pulled back along the orbit representative v
  of ell.  Its N divided differences ``(s f - f) / alpha``, over the positive
  roots integral at ell, compose to ``(-1)^N sum_w sgn(w) w(f) / prod alpha``
  over the stabilizer, so the trace is ``sum_w sgn(w) (v^-1 w)(f)`` divided
  by ``prod (-v^-1 alpha)``, from one table per orbit point.

Together with the multiplication it gives an exact Gram pairing whose rank
witnesses the Frobenius property.  The blocks of ``tau_w e(ell)`` end at
``w ell``, so by left Pol-linearity one product ``tau_w e(ell) y`` serves
every monomial m of a spanning group ``(ell, w)``, and only the columns y
whose target is ell, indexed by target once, pair with it.  Of that product
only the tau_{w0} blocks are formed: a column block at u2 meets only the head
block at ``u1 = w0 u2^-1``, so each column is kept twisted by those u1 and
its blocks find their head block by lookup.  The stabilizer images ``g(f)``
are shared across the group's rows, so a row costs one product per
stabilizer element and one exact division by a denominator normalised once.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .algebra import EntryKey, NotInAlgebra, OperatorAlgebra, RatOperator
from .fm import rank
from .orderfun import BOrderFunction
from .polyring import Poly, RatFunc, divide_exact, monomials, normalize_factor
from .rootsys import PointKey, RootKey
from .weyl import Perm, PointsOver


class BAlgebra(OperatorAlgebra):
    """The operator calculus for a finite order function on its torus orbit."""

    def __init__(self, bof: BOrderFunction):
        super().__init__(bof.group, bof.over)
        self.bof = bof
        self.torus = bof.torus
        self.orbit = bof.torus.points
        # per orbit point ell = v ell0: the stabilizer elements w as
        # (v^-1 w, sgn w), and the negated pulled-back positive roots' product
        # as its primitive part and scalar (``normalize_factor``), found once
        self.trace_terms: dict[PointKey, tuple[tuple, tuple[Poly, Fraction]]] = {}
        for ell, v in self.torus.cosets.items():
            v_inv = self.fin.inverse(v)
            signed = tuple((self.fin.compose(v_inv, w), (-1) ** self.fin.length(w))
                           for w in self.fin.elements if self.act_ell(w, ell) == ell)
            den = self.one
            for alpha in self.rs.positive_roots:
                if self.rs.pair_root_point(alpha, ell) % self.den == 0:
                    den = -(den * self.act_poly(v_inv, self.root_poly(alpha)))
            self.trace_terms[ell] = (signed, normalize_factor(den))

    # ----- points and basis elements -----

    def act_ell(self, w: Perm, ell: PointKey) -> PointKey:
        return self.torus.act(w, ell)

    def _weight(self, ell: PointKey) -> PointKey:
        return self.torus.point(ell)

    def _letter(self, i: int, ell: PointKey) -> tuple[RootKey, int, PointKey]:
        # ell is a canonical orbit point, as every caller passes it through _weight
        alpha = self.rs.simple_root(i)
        return (alpha, self.bof.table.get((ell, alpha), 0),
                self.torus._act[self.fin.reflection(alpha), ell])

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
            raise ValueError(f"block {(self.over(src), self.over(tgt), u)} is inconsistent "
                             "with the orbit action")
        return u

    def inversion_orders(self, w: Perm, ell: PointKey) -> list[tuple[RootKey, int]]:
        return [(beta, self.bof.value(ell, beta)) for beta in self.fin.inversions(w)]

    # ----- Frobenius structure -----

    def top_coefficients(self, x: RatOperator) -> dict[PointKey, Poly]:
        """The nonzero tau_{w0} coefficients of x by source, read off their blocks;
        one with a denominator raises NotInAlgebra (the others are not checked)."""
        w0 = self.fin.longest_element()
        out = {}
        for (src, tgt, u), r in x.entries:  # sorted by key, so by source
            if u == w0 and tgt == self.act_ell(w0, src):
                f = r * self._leading_block(w0, src)[2]
                if not f.is_poly():
                    raise NotInAlgebra(f"operator is not in the algebra at source {self.over(src)}",
                                       offenders=[w0])
                out[src] = f.as_poly()
        return out

    def coefficient_trace(self, ell: PointKey, f: Poly) -> Poly:
        """The trace of ``f tau_{w0} e(ell)``, as the signed sum over the stabilizer."""
        signed, den = self.trace_terms[ell]
        num = Poly.zero(self.rank)
        for g, sign in signed:
            img = self.act_poly(g, f)
            num = num + img if sign > 0 else num - img
        return divide_exact(num, den)

    def frobenius_trace(self, x: RatOperator) -> Poly:
        """The trace of x: the coefficient traces of its sources, summed over the orbit."""
        total = Poly.zero(self.rank)
        for ell, f in self.top_coefficients(x).items():
            total = total + self.coefficient_trace(ell, f)
        return total

    def spanning_set(self, degree_bound: int) -> list[tuple[PointKey, Perm, Poly]]:
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

    def _twisted_column(self, y: RatOperator) -> list[tuple[PointKey, PointKey, Perm, RatFunc]]:
        """The blocks ``(s2, t2, u2), r2`` of y as ``(s2, t2, u1, u1(r2))``: ``mul`` keys
        the product of blocks at u1 and u2 by ``u1 u2``, so a block reaches the
        tau_{w0} blocks only through the head twist ``u1 = w0 u2^-1``."""
        w0 = self.fin.longest_element()
        out = []
        for (s2, t2, u2), r2 in y.entries:
            u1 = self.fin.compose(w0, self.fin.inverse(u2))
            out.append((s2, t2, u1, self.act_rat(u1, r2)))
        return out

    def _top_product(self, head: dict[tuple[PointKey, Perm], tuple[PointKey, RatFunc]],
                     column: list[tuple[PointKey, PointKey, Perm, RatFunc]]) -> RatOperator:
        """The tau_{w0} blocks of ``x y``, the only ones ``top_coefficients`` reads,
        for x as its blocks ``(t1, r1)`` indexed by (source, twist) and y as its
        ``_twisted_column``: a column block pairs with the head block at (t2, u1) alone."""
        w0 = self.fin.longest_element()
        out: dict[EntryKey, RatFunc] = {}
        for s2, t2, u1, r2 in column:
            hit = head.get((t2, u1))
            if hit is not None:
                key = (s2, hit[0], w0)
                term = hit[1] * r2
                out[key] = out[key] + term if key in out else term
        return RatOperator.from_dict(out)

    def gram_matrix(self, degree_bound: int) -> tuple[list[tuple[PointKey, Perm, Poly]],
                                                      dict[tuple[int, int], Poly]]:
        """The exact trace-pairing matrix on the bounded spanning set, as its
        nonzero entries keyed by (row, column).

        Entry (i, j) is ``tr(x_i y_j)`` with ``x_i = m_i tau_{w_i} e(ell_i)``.
        It vanishes unless the target of y_j is ell_i, so the columns are
        indexed by target once and kept as their ``_twisted_column``.  The
        rows of one group (ell, w) share ``z = tau_w e(ell) y_j``, of which
        only the tau_{w0} blocks are formed, each column block finding its
        block of ``tau_w e(ell)`` by (source, twist).  By left Pol-linearity
        the entry is the coefficient trace of ``m_i f``, f the tau_{w0}
        coefficient of z: ``sum_g sgn(g) g(m_i) g(f) / den`` over ``trace_terms``.
        The images ``g(f)`` are taken once per product and ``g(m_i)`` once per
        monomial.
        """
        span = self.spanning_set(degree_bound)
        columns: dict[PointKey, list[int]] = {}
        ops = []
        for j, (ell, w, m) in enumerate(span):
            tgt = self.act_ell(w, ell)
            columns.setdefault(tgt, []).append(j)
            ops.append(self._twisted_column(self.mul(self.poly_mult(m, tgt), self.tau_element(w, ell))))
        groups: dict[tuple[PointKey, Perm], list[int]] = {}
        for i, (ell, w, _) in enumerate(span):
            groups.setdefault((ell, w), []).append(i)
        images: dict[tuple[Perm, Poly], Poly] = {}
        matrix: dict[tuple[int, int], Poly] = {}
        for (ell, w), rows in groups.items():
            head = {(s, u): (t, r) for (s, t, u), r in self.tau_element(w, ell).entries}
            for j in columns.get(ell, ()):
                for src, f in self.top_coefficients(self._top_product(head, ops[j])).items():
                    signed, den = self.trace_terms[src]
                    f_images = [(g, sign, self.act_poly(g, f)) for g, sign in signed]
                    for i in rows:
                        m = span[i][2]
                        num = Poly.zero(self.rank)
                        for g, sign, gf in f_images:
                            if (g, m) not in images:
                                images[g, m] = self.act_poly(g, m)
                            term = images[g, m] * gf
                            num = num + term if sign > 0 else num - term
                        entry = divide_exact(num, den)
                        if not entry.is_zero():
                            matrix[i, j] = entry
        return span, matrix

    def expected_gram_rank(self) -> int:
        _, stab = self.group.stabilizer(self.over.key(self.bof.base_point), self.den)
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

    # the point as integer numerators over their common denominator, once
    q = lcm(*(Fraction(x).denominator for x in point))
    xs = PointsOver(q).key(point)
    values: dict[tuple[int, int], Fraction] = {}
    for (r, c), entry in matrix.items():
        x = entry.evaluate(xs, q)
        if x != 0:
            values[r, c] = x
            parent[find(r)] = find(-1 - c)
    blocks: dict[int, tuple[set[int], set[int]]] = {}
    for r, c in values:
        rows, cols = blocks.setdefault(find(r), (set(), set()))
        rows.add(r)
        cols.add(c)
    return sum(rank([[values.get((r, c), 0) for c in sorted(cols)] for r in sorted(rows)])
               for rows, cols in blocks.values())

