"""The finite quotient algebra on a torus orbit, with its Frobenius trace.

Operators act on one polynomial ring per point of the finite orbit; the
generators are the same two-case reflection-or-divided-difference operators,
driven by the finite order function, with finite Weyl twists only.  The basis
and normal-form mechanics mirror the affine case but always terminate, since
the group is finite.

The trace extracts the coefficient of the longest element (for its canonical
reduced word), applies the Demazure composition of the point stabilizer to
land in the invariant ring, pulls back along the chosen orbit representative,
and sums over the orbit.  Together with the multiplication it gives an exact
Gram pairing whose rank witnesses the Frobenius property.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import NotInAlgebra, RatOperator
from .orderfun import BOrderFunction, torus_point
from .polyring import Poly, RatFunc, apply_linear, apply_linear_rat, demazure
from .rootsys import RootKey, Vec, vec
from .weyl import AffineWeylGroup, Perm

BEntryKey = tuple[Vec, Vec, Perm]


@dataclass
class BNormalForm:
    """An element written as ``sum_w coeffs[w] tau_w e(source)`` over the finite group."""

    source: Vec
    coeffs: dict[Perm, Poly]

    def support(self) -> list[Perm]:
        return [w for w, f in self.coeffs.items() if not f.is_zero()]

    def is_zero(self) -> bool:
        return not self.support()


class BAlgebra:
    """Operator context for a finite order function on a torus orbit."""

    def __init__(self, bof: BOrderFunction):
        self.bof = bof
        self.group: AffineWeylGroup = bof.group
        self.fin = self.group.finite
        self.rs = self.group.rs
        self.rank = self.rs.rank
        self.orbit = bof.orbit()
        self._images: dict[Perm, list[Poly]] = {}
        self._tau_elt: dict[tuple[Perm, Vec], RatOperator] = {}

    # ----- points and polynomials -----

    def act_ell(self, w: Perm, ell: Vec) -> Vec:
        return torus_point(self.fin.act_point(w, ell))

    def root_poly(self, alpha: RootKey) -> Poly:
        return Poly.linear(
            [self.rs.pair_root_coroot(alpha, self.rs.simple_root(i)) for i in range(self.rank)]
        )

    def images(self, w: Perm) -> list[Poly]:
        if w not in self._images:
            word = self.fin.word(w)
            images = [Poly.variable(self.rank, i) for i in range(self.rank)]
            for letter in reversed(word):
                alpha = self.root_poly(self.rs.simple_root(letter))
                simple = [
                    Poly.variable(self.rank, i) - (alpha if i == letter else Poly.zero(self.rank))
                    for i in range(self.rank)
                ]
                images = [img.substitute(simple) for img in images]
            self._images[w] = images
        return self._images[w]

    def act_poly(self, w: Perm, f: Poly) -> Poly:
        return apply_linear(f, self.images(w))

    def act_rat(self, w: Perm, r: RatFunc) -> RatFunc:
        return apply_linear_rat(r, self.images(w))

    # ----- operators -----

    def zero(self) -> RatOperator:
        return RatOperator(())

    def idempotent(self, ell: Vec) -> RatOperator:
        ell = torus_point(vec(ell))
        one = RatFunc.from_poly(Poly.const(self.rank, 1))
        return RatOperator.from_dict({(ell, ell, self.fin.identity): one})

    def poly_mult(self, f: Poly, ell: Vec) -> RatOperator:
        ell = torus_point(vec(ell))
        return RatOperator.from_dict({(ell, ell, self.fin.identity): RatFunc.from_poly(f)})

    def tau_letter(self, i: int, ell: Vec) -> RatOperator:
        """tau_alpha e(ell) for the i-th finite simple root."""
        ell = torus_point(vec(ell))
        alpha = self.rs.simple_root(i)
        m = self.bof.value(ell, alpha)
        s = self.fin.reflection(alpha)
        ap = self.root_poly(alpha)
        target = self.act_ell(s, ell)
        if m == -1:
            if target != ell:
                raise ValueError("order value -1 where the reflection moves the point")
            inv = RatFunc(Poly.const(self.rank, 1), {ap: 1})
            return RatOperator.from_dict({
                (ell, ell, s): inv,
                (ell, ell, self.fin.identity): -inv,
            })
        return RatOperator.from_dict({(ell, target, s): RatFunc.from_poly(ap ** m)})

    def mul(self, x: RatOperator, y: RatOperator) -> RatOperator:
        out: dict[BEntryKey, RatFunc] = {}
        for (s2, t2, u2), r2 in y.entries:
            for (s1, t1, u1), r1 in x.entries:
                if s1 != t2:
                    continue
                key = (s2, t1, self.fin.compose(u1, u2))
                term = r1 * self.act_rat(u1, r2)
                out[key] = out[key] + term if key in out else term
        return RatOperator.from_dict(out)

    def tau_word(self, word: Sequence[int], ell: Vec) -> RatOperator:
        ell = torus_point(vec(ell))
        acc = self.idempotent(ell)
        cur = ell
        for i in reversed(list(word)):
            acc = self.mul(self.tau_letter(i, cur), acc)
            cur = self.act_ell(self.fin.reflection(self.rs.simple_root(i)), cur)
        return acc

    def tau_element(self, w: Perm, ell: Vec) -> RatOperator:
        ell = torus_point(vec(ell))
        key = (w, ell)
        if key not in self._tau_elt:
            self._tau_elt[key] = self.tau_word(self.fin.word(w), ell)
        return self._tau_elt[key]

    def tau_degree(self, i: int, ell: Vec) -> int:
        """Degree of tau_alpha e(ell): the order values on the two sides of the wall."""
        ell = torus_point(vec(ell))
        alpha = self.rs.simple_root(i)
        other = self.act_ell(self.fin.reflection(alpha), ell)
        return self.bof.value(ell, alpha) + self.bof.value(other, alpha)

    def tau_element_degree(self, w: Perm, ell: Vec) -> int:
        total = 0
        cur = torus_point(vec(ell))
        for i in reversed(self.fin.word(w)):
            total += self.tau_degree(i, cur)
            cur = self.act_ell(self.fin.reflection(self.rs.simple_root(i)), cur)
        return total

    # ----- normal form -----

    def normal_form_rational(self, x: RatOperator) -> tuple[Vec, dict[Perm, RatFunc]]:
        sources = x.sources()
        if len(sources) > 1:
            raise ValueError("normal form expects a single-source operator")
        if not sources:
            return torus_point(vec((0,) * self.rank)), {}
        src = sources[0]
        remaining = x.to_dict()
        coeffs: dict[Perm, RatFunc] = {}
        last = None
        while remaining:
            maxlen = max(self.fin.length(u) for (_, _, u) in remaining)
            if last is not None and maxlen >= last:
                raise ArithmeticError("finite normal-form peel did not shrink")
            last = maxlen
            for key in [k for k in remaining if self.fin.length(k[2]) == maxlen]:
                _, tgt, u = key
                if tgt != self.act_ell(u, src):
                    raise ValueError(f"block {key} is inconsistent with the orbit action")
                lead = self.tau_element(u, src).to_dict()[key]
                fg = remaining[key] / lead
                coeffs[u] = coeffs.get(u, RatFunc.from_poly(Poly.zero(self.rank))) + fg
                for k, v in self.tau_element(u, src).entries:
                    term = fg * v
                    remaining[k] = (remaining[k] - term) if k in remaining else -term
            remaining = {k: v for k, v in remaining.items() if not v.is_zero()}
        return src, {w: f for w, f in coeffs.items() if not f.is_zero()}

    def normal_form(self, x: RatOperator) -> BNormalForm:
        src, coeffs = self.normal_form_rational(x)
        offenders = [w for w, f in coeffs.items() if not f.is_poly()]
        if offenders:
            raise NotInAlgebra(f"operator is not in the finite algebra at {src}",
                               offenders=offenders)
        return BNormalForm(source=src, coeffs={w: f.as_poly() for w, f in coeffs.items()})

    def reconstruct(self, nf: BNormalForm) -> RatOperator:
        out = self.zero()
        for w, f in sorted(nf.coeffs.items(), key=lambda kv: (self.fin.length(kv[0]), kv[0])):
            out = out + self.mul(self.poly_mult(f, self.act_ell(w, nf.source)),
                                 self.tau_element(w, nf.source))
        return out

    def filtration_degree(self, nf: BNormalForm) -> int | None:
        sup = nf.support()
        return max(self.fin.length(w) for w in sup) if sup else None

    # ----- the leading coefficient in closed form -----

    def inversion_leading_coefficient(self, w: Perm, ell: Vec) -> RatFunc:
        """w( prod over finite inversions of (-beta)^{Omega_ell(beta)} )."""
        ell = torus_point(vec(ell))
        acc = RatFunc.from_poly(Poly.const(self.rank, 1))
        winv = self.fin.inverse(w)
        for beta in self.rs.indivisible_roots:
            if not self.rs.is_positive_root(beta):
                continue
            if self.rs.is_positive_root(self.fin.act_root(w, beta)):
                continue
            m = self.bof.value(ell, beta)
            nb = -self.root_poly(beta)
            if m >= 0:
                acc = acc * RatFunc.from_poly(nb ** m)
            else:
                acc = acc * RatFunc(Poly.const(self.rank, 1), {nb: -m})
        num = self.act_poly(w, acc.num)
        den = {self.act_poly(w, p): mult for p, mult in acc.den.values()}
        return RatFunc(num, den)

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
        simple = self.stabilizer_simple_system(ell)
        if not simple:
            return []
        # greedy: repeatedly strip a descent of the longest element
        elems = {self.fin.identity}
        frontier = [self.fin.identity]
        refl = {a: self.fin.reflection(a) for a in simple}
        while frontier:
            nxt = []
            for g in frontier:
                for a in simple:
                    h = self.fin.compose(refl[a], g)
                    if h not in elems:
                        elems.add(h)
                        nxt.append(h)
            frontier = nxt
        sub_pos = [b for b in self.stabilizer_roots(torus_point(vec(ell)))]

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
        """The Demazure composition for the stabilizer's longest element."""
        out = f
        for alpha in self.stabilizer_longest_word(ell):
            out = self.demazure_for_root(alpha, out)
        return out

    def frobenius_trace(self, x: RatOperator) -> Poly:
        """The trace of x: the stabilizer Demazure image of the top coefficient,
        pulled back to the base point and summed over the orbit."""
        w0 = self.fin.longest_element()
        total = Poly.zero(self.rank)
        by_source: dict[Vec, dict[BEntryKey, RatFunc]] = {}
        for k, v in x.entries:
            by_source.setdefault(k[0], {})[k] = v
        for src in sorted(by_source):
            nf = self.normal_form(RatOperator.from_dict(by_source[src]))
            f = nf.coeffs.get(w0)
            if f is None or f.is_zero():
                continue
            val = self.theta_trace(src, f)
            rep = self.bof.cosets[torus_point(src)]
            total = total + self.act_poly(self.fin.inverse(rep), val)
        return total

    def spanning_set(self, degree_bound: int) -> list[tuple[Vec, Perm, Poly]]:
        """All (ell, w, monomial) with 2|monomial| + deg tau_w e(ell) <= bound."""
        out = []
        monos = _monomials(self.rank, degree_bound)
        for ell in self.orbit:
            for w in sorted(self.fin.elements, key=lambda u: (self.fin.length(u), u)):
                d0 = self.tau_element_degree(w, ell)
                for m in monos:
                    if 2 * sum(m) + d0 <= degree_bound:
                        out.append((ell, w, Poly(self.rank, {m: Fraction(1)})))
        return out

    def gram_matrix(self, degree_bound: int) -> tuple[list[tuple[Vec, Perm, Poly]], list[list[Poly]]]:
        """The exact trace-pairing matrix on the bounded spanning set."""
        span = self.spanning_set(degree_bound)
        ops = [self.mul(self.poly_mult(m, self.act_ell(w, ell)), self.tau_element(w, ell))
               for (ell, w, m) in span]
        n = len(span)
        zero = Poly.zero(self.rank)
        matrix = [[zero] * n for _ in range(n)]
        for i in range(n):
            ell_i = span[i][0]
            for j in range(n):
                # x_i y_j is zero unless the target of y_j matches the source of x_i
                if self.act_ell(span[j][1], span[j][0]) != ell_i:
                    continue
                matrix[i][j] = self.frobenius_trace(self.mul(ops[i], ops[j]))
        return span, matrix

    def expected_gram_rank(self) -> int:
        _, stab = self.group.stabilizer(self.bof.base_point)
        return len(self.orbit) * len(self.fin.elements) * len(stab)


def _monomials(nvars: int, degree_bound: int):
    # monomials of polynomial degree <= degree_bound / 2 (each variable has degree 2)
    maxdeg = degree_bound // 2
    out = [()]
    for _ in range(nvars):
        out = [m + (e,) for m in out for e in range(maxdeg + 1)]
    return sorted(m for m in out if sum(m) <= maxdeg)


def gram_rank_at_point(matrix: list[list[Poly]], point: Sequence[Fraction]) -> int:
    """Exact rank of the evaluated Gram matrix; a lower bound for the generic rank."""
    rows = [[entry.evaluate(point) for entry in row] for row in matrix]
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
