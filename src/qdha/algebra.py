"""The quiver double Hecke algebra as exact operators on sums of polynomial rings.

An operator is a finite matrix of blocks ``Pol_lambda -> Pol_mu`` of the shape
``f -> r * u(f)`` with u a finite Weyl twist and r a rational function.  The
block key (source, target, twist) pins down a unique affine Weyl element g
with ``g lambda = mu`` and finite part u, because a translation fixing a point
is trivial; so an operator is a finite sum ``sum r_g [g]``.

The generator attached to a basis letter a and a weight lambda is

    tau_a e(lambda) = (da)^{-1} (s - 1)        if omega_lambda(a) = -1,
    tau_a e(lambda) = (da)^{omega_lambda(a)} s  otherwise,

with ``da`` the differential of a and s the reflection in it.  Products of
generators along a reduced word of g have all their blocks at elements of
length <= l(g), with the block at g itself carrying the invertible leading
coefficient ``w( prod (-db)^{omega(b)} )`` over the inversion set of g, w the
twist of g.  That coefficient is a root monomial (``RootMonomial``): a sign
and the exponents of ``-db`` over positive roots b, twisted by a table lookup
per root.  The normal form routine peels blocks by descending length using
that triangularity; the result expresses an operator in the basis
``{f_g tau_g e(lambda)}`` with polynomial coefficients exactly when the
operator belongs to the algebra.

``OperatorAlgebra`` holds this calculus once.  ``Algebra`` runs it on the
affine weight orbit of an order function; ``qdha.bqha.BAlgebra`` runs it on
the torus orbit of a finite order function, with finite Weyl elements as basis.

A weight, and so the source and target of a block key, is the tuple of its
integer numerators over the order function's one denominator D
(``rootsys.PointKey``), so blocks, caches and tables hash ints;
``OperatorAlgebra.over`` turns a key back into its ``Fraction`` point for a
message or a report.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .orderfun import OrderFunction
from .polyring import Poly, RatFunc, apply_linear_rat
from .rootsys import AffineRoot, PointKey, RootKey
from .weyl import AffineWeylElement, AffineWeylGroup, Perm, PointsOver

# (source, target, twist); source and target are weight keys over D
EntryKey = tuple[PointKey, PointKey, Perm]
# a basis element: affine in the affine algebra, finite in the finite quotient
Element = AffineWeylElement | Perm
# ``sign * prod (-d beta)^e`` over the positive roots beta of the map, no e = 0
RootMonomial = tuple[int, dict[RootKey, int]]
# the order of s_i s_j by the product a_ij a_ji of Cartan integers
_COXETER_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


class NotInAlgebra(ValueError):
    """The operator is rational but not in the algebra (a coefficient has a denominator)."""

    def __init__(self, message, offenders=None):
        super().__init__(message)
        self.offenders = offenders or []


class NonTerminating(RuntimeError):
    """The normal-form peel failed to shrink; indicates corrupted input."""


@dataclass(frozen=True)
class RatOperator:
    """A finite block matrix; keys are (source weight, target weight, twist)."""

    entries: tuple[tuple[EntryKey, RatFunc], ...]

    @staticmethod
    def from_dict(d: Mapping[EntryKey, RatFunc]) -> "RatOperator":
        items = tuple(sorted(((k, v) for k, v in d.items() if not v.is_zero()), key=lambda kv: kv[0]))
        return RatOperator(items)

    def to_dict(self) -> dict[EntryKey, RatFunc]:
        return dict(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def sources(self) -> list[PointKey]:
        return sorted({k[0] for k, _ in self.entries})

    def __add__(self, other: "RatOperator") -> "RatOperator":
        out = self.to_dict()
        for k, v in other.entries:
            if k in out:
                out[k] = out[k] + v
            else:
                out[k] = v
        return RatOperator.from_dict(out)

    def __neg__(self) -> "RatOperator":
        return RatOperator(tuple((k, -v) for k, v in self.entries))

    def __sub__(self, other: "RatOperator") -> "RatOperator":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatOperator):
            return NotImplemented
        a, b = self.to_dict(), other.to_dict()
        if set(a) != set(b):
            return False
        return all(a[k] == b[k] for k in a)


@dataclass
class NormalForm:
    """An algebra element written as ``sum_g coeffs[g] tau_g e(source)``.

    The keys g are affine Weyl elements in the affine algebra and finite Weyl
    group elements in the finite quotient.
    """

    source: PointKey
    coeffs: dict[Element, Poly]

    def support(self) -> list[Element]:
        return [g for g, f in self.coeffs.items() if not f.is_zero()]

    def filtration_degree(self, group) -> int | None:
        """Max length over the support; None stands for the degree of 0."""
        sup = self.support()
        if not sup:
            return None
        return max(group.length(g) for g in sup)

    def is_zero(self) -> bool:
        return not self.support()


class OperatorAlgebra:
    """The operator calculus shared by the affine algebra and its finite quotient.

    A subclass fixes its weights and its basis elements through these hooks:

    * ``_weight(lam)``: lam normalised as a weight, or an error if it is none;
    * ``_letter(i, lam)``: the root, order value and target of the i-th letter;
    * ``_word(g)``, ``_twist(g)``, ``_length(g)``, ``_target(g, lam)``: the
      canonical reduced word, finite twist, length and image ``g lam`` of a
      basis element;
    * ``element_of_entry(key)``: the basis element a block key stands for;
    * ``inversion_orders(g, lam)``: the (root, order value) pairs of the
      inversion set of g; pairs with value 0 may be left out.
    """

    def __init__(self, group: AffineWeylGroup, over: PointsOver):
        self.group = group
        self.fin = group.finite
        self.rs = group.rs
        self.rank = self.rs.rank
        # weights are keys over over.den; over turns a key back into its point
        self.over = over
        self.den = over.den
        # [tau_g e(lambda), its leading block (None if absent), the block's
        # inverse (None until _leading_block first asks for it)]
        self._tau_elt: dict[tuple[Element, PointKey], list] = {}
        self.one = Poly.const(self.rank, 1)
        # variable j is the fundamental weight x -> x_j, the j-th simple-coroot
        # coordinate, so w sends it to x_j(w^-1 x): row j of the integer point
        # matrix of w^-1; a root a is the form <a, x> = sum_i <a, alpha_i^vee> x_i
        self._images: dict[Perm, tuple[Poly, ...]] = {
            w: tuple(map(Poly.linear, zip(*self.fin._cols[self.fin.inverse(w)])))
            for w in self.fin.elements
        }
        self._root_poly: dict[RootKey, Poly] = {
            a: Poly.linear([self.rs.pair_root_coroot(a, self.rs.simple_root(i)) for i in range(self.rank)])
            for a in self.rs.roots
        }
        # each root's positive root, and whether the root is negative
        self._folded: dict[RootKey, tuple[RootKey, bool]] = {
            a: (a, False) if self.rs.is_positive_root(a) else (tuple(-c for c in a), True)
            for a in self.rs.roots
        }

    # ----- scalars and actions -----

    def root_poly(self, alpha: RootKey) -> Poly:
        return self._root_poly[alpha]

    def images(self, w: Perm) -> tuple[Poly, ...]:
        """The images of the variables under the automorphism w."""
        return self._images[w]

    # the identity returns its argument: its images give the same canonical form
    def act_poly(self, w: Perm, f: Poly) -> Poly:
        return f if w == self.fin.identity else f.substitute(self._images[w])

    def act_rat(self, w: Perm, r: RatFunc) -> RatFunc:
        return r if w == self.fin.identity else apply_linear_rat(r, self.images(w))

    # ----- operator constructors -----

    def zero(self) -> RatOperator:
        return RatOperator(())

    def idempotent(self, lam: PointKey) -> RatOperator:
        return self.poly_mult(self.one, lam)

    def poly_mult(self, f: Poly, lam: PointKey) -> RatOperator:
        lam = self._weight(lam)
        return RatOperator.from_dict({(lam, lam, self.fin.identity): RatFunc.from_poly(f)})

    def two_case_generator(self, alpha: RootKey, m: int, src: PointKey,
                           tgt: PointKey) -> RatOperator:
        """The generator from src to tgt for the reflection in alpha with order value m:
        ``(d alpha)^{-1} (s - 1)`` if m = -1, else ``(d alpha)^m s``."""
        s = self.fin.reflection(alpha)
        da = self.root_poly(alpha)
        if m == -1:
            if tgt != src:
                raise ValueError("order value -1 where the reflection moves the weight")
            inv = RatFunc(self.one, {da: 1})
            return RatOperator.from_dict({
                (src, src, s): inv,
                (src, src, self.fin.identity): -inv,
            })
        return RatOperator.from_dict({(src, tgt, s): RatFunc.from_poly(da ** m if m else self.one)})

    def tau_letter(self, i: int, lam: PointKey) -> RatOperator:
        """The generator tau_{a_i} e(lambda)."""
        lam = self._weight(lam)
        alpha, m, target = self._letter(i, lam)
        return self.two_case_generator(alpha, m, lam, target)

    def mul(self, x: RatOperator, y: RatOperator) -> RatOperator:
        out: dict[EntryKey, RatFunc] = {}
        for (s2, t2, u2), r2 in y.entries:
            for (s1, t1, u1), r1 in x.entries:
                if s1 != t2:
                    continue
                key = (s2, t1, self.fin.compose(u1, u2))
                term = r1 * self.act_rat(u1, r2)
                out[key] = out[key] + term if key in out else term
        return RatOperator.from_dict(out)

    def tau_word(self, word: Sequence[int], lam: PointKey) -> RatOperator:
        """tau_{a_{word[0]}} ... tau_{a_{word[-1]}} e(lambda), rightmost letter first."""
        lam = self._weight(lam)
        acc = self.idempotent(lam)
        for i in reversed(list(word)):
            alpha, m, target = self._letter(i, lam)
            acc = self.mul(self.two_case_generator(alpha, m, lam, target), acc)
            lam = target
        return acc

    def tau_element(self, g: Element, lam: PointKey) -> RatOperator:
        """tau_g e(lambda) along the canonical (lex-least) reduced word of g."""
        return self._tau(g, lam)[0]

    def _tau(self, g: Element, lam: PointKey) -> list:
        """The cache entry [tau_g e(lambda), its leading block, that block's inverse]."""
        lam = self._weight(lam)
        key = (g, lam)
        hit = self._tau_elt.get(key)
        if hit is None:
            op = self.tau_word(self._word(g), lam)
            lead_key = (lam, self._target(g, lam), self._twist(g))
            lead = next((r for k, r in op.entries if k == lead_key), None)
            hit = self._tau_elt[key] = [op, lead, None]
        return hit

    # ----- degrees -----

    def tau_element_degree(self, g: Element, lam: PointKey) -> int:
        """Degree of tau_g e(lambda) along the canonical word, in the algebra grading.

        Each letter contributes the order values of its root on the two sides
        of its wall.
        """
        lam = self._weight(lam)
        total = 0
        for i in reversed(self._word(g)):
            _, m, target = self._letter(i, lam)
            total += m + self._letter(i, target)[1]
            lam = target
        return total

    # ----- leading coefficients and normal forms -----

    def _leading_block(self, g: Element, lam: PointKey) -> list:
        """[tau_g e(lambda), its leading block, the block's inverse]; the inverse is
        computed on the first request and kept in the cache entry."""
        hit = self._tau(g, lam)
        if hit[1] is None:
            raise ArithmeticError(f"tau_{g} e({self.over(lam)}) lost its leading block")
        if hit[2] is None:
            hit[2] = hit[1].inverse()
        return hit

    def root_monomial(self, pairs: Iterable[tuple[RootKey, int]]) -> RootMonomial:
        """``prod (-d beta)^m`` over (root beta, order value m) pairs.

        A negative root gamma gives ``-d gamma = -(-d(-gamma))``, so it flips
        the sign when m is odd.
        """
        sign, exps = 1, {}
        for beta, m in pairs:
            if not m:
                continue
            beta, negative = self._folded[beta]
            if negative and m % 2:
                sign = -sign
            e = exps.get(beta, 0) + m
            if e:
                exps[beta] = e
            else:
                del exps[beta]
        return sign, exps

    def leading_monomial(self, g: Element, lam: PointKey) -> RootMonomial:
        """The closed form of the leading coefficient: ``w( prod (-db)^{omega(b)} )``.

        The product runs over the inversion set of g and w is the twist of g;
        it is the invertible diagonal entry of the transition to the twist basis.
        w sends ``-d b`` to ``-d(w b)``, a lookup in the root table.
        """
        w = self._twist(g)
        return self.root_monomial((self.fin.act_root(w, b), m)
                                  for b, m in self.inversion_orders(g, self._weight(lam)))

    def monomial_rat(self, mono: RootMonomial) -> RatFunc:
        """A root monomial as one rational function."""
        sign, exps = mono
        num, den = (self.one if sign > 0 else -self.one), {}
        for beta, e in exps.items():
            db = -self._root_poly[beta]
            if e > 0:
                num = num * db ** e
            else:
                den[db] = -e
        return RatFunc(num, den)

    def _basis_key(self, g: Element):
        return (self._length(g), g)

    def normal_form_rational(self, x: RatOperator) -> tuple[PointKey, dict[Element, RatFunc]]:
        """Peel a single-source operator into the tau basis; coefficients may be rational.

        Blocks are peeled by descending element length: subtracting a peeled
        ``f_g tau_g`` only produces blocks at strictly shorter elements, so the
        maximal layer strictly decreases and the loop terminates.
        """
        sources = x.sources()
        if len(sources) > 1:
            raise ValueError("normal form expects a single-source operator")
        if not sources:
            return (0,) * self.rank, {}
        src = sources[0]
        elts: dict[EntryKey, tuple[int, Element]] = {}

        def block(key: EntryKey, value: RatFunc) -> list:
            # [value, length, element]; each key's element is computed once per call
            known = elts.get(key)
            if known is None:
                g = self.element_of_entry(key)
                known = elts[key] = (self._length(g), g)
            return [value, *known]

        remaining = {key: block(key, r) for key, r in x.entries}
        coeffs: dict[Element, RatFunc] = {}
        last_maxlen = None
        while remaining:
            maxlen = max(length for _, length, _ in remaining.values())
            if last_maxlen is not None and maxlen >= last_maxlen:
                raise NonTerminating("normal-form peel did not shrink")
            last_maxlen = maxlen
            for entry in list(remaining.values()):
                _, length, g = entry
                if length < maxlen:
                    continue
                op, _, inv = self._leading_block(g, src)
                fg = entry[0] * inv
                coeffs[g] = coeffs[g] + fg if g in coeffs else fg
                for k, v in op.entries:
                    term = fg * v
                    hit = remaining.get(k)
                    if hit is None:
                        remaining[k] = block(k, -term)
                    else:
                        hit[0] = hit[0] - term
            remaining = {k: e for k, e in remaining.items() if not e[0].is_zero()}
        return src, {g: f for g, f in coeffs.items() if not f.is_zero()}

    def normal_form(self, x: RatOperator) -> NormalForm:
        """Decompose a single-source operator in the tau basis.

        Raises NotInAlgebra when some coefficient keeps a denominator.
        """
        src, coeffs = self.normal_form_rational(x)
        offenders = sorted((g for g, f in coeffs.items() if not f.is_poly()), key=self._basis_key)
        if offenders:
            raise NotInAlgebra(
                f"operator is not in the algebra at source {self.over(src)}", offenders=offenders
            )
        return NormalForm(source=src, coeffs={g: f.as_poly() for g, f in coeffs.items()})

    def reconstruct(self, nf: NormalForm) -> RatOperator:
        out = self.zero()
        for g in sorted(nf.coeffs, key=self._basis_key):
            out = out + self.mul(self.poly_mult(nf.coeffs[g], self._target(g, nf.source)),
                                 self.tau_element(g, nf.source))
        return out


class Algebra(OperatorAlgebra):
    """The quiver double Hecke algebra of an order function, on its affine weight orbit.

    Every weight a computation touches gets omega moved to it once, as a
    table of its nonzero values.  A letter carries the table to its target:
    if ``lam = w lam0`` then ``s_i lam = (s_i w) lam0``, so omega at
    ``s_i lam`` is ``{s_i b: v}`` over the table ``{b: v}`` at lam.  Only a
    weight that no letter reached is walked to the fundamental alcove.
    """

    def __init__(self, omega: OrderFunction):
        super().__init__(omega.group, omega.over)
        self.omega = omega
        self.ars = self.group.ars
        self._moved: dict[PointKey, dict[AffineRoot, int]] = {}

    # ----- weights and basis elements -----

    def moved(self, lam: PointKey) -> dict[AffineRoot, int]:
        """omega at lam: the table a letter carried there, else ``OrderFunction.moved``
        at a walked witness of lam."""
        table = self._moved.get(lam)
        if table is None:
            wit = self.omega.witness(lam)
            if wit is None:
                raise ValueError(f"{self.over(lam)} is not in the weight orbit")
            table = self._moved[lam] = self.omega.moved(wit)
        return table

    def _weight(self, lam: PointKey) -> PointKey:
        if lam not in self._moved:
            self.moved(lam)
        return lam

    def _letter(self, i: int, lam: PointKey) -> tuple[RootKey, int, PointKey]:
        a = self.ars.delta[i]
        s = self.group.simple_reflection(i)
        target = self.group.act_point(s, lam, self.den)
        table = self.moved(lam)
        if target not in self._moved:
            self._moved[target] = {self.group.act_root(s, b): v for b, v in table.items()}
        return a.alpha, table.get(a, 0), target

    def _word(self, g: AffineWeylElement) -> tuple[int, ...]:
        return self.group.reduced_word(g)

    def _twist(self, g: AffineWeylElement) -> Perm:
        return g.w

    def _length(self, g: AffineWeylElement) -> int:
        return self.group.length(g)

    def _target(self, g: AffineWeylElement, lam: PointKey) -> PointKey:
        return self.group.act_point(g, lam, self.den)

    def element_of_entry(self, key: EntryKey) -> AffineWeylElement:
        """The unique affine element represented by a block key: ``X^mu u`` with
        ``mu = (tgt - u src) / D``, which must be integral."""
        src, tgt, u = key
        mu = []
        for t, s in zip(tgt, self.fin.act_point(u, src)):
            q, r = divmod(t - s, self.den)
            if r:
                raise ValueError(f"block {(self.over(src), self.over(tgt), u)} does not come "
                                 "from an affine Weyl element")
            mu.append(q)
        return AffineWeylElement(tuple(mu), u)

    def inversion_orders(self, g: AffineWeylElement, lam: PointKey) -> list[tuple[RootKey, int]]:
        """The nonzero pairs: roots b of omega at lam with b positive and g b negative."""
        pos = self.ars.is_positive
        return [(b.alpha, v) for b, v in sorted(self.moved(lam).items())
                if pos(b) and not pos(self.group.act_root(g, b))]

    # ----- derived operations -----

    def braid_order(self, i: int, j: int) -> int | None:
        """The order of s_i s_j in the affine Weyl group, None when infinite.

        It is read off the product ``a_ij a_ji`` of the Cartan integers of the
        two affine simple roots; only affine A1 has a product outside 0..3.
        """
        a, b = self.ars.delta[i].alpha, self.ars.delta[j].alpha
        return _COXETER_ORDER.get(self.rs.pair_root_coroot(a, b) * self.rs.pair_root_coroot(b, a))

    def braid_defect(self, i: int, j: int, lam: PointKey) -> tuple[int | None, NormalForm]:
        """Filtration degree of the braid difference at lambda; None means exact zero."""
        m = self.braid_order(i, j)
        if m is None:
            raise ValueError(f"letters {i}, {j} generate an infinite dihedral group")
        wa = [i if k % 2 == 0 else j for k in range(m)]
        wb = [j if k % 2 == 0 else i for k in range(m)]
        diff = self.tau_word(wa, lam) - self.tau_word(wb, lam)
        nf = self.normal_form(diff)
        return nf.filtration_degree(self.group), nf
