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
coefficient ``prod (-db)^{omega(b)}`` over the inversion set of g.  The normal
form routine peels blocks by descending length using that triangularity; the
result expresses an operator in the basis ``{f_g tau_g e(lambda)}`` with
polynomial coefficients exactly when the operator belongs to the algebra.

``OperatorAlgebra`` holds this calculus once.  ``Algebra`` runs it on the
affine weight orbit of an order function; ``qdha.bqha.BAlgebra`` runs it on
the torus orbit of a finite order function, with finite Weyl elements as basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .orderfun import OrderFunction
from .polyring import Poly, RatFunc, apply_linear, apply_linear_rat
from .rootsys import AffineRoot, RootKey, Vec, vec
from .weyl import AffineWeylElement, AffineWeylGroup, Perm

EntryKey = tuple[Vec, Vec, Perm]
# a basis element: affine in the affine algebra, finite in the finite quotient
Element = AffineWeylElement | Perm
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

    def sources(self) -> list[Vec]:
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

    source: Vec
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

    def __init__(self, group: AffineWeylGroup):
        self.group = group
        self.fin = group.finite
        self.rs = group.rs
        self.rank = self.rs.rank
        self._images: dict[Perm, list[Poly]] = {}
        # tau_g e(lambda) with its leading block and that block's inverse (None if absent)
        self._tau_elt: dict[tuple[Element, Vec], tuple[RatOperator, RatFunc | None, RatFunc | None]] = {}
        self._root_poly: dict[RootKey, Poly] = {}

    # ----- scalars and actions -----

    def root_poly(self, alpha: RootKey) -> Poly:
        if alpha not in self._root_poly:
            self._root_poly[alpha] = Poly.linear(
                [self.rs.pair_root_coroot(alpha, self.rs.simple_root(i)) for i in range(self.rank)]
            )
        return self._root_poly[alpha]

    def images(self, w: Perm) -> list[Poly]:
        """Variable images of the automorphism w (variables are fundamental weights)."""
        if w not in self._images:
            images = [Poly.variable(self.rank, i) for i in range(self.rank)]
            for letter in reversed(self.fin.word(w)):
                # s_j(varpi_i) = varpi_i - delta_ij alpha_j
                simple = [Poly.variable(self.rank, i) for i in range(self.rank)]
                simple[letter] = simple[letter] - self.root_poly(self.rs.simple_root(letter))
                images = [img.substitute(simple) for img in images]
            self._images[w] = images
        return self._images[w]

    def act_poly(self, w: Perm, f: Poly) -> Poly:
        return apply_linear(f, self.images(w))

    def act_rat(self, w: Perm, r: RatFunc) -> RatFunc:
        return apply_linear_rat(r, self.images(w))

    # ----- operator constructors -----

    def zero(self) -> RatOperator:
        return RatOperator(())

    def idempotent(self, lam: Vec) -> RatOperator:
        return self.poly_mult(Poly.const(self.rank, 1), lam)

    def poly_mult(self, f: Poly, lam: Vec) -> RatOperator:
        lam = self._weight(lam)
        return RatOperator.from_dict({(lam, lam, self.fin.identity): RatFunc.from_poly(f)})

    def two_case_generator(self, alpha: RootKey, m: int, src: Vec, tgt: Vec) -> RatOperator:
        """The generator from src to tgt for the reflection in alpha with order value m:
        ``(d alpha)^{-1} (s - 1)`` if m = -1, else ``(d alpha)^m s``."""
        s = self.fin.reflection(alpha)
        da = self.root_poly(alpha)
        if m == -1:
            if tgt != src:
                raise ValueError("order value -1 where the reflection moves the weight")
            inv = RatFunc(Poly.const(self.rank, 1), {da: 1})
            return RatOperator.from_dict({
                (src, src, s): inv,
                (src, src, self.fin.identity): -inv,
            })
        return RatOperator.from_dict({(src, tgt, s): RatFunc.from_poly(da ** m)})

    def tau_letter(self, i: int, lam: Vec) -> RatOperator:
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

    def tau_word(self, word: Sequence[int], lam: Vec) -> RatOperator:
        """tau_{a_{word[0]}} ... tau_{a_{word[-1]}} e(lambda), rightmost letter first."""
        lam = self._weight(lam)
        acc = self.idempotent(lam)
        for i in reversed(list(word)):
            alpha, m, target = self._letter(i, lam)
            acc = self.mul(self.two_case_generator(alpha, m, lam, target), acc)
            lam = target
        return acc

    def tau_element(self, g: Element, lam: Vec) -> RatOperator:
        """tau_g e(lambda) along the canonical (lex-least) reduced word of g."""
        return self._tau(g, lam)[0]

    def _tau(self, g: Element, lam: Vec) -> tuple[RatOperator, RatFunc | None, RatFunc | None]:
        lam = self._weight(lam)
        key = (g, lam)
        hit = self._tau_elt.get(key)
        if hit is None:
            op = self.tau_word(self._word(g), lam)
            lead_key = (lam, self._target(g, lam), self._twist(g))
            lead = next((r for k, r in op.entries if k == lead_key), None)
            hit = self._tau_elt[key] = (op, lead, None if lead is None else lead.inverse())
        return hit

    # ----- degrees -----

    def tau_element_degree(self, g: Element, lam: Vec) -> int:
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

    def leading_coefficient(self, g: Element, lam: Vec) -> RatFunc:
        """The coefficient of the block [g] inside tau_g e(lambda)."""
        return self._leading_block(g, lam)[1]

    def _leading_block(self, g: Element, lam: Vec) -> tuple[RatOperator, RatFunc, RatFunc]:
        """tau_g e(lambda), its leading block and the block's inverse."""
        op, lead, inv = self._tau(g, lam)
        if lead is None:
            raise ArithmeticError(f"tau_{g} e({lam}) lost its leading block")
        return op, lead, inv

    def inversion_product(self, pairs: Iterable[tuple[RootKey, int]]) -> RatFunc:
        """``prod (-d beta)^m`` over (root beta, order value m) pairs."""
        one = Poly.const(self.rank, 1)
        acc = RatFunc.from_poly(one)
        for beta, m in pairs:
            db = -self.root_poly(beta)
            acc = acc * (RatFunc.from_poly(db ** m) if m >= 0 else RatFunc(one, {db: -m}))
        return acc

    def inversion_leading_coefficient(self, g: Element, lam: Vec) -> RatFunc:
        """The closed form of the leading coefficient: ``w( prod (-db)^{omega(b)} )``.

        The product runs over the inversion set of g and w is the twist of g;
        it is the invertible diagonal entry of the transition to the twist basis.
        """
        acc = self.inversion_product(self.inversion_orders(g, self._weight(lam)))
        w = self._twist(g)
        return RatFunc(self.act_poly(w, acc.num),
                       {self.act_poly(w, p): mult for p, mult in acc.den.items()})

    def _basis_key(self, g: Element):
        return (self._length(g), g)

    def normal_form_rational(self, x: RatOperator) -> tuple[Vec, dict[Element, RatFunc]]:
        """Peel a single-source operator into the tau basis; coefficients may be rational.

        Blocks are peeled by descending element length: subtracting a peeled
        ``f_g tau_g`` only produces blocks at strictly shorter elements, so the
        maximal layer strictly decreases and the loop terminates.
        """
        sources = x.sources()
        if len(sources) > 1:
            raise ValueError("normal form expects a single-source operator")
        if not sources:
            return vec((0,) * self.rank), {}
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
                f"operator is not in the algebra at source {src}", offenders=offenders
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
        super().__init__(omega.group)
        self.omega = omega
        self.ars = self.group.ars
        self._moved: dict[Vec, dict[AffineRoot, int]] = {}

    # ----- weights and basis elements -----

    def moved(self, lam: Vec) -> dict[AffineRoot, int]:
        """omega at lam: the table a letter carried there, else ``OrderFunction.moved``
        at a walked witness of lam."""
        lam = vec(lam)
        table = self._moved.get(lam)
        if table is None:
            wit = self.omega.witness(lam)
            if wit is None:
                raise ValueError(f"{lam} is not in the weight orbit")
            table = self._moved[lam] = self.omega.moved(wit)
        return table

    def _weight(self, lam: Vec) -> Vec:
        lam = vec(lam)
        if lam not in self._moved:
            self.moved(lam)
        return lam

    def _letter(self, i: int, lam: Vec) -> tuple[RootKey, int, Vec]:
        a = self.ars.delta[i]
        s = self.group.simple_reflection(i)
        target = self.group.act_point(s, lam)
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

    def _target(self, g: AffineWeylElement, lam: Vec) -> Vec:
        return self.group.act_point(g, lam)

    def element_of_entry(self, key: EntryKey) -> AffineWeylElement:
        """The unique affine element represented by a block key."""
        src, tgt, u = key
        usrc = self.fin.act_point(u, src)
        mu = vec(tuple(t - s for t, s in zip(tgt, usrc)))
        if not self.rs.in_coroot_lattice(mu):
            raise ValueError(f"block {key} does not come from an affine Weyl element")
        return AffineWeylElement(mu, u)

    def inversion_orders(self, g: AffineWeylElement, lam: Vec) -> list[tuple[RootKey, int]]:
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

    def braid_defect(self, i: int, j: int, lam: Vec) -> tuple[int | None, NormalForm]:
        """Filtration degree of the braid difference at lambda; None means exact zero."""
        m = self.braid_order(i, j)
        if m is None:
            raise ValueError(f"letters {i}, {j} generate an infinite dihedral group")
        lam = vec(lam)
        wa = [i if k % 2 == 0 else j for k in range(m)]
        wb = [j if k % 2 == 0 else i for k in range(m)]
        diff = self.tau_word(wa, lam) - self.tau_word(wb, lam)
        nf = self.normal_form(diff)
        return nf.filtration_degree(self.group), nf
