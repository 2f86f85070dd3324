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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .orderfun import OrderFunction
from .polyring import Poly, RatFunc, apply_linear, apply_linear_rat
from .rootsys import AffineRoot, RootKey, Vec, vec
from .weyl import AffineWeylElement, AffineWeylGroup, Perm

EntryKey = tuple[Vec, Vec, Perm]


class NotInAlgebra(ValueError):
    """The operator is rational but not in the algebra (a coefficient has a denominator)."""

    def __init__(self, message, offenders=None):
        super().__init__(message)
        self.offenders = offenders or []


class WindowExceeded(RuntimeError):
    """A computation produced weights beyond the configured length cap."""


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
    """An algebra element written as ``sum_g coeffs[g] tau_g e(source)``."""

    source: Vec
    coeffs: dict[AffineWeylElement, Poly]

    def support(self) -> list[AffineWeylElement]:
        return [g for g, f in self.coeffs.items() if not f.is_zero()]

    def filtration_degree(self, group: AffineWeylGroup) -> int | None:
        """Max length over the support; None stands for the degree of 0."""
        sup = self.support()
        if not sup:
            return None
        return max(group.length(g) for g in sup)

    def is_zero(self) -> bool:
        return not self.support()


class Algebra:
    """Operator context for a fixed order function.

    ``length_cap`` bounds the witness length of any weight a computation may
    touch; crossing it raises instead of truncating silently.
    """

    def __init__(self, omega: OrderFunction, length_cap: int = 120):
        self.omega = omega
        self.group: AffineWeylGroup = omega.group
        self.ars = self.group.ars
        self.rs = self.group.rs
        self.rank = self.rs.rank
        self.length_cap = length_cap
        self._images: dict[Perm, list[Poly]] = {}
        self._witness: dict[Vec, AffineWeylElement] = {}
        self._tau_elt: dict[tuple[AffineWeylElement, Vec], RatOperator] = {}
        self._root_poly: dict[RootKey, Poly] = {}

    # ----- scalars, weights, actions -----

    def root_poly(self, alpha: RootKey) -> Poly:
        if alpha not in self._root_poly:
            self._root_poly[alpha] = Poly.linear(
                [self.rs.pair_root_coroot(alpha, self.rs.simple_root(i)) for i in range(self.rank)]
            )
        return self._root_poly[alpha]

    def images(self, w: Perm) -> list[Poly]:
        """Variable images of the automorphism w (variables are fundamental weights)."""
        if w not in self._images:
            word = self.group.finite.word(w)
            images = [Poly.variable(self.rank, i) for i in range(self.rank)]
            for letter in reversed(word):
                simple_imgs = self._simple_images(letter)
                images = [img.substitute(simple_imgs) for img in images]
            self._images[w] = images
        return self._images[w]

    def _simple_images(self, j: int) -> list[Poly]:
        # s_j(varpi_i) = varpi_i - delta_ij alpha_j
        alpha = self.root_poly(self.rs.simple_root(j))
        out = []
        for i in range(self.rank):
            v = Poly.variable(self.rank, i)
            out.append(v - alpha if i == j else v)
        return out

    def act_poly(self, w: Perm, f: Poly) -> Poly:
        return apply_linear(f, self.images(w))

    def act_rat(self, w: Perm, r: RatFunc) -> RatFunc:
        return apply_linear_rat(r, self.images(w))

    def witness(self, lam: Vec) -> AffineWeylElement:
        lam = vec(lam)
        if lam not in self._witness:
            wit = self.group.witness(lam, self.omega.base_point)
            if wit is None:
                raise ValueError(f"{lam} is not in the weight orbit")
            if self.group.length(wit) > self.length_cap:
                raise WindowExceeded(f"weight {lam} needs witness length > {self.length_cap}")
            self._witness[lam] = wit
        return self._witness[lam]

    def omega_value(self, lam: Vec, a: AffineRoot) -> int:
        return self.omega.at(self.witness(lam), a)

    def element_of_entry(self, key: EntryKey) -> AffineWeylElement:
        """The unique affine element represented by a block key."""
        src, tgt, u = key
        usrc = self.group.finite.act_point(u, src)
        mu = vec(tuple(t - s for t, s in zip(tgt, usrc)))
        if not self.rs.in_coroot_lattice(mu):
            raise ValueError(f"block {key} does not come from an affine Weyl element")
        return AffineWeylElement(mu, u)

    # ----- operator constructors -----

    def zero(self) -> RatOperator:
        return RatOperator(())

    def idempotent(self, lam: Vec) -> RatOperator:
        lam = vec(lam)
        self.witness(lam)
        one = RatFunc.from_poly(Poly.const(self.rank, 1))
        return RatOperator.from_dict({(lam, lam, self.group.finite.identity): one})

    def poly_mult(self, f: Poly, lam: Vec) -> RatOperator:
        lam = vec(lam)
        self.witness(lam)
        return RatOperator.from_dict({(lam, lam, self.group.finite.identity): RatFunc.from_poly(f)})

    def scalar(self, c, lam: Vec) -> RatOperator:
        return self.poly_mult(Poly.const(self.rank, c), lam)

    def tau_letter(self, i: int, lam: Vec) -> RatOperator:
        """The generator tau_{a_i} e(lambda)."""
        lam = vec(lam)
        a = self.ars.delta[i]
        m = self.omega_value(lam, a)
        s = self.group.finite.reflection(a.alpha)
        da = self.root_poly(a.alpha)
        target = self.group.act_point(self.group.simple_reflection(i), lam)
        if m == -1:
            if target != lam:
                raise ValueError("order value -1 away from a wall; order function invalid")
            inv = RatFunc(Poly.const(self.rank, 1), {da: 1})
            return RatOperator.from_dict({
                (lam, lam, s): inv,
                (lam, lam, self.group.finite.identity): -inv,
            })
        coeff = RatFunc.from_poly(da ** m)
        return RatOperator.from_dict({(lam, target, s): coeff})

    def mul(self, x: RatOperator, y: RatOperator) -> RatOperator:
        out: dict[EntryKey, RatFunc] = {}
        xd = x.to_dict()
        yd = y.to_dict()
        for (s2, t2, u2), r2 in yd.items():
            for (s1, t1, u1), r1 in xd.items():
                if s1 != t2:
                    continue
                key = (s2, t1, self.group.finite.compose(u1, u2))
                term = r1 * self.act_rat(u1, r2)
                out[key] = out[key] + term if key in out else term
        return RatOperator.from_dict(out)

    def product(self, ops: Sequence[RatOperator]) -> RatOperator:
        """Compose left to right: product([x, y, z]) = x y z."""
        if not ops:
            raise ValueError("empty product")
        acc = ops[-1]
        for op in reversed(ops[:-1]):
            acc = self.mul(op, acc)
        return acc

    def tau_word(self, word: Sequence[int], lam: Vec) -> RatOperator:
        """tau_{a_{word[0]}} ... tau_{a_{word[-1]}} e(lambda), rightmost letter first."""
        lam = vec(lam)
        acc = self.idempotent(lam)
        cur = lam
        for i in reversed(list(word)):
            step = self.tau_letter(i, cur)
            acc = self.mul(step, acc)
            cur = self.group.act_point(self.group.simple_reflection(i), cur)
        return acc

    def tau_element(self, g: AffineWeylElement, lam: Vec) -> RatOperator:
        """tau_g e(lambda) along the canonical (lex-least) reduced word of g."""
        lam = vec(lam)
        key = (g, lam)
        if key not in self._tau_elt:
            self._tau_elt[key] = self.tau_word(self.group.reduced_word(g), lam)
        return self._tau_elt[key]

    def apply(self, x: RatOperator, lam: Vec, f: Poly) -> list[tuple[Vec, RatFunc]]:
        """Apply x to the vector with f in slot lambda; returns (weight, value) pairs."""
        out: dict[Vec, RatFunc] = {}
        for (src, tgt, u), r in x.entries:
            if src != vec(lam):
                continue
            val = r * RatFunc.from_poly(self.act_poly(u, f))
            out[tgt] = out[tgt] + val if tgt in out else val
        return sorted((k, v) for k, v in out.items() if not v.is_zero())

    # ----- leading coefficients and normal forms -----

    def leading_coefficient(self, g: AffineWeylElement, lam: Vec) -> RatFunc:
        """The coefficient of the block [g] inside tau_g e(lambda)."""
        lam = vec(lam)
        tgt = self.group.act_point(g, lam)
        key = (lam, tgt, g.w)
        d = self.tau_element(g, lam).to_dict()
        if key not in d:
            raise ArithmeticError(f"tau_{g} e({lam}) lost its leading block")
        return d[key]

    def inversion_leading_coefficient(self, g: AffineWeylElement, lam: Vec) -> RatFunc:
        """The closed form of the same coefficient: dw( prod (-db)^{omega(b)} ).

        The product runs over the inversion set of g; it is the invertible
        diagonal entry of the transition to the twist basis.
        """
        lam = vec(lam)
        acc = RatFunc.from_poly(Poly.const(self.rank, 1))
        for b in self.group.inversion_set(g):
            m = self.omega_value(lam, b)
            db = -self.root_poly(b.alpha)
            if m >= 0:
                acc = acc * RatFunc.from_poly(db ** m)
            else:
                acc = acc * RatFunc(Poly.const(self.rank, 1), {db: -m})
        num = self.act_poly(g.w, acc.num)
        den = {self.act_poly(g.w, p): mult for p, mult in acc.den.values()}
        return RatFunc(num, den)

    def normal_form_rational(self, x: RatOperator) -> tuple[Vec, dict[AffineWeylElement, RatFunc]]:
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
        remaining = x.to_dict()
        coeffs: dict[AffineWeylElement, RatFunc] = {}
        last_maxlen = None
        while remaining:
            elts = {key: self.element_of_entry(key) for key in remaining}
            maxlen = max(self.group.length(g) for g in elts.values())
            if last_maxlen is not None and maxlen >= last_maxlen:
                raise NonTerminating("normal-form peel did not shrink")
            last_maxlen = maxlen
            for key in [k for k, g in elts.items() if self.group.length(g) == maxlen]:
                g = elts[key]
                fg = remaining[key] / self.leading_coefficient(g, src)
                coeffs[g] = coeffs.get(g, RatFunc.from_poly(Poly.zero(self.rank))) + fg
                for k, v in self.tau_element(g, src).entries:
                    term = fg * v
                    remaining[k] = (remaining[k] - term) if k in remaining else -term
            remaining = {k: v for k, v in remaining.items() if not v.is_zero()}
        return src, {g: f for g, f in coeffs.items() if not f.is_zero()}

    def normal_form(self, x: RatOperator) -> NormalForm:
        """Decompose a single-source operator in the tau basis.

        Raises NotInAlgebra when some coefficient keeps a denominator.
        """
        src, coeffs = self.normal_form_rational(x)
        offenders = sorted((g for g, f in coeffs.items() if not f.is_poly()),
                           key=lambda g: (self.group.length(g), g.mu, g.w))
        if offenders:
            raise NotInAlgebra(
                f"operator is not in the algebra at source {src}", offenders=offenders
            )
        return NormalForm(source=src, coeffs={g: f.as_poly() for g, f in coeffs.items()})

    def reconstruct(self, nf: NormalForm) -> RatOperator:
        out = self.zero()
        for g, f in sorted(nf.coeffs.items(), key=lambda kv: (self.group.length(kv[0]), kv[0].mu, kv[0].w)):
            out = out + self.mul(self.poly_mult(f, self.group.act_point(g, nf.source)),
                                 self.tau_element(g, nf.source))
        return out

    # ----- derived operations -----

    def filtration_degree(self, nf: NormalForm) -> int | None:
        return nf.filtration_degree(self.group)

    def commutation_defect(self, f: Poly, word: Sequence[int], lam: Vec) -> NormalForm:
        """Normal form of f tau_word - tau_word w^{-1}(f); degree < len(word)."""
        lam = vec(lam)
        g = self.group.from_word(word)
        if len(word) != self.group.length(g):
            raise ValueError("word is not reduced")
        tgt = self.group.act_point(g, lam)
        op = self.tau_word(word, lam)
        lhs = self.mul(self.poly_mult(f, tgt), op)
        winv_f = self.act_poly(self.group.inverse(g).w, f)
        rhs = self.mul(op, self.poly_mult(winv_f, lam))
        return self.normal_form(lhs - rhs)

    def braid_order(self, i: int, j: int, cap: int = 12) -> int | None:
        """The order of s_i s_j in the affine Weyl group, None when infinite."""
        prod = self.group.compose(self.group.simple_reflection(i), self.group.simple_reflection(j))
        acc = prod
        for m in range(1, cap + 1):
            if acc == self.group.identity:
                return m
            acc = self.group.compose(acc, prod)
        return None

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

    def intertwiner_phi(self, i: int, lam: Vec) -> RatOperator:
        """phi_a e(lambda): the tau generator corrected to have unit square on walls."""
        lam = vec(lam)
        a = self.ars.delta[i]
        if self.omega_value(lam, a) == -1:
            da = self.root_poly(a.alpha)
            return self.mul(self.poly_mult(da, lam), self.tau_letter(i, lam)) + self.idempotent(lam)
        return self.tau_letter(i, lam)

    def phi_square_exponent(self, i: int, lam: Vec) -> int:
        """n with phi_a^2 e(lambda) = ±(da)^n e(lambda)."""
        a = self.ars.delta[i]
        neg = AffineRoot(tuple(-c for c in a.alpha), -a.level)
        wit = self.witness(vec(lam))
        return max(self.omega.at(wit, a) + self.omega.at(wit, neg), 0)

    def tau_element_degree(self, g: AffineWeylElement, lam: Vec) -> int:
        """Degree of tau_g e(lambda) along the canonical word, in the algebra grading."""
        lam = vec(lam)
        total = 0
        cur = lam
        for i in reversed(self.group.reduced_word(g)):
            total += self.omega.tau_degree(i, self.witness(cur))
            cur = self.group.act_point(self.group.simple_reflection(i), cur)
        return total

    def normal_form_degree(self, nf: NormalForm) -> int | None:
        """Top graded degree of a normal form (polynomial degree counts doubled)."""
        degs = [
            f.graded_degree() + self.tau_element_degree(g, nf.source)
            for g, f in nf.coeffs.items() if not f.is_zero()
        ]
        return max(degs) if degs else None

    # ----- centre -----

    def central_operator(self, f: Poly, weights: Iterable[Vec]) -> RatOperator:
        """The diagonal action of an invariant polynomial via witness twists."""
        entries: dict[EntryKey, RatFunc] = {}
        for lam in weights:
            lam = vec(lam)
            tw = self.act_poly(self.witness(lam).w, f)
            entries[(lam, lam, self.group.finite.identity)] = RatFunc.from_poly(tw)
        return RatOperator.from_dict(entries)

    def reynolds(self, f: Poly) -> Poly:
        """Average of f over the stabilizer of the base point (an element of the centre)."""
        _, stab = self.group.stabilizer(self.omega.base_point)
        acc = Poly.zero(self.rank)
        for g in stab:
            acc = acc + self.act_poly(g.w, f)
        return acc.scale(Fraction(1, len(stab)))
