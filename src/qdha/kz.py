"""Idempotent truncation machinery: deep antidominant lifts and the finite quotient.

The finite order function of the quotient is the integral of the order
function along the deep lifts, read off the coset representatives once per
instance by ``integral_b_order_function``.  Every affine image of a
finite-quotient operator is its ``lift``: the same blocks, moved to the deep
lifts of their source and target points.

The section from the torus orbit back to the affine orbit is
``ell = w ell_0  ->  X^gamma w lambda_0`` for a translation gamma pairing at
most ``-M`` with every positive root, where M exceeds the level radius of the
order function's support.  Conjugation by ``X^gamma`` sections the finite Weyl
group into the affine one.  Coset representatives for the stabilizer of ell_0
are chosen deterministically (minimal length, then lexicographically least
word; ``TorusOrbit.cosets``), which fixes the idempotent weight set exactly.

The kernel of the truncation by e_gamma is decided clan by clan: it kills a
clan's module exactly when no idempotent weight lies in that clan
(``clans_met``).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .algebra import RatOperator
from .clans import Sign
from .orderfun import BOrderFunction, OrderFunction
from .polyring import Poly
from .rootsys import AffineRoot, Lattice, PointKey, RootKey, lattice_vector
from .weyl import AffineWeylElement, AffineWeylGroup, Perm


@dataclass(frozen=True)
class GammaChoice:
    gamma: Lattice
    margin: int


def two_rho_coroot(group: AffineWeylGroup) -> Lattice:
    """The sum of all positive coroots, an element of the coroot lattice."""
    rs = group.rs
    return tuple(map(sum, zip(*map(rs.coroot_coords, rs.positive_roots))))


def choose_gamma(omega: OrderFunction) -> GammaChoice:
    """A deterministic deep antidominant gamma for the given order function.

    M is one more than the support level radius; gamma = -ceil(M/2) * 2rho^vee
    satisfies <alpha, gamma> <= -M for every positive root alpha.
    """
    group = omega.group
    m = omega.support_level_radius() + 1
    two_rho = two_rho_coroot(group)
    k = -(-m // 2)  # ceil(M/2)
    gamma = check_gamma(group, tuple(-k * c for c in two_rho), m)
    return GammaChoice(gamma=gamma, margin=m)


def check_gamma(group: AffineWeylGroup, gamma: Sequence, margin: int) -> Lattice:
    """gamma as a lattice vector, after checking that it pairs at most ``-margin``
    with every positive root."""
    rs = group.rs
    gamma = lattice_vector(gamma, "gamma")
    for alpha in rs.positive_roots:
        if rs.pair_root_point(alpha, gamma) > -margin:
            raise ValueError(f"<{alpha}, gamma> > -{margin}; gamma not deep enough")
    return gamma


def pregamma_group(group: AffineWeylGroup, gamma: Lattice, w: Perm) -> AffineWeylElement:
    """The section of the finite Weyl group: w -> X^gamma w X^{-gamma}."""
    xg = group.translation(gamma)
    return group.compose(group.compose(xg, group.from_finite(w)), group.inverse(xg))


def pregamma_point(omega: OrderFunction, gamma: Lattice, ell: PointKey) -> PointKey:
    """The lift X^gamma w lambda_0 of a torus orbit point, w its chosen representative;
    keys over D, so the translation adds ``D gamma``."""
    den = omega.over.den
    pt = omega.torus.lifts[omega.torus.point(ell)]
    return tuple(p + den * g for p, g in zip(pt, gamma))


def e_gamma_weights(omega: OrderFunction, gamma: Lattice) -> list[PointKey]:
    """The idempotent weight set: the lifts of the whole torus orbit, sorted."""
    return sorted(pregamma_point(omega, gamma, ell) for ell in omega.torus.points)


# ----- the integral: the finite order function -----

def integral_b_order_function(omega: OrderFunction) -> BOrderFunction:
    """The finite order function: at (ell, beta), omega summed over the support
    roots a whose differential the coset representative w of ell sends to
    ``beta = w a.alpha > 0``.

    This is the integral along every deep lift ``X^gamma w lambda_0``:
    ``X^gamma`` raises the level of ``w a`` by ``-<beta, gamma>`` beyond the
    level radius, so the moved root is positive exactly when beta is.
    """
    group = omega.group
    rs = group.rs
    table: dict[tuple[PointKey, RootKey], int] = {}
    for ell, w in omega.torus.cosets.items():
        for a, v in omega.support.items():
            beta = group.finite.act_root(w, a.alpha)
            if rs.is_positive_root(beta):
                table[(ell, beta)] = table.get((ell, beta), 0) + v
    return BOrderFunction(group, omega.torus, {k: v for k, v in table.items() if v})


# ----- lifts of finite-quotient operators -----

def lift(omega: OrderFunction, gamma: Lattice, op: RatOperator) -> RatOperator:
    """Move a finite-quotient operator to the deep lifts, block by block.

    A block from ell to ell' with twist u becomes the block with the same
    coefficient from X^gamma w lambda_0 to X^gamma w' lambda_0, so lifting is
    multiplicative and every affine image of a finite element is a lift.
    """
    return RatOperator.from_dict({
        (pregamma_point(omega, gamma, src), pregamma_point(omega, gamma, tgt), u): r
        for (src, tgt, u), r in op.entries
    })


# ----- the product formula -----

@dataclass
class ProductFormulaReport:
    w: Perm
    ell: PointKey
    scalar: Fraction
    ok: bool


def product_formula_check(alg, B, gamma: Lattice, section: AffineWeylElement,
                          ell: PointKey) -> ProductFormulaReport:
    """Compare the affine inversion product with the finite one, for the finite
    element w of ``section = pregamma_group(group, gamma, w)``.

    Left side: prod over the inversion set of the section of
    (-db)^{omega(b)}.  Right side: prod over finite inversions of
    (-beta)^{integral omega(beta)}, read from the finite order function of B.
    Both are left untwisted root monomials, each a product of root forms with
    constant ±1 by construction.  Distinct positive roots give non-associate
    linear forms, so the quotient is constant exactly when the two exponent
    maps agree; the scalar is then the quotient of the two signs, and 0 marks
    a quotient that is not constant.
    """
    omega = alg.omega
    ell = omega.torus.point(ell)
    lam = pregamma_point(omega, gamma, ell)
    lsign, lexps = alg.root_monomial(alg.inversion_orders(section, lam))
    rsign, rexps = B.root_monomial(B.inversion_orders(section.w, ell))
    if lexps != rexps:
        return ProductFormulaReport(w=section.w, ell=ell, scalar=Fraction(0), ok=False)
    return ProductFormulaReport(w=section.w, ell=ell, scalar=Fraction(lsign * rsign), ok=True)


# ----- the isomorphism check -----

@dataclass
class IsoReport:
    generators: int
    discrepancies: list
    scalars: dict

    def ok(self) -> bool:
        return not self.discrepancies


def iso_check(alg, B, gamma: Lattice) -> IsoReport:
    """Check that lifting is onto the idempotent subalgebra ``e_gamma A e_gamma``.

    Three things are checked, each of which can fail:

    * membership: every lifted letter ``tau_{s_i} e(ell)`` has a polynomial
      normal form.  As ``lift`` is multiplicative and polynomials lift to
      polynomials, every lifted ``tau_w e(ell)`` is then in the algebra;
    * triangularity: the top term of each lifted ``tau_w e(ell)`` is the affine
      element of the same block, with a nonzero constant coefficient.  Peeling
      adds blocks only at shorter elements, so that is its one longest block,
      times the inverse of the root monomial ``leading_monomial``; no deep
      ``tau_g`` is built;
    * coverage: the ``|orbit| |W|`` top terms are pairwise distinct, i.e. the
      lift of the orbit is injective.  The affine stabiliser of a lifted
      point is as large as its torus stabiliser, so ``e_gamma A e_gamma`` has
      ``|orbit| |W|`` basis elements, and distinct top terms cover each once.

    ``lift`` is multiplicative and injective by construction (both algebras
    share ``OperatorAlgebra.mul``, and lifting relabels orbit points); the
    tests pin both.  ``generators`` counts a tau letter and a coordinate
    variable per simple root at each orbit point.  A discrepancy names its
    orbit points as ``Fraction`` points."""
    omega = alg.omega
    group = alg.group
    generators = 2 * group.rs.rank * len(B.orbit)
    point = omega.over
    lifts = {ell: pregamma_point(omega, gamma, ell) for ell in B.orbit}
    first: dict[PointKey, PointKey] = {}
    discrepancies = []
    for ell, lam in lifts.items():
        if first.setdefault(lam, ell) != ell:
            discrepancies.append(("coverage", point(first[lam]), point(ell)))
    if discrepancies:
        return IsoReport(generators=generators, discrepancies=discrepancies, scalars={})

    @cache
    def ranked(key):  # the length and affine element of a block key
        g = alg.element_of_entry(key)
        return group.length(g), g

    scalars = {}
    for ell, lam in lifts.items():
        for w in sorted(group.finite.elements, key=lambda u: (group.finite.length(u), u)):
            op = lift(omega, gamma, B.tau_element(w, ell))
            if group.finite.length(w) == 1 and not all(
                    f.is_poly() for f in alg.normal_form_rational(op)[1].values()):
                discrepancies.append(("membership", point(ell), w))
                continue
            blocks = {ranked(key): r for key, r in op.entries}
            expected = ranked((lam, lifts[omega.torus.act(w, ell)], w))
            lead = None
            if expected in blocks and all(b[0] < expected[0] for b in blocks if b != expected):
                sign, exps = alg.leading_monomial(expected[1], lam)
                lead = blocks[expected] * alg.monomial_rat((sign, {b: -e for b, e in exps.items()}))
            if lead is None or not lead.is_constant():
                discrepancies.append(("triangularity", point(ell), w))
            else:
                scalars[(ell, w)] = lead.num.constant_value()
    return IsoReport(generators=generators, discrepancies=discrepancies, scalars=scalars)


# ----- change of gamma -----

@dataclass
class GammaChangeReport:
    left_identity: bool
    right_identity: bool
    conjugation_failures: list

    def ok(self) -> bool:
        return self.left_identity and self.right_identity and not self.conjugation_failures


def gamma_change_intertwiner(alg, gamma: Lattice, gamma2: Lattice):
    """phi_{gamma, gamma2}: the translation intertwiner between the two lifts."""
    omega = alg.omega
    group = alg.group
    diff = tuple(a - b for a, b in zip(gamma, gamma2))
    out = alg.zero()
    for ell in omega.torus.points:
        src = pregamma_point(omega, gamma2, ell)
        out = out + alg.tau_element(group.translation(diff), src)
    return out


def e_gamma_idempotent(alg, gamma: Lattice):
    out = alg.zero()
    for lam in e_gamma_weights(alg.omega, gamma):
        out = out + alg.idempotent(lam)
    return out


def gamma_change(alg, B, gamma: Lattice, gamma2: Lattice) -> GammaChangeReport:
    """Check phi phi' = e and that phi conjugates the lift at gamma2 of every
    finite generator into its lift at gamma.

    B's finite order function does not depend on the lift, so B is lifted
    to both (the ``integral`` sweep compares it with the integral along
    each lift).  A failure names its orbit point as a ``Fraction`` point."""
    omega = alg.omega
    rank = alg.group.rs.rank
    phi12 = gamma_change_intertwiner(alg, gamma, gamma2)
    phi21 = gamma_change_intertwiner(alg, gamma2, gamma)
    left = alg.mul(phi12, phi21) == e_gamma_idempotent(alg, gamma)
    right = alg.mul(phi21, phi12) == e_gamma_idempotent(alg, gamma2)
    failures = []
    for ell in B.orbit:
        pt = omega.over(ell)
        gens = [(("tau", i, pt), B.tau_letter(i, ell)) for i in range(rank)]
        gens.append((("poly", pt), B.poly_mult(Poly.variable(rank, 0), ell)))
        for where, x in gens:
            conj = alg.mul(alg.mul(phi12, lift(omega, gamma2, x)), phi21)
            if conj != lift(omega, gamma, x):
                failures.append(where)
    return GammaChangeReport(left_identity=left, right_identity=right,
                             conjugation_failures=failures)


# ----- the kernel criterion -----

def clans_met(group: AffineWeylGroup, walls: Sequence[AffineRoot], gamma: Lattice) -> set[Sign]:
    """The sign vectors of the clans that hold an idempotent weight.

    The weight ``X^gamma w lambda_0`` lies in the alcove ``(X^gamma w)^{-1}
    nu_0``, whose sign on a wall a is that of the image ``X^gamma w a``, as in
    ``walked_signs``.  Every w in W is taken, not only the coset
    representatives: a weight on a wall lies in the alcoves of its whole
    stabiliser coset, and these can lie in different clans.
    """
    xg = group.translation(gamma)
    positive = group.ars.is_positive
    met = set()
    for w in group.finite.elements:
        g = group.compose(xg, group.from_finite(w))
        met.add(tuple(1 if positive(group.act_root(g, a)) else -1 for a in walls))
    return met
