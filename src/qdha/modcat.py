"""Graded dimensions and the parabolic factorization check.

Hom spaces between weight projectives are free over the polynomial ring with
one basis element per group element matching the weights; their graded
dimensions are Laurent series assembled from the basis degrees.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra
from .rootsys import Vec, vec
from .weyl import AffineWeylElement, AffineWeylGroup


def elements_mapping(group: AffineWeylGroup, lam: Vec, target: Vec, base: Vec) -> list[AffineWeylElement]:
    """All g with g lam = target, via one witness and the stabilizer of lam."""
    walk = group.to_fundamental_domain(vec(base))
    return _elements_between(group, vec(lam), group.witness_from(lam, walk),
                             group.witness_from(target, walk))


def _elements_between(group: AffineWeylGroup, lam: Vec, w0: AffineWeylElement | None,
                      w1: AffineWeylElement | None) -> list[AffineWeylElement]:
    """All g with g lam = w1 w0^{-1} lam, given witnesses w0, w1 from a common base."""
    if w1 is None or w0 is None:
        raise ValueError("weights outside the orbit")
    g0 = group.compose(w1, group.inverse(w0))
    _, stab = group.stabilizer(lam)
    return sorted(
        {group.compose(g0, h) for h in stab},
        key=lambda g: (group.length(g), g.mu, g.w),
    )


def stabilizer_poincare(group: AffineWeylGroup, base: Vec) -> dict[int, int]:
    """Graded dimension of the coinvariant algebra of the base-point stabilizer.

    The stabilizer acts on V by reflections; the coinvariant algebra has one
    basis element of degree 2 l(u) per stabilizer element u.
    """
    _, stab = group.stabilizer(vec(base))
    out: dict[int, int] = {}
    for g in stab:
        d = 2 * group.finite.length(g.w)
        out[d] = out.get(d, 0) + 1
    return out


def graded_dim_hom(alg: Algebra, lam: Vec, target: Vec, truncation: int,
                   quotient: bool = False) -> dict[int, int]:
    """Graded dimension of e(target) A e(lam), as degree -> coefficient.

    Free form: sum over basis elements of v^{deg} / (1 - v^2)^rank, truncated.
    Quotient form (modulo the centre's augmentation ideal): the polynomial
    factor is replaced by the stabilizer coinvariant algebra.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    group = alg.group
    base = alg.omega.base_point
    lam, target = vec(lam), vec(target)
    w0, w1 = alg.omega.witness(lam), alg.omega.witness(target)
    if w1 is None or w0 is None:
        return {}
    out: dict[int, int] = {}
    if quotient:
        poincare = stabilizer_poincare(group, base)
    else:
        poincare = _free_series(alg.rank, truncation)
    for g in _elements_between(group, lam, w0, w1):
        d0 = alg.tau_element_degree(g, lam)
        for d, c in poincare.items():
            deg = d0 + d
            if deg <= truncation:
                out[deg] = out.get(deg, 0) + c
    return {d: c for d, c in sorted(out.items()) if c}


def _free_series(rank: int, truncation: int) -> dict[int, int]:
    # coefficients of 1 / (1 - v^2)^rank up to the truncation; degrees may be
    # offset negatively by basis degrees, so keep a margin of one basis degree
    top = truncation + 2 * rank + 8
    out = {0: 1}
    for _ in range(rank):
        acc: dict[int, int] = {}
        for d, c in out.items():
            for k in range(d, top + 1, 2):
                acc[k] = acc.get(k, 0) + c
        out = acc
    return out


# ----- parabolic factorization -----

@dataclass
class ParabolicReport:
    bound: int
    count_ball: int
    count_factored: int
    failures: list

    def ok(self) -> bool:
        return self.count_ball == self.count_factored and not self.failures


def coset_factor(group: AffineWeylGroup, g: AffineWeylElement):
    """g = u v with u the minimal representative of g W_R and v finite."""
    u = group.min_coset_rep(g.mu)
    v = group.compose(group.inverse(u), g)
    if any(c != 0 for c in v.mu):
        raise ArithmeticError("coset factor is not finite")
    return u, v


def parabolic_decomposition_check(alg: Algebra, lam1: Vec, bound: int,
                                  max_factored: int = 40) -> ParabolicReport:
    """Verify the coset factorization of the length ball and of basis elements.

    Counting: lengths must be additive under g = u v over the whole ball.
    Operators: tau_g e(lam1) must decompose through the minimal prefix with a
    remainder of strictly smaller filtration degree, recursively, with all
    finite parts staying in the finite orbit of lam1.
    """
    group = alg.group
    lam1 = vec(lam1)
    ball = group.ball(bound)
    failures = []
    factored = 0
    for g in ball:
        u, v = coset_factor(group, g)
        if group.length(g) == group.length(u) + group.length(v):
            factored += 1
        else:
            failures.append(("length", g))
    checked = 0
    for g in ball:
        if checked >= max_factored:
            break
        checked += 1
        if not _factors_through_prefix(alg, g, lam1):
            failures.append(("operator", g))
    return ParabolicReport(
        bound=bound, count_ball=len(ball), count_factored=factored, failures=failures
    )


def _factors_through_prefix(alg: Algebra, g: AffineWeylElement, lam1: Vec) -> bool:
    group = alg.group
    work = alg.tau_element(g, lam1)
    guard = group.length(g) + 2
    while not work.is_zero():
        guard -= 1
        if guard < 0:
            return False
        nf = alg.normal_form(work)
        if nf.is_zero():
            return True
        # peel the top layer: each replacement only pollutes lower degrees
        maxlen = max(group.length(h) for h in nf.support())
        for top in sorted((h for h in nf.support() if group.length(h) == maxlen),
                          key=lambda h: (h.mu, h.w)):
            u, v = coset_factor(group, top)
            f = nf.coeffs[top]
            vtgt = group.act_point(v, lam1)
            finv = alg.act_poly(group.inverse(u).w, f)
            inner = alg.mul(alg.poly_mult(finv, vtgt), alg.tau_element(v, lam1))
            # the inner factor must live in the finite subalgebra at lam1
            for (src, tgt, _), _r in inner.entries:
                if not _in_finite_orbit(group, src, lam1) or not _in_finite_orbit(group, tgt, lam1):
                    return False
            work = work - alg.mul(alg.tau_element(u, vtgt), inner)
    return True


def _in_finite_orbit(group: AffineWeylGroup, pt: Vec, lam1: Vec) -> bool:
    return any(group.finite.act_point(w, vec(lam1)) == vec(pt) for w in group.finite.elements)
