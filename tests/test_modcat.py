"""Graded dimensions, parabolic factorization."""
from fractions import Fraction

from qdha.algebra import Algebra
from qdha.modcat import (
    elements_mapping,
    graded_dim_hom,
    parabolic_decomposition_check,
    stabilizer_poincare,
)
from qdha.clans import enumerate_clans
from qdha.orderfun import OrderFunction
from qdha.rootsys import affinise, vec
from qdha.weyl import AffineWeylGroup
from test_clans import clan_of
from test_weyl import element_ball


def rank1_algebra():
    W = AffineWeylGroup(affinise("A1"))
    lam0 = vec((Fraction(1, 4),))
    return Algebra(OrderFunction(W, lam0, {a: 1 for a in W.ars.delta}))


def test_elements_mapping_trivial_stabilizer_unique():
    A = rank1_algebra()
    lam0 = A.omega.base_point
    window = A.group.orbit_window(lam0, 4)
    for pt in window:
        assert len(elements_mapping(A.group, lam0, pt, lam0)) == 1


def test_graded_dim_quotient_rank1_shifts():
    # the quotient blocks of the weight projective at lambda_+ sit in degrees 0, 1, 2
    A = rank1_algebra()
    lp = vec((Fraction(-3, 4),))
    dec = enumerate_clans(A.omega)
    by_weight = {}
    for g in element_ball(A.group, 8):
        lam = A.group.act_point(g, A.omega.base_point)
        if lam not in by_weight:
            by_weight[lam] = clan_of(A.omega, g, dec.walls)
    # pick one weight in each clan
    plus = vec((Fraction(-3, 4),))
    zero = A.omega.base_point
    minus = vec((Fraction(-5, 4),))
    assert by_weight[plus] != by_weight[zero] != by_weight[minus]
    assert graded_dim_hom(A, lp, plus, 6, quotient=True) == {0: 1}
    assert graded_dim_hom(A, lp, zero, 6, quotient=True) == {1: 1}
    assert graded_dim_hom(A, lp, minus, 6, quotient=True) == {2: 1}


def test_graded_dim_outside_orbit_is_zero():
    A = rank1_algebra()
    assert graded_dim_hom(A, A.omega.base_point, vec((Fraction(1, 3),)), 4) == {}


def test_graded_dim_free_vs_quotient_consistency():
    # free graded dimension = quotient degrees convolved with the polynomial series
    A = rank1_algebra()
    lam0 = A.omega.base_point
    free = graded_dim_hom(A, lam0, lam0, 8)
    quot = graded_dim_hom(A, lam0, lam0, 8, quotient=True)
    assert quot == {0: 1}
    assert free == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}


def test_graded_dim_counts_weight_multiplicity():
    # with trivial stabilizer, dim of the quotient block is #{w : w lam = target} = 1
    A = rank1_algebra()
    lam0 = A.omega.base_point
    for pt in sorted(A.group.orbit_window(lam0, 4)):
        series = graded_dim_hom(A, lam0, pt, 20, quotient=True)
        assert sum(series.values()) == 1


def test_stabilizer_poincare_wall_point():
    W = AffineWeylGroup(affinise("A2"))
    assert stabilizer_poincare(W, vec((Fraction(1, 7), Fraction(2, 7)))) == {0: 1, 2: 1}


def test_parabolic_check_rank1():
    A = rank1_algebra()
    report = parabolic_decomposition_check(A, A.omega.base_point, 4)
    assert report.ok()
    assert report.count_ball == report.count_factored == 9


def test_parabolic_check_a2():
    W = AffineWeylGroup(affinise("A2"))
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    A = Algebra(OrderFunction(W, lam0, {a: 1 for a in W.ars.delta}))
    report = parabolic_decomposition_check(A, lam0, 3, max_factored=25)
    assert report.ok()
    # counting: ball size must equal the number of (coset rep, finite) pairs
    pairs = 0
    from qdha.modcat import coset_factor
    for g in A.group.ball(3):
        u, v = coset_factor(A.group, g)
        assert A.group.length(g) == A.group.length(u) + A.group.length(v)
        pairs += 1
    assert pairs == report.count_ball


def test_parabolic_check_bound_zero():
    A = rank1_algebra()
    report = parabolic_decomposition_check(A, A.omega.base_point, 0)
    assert report.ok()
    assert report.count_ball == 1


def test_truncated_quotient_tables_rank1():
    # the idempotent truncation of the quotient projectives: the bounded-clan
    # row disappears and the surviving graded dimensions keep their shifts
    from qdha.kz import choose_gamma, e_gamma_weights

    A = rank1_algebra()
    gamma = choose_gamma(A.omega).gamma
    egw = e_gamma_weights(A.omega, gamma)
    lp = vec((Fraction(-3, 4),))
    l0 = A.omega.base_point
    lm = vec((Fraction(-5, 4),))
    tables = {}
    for src in (lp, l0, lm):
        tables[src] = [graded_dim_hom(A, src, tgt, 12, quotient=True) for tgt in egw]
    # from the plus-side projective: degrees 2 and 0 at the two truncation weights
    assert tables[lp] == [{2: 1}, {0: 1}]
    # from the bounded-clan projective: degree 1 at both
    assert tables[l0] == [{1: 1}, {1: 1}]
    # from the minus side: mirrored shifts
    assert tables[lm] == [{0: 1}, {2: 1}]
