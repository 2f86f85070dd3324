"""Finite quotient algebra: generators, normal forms, Frobenius trace, Gram rank."""
import random
from fractions import Fraction

import pytest

from qdha.algebra import NotInAlgebra, RatOperator
from qdha.bqha import BAlgebra, gram_rank_at_point
from qdha.kz import integral_b_order_function
from qdha.orderfun import BOrderFunction, OrderFunction, torus_point
from qdha.polyring import Poly, RatFunc
from qdha.rootsys import affinise, vec
from qdha.weyl import AffineWeylGroup


def rank1_b_algebra():
    """The finite side of the quarter-point example: Omega(alpha) = 1 at both points."""
    W = AffineWeylGroup(affinise("A1"))
    lam0 = vec((Fraction(1, 4),))
    omega = OrderFunction(W, lam0, {a: 1 for a in W.ars.delta})
    return BAlgebra(integral_b_order_function(omega))


def nil_hecke_a1():
    W = AffineWeylGroup(affinise("A1"))
    lam0 = vec((Fraction(0),))
    bof = BOrderFunction(W, lam0, {(torus_point(lam0), (1,)): -1})
    return BAlgebra(bof)


def zero_b_algebra(label="A2"):
    W = AffineWeylGroup(affinise(label))
    lam0 = vec(tuple(Fraction(1, p) for p in (5, 7, 11, 13)[: W.rs.rank]))
    return BAlgebra(BOrderFunction(W, lam0, {}))


def global_tau(B, i):
    out = B.zero()
    for ell in B.orbit:
        out = out + B.tau_letter(i, ell)
    return out


def global_poly(B, f):
    out = B.zero()
    for ell in B.orbit:
        out = out + B.poly_mult(f, ell)
    return out


def test_zero_order_function_gives_reflections():
    B = zero_b_algebra()
    ell = B.orbit[0]
    t = B.tau_letter(0, ell)
    assert len(t.entries) == 1
    (_, _, u), r = t.entries[0]
    assert r == RatFunc.from_poly(Poly.const(2, 1))
    assert u == B.fin.reflection(B.rs.simple_root(0))


def test_minus_one_kills_invariants():
    B = nil_hecke_a1()
    ell = B.orbit[0]
    t = B.tau_letter(0, ell)
    alpha = B.root_poly((1,))
    vals = {}
    for (src, tgt, u), r in t.entries:
        vals[tgt] = vals.get(tgt, RatFunc.from_poly(Poly.zero(1))) + r * RatFunc.from_poly(
            B.act_poly(u, alpha * alpha))
    assert all(v.is_zero() for v in vals.values())


def test_rank1_omega_one_generator():
    B = rank1_b_algebra()
    ellp = torus_point(vec((Fraction(-3, 4),)))
    t = B.tau_letter(0, ellp)
    alpha = B.root_poly((1,))
    s = B.fin.reflection((1,))
    assert t.entries == (((ellp, torus_point(vec((Fraction(-5, 4),))), s),
                          RatFunc.from_poly(alpha)),)


def test_b_normal_form_roundtrip():
    rng = random.Random(55)
    B = zero_b_algebra()
    for _ in range(15):
        word = [rng.randrange(2) for _ in range(rng.randrange(1, 5))]
        ell = B.orbit[rng.randrange(len(B.orbit))]
        op = B.tau_word(word, ell)
        nf = B.normal_form(op)
        assert B.reconstruct(nf) == op
        deg = B.filtration_degree(nf)
        assert deg is None or deg <= len(word)


def test_b_normal_form_basis_roundtrip():
    B = rank1_b_algebra()
    for ell in B.orbit:
        for w in B.fin.elements:
            nf = B.normal_form(B.tau_element(w, ell))
            assert list(nf.coeffs) == [w]
            assert nf.coeffs[w] == Poly.const(1, 1)


def test_b_normal_form_rejects_denominator():
    B = zero_b_algebra()
    ell = B.orbit[0]
    alpha = B.root_poly(B.rs.simple_root(0))
    s = B.fin.reflection(B.rs.simple_root(0))
    bad = RatOperator.from_dict({
        (ell, B.act_ell(s, ell), s): RatFunc(Poly.const(2, 1), {alpha: 1}),
    })
    with pytest.raises(NotInAlgebra):
        B.normal_form(bad)


def test_leading_coefficient_closed_form():
    B = rank1_b_algebra()
    w0 = B.fin.longest_element()
    for ell in B.orbit:
        lead = B.tau_element(w0, ell).to_dict()[(ell, B.act_ell(w0, ell), w0)]
        assert lead == B.inversion_leading_coefficient(w0, ell)


def test_trace_of_idempotent_vanishes():
    B = rank1_b_algebra()
    for ell in B.orbit:
        assert B.frobenius_trace(B.idempotent(ell)).is_zero()


def test_trace_of_top_basis_element_trivial_stabilizer():
    B = rank1_b_algebra()
    w0 = B.fin.longest_element()
    ell0 = B.bof.base_torus
    assert B.frobenius_trace(B.tau_element(w0, ell0)) == Poly.const(1, 1)
    f = Poly.variable(1, 0) ** 2
    x = B.mul(B.poly_mult(f, B.act_ell(w0, ell0)), B.tau_element(w0, ell0))
    assert B.frobenius_trace(x) == f


def test_trace_reduced_word_independence_of_theta():
    # Demazure compositions along the two reduced words of the longest element agree
    W = AffineWeylGroup(affinise("A2"))
    lam0 = vec((Fraction(0), Fraction(0)))
    bof = BOrderFunction(W, lam0, {(torus_point(lam0), a): -1
                                   for a in W.rs.positive_roots})
    B = BAlgebra(bof)
    rng = random.Random(77)
    ell = B.orbit[0]
    word = B.stabilizer_longest_word(ell)
    assert len(word) == 3
    a1, a2 = B.stabilizer_simple_system(ell)
    for _ in range(10):
        f = Poly(2, {(rng.randrange(3), rng.randrange(3)): Fraction(rng.randrange(-4, 5))})
        via_word = B.theta_trace(ell, f)
        # s1 s2 s1 = s2 s1 s2: the two explicit compositions must agree
        lhs = f
        for alpha in [a1, a2, a1]:
            lhs = B.demazure_for_root(alpha, lhs)
        rhs = f
        for alpha in [a2, a1, a2]:
            rhs = B.demazure_for_root(alpha, rhs)
        assert lhs == rhs
        assert via_word == lhs


def test_trace_symmetry_under_anti_involution():
    rng = random.Random(99)
    B = rank1_b_algebra()
    x_poly = Poly.variable(1, 0)
    gens = [("tau", 0), ("poly", x_poly), ("poly", x_poly * x_poly)]

    def word_op(word):
        ops = [global_tau(B, g[1]) if g[0] == "tau" else global_poly(B, g[1]) for g in word]
        acc = ops[0]
        for op in ops[1:]:
            acc = B.mul(acc, op)
        return acc

    for _ in range(30):
        wx = [gens[rng.randrange(len(gens))] for _ in range(rng.randrange(1, 3))]
        wy = [gens[rng.randrange(len(gens))] for _ in range(rng.randrange(1, 3))]
        x = word_op(wx)
        y = word_op(wy)
        lhs = B.frobenius_trace(B.mul(x, y))
        rhs = B.frobenius_trace(B.mul(word_op(list(reversed(wy))), word_op(list(reversed(wx)))))
        assert lhs == rhs


def test_gram_rank_nil_hecke_full():
    B = nil_hecke_a1()
    span, matrix = B.gram_matrix(4)
    assert B.expected_gram_rank() == 4
    rank = gram_rank_at_point(matrix, (Fraction(3, 7),))
    assert rank == 4


def test_gram_rank_rank1_example_full():
    B = rank1_b_algebra()
    span, matrix = B.gram_matrix(2)
    assert B.expected_gram_rank() == 4
    rank = gram_rank_at_point(matrix, (Fraction(2, 5),))
    assert rank == 4


def test_gram_zero_row_sanity():
    B = rank1_b_algebra()
    span, matrix = B.gram_matrix(2)
    # tr(0 * y) = 0: the zero operator pairs to zero with everything
    zero_row = [B.frobenius_trace(B.mul(B.zero(), op)) for op in []]
    assert zero_row == []
    # and no spanning element pairs nontrivially with an incomposable one
    for i, (ell_i, w_i, m_i) in enumerate(span):
        for j, (ell_j, w_j, m_j) in enumerate(span):
            if B.act_ell(w_j, ell_j) != ell_i:
                assert matrix[i][j].is_zero()
