"""Order functions: transport, extraction from deformation parameters, integration."""
import random
from fractions import Fraction

import pytest

from qdha.orderfun import (
    InvalidOrderFunction,
    OrderFunction,
    from_ddaha_h,
    from_ddaha_k,
    torus_point,
)
from qdha.algebra import Algebra
from qdha.kz import choose_gamma, integral_b_order_function, pregamma_point
from qdha.rootsys import AffineRoot, affinise, vec
from qdha.weyl import AffineWeylGroup


def group(label):
    return AffineWeylGroup(affinise(label))


def rank1_example():
    """Base point 1/4 with value 1 exactly on the affine basis."""
    W = group("A1")
    lam0 = vec((Fraction(1, 4),))
    support = {a: 1 for a in W.ars.delta}
    return W, OrderFunction(W, lam0, support)


def test_rank1_values_on_basis_and_elsewhere():
    W, omega = rank1_example()
    at_base = omega.moved(W.identity)
    assert at_base.get(W.ars.delta[0], 0) == 1
    assert at_base.get(W.ars.delta[1], 0) == 1
    for a in W.ars.positive_window(3):
        if a not in W.ars.delta:
            assert at_base.get(a, 0) == 0


def test_omega_at_identity_witness_is_raw_value():
    W, omega = rank1_example()
    at_base = omega.moved(W.identity)
    for a in W.ars.positive_window(2):
        assert at_base.get(a, 0) == omega.value(a)


def test_omega_witness_independence():
    rng = random.Random(3)
    W = group("A2")
    # base point on the alpha_1 wall: stabilizer of order 2
    lam0 = vec((Fraction(1, 7), Fraction(2, 7)))
    s1 = W.finite.reflection(W.rs.simple_root(0))
    sup = {}
    for a in [AffineRoot((1, 0), 0), AffineRoot((-1, 0), 0)]:
        sup[a] = -1
    for a in [AffineRoot((0, 1), 0), AffineRoot((-1, -1), 1)]:
        img = AffineRoot(W.finite.act_root(s1, a.alpha), a.level)
        sup[a] = 2
        sup[img] = 2
    omega = OrderFunction(W, lam0, sup)
    window = W.orbit_window(lam0, 4)
    roots = W.ars.positive_window(2)
    stab = W.stabilizer(lam0)[1]
    assert len(stab) == 2
    for lam, wit in window.items():
        for u in stab:
            wit2 = W.compose(wit, u)
            assert W.act_point(wit2, lam0) == lam
            for a in rng.sample(roots, 8):
                assert omega.moved(wit).get(a, 0) == omega.moved(wit2).get(a, 0)


def test_witness_reuses_the_base_walk(monkeypatch):
    W = group("A2")
    lam0 = vec((Fraction(1, 7), Fraction(2, 7)))
    omega = OrderFunction(W, lam0, {AffineRoot((1, 0), 0): -1, AffineRoot((-1, 0), 0): -1})
    assert omega.base_walk == W.to_fundamental_domain(lam0)
    walked = []
    walk = W.to_fundamental_domain
    monkeypatch.setattr(W, "to_fundamental_domain", lambda lam: walked.append(lam) or walk(lam))
    window = sorted(W.orbit_window(lam0, 3))
    wits = [omega.witness(lam) for lam in window]
    off_orbit = vec((Fraction(1, 2), Fraction(1, 2)))
    assert omega.witness(off_orbit) is None
    # one walk per call, never of the base point
    assert walked == window + [off_orbit]
    for lam, wit in zip(window, wits):
        assert W.act_point(wit, lam0) == lam
        assert wit == W.witness_from(lam, W.to_fundamental_domain(lam0))


def test_validation_rejects_minus_one_off_wall():
    W = group("A1")
    lam0 = vec((Fraction(1, 4),))
    with pytest.raises(InvalidOrderFunction):
        OrderFunction(W, lam0, {AffineRoot((1,), 0): -1})


def test_validation_rejects_stabilizer_asymmetry():
    W = group("A2")
    lam0 = vec((Fraction(1, 7), Fraction(2, 7)))  # s_{alpha_1} fixes lam0
    with pytest.raises(InvalidOrderFunction):
        OrderFunction(W, lam0, {AffineRoot((0, 1), 0): 1})


def test_from_ddaha_h_rank1_worked_example():
    W = group("A1")
    omega = from_ddaha_h(W, Fraction(1, 2), (Fraction(1, 4),), window=4)
    assert omega.support == {W.ars.delta[0]: 1, W.ars.delta[1]: 1}


def test_from_ddaha_h_zero_parameter():
    W = group("A1")
    omega = from_ddaha_h(W, 0, (Fraction(1, 4),), window=3)
    assert omega.support == {}


def test_from_ddaha_h_minus_one_exactly_on_walls():
    rng = random.Random(5)
    W = group("A2")
    for _ in range(20):
        h = Fraction(rng.randrange(-3, 4), rng.choice([1, 2, 3]))
        lam0 = vec((Fraction(rng.randrange(-2, 3), rng.choice([2, 3, 4])),
                    Fraction(rng.randrange(-2, 3), rng.choice([2, 3, 4]))))
        omega = from_ddaha_h(W, h, lam0, window=8)
        for a in W.ars.window(6):
            expected = -1 if (W.ars.evaluate(a, lam0) == 0 and h != 0) else omega.value(a)
            if W.ars.evaluate(a, lam0) == 0 and h != 0:
                assert omega.value(a) == -1


def test_from_ddaha_k_rank1():
    W = group("A1")
    # ell_+ = exp(-3/4): <alpha, -3/4 alpha^vee> = -3/2 congruent to 1/2 = h
    bof = from_ddaha_k(W, Fraction(1, 2), (Fraction(-3, 4),))
    alpha = W.rs.simple_root(0)
    assert bof.value(vec((Fraction(-3, 4),)), alpha) == 1
    assert bof.value(vec((Fraction(-5, 4),)), alpha) == 1


def test_from_ddaha_k_generic_and_pole():
    W = group("A1")
    alpha = W.rs.simple_root(0)
    # generic: no congruence holds
    bof = from_ddaha_k(W, Fraction(1, 3), (Fraction(1, 5),))
    assert (torus_point(vec((Fraction(1, 5),))), alpha) not in bof.table
    # Y = 1 but v^2 != 1: simple pole, order -1
    bof = from_ddaha_k(W, Fraction(1, 3), (Fraction(1, 2),))
    assert bof.value(vec((Fraction(1, 2),)), alpha) == -1


def test_integral_rank1_worked_example():
    W, omega = rank1_example()
    alpha = W.rs.simple_root(0)
    ellp = vec((Fraction(-3, 4),))
    ellm = vec((Fraction(-5, 4),))
    bof = integral_b_order_function(omega)
    assert bof.value(ellp, alpha) == 1
    assert bof.value(ellm, alpha) == 1


def test_integral_zero_function():
    W = group("A2")
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    omega = OrderFunction(W, lam0, {})
    bof = integral_b_order_function(omega)
    for alpha in W.rs.positive_roots:
        assert bof.value(lam0, alpha) == 0


def walked_integral(omega, gamma, ell, alpha):
    """omega at the walked deep lift of ell, summed over the positive affine
    roots with differential alpha."""
    lam = pregamma_point(omega, gamma, ell)
    return sum(v for b, v in Algebra(omega).moved(lam).items() if b.alpha == alpha and b.level >= 0)


def test_integral_gamma_independent():
    W, omega = rank1_example()
    alpha = W.rs.simple_root(0)
    g1 = choose_gamma(omega).gamma
    g2 = vec(tuple(3 * c for c in g1))
    bof = integral_b_order_function(omega)
    for ell in omega.torus.points:
        for gamma in (g1, g2):
            assert bof.value(ell, alpha) == walked_integral(omega, gamma, ell, alpha)
    W2 = group("A2")
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    sup = {a: 1 for a in W2.ars.delta}
    om2 = OrderFunction(W2, lam0, sup)
    g1 = choose_gamma(om2).gamma
    g2 = vec(tuple(2 * c for c in g1))
    bof = integral_b_order_function(om2)
    for ell in om2.torus.points:
        for alpha in W2.rs.positive_roots:
            for gamma in (g1, g2):
                assert bof.value(ell, alpha) == walked_integral(om2, gamma, ell, alpha)


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_integral_of_ddaha_h_matches_ddaha_k(label):
    rng = random.Random(41)
    W = group(label)
    n = W.rs.rank
    trials = 0
    while trials < 25:
        h = Fraction(rng.randrange(-2, 3), rng.choice([1, 2, 3]))
        lam0 = vec(tuple(Fraction(rng.randrange(-3, 4), rng.choice([2, 3, 4, 5])) for _ in range(n)))
        try:
            omega = from_ddaha_h(W, h, lam0, window=10)
        except InvalidOrderFunction:
            continue
        trials += 1
        lhs = integral_b_order_function(omega)
        rhs = from_ddaha_k(W, h, lam0)
        assert lhs.table == rhs.table


def test_choose_gamma_rank1_is_minus_coroot():
    W, omega = rank1_example()
    gc = choose_gamma(omega)
    assert gc.margin == 2
    assert gc.gamma == vec((-1,))


def test_choose_gamma_zero_support():
    W = group("A2")
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    omega = OrderFunction(W, lam0, {})
    gc = choose_gamma(omega)
    assert gc.margin == 1
    for alpha in W.rs.positive_roots:
        assert W.rs.pair_root_point(alpha, gc.gamma) <= -1


def test_choose_gamma_a2_pairings():
    W = group("A2")
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    omega = OrderFunction(W, lam0, {a: 1 for a in W.ars.delta})
    gc = choose_gamma(omega)
    for alpha in W.rs.positive_roots:
        assert W.rs.pair_root_point(alpha, gc.gamma) <= -gc.margin


def test_tau_degree_rank1():
    W, omega = rank1_example()
    # deg tau_{a_1} e(1/4) = omega_{1/4}(a1) + omega_{-1/4}(a1) = 1 + 0
    s1 = W.simple_reflection(1)
    assert Algebra(omega).tau_element_degree(s1, omega.base_point) == 1
    om0 = OrderFunction(W, vec((Fraction(1, 4),)), {})
    assert Algebra(om0).tau_element_degree(s1, om0.base_point) == 0


def test_tau_degree_both_walls_case():
    # base point on the wall of alpha_1 with value -1 on ±alpha_1 gives -2
    W = group("A2")
    lam0 = vec((Fraction(1, 7), Fraction(2, 7)))
    omega = OrderFunction(W, lam0, {AffineRoot((1, 0), 0): -1, AffineRoot((-1, 0), 0): -1})
    assert Algebra(omega).tau_element_degree(W.simple_reflection(1), lam0) == -2
