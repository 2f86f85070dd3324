"""Operator algebra: generators, products, normal forms, defects, intertwiners.

The commutation defect, the intertwiners and the centre are built here from
the generators, as references for the relations the algebra must satisfy."""
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qdha import cli
from qdha.algebra import Algebra, NotInAlgebra, RatOperator
from qdha.bqha import BAlgebra
from qdha.instances import load_instance
from qdha.kz import integral_b_order_function, pregamma_point, two_rho_coroot
from qdha.orderfun import OrderFunction, torus_point
from qdha.polyring import Poly, RatFunc
from qdha.rootsys import AffineRoot, affinise, vec
from qdha.weyl import AffineWeylGroup

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def rank1_algebra():
    W = AffineWeylGroup(affinise("A1"))
    lam0 = vec((Fraction(1, 4),))
    omega = OrderFunction(W, lam0, {a: 1 for a in W.ars.delta})
    return Algebra(omega)


def apply(A, x, lam, f):
    """x applied to the vector with f in slot lam, as sorted (weight, value) pairs."""
    out = {}
    for (src, tgt, u), r in x.entries:
        if src == vec(lam):
            val = r * RatFunc.from_poly(A.act_poly(u, f))
            out[tgt] = out[tgt] + val if tgt in out else val
    return sorted((k, v) for k, v in out.items() if not v.is_zero())


def commutation_defect(A, f, word, lam):
    """Normal form of f tau_word - tau_word w^{-1}(f), for w the element of a reduced word."""
    g = A.group.from_word(word)
    assert len(word) == A.group.length(g)
    op = A.tau_word(word, lam)
    lhs = A.mul(A.poly_mult(f, A.group.act_point(g, lam)), op)
    rhs = A.mul(op, A.poly_mult(A.act_poly(A.group.inverse(g).w, f), lam))
    return A.normal_form(lhs - rhs)


def intertwiner_phi(A, i, lam):
    """phi_a e(lambda): tau_a e(lambda), or (da) tau_a + 1 where omega_lambda(a) = -1."""
    a = A.ars.delta[i]
    t = A.tau_letter(i, lam)
    if A.moved(lam).get(a, 0) != -1:
        return t
    return A.mul(A.poly_mult(A.root_poly(a.alpha), lam), t) + A.idempotent(lam)


def phi_square_exponent(A, i, lam):
    """n with phi_a^2 e(lambda) = ±(da)^n e(lambda): omega_lambda(a) + omega_lambda(-a), at least 0."""
    a = A.ars.delta[i]
    table = A.moved(lam)
    neg = AffineRoot(tuple(-c for c in a.alpha), -a.level)
    return max(table.get(a, 0) + table.get(neg, 0), 0)


def reynolds(A, f):
    """The average of f over the stabiliser of the base point."""
    _, stab = A.group.stabilizer(A.omega.base_point)
    acc = Poly.zero(A.rank)
    for g in stab:
        acc = acc + A.act_poly(g.w, f)
    return acc.scale(Fraction(1, len(stab)))


def central_operator(A, f, weights):
    """The diagonal operator acting at each weight by f twisted by the weight's witness."""
    return RatOperator.from_dict({
        (lam, lam, A.fin.identity): RatFunc.from_poly(A.act_poly(A.omega.witness(lam).w, f))
        for lam in weights
    })


def a2_wall_algebra(values=(-1, 2)):
    """A2 with base point on the alpha_1 wall; order -1 on ±alpha_1, 2 on the a_0 orbit pair."""
    W = AffineWeylGroup(affinise("A2"))
    lam0 = vec((Fraction(1, 7), Fraction(2, 7)))
    s1 = W.finite.reflection(W.rs.simple_root(0))
    sup = {AffineRoot((1, 0), 0): values[0], AffineRoot((-1, 0), 0): values[0]}
    a0 = W.ars.a0
    img = AffineRoot(W.finite.act_root(s1, a0.alpha), a0.level)
    sup[a0] = values[1]
    sup[img] = values[1]
    omega = OrderFunction(W, lam0, sup)
    return Algebra(omega)


def a2_generic_algebra():
    W = AffineWeylGroup(affinise("A2"))
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    omega = OrderFunction(W, lam0, {a: 1 for a in W.ars.delta})
    return Algebra(omega)


def test_idempotents():
    A = rank1_algebra()
    lam = A.omega.base_point
    e = A.idempotent(lam)
    assert A.mul(e, e) == e
    mu = A.group.act_point(A.group.simple_reflection(0), lam)
    assert A.mul(A.idempotent(mu), e).is_zero()


def test_tau_letter_shapes():
    A = a2_wall_algebra()
    lam = A.omega.base_point
    # on the wall with value -1: two blocks (divided difference)
    t = A.tau_letter(1, lam)
    assert len(t.entries) == 2
    # value 0 root: single pure-reflection block
    t2 = A.tau_letter(2, lam)
    assert len(t2.entries) == 1
    (src, tgt, u), r = t2.entries[0]
    assert r == RatFunc.from_poly(Poly.const(2, 1))


def test_tau_minus_one_kills_invariants():
    A = a2_wall_algebra()
    lam = A.omega.base_point
    t = A.tau_letter(1, lam)
    alpha = A.root_poly(A.rs.simple_root(0))
    out = apply(A, t, lam, alpha * alpha)
    assert out == []


def test_rank1_worked_example_products():
    A = rank1_algebra()
    lp = vec((Fraction(-3, 4),))
    lm = vec((Fraction(-5, 4),))
    da = A.root_poly(A.rs.simple_root(0))
    s = A.group.finite.reflection(A.rs.simple_root(0))
    for lam, tgt in [(lp, lm), (lm, lp)]:
        prod = A.tau_word([1, 0, 1, 0, 1], lam)
        # the product is exactly (da) * s, with the same unit scalar at both weights
        assert prod.entries == ((((lam), (tgt), s), RatFunc.from_poly(da)),)


def test_normal_form_roundtrip_basis_element():
    A = a2_generic_algebra()
    lam = A.omega.base_point
    g = A.group.from_word((0, 1, 2))
    nf = A.normal_form(A.tau_element(g, lam))
    assert list(nf.coeffs) == [g]
    assert nf.coeffs[g] == Poly.const(2, 1)


def test_normal_form_roundtrip_random_words():
    rng = random.Random(101)
    A = a2_generic_algebra()
    lam0 = A.omega.base_point
    for _ in range(25):
        word = [rng.randrange(3) for _ in range(rng.randrange(1, 6))]
        start = A.group.act_point(A.group.from_word([rng.randrange(3) for _ in range(2)]), lam0)
        op = A.tau_word(word, start)
        nf = A.normal_form(op)
        assert nf.filtration_degree(A.group) is None or nf.filtration_degree(A.group) <= len(word)
        assert A.reconstruct(nf) == op


def test_normal_form_rejects_raw_reflection_off_wall():
    A = a2_generic_algebra()
    lam = A.omega.base_point
    s = A.group.simple_reflection(1)
    tgt = A.group.act_point(s, lam)
    da = A.root_poly(A.rs.simple_root(0))
    bad = RatOperator.from_dict({
        (lam, tgt, s.w): RatFunc(Poly.const(2, 1), {da: 1}),
    })
    with pytest.raises(NotInAlgebra):
        A.normal_form(bad)


def test_commutation_defect_single_letter():
    A = a2_generic_algebra()
    lam = A.omega.base_point
    x = Poly.variable(2, 0)
    # omega >= 0 everywhere here: single letters commute up to twist exactly
    nf = commutation_defect(A, x, (1,), lam)
    assert nf.is_zero()
    # constants always commute
    nf = commutation_defect(A, Poly.const(2, 5), (1, 2, 1), lam)
    assert nf.is_zero()


def test_commutation_defect_divided_difference_constant():
    A = a2_wall_algebra()
    lam = A.omega.base_point
    da = A.root_poly(A.rs.simple_root(0))
    nf = commutation_defect(A, da, (1,), lam)
    assert nf.filtration_degree(A.group) == 0
    assert list(nf.coeffs.values()) == [Poly.const(2, -2)]


def test_commutation_defect_degree_bound_random():
    rng = random.Random(7)
    A = a2_wall_algebra()
    lam0 = A.omega.base_point
    window = A.group.orbit_window(lam0, 3)
    pts = sorted(window)
    for _ in range(10):
        word = [rng.randrange(3) for _ in range(rng.randrange(1, 4))]
        g = A.group.from_word(word)
        if A.group.length(g) != len(word):
            continue
        lam = pts[rng.randrange(len(pts))]
        f = Poly.variable(2, rng.randrange(2))
        nf = commutation_defect(A, f, word, lam)
        deg = nf.filtration_degree(A.group)
        assert deg is None or deg <= len(word) - 1


def test_braid_defect_zero_function_is_exact():
    W = AffineWeylGroup(affinise("A2"))
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    A = Algebra(OrderFunction(W, lam0, {}))
    deg, nf = A.braid_defect(0, 1, lam0)
    assert deg is None and nf.is_zero()


def test_braid_defect_bound_a2():
    A = a2_generic_algebra()
    lam0 = A.omega.base_point
    for lam in sorted(A.group.orbit_window(lam0, 2)):
        for (i, j) in [(0, 1), (0, 2), (1, 2)]:
            m = A.braid_order(i, j)
            assert m == 3
            deg, _ = A.braid_defect(i, j, lam)
            assert deg is None or deg <= m - 1


def test_braid_defect_infinite_pair_rejected():
    A = rank1_algebra()
    with pytest.raises(ValueError):
        A.braid_defect(0, 1, A.omega.base_point)


def test_braid_orders_c2():
    W = AffineWeylGroup(affinise("C2"))
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    A = Algebra(OrderFunction(W, lam0, {}))
    assert A.braid_order(0, 1) == 4
    assert A.braid_order(1, 2) == 4
    assert A.braid_order(0, 2) == 2


def composed_order(W, i, j, cap=12):
    """The order of s_i s_j by composing it with itself; None past the cap."""
    prod = W.compose(W.simple_reflection(i), W.simple_reflection(j))
    acc = prod
    for m in range(1, cap + 1):
        if acc == W.identity:
            return m
        acc = W.compose(acc, prod)
    return None


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2", "A3"])
def test_braid_order_matches_composition(label):
    W = AffineWeylGroup(affinise(label))
    A = Algebra(OrderFunction(W, W.alcove_point, {}))
    n = len(W.ars.delta)
    orders = {(i, j): A.braid_order(i, j) for i in range(n) for j in range(i + 1, n)}
    assert orders == {(i, j): composed_order(W, i, j) for i, j in orders}


def test_phi_square_on_wall_is_identity():
    A = a2_wall_algebra()
    lam = A.omega.base_point  # on the alpha_1 wall with omega = -1
    phi = intertwiner_phi(A, 1, lam)
    sq = A.mul(phi, phi)
    assert sq == A.idempotent(lam)
    assert phi_square_exponent(A, 1, lam) == 0


def test_phi_square_power_matches_exponent():
    A = rank1_algebra()
    lam0 = A.omega.base_point
    da = A.root_poly(A.rs.simple_root(0))
    for lam in sorted(A.group.orbit_window(lam0, 3)):
        n = phi_square_exponent(A, 1, lam)
        phi1 = intertwiner_phi(A, 1, lam)
        back = intertwiner_phi(A, 1, A.group.act_point(A.group.simple_reflection(1), lam))
        sq = A.mul(back, phi1)
        expect_plus = A.poly_mult(da ** n, lam)
        expect_minus = A.poly_mult(-(da ** n), lam)
        assert sq == expect_plus or sq == expect_minus


def test_phi_square_nonunit_across_order_one_wall():
    A = rank1_algebra()
    # lambda_0 = 1/4: crossing a_1 (omega = 1, and omega(-a_1 side) = 1 transported)
    lam0 = A.omega.base_point
    assert phi_square_exponent(A, 1, lam0) == 1
    assert phi_square_exponent(A, 0, lam0) == 1


def test_zero_order_function_gives_group_algebra():
    W = AffineWeylGroup(affinise("A2"))
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    A = Algebra(OrderFunction(W, lam0, {}))
    lam = lam0
    phi = intertwiner_phi(A, 1, lam)
    t = A.tau_letter(1, lam)
    assert phi == t
    back = A.tau_letter(1, A.group.act_point(A.group.simple_reflection(1), lam))
    assert A.mul(back, t) == A.idempotent(lam)


def test_centre_commutes_with_generators():
    A = a2_wall_algebra()
    lam0 = A.omega.base_point
    window = sorted(A.group.orbit_window(lam0, 5))
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    candidates = [x, y, x * x, x * y, y * y, x * x * y, x * y * y]
    inner = sorted(A.group.orbit_window(lam0, 3))
    for f in candidates:
        z = reynolds(A, f)
        if z.is_zero():
            continue
        zop = central_operator(A, z, window)
        for i in range(3):
            for lam in inner:
                t = A.tau_letter(i, lam)
                assert A.mul(zop, t) == A.mul(t, zop)


def test_normal_form_degree_grading():
    A = rank1_algebra()
    lp = vec((Fraction(-3, 4),))
    nf = A.normal_form(A.tau_word([1, 0, 1, 0, 1], lp))
    g = list(nf.coeffs)[0]
    # the sigma operator is alpha^1 * s: its degree is 2 (alpha has degree 2);
    # a polynomial coefficient adds twice its degree
    assert A.tau_element_degree(g, lp) == 2
    assert max(2 * f.total_degree() + A.tau_element_degree(h, lp)
               for h, f in nf.coeffs.items()) == 2


def test_intertwiner_path_within_clan_composes_to_idempotent():
    # adjacent alcoves across a wall with no order value: the two crossing
    # intertwiners are inverse to each other
    A = rank1_algebra()
    lam = vec((Fraction(-3, 4),))
    mu = A.group.act_point(A.group.simple_reflection(0), lam)
    assert mu == vec((Fraction(7, 4),))
    phi_out = intertwiner_phi(A, 0, lam)
    phi_back = intertwiner_phi(A, 0, mu)
    assert A.mul(phi_back, phi_out) == A.idempotent(lam)
    assert A.mul(phi_out, phi_back) == A.idempotent(mu)


def test_intertwiner_square_not_unit_across_order_wall():
    # crossing a wall with order value 1 gives a square equal to ±root, not a unit
    A = rank1_algebra()
    lam0 = A.omega.base_point
    phi_out = intertwiner_phi(A, 1, lam0)
    phi_back = intertwiner_phi(A, 1, A.group.act_point(A.group.simple_reflection(1), lam0))
    sq = A.mul(phi_back, phi_out)
    da = A.root_poly(A.rs.simple_root(0))
    assert sq == A.poly_mult(da, lam0) or sq == A.poly_mult(-da, lam0)


def test_tau_word_choice_changes_only_lower_degree():
    # two reduced words of the same element differ by lower filtration terms
    A = a2_generic_algebra()
    W = A.group
    lam = A.omega.base_point
    cases = [((0, 1, 0), (1, 0, 1)), ((0, 2, 0), (2, 0, 2)), ((1, 2, 1), (2, 1, 2))]
    for wa, wb in cases:
        if W.from_word(wa) != W.from_word(wb):
            continue
        diff = A.tau_word(wa, lam) - A.tau_word(wb, lam)
        nf = A.normal_form(diff)
        deg = nf.filtration_degree(W)
        assert deg is None or deg <= len(wa) - 1


def test_g2_operator_smoke():
    import random

    from qdha.orderfun import OrderFunction
    from qdha.weyl import AffineWeylGroup
    from qdha.rootsys import affinise

    rng = random.Random(5)
    W = AffineWeylGroup(affinise("G2"))
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    A = Algebra(OrderFunction(W, lam0, {a: 1 for a in W.ars.delta}))
    for _ in range(5):
        word = [rng.randrange(3) for _ in range(rng.randrange(1, 5))]
        op = A.tau_word(word, lam0)
        nf = A.normal_form(op)
        assert A.reconstruct(nf) == op


@pytest.mark.parametrize("finite", [False, True], ids=["affine", "finite"])
def test_invalid_block_rejected(finite):
    # a block whose target is not its twist applied to its source is refused:
    # no affine element connects the weights, or the torus points disagree
    A = a2_generic_algebra()
    lam = A.omega.base_point
    if finite:
        A = BAlgebra(integral_b_order_function(A.omega))
        lam = torus_point(lam)
    other = vec((lam[0] + Fraction(1, 2), lam[1]))
    bad = RatOperator.from_dict({
        (lam, other, A.group.finite.identity): RatFunc.from_poly(Poly.const(2, 1)),
    })
    with pytest.raises(ValueError):
        A.normal_form(bad)


@pytest.mark.parametrize("finite", [False, True], ids=["affine", "finite"])
def test_lost_leading_block_raises(finite, monkeypatch):
    # a tau element without its leading block cannot be peeled against
    def make():
        A = a2_generic_algebra()
        return BAlgebra(integral_b_order_function(A.omega)) if finite else A

    A = make()
    lam = A._weight(A.bof.base_point if finite else A.omega.base_point)
    g = A.group.finite.simple[0] if finite else A.group.simple_reflection(0)
    x = A.tau_element(g, lam)
    broken = make()
    tau_word = broken.tau_word
    lead = (lam, A._target(g, lam), A._twist(g))
    monkeypatch.setattr(broken, "tau_word", lambda word, mu: RatOperator(
        tuple((k, v) for k, v in tau_word(word, mu).entries if k != lead)))
    with pytest.raises(ArithmeticError, match="lost its leading block"):
        broken.leading_coefficient(g, lam)
    with pytest.raises(ArithmeticError, match="lost its leading block"):
        broken.normal_form(x)
    assert A.normal_form(x).coeffs == {g: Poly.const(2, 1)}


def test_leading_coefficient_matches_inversion_product():
    # the block of tau_g at g itself equals the twisted product of
    # (-root)^(order value) over the inversion set of g
    A = a2_wall_algebra()
    W = A.group
    lam0 = A.omega.base_point
    for g in W.ball(4):
        lam = lam0
        direct = A.leading_coefficient(g, lam)
        closed = A.inversion_leading_coefficient(g, lam)
        assert direct == closed


LIFTING = ("integral", "iso", "gamma", "product")
# A4 runs only its integral sweep here: its gamma and product take 5-10 s
CARRIED = [(p.stem, ("integral",) if p.stem == "a4_generic" else LIFTING)
           for p in sorted(INSTANCES.glob("*.json"))]


@pytest.mark.parametrize("name,checks", CARRIED, ids=[name for name, _ in CARRIED])
def test_carried_tables_match_walked_witness(name, checks):
    # the sweeps that lift and truncate reach most weights through a letter,
    # which carries omega there; each carried table is omega moved along a
    # walked witness of its weight
    spec = load_instance(INSTANCES / f"{name}.json")
    alg = spec.algebra()
    spec.algebra = lambda: alg
    for check in checks:
        assert cli.CHECK_FUNCS[check](spec, spec.ball, 0)["pass"]
    omega = alg.omega
    for lam, table in alg._moved.items():
        assert table == omega.moved(omega.witness(lam))


def test_translation_walks_only_its_source(monkeypatch):
    spec = load_instance(INSTANCES / "c2_generic.json")
    alg, omega, W = spec.algebra(), spec.omega, spec.group
    gamma = spec.gamma_choice.gamma
    gamma2 = vec(tuple(2 * c - r for c, r in zip(gamma, two_rho_coroot(W))))
    walked = []
    witness = OrderFunction.witness

    def counting(self, lam):
        walked.append(vec(lam))
        return witness(self, lam)

    monkeypatch.setattr(OrderFunction, "witness", counting)
    diff = vec(tuple(a - b for a, b in zip(gamma, gamma2)))
    for ell in omega.torus.points:
        src = pregamma_point(omega, gamma2, ell)
        walked.clear()
        alg.tau_element(W.translation(diff), src)
        assert walked == [src]
        tgt = pregamma_point(omega, gamma, ell)
        assert alg._moved[tgt] == omega.moved(witness(omega, tgt))
