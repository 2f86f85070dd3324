"""Deep lifts, lifted finite generators, the finite-quotient isomorphism, change of lift."""
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qdha.algebra import Algebra, OperatorAlgebra
from qdha import cli, kz
from qdha.bqha import BAlgebra
from qdha.instances import load_instance
from qdha.cli import check_kernel
from qdha.clans import enumerate_clans, walked_signs, wall_roots
from qdha.kz import (
    choose_gamma,
    clans_met,
    e_gamma_weights,
    gamma_change,
    integral_b_order_function,
    iso_check,
    lift,
    pregamma_group,
    pregamma_point,
    product_formula_check,
    two_rho_coroot,
)
from qdha.orderfun import OrderFunction, TorusOrbit
from qdha.polyring import Poly, RatFunc, monomials
from qdha.rootsys import affinise, vec
from qdha.weyl import AffineWeylGroup
from test_algebra import apply
from test_clans import clan_of
from test_tables import fraction_act_point
from test_weyl import element_ball

ROOT = Path(__file__).resolve().parent.parent


def rank1_setup():
    W = AffineWeylGroup(affinise("A1"))
    lam0 = vec((Fraction(1, 4),))
    omega = OrderFunction(W, lam0, {a: 1 for a in W.ars.delta})
    alg = Algebra(omega)
    B = BAlgebra(integral_b_order_function(omega))
    gamma = choose_gamma(omega).gamma
    return alg, B, gamma


def a2_setup():
    W = AffineWeylGroup(affinise("A2"))
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    omega = OrderFunction(W, lam0, {a: 1 for a in W.ars.delta})
    alg = Algebra(omega)
    B = BAlgebra(integral_b_order_function(omega))
    gamma = choose_gamma(omega).gamma
    return alg, B, gamma


def test_pregamma_points_rank1_worked_example():
    alg, B, gamma = rank1_setup()
    assert gamma == (-1,) and type(gamma[0]) is int
    omega = alg.omega
    key = omega.over.key
    ell0 = omega.torus.point(omega.base_key)
    assert pregamma_point(omega, gamma, ell0) == key([Fraction(-3, 4)]) == (-3,)
    s_ell0 = omega.torus.point(key([Fraction(-1, 4)]))
    assert pregamma_point(omega, gamma, s_ell0) == key([Fraction(-5, 4)]) == (-5,)
    assert e_gamma_weights(omega, gamma) == [key([Fraction(-5, 4)]), key([Fraction(-3, 4)])]


def test_pregamma_group_section():
    alg, B, gamma = a2_setup()
    W = alg.group
    for w in W.finite.elements:
        g = pregamma_group(W, gamma, w)
        assert g.w == w
        # conjugation by the translation fixes the finite part and is a homomorphism
        for u in W.finite.simple:
            gu = pregamma_group(W, gamma, W.finite.compose(w, u))
            assert W.compose(g, pregamma_group(W, gamma, u)) == gu


def test_pregamma_identity_on_group():
    alg, B, gamma = rank1_setup()
    W = alg.group
    assert pregamma_group(W, gamma, W.finite.identity) == W.identity


def test_e_gamma_size_counts_cosets():
    alg, B, gamma = a2_setup()
    assert len(e_gamma_weights(alg.omega, gamma)) == 6
    assert len(TorusOrbit(alg.group, alg.omega.base_point).cosets) == 6


def test_sigma_rank1_matches_five_letter_product():
    alg, B, gamma = rank1_setup()
    lp = alg.over.key([Fraction(-3, 4)])
    ellp = B.torus.point(lp)
    op = lift(alg.omega, gamma, B.tau_letter(0, ellp))
    prod = alg.tau_word([1, 0, 1, 0, 1], lp)
    assert op == prod


def test_sigma_normal_form_single_element_support():
    for alg, B, gamma in [rank1_setup(), a2_setup()]:
        for ell in B.orbit:
            for i in range(alg.rank):
                op = lift(alg.omega, gamma, B.tau_letter(i, ell))
                nf = alg.normal_form(op)
                assert len(nf.support()) == 1
                g = nf.support()[0]
                assert g.w == alg.group.finite.reflection(alg.rs.simple_root(i))
                assert nf.coeffs[g].is_constant()


def integral_reference(alg, gamma, w, ell):
    """sigma_w e(lift of ell) built directly in the affine algebra: two-case
    generators along the canonical word of w, each with the integral of the
    order function at its source as exponent, between deep lifts."""
    omega, fin = alg.omega, alg.group.finite
    bof = integral_b_order_function(omega)
    cur = omega.torus.point(ell)
    acc = alg.idempotent(pregamma_point(omega, gamma, cur))
    for i in reversed(fin.word(w)):
        alpha = alg.rs.simple_root(i)
        nxt = omega.torus.act(fin.simple[i], cur)
        gen = alg.two_case_generator(alpha, bof.value(cur, alpha),
                                     pregamma_point(omega, gamma, cur),
                                     pregamma_point(omega, gamma, nxt))
        acc = alg.mul(gen, acc)
        cur = nxt
    return acc


@pytest.mark.parametrize("name", ["a1_quarter", "a2_wall", "c2_generic"])
def test_lift_of_finite_tau_basis_equals_integral_reference(name):
    spec = load_instance(ROOT / "instances" / f"{name}.json")
    alg, B = spec.algebra(), spec.b_algebra()
    g1 = spec.gamma_choice.gamma
    g2 = tuple(2 * c - r for c, r in zip(g1, two_rho_coroot(spec.group)))
    for gamma in (g1, g2):
        for ell in B.orbit:
            for w in spec.group.finite.elements:
                assert lift(alg.omega, gamma, B.tau_element(w, ell)) == \
                    integral_reference(alg, gamma, w, ell), (gamma, ell, w)


def test_product_formula_identity_element():
    alg, B, gamma = a2_setup()
    rep = product_formula_check(alg, B, gamma, pregamma_group(alg.group, gamma, alg.group.finite.identity),
                                B.orbit[0])
    assert rep.ok and rep.scalar == 1


def test_product_formula_rank1_reflection():
    alg, B, gamma = rank1_setup()
    s = alg.group.finite.reflection(alg.rs.simple_root(0))
    for ell in B.orbit:
        rep = product_formula_check(alg, B, gamma, pregamma_group(alg.group, gamma, s), ell)
        assert rep.ok


def test_product_formula_a2_all_elements_and_weights():
    alg, B, gamma = a2_setup()
    for w in alg.group.finite.elements:
        for ell in B.orbit:
            rep = product_formula_check(alg, B, gamma, pregamma_group(alg.group, gamma, w), ell)
            assert rep.ok, (w, ell, rep.scalar)


def test_product_sweep_builds_one_section_per_finite_element(monkeypatch):
    # the section depends on (gamma, w) alone, so the sweep builds it once per
    # w, through the module attribute, and shares it over the orbit
    spec = load_instance(ROOT / "instances" / "c2_generic.json")
    calls = []
    section = kz.pregamma_group
    monkeypatch.setattr(kz, "pregamma_group",
                        lambda group, gamma, w: calls.append(w) or section(group, gamma, w))
    report = cli.check_product(spec, spec.ball, 1)
    assert report["pass"] and report["instances"] == len(calls) * len(spec.b_algebra().orbit)
    assert sorted(calls) == sorted(spec.group.finite.elements)


def test_iso_check_rank1():
    alg, B, gamma = rank1_setup()
    report = iso_check(alg, B, gamma)
    assert report.ok()
    # the recorded scalars are nonzero rationals
    assert all(c != 0 for c in report.scalars.values())


@pytest.mark.parametrize("name", ["a1_quarter", "a1_ddaha_half", "a2_generic", "a2_wall",
                                  "c2_generic", "g2_generic"])
def test_iso_check_against_full_normal_forms(name):
    # the reference: the full normal form of every lifted tau_w e(ell), not
    # only of the letters, with its top term read off the peeled coefficients
    spec = load_instance(ROOT / "instances" / f"{name}.json")
    alg, B, gamma = spec.algebra(), spec.b_algebra(), spec.gamma_choice.gamma
    omega, W = alg.omega, alg.group
    report = iso_check(alg, B, gamma)
    assert report.ok()
    assert len(report.scalars) == len(B.orbit) * len(W.finite.elements)
    for ell in B.orbit:
        lam = pregamma_point(omega, gamma, ell)
        for w in W.finite.elements:
            _, coeffs = alg.normal_form_rational(lift(omega, gamma, B.tau_element(w, ell)))
            assert all(f.is_poly() for f in coeffs.values()), (ell, w)
            top = max(W.length(g) for g in coeffs)
            tgt = pregamma_point(omega, gamma, omega.torus.act(w, ell))
            expected = alg.element_of_entry((lam, tgt, w))
            assert [g for g in coeffs if W.length(g) == top] == [expected], (ell, w)
            lead = coeffs[expected]
            assert lead.is_constant() and lead.num.constant_value() == report.scalars[ell, w]


def test_iso_inverts_only_the_leading_blocks_the_peel_reads(monkeypatch):
    # the tau cache inverts a leading block on the peel's first request, and
    # iso divides by no block: on c2_generic every RatFunc inverse is one of
    # the distinct (g, lambda) whose leading block the peel of a lifted letter
    # reads, not one per cached tau
    spec = load_instance(ROOT / "instances" / "c2_generic.json")
    alg, B = spec.algebra(), spec.b_algebra()
    inverses = []
    inverse = RatFunc.inverse
    monkeypatch.setattr(RatFunc, "inverse", lambda r: inverses.append(r) or inverse(r))
    peeled = set()
    leading_block = OperatorAlgebra._leading_block

    def recorded(self, g, lam):
        peeled.add((self, g, lam))
        return leading_block(self, g, lam)

    monkeypatch.setattr(OperatorAlgebra, "_leading_block", recorded)
    assert iso_check(alg, B, spec.gamma_choice.gamma).ok()
    assert len(inverses) == len(peeled) == 16
    assert {self for self, _, _ in peeled} == {alg}


def test_iso_check_trivial_products():
    # e(ell) e(ell') = 0 for ell != ell', on both sides of the lift
    alg, B, gamma = rank1_setup()
    e1 = B.idempotent(B.orbit[0])
    e2 = B.idempotent(B.orbit[1])
    assert B.mul(e1, e2).is_zero()
    a1 = alg.idempotent(pregamma_point(alg.omega, gamma, B.orbit[0]))
    a2 = alg.idempotent(pregamma_point(alg.omega, gamma, B.orbit[1]))
    assert alg.mul(a1, a2).is_zero()


def random_finite_operator(B, rng, sources):
    """A sum of three generator products ``tau_word e(ell) f``, ell among the
    sources, with small random polynomials f."""
    out = B.zero()
    for _ in range(3):
        ell = rng.choice(sources)
        word = [rng.randrange(B.rank) for _ in range(rng.randrange(4))]
        f = Poly(B.rank, {m: Fraction(rng.randint(-3, 3)) for m in monomials(B.rank, 2)
                          if rng.random() < 0.4})
        out = out + B.mul(B.tau_word(word, ell), B.poly_mult(f, ell))
    return out


LIFT_INSTANCES = ["a1_quarter", "a2_generic", "a2_wall", "c2_generic"]


@pytest.mark.parametrize("name", LIFT_INSTANCES)
def test_lift_is_multiplicative(name):
    # the fact the iso sweep takes as given: lift(x y) = lift(x) lift(y)
    spec = load_instance(ROOT / "instances" / f"{name}.json")
    alg, B, gamma = spec.algebra(), spec.b_algebra(), spec.gamma_choice.gamma
    rng = random.Random(2020)
    nonzero = 0
    for _ in range(6):
        y = random_finite_operator(B, rng, B.orbit)
        # x starts where y ends, so that most products are nonzero
        x = random_finite_operator(B, rng, [tgt for (_, tgt, _), _ in y.entries])
        xy = B.mul(x, y)
        nonzero += not xy.is_zero()
        assert lift(alg.omega, gamma, xy) == alg.mul(lift(alg.omega, gamma, x),
                                                     lift(alg.omega, gamma, y))
    assert nonzero >= 4


INSTANCE_FILES = sorted(p.stem for p in (ROOT / "instances").glob("*.json"))


@pytest.mark.parametrize("name", INSTANCE_FILES)
def test_pregamma_point_is_injective_on_the_orbit(name):
    # the other fact: distinct orbit points have distinct lifts
    spec = load_instance(ROOT / "instances" / f"{name}.json")
    omega, gamma = spec.omega, spec.gamma_choice.gamma
    lifts = {pregamma_point(omega, gamma, ell) for ell in omega.torus.points}
    assert len(lifts) == len(omega.torus.points)


def test_iso_check_zero_order_function():
    # both sides are twisted group algebras
    W = AffineWeylGroup(affinise("A1"))
    lam0 = vec((Fraction(1, 4),))
    omega = OrderFunction(W, lam0, {})
    alg = Algebra(omega)
    B = BAlgebra(integral_b_order_function(omega))
    gamma = choose_gamma(omega).gamma
    report = iso_check(alg, B, gamma)
    assert report.ok()


def test_gamma_change_same_gamma():
    alg, B, gamma = rank1_setup()
    from qdha.kz import gamma_change_intertwiner, e_gamma_idempotent
    phi = gamma_change_intertwiner(alg, gamma, gamma)
    assert phi == e_gamma_idempotent(alg, gamma)


def test_gamma_change_rank1():
    alg, B, gamma = rank1_setup()
    gamma2 = (-2,)
    report = gamma_change(alg, B, gamma, gamma2)
    assert report.ok()


def test_gamma_change_a2():
    alg, B, gamma = a2_setup()
    gamma2 = tuple(2 * c for c in gamma)
    report = gamma_change(alg, B, gamma, gamma2)
    assert report.ok()


def test_kernel_criteria_rank1_characters():
    alg, B, gamma = rank1_setup()
    dec = enumerate_clans(alg.omega)
    nongeneric = [s for s in dec.clans if not dec.generic[s]]
    assert nongeneric == [(1, 1)]
    met = clans_met(alg.group, dec.walls, gamma)
    # the bounded clan: in the kernel, recession cone of dimension 0
    assert (1, 1) not in met and dec.dimension[(1, 1)] == 0
    # the two unbounded clans: not in the kernel, recession cones of dimension 1
    for sign in dec.generic_clans():
        assert sign in met and dec.dimension[sign] == 1


def walked_characters(omega, bound):
    """The weights w lambda_0 of each clan, one per alcove w^{-1} nu_0 within
    the length bound, with the sign vectors that ``walked_signs`` reads off the
    walked wall images."""
    found = omega.group.walk(omega.base_point, bound, wall_roots(omega))
    out = {}
    for (x, _), sign in walked_signs(omega.group, found):
        out.setdefault(sign, {})[omega.over(x)] = 1
    return out


def test_clan_characters_against_one_clan_at_a_time():
    alg, B, gamma = a2_setup()
    omega, W = alg.omega, alg.group
    dec = enumerate_clans(omega)
    chars = walked_characters(omega, 10)
    assert set(chars) <= set(dec.clans)
    for sign in dec.clans:
        expected = {fraction_act_point(W, g, omega.base_point): 1 for g in element_ball(W, 10)
                    if clan_of(omega, g, dec.walls) == sign}
        assert chars.get(sign, {}) == expected


@pytest.mark.parametrize("name", ["a1_quarter", "a2_wall", "c2_generic", "g2_generic"])
def test_clan_characters_against_one_clan_at_a_time_on_instance_files(name):
    # the sign vectors read off the walked wall images against the walls
    # evaluated at the alcove point of every element of the element ball
    omega = load_instance(ROOT / "instances" / f"{name}.json").omega
    W, walls = omega.group, wall_roots(omega)
    expected = {}
    for g in element_ball(W, 12):
        expected.setdefault(clan_of(omega, g, walls), {})[fraction_act_point(W, g, omega.base_point)] = 1
    assert walked_characters(omega, 12) == expected


def test_clans_met_takes_all_of_w_at_a_wall_point():
    # a2_wall's base point lies on a wall, so each idempotent weight lies in
    # the alcoves of a whole stabiliser coset: the coset representatives
    # alone miss the clan (1, -1)
    spec = load_instance(ROOT / "instances" / "a2_wall.json")
    W, gamma, walls = spec.group, spec.gamma_choice.gamma, wall_roots(spec.omega)
    xg = W.translation(gamma)
    from_reps = {clan_of(spec.omega, W.compose(xg, W.from_finite(w)), walls)
                 for w in spec.omega.torus.cosets.values()}
    assert clans_met(W, walls, gamma) - from_reps == {(1, -1)}


RANK_AT_MOST_3 = sorted(p.stem for p in (ROOT / "instances").glob("*.json")
                        if p.stem != "a4_generic")


@pytest.mark.parametrize("name", RANK_AT_MOST_3)
def test_kernel_report_unchanged_when_the_exploration_bound_doubles(name, monkeypatch):
    spec = load_instance(ROOT / "instances" / f"{name}.json")
    report = check_kernel(spec, spec.ball, 0)
    assert report["pass"]
    omega = spec.omega
    doubled = 4 * (omega.support_level_radius() + 1) * omega.group.rs.coxeter_number
    monkeypatch.setattr(cli, "enumerate_clans", lambda om: enumerate_clans(om, doubled))
    assert check_kernel(spec, spec.ball, 0) == report


@pytest.mark.parametrize("name", RANK_AT_MOST_3)
def test_clans_met_unchanged_at_the_deeper_lift(name):
    # the lift 2 gamma - 2 rho^vee that the gamma sweep changes to
    spec = load_instance(ROOT / "instances" / f"{name}.json")
    W, gamma, walls = spec.group, spec.gamma_choice.gamma, wall_roots(spec.omega)
    deeper = tuple(2 * c - r for c, r in zip(gamma, two_rho_coroot(W)))
    assert clans_met(W, walls, deeper) == clans_met(W, walls, gamma)


def test_kernel_projective_character_not_in_kernel():
    # the projective survives truncation: a clan holds an idempotent weight
    # and is generic; its largest recession cone has the rank's dimension
    alg, B, gamma = rank1_setup()
    dec = enumerate_clans(alg.omega)
    assert any(dec.generic[s] for s in clans_met(alg.group, dec.walls, gamma))
    assert max(dec.dimension.values()) == 1


def nil_flavour_setup():
    """Base point 0: full finite stabilizer, integral -1, one torus orbit point."""
    W = AffineWeylGroup(affinise("A1"))
    lam0 = vec((Fraction(0),))
    from qdha.rootsys import AffineRoot
    omega = OrderFunction(W, lam0, {AffineRoot((1,), 0): -1, AffineRoot((-1,), 0): -1})
    alg = Algebra(omega)
    gamma = choose_gamma(omega).gamma
    return alg, gamma


def test_sigma_with_integral_minus_one_kills_invariants():
    alg, gamma = nil_flavour_setup()
    W = alg.group
    ell0 = alg.omega.torus.point(alg.omega.base_key)
    B = BAlgebra(integral_b_order_function(alg.omega))
    assert B.bof.value(ell0, W.rs.simple_root(0)) == -1
    op = lift(alg.omega, gamma, B.tau_letter(0, ell0))
    lam = pregamma_point(alg.omega, gamma, ell0)
    alpha = alg.root_poly(W.rs.simple_root(0))
    assert apply(alg, op, lam, alpha * alpha) == []
    assert apply(alg, op, lam, Poly.const(1, 5)) == []


def test_e_gamma_singleton_for_full_stabilizer():
    alg, gamma = nil_flavour_setup()
    assert len(e_gamma_weights(alg.omega, gamma)) == 1
    assert len(alg.omega.torus.points) == 1
