"""The moved-support tables against the formulas they replace.

omega at a weight is read from one table per weight, the finite order
function from one table per orbit point, and the inversion orders from the
roots of that table.  The reference formulas below walk back to the base
point for every value instead: ``omega(w^{-1} a)`` through an inverted
witness, a level window of affine roots per ``(ell, alpha)``, and the whole
inversion set of an element.
"""
from pathlib import Path

import pytest

from qdha import cli
from qdha.algebra import Algebra
from qdha.instances import load_instance
from qdha.kz import (
    choose_gamma,
    integral_b_order_function,
    pregamma_group,
    pregamma_point,
    two_rho_coroot,
)
from qdha.orderfun import BOrderFunction
from qdha.rootsys import AffineRoot

ROOT = Path(__file__).resolve().parent.parent


def omega_of(name):
    return load_instance(ROOT / "instances" / f"{name}.json").omega


def reference_value(omega, lam, a):
    """omega_lambda(a) = omega(w^{-1} a) for a witness w of lambda."""
    group = omega.group
    return omega.value(group.act_root(group.inverse(omega.witness(lam)), a))


def reference_integral(omega, ell, alpha, gamma):
    """Sum of omega at the deep lift of ell over the affine roots with
    differential alpha or 2 alpha, scanned over the levels where the
    support can reach."""
    group = omega.group
    rs = group.rs
    wit = omega.witness(pregamma_point(omega, gamma, ell))
    winv = group.inverse(wit)
    radius = omega.support_level_radius()
    total = 0
    for mult in (1, 2):
        beta = tuple(mult * c for c in alpha)
        if not rs.is_root(beta):
            continue
        shift = group.act_root(winv, AffineRoot(beta, 0)).level
        for k in range(max(0, -radius - shift), radius - shift + 1):
            a = AffineRoot(beta, k)
            if group.ars.is_root(a):
                total += reference_value(omega, pregamma_point(omega, gamma, ell), a)
    return total


def reference_inversion_orders(omega, g, lam):
    """The nonzero (root, order) pairs over the whole inversion set of g."""
    pairs = [(b.alpha, reference_value(omega, lam, b)) for b in omega.group.inversion_set(g)]
    return [(beta, m) for beta, m in pairs if m]


@pytest.mark.parametrize("name", ["a1_quarter", "a2_wall", "c2_generic", "g2_generic"])
def test_omega_value_matches_inverted_witness(name):
    omega = omega_of(name)
    alg = Algebra(omega)
    roots = omega.group.ars.window(omega.support_level_radius() + 2)
    for lam in omega.group.orbit_window(omega.base_point, 4):
        for a in roots:
            assert alg.moved(lam).get(a, 0) == reference_value(omega, lam, a)


@pytest.mark.parametrize("name", ["a1_quarter", "a1_ddaha_half", "a2_generic", "a2_wall",
                                  "c2_generic", "g2_generic"])
def test_finite_table_matches_level_window_integral(name):
    omega = omega_of(name)
    group = omega.group
    g1 = choose_gamma(omega).gamma
    g2 = tuple(2 * c - r for c, r in zip(g1, two_rho_coroot(group)))
    nonzero = 0
    bof = integral_b_order_function(omega)
    for gamma in (g1, g2):
        for ell in omega.torus.points:
            for alpha in group.rs.positive_roots:
                expected = reference_integral(omega, ell, alpha, gamma)
                assert bof.value(ell, alpha) == expected
                nonzero += expected != 0
    assert nonzero


@pytest.mark.parametrize("name", ["a1_quarter", "a2_wall", "c2_generic", "g2_generic"])
def test_inversion_orders_match_inversion_set(name):
    omega = omega_of(name)
    group = omega.group
    alg = Algebra(omega)
    gamma = choose_gamma(omega).gamma
    for w in group.finite.elements:
        g = pregamma_group(group, gamma, w)
        for ell in omega.torus.points:
            lam = pregamma_point(omega, gamma, ell)
            assert alg.inversion_orders(g, lam) == reference_inversion_orders(omega, g, lam)
    weights = sorted(group.orbit_window(omega.base_point, 1))
    for g in group.ball(4):
        for lam in weights:
            assert alg.inversion_orders(g, lam) == reference_inversion_orders(omega, g, lam)


@pytest.mark.parametrize("name,failures", [("c2_generic", 4), ("g2_generic", 8)])
def test_integral_sweep_catches_inverse_representative(name, failures, monkeypatch):
    # a slip in the table, the inverse coset representative, leaves it the
    # same at every gamma; the literal integral along the lifts sees it
    def slipped(omega):
        group = omega.group
        rs = group.rs
        table = {}
        for ell, w in omega.torus.cosets.items():
            for a, v in omega.support.items():
                beta = group.finite.act_root(group.finite.inverse(w), a.alpha)
                if rs.is_positive_root(beta):
                    table[ell, beta] = table.get((ell, beta), 0) + v
        return BOrderFunction(group, omega.torus, {k: v for k, v in table.items() if v})

    spec = load_instance(ROOT / "instances" / f"{name}.json")
    assert cli.check_integral(spec, 0, 0)["pass"]
    monkeypatch.setattr(cli, "integral_b_order_function", slipped)
    assert len(cli.check_integral(spec, 0, 0)["failures"]) == failures
