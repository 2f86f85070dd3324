"""Clan decomposition: sign vectors, enumeration, genericity."""
from fractions import Fraction

import pytest

from qdha.clans import (
    alcove_point,
    clan_of,
    enumerate_clans,
    generic_reference_elements,
    sign_vector_feasible,
    wall_roots,
)
from qdha.kz import choose_gamma
from qdha.orderfun import OrderFunction
from qdha.rootsys import AffineRoot, affinise, vec
from qdha.weyl import AffineWeylGroup


def rank1_omega():
    W = AffineWeylGroup(affinise("A1"))
    return OrderFunction(W, vec((Fraction(1, 4),)), {a: 1 for a in W.ars.delta})


def a2_omega(support_on_delta=True):
    W = AffineWeylGroup(affinise("A2"))
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    if support_on_delta:
        sup = {a: 1 for a in W.ars.delta}
    else:
        sup = {AffineRoot((1, 0), 0): 1, AffineRoot((1, 0), 1): 1}
    return OrderFunction(W, lam0, sup)


def test_fundamental_point_is_interior():
    for label in ["A1", "A2", "C2", "G2"]:
        W = AffineWeylGroup(affinise(label))
        x = W.alcove_point
        for a in W.ars.delta:
            assert W.ars.evaluate(a, x) > 0


def test_rank1_three_clans_and_genericity():
    omega = rank1_omega()
    dec = enumerate_clans(omega)
    assert dec.clan_count() == 3
    flags = sorted(dec.generic.values())
    assert flags == [False, True, True]
    # the non-generic clan is the bounded middle one (both walls positive side)
    assert dec.generic[(1, 1)] is False
    assert dec.generic[(1, -1)] is True and dec.generic[(-1, 1)] is True


def test_rank1_specific_alcove_clan():
    omega = rank1_omega()
    W = omega.group
    walls = wall_roots(omega)
    # the alcove ]1/2, 1[ is (X^1 s_1)^{-1} nu_0; it lies past the a_0 wall
    u = W.compose(W.translation((1,)), W.from_finite(W.finite.reflection(W.rs.simple_root(0))))
    sigma = clan_of(omega, u, walls)
    pt = alcove_point(W, u)
    assert Fraction(1, 2) < pt[0] < 1
    a0, a1 = walls[0], walls[1]
    # beyond 1/2 both basis roots reverse roles: a1 positive, a0 negative
    vals = {a: omega.ars.evaluate(a, pt) for a in walls}
    assert all((vals[a] > 0) == (s > 0) for a, s in zip(walls, sigma))


def test_empty_wall_set_single_generic_clan():
    W = AffineWeylGroup(affinise("A2"))
    omega = OrderFunction(W, vec((Fraction(1, 5), Fraction(1, 7))), {})
    dec = enumerate_clans(omega, exploration_bound=1)
    assert dec.clan_count() == 1
    assert dec.generic[()] is True


def test_adjacent_alcoves_same_clan_across_nonwall():
    omega = a2_omega()
    W = omega.group
    walls = wall_roots(omega)
    # cross a wall whose root has order value 0: pick a length-4 element and a
    # neighbouring reflection not in the wall list
    g = W.from_word((0, 1, 2, 0))
    for i in range(3):
        h = W.compose(g, W.simple_reflection(i))
        # alcoves g nu_0 and g s_i nu_0 are separated by the wall of g(a_i)
        crossing = W.act_root(g, W.ars.delta[i])
        pos = crossing if W.ars.is_positive(crossing) else AffineRoot(
            tuple(-c for c in crossing.alpha), -crossing.level)
        if pos in walls:
            continue
        assert clan_of(omega, W.inverse(g), walls) == clan_of(omega, W.inverse(h), walls)


def test_a2_clan_count_matches_sampling_oracle():
    omega = a2_omega(support_on_delta=False)
    W = omega.group
    dec = enumerate_clans(omega)
    # oracle: sample a rational grid and collect sign vectors of the two walls
    walls = dec.walls
    seen = set()
    steps = [Fraction(k, 7) for k in range(-28, 29)]
    for c1 in steps:
        for c2 in steps:
            x = vec((c1 + Fraction(1, 100), c2 + Fraction(1, 101)))
            try:
                seen.add(tuple(1 if omega.ars.evaluate(a, x) > 0 else -1 for a in walls))
            except ValueError:
                continue
    assert seen == set(dec.clans)


def test_a2_delta_walls_clan_count():
    omega = a2_omega()
    dec = enumerate_clans(omega)
    # three affine walls in general position in the plane: 7 regions
    assert dec.clan_count() == 7
    # bounded central region is the only non-generic one with all-positive signs
    assert dec.generic[(1, 1, 1)] is False


def test_generic_flags_agree_with_deep_translate_membership():
    for omega in [rank1_omega(), a2_omega()]:
        gamma = choose_gamma(omega).gamma
        dec = enumerate_clans(omega)
        reference = generic_reference_elements(omega, gamma)
        # clans containing some w^{-1} X^{-gamma} nu_0 are exactly the generic ones
        assert set(reference) == set(dec.generic_clans())


def test_feasibility_rejects_contradictory_signs():
    omega = rank1_omega()
    walls = wall_roots(omega)
    # x < 0 and x > 1/2 simultaneously is infeasible
    assert sign_vector_feasible(omega, walls, (1, 1))
    assert not sign_vector_feasible(omega, walls, (-1, -1))


def test_incomplete_exploration_raises():
    omega = rank1_omega()
    with pytest.raises(Exception) as err:
        enumerate_clans(omega, exploration_bound=0)
    assert "unreached" in str(err.value)
