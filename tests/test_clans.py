"""Clan decomposition: sign vectors, enumeration, recession cone dimensions, genericity."""
from fractions import Fraction
from pathlib import Path

import pytest

from qdha import fm
from qdha.clans import (
    enumerate_clans,
    sign_vector_feasible,
    wall_roots,
)
from qdha.instances import load_instance
from qdha.kz import choose_gamma, clans_met
from qdha.orderfun import OrderFunction
from qdha.rootsys import AffineRoot, AffineRootSystem, affinise, vec
from qdha.weyl import AffineWeylGroup
from test_tables import fraction_act_point
from test_weyl import element_ball

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


# ----- the reference: walls evaluated at alcove sample points, in Fractions -----

def alcove_point(W, g):
    """Interior sample point of the alcove g^{-1}(fundamental alcove)."""
    return fraction_act_point(W, W.inverse(g), W.alcove_point)


def clan_of(omega, g, walls):
    """The sign vector of the alcove g^{-1} nu_0, every wall evaluated at its sample point."""
    x = alcove_point(omega.group, g)
    out = []
    for a in walls:
        v = omega.ars.evaluate(a, x)
        assert v != 0, f"sample point {x} lies on the wall of {a}"
        out.append(1 if v > 0 else -1)
    return tuple(out)


def reference_census(omega, bound):
    """Each sign met on the element ball, with the first element of that sign."""
    walls = wall_roots(omega)
    first = {}
    for g in element_ball(omega.group, bound):
        first.setdefault(clan_of(omega, g, walls), g)
    return walls, first


def generic_reference_elements(omega, gamma):
    """The clans of the alcoves w^{-1} X^{-gamma} nu_0 for finite w.

    These land exactly in the generic clans; an independent check of the
    cone-based genericity test.
    """
    group = omega.group
    walls = wall_roots(omega)
    out = {}
    for w in group.finite.elements:
        u = group.compose(group.translation(gamma), group.from_finite(w))
        # u^{-1} nu_0 = w^{-1} X^{-gamma} nu_0
        out.setdefault(clan_of(omega, u, walls), []).append(w)
    return out


def strictly_feasible_cone(omega, walls, sigma):
    """Whether some v has s <da, v> > 0 on every wall: the recession cone is full dimensional."""
    rs = omega.group.rs
    rows = [[s * rs.pair_root_coroot(a.alpha, rs.simple_root(i)) for i in range(rs.rank)]
            for s, a in zip(sigma, walls)]
    return fm.feasible([fm.make_constraint(r, 0) for r in rows], rs.rank)


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
    files = [load_instance(p).omega for p in sorted(INSTANCES.glob("*.json"))]
    for omega in [rank1_omega(), a2_omega()] + files:
        gamma = choose_gamma(omega).gamma
        dec = enumerate_clans(omega)
        reference = generic_reference_elements(omega, gamma)
        # clans containing some w^{-1} X^{-gamma} nu_0 are exactly the generic ones
        assert set(reference) == set(dec.generic_clans())
        # and clans_met reads the same signs off the images of the walls
        assert clans_met(omega.group, dec.walls, gamma) == set(reference)


@pytest.mark.parametrize("rows,dimension", [
    ([], 2),
    ([[1, 0]], 2),
    ([[1, 0], [-1, 0]], 1),                 # a line
    ([[1, -1], [-1, 1], [1, 0]], 1),        # a ray
    ([[1, 1], [-1, 0], [0, -1]], 0),        # only the origin, no row an equality alone
    ([[1, 0], [-1, 0], [0, 1], [0, -1]], 0),
])
def test_cone_dimension_examples(rows, dimension):
    assert fm.cone_dimension(rows, 2) == dimension


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


@pytest.mark.parametrize("name", sorted(p.stem for p in INSTANCES.glob("*.json")))
def test_census_equals_the_reference_census(name):
    # the walk's census against the walls evaluated over the element ball, at
    # the census's default exploration bound
    omega = load_instance(INSTANCES / f"{name}.json").omega
    bound = 2 * (omega.support_level_radius() + 1) * omega.group.rs.coxeter_number
    walls, first = reference_census(omega, bound)
    dec = enumerate_clans(omega)
    assert dec.walls == walls
    assert dec.clans == sorted(first)
    assert dec.generic == {s: strictly_feasible_cone(omega, walls, s) for s in first}
    assert dec.representative == first


def test_census_evaluates_no_point(monkeypatch):
    # the census reads signs off the walked wall images: no alcove point is
    # built and no wall is evaluated
    calls = {"act_point": 0, "evaluate": 0}

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counted(AffineWeylGroup, "act_point")
    counted(AffineRootSystem, "evaluate")
    dec = enumerate_clans(a2_omega())
    assert dec.clan_count() == 7
    assert calls == {"act_point": 0, "evaluate": 0}
