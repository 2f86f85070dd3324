"""Affine Weyl group: composition, lengths, words, cosets, orbits."""
from fractions import Fraction
from pathlib import Path

import pytest

from qdha.instances import load_instance
from qdha.rootsys import affinise, vec
from qdha.weyl import AffineWeylGroup
from test_tables import fraction_act_point, over, torus_grid

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
INSTANCE_NAMES = ["a1_quarter", "a1_ddaha_half", "a2_generic", "a2_wall", "a3_generic",
                  "c2_generic", "g2_generic"]


def group(label):
    return AffineWeylGroup(affinise(label))


def element_ball(W, n):
    """``{g: l(g)}`` for l(g) <= n, by breadth-first search on the elements
    themselves: ``compose`` and a seen set.  An unseen ``s_i g`` one layer out
    has length ``l(g) + 1``, since ``s_i g`` of length ``l(g) - 1`` was seen."""
    seen = {W.identity: 0}
    frontier = [W.identity]
    for k in range(1, n + 1):
        nxt = []
        for g in frontier:
            for i in range(len(W.ars.delta)):
                h = W.compose(W.simple_reflection(i), g)
                if h not in seen:
                    seen[h] = k
                    nxt.append(h)
        frontier = nxt
    return seen


def test_compose_identity_and_translations():
    W = group("A2")
    g = W.compose(W.simple_reflection(0), W.simple_reflection(2))
    assert W.compose(W.identity, g) == g
    t1 = W.translation((1, 0))
    t2 = W.translation((2, -1))
    assert W.compose(t1, t2) == W.translation((3, -1))


def test_compose_semidirect_rule_on_window_roots():
    # w X^mu = X^{w mu} w, checked through the action on affine roots
    W = group("A2")
    mu = vec((1, -2))
    w = W.from_finite(W.finite.from_word((0, 1)))
    lhs = W.compose(w, W.translation(mu))
    rhs = W.compose(W.translation(W.finite.act_point(w.w, mu)), w)
    assert lhs == rhs
    for a in W.ars.window(2):
        assert W.act_root(lhs, a) == W.act_root(rhs, a)


def test_length_identity_and_simple():
    for label in ["A1", "A2", "C2"]:
        W = group(label)
        assert W.length_inversions(W.identity) == 0
        assert W.length_formula(W.identity) == 0
        for i in range(len(W.ars.delta)):
            s = W.simple_reflection(i)
            assert W.length_inversions(s) == 1
            assert W.length_formula(s) == 1


def test_length_translation_a1():
    W = group("A1")
    g = W.translation((1,))  # X^{alpha^vee}
    assert W.length_inversions(g) == 2
    assert W.length_formula(g) == 2


def test_length_dominant_translation_formula():
    # l(X^mu) = sum_{alpha > 0} <alpha, mu> for dominant mu
    W = group("C2")
    rs = W.rs
    mu = vec((2, 3))
    assert all(rs.pair_root_point(rs.simple_root(i), mu) > 0 for i in range(2))
    expected = sum(rs.pair_root_point(a, mu) for a in rs.positive_roots)
    assert W.length_formula(W.translation(mu)) == expected


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_length_formula_equals_inversions_on_ball(label):
    W = group(label)
    found = W.walk(W.alcove_point, 4)
    for g, (layer, _, _) in zip(W.ball(4), found.values(), strict=True):
        assert W.length_formula(g) == W.length_inversions(g)
        assert layer == W.length_formula(g)


def length_wx(W, g):
    """The length of ``g = X^mu w`` written as ``w X^nu`` with ``nu = w^-1 mu``:
    ``sum_{a > 0} |<a, nu> + [w a < 0]|``."""
    fin, rs = W.finite, W.rs
    nu = fin.act_point(fin.inverse(g.w), g.mu)
    return sum(abs(rs.pair_root_point(a, nu) + (not rs.is_positive_root(fin.act_root(g.w, a))))
               for a in rs.positive_roots)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "G2"])
def test_length_formula_in_both_factorisations(label):
    W = group(label)
    for g in W.ball(6):
        assert all(type(c) is int for c in g.mu)
        assert W.length_formula(g) == length_wx(W, g)


def test_translation_off_the_coroot_lattice_raises():
    W = group("A2")
    assert W.translation((Fraction(2), 0)).mu == (2, 0)
    with pytest.raises(ValueError, match="not in the coroot lattice"):
        W.translation((Fraction(1, 2), 0))


@pytest.mark.parametrize("label,bound", [("A1", 14), ("A2", 12), ("A3", 9), ("A4", 7),
                                         ("B2", 12), ("C2", 12), ("G2", 14)])
def test_ball_is_the_element_search(label, bound):
    # the walk from the alcove point against the search on elements: same
    # elements, in the same order
    W = group(label)
    assert W.ball(bound) == list(element_ball(W, bound))


def test_length_formula_equals_inversions_random_a2():
    import random

    rng = random.Random(20240811)
    W = group("A2")
    ball = W.ball(8)
    sample = rng.sample(ball, min(200, len(ball)))
    for g in sample:
        assert W.length_formula(g) == W.length_inversions(g)


def test_reduced_word_roundtrip_and_length():
    for label in ["A1", "A2", "C2"]:
        W = group(label)
        for g in W.ball(5):
            word = W.reduced_word(g)
            assert len(word) == W.length_formula(g)
            assert W.from_word(word) == g


def test_reduced_word_examples():
    W = group("A1")
    assert W.reduced_word(W.identity) == ()
    assert W.reduced_word(W.simple_reflection(0)) == (0,)
    g = W.translation((-1,))  # X^{-alpha^vee}
    assert W.reduced_word(g) == (1, 0)
    assert W.length_formula(g) == 2


def test_subadditivity_of_length():
    import random

    rng = random.Random(7)
    W = group("A2")
    ball = W.ball(4)
    for _ in range(100):
        u, v = rng.choice(ball), rng.choice(ball)
        lu, lv = W.length_formula(u), W.length_formula(v)
        luv = W.length_formula(W.compose(u, v))
        assert luv <= lu + lv
        # lengths add exactly when N(u) and N(v^{-1}) are disjoint
        disjoint = not (set(W.inversion_set(u)) & set(W.inversion_set(W.inverse(v))))
        assert (luv == lu + lv) == disjoint


def test_min_coset_rep_is_unique_minimum_of_coset():
    # every coset X^mu W_R has exactly one element of least length
    W = group("A2")
    for mu in [(1, 0), (-1, -1), (2, -1)]:
        lengths = [W.length_formula(W.compose(W.translation(mu), W.from_finite(w)))
                   for w in W.finite.elements]
        assert lengths.count(min(lengths)) == 1


def test_stabilizer_a1_quarter_is_trivial():
    W = group("A1")
    gens, elements = W.stabilizer((1,), 4)  # 1/4
    assert gens == []
    assert elements == [W.identity]


def test_stabilizer_origin_is_finite_weyl():
    W = group("A2")
    gens, elements = W.stabilizer((0, 0), 1)
    assert len(elements) == 6
    assert all(g.mu == (0, 0) for g in elements)


def test_stabilizer_single_wall():
    W = group("A2")
    # <alpha_1, lam> = 0 exactly: coroot coordinates (1/7, 2/7), keyed (1, 2) over 7
    lam = (1, 2)
    gens, elements = W.stabilizer(lam, 7)
    assert len(elements) == 2
    for g in elements:
        assert W.act_point(g, lam, 7) == lam


def test_orbit_window_examples():
    W = group("A1")
    lam0 = vec((Fraction(1, 4),))
    w0 = W.orbit_window(lam0, 0)
    assert set(w0) == {(1,)}  # keys over 4
    w2 = W.orbit_window(lam0, 2)
    got = {Fraction(pt[0], 4) for pt in w2}
    assert got == {Fraction(1, 4), Fraction(-1, 4), Fraction(3, 4), Fraction(-3, 4), Fraction(5, 4)}
    for pt, wit in w2.items():
        assert W.act_point(wit, (1,), 4) == pt


def test_orbit_window_size_trivial_stabilizer():
    W = group("A2")
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    assert W.stabilizer(over(lam0).key(lam0), 35)[1] == [W.identity]
    ball = W.ball(4)
    window = W.orbit_window(lam0, 4)
    assert len(window) == len(ball)


def test_witness_and_fundamental_domain():
    W = group("A2")
    x0 = (7, 5)  # (1/5, 1/7) over 35
    walk0 = W.to_fundamental_domain(x0, 35)
    for g in W.ball(3):
        lam = W.act_point(g, x0, 35)
        wit = W.witness_from(lam, 35, walk0)
        assert wit is not None
        assert W.act_point(wit, x0, 35) == lam
    assert W.witness_from((0, 0), 35, walk0) is None  # the origin


# ----- the orbit walk against the search on elements -----

def ball_reach(W, lam0, ball):
    """``{g lam0: least l(g)}`` over a list of ``(g, l(g))``."""
    out = {}
    for g, n in ball:
        pt = fraction_act_point(W, g, lam0)
        out[pt] = min(out.get(pt, n), n)
    return out


def orbit_reach(W, lam0, n):
    """``{w lam0: least l(w)}`` for l(w) <= n, read off the points and layers of ``walk``."""
    point = over(lam0)
    return {point(x): k for (x, _), (k, _, _) in W.walk(lam0, n).items()}


def instance_bound(name):
    return 8 if name.startswith("a3") else 12


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_orbit_reach_against_the_ball_on_instance_files(name):
    spec = load_instance(INSTANCES / f"{name}.json")
    W, lam0, bound = spec.group, spec.omega.base_point, instance_bound(name)
    reference = ball_reach(W, lam0, [(g, W.length(g)) for g in element_ball(W, bound)])
    for n in (0, 1, 2, bound // 2, bound):
        assert orbit_reach(W, lam0, n) == {pt: k for pt, k in reference.items() if k <= n}


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
def test_orbit_reach_against_the_ball_on_torus_points(label):
    # the grid holds the origin and points on one or two walls, with
    # stabilizers of every size, as well as generic points
    W = group(label)
    ball = [(g, W.length(g)) for g in element_ball(W, 12)]
    for lam0 in torus_grid(W.rank, 4):
        assert orbit_reach(W, lam0, 12) == ball_reach(W, lam0, ball)


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_orbit_window_witnesses_have_the_least_length(name):
    spec = load_instance(INSTANCES / f"{name}.json")
    W, lam0, bound = spec.group, spec.omega.base_point, instance_bound(name)
    reach = orbit_reach(W, lam0, bound)
    window = W.orbit_window(lam0, bound)
    point = spec.omega.over
    assert {point(x) for x in window} == reach.keys()
    for x, wit in window.items():
        assert W.act_point(wit, spec.omega.base_key, point.den) == x
        assert W.length(wit) == reach[point(x)]


@pytest.mark.parametrize("name", ["a1_quarter", "a2_wall", "c2_generic", "g2_generic"])
def test_walk_states_are_the_images_of_the_ball(name):
    # every state (g lam0, g roots) with l(g) <= n, each at its least length
    spec = load_instance(INSTANCES / f"{name}.json")
    W, lam0 = spec.group, spec.omega.base_point
    roots = W.ars.window(1)
    index = {key: i for i, key in enumerate(W.rs.roots)}
    found = W.walk(lam0, 8, roots)
    point = over(lam0)
    expected = {}
    for g in element_ball(W, 8):
        state = (fraction_act_point(W, g, lam0),
                 tuple((index[b.alpha], b.level) for b in (W.act_root(g, a) for a in roots)))
        expected[state] = min(expected.get(state, 8), W.length(g))
    assert {(point(x), images): n for (x, images), (n, _, _) in found.items()} == expected


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "G2"])
def test_act_point_on_keys_against_fraction_points(label):
    # act_point works on integer numerators over D; it must agree with
    # w x + mu on the Fraction points they stand for
    W = group(label)
    lam0 = vec(Fraction(1, p) for p in (5, 7, 11)[:W.rank])
    point = over(lam0)
    window = W.orbit_window(lam0, 3)
    ball = W.ball(2)
    for x, wit in window.items():
        assert W.act_point(wit, point.key(lam0), point.den) == x
        assert fraction_act_point(W, wit, lam0) == point(x)
        for g in ball:
            y = W.act_point(g, x, point.den)
            assert all(type(c) is int for c in y)
            assert point(y) == fraction_act_point(W, g, point(x))
