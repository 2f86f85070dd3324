"""Root system construction, reflections, affinisation."""
from fractions import Fraction

import pytest

from qdha.rootsys import AffineRoot, affinise, build_finite
from qdha.weyl import AffineWeylGroup


def brute_force_closure(simple):
    """Independent oracle: close a set of ambient vectors under its own reflections."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    roots = set(simple) | {tuple(-c for c in v) for v in simple}
    changed = True
    while changed:
        changed = False
        for a in list(roots):
            for b in list(roots):
                coef = Fraction(2 * dot(a, b), dot(a, a))
                img = tuple(x - coef * y for x, y in zip(b, a))
                if img not in roots:
                    roots.add(img)
                    changed = True
    return roots


def test_a1_counts():
    rs = build_finite("A1")
    assert len(rs.roots) == 2
    assert len(rs.positive_roots) == 1
    assert rs.highest_root == (1,)


def test_a2_counts_against_closure_oracle():
    rs = build_finite("A2")
    oracle = brute_force_closure([
        (Fraction(1), Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(-1)),
    ])
    assert len(rs.positive_roots) == 3
    assert len(rs.roots) == len(oracle) == 6
    assert rs.highest_root == (1, 1)


def test_g2_counts_against_closure_oracle():
    rs = build_finite("G2")
    oracle = brute_force_closure([
        (Fraction(1), Fraction(-1), Fraction(0)),
        (Fraction(-2), Fraction(1), Fraction(1)),
    ])
    assert len(rs.positive_roots) == 6
    assert len(oracle) == 12
    assert rs.highest_root == (3, 2)


@pytest.mark.parametrize("label,npos", [("A1", 1), ("A2", 3), ("B2", 4), ("C2", 4), ("G2", 6)])
def test_positive_root_counts(label, npos):
    assert len(build_finite(label).positive_roots) == npos


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        build_finite("E8")
    with pytest.raises(ValueError):
        build_finite("A0")


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "G2"])
def test_cartan_integrality_and_reflection_closure(label):
    rs = build_finite(label)
    for a in rs.roots:
        for b in rs.roots:
            assert rs.pair_root_coroot(a, b).denominator == 1
            assert rs.is_root(rs.reflect_root(b, a))


def test_highest_root_dominance():
    for label in ["A2", "B2", "C2", "G2"]:
        rs = build_finite(label)
        theta = rs.highest_root
        for a in rs.roots:
            assert all(t - c >= 0 for t, c in zip(theta, a))


def test_affine_reflection_examples():
    ars = affinise("A2")
    a1 = AffineRoot(ars.finite.simple_root(0), 0)
    a2 = AffineRoot(ars.finite.simple_root(1), 0)
    # self-reflection negates
    assert ars.reflect(a1, a1) == AffineRoot((-1, 0), 0)
    # s_{alpha1}(alpha2) = alpha1 + alpha2
    assert ars.reflect(a1, a2) == AffineRoot((1, 1), 0)


def test_affine_reflection_orthogonal_fixed():
    ars = affinise("A3")
    a = AffineRoot(ars.finite.simple_root(0), 0)
    b = AffineRoot(ars.finite.simple_root(2), 5)
    assert ars.finite.pair_root_coroot(b.alpha, a.alpha) == 0
    assert ars.reflect(a, b) == b


def test_affine_reflection_involution_window():
    ars = affinise("B2")
    window = ars.window(2)
    for a in window:
        for b in window:
            assert ars.reflect(a, ars.reflect(a, b)) == b


def test_differential_forgets_level_and_a0():
    ars = affinise("C2")
    theta = ars.finite.highest_root
    assert ars.differential(ars.a0) == tuple(-c for c in theta)
    assert ars.a0.level == 1
    a = AffineRoot(ars.finite.simple_root(1), 3)
    assert ars.differential(a) == ars.finite.simple_root(1)


def test_differential_intertwines_reflections():
    ars = affinise("A2")
    rs = ars.finite
    for a in ars.window(1):
        for b in ars.window(1):
            img = ars.reflect(a, b)
            assert ars.differential(img) == rs.reflect_root(a.alpha, b.alpha)


def test_positive_window_a1():
    ars = affinise("A1")
    assert ars.positive_window(0) == [AffineRoot((1,), 0)]
    w1 = ars.positive_window(1)
    assert AffineRoot((1,), 0) in w1 and AffineRoot((-1,), 1) in w1 and AffineRoot((1,), 1) in w1
    assert len(w1) == 3


def test_positive_window_ndelta_membership():
    for label in ["A1", "A2"]:
        ars = affinise(label)
        for a in ars.positive_window(2):
            coords = ars.delta_coordinates(a)
            assert all(c.denominator == 1 and c >= 0 for c in coords)


def test_positive_window_a2_count():
    ars = affinise("A2")
    # 3 level-zero positives plus 6 roots at level one
    assert len(ars.positive_window(1)) == 9


def test_a0_data():
    ars = affinise("A2")
    assert ars.delta_coordinates(ars.a0) == (Fraction(1), Fraction(0), Fraction(0))
    assert ars.is_positive(ars.a0)
    assert not ars.is_positive(AffineRoot(ars.finite.highest_root, -1))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "C2", "G2"])
def test_reduced_and_simple_translations_integral(label):
    # every system is reduced, so no affine root needs a parity rule and
    # the integer alcove walk needs no denominator of its own
    W = AffineWeylGroup(affinise(label))
    rs = W.rs
    assert not any(rs.is_root(tuple(2 * c for c in a)) for a in rs.roots)
    for i in range(rs.rank + 1):
        assert all(c.denominator == 1 for c in W.simple_reflection(i).mu)
