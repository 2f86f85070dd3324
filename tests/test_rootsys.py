"""Root system construction, reflections, affinisation."""
from fractions import Fraction

import pytest

from qdha.rootsys import AffineRoot, FiniteRootSystem, affinise, build_finite, vec
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


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def gauss_jordan_solve(rows, rhs):
    """The solution of a square nonsingular rational system."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    return [row[n] for row in m]


def ambient_simple_roots(label):
    """The simple roots ``build_finite`` realizes ``label`` by."""
    if label.startswith("A"):
        n = int(label[1:])
        return [tuple(Fraction(int(k == i) - int(k == i + 1)) for k in range(n + 1))
                for i in range(n)]
    return [vec(v) for v in {"B2": [(1, -1), (0, 1)], "C2": [(1, -1), (0, 2)],
                             "G2": [(1, -1, 0), (-2, 1, 1)]}[label]]


def reference_tables(simple):
    """The ambient ``Fraction`` builder: close the simple roots under all their
    reflections, solve for each root's simple-root coordinates, and fill every
    table from the scalar product of the ambient space."""
    gram = [[dot(a, b) for b in simple] for a in simple]
    r = range(len(simple))

    def to_key(v):
        coords = gauss_jordan_solve(gram, [dot(a, v) for a in simple])
        assert all(c.denominator == 1 for c in coords)
        return tuple(int(c) for c in coords)

    def inner(a, b):
        return sum((a[i] * b[j] * gram[i][j] for i in r for j in r), Fraction(0))

    roots = sorted(to_key(v) for v in brute_force_closure(simple))
    positive = [a for a in roots if all(c >= 0 for c in a)]
    highest = max(positive, key=sum)
    assert all(t >= c for a in roots for t, c in zip(highest, a))
    pairing = {(a, b): 2 * inner(a, b) / inner(b, b) for a in roots for b in roots}
    return {
        "roots": tuple(roots),
        "positive_roots": tuple(positive),
        "highest_root": highest,
        "coxeter_number": sum(highest) + 1,
        "norm2": {a: inner(a, a) for a in roots},
        "pairing": pairing,
        "coroot": {a: tuple(a[i] * gram[i][i] / inner(a, a) for i in r) for a in roots},
        "reflect": {(by, a): tuple(x - pairing[(a, by)] * y for x, y in zip(a, by))
                    for by in roots for a in roots},
    }


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "B2", "C2", "G2"])
def test_tables_match_the_ambient_fraction_builder(label):
    rs = build_finite(label)
    ref = reference_tables(ambient_simple_roots(label))
    assert rs.roots == ref["roots"]
    assert rs.positive_roots == ref["positive_roots"]
    assert rs.highest_root == ref["highest_root"]
    assert rs.coxeter_number == ref["coxeter_number"]
    assert {a: rs.norm2(a) for a in rs.roots} == ref["norm2"]
    assert {a: rs.coroot_coords(a) for a in rs.roots} == ref["coroot"]
    assert {(a, b): rs.pair_root_coroot(a, b) for a in rs.roots for b in rs.roots} == ref["pairing"]
    assert {(by, a): rs.reflect_root(by, a) for by in rs.roots for a in rs.roots} == ref["reflect"]
    # <a, x> at a rational point x, and <alpha_j, varpi_i^vee> = delta_ij
    simple = [rs.simple_root(i) for i in range(rs.rank)]
    x = [Fraction(1, k + 2) for k in range(rs.rank)]
    for a in rs.roots:
        assert rs.pair_root_point(a, x) == sum(xi * ref["pairing"][(a, s)] for xi, s in zip(x, simple))
    for i, coweight in enumerate(rs.fundamental_coweights):
        for j, s in enumerate(simple):
            assert sum(c * ref["pairing"][(s, t)] for c, t in zip(coweight, simple)) == int(i == j)


@pytest.mark.parametrize("label,nroots,highest,coxeter", [
    ("A1", 2, (1,), 2),
    ("A2", 6, (1, 1), 3),
    ("A3", 12, (1, 1, 1), 4),
    ("A4", 20, (1, 1, 1, 1), 5),
    ("A5", 30, (1, 1, 1, 1, 1), 6),
    ("A6", 42, (1, 1, 1, 1, 1, 1), 7),
    ("B2", 8, (1, 2), 4),
    ("C2", 8, (2, 1), 4),
    ("G2", 12, (3, 2), 6),
])
def test_classification_facts(label, nroots, highest, coxeter):
    # A_n has n(n+1) roots and h = n + 1; |R| = h * rank for every irreducible system
    rs = build_finite(label)
    assert len(rs.roots) == nroots == coxeter * rs.rank
    assert len(rs.positive_roots) == nroots // 2
    assert rs.highest_root == highest
    assert rs.coxeter_number == coxeter


@pytest.fixture
def no_closure(monkeypatch):
    """Fail the test if the construction reaches the closure, which seeds its
    queue with the simple roots."""
    def closure_started(self, i):
        raise AssertionError("the closure started")
    monkeypatch.setattr(FiniteRootSystem, "simple_root", closure_started)


def test_non_crystallographic_basis_rejected_before_the_closure(no_closure):
    # <alpha_0, alpha_1^vee> = 2 (-1/2) / (5/4); its closure would never end
    with pytest.raises(ValueError, match=r"<alpha_0, alpha_1\^vee> = -4/5 is not an integer"):
        FiniteRootSystem("X", [vec((1, 0)), vec((Fraction(-1, 2), 1))])


def test_linearly_dependent_basis_rejected_before_the_closure(no_closure):
    # the Cartan matrix of the affine A1: integral, but its reflections generate
    # an infinite group
    with pytest.raises(ValueError, match="singular"):
        FiniteRootSystem("X", [vec((1, 0)), vec((-1, 0))])


def test_reducible_system_rejected():
    with pytest.raises(ValueError, match="not irreducible"):
        FiniteRootSystem("A1xA1", [vec((1, 0)), vec((0, 1))])


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


def reflect(W, a, b):
    """s_a(b) for affine roots a, b: the reflection in a, as a group element, acting on b."""
    return W.act_root(W.reflection_of(a), b)


def delta_coordinates(ars, a):
    """The coordinates of a in the affine basis, a_0 first."""
    theta = ars.finite.highest_root
    return (a.level,) + tuple(ai + a.level * ti for ai, ti in zip(a.alpha, theta))


def test_affine_reflection_examples():
    W = AffineWeylGroup(affinise("A2"))
    a1 = AffineRoot(W.rs.simple_root(0), 0)
    a2 = AffineRoot(W.rs.simple_root(1), 0)
    # self-reflection negates
    assert reflect(W, a1, a1) == AffineRoot((-1, 0), 0)
    # s_{alpha1}(alpha2) = alpha1 + alpha2
    assert reflect(W, a1, a2) == AffineRoot((1, 1), 0)
    # s_b(a) = a - <a, b^vee> b also for levels: s_{alpha1 + 1}(alpha2) = alpha1 + alpha2 + 1
    assert reflect(W, AffineRoot(W.rs.simple_root(0), 1), a2) == AffineRoot((1, 1), 1)


def test_affine_reflection_orthogonal_fixed():
    W = AffineWeylGroup(affinise("A3"))
    a = AffineRoot(W.rs.simple_root(0), 0)
    b = AffineRoot(W.rs.simple_root(2), 5)
    assert W.rs.pair_root_coroot(b.alpha, a.alpha) == 0
    assert reflect(W, a, b) == b


def test_affine_reflection_involution_window():
    W = AffineWeylGroup(affinise("B2"))
    window = W.ars.window(2)
    for a in window:
        for b in window:
            assert reflect(W, a, reflect(W, a, b)) == b


def test_differential_forgets_level_and_a0():
    ars = affinise("C2")
    theta = ars.finite.highest_root
    assert ars.a0.alpha == tuple(-c for c in theta)
    assert ars.a0.level == 1


def test_differential_intertwines_reflections():
    W = AffineWeylGroup(affinise("A2"))
    for a in W.ars.window(1):
        for b in W.ars.window(1):
            assert reflect(W, a, b).alpha == W.rs.reflect_root(a.alpha, b.alpha)


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
            coords = delta_coordinates(ars, a)
            assert all(c.denominator == 1 and c >= 0 for c in coords)


def test_positive_window_a2_count():
    ars = affinise("A2")
    # 3 level-zero positives plus 6 roots at level one
    assert len(ars.positive_window(1)) == 9


def test_a0_data():
    ars = affinise("A2")
    assert delta_coordinates(ars, ars.a0) == (1, 0, 0)
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
