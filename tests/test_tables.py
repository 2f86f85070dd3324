"""Frozen root-system and Weyl tables against independent computations."""
import itertools
import random
from fractions import Fraction

import pytest

from qdha.bqha import BAlgebra
from qdha.orderfun import BOrderFunction, TorusOrbit, torus_point
from qdha.polyring import Poly, demazure
from qdha.rootsys import affinise, build_finite, vec
from qdha.weyl import AffineWeylGroup

LABELS = ["A1", "A2", "A3", "B2", "C2", "G2"]


def gram_inner(rs, a, b):
    return sum((Fraction(a[i] * b[j]) * rs.gram[i][j]
                for i in range(rs.rank) for j in range(rs.rank)), Fraction(0))


def reference_reflect_point(rs, key, x):
    """s_key(x) = x - <key, x> key^vee, every pairing from the Gram matrix."""
    n2 = gram_inner(rs, key, key)
    simple = [rs.simple_root(i) for i in range(rs.rank)]
    pairing = sum((x[i] * 2 * gram_inner(rs, key, s) / gram_inner(rs, s, s)
                   for i, s in enumerate(simple)), Fraction(0))
    coroot = [Fraction(key[i]) * rs.gram[i][i] / n2 for i in range(rs.rank)]
    return tuple(xi - pairing * ci for xi, ci in zip(x, coroot))


def shortlex_words(fin):
    """Length and lexicographically least reduced word of every element, by brute force."""
    found = {}
    length = 0
    while len(found) < len(fin.elements):
        for word in itertools.product(range(fin.rank), repeat=length):
            found.setdefault(fin.from_word(word), word)
        length += 1
    return found


def stepwise_fundamental_domain(W, lam):
    """The alcove walk one affine simple reflection at a time, composing as it goes."""
    g = W.identity
    cur = vec(lam)
    while True:
        i = next((i for i, a in enumerate(W.ars.delta) if W.ars.evaluate(a, cur) < 0), None)
        if i is None:
            return cur, g
        s = W.simple_reflection(i)
        cur = W.act_point(s, cur)
        g = W.compose(s, g)


@pytest.mark.parametrize("label", LABELS)
def test_root_tables_against_gram(label):
    rs = build_finite(label)
    for a in rs.roots:
        n2 = gram_inner(rs, a, a)
        assert rs.norm2(a) == n2
        assert rs.coroot_coords(a) == tuple(Fraction(a[i]) * rs.gram[i][i] / n2 for i in range(rs.rank))
        for b in rs.roots:
            pairing = 2 * gram_inner(rs, a, b) / gram_inner(rs, b, b)
            assert type(rs.pair_root_coroot(a, b)) is int
            assert rs.pair_root_coroot(a, b) == pairing
            assert rs.reflect_root(b, a) == tuple(ai - int(pairing) * bi for ai, bi in zip(a, b))


@pytest.mark.parametrize("label", LABELS)
def test_pair_root_point_against_gram(label):
    rs = build_finite(label)
    rng = random.Random(label)
    for _ in range(20):
        x = vec(Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rs.rank))
        for a in rs.roots:
            expected = sum((x[i] * 2 * gram_inner(rs, a, rs.simple_root(i))
                            / gram_inner(rs, rs.simple_root(i), rs.simple_root(i))
                            for i in range(rs.rank)), Fraction(0))
            assert rs.pair_root_point(a, x) == expected


@pytest.mark.parametrize("label", LABELS)
def test_reflection_permutations(label):
    W = AffineWeylGroup(affinise(label))
    rs, fin = W.rs, W.finite
    for a in rs.roots:
        perm = fin.reflection(a)
        for i, b in enumerate(rs.roots):
            coef = 2 * gram_inner(rs, a, b) / gram_inner(rs, a, a)
            assert rs.roots[perm[i]] == tuple(bi - coef * ai for ai, bi in zip(a, b))
    assert fin.simple == [fin.reflection(rs.simple_root(i)) for i in range(rs.rank)]


@pytest.mark.parametrize("label", LABELS)
def test_inverse_length_and_words(label):
    fin = AffineWeylGroup(affinise(label)).finite
    rs = fin.rs
    words = shortlex_words(fin)
    assert set(words) == set(fin.elements)
    for w in fin.elements:
        winv = fin.inverse(w)
        assert fin.compose(w, winv) == fin.identity == fin.compose(winv, w)
        assert fin.length(w) == len(words[w])
        assert fin.length(w) == sum(
            1 for a in rs.positive_roots if not rs.is_positive_root(fin.act_root(w, a))
        )
        assert fin.word(w) == words[w]
    assert list(fin.shortlex) == sorted(fin.elements, key=lambda w: (len(words[w]), words[w]))
    assert fin.longest_element() == fin.shortlex[-1]


@pytest.mark.parametrize("label", LABELS)
def test_integer_point_matrices_against_fraction_action(label):
    fin = AffineWeylGroup(affinise(label)).finite
    rs = fin.rs
    rng = random.Random(label)
    points = [vec(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    points += [vec(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(rs.rank))
               for _ in range(5)]
    for w in fin.elements:
        for x in points:
            expected = x
            for letter in reversed(fin.word(w)):
                expected = reference_reflect_point(rs, rs.simple_root(letter), expected)
            got = fin.act_point(w, x)
            assert got == expected
            assert all(type(c) is Fraction for c in got)


def old_coset_representatives(group, base_point):
    """The sort over all of W that the coset table replaces."""
    fin = group.finite
    base = torus_point(vec(base_point))
    chosen = {}
    for w in sorted(fin.elements, key=lambda w: (fin.length(w), fin.word(w))):
        pt = torus_point(fin.act_point(w, base))
        if pt not in chosen:
            chosen[pt] = w
    return {pt: chosen[pt] for pt in sorted(chosen)}


def sample_points(rank, rng, count):
    dens = [1, 2, 3, 4, 5, 6, 7, 12]
    return [vec(Fraction(rng.randint(-40, 40), rng.choice(dens)) for _ in range(rank))
            for _ in range(count)]


WALL_POINTS = {
    "A1": [(Fraction(1, 2),), (0,), (Fraction(3, 4),)],
    "A2": [(Fraction(1, 7), Fraction(2, 7)), (0, 0), (Fraction(1, 3), Fraction(2, 3)),
           (Fraction(1, 2), 0)],
    "A3": [(Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)), (0, 0, 0),
           (Fraction(1, 2), 1, Fraction(1, 2))],
    "B2": [(Fraction(1, 2), Fraction(1, 2)), (0, 0), (Fraction(1, 4), Fraction(1, 2))],
    "C2": [(Fraction(1, 2), Fraction(1, 2)), (0, 0), (Fraction(1, 3), Fraction(1, 3))],
    "G2": [(Fraction(1, 3), Fraction(1, 2)), (0, 0), (Fraction(1, 6), Fraction(1, 2))],
}


@pytest.mark.parametrize("label", LABELS)
def test_coset_table_against_sort(label):
    W = AffineWeylGroup(affinise(label))
    rng = random.Random(label)
    for base in [vec(p) for p in WALL_POINTS[label]] + sample_points(W.rank, rng, 4):
        expected = old_coset_representatives(W, base)
        assert TorusOrbit(W, base).cosets == expected
        assert list(TorusOrbit(W, base).cosets) == list(expected)


def old_torus_orbit(group, base):
    """The breadth-first search over simple reflections that the orbit table replaces."""
    seen = {torus_point(vec(base))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for pt in frontier:
            for s in group.finite.simple:
                img = torus_point(group.finite.act_point(s, pt))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return sorted(seen)


def reflection_closure(fin, roots):
    """The subgroup of W generated by the reflections in the given roots."""
    gens = [fin.reflection(a) for a in roots]
    elems = {fin.identity}
    frontier = [fin.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = fin.compose(s, g)
                if h not in elems:
                    elems.add(h)
                    nxt.append(h)
        frontier = nxt
    return elems


@pytest.mark.parametrize("label", LABELS)
def test_torus_orbit_table_against_direct_action(label):
    W = AffineWeylGroup(affinise(label))
    fin = W.finite
    rng = random.Random(label)
    for base in [vec(p) for p in WALL_POINTS[label]] + sample_points(W.rank, rng, 4):
        orbit = TorusOrbit(W, base)
        assert list(orbit.points) == old_torus_orbit(W, base)
        assert list(orbit.cosets) == list(orbit.lifts) == list(orbit.points)
        for ell, w in orbit.cosets.items():
            assert orbit.lifts[ell] == fin.act_point(w, base)
            assert torus_point(orbit.lifts[ell]) == ell
        for w in fin.elements:
            for ell in orbit.points:
                assert orbit.act(w, ell) == torus_point(fin.act_point(w, ell))


def torus_grid(rank, max_den):
    """Every point of [0, 1)^rank whose coordinates have denominators <= max_den."""
    coords = sorted({Fraction(k, d) for d in range(1, max_den + 1) for k in range(d)})
    return [vec(p) for p in itertools.product(coords, repeat=rank)]


@pytest.mark.parametrize("label,max_den", [("A1", 6), ("A2", 6), ("B2", 6), ("C2", 6),
                                           ("G2", 6), ("A3", 3)])
def test_torus_stabilizer_generated_by_reflections(label, max_den):
    # E modulo the coroot lattice is the torus of the simply connected group,
    # where a point stabilizer is generated by the reflections fixing it
    W = AffineWeylGroup(affinise(label))
    fin, rs = W.finite, W.rs
    for ell in torus_grid(W.rank, max_den):
        orbit = TorusOrbit(W, ell)
        table = {w for w in fin.elements if orbit.act(w, ell) == ell}
        roots = [a for a in rs.positive_roots if rs.pair_root_point(a, ell).denominator == 1]
        assert table == reflection_closure(fin, roots)
        assert len(orbit.points) * len(table) == len(fin.elements)


def stabilizer_longest_words(fin, rs, table, roots):
    """Two reduced words of the stabilizer's longest element in its simple
    roots, walking down by the first and by the last left descent."""
    pset = set(roots)
    simple = sorted(a for a in roots
                    if not any(tuple(x - y for x, y in zip(a, b)) in pset for b in roots if b != a))
    w0 = next(w for w in table if not any(rs.is_positive_root(fin.act_root(w, b)) for b in roots))
    words = []
    for pick in (0, -1):
        word, cur = [], w0
        while cur != fin.identity:
            a = [a for a in simple if not rs.is_positive_root(fin.act_root(fin.inverse(cur), a))][pick]
            word.append(a)
            cur = fin.compose(fin.reflection(a), cur)
        words.append(word)
    return words


@pytest.mark.parametrize("label,max_den", [("A1", 6), ("A2", 6), ("B2", 6), ("C2", 6),
                                           ("G2", 6), ("A3", 3)])
def test_coefficient_trace_matches_demazure_words(label, max_den):
    # the closed signed sum against the composition of divided differences
    # along reduced words of the stabilizer's longest element, pulled back
    # along the orbit representative; at the base and at the last orbit point
    W = AffineWeylGroup(affinise(label))
    fin, rs = W.finite, W.rs
    rng = random.Random(label)
    for base in torus_grid(W.rank, max_den):
        B = BAlgebra(BOrderFunction(W, base, {}))
        for ell in dict.fromkeys((base, B.orbit[-1])):
            table = {w for w in fin.elements if B.act_ell(w, ell) == ell}
            roots = [a for a in rs.positive_roots if rs.pair_root_point(a, ell).denominator == 1]
            words = stabilizer_longest_words(fin, rs, table, roots)
            f = Poly(W.rank, {tuple(rng.randrange(4) for _ in range(W.rank)): Fraction(rng.randrange(-5, 6))
                              for _ in range(3)})
            pull = fin.inverse(B.torus.cosets[ell])
            for word in words:
                # reduced: one letter per root that w0 inverts
                assert len(word) == len(roots)
                out = f
                for a in word:
                    out = demazure(out, B.root_poly(a), B.act_poly(fin.reflection(a), out))
                assert B.coefficient_trace(ell, f) == B.act_poly(pull, out)


def test_finite_quotient_rejects_points_outside_the_orbit():
    W = AffineWeylGroup(affinise("A2"))
    lam0 = vec((Fraction(1, 5), Fraction(1, 7)))
    B = BAlgebra(BOrderFunction(W, lam0, {}))
    one = Poly.const(2, 1)
    assert B.poly_mult(one, vec((Fraction(6, 5), Fraction(-6, 7)))).entries
    for outside in [vec((Fraction(1, 2), 0)), vec((Fraction(1, 7), Fraction(1, 5)))]:
        with pytest.raises(ValueError, match="not in the torus orbit"):
            B.poly_mult(one, outside)
        with pytest.raises(ValueError, match="not in the torus orbit"):
            B.torus.act(W.finite.identity, outside)


@pytest.mark.parametrize("label", LABELS)
def test_integer_alcove_walk_against_stepwise(label):
    W = AffineWeylGroup(affinise(label))
    rng = random.Random(label)
    for lam in [vec(p) for p in WALL_POINTS[label]] + sample_points(W.rank, rng, 40):
        rep, g = W.to_fundamental_domain(lam)
        assert (rep, g) == stepwise_fundamental_domain(W, lam)
        assert W.act_point(g, lam) == rep
        assert all(type(c) is Fraction for c in rep + g.mu)
