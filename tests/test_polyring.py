"""Polynomial and rational-function arithmetic, Weyl substitution, divided differences."""
import random
from fractions import Fraction
from math import gcd

import pytest

from qdha.algebra import OperatorAlgebra
from qdha.polyring import Poly, RatFunc, apply_linear_rat, divide_exact
from qdha.rootsys import affinise, build_finite
from qdha.weyl import AffineWeylGroup, FiniteWeylGroup, PointsOver


def random_poly(rng, nvars, deg=3, terms=4):
    coeffs = {}
    for _ in range(terms):
        m = tuple(rng.randrange(deg + 1) for _ in range(nvars))
        coeffs[m] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return Poly(nvars, coeffs)


def demazure(f, alpha, reflected):
    """Divided difference ``(reflected - f) / alpha``, with ``reflected`` the
    reflection of f in the wall of alpha; a remainder raises ArithmeticError."""
    return divide_exact(reflected - f, alpha)


def root_poly(rs, key):
    """The finite root as a linear polynomial in the fundamental-weight variables."""
    return Poly.linear([rs.pair_root_coroot(key, rs.simple_root(i)) for i in range(rs.rank)])


def reflection_images(rs, key):
    """Variable images for the reflection in the wall of ``key``."""
    images = []
    alpha = root_poly(rs, key)
    for i in range(rs.rank):
        # s_alpha(varpi_i) = varpi_i - <varpi_i, alpha^vee> alpha
        cv = rs.coroot_coords(key)
        images.append(Poly.variable(rs.rank, i) - alpha.scale(cv[i]))
    return images


def test_exact_division_exact_and_inexact():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    f = (x + y) * (x - y)
    assert divide_exact(f, x + y) == x - y
    assert divide_exact(f.scale(Fraction(2, 3)), (x + y).scale(2)) == (x - y).scale(Fraction(1, 3))
    with pytest.raises(ArithmeticError):
        divide_exact(f + Poly.const(2, 1), x + y)
    # a leading coefficient that the divisor's does not divide: 2x + y does not
    # divide x^2, but does divide (2x + y)(x - y)/3
    g = x.scale(2) + y
    with pytest.raises(ArithmeticError):
        divide_exact(x * x, g)
    assert not RatFunc(x * x, {g: 1}).is_poly()
    third = Fraction(1, 3)
    assert RatFunc((g * (x - y)).scale(third), {g: 1}).as_poly() == (x - y).scale(third)
    assert demazure(Poly.zero(2), g.scale(Fraction(1, 2)), g * x) == x.scale(2)


def test_weyl_act_identity_and_rank1_sign_flip():
    rs = build_finite("A1")
    W = FiniteWeylGroup(rs)
    x = Poly.variable(1, 0)
    f = x * x + x.scale(3)
    assert f.substitute([Poly.variable(1, 0)]) == f
    images = reflection_images(rs, rs.simple_root(0))
    assert x.substitute(images) == -x
    assert f.substitute(images) == x * x - x.scale(3)


def test_weyl_act_multiplicative_random():
    rng = random.Random(11)
    rs = build_finite("A2")
    images = reflection_images(rs, rs.simple_root(1))
    for _ in range(25):
        f = random_poly(rng, 2)
        g = random_poly(rng, 2)
        assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)


def test_weyl_act_preserves_degree():
    rng = random.Random(13)
    rs = build_finite("C2")
    images = reflection_images(rs, rs.highest_root)
    for _ in range(20):
        f = random_poly(rng, 2)
        assert f.substitute(images).total_degree() == f.total_degree()


def test_demazure_rank1_linear_case():
    rs = build_finite("A1")
    alpha = root_poly(rs, rs.simple_root(0))  # 2x in these coordinates
    x = Poly.variable(1, 0)
    images = reflection_images(rs, rs.simple_root(0))
    out = demazure(x, alpha, x.substitute(images))
    # (-x - x) / (2x) = -1
    assert out == Poly.const(1, -1)


def test_demazure_kills_invariants():
    rs = build_finite("A2")
    key = rs.simple_root(0)
    alpha = root_poly(rs, key)
    images = reflection_images(rs, key)
    f = alpha * alpha  # s-invariant
    assert f.substitute(images) == f
    assert demazure(f, alpha, f.substitute(images)).is_zero()


def test_demazure_twisted_leibniz_random():
    rng = random.Random(17)
    rs = build_finite("A2")
    key = rs.simple_root(1)
    alpha = root_poly(rs, key)
    images = reflection_images(rs, key)

    def dem(f):
        return demazure(f, alpha, f.substitute(images))

    for _ in range(20):
        f = random_poly(rng, 2)
        g = random_poly(rng, 2)
        lhs = dem(f * g)
        rhs = dem(f) * g + f.substitute(images) * dem(g)
        assert lhs == rhs


def test_demazure_nil_property():
    rng = random.Random(19)
    rs = build_finite("A2")
    for key in [rs.simple_root(0), rs.simple_root(1), rs.highest_root]:
        alpha = root_poly(rs, key)
        images = reflection_images(rs, key)

        def dem(f):
            return demazure(f, alpha, f.substitute(images))

        for _ in range(10):
            f = random_poly(rng, 2)
            assert dem(dem(f)).is_zero()


def braid_words(i, j, m):
    a = tuple((i, j) * m)[:m]
    b = tuple((j, i) * m)[:m]
    return a, b


@pytest.mark.parametrize("label,i,j,m", [("A2", 0, 1, 3), ("C2", 0, 1, 4)])
def test_demazure_braid_relations(label, i, j, m):
    rng = random.Random(23)
    rs = build_finite(label)

    def dem_op(idx, f):
        key = rs.simple_root(idx)
        alpha = root_poly(rs, key)
        return demazure(f, alpha, f.substitute(reflection_images(rs, key)))

    wa, wb = braid_words(i, j, m)
    for _ in range(10):
        f = random_poly(rng, 2)
        fa = f
        for idx in reversed(wa):
            fa = dem_op(idx, fa)
        fb = f
        for idx in reversed(wb):
            fb = dem_op(idx, fb)
        assert fa == fb


def test_pow_matches_repeated_products():
    rng = random.Random(31)
    for nvars in (1, 2, 3):
        f = random_poly(rng, nvars, deg=2, terms=3)
        assert f ** 0 == Poly.const(nvars, 1)
        assert f ** 1 is f
        assert f ** 3 == f * f * f
    with pytest.raises(ValueError):
        Poly.variable(2, 0) ** -1


def test_ratfunc_unit_and_additive_inverse():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    a = RatFunc(x * y + y, {x + y: 1})
    one = RatFunc.const(2, 1)
    assert a * one == a
    assert (a + (-a)).is_zero()


def test_ratfunc_inverse_random():
    rng = random.Random(29)
    for _ in range(15):
        f = random_poly(rng, 2, deg=2, terms=3)
        g = random_poly(rng, 2, deg=2, terms=3)
        if f.is_zero() or g.is_zero():
            continue
        q = RatFunc(f, {g: 1})
        qinv = RatFunc(g, {f: 1})
        assert q * qinv == RatFunc.const(2, 1)


def test_ratfunc_reduction_of_linear_factors():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    r = RatFunc((x + y) * (x - y) * x, {x + y: 1, x: 1})
    assert r.is_poly()
    assert r.as_poly() == x - y


def test_ratfunc_zero_division_rejected():
    x = Poly.variable(1, 0)
    with pytest.raises(ZeroDivisionError):
        RatFunc(x, {Poly.zero(1): 1})
    with pytest.raises(ZeroDivisionError):
        RatFunc.const(1, 0).inverse()


def test_ratfunc_scalar_normalization():
    x = Poly.variable(1, 0)
    # (3x) / (6x) should equal 1/2 after factor normalization and reduction
    r = RatFunc(x.scale(3), {x.scale(6): 1})
    assert r.is_poly()
    assert r.as_poly() == Poly.const(1, Fraction(1, 2))


# ----- oracle tests against sympy (hypothesis and sympy are test-only) -----

def _oracle():
    """The hypothesis package, its strategies and sympy; skips without them."""
    return (pytest.importorskip("hypothesis"), pytest.importorskip("hypothesis.strategies"),
            pytest.importorskip("sympy"))


def _settings(hyp, examples=60):
    return hyp.settings(max_examples=examples, deadline=None, database=None, derandomize=True)


def _poly_strategy(st, nvars, max_exp=3, max_terms=4):
    mono = st.tuples(*[st.integers(0, max_exp)] * nvars)
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.dictionaries(mono, coeff, max_size=max_terms).map(lambda c: Poly(nvars, c))


def _to_sympy(sympy, f: Poly):
    xs = sympy.symbols(f"x0:{f.nvars}")
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[x ** e for x, e in zip(xs, m)])
                       for m, c in f.coeffs.items()])


def _same(sympy, f: Poly, expr) -> bool:
    """f equals expr, and f is in canonical form (lowest terms, no zero term)."""
    canonical = f.denom > 0 and all(f.numer.values()) and gcd(f.denom, *f.numer.values()) == 1
    return canonical and sympy.expand(_to_sympy(sympy, f) - expr) == 0


def _ratfunc_sympy(sympy, r: RatFunc):
    return _to_sympy(sympy, r.num) / _to_sympy(sympy, r.den_poly())


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_poly_ring_operations_match_sympy(nvars):
    hyp, st, sympy = _oracle()
    poly = _poly_strategy(st, nvars)
    scalar = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))

    @_settings(hyp)
    @hyp.given(poly, poly, scalar, st.lists(_poly_strategy(st, nvars, 1, 3), min_size=nvars,
                                            max_size=nvars))
    def check(f, g, c, images):
        F, G = _to_sympy(sympy, f), _to_sympy(sympy, g)
        assert _same(sympy, f + g, F + G)
        assert _same(sympy, f - g, F - G)
        assert _same(sympy, f * g, F * G)
        assert _same(sympy, f.scale(c), F * sympy.Rational(c.numerator, c.denominator))
        xs = sympy.symbols(f"x0:{nvars}")
        subs = dict(zip(xs, (_to_sympy(sympy, img) for img in images)))
        assert _same(sympy, f.substitute(images), F.subs(subs, simultaneous=True))
        point = [Fraction(2 * k + 1, 3 * k + 4) for k in range(nvars)]
        value = F.subs(dict(zip(xs, (sympy.Rational(x.numerator, x.denominator) for x in point))))
        assert f.evaluate(point) == Fraction(int(sympy.numer(value)), int(sympy.denom(value)))

    check()


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_exact_quotient_matches_sympy(nvars):
    hyp, st, sympy = _oracle()
    poly = _poly_strategy(st, nvars)

    @_settings(hyp)
    @hyp.given(poly, poly, poly)
    def check(p, g, noise):
        hyp.assume(not g.is_zero())
        xs = sympy.symbols(f"x0:{nvars}")
        G = _to_sympy(sympy, g)
        # an exact multiple: the quotient comes back, exactly and through RatFunc
        assert divide_exact(p * g, g) == p
        reduced = RatFunc(p * g, {g: 1})
        assert reduced.is_poly() and reduced.as_poly() == p
        # any dividend: g divides it exactly when sympy's remainder is zero
        f = p * g + noise
        _, sympy_rem = sympy.div(_to_sympy(sympy, f), G, *xs)
        divides = sympy.expand(sympy_rem) == 0
        assert RatFunc(f, {g: 1}).is_poly() == divides
        if divides:
            assert divide_exact(f, g) * g == f
        else:
            with pytest.raises(ArithmeticError):
                divide_exact(f, g)

    check()


def test_equal_values_from_different_routes_are_equal_and_hash_equal():
    hyp, st, sympy = _oracle()
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    lhs, rhs = (x + y) * (x - y), x * x - y * y
    assert lhs == rhs and hash(lhs) == hash(rhs)
    assert (lhs.numer, lhs.denom) == (rhs.numer, rhs.denom)

    @_settings(hyp)
    @hyp.given(_poly_strategy(st, 2), st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)))
    def check(f, c):
        thirds = f.scale(Fraction(1, 3)).scale(3)
        assert thirds == f and hash(thirds) == hash(f)
        there_and_back = f.scale(c).scale(1 / c)
        assert there_and_back == f and hash(there_and_back) == hash(f)
        assert (f + f.scale(-1)).is_zero() and (f + f.scale(-1)) == Poly.zero(2)
        assert f == Poly(2, f.coeffs)

    check()


def test_ratfunc_equality_and_is_poly_match_sympy_cancel():
    hyp, st, sympy = _oracle()
    num = _poly_strategy(st, 2, max_exp=2, max_terms=3)
    factor = _poly_strategy(st, 2, max_exp=1, max_terms=3).filter(lambda f: not f.is_zero())

    @_settings(hyp, examples=40)
    @hyp.given(num, factor, factor, factor, st.integers(0, 2), st.booleans())
    def check(n, g, h, k, mult, cancel_g):
        if cancel_g:
            n = n * g
        den = {g: 1}
        den[h] = den.get(h, 0) + mult
        a = RatFunc(n, den)
        a_expr = _to_sympy(sympy, n) / (_to_sympy(sympy, g) * _to_sympy(sympy, h) ** mult)
        assert sympy.cancel(_ratfunc_sympy(sympy, a) - a_expr) == 0
        assert a.is_poly() == (not sympy.denom(sympy.cancel(a_expr)).free_symbols)
        # the same value by another route: num and denominator times k
        b = RatFunc(n * k, {k: 1}) * RatFunc.const(2, 1) / RatFunc(g * h ** mult)
        assert a == b
        c = a + RatFunc.from_poly(k)
        assert (a == c) == (sympy.cancel(_ratfunc_sympy(sympy, a) - _ratfunc_sympy(sympy, c)) == 0)
        assert (c - a) == RatFunc.from_poly(k)

    check()


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_apply_linear_rat_matches_public_constructor(label):
    # the oracle: substitute numerator and factors, then normalize and reduce
    # again through RatFunc(...); the automorphism route only fixes signs
    rng = random.Random(label)
    alg = OperatorAlgebra(AffineWeylGroup(affinise(label)), PointsOver(1))
    roots = [alg.root_poly(a) for a in alg.rs.positive_roots]
    fractions = []
    for _ in range(12):
        den = {}
        for _ in range(rng.randrange(1, 4)):
            p = roots[rng.randrange(len(roots))]
            if rng.randrange(3) == 0:
                p = p * roots[rng.randrange(len(roots))]
            den[p.scale(rng.choice([-2, -1, 1, 3]))] = rng.randrange(1, 3)
        num = random_poly(rng, 2)
        if rng.randrange(2):
            num = num * next(iter(den))
        fractions.append(RatFunc(num, den))
    assert any(r.den for r in fractions)
    for w in alg.fin.elements:
        images = alg.images(w)
        for r in fractions:
            out = apply_linear_rat(r, images)
            ref = RatFunc(r.num.substitute(images), {p.substitute(images): m for p, m in r.den.items()})
            assert (out.num, out.den) == (ref.num, ref.den)


def test_apply_linear_rat_rejects_non_unimodular_substitution():
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    with pytest.raises(ArithmeticError):
        apply_linear_rat(RatFunc(Poly.const(2, 1), {x0 + x1: 1}), [x0.scale(2), x1.scale(2)])


def test_ratfunc_is_not_hashable():
    with pytest.raises(TypeError):
        hash(RatFunc.const(1, 1))
