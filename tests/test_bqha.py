"""Finite quotient algebra: generators, normal forms, Frobenius trace, Gram rank."""
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qdha.algebra import NotInAlgebra, RatOperator
from qdha.bqha import BAlgebra, gram_rank_at_point
from qdha.instances import instance_from_data, load_instance
from qdha.kz import integral_b_order_function
from qdha.orderfun import BOrderFunction, OrderFunction, torus_point
from qdha.polyring import Poly, RatFunc, demazure
from qdha.rootsys import affinise, vec
from qdha.weyl import AffineWeylGroup


def instance_b_algebra(name):
    return load_instance(Path(__file__).resolve().parent.parent / "instances" / f"{name}.json").b_algebra()


def c2_generic_b_algebra():
    return instance_b_algebra("c2_generic")


def rank1_b_algebra():
    """The finite side of the quarter-point example: Omega(alpha) = 1 at both points."""
    W = AffineWeylGroup(affinise("A1"))
    lam0 = vec((Fraction(1, 4),))
    omega = OrderFunction(W, lam0, {a: 1 for a in W.ars.delta})
    return BAlgebra(integral_b_order_function(omega))


def nil_hecke_a1():
    W = AffineWeylGroup(affinise("A1"))
    lam0 = vec((Fraction(0),))
    bof = BOrderFunction(W, lam0, {(torus_point(lam0), (1,)): -1})
    return BAlgebra(bof)


def zero_b_algebra(label="A2"):
    W = AffineWeylGroup(affinise(label))
    lam0 = vec(tuple(Fraction(1, p) for p in (5, 7, 11, 13)[: W.rs.rank]))
    return BAlgebra(BOrderFunction(W, lam0, {}))


def a2_wall_lite():
    """A2 at the wall point (1/7, 2/7) with order -1 on +-alpha_1 only."""
    return instance_from_data({
        "type": "A2",
        "lambda0": ["1/7", "2/7"],
        "omega": [
            {"root": {"alpha": [1, 0], "level": 0}, "value": -1},
            {"root": {"alpha": [-1, 0], "level": 0}, "value": -1},
        ],
    }).b_algebra()


def spanning_ops(B, span):
    """The operators m tau_w e(ell) of a spanning set."""
    return [B.mul(B.poly_mult(m, B.act_ell(w, ell)), B.tau_element(w, ell)) for ell, w, m in span]


def dense_rank(rows):
    """Exact rank of a rational matrix by plain row reduction (the reference)."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def global_tau(B, i):
    out = B.zero()
    for ell in B.orbit:
        out = out + B.tau_letter(i, ell)
    return out


def global_poly(B, f):
    out = B.zero()
    for ell in B.orbit:
        out = out + B.poly_mult(f, ell)
    return out


def test_zero_order_function_gives_reflections():
    B = zero_b_algebra()
    ell = B.orbit[0]
    t = B.tau_letter(0, ell)
    assert len(t.entries) == 1
    (_, _, u), r = t.entries[0]
    assert r == RatFunc.from_poly(Poly.const(2, 1))
    assert u == B.fin.reflection(B.rs.simple_root(0))


def test_minus_one_kills_invariants():
    B = nil_hecke_a1()
    ell = B.orbit[0]
    t = B.tau_letter(0, ell)
    alpha = B.root_poly((1,))
    vals = {}
    for (src, tgt, u), r in t.entries:
        vals[tgt] = vals.get(tgt, RatFunc.from_poly(Poly.zero(1))) + r * RatFunc.from_poly(
            B.act_poly(u, alpha * alpha))
    assert all(v.is_zero() for v in vals.values())


def test_rank1_omega_one_generator():
    B = rank1_b_algebra()
    ellp = torus_point(vec((Fraction(-3, 4),)))
    t = B.tau_letter(0, ellp)
    alpha = B.root_poly((1,))
    s = B.fin.reflection((1,))
    assert t.entries == (((ellp, torus_point(vec((Fraction(-5, 4),))), s),
                          RatFunc.from_poly(alpha)),)


def test_b_normal_form_roundtrip():
    rng = random.Random(55)
    B = zero_b_algebra()
    for _ in range(15):
        word = [rng.randrange(2) for _ in range(rng.randrange(1, 5))]
        ell = B.orbit[rng.randrange(len(B.orbit))]
        op = B.tau_word(word, ell)
        nf = B.normal_form(op)
        assert B.reconstruct(nf) == op
        deg = nf.filtration_degree(B.fin)
        assert deg is None or deg <= len(word)


def test_b_normal_form_basis_roundtrip():
    B = rank1_b_algebra()
    for ell in B.orbit:
        for w in B.fin.elements:
            nf = B.normal_form(B.tau_element(w, ell))
            assert list(nf.coeffs) == [w]
            assert nf.coeffs[w] == Poly.const(1, 1)


def test_b_normal_form_rejects_denominator():
    B = zero_b_algebra()
    ell = B.orbit[0]
    alpha = B.root_poly(B.rs.simple_root(0))
    s = B.fin.reflection(B.rs.simple_root(0))
    bad = RatOperator.from_dict({
        (ell, B.act_ell(s, ell), s): RatFunc(Poly.const(2, 1), {alpha: 1}),
    })
    with pytest.raises(NotInAlgebra):
        B.normal_form(bad)


def test_leading_coefficient_closed_form():
    B = rank1_b_algebra()
    w0 = B.fin.longest_element()
    for ell in B.orbit:
        lead = B.tau_element(w0, ell).to_dict()[(ell, B.act_ell(w0, ell), w0)]
        assert lead == B.inversion_leading_coefficient(w0, ell)


def test_trace_of_idempotent_vanishes():
    B = rank1_b_algebra()
    for ell in B.orbit:
        assert B.frobenius_trace(B.idempotent(ell)).is_zero()


def test_trace_of_top_basis_element_trivial_stabilizer():
    B = rank1_b_algebra()
    w0 = B.fin.longest_element()
    ell0 = torus_point(B.bof.base_point)
    assert B.frobenius_trace(B.tau_element(w0, ell0)) == Poly.const(1, 1)
    f = Poly.variable(1, 0) ** 2
    x = B.mul(B.poly_mult(f, B.act_ell(w0, ell0)), B.tau_element(w0, ell0))
    assert B.frobenius_trace(x) == f


def demazure_along(B, word, f):
    """The composition of the divided differences of the roots of ``word``,
    the last letter applied first."""
    for alpha in reversed(word):
        f = demazure(f, B.root_poly(alpha), B.act_poly(B.fin.reflection(alpha), f))
    return f


def test_trace_reduced_word_independence_of_theta():
    # the closed signed sum agrees with the Demazure compositions along both
    # reduced words s1 s2 s1 = s2 s1 s2 of the longest element of A2 at 0
    W = AffineWeylGroup(affinise("A2"))
    lam0 = vec((Fraction(0), Fraction(0)))
    bof = BOrderFunction(W, lam0, {(torus_point(lam0), a): -1
                                   for a in W.rs.positive_roots})
    B = BAlgebra(bof)
    rng = random.Random(77)
    ell = B.orbit[0]
    signed, _ = B.trace_terms[ell]
    assert len(signed) == 6
    a1, a2 = (1, 0), (0, 1)
    for _ in range(10):
        f = Poly(2, {(rng.randrange(3), rng.randrange(3)): Fraction(rng.randrange(-4, 5))})
        lhs = demazure_along(B, [a1, a2, a1], f)
        assert lhs == demazure_along(B, [a2, a1, a2], f)
        assert B.coefficient_trace(ell, f) == lhs


def test_trace_symmetry_under_anti_involution():
    rng = random.Random(99)
    B = rank1_b_algebra()
    x_poly = Poly.variable(1, 0)
    gens = [("tau", 0), ("poly", x_poly), ("poly", x_poly * x_poly)]

    def word_op(word):
        ops = [global_tau(B, g[1]) if g[0] == "tau" else global_poly(B, g[1]) for g in word]
        acc = ops[0]
        for op in ops[1:]:
            acc = B.mul(acc, op)
        return acc

    for _ in range(30):
        wx = [gens[rng.randrange(len(gens))] for _ in range(rng.randrange(1, 3))]
        wy = [gens[rng.randrange(len(gens))] for _ in range(rng.randrange(1, 3))]
        x = word_op(wx)
        y = word_op(wy)
        lhs = B.frobenius_trace(B.mul(x, y))
        rhs = B.frobenius_trace(B.mul(word_op(list(reversed(wy))), word_op(list(reversed(wx)))))
        assert lhs == rhs


def test_gram_rank_nil_hecke_full():
    B = nil_hecke_a1()
    span, matrix = B.gram_matrix(4)
    assert B.expected_gram_rank() == 4
    rank = gram_rank_at_point(matrix, (Fraction(3, 7),))
    assert rank == 4


def test_gram_rank_rank1_example_full():
    B = rank1_b_algebra()
    span, matrix = B.gram_matrix(2)
    assert B.expected_gram_rank() == 4
    rank = gram_rank_at_point(matrix, (Fraction(2, 5),))
    assert rank == 4


def test_gram_zero_row_sanity():
    B = rank1_b_algebra()
    span, matrix = B.gram_matrix(2)
    # tr(0 * y) = 0: the zero operator pairs to zero with every spanning element
    zero_row = [B.frobenius_trace(B.mul(B.zero(), op)) for op in spanning_ops(B, span)]
    assert len(zero_row) == len(span)
    assert all(t.is_zero() for t in zero_row)
    # and no spanning element pairs nontrivially with an incomposable one
    for i, (ell_i, w_i, m_i) in enumerate(span):
        for j, (ell_j, w_j, m_j) in enumerate(span):
            if B.act_ell(w_j, ell_j) != ell_i:
                assert (i, j) not in matrix


@pytest.mark.parametrize("make", [rank1_b_algebra, a2_wall_lite], ids=["rank1", "a2_wall_lite"])
def test_gram_matrix_equals_pairwise_traces(make):
    # the reference: one product and one trace per pair (i, j)
    B = make()
    span, matrix = B.gram_matrix(4)
    ops = spanning_ops(B, span)
    pairwise = {(i, j): B.frobenius_trace(B.mul(x, y))
                for i, x in enumerate(ops) for j, y in enumerate(ops)}
    assert matrix == {ij: t for ij, t in pairwise.items() if not t.is_zero()}


def reference_gram_matrix(B, degree_bound):
    """The Gram matrix the plain way: every group against every column, by the
    full product, its top coefficients and one coefficient trace per row."""
    span = B.spanning_set(degree_bound)
    ops = spanning_ops(B, span)
    groups = {}
    for i, (ell, w, _) in enumerate(span):
        groups.setdefault((ell, w), []).append(i)
    matrix = {}
    for (ell, w), rows in groups.items():
        head = B.tau_element(w, ell)
        for j, y in enumerate(ops):
            for src, f in B.top_coefficients(B.mul(head, y)).items():
                for i in rows:
                    entry = B.coefficient_trace(src, span[i][2] * f)
                    if not entry.is_zero():
                        matrix[i, j] = entry
    return span, matrix


@pytest.mark.parametrize("name", ["a1_quarter", "a2_generic", "a2_wall", "c2_generic", "a2_wall_lite"])
def test_gram_matrix_equals_reference(name):
    make = a2_wall_lite if name == "a2_wall_lite" else lambda: instance_b_algebra(name)
    span, matrix = make().gram_matrix(4)
    ref_span, ref = reference_gram_matrix(make(), 4)
    assert span == ref_span
    assert matrix == ref
    assert list(matrix) == list(ref)


def test_gram_matrix_one_product_per_group_and_column(monkeypatch):
    B = a2_wall_lite()
    B.gram_matrix(4)  # fill the tau element cache
    products, top_products, normal_forms = [], [], []
    mul, top_product, normal_form = B.mul, B._top_product, B.normal_form
    monkeypatch.setattr(B, "mul", lambda x, y: products.append(mul(x, y)) or products[-1])
    monkeypatch.setattr(B, "_top_product",
                        lambda x, y: top_products.append((x, y, top_product(x, y))) or top_products[-1][2])
    monkeypatch.setattr(B, "normal_form", lambda x: normal_forms.append(x) or normal_form(x))
    span, _ = B.gram_matrix(4)
    # 108 spanning operators are full products; then 3 orbit points x 6
    # elements, each against the 36 columns ending at its point, form only the
    # tau_{w0} blocks of their product; the pairwise formula needs 108 * 36
    assert len(span) == 108
    assert len(products) == 108
    assert len(top_products) == 648
    # each is the tau_{w0} part of the full product
    w0 = B.fin.longest_element()
    for x, y, z in top_products:
        assert z == RatOperator.from_dict({k: v for k, v in mul(x, y).entries if k[2] == w0})
    # 510 have no tau_{w0} block, 72 of them because the full product
    # vanishes (order -1 on the wall)
    assert sum(1 for _, _, z in top_products if z.is_zero()) == 510
    assert sum(1 for x, y, _ in top_products if mul(x, y).is_zero()) == 72
    # the tau_{w0} coefficient is read off its block, without a peel
    assert normal_forms == []


def test_normal_form_left_pol_linear():
    c2 = c2_generic_b_algebra()
    for B in (a2_wall_lite(), c2):
        w0 = B.fin.longest_element()
        for ell in B.orbit[:2]:
            z = B.mul(B.tau_element(w0, B.act_ell(w0, ell)),
                      B.mul(B.poly_mult(Poly.variable(B.rank, 0), ell), B.tau_element(w0, ell)))
            nf = B.normal_form(z)
            for m in (Poly.variable(B.rank, 1), Poly.const(B.rank, 3) - Poly.variable(B.rank, 0) ** 2):
                scaled = B.normal_form(B.mul(B.poly_mult(m, ell), z))
                assert scaled.coeffs == {g: m * f for g, f in nf.coeffs.items()}
    # on C2, alpha_1 + alpha_2 is the coordinate x1: a monomial can cancel a
    # root denominator, so m z can lie in the algebra while z does not
    ell = c2.orbit[0]
    x1 = Poly.variable(2, 1)
    assert c2.root_poly((1, 1)) == x1
    s = c2.fin.reflection((1, 0))
    z = RatOperator.from_dict({
        (ell, c2.act_ell(s, ell), s): RatFunc(Poly.variable(2, 0), {x1: 1}),
    })
    with pytest.raises(NotInAlgebra):
        c2.normal_form(z)
    _, rational = c2.normal_form_rational(z)
    scaled = c2.normal_form(c2.mul(c2.poly_mult(x1, c2.act_ell(s, ell)), z))
    assert {g: RatFunc.from_poly(f) for g, f in scaled.coeffs.items()} == {
        g: RatFunc.from_poly(x1) * f for g, f in rational.items()}


def test_gram_rank_by_blocks_equals_dense_rank():
    rng = random.Random(31)

    def const(c):
        return Poly.const(2, c)

    # three blocks, the middle one of rank 1 < 2, and a zero row and column
    blocks = [[[2, 1], [1, 1]], [[1, 2], [2, 4]], [[3]]]
    size = sum(len(b) for b in blocks) + 1
    dense = [[Fraction(0)] * size for _ in range(size)]
    at = 0
    for b in blocks:
        for r, row in enumerate(b):
            for c, x in enumerate(row):
                dense[at + r][at + c] = Fraction(x)
        at += len(b)
    rows, cols = list(range(size)), list(range(size))
    rng.shuffle(rows)
    rng.shuffle(cols)
    permuted = [[dense[r][c] for c in cols] for r in rows]
    matrix = {(r, c): const(x) for r, row in enumerate(permuted) for c, x in enumerate(row) if x}
    assert dense_rank(permuted) == 4
    assert gram_rank_at_point(matrix, (Fraction(1, 3), Fraction(2, 3))) == 4
    assert gram_rank_at_point({}, (Fraction(1), Fraction(1))) == dense_rank([[0] * 4] * 4) == 0
    # an entry that vanishes at the point joins no block
    vanishing = {(0, 0): Poly.variable(2, 0) - const(Fraction(1, 3))}
    assert gram_rank_at_point(vanishing, (Fraction(1, 3), Fraction(2, 3))) == 0


def test_gram_rank_by_blocks_on_gram_matrix():
    B = a2_wall_lite()
    span, matrix = B.gram_matrix(4)
    point = (Fraction(3, 5), Fraction(5, 7))
    values = [[matrix[i, j].evaluate(point) if (i, j) in matrix else Fraction(0)
               for j in range(len(span))] for i in range(len(span))]
    assert gram_rank_at_point(matrix, point) == dense_rank(values)


def test_theta_words_frozen_per_orbit_point():
    # one trace table entry per orbit point; each stabilizer is one
    # reflection, so each trace is a single divided difference pulled back
    # along the orbit representative
    B = a2_wall_lite()
    assert set(B.trace_terms) == set(B.orbit)
    rng = random.Random(5)
    for ell in B.orbit:
        signed, den = B.trace_terms[ell]
        assert sorted(sign for _, sign in signed) == [-1, 1]
        assert den.total_degree() == 1
        roots = [a for a in B.rs.positive_roots if B.rs.pair_root_point(a, ell).denominator == 1]
        assert len(roots) == 1
        f = Poly(2, {(rng.randrange(3), rng.randrange(1, 3)): Fraction(rng.randrange(1, 5))})
        pull = B.fin.inverse(B.torus.cosets[ell])
        assert B.coefficient_trace(ell, f) == B.act_poly(pull, demazure_along(B, roots, f))


@pytest.mark.parametrize("make", [a2_wall_lite, c2_generic_b_algebra],
                         ids=["a2_wall_lite", "c2_generic"])
def test_gram_products_in_algebra_with_peeled_top_coefficients(make, monkeypatch):
    # the reference: the full product behind every pair the Gram matrix traces
    # has a polynomial full peel, whose tau_{w0} coefficient is the one read
    # off the tau_{w0} blocks that gram_matrix forms
    B = make()
    pairs = []
    top_product = B._top_product
    monkeypatch.setattr(B, "_top_product", lambda x, y: pairs.append((x, y)) or top_product(x, y))
    B.gram_matrix(4)
    w0 = B.fin.longest_element()
    assert any(B.top_coefficients(top_product(x, y)) for x, y in pairs)
    for x, y in pairs:
        z = B.mul(x, y)
        peeled = {}
        for src in z.sources():
            nf = B.normal_form(RatOperator.from_dict({k: v for k, v in z.entries if k[0] == src}))
            if w0 in nf.coeffs:
                peeled[src] = nf.coeffs[w0]
        assert B.top_coefficients(top_product(x, y)) == peeled


def test_top_coefficient_with_denominator_not_in_algebra():
    B = zero_b_algebra()
    ell = B.orbit[0]
    w0 = B.fin.longest_element()
    alpha = B.root_poly(B.rs.simple_root(0))
    bad = RatOperator.from_dict({(ell, B.act_ell(w0, ell), w0): RatFunc(Poly.const(2, 1), {alpha: 1})})
    with pytest.raises(NotInAlgebra):
        B.top_coefficients(bad)
    good = B.mul(B.poly_mult(alpha, B.act_ell(w0, ell)), B.tau_element(w0, ell))
    assert B.top_coefficients(good) == {ell: alpha}
