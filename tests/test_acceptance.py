"""Acceptance criteria: one test per criterion, one printed verdict line each.

Every tolerance is pinned here.  All checks are exact rational computations.
"""
import random
import time
from fractions import Fraction
from pathlib import Path

from qdha.algebra import Algebra, NotInAlgebra
from qdha.bqha import gram_rank_at_point
from qdha.clans import enumerate_clans
from qdha.instances import load_instance, rank1_quarter
from qdha.kz import (
    clans_met,
    e_gamma_weights,
    gamma_change,
    integral_b_order_function,
    iso_check,
    pregamma_group,
    product_formula_check,
    two_rho_coroot,
)
from qdha.orderfun import (
    InvalidOrderFunction,
    OrderFunction,
    from_ddaha_h,
    from_ddaha_k,
)
from qdha.polyring import Poly, RatFunc
from qdha.rootsys import affinise, vec
from qdha.weyl import AffineWeylGroup, PointsOver, common_denominator

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def instance(name):
    return load_instance(INSTANCES / f"{name}.json")


def verdict(n, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_rank1_reproduction():
    t0 = time.perf_counter()
    spec = rank1_quarter()
    alg = spec.algebra()
    B = spec.b_algebra()
    W = spec.group
    gamma = spec.gamma_choice.gamma
    ok = gamma == (-1,)

    dec = enumerate_clans(spec.omega)
    ok &= dec.clan_count() == 3
    ok &= sorted(dec.generic.values()) == [False, True, True]
    ok &= dec.generic[(1, 1)] is False

    lp, lm = spec.omega.over.key([Fraction(-3, 4)]), spec.omega.over.key([Fraction(-5, 4)])
    ok &= e_gamma_weights(spec.omega, gamma) == [lm, lp]

    da = RatFunc.from_poly(alg.root_poly(W.rs.simple_root(0)))
    scalars = []
    for lam in (lp, lm):
        prod = alg.tau_word([1, 0, 1, 0, 1], lam)
        ok &= len(prod.entries) == 1
        ratio = prod.entries[0][1] / da
        ok &= ratio.is_constant() and not ratio.is_zero()
        scalars.append(ratio.num.constant_value())
    ok &= scalars[0] == scalars[1] != 0

    bof = integral_b_order_function(spec.omega)
    alpha = W.rs.simple_root(0)
    ok &= all(bof.value(ell, alpha) == 1 for ell in bof.torus.points)

    iso = iso_check(alg, B, gamma)
    ok &= iso.ok()
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    verdict(1, ok, f"rank-1 example: 3 clans, e_gamma, products (c={scalars[0]}), "
                   f"integral 1, iso clean, {elapsed:.1f}s < 60s")


def test_criterion_2_length_formula():
    t0 = time.perf_counter()
    total = 0
    mismatches = 0
    for label, radius in [("A1", 500), ("A2", 60), ("C2", 52)]:
        W = AffineWeylGroup(affinise(label))
        ball = W.ball(radius)
        # the ball must contain every element of length <= 8 and beyond
        assert radius >= 8
        total += len(ball)
        for g in ball:
            if W.length_formula(g) != W.length_inversions(g):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and total >= 10_000 and elapsed < 300
    verdict(2, ok, f"length formula == inversion count on {total} elements "
                   f"(0 mismatches), {elapsed:.1f}s < 300s")


def _random_a2_order_function(rng):
    """A valid random order function on A2 with support levels <= 1 and values in -1..2."""
    W = AffineWeylGroup(affinise("A2"))
    on_wall = rng.random() < 0.5
    lam0 = vec((Fraction(1, 7), Fraction(2, 7))) if on_wall else vec((Fraction(1, 5), Fraction(1, 7)))
    den = common_denominator(lam0)
    _, stab = W.stabilizer(PointsOver(den).key(lam0), den)
    roots = W.ars.window(1)
    support = {}
    seen = set()
    for a in roots:
        if a in seen:
            continue
        orbit = {a}
        frontier = [a]
        while frontier:
            b = frontier.pop()
            for u in stab:
                img = W.act_root(u, b)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        seen |= orbit
        on_zero = all(W.ars.evaluate(b, lam0) == 0 for b in orbit)
        value = rng.choice([-1, 0, 1, 2]) if on_zero else rng.choice([0, 1, 2])
        for b in orbit:
            support[b] = value
    return W, OrderFunction(W, lam0, support)


def test_criterion_3_basis_theorem():
    rng = random.Random(20250808)
    W, omega = _random_a2_order_function(rng)
    alg = Algebra(omega)
    window = sorted(W.orbit_window(omega.base_point, 2))
    failures = 0
    for _ in range(100):
        word = [rng.randrange(3) for _ in range(rng.randrange(1, 7))]
        lam = window[rng.randrange(len(window))]
        op = alg.tau_word(word, lam)
        try:
            nf = alg.normal_form(op)
        except NotInAlgebra:
            failures += 1
            continue
        if alg.reconstruct(nf) != op:
            failures += 1
    verdict(3, failures == 0,
            f"basis theorem: 100 random words of length <= 6 have polynomial "
            f"normal forms and exact round-trips ({failures} failures)")


def test_criterion_4_braid_congruence():
    failures = []
    checked = 0
    for spec in [instance("a2_generic"), instance("a2_wall"), instance("c2_generic")]:
        alg = spec.algebra()
        W = spec.group
        weights = sorted(W.orbit_window(spec.omega.base_point, 4))
        n = len(W.ars.delta)
        for i in range(n):
            for j in range(i + 1, n):
                m = alg.braid_order(i, j)
                if m is None:
                    continue
                for lam in weights:
                    checked += 1
                    deg, _ = alg.braid_defect(i, j, lam)
                    if deg is not None and deg > m - 1:
                        failures.append((spec.label, i, j, lam, deg))
    verdict(4, not failures,
            f"braid congruence: defect degree <= m-1 on {checked} (pair, weight) "
            f"instances in A2 and C2 ({len(failures)} failures)")


def test_criterion_5_filtration_compatibility():
    rng = random.Random(777)
    specs = [instance("a2_generic"), instance("a2_wall")]
    algs = [s.algebra() for s in specs]
    windows = [sorted(s.group.orbit_window(s.omega.base_point, 2)) for s in specs]
    failures = 0
    for k in range(200):
        idx = k % 2
        alg, window = algs[idx], windows[idx]
        word = [rng.randrange(3) for _ in range(rng.randrange(1, 7))]
        lam = window[rng.randrange(len(window))]
        nf = alg.normal_form(alg.tau_word(word, lam))
        deg = nf.filtration_degree(alg.group)
        if deg is not None and deg > len(word):
            failures += 1
    verdict(5, failures == 0,
            f"filtration: 200 random products of <= 6 generators stay in "
            f"filtration degree <= word length ({failures} failures)")


def test_criterion_6_integral_consistency():
    rng = random.Random(4242)
    done = 0
    failures = 0
    nonzero = set()  # the types with a case whose finite order function is nonzero
    for label in ("A1", "A2", "B2", "C2", "G2"):
        W = AffineWeylGroup(affinise(label))
        n = W.rs.rank
        # the squared root lengths; two of them give per-length parameters
        norms = sorted({W.rs.norm2(a) for a in W.rs.roots})
        trials = 0
        while trials < 25:
            h = Fraction(rng.randrange(-2, 3), rng.choice([1, 2, 3]))
            if len(norms) > 1 and trials % 2:
                h = {m: Fraction(rng.randrange(-2, 3), rng.choice([1, 2, 3])) for m in norms}
            lam0 = vec(tuple(Fraction(rng.randrange(-3, 4), rng.choice([2, 3, 4, 5]))
                             for _ in range(n)))
            try:
                omega = from_ddaha_h(W, h, lam0, window=10)
            except InvalidOrderFunction:
                continue
            trials += 1
            done += 1
            lhs = integral_b_order_function(omega)
            rhs = from_ddaha_k(W, h, lam0)
            if lhs.table != rhs.table:
                failures += 1
            if rhs.table:
                nonzero.add(label)
    verdict(6, done == 125 and failures == 0 and len(nonzero) == 5,
            f"integral consistency: integral of the affine extraction equals the "
            f"finite extraction on {done} random parameter sets over A1, A2, B2, C2 "
            f"and G2, nonzero on {sorted(nonzero)} ({failures} failures)")


def test_criterion_7_isomorphism_theorem():
    ok = True
    details = []
    for spec in [rank1_quarter(), instance("a2_generic")]:
        alg = spec.algebra()
        B = spec.b_algebra()
        g1 = spec.gamma_choice.gamma
        report = iso_check(alg, B, g1)
        ok &= report.ok()
        g2 = tuple(2 * c - r for c, r in zip(g1, two_rho_coroot(spec.group)))
        change = gamma_change(alg, B, g1, g2)
        ok &= change.ok()
        details.append(f"{spec.label}: iso {'ok' if report.ok() else 'FAIL'}, "
                       f"gamma change {'ok' if change.ok() else 'FAIL'}")
    verdict(7, ok, "isomorphism: " + "; ".join(details))


def test_criterion_8_frobenius_structure():
    rng = random.Random(31415)
    ok = True
    details = []
    for spec in [rank1_quarter(), instance("a2_generic")]:
        B = spec.b_algebra()
        span, matrix = B.gram_matrix(4)
        expected = B.expected_gram_rank()
        point = tuple(Fraction(2 * k + 3, 2 * k + 5) for k in range(B.rank))
        rank = gram_rank_at_point(matrix, point)
        ok &= rank == expected
        details.append(f"{spec.label}: gram rank {rank}/{expected} on {len(span)} elements")
    # trace symmetry on 100 sampled pairs (rank-1 instance)
    B = rank1_quarter().b_algebra()
    gens = []
    for i in range(B.rank):
        op = B.zero()
        for ell in B.orbit:
            op = op + B.tau_letter(i, ell)
        gens.append(op)
    for f in [Poly.variable(B.rank, i) for i in range(B.rank)]:
        op = B.zero()
        for ell in B.orbit:
            op = op + B.poly_mult(f, ell)
        gens.append(op)

    def prod(word):
        acc = gens[word[0]]
        for k in word[1:]:
            acc = B.mul(acc, gens[k])
        return acc

    sym_failures = 0
    for _ in range(100):
        wx = [rng.randrange(len(gens)) for _ in range(rng.randrange(1, 3))]
        wy = [rng.randrange(len(gens)) for _ in range(rng.randrange(1, 3))]
        lhs = B.frobenius_trace(B.mul(prod(wx), prod(wy)))
        rhs = B.frobenius_trace(B.mul(prod(list(reversed(wy))), prod(list(reversed(wx)))))
        if lhs != rhs:
            sym_failures += 1
    ok &= sym_failures == 0
    verdict(8, ok, "; ".join(details) + f"; trace symmetry on 100 pairs "
                                        f"({sym_failures} failures)")


def test_criterion_9_kernel_criterion():
    spec = rank1_quarter()
    dec = enumerate_clans(spec.omega)
    met = clans_met(spec.group, dec.walls, spec.gamma_choice.gamma)
    ok = True
    dims = {}
    # bounded clan: no idempotent weight, so in the kernel; recession cone of dimension 0
    bounded = next(s for s in dec.clans if not dec.generic[s])
    ok &= bounded not in met and dec.dimension[bounded] == 0
    dims["bounded"] = dec.dimension[bounded]
    # the two unbounded clans: each holds an idempotent weight; dimension 1
    for k, sign in enumerate(dec.generic_clans()):
        ok &= sign in met and dec.dimension[sign] == 1
        dims[f"generic{k}"] = dec.dimension[sign]
    # full projective character: survives, and its largest cone has dimension 1 = rank
    ok &= any(dec.generic[s] for s in met) and max(dec.dimension.values()) == 1
    dims["projective"] = max(dec.dimension.values())
    verdict(9, ok, f"kernel criterion: idempotent weights meet exactly the generic clans; "
                   f"recession cone dimensions {dims}, exactly 0/1/1")


def test_criterion_10_product_formula():
    spec = instance("a2_generic")
    alg = spec.algebra()
    B = spec.b_algebra()
    gamma = spec.gamma_choice.gamma
    failures = []
    scalars = set()
    for w in spec.group.finite.elements:
        for ell in B.orbit:
            rep = product_formula_check(alg, B, gamma, pregamma_group(alg.group, gamma, w), ell)
            if not rep.ok:
                failures.append((w, ell))
            else:
                scalars.add(rep.scalar)
    verdict(10, not failures,
            f"product formula: {6 * len(B.orbit)} (w, ell) pairs agree up to "
            f"scalars {sorted(scalars)} (each ±1)")
