"""Command line front end: describe instances, run verification sweeps.

Stdout is deterministic for fixed inputs (timings go to stderr), so reports
can be diffed byte for byte.  Exit codes: 0 pass, 1 verification failure,
2 usage error or an instance file that does not load, 3 undecided: the
computation stopped before a verdict (a case not implemented, an exact-arithmetic
inconsistency, a window or exploration bound exceeded, a peel that does not
terminate, a block or value it cannot interpret), with a one-line reason on stderr.
A reader that closes stdout early leaves the exit code as it is.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import kz
from .algebra import NonTerminating, NotInAlgebra
from .bqha import gram_rank_at_point
from .clans import IncompleteExploration, enumerate_clans
from .instances import InstanceSpec, load_instance, rank1_quarter
from .kz import (
    clans_met,
    e_gamma_weights,
    gamma_change,
    integral_b_order_function,
    iso_check,
    pregamma_point,
    product_formula_check,
    two_rho_coroot,
)
from .orderfun import from_ddaha_k
from .polyring import Poly, RatFunc

CHECKS = ("length", "basis", "braid", "filtration", "integral", "iso",
          "frobenius", "kernel", "gamma", "product")

EXIT_UNDECIDED = 3
# no verdict, as opposed to a failed check; ValueError and KeyError once loaded
UNDECIDED = (NotImplementedError, ArithmeticError, NonTerminating, IncompleteExploration,
             ValueError, KeyError)


def _strs(spec: InstanceSpec, x) -> list[str]:
    """The coordinates of the weight keyed x, written as fractions."""
    return [str(c) for c in spec.omega.over(x)]


def _report(check: str, spec: InstanceSpec, instances: int, failures: list) -> dict:
    return {
        "check": check,
        "instance": spec.digest(),
        "instances": instances,
        "failures": failures,
        "pass": not failures,
    }


# ----- verification sweeps -----

def check_length(spec: InstanceSpec, ball: int, seed: int) -> dict:
    W = spec.group
    failures = []
    count = 0
    for g in W.ball(ball):
        count += 1
        if W.length_formula(g) != W.length_inversions(g):
            failures.append({"mu": [str(c) for c in g.mu], "word": list(W.reduced_word(g))})
    return _report("length", spec, count, failures)


def _sampled_words(spec: InstanceSpec, seed: int):
    """The 50 (word, weight) draws of ``basis`` and ``filtration``: words of 1 to 6
    letters, weights from the orbit window of length 2 around the base point."""
    rng = random.Random(seed)
    nletters = len(spec.group.ars.delta)
    window = sorted(spec.group.orbit_window(spec.omega.base_point, 2))
    for _ in range(50):
        word = [rng.randrange(nletters) for _ in range(rng.randrange(1, 7))]
        yield word, window[rng.randrange(len(window))]


def check_basis(spec: InstanceSpec, ball: int, seed: int) -> dict:
    alg = spec.algebra()
    failures = []
    count = 0
    for word, lam in _sampled_words(spec, seed):
        count += 1
        op = alg.tau_word(word, lam)
        try:
            nf = alg.normal_form(op)
        except NotInAlgebra:
            failures.append({"word": word, "lambda": _strs(spec, lam), "reason": "denominator"})
            continue
        if alg.reconstruct(nf) != op:
            failures.append({"word": word, "lambda": _strs(spec, lam), "reason": "roundtrip"})
    return _report("basis", spec, count, failures)


def check_braid(spec: InstanceSpec, ball: int, seed: int) -> dict:
    alg = spec.algebra()
    W = spec.group
    n = len(W.ars.delta)
    weights = sorted(W.orbit_window(spec.omega.base_point, min(ball, 4)))
    failures = []
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            m = alg.braid_order(i, j)
            if m is None:
                continue
            for lam in weights:
                count += 1
                deg, _ = alg.braid_defect(i, j, lam)
                if deg is not None and deg > m - 1:
                    failures.append({"pair": [i, j], "lambda": _strs(spec, lam), "degree": deg})
    return _report("braid", spec, count, failures)


def check_filtration(spec: InstanceSpec, ball: int, seed: int) -> dict:
    alg = spec.algebra()
    failures = []
    count = 0
    for word, lam in _sampled_words(spec, seed):
        count += 1
        deg = alg.normal_form(alg.tau_word(word, lam)).filtration_degree(spec.group)
        if deg is not None and deg > len(word):
            failures.append({"word": word, "degree": deg})
    return _report("filtration", spec, count, failures)


def check_integral(spec: InstanceSpec, ball: int, seed: int) -> dict:
    omega = spec.omega
    W = spec.group
    alg = spec.algebra()
    g1 = spec.gamma_choice.gamma
    g2 = tuple(c * 2 - r for c, r in zip(g1, two_rho_coroot(W)))
    bof = integral_b_order_function(omega)
    failures = []
    count = 0
    for ell in omega.torus.points:
        # the literal integral: omega at each walked deep lift, summed over
        # the positive affine roots with differential alpha
        tables = [alg.moved(pregamma_point(omega, g, ell)).items() for g in (g1, g2)]
        for alpha in W.rs.positive_roots:
            count += 1
            if any(sum(v for b, v in table if b.level >= 0 and b.alpha == alpha)
                   != bof.value(ell, alpha) for table in tables):
                failures.append({"ell": _strs(spec, ell), "alpha": list(alpha)})
    if spec.ddaha_h is not None:
        rhs = from_ddaha_k(W, spec.ddaha_h, omega.base_point)
        count += 1
        if bof.table != rhs.table:
            failures.append({"reason": "integral of the affine extraction != finite extraction"})
    return _report("integral", spec, count, failures)


def check_iso(spec: InstanceSpec, ball: int, seed: int) -> dict:
    alg = spec.algebra()
    B = spec.b_algebra()
    report = iso_check(alg, B, spec.gamma_choice.gamma)
    failures = [{"word": repr(d)} for d in report.discrepancies]
    out = _report("iso", spec, report.generators, failures)
    out["discrepancies"] = failures
    return out


def check_frobenius(spec: InstanceSpec, ball: int, seed: int) -> dict:
    rng = random.Random(seed)
    B = spec.b_algebra()
    expected = B.expected_gram_rank()
    point = tuple(Fraction(2 * k + 3, 2 * k + 5) for k in range(B.rank))
    failures = []
    rank = 0
    span = []
    # negative generator degrees can push the needed spanning degree up;
    # raise the bound until the trace pairing reaches the module rank
    for bound in (4, 6, 8):
        span, matrix = B.gram_matrix(bound)
        rank = gram_rank_at_point(matrix, point)
        if rank == expected:
            break
    if rank != expected:
        failures.append({"reason": "gram rank", "rank": rank, "expected": expected})
    # trace symmetry under the anti-involution, on sampled generator words
    # the tau letters, then the coordinates, each summed over the orbit
    gens = [B.zero()] * (2 * B.rank)
    for ell in B.orbit:
        for i in range(B.rank):
            gens[i] = gens[i] + B.tau_letter(i, ell)
            gens[B.rank + i] = gens[B.rank + i] + B.poly_mult(Poly.variable(B.rank, i), ell)
    count = len(span)
    for _ in range(20):
        wx = [rng.randrange(len(gens)) for _ in range(rng.randrange(1, 3))]
        wy = [rng.randrange(len(gens)) for _ in range(rng.randrange(1, 3))]

        def prod(word):
            acc = gens[word[0]]
            for k in word[1:]:
                acc = B.mul(acc, gens[k])
            return acc

        count += 1
        lhs = B.frobenius_trace(B.mul(prod(wx), prod(wy)))
        rhs = B.frobenius_trace(B.mul(prod(list(reversed(wy))), prod(list(reversed(wx)))))
        if lhs != rhs:
            failures.append({"reason": "trace symmetry", "x": wx, "y": wy})
    return _report("frobenius", spec, count, failures)


def check_kernel(spec: InstanceSpec, ball: int, seed: int) -> dict:
    """Truncation by e_gamma kills a clan's module exactly when the clan holds
    no idempotent weight; each clan that holds one must be generic (its
    recession cone full dimensional), and the projective, the sum over all
    clans, must survive."""
    dec = enumerate_clans(spec.omega)
    met = clans_met(spec.group, dec.walls, spec.gamma_choice.gamma)
    failures = [{"clan": list(sign), "reason": "criteria disagree"}
                for sign in dec.clans if (sign in met) != dec.generic[sign]]
    if not any(dec.generic[sign] for sign in met):
        failures.append({"clan": "full", "reason": "projective character must not vanish"})
    return _report("kernel", spec, len(dec.clans) + 1, failures)


def check_gamma(spec: InstanceSpec, ball: int, seed: int) -> dict:
    alg = spec.algebra()
    B = spec.b_algebra()
    g1 = spec.gamma_choice.gamma
    g2 = tuple(c * 2 - r for c, r in zip(g1, two_rho_coroot(spec.group)))
    rep = gamma_change(alg, B, g1, g2)
    failures = []
    if not rep.left_identity:
        failures.append({"reason": "phi phi' != e_gamma"})
    if not rep.right_identity:
        failures.append({"reason": "phi' phi != e_gamma'"})
    failures.extend({"reason": "conjugation", "where": repr(w)} for w in rep.conjugation_failures)
    return _report("gamma", spec, 2 + len(B.orbit) * (spec.group.rs.rank + 1), failures)


def check_product(spec: InstanceSpec, ball: int, seed: int) -> dict:
    alg = spec.algebra()
    B = spec.b_algebra()
    gamma = spec.gamma_choice.gamma
    failures = []
    count = 0
    for w in spec.group.finite.elements:
        section = kz.pregamma_group(alg.group, gamma, w)
        for ell in B.orbit:
            count += 1
            rep = product_formula_check(alg, B, gamma, section, ell)
            if not rep.ok:
                failures.append({"w": list(spec.group.finite.word(w)),
                                 "ell": _strs(spec, ell), "scalar": str(rep.scalar)})
    return _report("product", spec, count, failures)


CHECK_FUNCS = {
    "length": check_length,
    "basis": check_basis,
    "braid": check_braid,
    "filtration": check_filtration,
    "integral": check_integral,
    "iso": check_iso,
    "frobenius": check_frobenius,
    "kernel": check_kernel,
    "gamma": check_gamma,
    "product": check_product,
}


# ----- commands -----

def cmd_describe(spec: InstanceSpec, as_json: bool) -> int:
    dec = enumerate_clans(spec.omega)
    window = spec.group.orbit_window(spec.omega.base_point, spec.ball)
    data = {
        "instance": spec.digest(),
        "rank": spec.group.rs.rank,
        "positive_roots": len(spec.group.rs.positive_roots),
        "highest_root": list(spec.group.rs.highest_root),
        "orbit_window": len(window),
        "e_gamma": [_strs(spec, lam)
                    for lam in e_gamma_weights(spec.omega, spec.gamma_choice.gamma)],
        "clans": [
            {
                "signs": list(sign),
                "generic": dec.generic[sign],
                "representative_word": list(spec.group.reduced_word(dec.representative[sign])),
            }
            for sign in dec.clans
        ],
    }
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(f"instance {data['instance']['type']}  lambda0={data['instance']['lambda0']}")
        print(f"rank {data['rank']}  positive roots {data['positive_roots']}  "
              f"highest root {data['highest_root']}")
        print(f"orbit window (ball {spec.ball}): {data['orbit_window']} weights")
        print(f"idempotent weights: {data['e_gamma']}")
        print(f"clans: {len(data['clans'])}")
        for clan in data["clans"]:
            flag = "generic" if clan["generic"] else "bounded direction"
            print(f"  signs {clan['signs']}  {flag}  rep word {clan['representative_word']}")
    return 0


def cmd_verify(spec: InstanceSpec, check: str, ball: int, seed: int, as_json: bool) -> int:
    t0 = time.perf_counter()
    report = CHECK_FUNCS[check](spec, ball, seed)
    elapsed = time.perf_counter() - t0
    print(f"[{check}] {elapsed:.2f}s", file=sys.stderr)
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        status = "PASS" if report["pass"] else "FAIL"
        print(f"{status} {check}: {report['instances']} instances, "
              f"{len(report['failures'])} failures")
        for f in report["failures"][:20]:
            print(f"  counterexample: {f}")
    return 0 if report["pass"] else 1


def cmd_example_a1(as_json: bool) -> int:
    spec = rank1_quarter()
    alg = spec.algebra()
    B = spec.b_algebra()
    W = spec.group
    gamma = spec.gamma_choice.gamma
    failures = []

    dec = enumerate_clans(spec.omega)
    clans_ok = (dec.clan_count() == 3
                and sorted(dec.generic.values()) == [False, True, True])
    if not clans_ok:
        failures.append("clan decomposition")

    weights = e_gamma_weights(spec.omega, gamma)
    lp, lm = spec.omega.over.key(["-3/4"]), spec.omega.over.key(["-5/4"])
    if weights != [lm, lp]:
        failures.append("idempotent weights")

    da = alg.root_poly(W.rs.simple_root(0))
    scalars = {}
    products = {}
    for lam in (lp, lm):
        prod = products[lam] = alg.tau_word([1, 0, 1, 0, 1], lam)
        # extract c with the first block's coefficient = c * da
        ratio = prod.entries[0][1] / RatFunc.from_poly(da)
        scalars[lam] = ratio.num.constant_value() if ratio.is_constant() else None
    product_ok = (scalars[lp] is not None and scalars[lp] == scalars[lm] and scalars[lp] != 0
                  and len(products[lp].entries) == 1)
    if not product_ok:
        failures.append("five-letter products")

    alpha = W.rs.simple_root(0)
    omega_vals = {str(spec.omega.over(ell)): B.bof.value(ell, alpha) for ell in B.orbit}
    if set(omega_vals.values()) != {1}:
        failures.append("integral values")

    iso = iso_check(alg, B, gamma)
    if not iso.ok():
        failures.append("isomorphism table")

    growth = {}
    kernel_flags = {}
    met = clans_met(W, dec.walls, gamma)
    bounded = next(s for s in dec.clans if not dec.generic[s])
    for name, sign in [("bounded", bounded)] + [
        (f"generic{k}", s) for k, s in enumerate(dec.generic_clans())
    ]:
        growth[name] = dec.dimension[sign]
        kernel_flags[name] = sign not in met
        if (sign in met) != dec.generic[sign]:
            failures.append(f"kernel criteria for {name}")
    if not (kernel_flags["bounded"] and growth["bounded"] == 0):
        failures.append("bounded-clan kernel flag")
    if any(kernel_flags[k] or growth[k] != 1 for k in growth if k != "bounded"):
        failures.append("generic-clan kernel flags")
    proj_exp = max(dec.dimension.values())
    if proj_exp != 1:
        failures.append("projective growth exponent")

    data = {
        "clans": dec.clan_count(),
        "generic_clans": len(dec.generic_clans()),
        "e_gamma": [_strs(spec, lam) for lam in weights],
        "product_scalar": str(scalars[lp]),
        "integral_values": omega_vals,
        "iso_ok": iso.ok(),
        "growth_exponents": growth,
        "projective_exponent": proj_exp,
        "kernel_flags": kernel_flags,
        "failures": failures,
        "pass": not failures,
    }
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print("worked rank-1 example")
        print(f"  clans: {data['clans']} ({data['generic_clans']} generic)")
        print(f"  idempotent weights: {data['e_gamma']}")
        print(f"  five-letter product scalar (times the root): {data['product_scalar']}")
        print(f"  finite order values: {data['integral_values']}")
        print(f"  isomorphism table: {'ok' if data['iso_ok'] else 'MISMATCH'}")
        print(f"  growth exponents: {data['growth_exponents']} projective {data['projective_exponent']}")
        print(f"  kernel flags: {data['kernel_flags']}")
        print("PASS" if data["pass"] else f"FAIL: {failures}")
    return 0 if data["pass"] else 1


def _length_bound(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"a length bound is >= 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qdha", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("describe", help="print root data, orbit window and clan table")
    d.add_argument("--instance", required=True)
    d.add_argument("--json", action="store_true")

    v = sub.add_parser("verify", help="run a named verification sweep")
    v.add_argument("--instance", required=True)
    v.add_argument("--check", required=True, choices=CHECKS)
    v.add_argument("--ball", type=_length_bound, default=None)
    v.add_argument("--seed", type=int, default=20250808)
    v.add_argument("--json", action="store_true")

    e = sub.add_parser("example-a1", help="reproduce the rank-1 worked example end to end")
    e.add_argument("--json", action="store_true")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        spec = load_instance(args.instance) if args.command != "example-a1" else None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            if args.command == "describe":
                code = cmd_describe(spec, args.json)
            elif args.command == "verify":
                ball = args.ball if args.ball is not None else spec.ball
                code = cmd_verify(spec, args.check, ball, args.seed, args.json)
            else:
                code = cmd_example_a1(args.json)
    except UNDECIDED as exc:
        reason = " ".join(str(exc).split())
        print(f"undecided: {type(exc).__name__}: {reason}", file=sys.stderr)
        return EXIT_UNDECIDED
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull, as the Python
        # docs advise, so that the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
