"""Committed faults: each sweep must FAIL, with its own reason, on a broken copy of the code.

A fault is a monkeypatch of one function.  Every case first runs the sweep
without the fault and requires a PASS, so that a FAIL under the fault is the
fault's doing; a fault must never end in a traceback or exit code 2.
"""
import json
from pathlib import Path

import pytest

from qdha import cli, kz
from qdha.algebra import Algebra
from qdha.bqha import BAlgebra
from qdha.cli import main
from qdha.instances import load_instance
from qdha.rootsys import vec

ROOT = Path(__file__).resolve().parent.parent

ISO_INSTANCES = ["a1_quarter", "a1_ddaha_half", "a2_generic", "a2_wall", "c2_generic",
                 "g2_generic"]


def verify(name, check, capsys):
    code = main(["verify", "--instance", str(ROOT / "instances" / f"{name}.json"),
                 "--check", check, "--json"])
    return code, json.loads(capsys.readouterr().out)


def verify_iso(name, capsys):
    return verify(name, "iso", capsys)


# the number of lifted tau_w e(ell) whose top term the fault breaks
OFF_BY_ONE = dict(zip(ISO_INSTANCES, [2, 2, 30, 15, 56, 132]))


@pytest.mark.parametrize("name", ISO_INSTANCES)
def test_iso_fails_on_a_finite_order_value_off_by_one(name, monkeypatch, capsys):
    code, report = verify_iso(name, capsys)
    assert code == 0 and report["pass"]
    letter = BAlgebra._letter

    def off_by_one(self, i, ell):
        alpha, m, target = letter(self, i, ell)
        return alpha, m + 1, target

    monkeypatch.setattr(BAlgebra, "_letter", off_by_one)
    code, report = verify_iso(name, capsys)
    assert code == 1 and not report["pass"]
    assert len(report["discrepancies"]) == OFF_BY_ONE[name]
    assert all(d["word"].startswith("('triangularity'") for d in report["discrepancies"])


@pytest.mark.parametrize("name", ISO_INSTANCES)
def test_iso_fails_on_a_collapsed_lift(name, monkeypatch, capsys):
    code, report = verify_iso(name, capsys)
    assert code == 0 and report["pass"]
    omega = load_instance(ROOT / "instances" / f"{name}.json").omega
    orbit = omega.torus.points
    pregamma_point = kz.pregamma_point

    def collapsed(omega, gamma, ell):
        # the second orbit point lifts to the first one's lift
        ell = omega.torus.point(ell)
        return pregamma_point(omega, gamma, orbit[0] if ell == orbit[1] else ell)

    monkeypatch.setattr(kz, "pregamma_point", collapsed)
    code, report = verify_iso(name, capsys)
    assert code == 1 and not report["pass"]
    # the report names the orbit points as Fraction points
    p0, p1 = omega.over(orbit[0]), omega.over(orbit[1])
    assert report["discrepancies"] == [{"word": repr(("coverage", p0, p1))}]


# the number of (w, ell) pairs whose scalar the fault breaks
WRONG_SIDE = {"a1_quarter": 2, "a2_generic": 24, "a2_wall": 12, "c2_generic": 33, "g2_generic": 77}


@pytest.mark.parametrize("name", sorted(WRONG_SIDE))
def test_product_fails_on_the_section_conjugated_on_the_wrong_side(name, monkeypatch, capsys):
    code, report = verify(name, "product", capsys)
    assert code == 0 and report["pass"]

    def wrong_side(group, gamma, w):
        # X^{-gamma} w X^{gamma} in place of X^{gamma} w X^{-gamma}
        xg = group.translation(gamma)
        return group.compose(group.compose(group.inverse(xg), group.from_finite(w)), xg)

    monkeypatch.setattr(kz, "pregamma_group", wrong_side)
    code, report = verify(name, "product", capsys)
    assert code == 1 and not report["pass"]
    assert len(report["failures"]) == WRONG_SIDE[name]


# the number of (w, ell) pairs with a nonempty affine inversion product
DROPPED = {"a1_quarter": 2, "a2_generic": 24, "a2_wall": 12, "c2_generic": 31, "g2_generic": 71}


@pytest.mark.parametrize("name", sorted(DROPPED))
def test_product_fails_on_a_dropped_affine_inversion_pair(name, monkeypatch, capsys):
    code, report = verify(name, "product", capsys)
    assert code == 0 and report["pass"]
    inversion_orders = Algebra.inversion_orders

    def dropped(self, g, lam):
        # the first (root, order value) pair of the inversion set left out
        return inversion_orders(self, g, lam)[1:]

    monkeypatch.setattr(Algebra, "inversion_orders", dropped)
    code, report = verify(name, "product", capsys)
    assert code == 1 and not report["pass"]
    assert len(report["failures"]) == DROPPED[name]
    assert {f["scalar"] for f in report["failures"]} == {"0"}


def test_frobenius_fails_on_twists_composed_in_the_wrong_order(monkeypatch, capsys):
    code, report = verify("a2_generic", "frobenius", capsys)
    assert code == 0 and report["pass"]

    def wrong_order(self, y):
        # BAlgebra._twisted_column with the head twist chosen so that u2 u1 = w0
        w0 = self.fin.longest_element()
        out = []
        for (s2, t2, u2), r2 in y.entries:
            u1 = self.fin.compose(self.fin.inverse(u2), w0)
            out.append((s2, t2, u1, self.act_rat(u1, r2)))
        return out

    monkeypatch.setattr(BAlgebra, "_twisted_column", wrong_order)
    code, report = verify("a2_generic", "frobenius", capsys)
    assert code == 1 and not report["pass"]
    assert [f["reason"] for f in report["failures"]] == ["gram rank"]


# the number of clans whose idempotent-weight flag the fault flips; on C2 and
# G2 the walls pass through the origin and the fault changes nothing
AT_ZERO = {"a1_quarter": 2, "a1_ddaha_half": 2, "a2_generic": 4, "a2_wall": 3, "a3_generic": 8}


@pytest.mark.parametrize("name", sorted(AT_ZERO))
def test_kernel_fails_on_idempotent_weights_taken_at_gamma_zero(name, monkeypatch, capsys):
    code, report = verify(name, "kernel", capsys)
    assert code == 0 and report["pass"]
    clans_met = kz.clans_met

    def at_zero(group, walls, gamma):
        # the weights w lambda_0 in place of their deep lifts X^gamma w lambda_0
        return clans_met(group, walls, vec((0,) * len(gamma)))

    monkeypatch.setattr(cli, "clans_met", at_zero)
    code, report = verify(name, "kernel", capsys)
    assert code == 1 and not report["pass"]
    assert [f["reason"] for f in report["failures"]] == ["criteria disagree"] * AT_ZERO[name]
