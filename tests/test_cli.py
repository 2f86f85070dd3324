"""Command line behaviour: reports, exit codes, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qdha import cli, kz
from qdha.algebra import NonTerminating, RatOperator
from qdha.clans import IncompleteExploration
from qdha.instances import instance_from_data, load_instance
from qdha.rootsys import AffineRoot
from qdha.cli import main

ROOT = Path(__file__).resolve().parent.parent
A1 = str(ROOT / "instances" / "a1_quarter.json")
A1H = str(ROOT / "instances" / "a1_ddaha_half.json")
A2 = str(ROOT / "instances" / "a2_generic.json")


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_describe_a1(capsys):
    code, out = run_main(["describe", "--instance", A1], capsys)
    assert code == 0
    assert "clans: 3" in out
    assert "generic" in out


def test_describe_json_deterministic(capsys):
    code1, out1 = run_main(["describe", "--instance", A1, "--json"], capsys)
    code2, out2 = run_main(["describe", "--instance", A1, "--json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert len(data["clans"]) == 3
    assert data["e_gamma"] == [["-5/4"], ["-3/4"]]


def test_verify_length_passes(capsys):
    code, out = run_main(["verify", "--instance", A1, "--check", "length", "--ball", "6"], capsys)
    assert code == 0
    assert out.startswith("PASS")


def test_verify_braid_vacuous_on_a1(capsys):
    code, out = run_main(
        ["verify", "--instance", A1, "--check", "braid", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["instances"] == 0  # no finite braid pair in the rank-1 affinisation


def test_verify_iso_a1(capsys):
    code, out = run_main(["verify", "--instance", A1, "--check", "iso"], capsys)
    assert code == 0


def test_verify_integral_with_parameters(capsys):
    code, out = run_main(["verify", "--instance", A1H, "--check", "integral"], capsys)
    assert code == 0


def c2_ddaha(tmp_path, h):
    """A C2 instance given by ddaha_h parameters h at a generic base point."""
    path = tmp_path / "c2_ddaha.json"
    path.write_text(json.dumps({"type": "C2", "lambda0": ["1/5", "1/7"], "ddaha_h": h}))
    return str(path)


def test_ddaha_h_missing_a_length_class_is_a_usage_error(tmp_path, capsys):
    # C2 has roots of squared lengths 2 and 4; the file gives only 2
    code = main(["verify", "--instance", c2_ddaha(tmp_path, {"2": "1/2"}), "--check", "integral"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error: 'ddaha_h' gives no value for roots of squared length 4; "
                            "it gives squared lengths 2\n")


def test_ddaha_h_per_length_class_integral_passes_on_c2(tmp_path, capsys):
    # at lambda0 the short alpha_1 takes 9/35 and the long alpha_2 takes -4/35,
    # so each length class puts its own simple root into the support
    path = c2_ddaha(tmp_path, {"2": "9/35", "4": "-4/35"})
    spec = load_instance(path)
    assert spec.omega.support == {AffineRoot((1, 0), 0): 1, AffineRoot((0, 1), 0): 1}
    code, out = run_main(["verify", "--instance", path, "--check", "integral"], capsys)
    assert code == 0 and out.startswith("PASS integral")


def test_verify_unknown_check_usage_error(capsys):
    code = main(["verify", "--instance", A1, "--check", "nonsense"])
    assert code == 2


def test_missing_instance_file(capsys):
    code = main(["verify", "--instance", "no_such_file.json", "--check", "length"])
    assert code == 2


def test_malformed_instance_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "A1", "lambda0": ["1/4"]}))
    code = main(["describe", "--instance", str(bad)])
    assert code == 2
    bad.write_text(json.dumps({
        "type": "A1", "lambda0": ["1/4"],
        "omega": [{"root": {"alpha": [1], "level": 0}, "value": -1}],
    }))
    code = main(["describe", "--instance", str(bad)])
    assert code == 2


def a2_variant(tmp_path, **changes):
    data = json.loads(Path(A2).read_text())
    data.update(changes)
    path = tmp_path / "a2_variant.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("argv,changes,message", [
    (["describe"], {"lambda0": ["1/5"]}, "'lambda0' needs 2 entries, one per simple root; it has 1"),
    (["describe"], {"lambda0": ["1/5", "1/7", "1/11"]},
     "'lambda0' needs 2 entries, one per simple root; it has 3"),
    (["verify", "--check", "iso"], {"lambda0": ["1/5", "1/7", "1/11"]},
     "'lambda0' needs 2 entries, one per simple root; it has 3"),
    (["verify", "--check", "iso"], {"gamma": ["-2", "-2", "-2"]},
     "'gamma' needs 2 entries, one per simple root; it has 3"),
    (["verify", "--check", "iso"], {"gamma": ["-5/2", "-2"]},
     "gamma [-5/2, -2] is not in the coroot lattice"),
    (["verify", "--check", "length"], {"ball": -1}, "'ball' is -1; a length bound is >= 0"),
])
def test_malformed_instance_is_a_usage_error(tmp_path, capsys, argv, changes, message):
    code = main([argv[0], "--instance", a2_variant(tmp_path, **changes), *argv[1:]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def a2_root_variant(tmp_path, key, x):
    """a2_generic with ``key`` of its first support root set to x."""
    data = json.loads(Path(A2).read_text())
    target = data["omega"][0]
    (target if key == "value" else target["root"])[key] = x
    return a2_variant(tmp_path, omega=data["omega"])


def a1h_variant(tmp_path, **changes):
    data = json.loads(Path(A1H).read_text())
    data.update(changes)
    path = tmp_path / "a1h_variant.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("make,message", [
    (lambda tmp: a2_root_variant(tmp, "value", 1.7), "'value' is 1.7; it must be an integer"),
    (lambda tmp: a2_root_variant(tmp, "level", 0.5), "'level' is 0.5; it must be an integer"),
    (lambda tmp: a2_root_variant(tmp, "alpha", [1.5, 0]), "'alpha' is 1.5; it must be an integer"),
    (lambda tmp: a2_variant(tmp, ball=2.9), "'ball' is 2.9; it must be an integer"),
    (lambda tmp: a1h_variant(tmp, window=12.5), "'window' is 12.5; it must be an integer"),
], ids=["value", "level", "alpha", "ball", "window"])
def test_non_integer_instance_number_is_a_usage_error(tmp_path, capsys, make, message):
    # a number that must be an integer is refused, not truncated
    code = main(["describe", "--instance", make(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_integral_float_instance_numbers_load():
    # a float whose exact value is an integer is that integer
    data = json.loads(Path(A2).read_text())
    data["omega"][0]["value"] = 1.0
    data["ball"] = 8.0
    spec = instance_from_data(data)
    assert spec.ball == 8 and type(spec.ball) is int
    assert sorted(spec.omega.support.values()) == [1, 1, 1]
    assert all(type(v) is int for v in spec.omega.support.values())


@pytest.mark.parametrize("text", ["[1, 2]", '{"type": "A2", "lambda0": 5, "omega": []}'])
def test_instance_of_the_wrong_shape_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "shape.json"
    path.write_text(text)
    code = main(["describe", "--instance", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_instance_gamma_is_stored_as_integers(tmp_path):
    gamma = load_instance(a2_variant(tmp_path, gamma=["-2", "-4/2"])).gamma_choice.gamma
    assert gamma == (-2, -2) and all(type(c) is int for c in gamma)


def test_negative_ball_option_is_a_usage_error(capsys):
    code = main(["verify", "--instance", A2, "--check", "length", "--ball", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        "error: argument --ball: a length bound is >= 0, got -1")


def test_example_a1(capsys):
    code, out = run_main(["example-a1", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["clans"] == 3
    assert data["product_scalar"] == "1"
    assert data["projective_exponent"] == 1


@pytest.mark.parametrize("argv,code", [
    (["verify", "--instance", A1, "--check", "length", "--json"], 0),
    (["describe", "--instance", str(ROOT / "instances" / "a2_wall.json"), "--json"], 0),
])
def test_reader_closing_stdout_early_keeps_the_exit_code(argv, code):
    # as in `qdha ... | head -1`: the reader is gone before the report is
    # written, so writing it fails; the exit code is still the verdict's
    read, write = os.pipe()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen([sys.executable, "-m", "qdha", *argv], stdout=write,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        os.close(write)
        os.close(read)
        err = proc.stderr.read()
    assert proc.returncode == code
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "qdha", "describe", "--instance", A1],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert result.returncode == 0
    assert "clans: 3" in result.stdout


@pytest.mark.parametrize("exc", [
    NotImplementedError("hyperplane cover implemented for rank <= 2"),
    ArithmeticError("the two length formulas disagree"),
    ZeroDivisionError("division by zero"),
    NonTerminating("normal-form peel did not shrink"),
    IncompleteExploration("search produced infeasible sign vectors\nsecond line"),
    ValueError("block does not come from an affine Weyl element"),
    KeyError((1, 2)),
])
def test_undecided_sweep_exit_code(monkeypatch, capsys, exc):
    def raising_sweep(spec, ball, seed):
        raise exc

    monkeypatch.setitem(cli.CHECK_FUNCS, "kernel", raising_sweep)
    code = main(["verify", "--instance", A1, "--check", "kernel"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_UNDECIDED == 3
    assert captured.out == ""
    # one line, whatever the exception's message looks like
    assert captured.err == f"undecided: {type(exc).__name__}: {' '.join(str(exc).split())}\n"


def test_value_error_inside_a_sweep_is_undecided(monkeypatch, capsys):
    # lifted blocks whose targets leave the coroot lattice: the iso sweep's
    # element_of_entry raises a ValueError once the instance has loaded
    lift = kz.lift

    def shifted(omega, gamma, op):
        # targets moved by 1/D, off every coroot-lattice coset of the orbit
        return RatOperator.from_dict({
            (src, tuple(c + 1 for c in tgt), u): r
            for (src, tgt, u), r in lift(omega, gamma, op).entries})

    monkeypatch.setattr(kz, "lift", shifted)
    code = main(["verify", "--instance", A1, "--check", "iso"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_UNDECIDED
    assert captured.out == ""
    assert captured.err.startswith("undecided: ValueError: block ")


def test_a3_kernel_decides(tmp_path, capsys):
    # the kernel criterion is exact in every rank: idempotent weights against
    # recession cone dimensions
    inst = tmp_path / "a3.json"
    inst.write_text(json.dumps({
        "type": "A3", "lambda0": ["1/5", "1/7", "1/11"],
        "omega": [{"root": {"alpha": alpha, "level": level}, "value": 1}
                  for alpha, level in [([-1, -1, -1], 1), ([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0)]],
    }))
    code = main(["verify", "--instance", str(inst), "--check", "kernel"])
    assert code == 0
    assert capsys.readouterr().out == "PASS kernel: 16 instances, 0 failures\n"
