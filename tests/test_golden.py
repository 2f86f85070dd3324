"""Golden outputs: ``verify --json``, ``describe --json`` and ``example-a1 --json`` stdout, byte for byte.

The files under ``tests/golden/`` hold the stdout of every sweep on the A1,
A2, C2, G2 and A3 instances (``a2_wall`` ``frobenius`` also at seed 1, where it
fails), of the ``length``, ``basis``, ``braid``, ``filtration``, ``integral``
and ``kernel`` sweeps on the A4 instance, of ``describe`` on every instance
file, and of the worked example.  Each sweep left out takes over four
seconds; the slowest one pinned, A3 ``frobenius``, takes about two.  The ``frobenius`` reports of the
benchmark's ``a2_wall_lite`` data on seeds 1-12 pin which seeds fail.
A refactor must leave every byte and every exit code unchanged; a deliberate
change of a report regenerates the file, e.g. ``qdha verify --instance
instances/a1_quarter.json --check iso --json``.
"""
import json
from pathlib import Path

import pytest

from qdha.cli import check_frobenius, main
from qdha.instances import instance_from_data

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

VERIFY = [(name, check) for name in ("a1_quarter", "a1_ddaha_half")
          for check in ("basis", "braid", "filtration", "iso", "gamma", "product", "integral")]
VERIFY += [(name, check) for name in ("a2_generic", "a2_wall", "c2_generic", "g2_generic")
           for check in ("basis", "braid", "filtration", "integral", "iso", "gamma", "product")]
VERIFY += [("a3_generic", check)
           for check in ("length", "basis", "braid", "filtration", "integral", "iso", "gamma",
                         "product")]
VERIFY += [("a4_generic", check) for check in ("length", "basis", "braid", "filtration", "integral")]


@pytest.mark.parametrize("name,check", VERIFY, ids=[f"{n}-{c}" for n, c in VERIFY])
def test_verify_json_matches_golden(name, check, capsys):
    code = main(["verify", "--instance", str(ROOT / "instances" / f"{name}.json"),
                 "--check", check, "--json"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{check}.json").read_text()


# (instance, check) for the clan and length sweeps
CLAN_LENGTH = [(name, check)
               for name in ("a1_quarter", "a1_ddaha_half", "a2_generic", "a2_wall",
                            "c2_generic", "g2_generic")
               for check in ("kernel", "length")]
CLAN_LENGTH += [("a3_generic", "kernel"), ("a4_generic", "kernel")]


@pytest.mark.parametrize("name,check", CLAN_LENGTH, ids=[f"{n}-{c}" for n, c in CLAN_LENGTH])
def test_verify_kernel_and_length_match_golden(name, check, capsys):
    assert main(["verify", "--instance", str(ROOT / "instances" / f"{name}.json"),
                 "--check", check, "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{check}.json").read_text()


DESCRIBE = ["a1_quarter", "a1_ddaha_half", "a2_generic", "a2_wall", "a3_generic", "a4_generic",
            "c2_generic", "g2_generic"]


@pytest.mark.parametrize("name", DESCRIBE)
def test_describe_json_matches_golden(name, capsys):
    assert main(["describe", "--instance", str(ROOT / "instances" / f"{name}.json"), "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.describe.json").read_text()


def test_example_a1_json_matches_golden(capsys):
    assert main(["example-a1", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "example-a1.json").read_text()


# (instance, seed or None for the default, exit code)
FROBENIUS = [("a1_quarter", None, 0), ("a1_ddaha_half", None, 0), ("a2_generic", None, 0),
             ("c2_generic", None, 0), ("g2_generic", None, 0), ("a2_wall", None, 0),
             ("a2_wall", 1, 1), ("a3_generic", None, 0)]


@pytest.mark.parametrize("name,seed,code", FROBENIUS,
                         ids=[f"{n}-seed{s}" if s else n for n, s, _ in FROBENIUS])
def test_verify_frobenius_matches_golden(name, seed, code, capsys):
    args = ["verify", "--instance", str(ROOT / "instances" / f"{name}.json"),
            "--check", "frobenius", "--json"]
    suffix = ""
    if seed is not None:
        args += ["--seed", str(seed)]
        suffix = f".seed{seed}"
    assert main(args) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.frobenius{suffix}.json").read_text()


# the benchmark's a2_wall_lite instance: the a2_wall base point, order -1 on +-alpha_1 only
A2_WALL_LITE = {
    "type": "A2",
    "lambda0": ["1/7", "2/7"],
    "omega": [
        {"root": {"alpha": [1, 0], "level": 0}, "value": -1},
        {"root": {"alpha": [-1, 0], "level": 0}, "value": -1},
    ],
}


def test_frobenius_seeds_pinned_on_a2_wall_lite():
    reports = {str(s): check_frobenius(instance_from_data(A2_WALL_LITE), 0, s) for s in range(1, 13)}
    assert {int(s) for s, rep in reports.items() if not rep["pass"]} == {1, 5, 6, 8, 9, 11}
    stored = (GOLDEN / "a2_wall_lite.frobenius.seeds.json").read_text()
    assert json.dumps(reports, indent=2, sort_keys=True) + "\n" == stored
