"""Golden outputs: ``verify --json`` and ``example-a1 --json`` stdout, byte for byte.

The files under ``tests/golden/`` hold the stdout of the idempotent-truncation
sweeps on the two A1 instances, of every sweep that reads the order function
on the A2, C2 and G2 instances (except G2 ``iso`` and ``gamma``, which take
over a second), and of the worked example.  A refactor must leave every byte
and every exit code unchanged; a deliberate change of a report regenerates the
file, e.g. ``qdha verify --instance instances/a1_quarter.json --check iso --json``.
"""
from pathlib import Path

import pytest

from qdha.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

VERIFY = [(name, check) for name in ("a1_quarter", "a1_ddaha_half")
          for check in ("iso", "gamma", "product", "integral")]
VERIFY += [(name, check) for name in ("a2_generic", "a2_wall", "c2_generic", "g2_generic")
           for check in ("basis", "braid", "filtration", "integral", "iso", "gamma", "product")
           if (name, check) not in {("g2_generic", "iso"), ("g2_generic", "gamma")}]


@pytest.mark.parametrize("name,check", VERIFY, ids=[f"{n}-{c}" for n, c in VERIFY])
def test_verify_json_matches_golden(name, check, capsys):
    code = main(["verify", "--instance", str(ROOT / "instances" / f"{name}.json"),
                 "--check", check, "--json"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.{check}.json").read_text()


def test_example_a1_json_matches_golden(capsys):
    assert main(["example-a1", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "example-a1.json").read_text()
