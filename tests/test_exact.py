"""The package computes in exact arithmetic only: no float enters ``src/qdha``."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qdha"


def test_no_float_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{path.name}:{node.lineno}: name float")
    assert found == []
