"""Guard against dead code in ``src/qdha``.

Every function, method and class, dunder methods aside, must be named somewhere in the
package outside its own definition, by code that is itself read; and no
module may import a name it never uses.  Names are matched bare, so a method
counts as read when any name, attribute or import in the package spells it.
A reference that only tests read lives in the tests.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qdha"


def _modules():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(modules):
    """(qualified name, bare name, module, first line, last line) of each definition
    except dunder methods."""
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            nodes = [(f"{mod}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                nodes += [(f"{mod}.{node.name}.{item.name}", item) for item in node.body
                          if isinstance(item, ast.FunctionDef)]
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            for qual, item in nodes:
                if not item.name.startswith("__"):
                    first = start if item is node else item.lineno
                    out.append((qual, item.name, mod, first, item.end_lineno))
    return out


def _references(modules):
    """(bare name, module, line) of every name, attribute and imported name."""
    out = []
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.append((node.id, mod, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, mod, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                out.extend((alias.name, mod, node.lineno) for alias in node.names)
    return out


def unread_definitions(modules) -> list[str]:
    """Definitions no read code names, found by removing them until none is left."""
    defs = _definitions(modules)
    refs = _references(modules)
    dead: set[str] = set()
    while True:
        spans = [(mod, lo, hi) for qual, _, mod, lo, hi in defs if qual in dead]
        live = [(name, mod, line) for name, mod, line in refs
                if not any(m == mod and lo <= line <= hi for m, lo, hi in spans)]
        new = {qual for qual, name, mod, lo, hi in defs if qual not in dead
               and not any(n == name and not (m == mod and lo <= line <= hi)
                           for n, m, line in live)}
        if not new:
            return sorted(dead)
        dead |= new


def unused_imports(modules) -> list[str]:
    out = []
    for mod, tree in modules.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= {elt.value for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        out.append(f"{mod}: {name}")
    return out


def test_every_definition_is_read():
    assert unread_definitions(_modules()) == []


def test_no_unused_imports():
    assert unused_imports(_modules()) == []
