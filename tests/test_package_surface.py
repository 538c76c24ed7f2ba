"""The installed package ships only what a user or the benchmark reaches.

A top-level function or class of `src/hmvol` must be referenced by another
part of the package, named in README, listed in `hmvol.__all__` or read by
`hmbench`; code that only tests read belongs in `tests/`.  The closed-form
fixtures are the second route that the engine is checked against, so they
import none of the Jordan, density or Euler-product code.
"""

import ast
import re
from pathlib import Path

import pytest

import hmvol

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hmvol"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ENGINE_ROUTES = {"hmvol.jordan", "hmvol.density", "hmvol.volumes"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names_read(stmt: ast.stmt) -> set[str]:
    """Every name `stmt` reads, imports or looks up as an attribute, apart
    from its own name when it is a definition (recursion is no caller)."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    if isinstance(stmt, DEFS):
        names.discard(stmt.name)
    return names


def test_every_package_name_is_reached_outside_tests():
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, DEFS):
                defined.append((path.name, stmt.name))
            read |= _names_read(stmt)
    outside = (ROOT / "README.md").read_text() + "".join(
        p.read_text() for p in sorted((ROOT / "hmbench").glob("*.py")))
    unreached = [
        f"{module}:{name}" for module, name in defined
        if name not in read and name not in hmvol.__all__
        and not re.search(rf"\b{re.escape(name)}\b", outside)
    ]
    assert not unreached, f"reached only from tests: {unreached}"


def _imported_modules(tree: ast.Module) -> set[str]:
    """Absolute names of the modules `tree` imports, with the package's
    relative imports resolved and `from hmvol import x` read as hmvol.x."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["hmvol" if node.level else "", node.module]))
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


@pytest.mark.parametrize("path", [PACKAGE / "families.py", ROOT / "tests" / "family_fixtures.py"],
                         ids=["families", "family_fixtures"])
def test_fixtures_import_no_engine_route(path):
    assert _imported_modules(_parse(path)) & ENGINE_ROUTES == set()
