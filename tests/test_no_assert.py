"""No `assert` statement in the package: `python -O` strips them.

Every invariant of `cfshrink` is checked by code that raises, so that it
still holds when the interpreter runs with optimizations on.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cfshrink"


def _asserts(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_package_has_no_assert():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no modules found under {SRC}"
    found = {p.name: lines for p in files if (lines := _asserts(p))}
    assert not found, f"assert statements (stripped by python -O): {found}"


def test_the_scan_sees_asserts(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(x):\n    assert x > 0\n    return x\n")
    assert _asserts(probe) == [2]
