"""Module structure: no adaptlin module imports another's private names,
and the bounds and the fooling construction read the spectrum at the
partition boundaries through one ladder."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adaptlin"


def private_imports(path):
    """``module:line name`` for each underscore name ``path`` imports from
    adaptlin; dunders such as ``__version__`` are public by convention."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").startswith("adaptlin")):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                yield f"{path.name}:{node.lineno} {alias.name}"


def test_the_package_sources_are_found():
    assert {"algorithm.py", "cli.py", "spectrum.py"} \
        <= {path.name for path in PACKAGE.glob("*.py")}


def test_no_module_imports_a_private_name_of_another():
    found = [line for path in sorted(PACKAGE.glob("*.py"))
             for line in private_imports(path)]
    assert found == []


LADDER = "boundary_values"


def value_calls(path):
    """(line, inside the ladder) for each ``.value(`` call in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    ladder = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == LADDER
              for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "value"):
            yield f"{path.name}:{node.lineno}", id(node) in ladder


def test_the_bounds_and_the_construction_read_lam_only_in_the_ladder():
    calls = [call for name in ("analysis.py", "adversarial.py")
             for call in value_calls(PACKAGE / name)]
    assert [line for line, inside in calls if not inside] == []
    assert any(inside for _, inside in calls)
