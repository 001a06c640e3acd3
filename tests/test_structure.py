"""Module structure: no adaptlin module imports another's private names."""

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
