"""Module structure: no adaptlin module imports another's private names,
the bounds and the fooling construction read the spectrum at the partition
boundaries through one ladder, and the spectrum is checked only where it
is first read."""

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


def attribute_calls(path, attr):
    """(function, line) for each ``.attr(`` call in ``path``, with the name
    of the innermost function around the call (None at module level)."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr):
            found.append((owner, f"{path.name}:{node.lineno}"))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_the_bounds_and_the_construction_read_lam_only_in_the_ladder():
    calls = [call for name in ("analysis.py", "adversarial.py")
             for call in attribute_calls(PACKAGE / name, "value")]
    assert [line for owner, line in calls if owner != "boundary_values"] == []
    assert calls


def test_the_spectrum_is_checked_only_where_it_is_first_read():
    # the table constructor, validate_prefix, the checked head of a rule,
    # and read_blocks past the head; nothing else checks lam again
    owners = sorted(owner for path in sorted(PACKAGE.glob("*.py"))
                    for owner, _ in attribute_calls(path, "check_run"))
    assert owners == ["__init__", "_checked_head", "read_blocks",
                      "validate_prefix"]
