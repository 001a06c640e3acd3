"""Module structure: no adaptlin module imports another's private names,
the bounds and the fooling construction read the spectrum at the partition
boundaries through one ladder, every lam that multiplies a coefficient
comes from one checked reader and one product former, and the CLI takes
its bounds and fooling pairs from the library."""

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


def attribute_calls(path, attr, skip=None):
    """(function, line) for each ``.attr(`` call with arguments in ``path``
    (a dict's ``.values()`` has none), with the name of the innermost
    function around the call (None at module level), leaving out the body
    of class ``skip``."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.ClassDef) and node.name == skip:
            return
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr and (node.args or node.keywords)):
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
    # the table constructor, and SingularSpectrum.checked past the
    # watermark; nothing else checks lam
    owners = sorted(owner for path in sorted(PACKAGE.glob("*.py"))
                    for owner, _ in attribute_calls(path, "_check_run"))
    assert owners == ["__init__", "checked"]


def test_only_the_reference_block_norm_reads_lam_unchecked():
    # outside SingularSpectrum every lam is read through ``checked``, but
    # for block_norm, the unchecked reference the tests compare against
    owners = [owner for path in sorted(PACKAGE.glob("*.py"))
              for owner, _ in attribute_calls(path, "values",
                                              skip="SingularSpectrum")]
    assert owners == ["block_norm"]


def test_lam_times_a_coefficient_is_formed_in_one_place():
    # outside SingularSpectrum lam is checked by spectrum.products, which
    # forms every product, by read_blocks for its lam_1 rule alone, and
    # where a cone member or the derivative enumeration is built; a second
    # product loop would add an owner
    owners = [owner for path in sorted(PACKAGE.glob("*.py"))
              for owner, _ in attribute_calls(path, "checked",
                                              skip="SingularSpectrum")]
    assert sorted(set(owners)) == ["__init__", "products",
                                   "random_cone_member", "read_blocks"]
    assert owners.count("read_blocks") == 1
    assert owners.count("__init__") == 1


def test_the_cli_decides_no_bound_and_no_fooling_pair():
    # bounds and fooling pairs come from analysis.bounds_table and
    # adversarial.fooling_certificates; cli.py only writes their records
    deciders = {"stop_block_bounds", "stop_block_bounds_rough",
                "stop_block_bound_first_terms", "complexity_lower_blocks",
                "boundary_ratio", "tolerance_shrink_factor",
                "fooling_inputs", "fooling_pair", "solution_separation",
                "cone_membership", "adaptive_algorithm"}
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert "bounds_table" in imported and "fooling_certificates" in imported
    assert imported & deciders == set()


def test_one_summation_kernel_and_no_bincount():
    # every exact sum of squares is error-free extraction in spectrum.py;
    # the exponent-bin kernel survives only as the tests' oracle
    assert [line for path in sorted(PACKAGE.glob("*.py"))
            for _, line in attribute_calls(path, "bincount")] == []


def test_no_module_maps_memory():
    # a walk stores the products it forms and nothing else: a sparse one
    # keeps its products at its nonzeros, so no buffer of zeros is mapped
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "mmap"]
    assert found == []
