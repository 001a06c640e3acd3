"""The README's Quick start examples run against the current API, its
config-type table names the keys of ``cli.SCHEMA``, and its 2**24 peak and
its deep fooling-pair figures are the ones the scale checks enforce."""

import ast
import re
from pathlib import Path

from adaptlin import true_error

from conftest import schema_leaves

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def quick_start_code(block=0):
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return section.split("```python\n")[block + 1].split("```", 1)[0]


def test_readme_quick_start_runs():
    scope = {}
    exec(compile(quick_start_code(), "README.md", "exec"), scope)
    problem, f, run = scope["problem"], scope["f"], scope["run"]
    assert true_error(problem, f, run) <= run.error_bound <= 1e-3


def test_readme_certificates_example_runs():
    scope = {}
    for block in (0, 1):
        exec(compile(quick_start_code(block), "README.md", "exec"), scope)
    row, cert = scope["row"], scope["cert"]
    assert row.chain_holds and row.guard is None
    assert cert.ok and cert.failure is None


def test_readme_states_the_peak_the_scale_check_enforces():
    script = (ROOT / "scripts" / "scale_walk.py").read_text(encoding="utf-8")
    (peak,) = re.findall(r"^README_PEAK_MIB = (\d+)", script, re.MULTILINE)
    text = README.read_text(encoding="utf-8")
    assert f"peak RSS of {peak} MiB" in text
    assert f"exceeds {peak} MiB by more than 10%" in text


def test_readme_states_the_fooling_figures_the_scale_check_enforces():
    script = (ROOT / "scripts" / "scale_fooling.py").read_text(
        encoding="utf-8")
    (figures,) = re.findall(r"^README_FIGURES = (\{.*\})$", script,
                            re.MULTILINE)
    (multiples,) = re.findall(r"^TIME_MULTIPLE = (\{.*\})$", script,
                              re.MULTILINE)
    multiples = ast.literal_eval(multiples)
    lines = README.read_text(encoding="utf-8").splitlines()
    text = " ".join(" ".join(lines).split())
    for blocks, (ms, mib) in ast.literal_eval(figures).items():
        (row,) = [line for line in lines if line.startswith(f"| {blocks} |")]
        assert row.endswith(f"| {ms} ms | {mib} MiB |")
        assert (f"`adversarial.blocks` {blocks} takes more than "
                f"{multiples[blocks]} times as long as blocks 10 or peaks "
                f"above {mib} MiB plus 10%") in text


def test_readme_type_table_names_exactly_the_schema_keys():
    section = README.read_text(encoding="utf-8").split("| type | keys |")[1]
    rows = section.split("\n\n", 1)[0].splitlines()[2:]
    named = []
    for row in rows:
        for cell in re.findall(r"`([^`]+)`", row.split("|")[2]):
            # `a.{b, c}` names a.b and a.c
            stem, brace, inner = cell.partition("{")
            names = inner.rstrip("}").split(", ") if brace else [""]
            named += [stem + name for name in names]
    assert sorted(named) == sorted(schema_leaves())
