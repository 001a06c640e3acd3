"""The README's Quick start example runs against the current API."""

from pathlib import Path

from adaptlin import true_error

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code():
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs():
    scope = {}
    exec(compile(quick_start_code(), "README.md", "exec"), scope)
    problem, f, run = scope["problem"], scope["f"], scope["run"]
    assert true_error(problem, f, run) <= run.error_bound <= 1e-3
