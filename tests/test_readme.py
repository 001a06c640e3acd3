"""The README's Quick start example runs against the current API, and its
2**24 peak is the one the scale check enforces."""

import re
from pathlib import Path

from adaptlin import true_error

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def quick_start_code():
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs():
    scope = {}
    exec(compile(quick_start_code(), "README.md", "exec"), scope)
    problem, f, run = scope["problem"], scope["f"], scope["run"]
    assert true_error(problem, f, run) <= run.error_bound <= 1e-3


def test_readme_states_the_peak_the_scale_check_enforces():
    script = (ROOT / "scripts" / "scale_walk.py").read_text(encoding="utf-8")
    (peak,) = re.findall(r"^README_PEAK_MIB = (\d+)", script, re.MULTILINE)
    text = README.read_text(encoding="utf-8")
    assert f"peak RSS of {peak} MiB" in text
    assert f"exceeds {peak} MiB by more than 10%" in text
