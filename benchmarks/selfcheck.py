"""Quick self-check of the benchmark harness at reduced sizes.

    python3 benchmarks/selfcheck.py

Run from the root of a checkout.  It confirms that a run emits exactly the
metrics BENCHMARK.json names, timed and traced, and that corrupted outputs
are counted as failed operations.  It exits 0 when every check holds.  The
file is not named like a test, so pytest does not collect it.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import run
import worker
import workloads


def _expect(condition, message, problems):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        problems.append(message)


def _metric_names(workdir, problems):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in declared[key]}
        for name in workloads.WORKLOADS:
            attempted, failed, metrics, _ = run.measure(
                name, 1, 0.2, trace, workdir / f"{name}-{trace}", small=True)
            _expect(set(metrics) == names and attempted > 0 and failed == 0,
                    f"{name} --trace {trace}: {len(metrics)} metrics as "
                    f"declared, {failed} of {attempted} operations failed",
                    problems)


def _rewrite_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _corrupt_bounds(path):
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[lines[0].split(",").index("j_star_lower")] = "0"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


# (workload, command index, file, corruption) -- each corrupts one row
CORRUPTIONS = [
    ("deep-sweep", 0, "run.json", lambda p: _rewrite_json(
        p, lambda d: d["rows"][0].update(true_error=1.0))),
    ("derivative-demo", 0, "run.json", lambda p: _rewrite_json(
        p, lambda d: d["rows"][-1].update(true_error=1e9))),
    ("lower-bounds", 0, "bounds.csv", _corrupt_bounds),
    ("lower-bounds", 1, "adversarial.json", lambda p: _rewrite_json(
        p, lambda d: d["entries"][0].update(ok=False))),
]


def _corruptions(workdir, problems):
    sys.path.insert(0, str(run.SRC))
    from adaptlin import cli
    for name, index, filename, corrupt in CORRUPTIONS:
        commands = workloads.build(name, 1, workdir / name, small=True)
        first = worker.iteration(cli, commands)
        command = commands[index]
        corrupt(Path(command["outdir"]) / filename)
        failed = workloads.failed_ops(command, 0)
        _expect(sum(first["failed"]) == 0 and failed == 1,
                f"{name}: corrupted {filename} counts {failed} failed "
                "operation", problems)
    # a CSV that changes between iterations fails its command's operations
    commands = workloads.build("deep-sweep", 1, workdir / "csv", small=True)
    first = worker.iteration(cli, commands)
    csv = Path(commands[0]["outdir"]) / "run.csv"
    csv.write_bytes(csv.read_bytes().replace(b"e", b"E", 1))
    second = dict(first, digest=[workloads.csv_digest(commands[0])])
    attempted, failed = run.count_failures(commands, [first, second])
    _expect(failed == commands[0]["ops"] and attempted == 2 * failed,
            f"deep-sweep: a changed run.csv counts {failed} of {attempted} "
            "operations failed", problems)
    _expect(workloads.failed_ops(commands[0], 1) == commands[0]["ops"],
            "deep-sweep: a nonzero exit fails every operation", problems)


def main():
    workdir = run.WORK / f"selfcheck-{os.getpid()}"
    problems = []
    try:
        _metric_names(workdir, problems)
        _corruptions(workdir, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
