"""Check that two source trees write the same benchmark outputs.

    python3 scripts/compare_csvs.py BASE HEAD [--seed 7919]

BASE and HEAD are checkouts of the repository.  Every command of every
workload in HEAD's ``benchmarks/workloads.py`` runs once against each
tree's ``src``, on the same generated configs; the script then compares
``workloads.csv_digest`` per command and names each CSV file that differs.
A command also fails the check when its exit status or its stderr differs
between the trees, when one of its CSVs is missing on either side, so two
runs that both wrote nothing do not pass as identical, or when a JSON
record of BASE (``run.json``, ``adversarial.json``) is missing in HEAD or
its ``rows``/``entries`` moved.  There every key the BASE record has must
hold the same value in HEAD, and HEAD may add keys; ``elapsed_seconds``
and the config echo are not compared.  The script exits 1 on any failure
and 0 when every command passed.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def run_tree(workloads, tree, name, seed, workdir):
    """Run one workload's commands against ``tree``; the commands, each
    with its exit status."""
    commands = workloads.build(name, seed, workdir)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for command in commands:
        done = subprocess.run(
            [sys.executable, "-m", "adaptlin.cli", *command["argv"]],
            cwd=tree, env=env, capture_output=True, text=True)
        command["status"], command["stderr"] = done.returncode, done.stderr
    return commands


def missing_csvs(command):
    """Names of the command's CSV files that it did not write."""
    return [name for name in command["csvs"]
            if not (Path(command["outdir"]) / name).is_file()]


def differing_csvs(base, head):
    """Names of the CSV files whose bytes differ between two runs."""
    def read(command, name):
        try:
            return (Path(command["outdir"]) / name).read_bytes()
        except OSError:
            return None
    return [name for name in head["csvs"]
            if read(base, name) != read(head, name)]


def records(command):
    """The ``rows`` or ``entries`` of each JSON record the command wrote,
    by file name."""
    found = {}
    for path in sorted(Path(command["outdir"]).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        found[path.name] = {key: record[key] for key in ("rows", "entries")
                            if key in record}
    return found


def moved(old, new, path):
    """Paths at which ``new`` does not hold the value ``old`` has; a key
    that only ``new`` has is no change."""
    if isinstance(old, dict):
        if not isinstance(new, dict):
            return [path]
        return [where for key in old for where in (
            moved(old[key], new[key], f"{path}.{key}") if key in new
            else [f"{path}.{key}"])]
    if isinstance(old, list):
        if not isinstance(new, list) or len(old) != len(new):
            return [path]
        return [where for i, (a, b) in enumerate(zip(old, new))
                for where in moved(a, b, f"{path}[{i}]")]
    # repr, so that NaN matches NaN and 1 does not match 1.0
    return [] if repr(old) == repr(new) else [path]


def faults(old, new, workloads):
    """What fails the check for one command run on both trees."""
    found = []
    if old["status"] != new["status"]:
        found.append(f"exit status {old['status']} -> {new['status']}")
    for side, command in (("base", old), ("head", new)):
        missing = missing_csvs(command)
        if missing:
            found.append(f"missing on {side}: " + ", ".join(missing))
    if workloads.csv_digest(old) != workloads.csv_digest(new):
        found.append("CSVs differ: " + ", ".join(differing_csvs(old, new)))
    if old["stderr"] != new["stderr"]:
        found.append("stderr differs")
    head_records = records(new)
    for name, items in records(old).items():
        if name not in head_records:
            found.append(f"missing on head: {name}")
            continue
        changed = moved(items, head_records[name], name)
        if changed:
            found.append("records differ: " + ", ".join(changed[:5]))
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--seed", type=int, default=7919)
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    sys.path.insert(0, str(head / "benchmarks"))
    import workloads

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            runs = [run_tree(workloads, tree, name, args.seed,
                             Path(tmp) / side / name)
                    for side, tree in (("base", base), ("head", head))]
            for old, new in zip(*runs):
                label = f"{name} {new['argv'][0]}"
                found = faults(old, new, workloads)
                if not found:
                    print(f"{label}: outputs identical "
                          f"(exit {new['status']})")
                    continue
                failures += 1
                print(f"{label}: " + "; ".join(found))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
