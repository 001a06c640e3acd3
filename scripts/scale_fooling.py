"""Run deep ``adversarial`` probes and check their time and peak memory.

    python3 scripts/scale_fooling.py [--tree DIR] [--blocks B ...]

The config is harmonic/doubling (lam_i = 1/i, n_j = 2**j, a = 2, b = 0.5,
rho = 1) with tolerances 1e-2 and 1e-3 and ``adversarial.blocks`` fixed,
so the fooling pairs live in dimension 2**blocks.  Each depth runs in a
child process against ``DIR/src`` (default: this checkout), RUNS times,
after blocks 10, the reference.  The script prints, per depth, the median
and the fastest of the command's own times (``elapsed_seconds`` of its
``adversarial.json``, which leaves out the interpreter and numpy
start-up), the median wall time of the child, the largest peak resident
set (``ru_maxrss``), the README's figures for the depth and the SHA-256 of
the record without ``elapsed_seconds``, so two trees can be compared.  It
exits 1 when a command fails; when a depth of TIME_MULTIPLE takes more
than that many times as long as blocks 10 (fastest run against fastest
run, since a slow one is the host's): times of one host do not hold on
another, a ratio in one job does; when a depth of README_FIGURES peaks
above the README's figure by more than 10%; or when a depth peaks more
than 5 MiB above blocks 10, whose pairs are 1024 times smaller: a sparse
probe costs memory by its nonzeros, not its dimension.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the README's measured (command ms, peak MiB) per adversarial.blocks
README_FIGURES = {20: (11, 31.3), 24: (131, 31.3)}
# most times blocks 10 a depth may take: on the README's host the sparse
# construction took 14 and 164 times, the dense one 117 and 2250 times
TIME_MULTIPLE = {20: 40, 24: 500}
SLACK = 1.10
REFERENCE, MARGIN_MIB = 10, 5.0
RUNS = 5

PROBLEM = {
    "spectrum": {"family": "algebraic", "scale": 1.0, "power": 1.0},
    "partition": {"kind": "doubling", "start": 1},
    "cone": {"a": 2.0, "b": 0.5},
}


def run(tree: Path, workdir: Path, blocks: int) -> dict:
    """Run ``adversarial`` at ``blocks`` against ``tree`` in a child
    process; ``ru_maxrss`` is read with ``os.wait4`` for that child alone."""
    out = workdir / f"out{blocks}"
    config = {"problem": PROBLEM, "rho": 1.0, "epsilons": [1e-2, 1e-3],
              "adversarial": {"blocks": blocks}, "output": str(out)}
    path = workdir / f"fooling{blocks}.json"
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "adaptlin.cli", "adversarial", "--config",
         str(path), "--quiet"], cwd=workdir, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    stderr = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    record = out / "adversarial.json"
    elapsed, digest = float("nan"), None
    if record.is_file():
        data = json.loads(record.read_text(encoding="utf-8"))
        elapsed = data.pop("elapsed_seconds")
        data["config"].pop("output")
        digest = hashlib.sha256(
            json.dumps(data, sort_keys=True).encode()).hexdigest()
    # Linux reports KiB
    return {"status": child.returncode, "stderr": stderr, "wall_s": wall,
            "command_s": elapsed, "peak_rss_mb": usage.ru_maxrss / 1024,
            "record_sha256": digest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ runs (default: this one)")
    parser.add_argument("--blocks", type=int, nargs="+",
                        default=sorted(TIME_MULTIPLE),
                        help="probe depths to run (default: the README's)")
    args = parser.parse_args(argv)
    failed, reference = False, None
    with tempfile.TemporaryDirectory() as workdir:
        for blocks in [REFERENCE] + [b for b in args.blocks
                                     if b != REFERENCE]:
            results = [run(args.tree.resolve(), Path(workdir), blocks)
                       for _ in range(RUNS)]
            times = [r["command_s"] for r in results]
            command, fastest = statistics.median(times), min(times)
            wall = statistics.median(r["wall_s"] for r in results)
            peak = max(r["peak_rss_mb"] for r in results)
            readme = ""
            if blocks in README_FIGURES:
                readme = (" (README: {} ms, {} MiB)"
                          .format(*README_FIGURES[blocks]))
            print(f"adversarial at blocks {blocks}: command "
                  f"{command * 1e3:.1f} ms (fastest {fastest * 1e3:.1f} ms), "
                  f"wall {wall:.2f} s, peak RSS {peak:.1f} MiB{readme}, "
                  f"record sha256 {results[0]['record_sha256']}")
            bad = [r for r in results if r["status"] != 0]
            if bad:
                print(f"scale_fooling: adversarial exited {bad[0]['status']}"
                      f":\n{bad[0]['stderr']}", file=sys.stderr)
                failed = True
                if blocks == REFERENCE:  # nothing left to compare against
                    return 1
                continue
            if blocks == REFERENCE:
                reference = fastest, peak
                continue
            if peak > reference[1] + MARGIN_MIB:
                print(f"scale_fooling: peak RSS {peak:.1f} MiB at blocks "
                      f"{blocks} is more than {MARGIN_MIB:.0f} MiB above "
                      f"the {reference[1]:.1f} MiB of blocks {REFERENCE}",
                      file=sys.stderr)
                failed = True
            if blocks in TIME_MULTIPLE and (
                    fastest > TIME_MULTIPLE[blocks] * reference[0]):
                print(f"scale_fooling: {fastest * 1e3:.1f} ms at blocks "
                      f"{blocks} is more than {TIME_MULTIPLE[blocks]} times "
                      f"the {reference[0] * 1e3:.2f} ms of blocks "
                      f"{REFERENCE}", file=sys.stderr)
                failed = True
            if blocks in README_FIGURES and (
                    peak > README_FIGURES[blocks][1] * SLACK):
                print(f"scale_fooling: peak RSS {peak:.1f} MiB at blocks "
                      f"{blocks} exceeds the README's "
                      f"{README_FIGURES[blocks][1]} MiB plus 10%",
                      file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
