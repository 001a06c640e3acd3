"""Run the README's 2**24 ``solve`` and check its peak memory.

    python3 scripts/scale_walk.py [--tree DIR]

The config is harmonic/doubling (lam_i = 1/i, n_j = 2**j, a = 2, b = 0.5)
with a ``random-cone`` input of 24 blocks, so its support is 2**24
coefficients, and 100 tolerances from 1e-1 down to 1e-14, the smallest of
which walks past the support.  ``solve`` runs in a child process against
``DIR/src`` (default: this checkout).  The script prints the child's wall
time, the sweep's own time (``elapsed_seconds`` of its ``run.json``), its
peak resident set (``ru_maxrss``) and the SHA-256 of its ``run.csv``, so
two trees can be compared.  It exits 1 when the command
fails or when the peak exceeds README_PEAK_MIB, the figure the README
states, by more than 10%.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README_PEAK_MIB = 293  # the README's measured 2**24 solve
SLACK = 1.10

CONFIG = {
    "problem": {
        "spectrum": {"family": "algebraic", "scale": 1.0, "power": 1.0},
        "partition": {"kind": "doubling", "start": 1},
        "cone": {"a": 2.0, "b": 0.5},
    },
    "input": {"kind": "random-cone", "blocks": 24},
    # 100 tolerances, log-spaced from 1e-1 to 1e-14
    "epsilons": [10.0 ** (-1.0 - 13.0 * k / 99) for k in range(100)],
    "seed": 1,
    "guards": {"j_max": 40},
}


def run(tree: Path, workdir: Path) -> dict:
    """Run the config's ``solve`` against ``tree`` in a child process."""
    config = dict(CONFIG, output=str(workdir / "out"))
    path = workdir / "scale.json"
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "adaptlin.cli", "solve", "--config", str(path),
         "--quiet"], cwd=workdir, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    # the only child this process waits for; Linux reports KiB
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    csv, record = workdir / "out" / "run.csv", workdir / "out" / "run.json"
    digest = (hashlib.sha256(csv.read_bytes()).hexdigest()
              if csv.is_file() else None)
    sweep = (json.loads(record.read_text(encoding="utf-8"))["elapsed_seconds"]
             if record.is_file() else math.nan)
    return {"status": done.returncode, "stderr": done.stderr, "wall_s": wall,
            "sweep_s": sweep, "peak_rss_mb": peak, "run_csv_sha256": digest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ runs (default: this one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        result = run(args.tree.resolve(), Path(workdir))
    limit = README_PEAK_MIB * SLACK
    print(f"solve at 2**24: wall {result['wall_s']:.2f} s (sweep "
          f"{result['sweep_s']:.2f} s), peak RSS "
          f"{result['peak_rss_mb']:.1f} MiB (limit {limit:.0f} MiB), "
          f"run.csv sha256 {result['run_csv_sha256']}")
    if result["status"] != 0:
        print(f"scale_walk: solve exited {result['status']}:\n"
              f"{result['stderr']}", file=sys.stderr)
        return 1
    if result["peak_rss_mb"] > limit:
        print(f"scale_walk: peak RSS {result['peak_rss_mb']:.1f} MiB exceeds "
              f"{limit:.0f} MiB, the README's {README_PEAK_MIB} MiB plus 10%",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
