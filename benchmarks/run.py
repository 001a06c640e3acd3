"""Benchmark of the adaptlin command line, end to end and layer by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src``.
Workloads, metrics and predictions are described in NOTES.md.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
record the environment and a readable summary.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXTRA_SETUP_PROCESSES = 4  # with the timed process: five set-up samples
DEADLINE_S = 170.0         # every run ends within 180 s

# bytes each workload keeps hot, from its sizes (not measured)
WORKING_SET = {
    "deep-sweep": (8 * 2 ** 18, "random-cone coefficient vector, "
                   "2**18 float64"),
    "derivative-demo": (223_260 * (3 * 8 + 8 + 8) + 61 ** 3 * 8,
                        "223,260 modes x (int64 wave vector, weight, "
                        "coefficient) + 61**3 input box"),
    "lower-bounds": (8 * 2048 ** 2, "null-space basis of the 2048 probe, "
                     "2048**2 float64"),
}

# ROADMAP item-1 baseline rows: (workload, row, seed value, key into the
# traced run's per-iteration inclusive times, or "wall_s")
BASELINE_ROWS = [
    ("derivative-demo", "demo-derivative end to end", "0.63 s", "wall_s"),
    ("derivative-demo", "true_error x 10 tolerances", "0.19 s",
     "algorithm.true_error"),
    ("derivative-demo", "CSV writing", "0.13 s", "cli.write_csv"),
    ("derivative-demo", "solution_slice_grid", "0.10-0.13 s",
     "problems.solution_slice_grid"),
    ("derivative-demo", "enumerate_derivative_spectrum(3, 30)", "0.11 s",
     "problems.enumerate_derivative_spectrum"),
    ("lower-bounds", "fooling_pair, dim 1024", "75 ms",
     "adversarial.fooling_pair@1024"),
    ("lower-bounds", "fooling_pair, dim 2048", "420 ms",
     "adversarial.fooling_pair@2048"),
]
UNCOVERED_ROWS = [
    ("adaptive walk, harmonic/doubling, n = 2**20", "0.23 s",
     "a 100-tolerance solve at 2**20 took 15.2 s per iteration at seed"),
    ("adaptive walk, harmonic/doubling, n = 2**22", "0.93 s",
     "a 100-tolerance solve at 2**22 takes 69 s per iteration at seed"),
    ("cone_membership, n = 2**22", "0.43 s",
     "needs the same 2**22 input, 69 s per 100-tolerance iteration"),
    ("fooling_pair, dim 4096", "2.7 s",
     "the 4096 pair costs 7 s per adversarial command at seed; 8192 "
     "costs 50 s and 2 GB RSS"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _caches():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            sizes[f"L{level}"] = _read(index / "size")
    return sizes


def _cache_bytes(text):
    if not text:
        return None
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    import ctypes
    maps = _read("/proc/self/maps") or ""
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line and line.split()[-1].startswith("/")}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(workload):
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = _caches()
    ws_bytes, ws_what = WORKING_SET[workload]
    l3 = _cache_bytes(caches.get("L3"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "working_set": {"bytes": ws_bytes, "what": ws_what,
                        "share_of_L3": ws_bytes / l3 if l3 else None},
    }


def spawn(spec_path, mode, seconds, deadline, index):
    """Run one worker process to completion; return its measurements."""
    result_path = spec_path.parent / f"result-{index}.json"
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed before a worker start")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                    str(result_path), mode, repr(seconds)],
                   stdout=sys.stderr, check=True, timeout=remaining)
    return json.loads(result_path.read_text(encoding="utf-8"))


def count_failures(commands, records):
    """(attempted, failed) over all iterations of a run.

    Besides each iteration's own checks, a command whose CSVs differ from
    the first iteration's in any byte fails all its operations.
    """
    reference = records[0]["digest"]
    attempted = failed = 0
    for record in records:
        for k, command in enumerate(commands):
            attempted += command["ops"]
            if record["digest"][k] != reference[k]:
                failed += command["ops"]
            else:
                failed += record["failed"][k]
    return attempted, failed


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def measure(workload, seed, seconds, trace, workdir, small=False):
    """Run one benchmark run; return (attempted, failed, metrics, report).

    ``metrics`` maps a metric name to (value, unit).  ``small`` is for the
    harness self-check only.
    """
    deadline = time.perf_counter() + DEADLINE_S
    commands = workloads.build(workload, seed, workdir, small=small)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "commands": commands}),
                         encoding="utf-8")
    report = []
    if not trace:
        setups = [spawn(spec_path, "setup", 0.0, deadline, k)
                  for k in range(EXTRA_SETUP_PROCESSES)]
        main = spawn(spec_path, "timed", seconds, deadline,
                     EXTRA_SETUP_PROCESSES)
        records = [r["cold"] for r in setups] + [main["cold"]] + main["timed"]
        attempted, failed = count_failures(commands, records)
        walls = [r["wall_s"] for r in main["timed"]]
        q1, median, q3 = quartiles(walls)
        setup_samples = [r["setup_s"] for r in setups + [main]]
        metrics = {
            "wall_s": (median, "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
        }
        report.append(
            f"wall_s median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
            f"n {len(walls)}; setup_s samples "
            + " ".join(f"{v:.4f}" for v in setup_samples)
            + f"; fail_frac {failed / attempted:.6g} "
            f"({failed} of {attempted} operations)")
        return attempted, failed, metrics, report

    main = spawn(spec_path, "traced", seconds, deadline, 0)
    records = [main["cold"]] + main["timed"] + main["traced"]
    attempted, failed = count_failures(commands, records)
    untraced, traced_wall = (
        statistics.median(r["wall_s"] for r in main[phase])
        for phase in ("timed", "traced"))
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: (statistics.median(r["layers"][name]
                                        for r in main["traced"]), units[name])
               for name in units if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (traced_wall / untraced - 1.0, "frac")
    accounted = statistics.median(
        sum(v for k, v in r["layers"].items() if k.endswith(".self_s"))
        / r["wall_s"] for r in main["traced"])
    report.append(
        f"traced wall {traced_wall:.4f} s, untraced {untraced:.4f} s, "
        f"{len(main['traced'])} traced iterations; layer self times plus "
        f"cli.self_s account for {accounted:.4%} of the traced wall time")
    keys = {key for r in main["traced"] for key in r["inclusive"]}
    inclusive = {key: statistics.median(r["inclusive"].get(key, 0.0)
                                        for r in main["traced"])
                 for key in keys}
    inclusive["wall_s"] = statistics.median(
        r["wall_s"] for r in main["timed"])
    for row_workload, row, seed_value, key in BASELINE_ROWS:
        if row_workload == workload:
            report.append(f"baseline {row}: seed {seed_value}, "
                          f"now {inclusive.get(key, 0.0):.4f} s")
    for row, seed_value, reason in UNCOVERED_ROWS:
        report.append(f"baseline {row}: seed {seed_value}, not covered "
                      f"by any workload: {reason}")
    return attempted, failed, metrics, report


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "adaptlin" / "cli.py").is_file():
        print(f"run.py: no adaptlin sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        attempted, failed, metrics, report = measure(
            args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print("env " + json.dumps(environment(args.workload), sort_keys=True))
    for line in report:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
