"""One benchmark process: runs a workload's command sequence in-process.

    python3 worker.py SPEC RESULT MODE SECONDS

SPEC is the JSON file run.py wrote (the source directory and the commands).
MODE is ``setup`` (import and one cold iteration), ``timed`` (a cold
iteration, then iterations for SECONDS) or ``traced`` (a cold iteration,
then untraced and traced iterations for SECONDS / 2 each).  The worker
writes its measurements to RESULT as JSON.
"""

import time

START = time.perf_counter()  # set-up time counts from before other imports

import json
import resource
import shutil
import sys
import traceback
from pathlib import Path

import workloads


def run_command(cli, argv):
    """Exit status of one CLI command; a crash is reported and counts as 1."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return 1


def iteration(cli, commands):
    """Run every command once; time them together, then check the outputs."""
    for command in commands:
        shutil.rmtree(command["outdir"], ignore_errors=True)
    start = time.perf_counter()
    statuses = [run_command(cli, command["argv"]) for command in commands]
    wall = time.perf_counter() - start
    return {"wall_s": wall,
            "failed": [workloads.failed_ops(c, s)
                       for c, s in zip(commands, statuses)],
            "digest": [workloads.csv_digest(c) for c in commands]}


def loop(cli, commands, seconds, tracer=None):
    """Iterations until ``seconds`` have passed, at least one."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        record = iteration(cli, commands)
        if tracer is not None:
            record["spans"] = tracer.take()
        records.append(record)
    return records


def main(spec_path, result_path, mode, seconds):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from adaptlin import cli
    import_s = time.perf_counter() - START
    commands = spec["commands"]
    cold = iteration(cli, commands)
    result = {"setup_s": import_s + cold["wall_s"], "cold": cold}
    if mode == "timed":
        result["timed"] = loop(cli, commands, seconds)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    elif mode == "traced":
        from tracer import Tracer, layer_metrics
        result["timed"] = loop(cli, commands, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = loop(cli, commands, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        for record in traced:
            record["layers"], record["inclusive"] = layer_metrics(
                record.pop("spans"))
        result["traced"] = traced
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4]))
