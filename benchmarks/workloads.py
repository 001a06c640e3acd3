"""Workload definitions: generated CLI inputs and the checks on their outputs.

A workload is a fixed sequence of ``adaptlin`` CLI commands.  Every config
file and tolerance list the commands read is generated here from the
benchmark seed, so the program sees only generated inputs.  An operation is
one tolerance of one command; ``failed_ops`` decides after each iteration
how many of a command's operations failed.

This module imports neither numpy nor adaptlin: the worker measures set-up
time from before either is imported.
"""

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("deep-sweep", "derivative-demo", "lower-bounds")

_HARMONIC_DOUBLING = {
    "spectrum": {"family": "algebraic", "scale": 1.0, "power": 1.0},
    "partition": {"kind": "doubling", "start": 1},
    "cone": {"a": 2.0, "b": 0.5},
}


def logspace(first_exp, last_exp, count):
    """``count`` tolerances 10**e, e evenly spaced over [first, last]."""
    if count == 1:
        return [10.0 ** first_exp]
    step = (last_exp - first_exp) / (count - 1)
    return [10.0 ** (first_exp + k * step) for k in range(count)]


def input_seed(name, seed):
    """Seed handed to the CLI, derived from the workload name and the seed."""
    return random.Random(f"{name}:{seed}").getrandbits(32)


def _config_command(workdir, label, config, command, ops, check, csvs):
    out = workdir / label
    config = dict(config, output=str(out))
    path = workdir / f"{label}.json"
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return {"argv": [command, "--config", str(path), "--quiet"],
            "outdir": str(out), "ops": ops, "check": check, "csvs": csvs}


def build(name, seed, workdir, small=False):
    """Commands of one workload, written under ``workdir``.

    ``small`` shrinks the sizes for the harness self-check only; measured
    runs always use the full sizes below.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "deep-sweep":
        # random-cone input over 18 doubling blocks: support 2**18
        blocks, epsilons = (10, logspace(-1, -3.5, 8)) if small else (
            18, logspace(-1, -6.5, 100))
        config = {"problem": _HARMONIC_DOUBLING,
                  "input": {"kind": "random-cone", "blocks": blocks},
                  "epsilons": epsilons, "seed": input_seed(name, seed),
                  "guards": {"j_max": 40}}
        return [_config_command(workdir, "solve", config, "solve",
                                len(epsilons), "solve-cone", ["run.csv"])]
    if name == "derivative-demo":
        # the CLI's own default tolerance list, generated here
        epsilons = logspace(1, -1, 3 if small else 10)
        out = workdir / "demo"
        return [{"argv": ["demo-derivative", "--output", str(out),
                          "--seed", str(input_seed(name, seed)),
                          "--epsilons", ",".join(map(repr, epsilons)),
                          "--quiet"],
                 "outdir": str(out), "ops": len(epsilons), "check": "demo",
                 "csvs": ["fig2.csv", "fig1_input.csv", "fig1_true.csv",
                          "fig1_approx.csv", "fig1_error.csv"]}]
    if name == "lower-bounds":
        # deterministic construction: the seed changes nothing here
        bound_eps = logspace(-1, -6, 10 if small else 100)
        probe_eps = [1e-2] if small else [1e-2, 3e-3, 1e-3, 6e-4]
        common = {"problem": _HARMONIC_DOUBLING, "rho": 1.0}
        return [
            _config_command(workdir, "bounds",
                            dict(common, epsilons=bound_eps), "bounds",
                            len(bound_eps), "bounds", ["bounds.csv"]),
            _config_command(workdir, "adversarial",
                            dict(common, epsilons=probe_eps), "adversarial",
                            len(probe_eps), "adversarial", []),
        ]
    raise ValueError(f"unknown workload {name!r}")


def _solve_rows(out):
    # the input is a cone member: the bound holds and certifies the error
    rows = json.loads((out / "run.json").read_text(encoding="utf-8"))["rows"]
    return [r.get("error_bound") is not None
            and r["error_bound"] <= r["epsilon"]
            and r.get("true_error") is not None
            and r["true_error"] <= r["error_bound"] for r in rows]


def _demo_rows(out):
    # the input is no cone member, so only the tolerance itself is checked
    rows = json.loads((out / "run.json").read_text(encoding="utf-8"))["rows"]
    return [r["true_error"] <= r["epsilon"] for r in rows]


def _bounds_rows(out):
    # boundaries increase strictly, so n_(j_dagger) <= n_(j_lower) holds
    # exactly when j_dagger <= j_lower
    lines = (out / "bounds.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    dagger, lower = header.index("j_dagger"), header.index("j_star_lower")
    rows = [line.split(",") for line in lines[1:]]
    return [r[lower] != "" and int(r[dagger]) <= int(r[lower]) for r in rows]


def _adversarial_rows(out):
    doc = json.loads((out / "adversarial.json").read_text(encoding="utf-8"))
    return [entry["ok"] is True for entry in doc["entries"]]


_ROW_CHECKS = {"solve-cone": _solve_rows, "demo": _demo_rows,
               "bounds": _bounds_rows, "adversarial": _adversarial_rows}


def failed_ops(command, status):
    """Operations of one command run that failed.

    A nonzero exit fails every operation, as does output that is missing,
    unreadable or has the wrong number of rows; otherwise each row that
    fails its check is one failed operation.
    """
    ops = command["ops"]
    if status != 0:
        return ops
    try:
        verdicts = _ROW_CHECKS[command["check"]](Path(command["outdir"]))
    except (OSError, ValueError, KeyError, TypeError, IndexError):
        return ops
    if len(verdicts) != ops:
        return ops
    return verdicts.count(False)


def csv_digest(command):
    """SHA-256 over the command's CSV files, names included."""
    digest = hashlib.sha256()
    for name in command["csvs"]:
        digest.update(name.encode() + b"\0")
        try:
            digest.update((Path(command["outdir"]) / name).read_bytes())
        except OSError:
            digest.update(b"<missing>")
    return digest.hexdigest()
