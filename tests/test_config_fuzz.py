"""Config fuzzer: every command ends in a status and a message.

Configs are drawn from ``cli.SCHEMA``: each key is present or not, most
values are valid, some lie at or past a limit of ``cli.LIMITS`` or of the
library, and a few have the wrong JSON type or are unknown keys.  The
drawn guards stay small (j_max <= 24, n_max <= 2**16), so no draw runs
long; ``demo-derivative``'s box of 226,981 modes is past that index
budget, so its walk runs only in the examples that raise n_max to 2**18.
``cli.main`` runs in-process under numpy's default error state with
warnings raised as errors; it must return 0, 1 or 2, write no traceback
and no warning, and return 2 only with a ``config error:``.  No command
reads past an explicit partition's last boundary, and every probe that
``adversarial`` records spans at most ``guards.n_max`` indices.  Every
``bound_holds`` that ``solve`` records for an input drawn from the cone
must be true, and any it records false must come with exit 1 and the
refuted bound on stderr.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from adaptlin import cli

from conftest import schema_leaves


def floats(low, high):
    return st.floats(low, high, allow_nan=False)


def edges(*values):
    return st.sampled_from(values)


# per config key of SCHEMA: (valid values, values at or past a limit)
POOLS = {
    "problem.spectrum.family": (
        edges("algebraic", "geometric", "periodic", "derivative"),
        edges("harmonic")),
    "problem.spectrum.scale": (floats(1e-3, 1e3),
                               edges(0.0, -1.0, 1e-300, 1e300)),
    "problem.spectrum.power": (floats(0.1, 5.0), edges(0.0, 100.0)),
    "problem.spectrum.base": (floats(1.0001, 20.0), edges(1.0, 1e10)),
    "problem.spectrum.r": (floats(0.1, 5.0), edges(0.0, 0.01)),
    "problem.spectrum.dimension": (st.integers(1, 3), edges(0, -1)),
    "problem.spectrum.k_max": (st.integers(1, 6), edges(0, 200)),
    "problem.partition.kind": (
        edges("doubling", "arithmetic", "zero-doubling", "explicit"),
        edges("halving")),
    "problem.partition.start": (st.integers(0, 40), edges(-1, 2 ** 20)),
    "problem.partition.step": (st.integers(1, 300), edges(0, 2 ** 20)),
    "problem.partition.first": (st.integers(1, 40), edges(0, 2 ** 20)),
    "problem.partition.boundaries": (
        st.sets(st.integers(0, 5000), min_size=2, max_size=8).map(sorted),
        edges([], [3, 3], [-1, 4], [9, 2])),
    "problem.cone.a": (floats(1.01, 20.0), edges(1.0, 1e6, 1e200)),
    "problem.cone.b": (floats(0.01, 0.99), edges(0.0, 1.0, 1e-6, 0.999)),
    "input.kind": (edges("random-cone", "zero", "derivative-random"),
                   edges("constant")),
    "input.blocks": (st.integers(1, 16), edges(0, 64)),
    "input.scale": (floats(1e-3, 1e3), edges(0.0, -1.0, 1e-300, 1e300)),
    "input.head": (st.booleans(), st.nothing()),
    "epsilons": (st.lists(floats(1e-12, 10.0), min_size=1, max_size=6),
                 edges([], [0.0], [-1.0], [1e-300], [1e300, 1e-320])),
    "rho": (floats(1e-3, 1e3), edges(0.0, 1e-200, 1e200, 1e-320)),
    "seed": (st.integers(0, 2 ** 32), edges(-1)),
    "output": (st.nothing(), st.nothing()),  # the example's own directory
    "guards.j_max": (st.integers(1, 24), edges(0)),
    "guards.n_max": (st.one_of(edges(2 ** 12, 2 ** 16),
                               st.integers(1, 2 ** 16)), edges(0)),
    "adversarial.blocks": (st.integers(1, 16), edges(0, 64)),
    "adversarial.ratio": (floats(1.0, 100.0), edges(0.5, 1e300)),
}
ALWAYS = {"problem.spectrum.family", "problem.partition.kind", "epsilons",
          "guards.j_max", "guards.n_max"}
WRONG_TYPE = edges("x", True, None, [], {}, 1.5)


def test_the_pools_cover_the_schema():
    assert sorted(POOLS) == sorted(schema_leaves())
    assert set(cli.LIMITS) <= set(POOLS)


@st.composite
def configs(draw):
    config = {}
    for path in schema_leaves():
        if path == "output" or not (path in ALWAYS or draw(st.booleans())):
            continue
        valid, edge = POOLS[path]
        # near-valid: one key in 20 at or past a limit, one in 60 of the
        # wrong JSON type
        roll = draw(st.integers(0, 59))  # small rolls are drawn more often
        value = draw(valid if roll < 56 else edge if roll < 59 else WRONG_TYPE)
        *parents, key = path.split(".")
        section = config
        for parent in parents:
            section = section.setdefault(parent, {})
        section[key] = value
    if draw(st.integers(0, 59)) == 59:  # near-valid: an unknown key
        config[draw(st.sampled_from(["problem", "bogus"]))] = {"junk": 1}
    return config


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(cli._COMMANDS)), configs())
# from n_0 = 0 a one-block scan has no drop: a note, not a traceback
@example("bounds", {
    "problem": {"spectrum": {"family": "algebraic", "scale": 1.0,
                             "power": 1.0},
                "partition": {"kind": "zero-doubling", "first": 4}},
    "epsilons": [0.01], "guards": {"j_max": 1, "n_max": 2 ** 16}})
# R = 4**129, whose (b R)**4 is past the float range
@example("bounds", {
    "problem": {"spectrum": {"family": "geometric", "base": 4.0},
                "partition": {"kind": "explicit", "boundaries": [1, 130]}},
    "epsilons": [1.0], "guards": {"j_max": 1, "n_max": 2 ** 12}})
# a derivative input outside the cone: solve refutes its error bound
@example("solve", {
    "problem": {"spectrum": {"family": "derivative", "k_max": 1},
                "partition": {"kind": "doubling"}},
    "input": {"kind": "derivative-random"}, "epsilons": [9.0], "seed": 90,
    "guards": {"j_max": 1, "n_max": 2 ** 12}})
# a subnormal rho: the level search of the largest default tolerance
# once stepped one ulp at a time, and the smallest underflow to 0
@example("example1", {"rho": 1e-320})
# epsilon / rho = 1e-600 leaves only the level 0
@example("example1", {"epsilons": [1e-300], "rho": 1e300})
# an empty tolerance list is refused as a missing one, by every command
@example("demo-derivative", {"epsilons": [],
                             "guards": {"j_max": 24, "n_max": 2 ** 18}})
# a tolerance that keeps every mode: a true error of 0.0 has no place on
# the log-axis chart
@example("demo-derivative", {"epsilons": [1e-12],
                             "guards": {"j_max": 24, "n_max": 2 ** 18}})
# the bounds read lam at n_1024 = 2**1024, an index past the float range
@example("bounds", {
    "problem": {"spectrum": {"family": "algebraic"}}, "epsilons": [0.1],
    "guards": {"j_max": 1024, "n_max": 2 ** 16}})
# an explicit partition of 7 blocks under j_max 24: the bound scans end
# at its last block, as a walk does
@example("bounds", {
    "problem": {"spectrum": {"family": "algebraic"},
                "partition": {"kind": "explicit",
                              "boundaries": [1, 2, 4, 8, 16, 32, 64, 128]}},
    "epsilons": [0.5, 0.1], "guards": {"j_max": 24, "n_max": 2 ** 12}})
# the probe search at 0.06 outgrows the partition's 4 blocks: that
# tolerance fails, and 0.5 keeps its certificate
@example("adversarial", {
    "problem": {"spectrum": {"family": "algebraic"},
                "partition": {"kind": "explicit",
                              "boundaries": [1, 2, 4, 8, 16]}},
    "epsilons": [0.5, 0.06], "guards": {"j_max": 24, "n_max": 2 ** 12}})
# the search's default start depth 4 spans 2**22 indices, over the budget
@example("adversarial", {
    "problem": {"spectrum": {"family": "algebraic"},
                "partition": {"kind": "explicit",
                              "boundaries": [1, 2, 4, 8, 2 ** 22]}},
    "epsilons": [0.01], "guards": {"j_max": 24, "n_max": 2 ** 20}})
# block 1 ends at 2**40, past the budget: the walk stops before it instead
# of evaluating lam up to 2**40
@example("solve", {
    "problem": {"spectrum": {"family": "algebraic", "power": 1.5},
                "partition": {"kind": "explicit",
                              "boundaries": [0, 2 ** 40]}},
    "input": {"kind": "zero"}, "epsilons": [0.1],
    "guards": {"j_max": 24, "n_max": 2 ** 16}})
def test_every_command_ends_in_a_status_and_a_message(command, config):
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir) / "out"
        config = dict(config, output=str(out))
        path = Path(workdir) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                np.errstate(divide="warn", over="warn", under="ignore",
                            invalid="warn"):
            warnings.simplefilter("error")
            status = cli.main([command, "--config", str(path), "--quiet"])
        err = err.getvalue()
        assert status in (0, 1, 2), err
        assert "Traceback" not in err and "Warning" not in err, err
        if status == 2:
            assert err.startswith("config error: "), err
        assert "boundaries, asked for n_" not in err, err
        record = out / "adversarial.json"
        if command == "adversarial" and record.is_file():
            n_max = config["guards"]["n_max"]
            problem, _ = cli.build_problem(config.get("problem", {}), n_max)
            for entry in json.loads(record.read_text(encoding="utf-8"))[
                    "entries"]:
                assert problem.partition.boundary(entry["blocks"]) <= n_max
        record = out / "run.json"
        if command == "solve" and record.is_file():
            rows = json.loads(record.read_text(encoding="utf-8"))["rows"]
            refuted = [row["epsilon"] for row in rows
                       if row.get("bound_holds") is False]
            # the certificate assumes a cone member: every other input is
            # drawn from the cone, but a derivative-random one need not be
            # in it, and then solve refutes the bound aloud
            if config.get("input", {}).get("kind") != "derivative-random":
                assert refuted == [], rows
            assert status == 1 or refuted == [], err
            for eps in refuted:
                assert "exceeds error bound" in err, err
                assert f"at epsilon={eps!r}" in err, err
