"""End-to-end runs of the command-line interface in a temp directory."""

import csv
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from adaptlin import (GuardExceeded, adaptive_algorithm, adversarial,
                      analysis, block_norm, cli, fooling_certificates)

from conftest import brute_worst_ratio, fresh_probe_search


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


ALGEBRAIC = {"spectrum": {"family": "algebraic", "power": 1.0}}


# -- configuration validation --------------------------------------------------

def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": ALGEBRAIC, "budget": 3})
    assert cli.main(["solve", "--config", cfg]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_unknown_nested_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "algebraic", "rate": 2}},
        "epsilons": [0.1]})
    assert cli.main(["solve", "--config", cfg]) == 2


def test_solve_needs_a_tolerance_list(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": ALGEBRAIC,
                                  "output": str(tmp_path / "out")})
    assert cli.main(["solve", "--config", cfg]) == 2
    assert "epsilons" in capsys.readouterr().err


def test_bad_epsilons_flag(tmp_path, capsys):
    # the flag is only parsed; its values meet the config's own limits
    cfg = write_config(tmp_path, {"problem": ALGEBRAIC})
    for flag in ("1,-2", "0.1,nan", "-1"):
        assert cli.main(["solve", "--config", cfg, "--epsilons", flag,
                         "--jmax", "8", "--output",
                         str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err \
            == "config error: tolerances must be positive\n"


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_an_empty_tolerance_list_is_refused_as_a_missing_one(tmp_path, capsys,
                                                             command):
    cfg = write_config(tmp_path, {"problem": ALGEBRAIC, "epsilons": [],
                                  "output": str(tmp_path / "out")})
    for argv in ([command, "--config", cfg],
                 [command, "--config", cfg, "--epsilons", ""]):
        assert cli.main(argv + ["--quiet"]) == 2
        assert capsys.readouterr().err == (
            "config error: no tolerance list: set epsilons in the config or "
            "pass --epsilons\n")
        # the list is checked before the output directory is made
        assert not (tmp_path / "out").exists()


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert cli.main(["solve", "--config", str(tmp_path / "missing.json")]) == 2


def _problem(**sections):
    return {"problem": dict(ALGEBRAIC, **sections)}


def _case(name, command, sections):
    return pytest.param(command, sections, id=f"{command}-{name}")


# (command, config sections over a valid solve config); every one exits 2
MALFORMED = [
    _case("rho-string", "solve", {"rho": "abc"}),
    _case("rho-string", "bounds", {"rho": "abc"}),
    _case("rho-negative", "bounds", {"rho": -1}),
    _case("rho-infinite", "bounds", {"rho": float("inf")}),
    _case("head-string", "solve", {"input": {"head": "false"}}),
    _case("epsilon-boolean", "solve", {"epsilons": [True]}),
    _case("epsilons-string", "solve", {"epsilons": "0.1"}),
    _case("blocks-string", "solve", {"input": {"blocks": "x"}}),
    _case("seed-string", "solve", {"seed": "x"}),
    _case("k_max-string", "solve",
          {"problem": {"spectrum": {"family": "derivative", "k_max": "x"}}}),
    _case("blocks-string", "adversarial", {"adversarial": {"blocks": "x"}}),
    # example1 has no config section: r comes from problem.spectrum.r and
    # the tolerances from epsilons, so any stored example1 key is unknown
    _case("r-string", "example1", {"example1": {"r": "x"}}),
    _case("ratio-zero", "example1", {"example1": {"ratios": [0]}}),
    _case("scale-negative", "solve",
          {"problem": {"spectrum": {"family": "algebraic", "scale": -1}}}),
    _case("cone-a-below-1", "solve", _problem(cone={"a": 0.5})),
    _case("cone-a-infinite", "solve", _problem(cone={"a": float("inf")})),
    _case("doubling-start-0", "solve",
          _problem(partition={"kind": "doubling", "start": 0})),
    _case("unread-section-bad-key", "bounds", {"input": {"bogus": 1}}),
    _case("unread-section-bad-key", "example1", {"problem": {"junk": 2}}),
    _case("n_max-string", "solve", {"guards": {"n_max": "zz"}}),
]


@pytest.mark.parametrize("command,sections", MALFORMED)
def test_malformed_config_exits_2(tmp_path, capsys, command, sections):
    payload = dict({"problem": ALGEBRAIC, "epsilons": [0.1],
                    "output": str(tmp_path / "out")}, **sections)
    cfg = write_config(tmp_path, payload)
    assert cli.main([command, "--config", cfg, "--jmax", "8",
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


def test_readme_config_example_passes_the_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    example = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    document = json.loads(re.sub(r"//.*", "", example))
    assert cli.check_config(document) == document


@pytest.mark.parametrize("command,sections", [
    # 40 doubling blocks span 2**40 indices
    ("solve", {"input": {"kind": "random-cone", "blocks": 40}}),
    ("adversarial", {"adversarial": {"blocks": 40}}),
    # the default enumeration holds 226981 modes
    ("solve", {"problem": {"spectrum": {"family": "derivative"}},
               "input": {"kind": "derivative-random"}})])
def test_index_budget_is_checked_before_allocation(tmp_path, capsys, command,
                                                   sections):
    cfg = write_config(tmp_path, dict({
        "problem": ALGEBRAIC, "epsilons": [0.1], "guards": {"n_max": 1000},
        "output": str(tmp_path / "out")}, **sections))
    assert cli.main([command, "--config", cfg, "--quiet"]) == 2
    assert "1000" in capsys.readouterr().err


def test_adversarial_probe_grows_within_the_index_budget(tmp_path, capsys):
    # at this tolerance a run reads each probe's whole support, so the probe
    # keeps growing; it must stop at the budget, not double until memory ends
    cfg = write_config(tmp_path, {
        "problem": ALGEBRAIC, "epsilons": [1e-30], "guards": {"n_max": 1000},
        "output": str(tmp_path / "out")})
    assert cli.main(["adversarial", "--config", cfg, "--quiet"]) == 1
    assert "over the index budget guards.n_max = 1000" \
        in capsys.readouterr().err


def test_main_builds_its_parser_once():
    assert cli._build_parser() is cli._build_parser()


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit):
        cli.main([])


# -- solve ---------------------------------------------------------------------

def test_solve_zero_input(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": ALGEBRAIC,
        "input": {"kind": "zero"},
        "epsilons": [0.1, 0.5],
        "output": str(out)})
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 0
    header, rows = read_csv(out / "run.csv")
    assert header == ["epsilon", "j_star", "cost", "error_bound",
                      "true_error", "ratio_true_over_eps"]
    assert [float(r[0]) for r in rows] == [0.5, 0.1]
    for row in rows:
        assert int(row[1]) == 1
        assert int(row[2]) == 2  # first doubling boundary
        assert float(row[3]) == 0.0
        assert float(row[4]) == 0.0
    record = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert record["generator"] == "numpy-PCG64"
    assert record["config"]["epsilons"] == [0.1, 0.5]
    assert [r["epsilon"] for r in record["rows"]] == [0.5, 0.1]


def test_solve_random_cone_meets_tolerances(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": ALGEBRAIC,
        "input": {"kind": "random-cone", "blocks": 10},
        "epsilons": [1.0, 0.25, 0.03125],
        "seed": 5,
        "output": str(out)})
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 0
    _, rows = read_csv(out / "run.csv")
    assert len(rows) == 3
    for row in rows:
        eps = float(row[0])
        assert float(row[3]) <= eps
        assert float(row[4]) <= eps
        assert float(row[5]) <= 1.0
    costs = [int(row[2]) for row in rows]
    assert costs == sorted(costs)  # shrinking tolerance never gets cheaper


def test_solve_csv_bit_stable(tmp_path):
    payload = {
        "problem": ALGEBRAIC,
        "input": {"kind": "random-cone"},
        "epsilons": [0.7, 0.02],
        "seed": 99}
    first = write_config(tmp_path, dict(payload, output=str(tmp_path / "a")),
                         name="a.json")
    second = write_config(tmp_path, dict(payload, output=str(tmp_path / "b")),
                          name="b.json")
    assert cli.main(["solve", "--config", first, "--quiet"]) == 0
    assert cli.main(["solve", "--config", second, "--quiet"]) == 0
    assert (tmp_path / "a" / "run.csv").read_bytes() \
        == (tmp_path / "b" / "run.csv").read_bytes()


def test_solve_flag_overrides_win(tmp_path):
    out = tmp_path / "flagged"
    cfg = write_config(tmp_path, {
        "problem": ALGEBRAIC,
        "input": {"kind": "zero"},
        "epsilons": [1.0],
        "seed": 1})
    assert cli.main(["solve", "--config", cfg, "--quiet",
                     "--epsilons", "0.5,0.5,0.25",
                     "--seed", "7",
                     "--output", str(out)]) == 0
    record = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert record["config"]["seed"] == 7
    assert record["config"]["epsilons"] == [0.5, 0.5, 0.25]  # as passed
    assert [r["epsilon"] for r in record["rows"]] == [0.5, 0.25]  # deduped


def test_solve_without_config_uses_defaults(tmp_path):
    out = tmp_path / "bare"
    assert cli.main(["solve", "--epsilons", "0.5", "--quiet",
                     "--output", str(out)]) == 2  # no problem section
    # the problem section is mandatory because the spectrum has no default
    cfg = write_config(tmp_path, {"problem": ALGEBRAIC})
    assert cli.main(["solve", "--config", cfg, "--epsilons", "0.5",
                     "--quiet", "--output", str(out)]) == 0
    assert (out / "run.csv").exists()


def _fsum_tail(problem, f, n):
    """Solution tail norm past n by math.fsum, sharing no code with the
    library's kernel."""
    span = range(n + 1, f.support_bound + 1)
    prod = problem.spectrum.values(span) * f.coefficients(span)
    return math.sqrt(math.fsum((prod * prod).tolist()))


@pytest.mark.parametrize("blocks, j_max, epsilons, stops", [
    (10, 6, [0.1, 1e-4, 0.5, 0.03, 0.1], [2, 5, 6, None]),
    # support 2**14 and blocks of up to 4096 indices: the binned kernel and
    # the suffix pass produce the bytes
    (14, 13, [0.1, 1e-3, 0.5, 0.03, 3e-4, 0.1, 1e-4], [2, 5, 6, 11, 13, None]),
], ids=["support-1024", "support-16384"])
def test_solve_csv_matches_one_run_per_tolerance(tmp_path, blocks, j_max,
                                                 epsilons, stops):
    out = tmp_path / "out"
    payload = {"problem": ALGEBRAIC,
               "input": {"kind": "random-cone", "blocks": blocks},
               "epsilons": epsilons,
               "seed": 3, "guards": {"j_max": j_max}, "output": str(out)}
    cfg = write_config(tmp_path, payload)
    # the smallest tolerance is unreachable within j_max
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 1
    problem, mis = cli.build_problem(payload["problem"])
    f = cli.build_input(payload["input"], problem, mis, payload["seed"])
    rows, ratios = [], []
    for eps in sorted(set(epsilons), reverse=True):
        try:
            run = adaptive_algorithm(problem, f, eps, block_limit=j_max)
        except GuardExceeded:
            rows.append((eps, None, None, None, None, None))
            ratios.append(None)
            continue
        err = _fsum_tail(problem, f, run.cost)
        rows.append((eps, run.stop_block, run.cost, run.error_bound, err,
                     err / eps))
        norms = [block_norm(problem, f, j)
                 for j in range(1, run.stop_block + 1)]
        ratios.append(brute_worst_ratio(problem.cone, norms))
    assert [row[1] for row in rows] == stops
    cli.write_csv(tmp_path / "expected.csv",
                  ("epsilon", "j_star", "cost", "error_bound", "true_error",
                   "ratio_true_over_eps"), rows)
    assert (out / "run.csv").read_bytes() \
        == (tmp_path / "expected.csv").read_bytes()
    record = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert [r.get("worst_cone_ratio") for r in record["rows"]] == ratios
    # every input is a cone member, so each settled row's bound holds
    assert [r.get("bound_holds") for r in record["rows"]] \
        == [None if j is None else True for j in stops]


def test_solve_fails_a_refuted_error_bound(tmp_path, capsys):
    # a random derivative input is no member of this tight cone: each run
    # stops early and its certified bound is below the true error
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "derivative", "dimension": 2,
                                 "k_max": 6},
                    "cone": {"a": 1.01, "b": 0.01}},
        "input": {"kind": "derivative-random"}, "epsilons": [1.0, 0.1],
        "seed": 3, "output": str(out)})
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    record = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert [row["bound_holds"] for row in record["rows"]] == [False, False]
    assert err == [f"solve: true error {row['true_error']!r} exceeds error "
                   f"bound {row['error_bound']!r} at "
                   f"epsilon={row['epsilon']!r}" for row in record["rows"]]
    header, rows = read_csv(out / "run.csv")
    assert header[-2:] == ["true_error", "ratio_true_over_eps"]
    assert all(float(r[4]) > float(r[3]) for r in rows)


def test_solve_rejects_nan_tolerance(tmp_path, capsys):
    # a NaN tolerance never settles; the walk must not start at all
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, {"problem": ALGEBRAIC,
                                  "input": {"kind": "zero"},
                                  "epsilons": [float("nan")], "output": out})
    assert cli.main(["solve", "--config", cfg, "--jmax", "8",
                     "--quiet"]) == 2
    assert "tolerances must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [float("inf"), float("nan")])
def test_solve_rejects_non_finite_input_scale(tmp_path, capsys, scale):
    cfg = write_config(tmp_path, {
        "problem": ALGEBRAIC, "input": {"kind": "random-cone", "scale": scale},
        "epsilons": [0.1], "output": str(tmp_path / "out")})
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 2
    assert "input.scale must be finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_solve_rejects_non_finite_input_data(tmp_path, capsys):
    # a finite scale whose cone member overflows to inf in block 1
    cfg = write_config(tmp_path, {
        "problem": ALGEBRAIC,
        "input": {"kind": "random-cone", "blocks": 4, "scale": 1.7e308},
        "epsilons": [0.1], "seed": 1, "output": str(tmp_path / "out")})
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 2
    assert "input rejected: non-finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_solve_rejects_a_cone_member_past_an_underflowed_lam(tmp_path,
                                                             capsys):
    # 1 / 2**i is zero from i = 1024 on, where 2**i overflows: block 10 of
    # 15 would divide by zero and the true error would read NaN
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "geometric", "base": 2.0}},
        "input": {"kind": "random-cone", "blocks": 15},
        "epsilons": [0.01], "output": str(out)})
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: input rejected: ")
    assert "singular values must be positive" in err
    assert "Warning" not in err and "Traceback" not in err
    assert not (out / "run.json").exists()


@pytest.mark.filterwarnings("error")
def test_solve_rejects_a_cone_member_whose_coefficients_overflow(tmp_path,
                                                                 capsys):
    # lam_i = 1e-300 / i**3 is below 4e-313 in block 12 (i = 14337..28672),
    # so its block norm over lam would be inf: numpy warned, and the run
    # reported an infinite true error against a finite bound
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "algebraic", "scale": 1e-300,
                                 "power": 3.0},
                    "partition": {"kind": "doubling", "start": 7},
                    "cone": {"a": 2.0, "b": 0.5}},
        "epsilons": [0.5], "input": {"kind": "random-cone", "blocks": 12},
        "output": str(out)})
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: input rejected: the coefficients of block "
                   "12 overflow: its norm over lam is past the float range\n")
    assert not (out / "run.json").exists()


@pytest.mark.filterwarnings("error")
def test_solve_blames_a_zero_lam_not_the_coefficients(tmp_path, capsys):
    # i**100 is inf from i = 1223 on (block 11), so lam_i = 1 / i**100 is
    # zero there: the rule's own overflow is a non-positive lam, not an
    # overflow of the division by lam
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "algebraic", "scale": 1.0,
                                 "power": 100.0},
                    "partition": {"kind": "doubling", "start": 1},
                    "cone": {"a": 2.0, "b": 0.5}},
        "epsilons": [0.5], "input": {"kind": "random-cone", "blocks": 12},
        "output": str(out)})
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "config error: input rejected: algebraic(scale=1.0, power=100.0): "
        "singular values must be positive\n")
    assert not (out / "run.json").exists()


# an overflow inside a rule, algebraic power 100, is the test above
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("problem_cfg, input_cfg, message", [
    # the profile scale * c_j overflows before anything is stored
    ({"spectrum": {"family": "algebraic", "scale": 1.0, "power": 1.0},
      "partition": {"kind": "doubling", "start": 1}},
     {"kind": "random-cone", "blocks": 8, "scale": 1.7e308},
     "non-finite block norm profile: "),
    # lam_1 * fhat_1 overflows in the walk's dense product
    ({"spectrum": {"family": "geometric", "scale": 1e300,
                   "base": 1.0000001}},
     {"kind": "random-cone", "blocks": 6, "scale": 1e300},
     "non-finite norm over indices 1..1: "),
], ids=["profile", "dense-product"])
def test_solve_rejects_an_overflow_without_a_warning(tmp_path, capsys,
                                                     problem_cfg, input_cfg,
                                                     message):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"problem": problem_cfg, "input": input_cfg,
                                  "epsilons": [0.5], "output": str(out)})
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: input rejected: " + message)
    assert "Warning" not in err and "Traceback" not in err
    assert not (out / "run.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cone, scale, seed, message", [
    # a finite profile whose Gaussian entry overflows once scaled to it
    ({"a": 1.5, "b": 0.99}, 1e308, 4, "non-finite block 1: "),
    # a finite profile and a head draw past the float range
    ({"a": 1.01, "b": 0.5}, 1e308, 23, "non-finite head: "),
], ids=["scaled-block", "head"])
def test_solve_rejects_a_cone_member_scaled_past_the_float_range(
        tmp_path, capsys, cone, scale, seed, message):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": dict(ALGEBRAIC, cone=cone),
        "input": {"kind": "random-cone", "blocks": 2, "scale": scale},
        "epsilons": [0.5], "seed": seed, "output": str(out)})
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: input rejected: " + message)
    assert not (out / "run.json").exists()


@pytest.mark.parametrize("command", ["solve", "bounds", "adversarial"])
def test_explicit_partition_that_runs_out_is_a_guard(tmp_path, capsys,
                                                     command):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(
        _problem(partition={"kind": "explicit", "boundaries": [1, 2, 4, 8]}),
        input={"kind": "random-cone", "blocks": 3}, epsilons=[1e-9],
        output=str(out)))
    if command == "adversarial":  # its start depth 4 is past the end
        assert cli.main([command, "--config", cfg, "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: adversarial.blocks = 4 is past the last block")
        return
    assert cli.main([command, "--config", cfg, "--quiet"]) == 1
    assert "guard exceeded" in capsys.readouterr().err
    if command == "solve":
        _, rows = read_csv(out / "run.csv")
        assert rows == [["1e-09", "", "", "", "", ""]]
        # the walk read the partition's 3 blocks, not the default j_max
        record = json.loads((out / "run.json").read_text(encoding="utf-8"))
        assert record["rows"][0]["diagnostic"].startswith(
            "no stopping block within 3 blocks;")


@pytest.mark.parametrize("power, partition, guards, first_past", [
    # block 1 ends at 2**40, past the default n_max of 2**26: the walk
    # reads block 0 alone instead of evaluating lam up to 2**40
    (1.0, {"kind": "explicit", "boundaries": [0, 2 ** 40]}, {},
     "block 1 ends at 1099511627776, past the index budget guards.n_max "
     "= 67108864"),
    (1.5, {"kind": "explicit", "boundaries": [0, 2 ** 40]}, {},
     "block 1 ends at 1099511627776, past the index budget guards.n_max "
     "= 67108864"),
    # block 0 itself ends past the budget: the walk reads nothing
    (1.0, {"kind": "arithmetic", "start": 2000, "step": 10},
     {"n_max": 1000},
     "block 0 ends at 2000, past the index budget guards.n_max = 1000"),
], ids=["harmonic", "pow-1.5", "past-n_0"])
def test_a_walk_stops_before_a_block_past_the_index_budget(
        tmp_path, capsys, power, partition, guards, first_past):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "algebraic", "power": power},
                    "partition": partition},
        "input": {"kind": "zero"}, "epsilons": [0.1], "guards": guards,
        "output": str(out)})
    start = time.perf_counter()
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "solve: guard exceeded at epsilon=0.1: no stopping block within 0 "
        f"blocks: {first_past}\n")
    _, rows = read_csv(out / "run.csv")
    assert rows == [["0.1", "", "", "", "", ""]]


def test_a_walk_reads_every_block_within_the_index_budget(tmp_path):
    # n_4 = 1000 is the budget itself, so block 4 is read, and block 5,
    # which ends at 2000, is not
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "algebraic"},
                    "partition": {"kind": "explicit",
                                  "boundaries": [1, 2, 4, 8, 1000, 2000]}},
        "input": {"kind": "random-cone", "blocks": 4},
        "epsilons": [0.5, 1e-300], "guards": {"n_max": 1000},
        "output": str(out)})
    assert cli.main(["solve", "--config", cfg, "--quiet"]) == 1
    rows = json.loads((out / "run.json").read_text(encoding="utf-8"))["rows"]
    assert rows[0]["j_star"] <= 4
    assert rows[1]["diagnostic"] == (
        "no stopping block within 4 blocks: block 5 ends at 2000, past the "
        "index budget guards.n_max = 1000")


def test_bounds_on_an_explicit_partition_shorter_than_j_max(tmp_path,
                                                            capsys):
    # the scans end at the partition's 7th block, as a walk does, so the
    # default j_max writes the rows of --jmax 7
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "algebraic"},
                    "partition": {"kind": "explicit",
                                  "boundaries": [1, 2, 4, 8, 16, 32, 64,
                                                 128]}},
        "epsilons": [0.5, 0.1], "rho": 1.0})
    tables = []
    for extra in ([], ["--jmax", "7"]):
        out = tmp_path / f"out{len(tables)}"
        assert cli.main(["bounds", "--config", cfg, "--output", str(out),
                         "--quiet"] + extra) == 0
        assert capsys.readouterr().err == ""
        tables.append((out / "bounds.csv").read_text(encoding="utf-8"))
    assert tables[0] == tables[1]
    _, rows = read_csv(tmp_path / "out0" / "bounds.csv")
    assert [row[:6] for row in rows] == [["0.5", "1.0", "2", "2", "3", "2"],
                                         ["0.1", "1.0", "4", "5", "5", "5"]]


@pytest.mark.parametrize("command, sections, key", [
    ("solve", {}, "input.blocks = 8"),  # the default input.blocks
    ("solve", {"input": {"kind": "random-cone", "blocks": 4}},
     "input.blocks = 4"),
    ("adversarial", {}, "adversarial.blocks = 4"),  # the search's start
    ("adversarial", {"adversarial": {"blocks": 5}}, "adversarial.blocks = 5"),
], ids=["solve-default", "solve", "adversarial-default", "adversarial"])
def test_a_block_count_past_an_explicit_partition_is_a_config_error(
        tmp_path, capsys, command, sections, key):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(
        _problem(partition={"kind": "explicit", "boundaries": [1, 2, 4, 8]}),
        epsilons=[0.1], output=str(out), **sections))
    assert cli.main([command, "--config", cfg, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"config error: {key} is past the last block of the explicit "
        "partition, block 3\n")
    assert not out.exists()


def test_a_probe_search_past_an_explicit_partition_fails_its_tolerance(
        tmp_path, capsys):
    # the run at 0.06 on the depth-4 probe stops at block 4, the last, so
    # the search has no room to grow; 0.5 keeps its certificate
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(
        _problem(partition={"kind": "explicit",
                            "boundaries": [1, 2, 4, 8, 16]}),
        epsilons=[0.5, 0.06], output=str(out)))
    assert cli.main(["adversarial", "--config", cfg, "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "adversarial: construction failed at epsilon=0.06: the probe depth "
        "= 5 is past the last block of the explicit partition, block 4\n")
    entries = json.loads((out / "adversarial.json").read_text(
        encoding="utf-8"))["entries"]
    assert [(e["epsilon"], e["ok"], e["blocks"]) for e in entries] \
        == [(0.5, True, 4)]


def test_the_default_probe_depth_obeys_the_index_budget(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(
        _problem(partition={"kind": "explicit",
                            "boundaries": [1, 2, 4, 8, 2 ** 22]}),
        epsilons=[0.01], guards={"n_max": 2 ** 20}, output=str(out)))
    assert cli.main(["adversarial", "--config", cfg, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "config error: adversarial.blocks = 4 spans 4194304 indices, over "
        "the index budget guards.n_max = 1048576\n")
    assert not out.exists()


# -- bounds --------------------------------------------------------------------

def test_bounds_algebraic_chain(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": ALGEBRAIC,
        "epsilons": [0.01, 0.001],
        "rho": 1.0,
        "output": str(out)})
    assert cli.main(["bounds", "--config", cfg, "--quiet"]) == 0
    header, rows = read_csv(out / "bounds.csv")
    assert header == ["epsilon", "rho", "j_dagger", "j_dagger_rough",
                      "j_dagger_first", "j_star_lower", "omega", "R"]
    assert len(rows) == 2
    for row in rows:
        assert float(row[7]) == 2.0  # doubling boundaries, harmonic decay
        assert 0.0 < float(row[6]) < 1.0
        assert int(row[2]) <= int(row[3])
        assert row[5] != ""


def test_bounds_geometric_spectrum_omits_omega(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "geometric", "base": 2.0}},
        "epsilons": [0.01],
        "output": str(out)})
    assert cli.main(["bounds", "--config", cfg]) == 0
    assert "still growing" in capsys.readouterr().err
    _, rows = read_csv(out / "bounds.csv")
    assert rows[0][6] == ""  # no omega without a boundary-ratio bound
    assert rows[0][5] == ""
    assert int(rows[0][2]) >= 1


def test_bounds_guard_past_the_float_range(tmp_path, capsys):
    # (rho / epsilon)**2 overflows at 1e-200 and 1e-310, and the first-term
    # argument at 1e-310: each is a guard message, not a traceback
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": ALGEBRAIC, "epsilons": [1e-150, 1e-200, 1e-310],
        "output": str(out)})
    assert cli.main(["bounds", "--config", cfg, "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"bounds: guard exceeded at epsilon={eps!r}: no stopping "
                   "block bound within 64 blocks"
                   for eps in (1e-150, 1e-200, 1e-310)]
    assert read_csv(out / "bounds.csv")[1] == []


@pytest.mark.parametrize("command, sections, message", [
    ("bounds", {"guards": {"j_max": 1024}}, "guard exceeded: index "),
    ("adversarial", {"adversarial": {"blocks": 1100},
                     "guards": {"n_max": 2 ** 1200, "j_max": 2000}},
     "adversarial: construction failed at epsilon=0.1: index "),
], ids=["bounds", "adversarial"])
def test_an_index_past_the_float_range_is_a_guard(tmp_path, capsys, command,
                                                  sections, message):
    # n_1024 = 2**1024 has no float: the bounds read lam there and the
    # probe search builds a pair that reaches it
    cfg = write_config(tmp_path, dict(sections, problem=ALGEBRAIC,
                                      epsilons=[0.1],
                                      output=str(tmp_path / "out")))
    assert cli.main([command, "--config", cfg, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert err.endswith(" is past the float range\n")


def test_bounds_lower_bound_of_an_underflowed_omega_epsilon_is_a_guard(
        tmp_path, capsys):
    # omega is about 1e-90, so omega * 1e-300 is 0.0: that row's lower bound
    # is unsettled, as for any unreachable target, and the others stand
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "geometric", "scale": 1.0,
                                 "base": 1e10},
                    "partition": {"kind": "arithmetic", "start": 1,
                                  "step": 3},
                    "cone": {"a": 1e6, "b": 1e-6}},
        "rho": 1e-200, "epsilons": [1e-210, 1e-300], "guards": {"j_max": 5},
        "output": str(out)})
    assert cli.main(["bounds", "--config", cfg, "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "bounds: guard exceeded in lower bound at epsilon=1e-300: "
        "lower-bound block still growing at block limit 5"]
    _, rows = read_csv(out / "bounds.csv")
    assert [(row[0], row[5]) for row in rows] == [("1e-210", "2"),
                                                  ("1e-300", "")]


def test_bounds_holds_the_chain_where_the_lower_bound_is_block_zero(
        tmp_path, capsys):
    # omega * epsilon is about 1e-190 against rho = 1e-200, so the lower
    # bound settles at block 0 (n_0 = 1) and j_dagger is 1 (n_1 = 4), the
    # one block past it that the chain allows
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "geometric", "scale": 1.0,
                                 "base": 1e10},
                    "partition": {"kind": "arithmetic", "start": 1,
                                  "step": 3},
                    "cone": {"a": 1e6, "b": 1e-6}},
        "rho": 1e-200, "epsilons": [1e-100], "guards": {"j_max": 5},
        "output": str(out)})
    assert cli.main(["bounds", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out / "bounds.csv")
    assert [(row[2], row[5]) for row in rows] == [("1", "0")]


# the harmonic spectrum on doubling 2**(j+1) at eps = 10**-4.5, where
# j_dagger = 15 is one block past j_star_lower = 14 (n = 65536 and 32768)
HARMONIC_ONE_BLOCK_PAST = {
    "problem": {"spectrum": {"family": "algebraic", "scale": 1.0,
                             "power": 1.0},
                "partition": {"kind": "doubling", "start": 2}},
    "rho": 1.0, "epsilons": [3.1622776601683795e-05]}


def test_bounds_holds_the_chain_one_block_past_the_lower_bound(tmp_path,
                                                               capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(HARMONIC_ONE_BLOCK_PAST,
                                      output=str(out)))
    assert cli.main(["bounds", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "bounds.csv").read_text(encoding="utf-8") == (
        "epsilon,rho,j_dagger,j_dagger_rough,j_dagger_first,j_star_lower,"
        "omega,R\n"
        "3.1622776601683795e-05,1.0,15,16,16,14,0.02054987341316966,2.0\n")


def test_bounds_reports_a_violated_chain_and_exits_1(tmp_path, capsys,
                                                     monkeypatch):
    # a lower bound two blocks short puts j_dagger = 15 past 12 + 1
    scan = analysis.complexity_lower_block

    def short(*args, **kwargs):
        return [None if j is None else j - 2 for j in scan(*args, **kwargs)]

    monkeypatch.setattr(analysis, "complexity_lower_block", short)
    problem, _ = cli.build_problem(HARMONIC_ONE_BLOCK_PAST["problem"])
    (row,) = analysis.bounds_table(problem, [3.1622776601683795e-05], 1.0)
    assert (row.j_dagger, row.j_star_lower, row.chain_holds) == (15, 12,
                                                                  False)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(HARMONIC_ONE_BLOCK_PAST,
                                      output=str(out)))
    assert cli.main(["bounds", "--config", cfg, "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "bounds: chain violated at epsilon=3.1622776601683795e-05: "
        "j_dagger=15 > j_lower + 1 = 13\n")


@pytest.mark.parametrize("problem_cfg", [
    _problem(partition={"kind": "zero-doubling", "first": 4}),
    _problem(partition={"kind": "arithmetic", "start": 0, "step": 4}),
    {"problem": {"spectrum": {"family": "derivative", "dimension": 2,
                              "k_max": 4}}},
], ids=["zero-doubling", "arithmetic-from-0", "derivative-partition"])
def test_bounds_with_n0_zero_and_one_block_has_no_ratio(tmp_path, capsys,
                                                        problem_cfg):
    # from n_0 = 0 the first drop lies past a one-block limit: no R, no
    # omega and no lower bound, but the stop bounds stand
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(problem_cfg, epsilons=[100.0, 0.01],
                                      output=str(out)))
    assert cli.main(["bounds", "--config", cfg, "--jmax", "1",
                     "--quiet"]) in (0, 1)
    err = capsys.readouterr().err
    assert err.startswith("bounds: partition starts at n_0 = 0")
    assert "Traceback" not in err
    _, rows = read_csv(out / "bounds.csv")
    assert [row[0] for row in rows] == ["100.0"]
    assert rows[0][2] == "1" and rows[0][5:] == ["", "", ""]


def test_bounds_with_a_ratio_past_the_float_range_has_omega_zero(tmp_path,
                                                                 capsys):
    # R = 4**129 makes (b R)**4 overflow: omega is 0.0, and no lower bound
    # settles, as for an omega * epsilon that underflows
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "geometric", "base": 4.0},
                    "partition": {"kind": "explicit",
                                  "boundaries": [1, 130]}},
        "epsilons": [1.0], "guards": {"j_max": 1}, "output": str(out)})
    assert cli.main(["bounds", "--config", cfg, "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "bounds: guard exceeded in lower bound at epsilon=1.0: lower-bound "
        "block still growing at block limit 1\n")
    _, rows = read_csv(out / "bounds.csv")
    assert rows[0][5:] == ["", "0.0", repr(4.0 ** 129)]


@pytest.mark.parametrize("command, message", [
    ("bounds", "bounds: guard exceeded at epsilon=1.0"),
    ("adversarial", "adversarial: construction failed at epsilon=1.0")])
def test_a_cone_past_2_to_the_511_is_no_traceback(tmp_path, capsys, command,
                                                  message):
    # (a + 1)**2 overflows; a + 1 and a - 1 are a there, so their ratio is 1
    cfg = write_config(tmp_path, {
        "problem": dict(ALGEBRAIC, cone={"a": 1e200, "b": 0.5}),
        "epsilons": [1.0], "guards": {"j_max": 4},
        "output": str(tmp_path / "out")})
    assert cli.main([command, "--config", cfg, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(message)


# -- adversarial ---------------------------------------------------------------

def entry_of(cert):
    """The adversarial.json entry of a fooling certificate, key by key."""
    pair = cert.pair
    return {"epsilon": cert.epsilon, "blocks": pair.blocks,
            "ratio": pair.ratio, "amplitude": pair.amplitude,
            "shift": pair.shift, "zeroed_count": cert.zeroed_count,
            "membership": {name: {"member": m.member,
                                  "worst_ratio": m.worst_ratio}
                           for name, m in cert.membership.items()},
            "norms": dict(cert.norms), "separation": cert.separation,
            "identity_gap": cert.identity_gap,
            "indistinguishable": cert.indistinguishable, "ok": cert.ok}


GEOMETRIC_SLOW = {"spectrum": {"family": "geometric", "base": 1.01}}


@pytest.mark.parametrize("problem_cfg, sections", [
    (ALGEBRAIC, {}),
    # each depth has its own boundary ratio, 1.01**(2**(depth - 1))
    (GEOMETRIC_SLOW, {}),
    # the boundary drop of base 1.01 passes 2.0 at block 8
    (GEOMETRIC_SLOW, {"adversarial": {"ratio": 2.0}}),
    # the runs on deeper probes need more than 7 blocks
    (ALGEBRAIC, {"guards": {"j_max": 7}}),
    # depth 10 spans 1024 indices
    (ALGEBRAIC, {"guards": {"n_max": 1000}}),
    (ALGEBRAIC, {"adversarial": {"blocks": 6}}),
], ids=["default", "growing-ratio", "ratio-check", "j_max", "n_max",
        "configured-blocks"])
def test_adversarial_entries_match_a_fresh_search_per_tolerance(
        tmp_path, capsys, problem_cfg, sections):
    out = tmp_path / "out"
    epsilons = [0.3, 0.1, 3e-2, 1e-2, 3e-3, 1e-3, 1e-4]
    config = dict({"problem": problem_cfg, "epsilons": epsilons,
                   "output": str(out)}, **sections)
    argv = ["adversarial", "--config", write_config(tmp_path, config),
            "--quiet"]
    status = cli.main(argv)
    merged = cli._effective(cli._build_parser().parse_args(argv), config)
    j_max, n_max = merged["guards"]["j_max"], merged["guards"]["n_max"]
    problem, _ = cli.build_problem(merged["problem"], n_max)
    adv = merged.get("adversarial", {})
    entries, messages = [], []
    for eps in sorted(epsilons, reverse=True):
        try:
            ratio, depth, cost = fresh_probe_search(
                problem, eps, 1.0, j_max, n_max, blocks=adv.get("blocks"),
                ratio=adv.get("ratio"))
        except (ValueError, GuardExceeded) as exc:
            messages.append(f"adversarial: construction failed at "
                            f"epsilon={eps!r}: {exc}")
            continue
        # the library's certificate at that depth and ratio, searched no
        # further
        (cert,) = fooling_certificates(problem, [eps], 1.0, blocks=depth,
                                       ratio=ratio, block_limit=j_max)
        assert cert.zeroed_count == cost
        entries.append(entry_of(cert))
        if not cert.ok:
            messages.append(f"adversarial: checks failed at epsilon={eps!r}")
    record = json.loads((out / "adversarial.json").read_text(encoding="utf-8"))
    assert record["entries"] == json.loads(json.dumps(entries))
    assert capsys.readouterr().err.splitlines() == messages
    assert status == (1 if messages else 0)
    # every case fools some tolerances, and each guard case fails others
    assert entries and (messages or not sections)

def test_adversarial_fools_the_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": ALGEBRAIC,
        "epsilons": [0.05],
        "rho": 1.0,
        "output": str(out)})
    assert cli.main(["adversarial", "--config", cfg, "--quiet"]) == 0
    record = json.loads((out / "adversarial.json").read_text(encoding="utf-8"))
    entry = record["entries"][0]
    assert entry["ok"] is True
    assert entry["indistinguishable"] is True
    assert 2.0 * entry["epsilon"] >= entry["separation"] \
        >= 2.0 * entry["shift"] > 0.0
    assert all(m["member"] for m in entry["membership"].values())
    assert all(v <= 1.0 + 1e-9 for v in entry["norms"].values())


def test_a_separation_past_twice_the_tolerance_fails_the_run(
        tmp_path, capsys, monkeypatch):
    # both runs return one result, which the error guarantee puts within
    # epsilon of each true solution: 3 epsilon apart, one bound is false
    monkeypatch.setattr(adversarial, "solution_separation",
                        lambda problem, pair: 3.0 * 0.05)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": ALGEBRAIC, "epsilons": [0.05], "rho": 1.0,
        "output": str(out)})
    assert cli.main(["adversarial", "--config", cfg, "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "adversarial: checks failed at epsilon=0.05"]
    record = json.loads((out / "adversarial.json").read_text(encoding="utf-8"))
    (entry,) = record["entries"]
    assert entry["ok"] is False and entry["separation"] == 3.0 * 0.05
    # every other check holds: only the separation fails the certificate
    assert entry["indistinguishable"] is True
    assert entry["separation"] >= 2.0 * entry["shift"]
    assert all(m["member"] for m in entry["membership"].values())
    assert all(v <= 1.0 + 1e-9 for v in entry["norms"].values())


def test_adversarial_rejects_headless_partition(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "algebraic"},
                    "partition": {"kind": "zero-doubling", "first": 4}},
        "epsilons": [0.1],
        "output": str(tmp_path / "out")})
    assert cli.main(["adversarial", "--config", cfg, "--quiet"]) == 2


GEOMETRIC_2 = {"spectrum": {"family": "geometric", "base": 2.0}}


@pytest.mark.parametrize("problem_cfg, adversarial, reason", [
    # lam_1024 = 2**-1024 rounds to zero: the drop at block 10 is inf
    (GEOMETRIC_2, {"blocks": 10, "ratio": 1e300},
     "boundary drop inf at block 10"),
    (GEOMETRIC_2, {"blocks": 11}, "boundary drop inf at block 10"),
    # lam_512 = 3**-512 squares to zero: S_9 is inf
    ({"spectrum": {"family": "geometric", "base": 3.0}},
     {"blocks": 9, "ratio": 1e300}, "past the float range at depth 9"),
    # S_130 grows by 1 / 0.05**2 a block, past the float range
    ({"spectrum": {"family": "algebraic", "power": 1.0},
      "partition": {"kind": "arithmetic", "start": 1, "step": 1},
      "cone": {"a": 2.0, "b": 0.05}},
     {"blocks": 130, "ratio": 2.0}, "past the float range at depth 130"),
    # every 1 / lam**2 <= 1e-600 underflows: S_4 is zero, not a divisor
    ({"spectrum": {"family": "algebraic", "scale": 1e300}}, {"blocks": 4},
     "S_4 is below the float range at depth 4"),
], ids=["underflowed-drop", "underflowed-drop-scanned-ratio",
        "underflowed-square", "overflowed-sum", "underflowed-sum"])
def test_a_profile_past_the_float_range_fails_the_tolerance(
        tmp_path, capsys, problem_cfg, adversarial, reason):
    cfg = write_config(tmp_path, {
        "problem": problem_cfg, "epsilons": [1e-2],
        "adversarial": adversarial, "output": str(tmp_path / "out")})
    assert cli.main(["adversarial", "--config", cfg, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("adversarial: construction failed at epsilon=0.01: ")
    assert reason in err
    assert "Traceback" not in err


def _cli_child(tmp_path, command, payload, limit=None):
    """``adaptlin <command>`` on ``payload`` in a child process, under an
    address-space limit of ``limit`` bytes that the child sets itself."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    cfg = write_config(tmp_path, dict(payload, output=str(tmp_path / "out")))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "adaptlin.cli", command, "--config", cfg,
         "--quiet"], env=env, capture_output=True, text=True,
        timeout=300, preexec_fn=None if limit is None else cap)


@pytest.mark.parametrize("payload", [
    # the two-coordinate bump has entries near 1e-201 whose squares
    # underflow: every piece norm would be 0
    {"problem": {"spectrum": {"family": "periodic", "r": 1.566},
                 "partition": {"kind": "arithmetic", "start": 2, "step": 1},
                 "cone": {"a": 18.4, "b": 0.5}},
     "epsilons": [0.0995, 9e-10], "rho": 1e-200,
     "guards": {"j_max": 8, "n_max": 100}},
    {"problem": {"spectrum": {"family": "geometric", "scale": 0.0074,
                              "base": 2.0},
                 "partition": {"kind": "arithmetic", "start": 3, "step": 1},
                 "cone": {"a": 1.5, "b": 1e-6}},
     "epsilons": [0.1, 1e-10], "rho": 1e-200, "adversarial": {"blocks": 7}},
], ids=["periodic", "geometric"])
def test_a_bump_whose_squares_underflow_still_fools(tmp_path, payload):
    done = _cli_child(tmp_path, "adversarial", payload)
    assert done.returncode in (0, 1) and "Traceback" not in done.stderr
    entries = json.loads((tmp_path / "out" / "adversarial.json").read_text(
        encoding="utf-8"))["entries"]
    assert [entry["ok"] for entry in entries] == [True, True]


def test_an_input_past_the_default_index_budget_is_refused_before_any_draw(
        tmp_path):
    # 2**28 indices are a 2 GiB input, which with its draw's scratch a 3 GB
    # address space cannot hold: the default budget of 2**26 refuses the
    # config before it is allocated
    done = _cli_child(tmp_path, "solve", {
        "problem": {"spectrum": {"family": "algebraic", "scale": 1.0,
                                 "power": 1.0},
                    "partition": {"kind": "doubling", "start": 1}},
        "input": {"kind": "random-cone", "blocks": 28},
        "epsilons": [1e-14]}, limit=3_000_000_000)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert "index budget guards.n_max = 67108864" in done.stderr


def test_an_allocation_the_host_refuses_exits_1_with_numpys_message(
        tmp_path):
    # a budget raised to 2**29 admits a 4 GiB input, which a 3 GB address
    # space refuses: the command names the bytes instead of a traceback
    done = _cli_child(tmp_path, "solve", {
        "problem": {"spectrum": {"family": "algebraic", "scale": 1.0,
                                 "power": 1.0},
                    "partition": {"kind": "doubling", "start": 1}},
        "input": {"kind": "random-cone", "blocks": 29},
        "epsilons": [1e-14], "guards": {"n_max": 2 ** 29}},
        limit=3_000_000_000)
    assert done.returncode == 1 and "Traceback" not in done.stderr
    assert done.stderr.startswith("out of memory: Unable to allocate 4.00 "
                                  "GiB for an array with shape (536870913,)")


# -- example1 ------------------------------------------------------------------

def test_example1_default_grid_all_match(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["example1", "--quiet", "--output", str(out)]) == 0
    header, rows = read_csv(out / "example1.csv")
    assert header == ["epsilon", "rho", "cost_scan", "cost_closed_form",
                      "match"]
    assert len(rows) == 50
    assert all(row[4] == "1" for row in rows)
    assert all(int(row[2]) == int(row[3]) for row in rows)


def test_example1_handles_tolerances_at_or_above_radius(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["example1", "--quiet", "--output", str(out),
                     "--epsilons", "2,1,0.5", "--rho", "1"]) == 0
    _, rows = read_csv(out / "example1.csv")
    assert [int(r[2]) for r in rows] == [0, 0, 3]
    assert all(row[4] == "1" for row in rows)


def test_example1_respects_configured_r(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "periodic", "r": 1.0}},
        "epsilons": [1.0 / 7.0], "output": str(out)})
    assert cli.main(["example1", "--config", cfg, "--quiet"]) == 0
    _, rows = read_csv(out / "example1.csv")
    assert int(rows[0][2]) == 13


def test_example1_settles_a_subnormal_product_exactly(tmp_path):
    # lam_34 * rho rounds to epsilon, 7 units of 2**-1074, while the exact
    # product is above it, so the budget is the closed form's 35, not 33
    out = tmp_path / "out"
    assert cli.main(["example1", "--quiet", "--output", str(out),
                     "--rho", "1e-320", "--epsilons", "3.5e-323"]) == 0
    assert (out / "example1.csv").read_text().splitlines()[1] \
        == "3.5e-323,1e-320,35,35,1"


@pytest.mark.parametrize("payload", [
    # the default tolerances rho / q: the largest has a subnormal level
    # search, and the smallest underflow to 0
    {"rho": 1e-320},
    # epsilon / rho = 1e-600: no positive lam qualifies
    {"epsilons": [1e-300], "rho": 1e300},
], ids=["subnormal-rho", "quotient-below-the-float-range"])
def test_example1_past_the_float_range_hits_the_guard(tmp_path, payload):
    done = _cli_child(tmp_path, "example1", payload)
    assert done.returncode == 1
    assert done.stderr.startswith("guard exceeded: ")
    assert "Traceback" not in done.stderr


# -- CSV writer ----------------------------------------------------------------

def _per_cell_csv(path, header, rows):
    """The writer's rules applied cell by cell: None is empty, integers
    print as str(int), everything else as repr(float)."""
    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


MIXED_ROWS = [
    (0.1, 3, None, np.float64(2.5), np.int64(-7), -0.0),
    (1e-300, np.int64(0), 0.0, np.float64(-0.0), 12, float("nan")),
    (float("inf"), -1, np.float64("inf"), None, True, np.float32(0.1)),
    (0.1, 3, 5e-324, np.float64(float("-inf")), None, 1.0),
]


@pytest.mark.parametrize("rows", [MIXED_ROWS, [], [(1.5, 2.0, 0.25)] * 3,
                                  [(1, 2, 3), (4, 5, 6)]],
                         ids=["mixed", "empty", "floats", "ints"])
def test_write_csv_matches_per_cell_writer(tmp_path, rows):
    header = tuple("abcdef"[:len(rows[0]) if rows else 3])
    cli.write_csv(tmp_path / "new.csv", header, rows)
    _per_cell_csv(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() \
        == (tmp_path / "old.csv").read_bytes()


def test_write_csv_of_a_float_array_matches_per_cell_writer(tmp_path):
    rng = np.random.default_rng(4)
    array = np.column_stack([np.repeat([0.0, -0.0, 0.5], 4),
                             np.tile([0.1, 0.2, float("nan"), 0.1], 3),
                             rng.standard_normal(12) * 1e5])
    array[3, 2], array[7, 2] = float("inf"), -float("inf")
    cli.write_csv(tmp_path / "new.csv", ("x1", "x2", "value"), array)
    _per_cell_csv(tmp_path / "old.csv", ("x1", "x2", "value"), array)
    assert (tmp_path / "new.csv").read_bytes() \
        == (tmp_path / "old.csv").read_bytes()


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf]


@st.composite
def float_tables(draw):
    """0-60 rows of 1-4 columns; each column repeats a pool of at most four
    values, so the writer formats it once per value, or holds arbitrary
    floats, which it formats cell by cell."""
    n, width = draw(st.integers(0, 60)), draw(st.integers(1, 4))
    columns = []
    for _ in range(width):
        cells = st.floats()
        if draw(st.booleans()):
            pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(),
                                 min_size=1, max_size=4))
            cells = st.sampled_from(pool)
        columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    return np.array(columns, dtype=np.float64).T.reshape(n, width)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(float_tables())
def test_write_csv_of_any_float_array_matches_per_cell_writer(tmp_path, array):
    header = tuple("abcd"[:array.shape[1]])
    cli.write_csv(tmp_path / "new.csv", header, array)
    _per_cell_csv(tmp_path / "old.csv", header, array)
    assert (tmp_path / "new.csv").read_bytes() \
        == (tmp_path / "old.csv").read_bytes()


def test_write_csv_rejects_rows_that_do_not_fit_the_header(tmp_path):
    with pytest.raises(ValueError):
        cli.write_csv(tmp_path / "a.csv", ("a", "b"), [(1, 2), (3,)])
    with pytest.raises(ValueError):
        cli.write_csv(tmp_path / "b.csv", ("a", "b"), np.zeros((2, 3)))


# -- demo-derivative -----------------------------------------------------------

def test_demo_derivative_writes_report_and_figures(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["demo-derivative", "--quiet", "--output", str(out),
                     "--epsilons", "10,1"]) == 0
    for name in ("run.json", "fig2.csv", "fig2_cost.svg", "fig2_ratio.svg",
                 "fig1_input.csv", "fig1_true.csv", "fig1_approx.csv",
                 "fig1_error.csv"):
        assert (out / name).exists(), name
    header, rows = read_csv(out / "fig2.csv")
    assert header == ["epsilon", "n_j_dagger", "true_error", "ratio"]
    assert len(rows) == 2
    for row in rows:
        assert float(row[3]) <= 1.0
    header, grid_rows = read_csv(out / "fig1_input.csv")
    assert header == ["x1", "x2", "value"]
    assert len(grid_rows) == 64 * 64
    record = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert record["rows"][0]["cost"] >= 0
    svg = (out / "fig2_cost.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_demo_derivative_keeps_a_tolerance_that_keeps_every_mode(tmp_path,
                                                                 capsys):
    # at 1e-12 the walk reads all 223,260 modes and its true error is 0.0,
    # which fig2.csv keeps and the log-axis chart of true errors leaves out
    out = tmp_path / "out"
    assert cli.main(["demo-derivative", "--quiet", "--output", str(out),
                     "--epsilons", "1e-12,0.5"]) == 0
    assert capsys.readouterr().err == ""
    for name in ("run.json", "fig2.csv", "fig2_cost.svg", "fig2_ratio.svg",
                 "fig1_input.csv", "fig1_true.csv", "fig1_approx.csv",
                 "fig1_error.csv"):
        assert (out / name).exists(), name
    assert read_csv(out / "fig2.csv")[1][1] == ["1e-12", "223260", "0.0",
                                                "0.0"]
    assert (out / "fig2_cost.svg").read_text().count("<circle") == 2
    assert (out / "fig2_ratio.svg").read_text().count("<circle") == 1


def test_a_log_chart_leaves_out_the_points_off_its_axes(tmp_path):
    # a point with a coordinate <= 0 leaves the chart of the others as it
    # was; with no point left the axes still stand
    def chart(name, xs, ys):
        cli._svg_line_chart(tmp_path / name, xs, ys, title="t", x_label="x",
                            y_label="y")
        return (tmp_path / name).read_bytes()

    assert chart("kept.svg", [0.5, 1e-12, 2.0, -1.0], [3.0, 0.0, 40.0, 1.0]) \
        == chart("positive.svg", [0.5, 2.0], [3.0, 40.0])
    assert b"<circle" not in chart("empty.svg", [1e-12], [0.0])


def test_demo_derivative_figure_run_is_the_same_when_swept_along(tmp_path):
    # 0.1 is a row of the second list; the first sweeps it only for fig1
    for name, epsilons in (("extra", "10,1"), ("row", "1,0.1")):
        assert cli.main(["demo-derivative", "--quiet", "--epsilons", epsilons,
                         "--output", str(tmp_path / name)]) == 0
    assert (tmp_path / "extra" / "fig1_approx.csv").read_bytes() \
        == (tmp_path / "row" / "fig1_approx.csv").read_bytes()
    _, rows = read_csv(tmp_path / "extra" / "fig2.csv")
    assert [float(r[0]) for r in rows] == [10.0, 1.0]


def _outputs_under_blas_threads(tmp_path, argv, names):
    """The files ``names`` that ``adaptlin argv --output DIR`` writes in a
    fresh process under OPENBLAS_NUM_THREADS 1 and then 2."""
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = tmp_path / f"threads-{threads}"
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from adaptlin.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             *argv, "--quiet", "--output", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append([(out / name).read_bytes() for name in names])
    return outputs


def test_demo_derivative_csvs_do_not_depend_on_blas_threads(tmp_path):
    # fig1_input and fig1_true contract through BLAS; the README promises
    # the same bytes for a fixed config and seed, whatever the thread count
    first, second = _outputs_under_blas_threads(
        tmp_path, ["demo-derivative"],
        ("fig2.csv", "fig1_input.csv", "fig1_true.csv", "fig1_approx.csv",
         "fig1_error.csv"))
    assert first == second


def test_solve_csv_does_not_depend_on_blas_threads(tmp_path):
    # blocks of 2**14 and more entries are where a threaded BLAS dot
    # product would normalise the random-cone directions
    cfg = write_config(tmp_path, {
        "problem": {"spectrum": {"family": "algebraic", "power": 1.0},
                    "partition": {"kind": "doubling", "start": 1}},
        "input": {"kind": "random-cone", "blocks": 16}, "seed": 1,
        "epsilons": [0.1, 0.01, 1e-3, 1e-4, 1e-5]})
    first, second = _outputs_under_blas_threads(
        tmp_path, ["solve", "--config", cfg], ("run.csv",))
    assert first == second
