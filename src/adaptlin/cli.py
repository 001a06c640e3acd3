"""Experiment runner: solves, bounds, adversarial checks, and figure data.

Subcommands
-----------
solve            adaptive tolerance sweep on a configured problem and input
bounds           stopping-block and complexity bounds over a tolerance grid
adversarial      fooling-pair construction and indistinguishability checks
demo-derivative  three-dimensional spectral-derivative showcase
example1         periodic-approximation cost scan against the closed form

Configuration is a single JSON document validated strictly: unknown keys
are rejected so stored configs remain faithful records of what ran.  CSV
output uses shortest round-trip decimals, one header row, comma delimiters,
LF line endings, and UTF-8, making reruns bit-stable for identical configs
and seeds.  Exit status is 0 only when no guarantee violation, guard
exceedance, or validation failure occurred.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .adversarial import fooling_input, fooling_pair, solution_separation
from .algorithm import adaptive_algorithm, ball_budget, true_error
from .analysis import (boundary_ratio, complexity_lower_block,
                       stop_block_bound, stop_block_bound_first_term,
                       stop_block_bound_rough, tolerance_shrink_factor)
from .problems import (default_gamma, derivative_coefficients,
                       derivative_problem, derivative_slice_grid,
                       enumerate_derivative_spectrum, input_slice_grid,
                       periodic_approximation_cost,
                       periodic_approximation_spectrum,
                       random_periodic_input, solution_slice_grid)
from .spectrum import (CoefficientSource, ConeParams, GuardExceeded,
                       Partition, SingularSpectrum, Problem, block_norm,
                       cone_membership, random_cone_member, worst_decay_ratio)

GENERATOR = "numpy-PCG64"
DEFAULT_SEED = 20250101
DEFAULT_JMAX = 64
DEFAULT_NMAX = 2 ** 30


class ConfigError(ValueError):
    """A configuration document failed validation."""


def _check_keys(section, mapping, allowed, required=()):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{section} must be a JSON object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {', '.join(unknown)}")
    for key in required:
        if key not in mapping:
            raise ConfigError(f"{section} is missing required key {key!r}")


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys("config", raw,
                ("problem", "input", "epsilons", "rho", "seed", "output",
                 "guards", "adversarial", "example1"))
    return raw


def build_spectrum(cfg):
    """Spectrum from its config section; returns (spectrum, extras).

    The derivative family carries its enumeration alongside the spectrum
    because input construction and figure evaluation need the multi-index
    table, not just the sorted weights.
    """
    _check_keys("problem.spectrum", cfg, ("family", "scale", "power", "base",
                                          "r", "dimension", "k_max"),
                required=("family",))
    family = cfg["family"]
    if family == "algebraic":
        return SingularSpectrum.algebraic(float(cfg.get("scale", 1.0)),
                                          float(cfg.get("power", 1.0))), {}
    if family == "geometric":
        return SingularSpectrum.geometric(float(cfg.get("scale", 1.0)),
                                          float(cfg.get("base", 2.0))), {}
    if family == "periodic":
        return periodic_approximation_spectrum(float(cfg.get("r", 2.0))), {}
    if family == "derivative":
        d = int(cfg.get("dimension", 3))
        k_max = int(cfg.get("k_max", 30))
        mis = enumerate_derivative_spectrum(d, k_max)
        return mis.spectrum(), {"mis": mis, "dimension": d, "k_max": k_max}
    raise ConfigError(f"unknown spectrum family {family!r}")


def build_partition(cfg):
    _check_keys("problem.partition", cfg,
                ("kind", "start", "step", "first", "boundaries"),
                required=("kind",))
    kind = cfg["kind"]
    if kind == "doubling":
        return Partition.doubling(int(cfg.get("start", 1)))
    if kind == "arithmetic":
        return Partition.arithmetic(int(cfg.get("start", 1)),
                                    int(cfg.get("step", 1)))
    if kind == "zero-doubling":
        return Partition.zero_then_doubling(int(cfg.get("first", 16)))
    if kind == "explicit":
        return Partition.from_boundaries(cfg["boundaries"])
    raise ConfigError(f"unknown partition kind {kind!r}")


def build_problem(cfg):
    _check_keys("problem", cfg, ("spectrum", "partition", "cone"),
                required=("spectrum",))
    spectrum, extras = build_spectrum(cfg["spectrum"])
    if "partition" in cfg:
        partition = build_partition(cfg["partition"])
    elif "mis" in extras:
        partition = Partition.zero_then_doubling(16)
    else:
        partition = Partition.doubling(1)
    cone_cfg = cfg.get("cone", {})
    _check_keys("problem.cone", cone_cfg, ("a", "b"))
    cone = ConeParams(float(cone_cfg.get("a", 2.0)),
                      float(cone_cfg.get("b", 0.5)))
    try:
        return Problem(spectrum, partition, cone), extras
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_input(cfg, problem, extras, seed):
    _check_keys("input", cfg, ("kind", "blocks", "scale", "head"))
    kind = cfg.get("kind", "random-cone")
    if kind == "zero":
        return CoefficientSource.zero()
    if kind == "random-cone":
        rng = np.random.default_rng(seed)
        return random_cone_member(problem, rng, int(cfg.get("blocks", 8)),
                                  scale=float(cfg.get("scale", 1.0)),
                                  head=bool(cfg.get("head", True)))
    if kind == "derivative-random":
        if "mis" not in extras:
            raise ConfigError(
                "input kind 'derivative-random' needs the derivative family")
        inp = random_periodic_input(extras["dimension"], extras["k_max"], seed)
        return derivative_coefficients(extras["mis"], inp)
    raise ConfigError(f"unknown input kind {kind!r}")


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _svg_line_chart(path, xs, ys, *, title, x_label, y_label,
                    log_x=True, log_y=True):
    """Minimal polyline chart; decade gridlines on log axes."""
    width, height = 640, 440
    left, right, top, bottom = 70, 20, 36, 50
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]

    def span(values, log_scale):
        vals = [math.log10(v) for v in values] if log_scale else list(values)
        lo, hi = min(vals), max(vals)
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.05 * (hi - lo)
        return lo - pad, hi + pad

    x_lo, x_hi = span(xs, log_x)
    y_lo, y_hi = span(ys, log_y)

    def px(v):
        t = (math.log10(v) if log_x else v)
        return left + (t - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(v):
        t = (math.log10(v) if log_y else v)
        return height - bottom - (t - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>']

    def decades(lo, hi):
        return range(math.ceil(lo), math.floor(hi) + 1)

    grid = 'stroke="#cccccc" stroke-width="1"'
    label = 'font-family="sans-serif" font-size="11" fill="#333333"'
    if log_x:
        for k in decades(x_lo, x_hi):
            x = left + (k - x_lo) / (x_hi - x_lo) * (width - left - right)
            parts.append(f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" '
                         f'y2="{height - bottom}" {grid}/>')
            parts.append(f'<text x="{x:.1f}" y="{height - bottom + 16}" '
                         f'text-anchor="middle" {label}>1e{k}</text>')
    if log_y:
        for k in decades(y_lo, y_hi):
            y = height - bottom - (k - y_lo) / (y_hi - y_lo) * (height - top - bottom)
            parts.append(f'<line x1="{left}" y1="{y:.1f}" '
                         f'x2="{width - right}" y2="{y:.1f}" {grid}/>')
            parts.append(f'<text x="{left - 6}" y="{y + 4:.1f}" '
                         f'text-anchor="end" {label}>1e{k}</text>')
    parts.append(f'<rect x="{left}" y="{top}" width="{width - left - right}" '
                 f'height="{height - top - bottom}" fill="none" '
                 f'stroke="#000000"/>')
    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" '
                 f'stroke="#1f77b4" stroke-width="2"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.5" '
                     f'fill="#1f77b4"/>')
    parts.append(f'<text x="{(left + width - right) / 2:.1f}" '
                 f'y="{height - 12}" text-anchor="middle" {label}>'
                 f'{x_label}</text>')
    parts.append(f'<text x="16" y="{(top + height - bottom) / 2:.1f}" '
                 f'text-anchor="middle" {label} transform="rotate(-90 16 '
                 f'{(top + height - bottom) / 2:.1f})">{y_label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def observed_cone_ratio(problem, f, stop_block):
    """Worst measured block-decay ratio over the blocks a run computed."""
    norms = [block_norm(problem, f, j) for j in range(1, stop_block + 1)]
    return worst_decay_ratio(problem.cone, norms)[0]


def _parse_epsilons(text):
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --epsilons list: {exc}") from exc
    if not values or any(v <= 0 for v in values):
        raise ConfigError("--epsilons must be positive numbers")
    return values


def _effective(args, config):
    """Merge config defaults with command-line overrides."""
    merged = dict(config)
    if args.epsilons is not None:
        merged["epsilons"] = _parse_epsilons(args.epsilons)
    if args.rho is not None:
        merged["rho"] = args.rho
    if args.seed is not None:
        merged["seed"] = args.seed
    if args.output is not None:
        merged["output"] = args.output
    guards = dict(merged.get("guards", {}))
    _check_keys("guards", guards, ("j_max", "n_max"))
    if args.jmax is not None:
        guards["j_max"] = args.jmax
    guards.setdefault("j_max", DEFAULT_JMAX)
    guards.setdefault("n_max", DEFAULT_NMAX)
    merged["guards"] = guards
    return merged


def _epsilons_from(merged, default=None):
    eps = merged.get("epsilons", default)
    if eps is None:
        raise ConfigError("no tolerance list: set epsilons in the config "
                          "or pass --epsilons")
    eps = sorted({float(v) for v in eps}, reverse=True)
    if any(v <= 0 for v in eps):
        raise ConfigError("tolerances must be positive")
    return eps


def _out_dir(merged):
    out = Path(merged.get("output", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo(merged):
    echo = {k: merged[k] for k in sorted(merged) if k != "output"}
    echo["output"] = str(merged.get("output", "out"))
    return echo


def cmd_solve(merged, quiet):
    problem, extras = build_problem(merged.get("problem", {}))
    seed = int(merged.get("seed", DEFAULT_SEED))
    f = build_input(merged.get("input", {}), problem, extras, seed)
    epsilons = _epsilons_from(merged)
    j_max = int(merged["guards"]["j_max"])
    out = _out_dir(merged)

    rows = []
    json_rows = []
    failures = 0
    start = time.perf_counter()
    for eps in epsilons:
        try:
            approx = adaptive_algorithm(problem, f, eps, block_limit=j_max)
        except GuardExceeded as exc:
            print(f"solve: guard exceeded at epsilon={eps!r}: {exc}",
                  file=sys.stderr)
            rows.append((eps, None, None, None, None, None))
            json_rows.append({"epsilon": eps, "diagnostic": str(exc)})
            failures += 1
            continue
        t_err = (true_error(problem, f, approx)
                 if f.support_bound is not None else None)
        ratio = observed_cone_ratio(problem, f, approx.stop_block)
        if approx.error_bound > eps:
            print(f"solve: error bound {approx.error_bound!r} exceeds "
                  f"tolerance {eps!r}", file=sys.stderr)
            failures += 1
        rows.append((eps, approx.stop_block, approx.cost, approx.error_bound,
                     t_err, None if t_err is None else t_err / eps))
        json_rows.append({
            "epsilon": eps,
            "j_star": approx.stop_block,
            "cost": approx.cost,
            "error_bound": approx.error_bound,
            "true_error": t_err,
            "worst_cone_ratio": ratio,
        })
    elapsed = time.perf_counter() - start

    record = {
        "config": _echo(merged),
        "rows": json_rows,
        "elapsed_seconds": elapsed,
        "library_version": __version__,
        "generator": GENERATOR,
    }
    write_json(out / "run.json", record)
    write_csv(out / "run.csv",
              ("epsilon", "j_star", "cost", "error_bound", "true_error",
               "ratio_true_over_eps"), rows)
    if not quiet:
        print(f"solve: {len(rows)} tolerances in {elapsed:.3f} s "
              f"-> {out / 'run.csv'}")
    return 1 if failures else 0


def cmd_bounds(merged, quiet):
    problem, _ = build_problem(merged.get("problem", {}))
    epsilons = _epsilons_from(merged)
    rho = float(merged.get("rho", 1.0))
    j_max = int(merged["guards"]["j_max"])
    out = _out_dir(merged)

    scan = boundary_ratio(problem, j_max)
    omega = None
    if scan.still_growing:
        print("bounds: boundary ratio still growing at the scan limit; "
              "omega and lower bounds omitted", file=sys.stderr)
    else:
        omega = tolerance_shrink_factor(problem.cone, scan.value)

    rows = []
    violations = 0
    failures = 0
    lower_bound_usable = problem.partition.boundary(0) >= 1
    if omega is not None and not lower_bound_usable:
        print("bounds: partition starts at n_0 = 0, where the lower-bound "
              "construction is undefined; column left empty",
              file=sys.stderr)
    for eps in epsilons:
        try:
            j_dagger = stop_block_bound(problem, eps, rho, block_limit=j_max)
            j_rough = stop_block_bound_rough(problem, eps, rho,
                                             block_limit=j_max)
            j_first = stop_block_bound_first_term(problem, eps, rho)
        except GuardExceeded as exc:
            print(f"bounds: guard exceeded at epsilon={eps!r}: {exc}",
                  file=sys.stderr)
            failures += 1
            continue
        j_lower = None
        if omega is not None and lower_bound_usable:
            try:
                j_lower = complexity_lower_block(problem, scan.value,
                                                 omega * eps, rho,
                                                 block_limit=j_max)
            except GuardExceeded as exc:
                print(f"bounds: guard exceeded in lower bound at "
                      f"epsilon={eps!r}: {exc}", file=sys.stderr)
                failures += 1
            else:
                if (problem.partition.boundary(j_dagger)
                        > problem.partition.boundary(j_lower)):
                    print(f"bounds: chain violated at epsilon={eps!r}: "
                          f"n_(j_dagger)={problem.partition.boundary(j_dagger)} "
                          f"> n_(j_lower)={problem.partition.boundary(j_lower)}",
                          file=sys.stderr)
                    violations += 1
        rows.append((eps, rho, j_dagger, j_rough, j_first, j_lower, omega,
                     scan.value))

    write_csv(out / "bounds.csv",
              ("epsilon", "rho", "j_dagger", "j_dagger_rough",
               "j_dagger_first", "j_star_lower", "omega", "R"), rows)
    if not quiet:
        print(f"bounds: {len(rows)} rows, {violations} chain violations "
              f"-> {out / 'bounds.csv'}")
    return 1 if violations or failures else 0


def cmd_adversarial(merged, quiet):
    problem, _ = build_problem(merged.get("problem", {}))
    if problem.partition.boundary(0) < 1:
        raise ConfigError("adversarial constructions need n_0 >= 1")
    adv_cfg = merged.get("adversarial", {})
    _check_keys("adversarial", adv_cfg, ("blocks", "ratio"))
    epsilons = _epsilons_from(merged)
    rho = float(merged.get("rho", 1.0))
    j_max = int(merged["guards"]["j_max"])
    out = _out_dir(merged)

    entries = []
    failures = 0
    start = time.perf_counter()
    for eps in epsilons:
        # The sampled indices of a run on the base input become the zeroed
        # functionals; the bump then hides in coordinates the run never saw.
        probe_blocks = int(adv_cfg.get("blocks", 0))
        ratio_cfg = adv_cfg.get("ratio")
        try:
            if probe_blocks < 1:
                probe_blocks = 4
            while True:
                ratio = (float(ratio_cfg) if ratio_cfg is not None
                         else boundary_ratio(problem, probe_blocks).value)
                base_probe = fooling_input(problem, ratio, rho, probe_blocks)
                run = adaptive_algorithm(problem, base_probe, eps,
                                         block_limit=j_max)
                if run.cost + 1 < problem.partition.boundary(probe_blocks):
                    break
                if "blocks" in adv_cfg:
                    raise ValueError(
                        "configured block count leaves no free coordinate "
                        "for the bump; increase adversarial.blocks")
                probe_blocks += 1
            pair = fooling_pair(problem, ratio, rho, probe_blocks,
                                tuple(run.indices.tolist()))
        except (ValueError, GuardExceeded) as exc:
            print(f"adversarial: construction failed at epsilon={eps!r}: "
                  f"{exc}", file=sys.stderr)
            failures += 1
            continue

        run_plus = adaptive_algorithm(problem, pair.plus, eps,
                                      block_limit=j_max)
        run_minus = adaptive_algorithm(problem, pair.minus, eps,
                                       block_limit=j_max)
        indistinguishable = (
            np.array_equal(run_plus.indices, run_minus.indices)
            and np.array_equal(run_plus.values, run_minus.values))
        separation = solution_separation(problem, pair)
        memberships = {name: cone_membership(problem, source)
                       for name, source in (("base", pair.base),
                                            ("plus", pair.plus),
                                            ("minus", pair.minus))}
        norms = {name: source.norm()
                 for name, source in (("base", pair.base),
                                      ("plus", pair.plus),
                                      ("minus", pair.minus))}
        c, eta = pair.amplitude, pair.shift
        identity_gap = abs(problem.cone.a * (c - eta * pair.ratio)
                           - (c + eta * pair.ratio))
        norm_tol = rho * (1.0 + 1e-10)
        entry_ok = (indistinguishable
                    and all(m.member for m in memberships.values())
                    and all(v <= norm_tol for v in norms.values())
                    and separation >= 2.0 * eta
                    and identity_gap <= 1e-12 * max(1.0, c))
        if not entry_ok:
            failures += 1
            print(f"adversarial: checks failed at epsilon={eps!r}",
                  file=sys.stderr)
        entries.append({
            "epsilon": eps,
            "blocks": pair.blocks,
            "ratio": pair.ratio,
            "amplitude": c,
            "shift": eta,
            "zeroed_count": int(run.cost),
            "membership": {k: {"member": m.member,
                               "worst_ratio": m.worst_ratio}
                           for k, m in memberships.items()},
            "norms": norms,
            "separation": separation,
            "identity_gap": identity_gap,
            "indistinguishable": indistinguishable,
            "ok": entry_ok,
        })
    elapsed = time.perf_counter() - start

    write_json(out / "adversarial.json", {
        "config": _echo(merged),
        "entries": entries,
        "elapsed_seconds": elapsed,
        "library_version": __version__,
        "generator": GENERATOR,
    })
    if not quiet:
        print(f"adversarial: {len(entries)} tolerances, "
              f"{failures} failures -> {out / 'adversarial.json'}")
    return 1 if failures else 0


def cmd_demo_derivative(merged, quiet):
    seed = int(merged.get("seed", DEFAULT_SEED))
    j_max = int(merged["guards"]["j_max"])
    cap = int(merged["guards"]["n_max"])
    out = _out_dir(merged)
    epsilons = _epsilons_from(
        merged, default=np.logspace(1, -1, 10).tolist())

    start = time.perf_counter()
    d, k_max = 3, 30
    mis = enumerate_derivative_spectrum(d, k_max, cap=cap)
    problem = derivative_problem(mis)
    inp = random_periodic_input(d, k_max, seed)
    f = derivative_coefficients(mis, inp)

    rows = []
    json_rows = []
    failures = 0
    figure_run = None
    for eps in epsilons:
        approx = adaptive_algorithm(problem, f, eps, block_limit=j_max)
        t_err = true_error(problem, f, approx)
        ratio = t_err / eps
        if ratio > 1.0:
            print(f"demo-derivative: tolerance missed at epsilon={eps!r}: "
                  f"true error {t_err!r}", file=sys.stderr)
            failures += 1
        rows.append((eps, approx.cost, t_err, ratio))
        json_rows.append({
            "epsilon": eps,
            "j_star": approx.stop_block,
            "cost": approx.cost,
            "error_bound": approx.error_bound,
            "true_error": t_err,
            "worst_cone_ratio": observed_cone_ratio(problem, f,
                                                    approx.stop_block),
        })
        if eps == 0.1:
            figure_run = approx
    if figure_run is None:
        figure_run = adaptive_algorithm(problem, f, 0.1, block_limit=j_max)

    write_csv(out / "fig2.csv",
              ("epsilon", "n_j_dagger", "true_error", "ratio"), rows)
    _svg_line_chart(out / "fig2_cost.svg",
                    [r[0] for r in rows], [r[1] for r in rows],
                    title="Sample size against error tolerance",
                    x_label="tolerance", y_label="sample size")
    _svg_line_chart(out / "fig2_ratio.svg",
                    [r[0] for r in rows], [r[2] for r in rows],
                    title="True error against error tolerance",
                    x_label="tolerance", y_label="true error")

    gamma = default_gamma(d)
    axis = np.linspace(0.0, 1.0, 64, endpoint=False)
    grids = {
        "fig1_input.csv": input_slice_grid(inp, gamma, axis, axis),
        "fig1_true.csv": derivative_slice_grid(inp, gamma, axis, axis),
        "fig1_approx.csv": solution_slice_grid(figure_run, mis, axis, axis),
    }
    grids["fig1_error.csv"] = grids["fig1_approx.csv"] - grids["fig1_true.csv"]
    for name, grid in grids.items():
        write_csv(out / name, ("x1", "x2", "value"),
                  [(axis[i], axis[j], grid[i, j])
                   for i in range(len(axis)) for j in range(len(axis))])
    elapsed = time.perf_counter() - start

    write_json(out / "run.json", {
        "config": _echo(merged),
        "rows": json_rows,
        "elapsed_seconds": elapsed,
        "library_version": __version__,
        "generator": GENERATOR,
    })
    if not quiet:
        print(f"demo-derivative: {mis.indices.shape[0]} modes, "
              f"{len(rows)} tolerances in {elapsed:.2f} s -> {out}")
    return 1 if failures else 0


def cmd_example1(merged, quiet):
    ex_cfg = merged.get("example1", {})
    _check_keys("example1", ex_cfg, ("r", "ratios"))
    r = float(ex_cfg.get("r", 2.0))
    problem_cfg = merged.get("problem", {})
    if problem_cfg:
        spectrum_cfg = problem_cfg.get("spectrum", {})
        if spectrum_cfg.get("family") == "periodic":
            r = float(spectrum_cfg.get("r", r))
    rho = float(merged.get("rho", 1.0))
    out = _out_dir(merged)
    if "epsilons" in merged:
        epsilons = _epsilons_from(merged)
    else:
        ratios = ex_cfg.get("ratios", np.logspace(6, 0.01, 50).tolist())
        epsilons = sorted({rho / float(q) for q in ratios}, reverse=True)

    spectrum = periodic_approximation_spectrum(r)
    rows = []
    mismatches = 0
    for eps in epsilons:
        scanned = ball_budget(spectrum, eps, rho)
        closed = (periodic_approximation_cost(r, eps, rho)
                  if eps < rho else 0)
        match = int(scanned == closed)
        if not match:
            mismatches += 1
            print(f"example1: scan {scanned} != closed form {closed} at "
                  f"epsilon={eps!r}", file=sys.stderr)
        rows.append((eps, rho, scanned, closed, match))

    write_csv(out / "example1.csv",
              ("epsilon", "rho", "cost_scan", "cost_closed_form", "match"),
              rows)
    if not quiet:
        print(f"example1: r={r!r}, {len(rows)} rows, {mismatches} "
              f"mismatches -> {out / 'example1.csv'}")
    return 1 if mismatches else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="adaptlin",
        description="Adaptive approximation experiments and reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "run the adaptive solver over a tolerance sweep"),
            ("bounds", "tabulate stopping and complexity bounds"),
            ("adversarial", "construct and check fooling pairs"),
            ("demo-derivative", "run the 3-d derivative showcase"),
            ("example1", "verify the periodic-approximation closed form")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a JSON config")
        cmd.add_argument("--output", help="output directory (default: out)")
        cmd.add_argument("--seed", type=int, help="generator seed")
        cmd.add_argument("--epsilons",
                         help="comma-separated tolerance list")
        cmd.add_argument("--rho", type=float, help="input norm radius")
        cmd.add_argument("--jmax", type=int,
                         help="guard on the number of blocks scanned")
        cmd.add_argument("--quiet", action="store_true",
                         help="suppress progress output")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "bounds": cmd_bounds,
    "adversarial": cmd_adversarial,
    "demo-derivative": cmd_demo_derivative,
    "example1": cmd_example1,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        merged = _effective(args, config)
        return _COMMANDS[args.command](merged, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
