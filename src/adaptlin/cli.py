"""Experiment runner: solves, bounds, adversarial checks, and figure data.

Subcommands
-----------
solve            adaptive tolerance sweep on a configured problem and input
bounds           stopping-block and complexity bounds over a tolerance grid
adversarial      fooling-pair construction and indistinguishability checks
demo-derivative  three-dimensional spectral-derivative showcase
example1         periodic-approximation cost scan against the closed form

Configuration is a single JSON document checked against ``SCHEMA`` as a
whole, flags merged in, before any command runs: unknown keys, wrong types,
non-finite numbers and out-of-range values are rejected, so stored configs
remain faithful records of what ran.  CSV
output uses shortest round-trip decimals, one header row, comma delimiters,
LF line endings, and UTF-8, making reruns bit-stable for identical configs
and seeds.  Exit status is 0 only when no guarantee violation, guard
exceedance, or validation failure occurred; an allocation the host
refuses exits 1 with numpy's message, which names the bytes.
"""

import argparse
import functools
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .adversarial import fooling_certificates
from .algorithm import (DEFAULT_BLOCK_LIMIT, adaptive_sweep, ball_budget,
                        no_stop_error)
from .analysis import BoundsRow, bounds_table
from .problems import (default_gamma, derivative_coefficients,
                       derivative_slice_grid, enumerate_derivative_spectrum,
                       input_slice_grid, periodic_approximation_cost,
                       periodic_approximation_spectrum,
                       random_periodic_input, solution_slice_grid)
from .spectrum import (CoefficientSource, ConeParams, GuardExceeded,
                       OutOfRangeError, Partition, SingularSpectrum, Problem,
                       block_decay_ratios, random_cone_member)

GENERATOR = "numpy-PCG64"
DEFAULT_SEED = 20250101
DEFAULT_NMAX = 2 ** 26


class ConfigError(ValueError):
    """A configuration document failed validation."""


# The config format: each section maps its keys to a JSON type.  float is a
# finite number, int an integer, bool true or false, str a string, [t] a list
# of t, and a dict a nested section.  Booleans are never numbers.
SCHEMA = {
    "problem": {
        "spectrum": {"family": str, "scale": float, "power": float,
                     "base": float, "r": float, "dimension": int,
                     "k_max": int},
        "partition": {"kind": str, "start": int, "step": int, "first": int,
                      "boundaries": [int]},
        "cone": {"a": float, "b": float},
    },
    "input": {"kind": str, "blocks": int, "scale": float, "head": bool},
    "epsilons": [float],
    "rho": float,
    "seed": int,
    "output": str,
    "guards": {"j_max": int, "n_max": int},
    "adversarial": {"blocks": int, "ratio": float},
}
# range checks the library does not make; the library's own checks surface
# as ConfigError from build_problem
LIMITS = {
    "epsilons": (lambda v: v > 0, "tolerances must be positive"),
    "rho": (lambda v: v > 0, "rho must be positive"),
    "seed": (lambda v: v >= 0, "seed must be non-negative"),
    "guards.j_max": (lambda v: v >= 1, "guards.j_max must be at least 1"),
    "guards.n_max": (lambda v: v >= 1, "guards.n_max must be at least 1"),
    "input.blocks": (lambda v: v >= 1, "input.blocks must be at least 1"),
    "adversarial.blocks": (lambda v: v >= 1,
                           "adversarial.blocks must be at least 1"),
}
_JSON_TYPES = {float: ((int, float), "a number"), int: ((int,), "an integer"),
               bool: ((bool,), "true or false"), str: ((str,), "a string")}


def check_config(value, spec=SCHEMA, path=""):
    """``value`` checked against ``spec``, with every number as a float.

    Raises ConfigError naming the first key that is unknown, of the wrong
    type, out of range or not finite.
    """
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be a JSON object")
        unknown = sorted(set(value) - set(spec))
        if unknown:
            raise ConfigError(
                f"unknown keys in {path or 'config'}: {', '.join(unknown)}")
        return {key: check_config(item, spec[key],
                                  f"{path}.{key}" if path else key)
                for key, item in value.items()}
    if isinstance(spec, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list")
        return [check_config(item, spec[0], path) for item in value]
    kinds, name = _JSON_TYPES[spec]
    if type(value) not in kinds:  # JSON gives exact types; True is no int
        raise ConfigError(f"{path} must be {name}")
    if path in LIMITS and not LIMITS[path][0](value):
        raise ConfigError(LIMITS[path][1])
    if spec is float and not abs(value) <= sys.float_info.max:  # NaN too
        raise ConfigError(f"{path} must be finite")
    return float(value) if spec is float else value


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def build_spectrum(cfg, n_max=DEFAULT_NMAX):
    """Spectrum from its config section, and the derivative family's
    enumeration (a ``MultiIndexSpectrum``, None for the other families),
    whose multi-index table, not just the sorted weights, input
    construction and figure evaluation need; it holds at most ``n_max``
    modes."""
    family = cfg.get("family")
    if family == "algebraic":
        return SingularSpectrum.algebraic(cfg.get("scale", 1.0),
                                          cfg.get("power", 1.0)), None
    if family == "geometric":
        return SingularSpectrum.geometric(cfg.get("scale", 1.0),
                                          cfg.get("base", 2.0)), None
    if family == "periodic":
        return periodic_approximation_spectrum(cfg.get("r", 2.0)), None
    if family == "derivative":
        mis = enumerate_derivative_spectrum(cfg.get("dimension", 3),
                                            cfg.get("k_max", 30), cap=n_max)
        return mis.spectrum(), mis
    raise ConfigError("problem.spectrum.family must be algebraic, geometric, "
                      f"periodic or derivative, not {family!r}")


def build_partition(cfg):
    kind = cfg.get("kind")
    if kind == "doubling":
        return Partition.doubling(cfg.get("start", 1))
    if kind == "arithmetic":
        return Partition.arithmetic(cfg.get("start", 1), cfg.get("step", 1))
    if kind == "zero-doubling":
        return Partition.zero_then_doubling(cfg.get("first", 16))
    if kind == "explicit":
        return Partition.from_boundaries(cfg.get("boundaries", ()))
    raise ConfigError("problem.partition.kind must be doubling, arithmetic, "
                      f"zero-doubling or explicit, not {kind!r}")


def build_problem(cfg, n_max=DEFAULT_NMAX):
    try:
        spectrum, mis = build_spectrum(cfg.get("spectrum", {}), n_max)
        default = {"kind": "doubling" if mis is None else "zero-doubling"}
        partition = build_partition(cfg.get("partition", default))
        cone_cfg = cfg.get("cone", {})
        cone = ConeParams(cone_cfg.get("a", 2.0), cone_cfg.get("b", 0.5))
        return Problem(spectrum, partition, cone), mis
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _index_budget(problem, blocks, n_max, key):
    """Reject ``blocks`` blocks past the end of an explicit partition or
    spanning more than ``n_max`` indices."""
    last = problem.partition.last_block(blocks)
    if last < blocks:
        raise ConfigError(f"{key} = {blocks} is past the last block of the "
                          f"explicit partition, block {last}")
    size = problem.partition.boundary(blocks)
    if size > n_max:
        raise ConfigError(f"{key} = {blocks} spans {size} indices, over the "
                          f"index budget guards.n_max = {n_max}")


def build_input(cfg, problem, mis, seed, n_max=DEFAULT_NMAX):
    kind = cfg.get("kind", "random-cone")
    if kind == "zero":
        return CoefficientSource.zero()
    if kind == "random-cone":
        blocks = cfg.get("blocks", 8)
        _index_budget(problem, blocks, n_max, "input.blocks")
        try:
            return random_cone_member(problem, np.random.default_rng(seed),
                                      blocks, scale=cfg.get("scale", 1.0),
                                      head=cfg.get("head", True))
        except ValueError as exc:  # e.g. lam underflows inside the blocks
            raise ConfigError(f"input rejected: {exc}") from exc
    if kind == "derivative-random":
        if mis is None:
            raise ConfigError(
                "input kind 'derivative-random' needs the derivative family")
        inp = random_periodic_input(mis.dimension, mis.k_max, seed)
        return derivative_coefficients(mis, inp)
    raise ConfigError(f"unknown input kind {kind!r}")


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _float_column(cells):
    """A float64 column as text.  A column of few distinct bit patterns
    takes one repr per pattern; in a column of mostly distinct ones the
    gather would cost more than the repr calls it saves, so each cell
    takes its own."""
    bits = cells.view(np.int64)
    ordered = np.sort(bits)
    first = np.ones(bits.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    if 2 * distinct.size > bits.size:
        return list(map(repr, cells.tolist()))
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())),
                    dtype=object)
    return text[np.searchsorted(distinct, bits)].tolist()


def write_csv(path, header, rows):
    """Write ``rows`` under ``header``, formatting one column at a time.

    ``rows`` is a sequence of rows as wide as the header, or a 2-D float64
    array; either way ``len(rows)`` is the number of data rows.
    """
    width = len(header)
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"rows must be an (n, {width}) array")
        columns = [_float_column(c) for c in rows.T]
    else:
        if any(len(row) != width for row in rows):
            raise ValueError(f"every row must hold {width} cells")
        columns = [list(map(_fmt, c)) for c in zip(*rows)]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload):
    """Write ``payload`` as indented JSON in one write; ``json.dump`` to the
    file would make a small write per token."""
    text = json.dumps(payload, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _svg_line_chart(path, xs, ys, *, title, x_label, y_label):
    """Minimal polyline chart on log axes, with decade gridlines; a point
    with a coordinate <= 0 has no place on them and is left out."""
    width, height = 640, 440
    left, right, top, bottom = 70, 20, 36, 50
    points = [(float(x), float(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    xs, ys = [x for x, _ in points], [y for _, y in points]

    def span(values):
        vals = [math.log10(v) for v in values] or [0.0]  # no point: 1e0
        lo, hi = min(vals), max(vals)
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.05 * (hi - lo)
        return lo - pad, hi + pad

    x_lo, x_hi = span(xs)
    y_lo, y_hi = span(ys)

    def px(v):
        t = math.log10(v)
        return left + (t - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(v):
        t = math.log10(v)
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
    for k in decades(x_lo, x_hi):
        x = left + (k - x_lo) / (x_hi - x_lo) * (width - left - right)
        parts.append(f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" '
                     f'y2="{height - bottom}" {grid}/>')
        parts.append(f'<text x="{x:.1f}" y="{height - bottom + 16}" '
                     f'text-anchor="middle" {label}>1e{k}</text>')
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


def observed_cone_ratio(cone, norms):
    """Worst measured block-decay ratio over s_1..s_k, for every k.

    Entry k - 1 is the worst ratio of a run that read blocks 1..k.
    """
    ratios, _ = block_decay_ratios(cone, norms)
    return list(itertools.accumulate(ratios, max, initial=0.0))[1:]


def _sweep(problem, f, epsilons, j_max, n_max=None, keep_products=True):
    """One block walk over ``epsilons``, within ``j_max`` blocks and none
    ending past ``n_max`` indices; returns the walk and run.json rows.

    A guard diagnostic stands in for each tolerance no block settled, and
    ``bound_holds`` checks each certificate, true_error <= error_bound.
    The rows need no products, so only a caller that evaluates a run keeps
    them (``adaptive_sweep``'s ``keep_products``).
    """
    walk = adaptive_sweep(problem, f, epsilons, block_limit=j_max,
                          index_limit=n_max, keep_products=keep_products)
    worst = observed_cone_ratio(problem.cone, walk.norms)
    rows = []
    for eps, run, error in zip(epsilons, walk.runs, walk.true_errors()):
        if run is None:
            rows.append({"epsilon": eps, "diagnostic": str(
                no_stop_error(problem, j_max, n_max))})
            continue
        rows.append({
            "epsilon": eps,
            "j_star": run.stop_block,
            "cost": run.cost,
            "error_bound": run.error_bound,
            "true_error": error,
            "worst_cone_ratio": worst[run.stop_block - 1],
            "bound_holds": error <= run.error_bound,
        })
    return walk, rows


def _parse_epsilons(text):
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --epsilons list: {exc}") from exc


def _effective(args, config):
    """Config merged with the command-line flags, checked against SCHEMA."""
    merged = dict(config)
    if args.epsilons is not None:
        merged["epsilons"] = _parse_epsilons(args.epsilons)
    for key in ("rho", "seed", "output"):
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    guards = merged.get("guards", {})
    if isinstance(guards, dict):  # anything else fails the check below
        guards = merged["guards"] = dict(
            {"j_max": DEFAULT_BLOCK_LIMIT, "n_max": DEFAULT_NMAX}, **guards)
        if args.jmax is not None:
            guards["j_max"] = args.jmax
    return check_config(merged)


def _epsilons_from(merged, default=None):
    eps = merged.get("epsilons", default)
    if not eps:  # missing or empty
        raise ConfigError("no tolerance list: set epsilons in the config "
                          "or pass --epsilons")
    return sorted(set(eps), reverse=True)


def _out_dir(merged):
    out = Path(merged.get("output", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_record(path, merged, key, items, elapsed):
    """JSON record of a run: the config that ran, its results, provenance."""
    echo = {k: merged[k] for k in sorted(merged) if k != "output"}
    echo["output"] = merged.get("output", "out")
    write_json(path, {"config": echo, key: items, "elapsed_seconds": elapsed,
                      "library_version": __version__, "generator": GENERATOR})


def cmd_solve(merged, quiet):
    j_max, n_max = merged["guards"]["j_max"], merged["guards"]["n_max"]
    problem, mis = build_problem(merged.get("problem", {}), n_max)
    f = build_input(merged.get("input", {}), problem, mis,
                    merged.get("seed", DEFAULT_SEED), n_max)
    epsilons = _epsilons_from(merged)
    out = _out_dir(merged)

    start = time.perf_counter()
    try:
        _, rows = _sweep(problem, f, epsilons, j_max, n_max,
                         keep_products=False)
    except ValueError as exc:  # e.g. a non-finite coefficient
        raise ConfigError(f"input rejected: {exc}") from exc
    table = []
    failures = 0
    for row in rows:
        eps, t_err = row["epsilon"], row.get("true_error")
        if "diagnostic" in row:
            print(f"solve: guard exceeded at epsilon={eps!r}: "
                  f"{row['diagnostic']}", file=sys.stderr)
            failures += 1
        elif row["error_bound"] > eps:
            print(f"solve: error bound {row['error_bound']!r} exceeds "
                  f"tolerance {eps!r}", file=sys.stderr)
            failures += 1
        if row.get("bound_holds") is False:
            print(f"solve: true error {t_err!r} exceeds error bound "
                  f"{row['error_bound']!r} at epsilon={eps!r}",
                  file=sys.stderr)
            failures += 1
        table.append((eps, row.get("j_star"), row.get("cost"),
                      row.get("error_bound"), t_err,
                      None if t_err is None else t_err / eps))
    elapsed = time.perf_counter() - start

    _write_record(out / "run.json", merged, "rows", rows, elapsed)
    write_csv(out / "run.csv",
              ("epsilon", "j_star", "cost", "error_bound", "true_error",
               "ratio_true_over_eps"), table)
    if not quiet:
        print(f"solve: {len(rows)} tolerances in {elapsed:.3f} s "
              f"-> {out / 'run.csv'}")
    return 1 if failures else 0


def cmd_bounds(merged, quiet):
    j_max, n_max = merged["guards"]["j_max"], merged["guards"]["n_max"]
    problem, _ = build_problem(merged.get("problem", {}), n_max)
    epsilons = _epsilons_from(merged)
    out = _out_dir(merged)

    rows = bounds_table(problem, epsilons, merged.get("rho", 1.0),
                        block_limit=j_max)
    columns = BoundsRow._fields[:8]  # the bounds.csv columns
    if rows and rows[0].note:  # the same in every row
        print(f"bounds: {rows[0].note}", file=sys.stderr)
    table = []
    for row in rows:
        if row.j_dagger_first is None:  # no upper bound, no row
            print(f"bounds: guard exceeded at epsilon={row.epsilon!r}: "
                  f"{row.guard}", file=sys.stderr)
            continue
        if row.guard:
            print(f"bounds: guard exceeded in lower bound at "
                  f"epsilon={row.epsilon!r}: {row.guard}", file=sys.stderr)
        elif row.chain_holds is False:
            print(f"bounds: chain violated at epsilon={row.epsilon!r}: "
                  f"j_dagger={row.j_dagger} > j_lower + 1 = "
                  f"{row.j_star_lower + 1}", file=sys.stderr)
        table.append(row[:len(columns)])
    violations = sum(row.chain_holds is False for row in rows)
    write_csv(out / "bounds.csv", columns, table)
    if not quiet:
        print(f"bounds: {len(table)} rows, {violations} chain violations "
              f"-> {out / 'bounds.csv'}")
    return 1 if violations or any(row.guard for row in rows) else 0


def _entry(cert):
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


def cmd_adversarial(merged, quiet):
    j_max, n_max = merged["guards"]["j_max"], merged["guards"]["n_max"]
    problem, _ = build_problem(merged.get("problem", {}), n_max)
    if problem.partition.boundary(0) < 1:
        raise ConfigError("adversarial constructions need n_0 >= 1")
    adv_cfg = merged.get("adversarial", {})
    # the probe search starts at depth 4 by default and grows within n_max
    _index_budget(problem, adv_cfg.get("blocks", 4), n_max,
                  "adversarial.blocks")
    epsilons = _epsilons_from(merged)
    out = _out_dir(merged)

    start = time.perf_counter()
    certificates = fooling_certificates(
        problem, epsilons, merged.get("rho", 1.0),
        blocks=adv_cfg.get("blocks"), ratio=adv_cfg.get("ratio"),
        block_limit=j_max, index_limit=n_max)
    for cert in certificates:
        if cert.failure is not None:
            print(f"adversarial: construction failed at "
                  f"epsilon={cert.epsilon!r}: {cert.failure}",
                  file=sys.stderr)
        elif not cert.ok:
            print(f"adversarial: checks failed at epsilon={cert.epsilon!r}",
                  file=sys.stderr)
    entries = [_entry(cert) for cert in certificates if cert.failure is None]
    elapsed = time.perf_counter() - start

    _write_record(out / "adversarial.json", merged, "entries", entries,
                  elapsed)
    failures = sum(not cert.ok for cert in certificates)
    if not quiet:
        print(f"adversarial: {len(entries)} tolerances, "
              f"{failures} failures -> {out / 'adversarial.json'}")
    return 1 if failures else 0


def cmd_demo_derivative(merged, quiet):
    j_max, n_max = merged["guards"]["j_max"], merged["guards"]["n_max"]
    epsilons = _epsilons_from(
        merged, default=np.logspace(1, -1, 10).tolist())
    out = _out_dir(merged)

    start = time.perf_counter()
    problem, mis = build_problem({"spectrum": {"family": "derivative"}},
                                 n_max)
    inp = random_periodic_input(mis.dimension, mis.k_max,
                                merged.get("seed", DEFAULT_SEED))
    f = derivative_coefficients(mis, inp)

    # the figure run at epsilon = 0.1 joins the same walk, which keeps its
    # products for the figure
    swept = epsilons if 0.1 in epsilons else epsilons + [0.1]
    walk, rows = _sweep(problem, f, swept, j_max, n_max)
    if None in walk.stops:
        raise no_stop_error(problem, j_max, n_max)
    figure_run = walk.runs[swept.index(0.1)]
    rows = rows[:len(epsilons)]
    table = []
    failures = 0
    for row in rows:
        eps, t_err = row["epsilon"], row["true_error"]
        ratio = t_err / eps
        if ratio > 1.0:
            print(f"demo-derivative: tolerance missed at epsilon={eps!r}: "
                  f"true error {t_err!r}", file=sys.stderr)
            failures += 1
        table.append((eps, row["cost"], t_err, ratio))

    write_csv(out / "fig2.csv",
              ("epsilon", "n_j_dagger", "true_error", "ratio"), table)
    _svg_line_chart(out / "fig2_cost.svg",
                    [r[0] for r in table], [r[1] for r in table],
                    title="Sample size against error tolerance",
                    x_label="tolerance", y_label="sample size")
    _svg_line_chart(out / "fig2_ratio.svg",
                    [r[0] for r in table], [r[2] for r in table],
                    title="True error against error tolerance",
                    x_label="tolerance", y_label="true error")

    gamma = default_gamma(mis.dimension)
    axis = np.linspace(0.0, 1.0, 64, endpoint=False)
    grids = {
        "fig1_input.csv": input_slice_grid(inp, gamma, axis, axis),
        "fig1_true.csv": derivative_slice_grid(inp, gamma, axis, axis),
        "fig1_approx.csv": solution_slice_grid(figure_run, mis, axis, axis),
    }
    grids["fig1_error.csv"] = grids["fig1_approx.csv"] - grids["fig1_true.csv"]
    x1, x2 = np.repeat(axis, axis.size), np.tile(axis, axis.size)
    for name, grid in grids.items():
        write_csv(out / name, ("x1", "x2", "value"),
                  np.column_stack([x1, x2, grid.ravel()]))
    elapsed = time.perf_counter() - start

    _write_record(out / "run.json", merged, "rows", rows, elapsed)
    if not quiet:
        print(f"demo-derivative: {len(mis)} modes, "
              f"{len(rows)} tolerances in {elapsed:.2f} s -> {out}")
    return 1 if failures else 0


def cmd_example1(merged, quiet):
    spectrum_cfg = merged.get("problem", {}).get("spectrum", {})
    r = (spectrum_cfg.get("r", 2.0)
         if spectrum_cfg.get("family") == "periodic" else 2.0)
    rho = merged.get("rho", 1.0)
    epsilons = _epsilons_from(merged, default=[
        rho / q for q in np.logspace(6, 0.01, 50).tolist()])
    if 0.0 in epsilons:  # a default rho / q below the float range
        raise GuardExceeded("a default tolerance rho / q underflows to 0 "
                            f"at rho = {rho!r}")
    out = _out_dir(merged)

    problem, _ = build_problem({"spectrum": {"family": "periodic", "r": r}})
    rows = []
    mismatches = 0
    for eps in epsilons:
        scanned = ball_budget(problem.spectrum, eps, rho)
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


@functools.cache  # one parser per process; parsing leaves it unchanged
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
    except (GuardExceeded, OutOfRangeError) as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the bytes refused
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
