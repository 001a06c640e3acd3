"""In-memory span tracer around adaptlin's layer functions.

``Tracer.install`` replaces each traced function with a wrapper in every
adaptlin module that holds it by name (so both ``adaptlin.cli.block_norm``
and ``adaptlin.spectrum.block_norm`` are wrapped), and two hot methods on
their classes.  A wrapper records a span: name, parent span, start, end and
a few work counts.  ``uninstall`` restores every original.  ``cli.main`` is
the root span of each command, so its self time is the command's time
outside every wrapped call, SVG charts included.

``layer_metrics`` turns the spans of one iteration into the per-layer
metrics named in PER_LAYER.
"""

import os
import sys
import time
from collections import defaultdict

TRACED = {
    "spectrum": ("block_norm", "tail_norm", "cone_membership",
                 "random_cone_member"),
    "algorithm": ("adaptive_algorithm", "true_error"),
    "analysis": ("boundary_ratio", "stop_block_bound",
                 "stop_block_bound_rough", "complexity_lower_block"),
    "adversarial": ("fooling_input", "fooling_pair", "solution_separation"),
    "problems": ("enumerate_derivative_spectrum", "derivative_coefficients",
                 "random_periodic_input", "input_slice_grid",
                 "derivative_slice_grid", "solution_slice_grid"),
    "cli": ("write_csv", "write_json", "observed_cone_ratio",
            "build_problem", "build_input", "main"),
}
TRACED_METHODS = (("spectrum", "SingularSpectrum", "values"),
                  ("spectrum", "CoefficientSource", "coefficients"))

# (metric, unit, better); the same list is in BENCHMARK.json
PER_LAYER = [
    ("spectrum.values.calls", "count", "lower"),
    ("spectrum.values.indices", "count", "lower"),
    ("spectrum.values.self_s", "s", "lower"),
    ("spectrum.coefficients.calls", "count", "lower"),
    ("spectrum.coefficients.indices", "count", "lower"),
    ("spectrum.coefficients.self_s", "s", "lower"),
    ("spectrum.block_norm.calls", "count", "lower"),
    ("spectrum.block_norm.elements", "count", "lower"),
    ("spectrum.block_norm.self_s", "s", "lower"),
    ("spectrum.tail_norm.calls", "count", "lower"),
    ("spectrum.tail_norm.elements", "count", "lower"),
    ("spectrum.tail_norm.self_s", "s", "lower"),
    ("spectrum.tail_norm.useful_frac", "frac", "higher"),
    ("spectrum.cone_membership.calls", "count", "lower"),
    ("spectrum.cone_membership.pairs", "count", "lower"),
    ("spectrum.cone_membership.self_s", "s", "lower"),
    ("spectrum.random_cone_member.self_s", "s", "lower"),
    ("algorithm.adaptive_algorithm.calls", "count", "lower"),
    ("algorithm.adaptive_algorithm.blocks", "count", "lower"),
    ("algorithm.adaptive_algorithm.coeffs", "count", "lower"),
    ("algorithm.adaptive_algorithm.self_s", "s", "lower"),
    ("algorithm.true_error.calls", "count", "lower"),
    ("algorithm.true_error.self_s", "s", "lower"),
    ("algorithm.useful_frac", "frac", "higher"),
] + [(f"analysis.{fn}.{q}", unit, "lower")
     for fn in TRACED["analysis"]
     for q, unit in (("calls", "count"), ("self_s", "s"))] + [
    ("adversarial.fooling_input.calls", "count", "lower"),
    ("adversarial.fooling_input.self_s", "s", "lower"),
    ("adversarial.fooling_pair.calls", "count", "lower"),
    ("adversarial.fooling_pair.dimension", "count", "lower"),
    ("adversarial.fooling_pair.self_s", "s", "lower"),
    ("adversarial.fooling_pair.nullspace_bytes", "bytes_computed", "lower"),
    ("adversarial.solution_separation.self_s", "s", "lower"),
    ("adversarial.useful_frac", "frac", "higher"),
    ("problems.enumerate_derivative_spectrum.calls", "count", "lower"),
    ("problems.enumerate_derivative_spectrum.modes", "count", "lower"),
    ("problems.enumerate_derivative_spectrum.self_s", "s", "lower"),
    ("problems.derivative_coefficients.self_s", "s", "lower"),
    ("problems.random_periodic_input.self_s", "s", "lower"),
    ("problems.input_slice_grid.self_s", "s", "lower"),
    ("problems.derivative_slice_grid.self_s", "s", "lower"),
    ("problems.solution_slice_grid.self_s", "s", "lower"),
    ("problems.solution_slice_grid.terms", "count", "lower"),
    ("cli.write_csv.calls", "count", "lower"),
    ("cli.write_csv.rows", "count", "lower"),
    ("cli.write_csv.bytes", "bytes", "lower"),
    ("cli.write_csv.self_s", "s", "lower"),
    ("cli.write_json.calls", "count", "lower"),
    ("cli.write_json.bytes", "bytes", "lower"),
    ("cli.write_json.self_s", "s", "lower"),
    ("cli.observed_cone_ratio.calls", "count", "lower"),
    ("cli.observed_cone_ratio.self_s", "s", "lower"),
    ("cli.build_problem.self_s", "s", "lower"),
    ("cli.build_input.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


def _clip(problem, top):
    length = problem.spectrum.enumerated_length
    return top if length is None else min(top, length)


def _block_norm_counts(args, result):
    problem, _, j = args[:3]
    lo, hi = problem.partition.block(j)
    return {"elements": max(0, _clip(problem, hi) - lo + 1)}


def _tail_norm_counts(args, result):
    problem, f, n = args[:3]
    top = _clip(problem, f.support_bound)
    return {"elements": max(0, top - n), "support": top}


def _fooling_pair_counts(args, result):
    dim = int(result.bump.size)
    return {"dimension": dim, "nullspace_bytes": 8 * dim * dim}


# work counts per traced name, from positional arguments and the result;
# every call site in the CLI passes these arguments positionally
_COUNTS = {
    "spectrum.values": lambda args, r: {"indices": int(r.size)},
    "spectrum.coefficients": lambda args, r: {"indices": int(r.size)},
    "spectrum.block_norm": _block_norm_counts,
    "spectrum.tail_norm": _tail_norm_counts,
    "spectrum.cone_membership":
        lambda args, r: {"pairs": r.blocks * (r.blocks - 1) // 2},
    "algorithm.adaptive_algorithm":
        lambda args, r: {"blocks": r.stop_block, "coeffs": r.cost},
    "adversarial.fooling_pair": _fooling_pair_counts,
    "problems.enumerate_derivative_spectrum":
        lambda args, r: {"modes": len(r)},
    "problems.solution_slice_grid":
        lambda args, r: {"terms": int(r.size) * args[0].cost},
    "cli.write_csv": lambda args, r: {"rows": len(args[2]),
                                      "bytes": os.path.getsize(args[0])},
    "cli.write_json": lambda args, r: {"bytes": os.path.getsize(args[0])},
}


class Tracer:
    """Wraps the traced functions and keeps their spans in memory.

    A span is the list [name, parent index or None, start, end, counts].
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, _COUNTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, clock(), None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "adaptlin" or key.startswith("adaptlin.")]
        for module_name, names in TRACED.items():
            home = sys.modules[f"adaptlin.{module_name}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for module_name, cls_name, method in TRACED_METHODS:
            cls = getattr(sys.modules[f"adaptlin.{module_name}"], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method,
                    self._wrap(f"{module_name}.{method}", original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """Spans recorded since the last call; the tracer starts afresh."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def layer_metrics(spans):
    """Per-layer metrics of one iteration's spans.

    Returns (metrics, inclusive) where ``metrics`` maps every PER_LAYER
    name except trace.overhead_frac to its value, and ``inclusive`` maps a
    span name to its summed duration including children; fooling pairs
    are also keyed by dimension as ``adversarial.fooling_pair@<dim>``.
    """
    totals = defaultdict(float)
    inclusive = defaultdict(float)
    child_time = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (name, parent, start, end, counts) in enumerate(spans):
        if parent is not None:
            child_time[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i
    tail_support = defaultdict(int)
    costs = defaultdict(list)
    probes = 0
    for i, (name, parent, start, end, counts) in enumerate(spans):
        duration = end - start
        inclusive[name] += duration
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += duration - child_time[i]
        for key, value in (counts or {}).items():
            if key in ("dimension", "nullspace_bytes"):
                totals[f"{name}.{key}"] = max(totals[f"{name}.{key}"], value)
            elif key == "support":
                tail_support[root[i]] = max(tail_support[root[i]], value)
            else:
                totals[f"{name}.{key}"] += value
        if name == "algorithm.adaptive_algorithm" and counts:
            costs[root[i]].append(counts["coeffs"])
        elif name == "adversarial.fooling_input" and (
                parent is None
                or spans[parent][0] != "adversarial.fooling_pair"):
            probes += 1
        elif name == "adversarial.fooling_pair" and counts:
            inclusive[f"{name}@{counts['dimension']}"] += duration

    totals["cli.self_s"] = totals["cli.main.self_s"]
    elements = totals["spectrum.tail_norm.elements"]
    totals["spectrum.tail_norm.useful_frac"] = (
        sum(tail_support.values()) / elements if elements else 0.0)
    cost_sum = sum(sum(c) for c in costs.values())
    totals["algorithm.useful_frac"] = (
        sum(max(c) for c in costs.values()) / cost_sum if cost_sum else 0.0)
    totals["adversarial.useful_frac"] = (
        totals["adversarial.fooling_pair.calls"] / probes if probes else 0.0)
    metrics = {name: float(totals[name]) for name, _, _ in PER_LAYER
               if name != "trace.overhead_frac"}
    return metrics, dict(inclusive)
