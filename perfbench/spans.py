"""Out-of-program layer tracer for the fqlab benchmark.

install() runs inside a benchmark child process after fqlab is imported.
It wraps the public functions of the six layer modules and rebinds every
name under which the package holds them: cli imports spectrum,
regular_view, verify_spectrum and check_main_theorem by name, euclid
imports make_view and bounds imports hinge_bound, so replacing only the
defining module's attribute would miss those calls.  Each call records a
span [name, start, end, parent index, detail] in memory, its times read
from the process's CPU clock like run.py's end-to-end times; the child
writes the list out when the command has finished.

layer_metrics() runs in run.py and turns the spans of one
invocation into the per-layer metrics named in PER_LAYER.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("field", "geometry", "euclid", "spectral", "bounds", "cli")

# The coordinate helpers and the number formatter run once per point, per
# neighbor-table column or per record field inside their callers' loops.
# A span costs about as much as one of those calls, so wrapping them would
# mostly measure the tracer; their time stays in the caller's self time.
UNWRAPPED = frozenset({
    "geometry.point_rank",
    "geometry.rank_point",
    "geometry.ranks_to_coords",
    "geometry.coords_to_ranks",
    "geometry.norm",
    "geometry.distance",
    "cli.format_real",
})


def _graph(G) -> list:
    return [G.field.p, G.dim, G.a, G.n, G.valency]


# Span details, computed from the bound arguments and the result after the
# span has closed.  Counts derived from them are "computed", not measured.
DETAILS = {
    "euclid.spectrum": lambda args, res: _graph(args["G"]),
    "euclid.verify_spectrum": lambda args, res: _graph(args["G"]) + [len(res.sampled_ranks)],
    "euclid.regular_view": lambda args, res: _graph(args["G"]),
    "bounds.degree_profile": lambda args, res: [
        len(args["E"]), hash((args["F"].p, args["dim"], args["E"].points)),
    ],
    "geometry.sphere_points": lambda args, res: len(res),
    "geometry.generate_point_set": lambda args, res: len(res),
    "cli.emit": lambda args, res: len(res.encode("utf-8")),
}

SPECTRAL_CHECKS = ("make_view", "variance_check", "mixing_check", "hinge_count", "degree_sum_check")

# (metric name, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("field.make_field.self_s", "s"),
        ("geometry.sphere_table.self_s", "s"),
        ("geometry.sphere_points.self_s", "s"),
        ("geometry.sphere_points.points", "count"),
        ("geometry.generate_point_set.self_s", "s"),
        ("geometry.generate_point_set.points", "count"),
        ("euclid.spectrum.self_s", "s"),
        ("euclid.spectrum.calls", "count"),
        ("euclid.spectrum.char_terms", "count"),
        ("euclid.eigen_unique_ratio", "ratio"),
        ("euclid.verify_spectrum.self_s", "s"),
        ("euclid.verify_spectrum.neighbor_terms", "count"),
        ("euclid.regular_view.self_s", "s"),
        ("euclid.regular_view.calls", "count"),
        ("euclid.regular_view.table_bytes", "bytes"),
        ("euclid.regular_view.unique_ratio", "ratio"),
    ]
    + [m for fn in SPECTRAL_CHECKS for m in ((f"spectral.{fn}.self_s", "s"), (f"spectral.{fn}.calls", "count"))]
    + [
        ("bounds.degree_profile.self_s", "s"),
        ("bounds.degree_profile.pairs", "count"),
        ("bounds.degree_profile.unique_ratio", "ratio"),
        ("bounds.check_main_theorem.self_s", "s"),
        ("bounds.upper_bound_f.self_s", "s"),
        ("cli.emit.self_s", "s"),
        ("cli.emit.bytes", "bytes"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        detail = DETAILS.get(name)
        sig = inspect.signature(fn) if detail else None

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = time.process_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.process_time()
                stack.pop()
                if detail is not None and result is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[4] = detail(bound.arguments, result)

        return traced


def install() -> Tracer:
    """Wrap the layers' public functions under every name fqlab binds them."""
    tracer = Tracer()
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"fqlab.{layer}"]
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or name in UNWRAPPED
                or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != module.__name__
            ):
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj))
    for modname, module in list(sys.modules.items()):
        if modname != "fqlab" and not modname.startswith("fqlab."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return tracer


def _ratio(distinct: int, calls: int) -> float:
    """Useful share of calls; 1 when there were none, as nothing repeated."""
    return distinct / calls if calls else 1.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, without trace.overhead_s.

    A span's self time is its duration minus that of its child spans; calls
    run one at a time, so children never overlap.  A layer's self_s sums the
    self times of all its wrapped functions.
    """
    inner = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            inner[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    details: dict[str, list] = defaultdict(list)
    for i, (name, start, end, _, detail) in enumerate(spans):
        self_s[name] += end - start - inner[i]
        calls[name] += 1
        if detail is not None:
            details[name].append(detail)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    for name, unit in PER_LAYER:
        fn, _, kind = name.rpartition(".")
        if kind == "self_s" and fn not in LAYERS:
            m[name] = self_s[fn]
        elif kind == "calls":
            m[name] = calls[fn]

    for fn in ("geometry.sphere_points", "geometry.generate_point_set"):
        m[f"{fn}.points"] = sum(details[fn])
    spec, ver, view = (details[f"euclid.{f}"] for f in ("spectrum", "verify_spectrum", "regular_view"))
    m["euclid.spectrum.char_terms"] = sum(n * k for _, _, _, n, k in spec)
    m["euclid.eigen_unique_ratio"] = _ratio(
        len({tuple(d[:3]) for d in spec + ver}),
        calls["euclid.spectrum"] + calls["euclid.verify_spectrum"],
    )
    m["euclid.verify_spectrum.neighbor_terms"] = sum(s * n * k for _, _, _, n, k, s in ver)
    m["euclid.regular_view.table_bytes"] = sum(8 * n * k for _, _, _, n, k in view)
    m["euclid.regular_view.unique_ratio"] = _ratio(
        len({tuple(d[:3]) for d in view}), calls["euclid.regular_view"]
    )
    prof = details["bounds.degree_profile"]
    m["bounds.degree_profile.pairs"] = sum(size * size for size, _ in prof)
    m["bounds.degree_profile.unique_ratio"] = _ratio(
        len({key for _, key in prof}), calls["bounds.degree_profile"]
    )
    m["cli.emit.bytes"] = sum(details["cli.emit"])
    return m
