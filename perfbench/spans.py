"""In-memory spans around the package's public functions, and the per-layer
numbers derived from them.

A span records a name, a start and end time (``time.perf_counter``), the
index of the span that was open when it started, and a few counts taken
at the call boundary.  The wrappers are installed where callers look the
names up: a function in every package module that imported it, a method
on its class.  ``uninstall`` puts every original object back, and
``assert_clean`` proves that no wrapper is left behind.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

PACKAGE = "harmonic_atlas"
SUITES = ("T31", "T32", "T41", "T42", "LEM42", "REMARK")
GEOMTEST_CHECKS = ("jacobian_min", "u_class_margin", "m_theta_check",
                   "convexity_probe", "starlike_derivative")
_MARK = "__perfbench_wrapped__"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    attrs: dict | None = None


# -- counts taken at the call boundary ---------------------------------------
# Each factory takes the wrapped function and returns attrs(args, kwargs), a
# dict computed before the call runs.  They use only public Series accessors,
# plus the two cache dicts the package keeps.

def _arguments(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


def _nonzero(series, upto):
    return sum(1 for k in range(upto + 1) if series.coeff(k))


def _mul_attrs(fn):
    def attrs(args, kwargs):
        a, b = args
        if type(b) is type(a):
            n = min(a.order, b.order)
            # dense convolution: coefficient k takes k + 1 products
            return {"products": (n + 1) * (n + 2) // 2,
                    "nonzero": _nonzero(a, n) + _nonzero(b, n),
                    "coeffs": 2 * (n + 1)}
        n = a.order  # scalar times series
        return {"products": n + 1, "nonzero": _nonzero(a, n), "coeffs": n + 1}
    return attrs


def _reciprocal_attrs(fn):
    def attrs(args, kwargs):
        s = args[0]
        n = s.order
        # coefficient k of the inverse takes k products of earlier ones
        return {"products": n * (n + 1) // 2, "nonzero": _nonzero(s, n),
                "coeffs": n + 1}
    return attrs


def _cache_attrs(cache_attr):
    """Whether the call's order is already in the instance's cache dict."""
    def factory(fn):
        arguments = _arguments(fn)

        def attrs(args, kwargs):
            a = arguments(args, kwargs)
            return {"hit": a["order"] in getattr(a["self"], cache_attr, ())}
        return attrs
    return factory


def _eval_attrs(fn):
    arguments = _arguments(fn)

    def attrs(args, kwargs):
        return {"points": int(getattr(arguments(args, kwargs)["z"], "size", 1))}
    return attrs


def _rz_attrs(fn):
    arguments = _arguments(fn)

    def attrs(args, kwargs):
        a = arguments(args, kwargs)
        lattice = a["mu_steps"] * (a["nu_steps"] + 1)
        return {"points": lattice * len(a["grid"].points)}
    return attrs


def _render_attrs(fn):
    arguments = _arguments(fn)

    def attrs(args, kwargs):
        o = arguments(args, kwargs)["opts"]
        # circles, rays and the boundary curve, each sampled the same way
        return {"points": (o.circles + o.rays + 1) * o.samples_per_curve}
    return attrs


def _suite_name(fn):
    arguments = _arguments(fn)

    def name(args, kwargs):
        return f"verify.run_suite.{arguments(args, kwargs)['name']}"
    return name


# (module, attribute path, span name, attrs factory).  The span name is a
# string, or a factory like the attrs ones that returns name(args, kwargs).
TARGETS = (
    ("numkernel", "Series.__mul__", "numkernel.mul", _mul_attrs),
    ("numkernel", "Series.__rmul__", "numkernel.mul", _mul_attrs),
    ("numkernel", "Series.reciprocal", "numkernel.reciprocal", _reciprocal_attrs),
    ("analytic", "AnalyticExpr.series", "analytic.series",
     _cache_attrs("_series_cache")),
    ("analytic", "AnalyticExpr.eval", "analytic.eval", _eval_attrs),
    ("shear", "shear_real", "shear.shear", None),
    ("shear", "shear_imag", "shear.shear", None),
    ("catalog", "CatalogEntry.harmonic_map", "catalog.harmonic_map",
     _cache_attrs("_cache")),
    ("classify", "coeff_class", "classify.coeff_class", None),
    ("geomtest", "rz_search", "geomtest.rz_search", _rz_attrs),
    ("geomtest", "jacobian_min", "geomtest.jacobian_min", None),
    ("geomtest", "u_class_margin", "geomtest.u_class_margin", None),
    ("geomtest", "m_theta_check", "geomtest.m_theta_check", None),
    ("geomtest", "direction_convexity_probe", "geomtest.convexity_probe", None),
    ("geomtest", "starlike_derivative", "geomtest.starlike_derivative", None),
    ("render", "render_svg", "render.render_svg", _render_attrs),
    ("verify", "run_suite", _suite_name, None),
    ("cli", "main", "cli.main", None),
)


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Span recorder plus the set of wrappers it has installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name, attrs_fn=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            attrs = attrs_fn(args, kwargs) if attrs_fn is not None else None
            span = Span(span_name, 0.0, 0.0, stack[-1] if stack else -1, attrs)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_target(self, fn, name, attrs):
        return self.wrap(fn, name if isinstance(name, str) else name(fn),
                         attrs(fn) if attrs is not None else None)

    def install(self):
        """Wrap every target in the package modules currently imported."""
        modules = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
        for mod_name, path, name, attrs in TARGETS:
            module = modules[mod_name]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:  # a method: patch the class, where lookups go
                owner = getattr(module, owner_name)
                fn = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap_target(fn, name, attrs))
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap_target(fn, name, attrs)
            for m in modules.values():  # every module that imported it
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapper)

    def uninstall(self):
        """Put back every original object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def assert_clean(self):
        """Raise if any package module or class still holds a wrapper."""
        left = []
        for m in package_modules():
            for key, value in vars(m).items():
                if getattr(value, _MARK, False):
                    left.append(f"{m.__name__}.{key}")
                if isinstance(value, type):
                    left += [f"{m.__name__}.{key}.{a}" for a, v in vars(value).items()
                             if getattr(v, _MARK, False)]
        if left or self._patches:
            raise RuntimeError(f"tracing wrappers left installed: {sorted(set(left))}")


# -- span arithmetic -----------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer numbers per pass over the workload's operations."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    wall: dict[str, float] = {}
    sums: dict[tuple[str, str], float] = {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st
        wall[s.name] = wall.get(s.name, 0.0) + (s.end - s.start)
        for key, value in (s.attrs or {}).items():
            sums[s.name, key] = sums.get((s.name, key), 0) + value

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in ("numkernel.mul", "numkernel.reciprocal"):
        out[f"{layer}.calls"] = per_pass(calls.get(layer, 0))
        out[f"{layer}.self_s"] = per_pass(self_s.get(layer, 0.0))
        out[f"{layer}.coeff_products"] = per_pass(sums.get((layer, "products"), 0))
    out["numkernel.nonzero_share"] = ratio(
        sums.get(("numkernel.mul", "nonzero"), 0)
        + sums.get(("numkernel.reciprocal", "nonzero"), 0),
        sums.get(("numkernel.mul", "coeffs"), 0)
        + sums.get(("numkernel.reciprocal", "coeffs"), 0))
    for layer in ("analytic.series", "catalog.harmonic_map"):
        out[f"{layer}.calls"] = per_pass(calls.get(layer, 0))
        out[f"{layer}.self_s"] = per_pass(self_s.get(layer, 0.0))
        out[f"{layer}.cache_hit_ratio"] = ratio(sums.get((layer, "hit"), 0),
                                                calls.get(layer, 0))
    for layer in ("shear.shear", "classify.coeff_class"):
        out[f"{layer}.calls"] = per_pass(calls.get(layer, 0))
        out[f"{layer}.self_s"] = per_pass(self_s.get(layer, 0.0))
    for layer, count in (("geomtest.rz_search", "point_evals"),
                         ("analytic.eval", "points"),
                         ("render.render_svg", "points")):
        out[f"{layer}.calls"] = per_pass(calls.get(layer, 0))
        out[f"{layer}.self_s"] = per_pass(self_s.get(layer, 0.0))
        out[f"{layer}.{count}"] = per_pass(sums.get((layer, "points"), 0))
    for check in GEOMTEST_CHECKS:
        out[f"geomtest.{check}.self_s"] = per_pass(self_s.get(f"geomtest.{check}", 0.0))
    for suite in SUITES:
        out[f"verify.run_suite.{suite}.wall_s"] = per_pass(
            wall.get(f"verify.run_suite.{suite}", 0.0))
    out["cli.main.self_s"] = per_pass(self_s.get("cli.main", 0.0))
    return out


def top_level_seconds(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans if s.parent == -1)
