"""Deterministic SVG rendering of harmonic-map images of the disk.

Draws the images of concentric circles and radial segments under a map,
plus the near-boundary curve.  Output is plain SVG 1.1 with one <path>
per curve, 6-decimal coordinates, and byte-identical output for identical
inputs.  Points that sit within the pole guard of a closed form are
dropped and leave gaps in the path rather than being interpolated across.

Cost: the map is evaluated once per curve (``circles + rays + 1`` calls of
``eval_masked``), and the path text is written one run of consecutive
unmasked points at a time, each run by a single ``%``-format call, so the
per-point work is CPython's float formatting and no Python-level loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RenderOptions", "render_svg"]


@dataclass(frozen=True)
class RenderOptions:
    circles: int = 8
    rays: int = 16
    r_max: float = 0.95
    samples_per_curve: int = 512
    viewport: tuple[float, float, float, float] | None = None  # xmin, xmax, ymin, ymax
    size: int = 640
    grid_stroke: float = 0.7
    boundary_stroke: float = 1.4

    def __post_init__(self):
        if self.circles < 1 or self.rays < 1:
            raise ValueError("circles and rays must be >= 1")
        if not (0 < self.r_max < 1):
            raise ValueError("r_max must lie in (0, 1)")
        if self.samples_per_curve < 1:
            raise ValueError("samples_per_curve must be >= 1")
        if self.size < 1:
            raise ValueError("size must be >= 1")


def _curve_points(F, zs: np.ndarray):
    vals, ok = F.eval_masked(zs)
    ok = ok & np.isfinite(vals.real) & np.isfinite(vals.imag)
    return vals, ok


def _path_data(vals: np.ndarray, ok: np.ndarray, close: bool) -> str:
    """Polyline path; a masked-out point breaks the line (gap, no segment)."""
    if close and ok.size:
        vals = np.concatenate([vals, vals[:1]])
        ok = np.concatenate([ok, ok[:1]])
    xy = np.column_stack([vals.real, -vals.imag])
    # run starts and (exclusive) run ends of ok, alternating
    edges = np.flatnonzero(np.diff(np.concatenate(([0], ok, [0]))))
    return " ".join(
        ("M%.6f,%.6f" + " L%.6f,%.6f" * (b - a - 1)) % tuple(xy[a:b].ravel().tolist())
        for a, b in zip(edges[::2].tolist(), edges[1::2].tolist()))


def render_svg(F, opts: RenderOptions = RenderOptions()) -> str:
    """Render the image of the polar grid under F as an SVG document."""
    curves = []  # (path_data, is_boundary)
    finite_pts = []

    for k in range(1, opts.circles + 1):
        r = opts.r_max * k / (opts.circles + 1)
        zs = r * np.exp(2j * np.pi * np.arange(opts.samples_per_curve)
                        / opts.samples_per_curve)
        vals, ok = _curve_points(F, zs)
        curves.append((_path_data(vals, ok, close=True), False))
        finite_pts.append(vals[ok])

    ts = np.linspace(0.0, opts.r_max, opts.samples_per_curve)
    for j in range(opts.rays):
        direction = np.exp(2j * np.pi * j / opts.rays)
        vals, ok = _curve_points(F, ts * direction)
        curves.append((_path_data(vals, ok, close=False), False))
        finite_pts.append(vals[ok])

    zs = opts.r_max * np.exp(2j * np.pi * np.arange(opts.samples_per_curve)
                             / opts.samples_per_curve)
    vals, ok = _curve_points(F, zs)
    curves.append((_path_data(vals, ok, close=True), True))
    finite_pts.append(vals[ok])

    if opts.viewport is not None:
        xmin, xmax, ymin, ymax = opts.viewport
    else:
        pts = np.concatenate(finite_pts)
        xmin, xmax = float(np.min(pts.real)), float(np.max(pts.real))
        ymin, ymax = float(np.min(pts.imag)), float(np.max(pts.imag))
    pad = 0.05 * max(xmax - xmin, ymax - ymin, 1e-9)
    x0, y0 = xmin - pad, -(ymax + pad)
    w, h = (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{opts.size}" height="{opts.size}" '
        f'viewBox="{x0:.6f} {y0:.6f} {w:.6f} {h:.6f}">',
    ]
    scale = w / opts.size
    for data, is_boundary in curves:
        if not data:
            continue
        stroke = "#202020" if is_boundary else "#7a8aa0"
        width = (opts.boundary_stroke if is_boundary else opts.grid_stroke) * scale
        lines.append(f'<path d="{data}" fill="none" stroke="{stroke}" '
                     f'stroke-width="{width:.6f}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
