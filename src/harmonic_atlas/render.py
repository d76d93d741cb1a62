"""Deterministic SVG rendering of harmonic-map images of the disk.

Draws the images of concentric circles and radial segments under a map,
plus the near-boundary curve.  Output is plain SVG 1.1 with one <path>
per curve, 6-decimal coordinates, and byte-identical output for identical
inputs.  Points that sit within the pole guard of a closed form are
dropped and leave gaps in the path rather than being interpolated across.

Cost: a render is one pass over the polar grid: one read-only array of
every curve's sample points (``_grid``, cached for the last options), one
``eval_masked`` call on it, one vectorised text pass for all the paths,
the viewport from the same values and one join of the document.  The
batch evaluates h and g together, each distinct polynomial and log of the
two once (a shear's g repeats every term of h).  The pole test, screened
by radius, tests no catalog pole inside r_max = 0.95, so the points reach
the map uncopied.  No value depends on the other points of the batch, so
one batch draws what a batch per curve would.
``RenderOptions`` caps a render at 2**20 sampled points, (circles + rays
+ 1) * samples_per_curve, so an oversized request fails before anything
is allocated.

The path text is byte for byte what ``"%.6f"`` prints.  For a coordinate
x, q = |x| * 1e6 is the correctly rounded product, within half an ulp of
the exact value, so n = rint(q) is the integer "%.6f" rounds to unless q
lies within 2 ulp of a half-integer (an exact tie such as 0.0078125 among
them).  One bound serves the whole batch: 2**-51 times its largest q is at
least 2 ulp of every q.  The sign is signbit(x), so -0.0 and -1e-9 print
"-0.000000".  Each coordinate is a row of four uint32 words, 16 bytes:
prefix and sign, the integer digits, "." and two decimals, four decimals,
filled from tables of four-digit ASCII words with NUL where nothing is
printed; one ``bytes.translate`` per curve drops the NULs.  Values near a
tie, |x| >= 9999.9999995 (n >= 1e10, more integer digits than the word
holds), NaN and infinities are formatted by "%.6f" itself, one at a time.
Their text is at most 14 bytes while |x| < 1e6, so the rows widen only
for larger values, to the longest text.  4 of the 2.38 M coordinates of
the catalog's 93 renders at the default options are formatted so, all
near a tie: the largest |x| there is 9886.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RenderOptions", "render_svg"]

_MAX_POINTS = 2**20  # sampled points per render, all curves together


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
        if (self.circles + self.rays + 1) * self.samples_per_curve > _MAX_POINTS:
            raise ValueError("(circles + rays + 1) * samples_per_curve must be "
                             f"<= {_MAX_POINTS}")
        if self.viewport is not None:
            if len(self.viewport) != 4 or not all(map(math.isfinite, self.viewport)):
                raise ValueError("viewport must be four finite numbers "
                                 "(xmin, xmax, ymin, ymax)")
            xmin, xmax, ymin, ymax = self.viewport
            if not (xmin < xmax and ymin < ymax):
                raise ValueError("viewport must have xmin < xmax and ymin < ymax")


_MINUS = np.frombuffer(b"\0\0-\0", dtype=np.uint32)[0]  # the sign word of x < 0


@functools.cache
def _digit_words() -> tuple[np.ndarray, ...]:
    """Digit tables, four ASCII bytes (one uint32 word) per entry, NUL where
    nothing is printed: k < 10000 zero-padded to four digits; the same
    without leading zeros, units digit kept; and ".", NUL and the two
    digits of k < 100."""
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    pad = np.empty((10000, 4), dtype=np.uint8)
    for i in range(4):  # byte i is the digit of 10**(3 - i)
        pad[:, i] = np.tile(np.repeat(ascii_digits, 10 ** (3 - i)), 10 ** i)
    lead = pad * (np.arange(10000, dtype=np.uint16)[:, None] >= [1000, 100, 10, 1])
    lead[0, 3] = ord("0")
    dot = pad[:100].copy()
    dot[:, :2] = [ord("."), 0]
    return tuple(a.view(np.uint32)[:, 0] for a in (pad, lead, dot))


def _fixed6(c: np.ndarray) -> np.ndarray:
    """Row i is "%.6f" % c[i] in ASCII, NUL where no character is printed.

    A row is uint32 words: two NUL bytes left for a prefix, the sign and a
    NUL; the integer digits (``lead``); "." and two decimals; four
    decimals.  q = |x|*1e6 is within half an ulp of the exact product, so
    n = rint(q) is the correctly rounded integer "%.6f" prints unless q
    lies within 2 ulp of a half-integer; 2**-51 times the batch's largest q
    is at least that for every q.  Those values are formatted by "%.6f"
    itself, and so are those with n >= 1e10, whose integer digits do not
    fit one word, NaN, infinities and |x| >= 999999.9999995, which the
    clamp sends to q = 999999999999.5 exactly, a tie.  Their texts fit the
    16-byte row while |x| < 1e6; the rows widen to the longest of them.
    """
    q = np.abs(c)
    np.fmin(q, 999999.9999995, out=q)  # NaN too
    q *= 1e6
    n = np.empty(c.size, dtype=np.int64)
    np.rint(q, out=n, casting="unsafe")
    tol = 2.0**-51 * q.max(initial=0.0)
    q -= n  # exact, and at most 1/2 in size
    np.abs(q, out=q)
    undecided = np.flatnonzero((q >= 0.5 - tol) | (n >= 10**10))
    n[undecided] = 0  # their rows are written below, from "%.6f"
    texts = [("%.6f" % x).encode() for x in c[undecided].tolist()]
    width = max([16, *(2 + len(t) for t in texts)])
    out = np.empty((c.size, -(-width // 4)), dtype=np.uint32)
    np.multiply(np.signbit(c), _MINUS, out=out[:, 0])
    # each group of digits is divided off n into k (q's memory), looked up,
    # then multiplied back in place and subtracted from n
    pad, lead, dot = _digit_words()
    k = q.view(np.int64)
    np.floor_divide(n, 10**6, out=k)
    out[:, 1] = lead[k]
    k *= 10**6
    n -= k
    np.floor_divide(n, 10**4, out=k)
    out[:, 2] = dot[k]
    k *= 10**4
    n -= k
    out[:, 3] = pad[n]
    out[:, 4:] = 0
    text = out.view(np.uint8)
    for row, t in zip(undecided.tolist(), texts):
        text[row, 2:] = 0
        text[row, 2:2 + len(t)] = np.frombuffer(t, np.uint8)
    return text


def _path_texts(vals: np.ndarray, ok: np.ndarray, sizes, close) -> list[str]:
    """Polyline path data of consecutive curves, one string per curve.

    Curve k is the next ``sizes[k]`` entries of ``vals`` and ``ok``; a
    masked-out point breaks its line (gap, no segment), and ``close[k]``
    repeats the curve's first point at its end.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    shut = np.asarray(close, dtype=bool) & (sizes > 0)
    lens = sizes + shut
    first = np.cumsum(lens) - lens  # where each curve starts once closed
    take = np.arange(int(lens.sum())) - np.repeat(first - starts, lens)
    take[first[shut] + sizes[shut]] = starts[shut]
    keep = np.flatnonzero(np.asarray(ok, dtype=bool)[take])
    rows = np.searchsorted(keep, np.append(first, take.size))  # curve k: rows[k:k+2]
    heads = rows[:-1][rows[:-1] < rows[1:]]  # nonempty curves' first rows
    # a run goes on where the point before is kept, within the curve
    inside = np.empty(keep.size, dtype=bool)
    inside[:1] = False
    np.equal(np.diff(keep), 1, out=inside[1:])
    inside[heads] = False

    xy = vals[take[keep]].view(np.float64)  # x and y in turn
    del take, keep
    np.negative(xy[1::2], out=xy[1::2])
    text = _fixed6(xy)
    del xy
    text = text.reshape(inside.size, 2, text.shape[1])
    # prefixes: " M" at a run start ("M" at a curve's first), " L", "," before y
    text[:, 0, 0] = ord(" ")
    text[heads, 0, 0] = 0
    text[:, 0, 1] = np.where(inside, ord("L"), ord("M"))
    text[:, 1, 1] = ord(",")
    return [text[a:b].tobytes().translate(None, b"\0").decode("ascii")
            for a, b in zip(rows[:-1].tolist(), rows[1:].tolist())]


def _path_data(vals: np.ndarray, ok: np.ndarray, close: bool) -> str:
    """Polyline path of one curve; a masked-out point breaks the line."""
    return _path_texts(vals, ok, [len(vals)], [close])[0]


@functools.lru_cache(maxsize=1)
def _grid(circles: int, rays: int, r_max: float, n: int) -> np.ndarray:
    """Sample points of every curve, n each, read-only: the circles, the
    near-boundary circle at r_max, then the rays."""
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    ts = np.linspace(0.0, r_max, n)
    zs = np.concatenate([r_max * k / (circles + 1) * ring for k in range(1, circles + 1)]
                        + [r_max * ring]
                        + [ts * np.exp(2j * np.pi * j / rays) for j in range(rays)])
    zs.flags.writeable = False
    return zs


def render_svg(F, opts: RenderOptions = RenderOptions()) -> str:
    """Render the image of the polar grid under F as an SVG document."""
    n, closed = opts.samples_per_curve, opts.circles + 1
    vals, ok = F.eval_masked(_grid(opts.circles, opts.rays, opts.r_max, n))
    paths = _path_texts(vals, ok, [n] * (closed + opts.rays),
                        [True] * closed + [False] * opts.rays)
    # drawing order: circles, rays, boundary
    paths.append(paths.pop(opts.circles))

    if opts.viewport is not None:
        xmin, xmax, ymin, ymax = opts.viewport
    else:
        pts = vals[ok]  # ok only where the value is finite
        xmin, xmax = float(np.min(pts.real)), float(np.max(pts.real))
        ymin, ymax = float(np.min(pts.imag)), float(np.max(pts.imag))
    pad = 0.05 * max(xmax - xmin, ymax - ymin, 1e-9)
    x0, y0 = xmin - pad, -(ymax + pad)
    w, h = (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad

    scale = w / opts.size
    style = '" fill="none" stroke="{}" stroke-width="{:.6f}"/>\n'
    tails = ([style.format("#7a8aa0", opts.grid_stroke * scale)] * (len(paths) - 1)
             + [style.format("#202020", opts.boundary_stroke * scale)])
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n'
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{opts.size}" height="{opts.size}" '
             f'viewBox="{x0:.6f} {y0:.6f} {w:.6f} {h:.6f}">\n']
    for data, tail in zip(paths, tails):
        if data:  # an empty path is left out
            parts += ['<path d="', data, tail]
    parts.append("</svg>\n")
    return "".join(parts)
