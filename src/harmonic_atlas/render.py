"""Deterministic SVG rendering of harmonic-map images of the disk.

Draws the images of concentric circles and radial segments under a map,
plus the near-boundary curve.  Output is plain SVG 1.1 with one <path>
per curve, 6-decimal coordinates, and byte-identical output for identical
inputs.  Points that sit within the pole guard of a closed form are
dropped and leave gaps in the path rather than being interpolated across.

Cost: a render is one pass over the polar grid: one read-only array of
every curve's sample points (``_grid``, cached for the last options), one
``HarmonicMap.eval_masked`` call on it, one vectorised text pass for all
the paths, the viewport from the coordinates that pass formats and one
join of the document, which is returned as bytes.  ``eval_masked``
evaluates h and g together in blocks of 4096 points, with one memo per
block, so each distinct polynomial and log of the two is computed once per
point (a shear's g repeats every term of h).  The pole test, screened by
radius, tests no catalog pole inside r_max = 0.95, so the points reach the
map uncopied and the logs come from a memo kept with the grid: one
read-only array of log L at its points for each log argument L, filled by
the first render that needs it.  The memo holds at most one array per L,
for the one cached grid: the catalog's four (1 +- z, 1 +- iz) take 0.78
MiB at the default options and 64 MiB at the 2**20-point cap.  A render
with a point near a pole neither reads nor fills it.  No value depends on
the other points, so blocks and memo draw what one batch per curve would.
The grid also keeps its path layout (``_layout``), read-only: the point
each row of path data draws, where each curve's rows start, and each
row's prefix words, " M"/" L" before x and "," before y.  It takes 0.2
MiB at the default options and 16 MiB at the cap (40 MiB where every
curve is one closed point).  A render with no point masked reads it as it
is; one with a masked point selects its drawn rows from it and rebuilds
their prefix words with the same helper (``_prefixes``).
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
tie, |x| >= 9999.9999995 (more integer digits than the word holds, clamped
onto the tie q = 9999999999.5), NaN and infinities are formatted by "%.6f"
itself, one at a time.
Their text is at most 14 bytes while |x| < 1e6, so the rows widen only
for larger values, to the longest text.  4 of the 2.38 M coordinates of
the catalog's 93 renders at the default options are formatted so, all
near a tie: the largest |x| there is 9886.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import Frozen

__all__ = ["RenderOptions", "render_svg"]

_MAX_POINTS = 2**20  # sampled points per render, all curves together
_SIZE = 640  # width and height of the document, in px
_GRID_STROKE, _BOUNDARY_STROKE = 0.7, 1.4  # stroke widths, in px


class RenderOptions(Frozen):
    __slots__ = ("circles", "rays", "r_max", "samples_per_curve")

    def __init__(self, circles: int = 8, rays: int = 16, r_max: float = 0.95,
                 samples_per_curve: int = 512):
        if circles < 1 or rays < 1:
            raise ValueError("circles and rays must be >= 1")
        if not (0 < r_max < 1):
            raise ValueError("r_max must lie in (0, 1)")
        if samples_per_curve < 1:
            raise ValueError("samples_per_curve must be >= 1")
        if (circles + rays + 1) * samples_per_curve > _MAX_POINTS:
            raise ValueError("(circles + rays + 1) * samples_per_curve must be "
                             f"<= {_MAX_POINTS}")
        object.__setattr__(self, "circles", circles)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "r_max", r_max)
        object.__setattr__(self, "samples_per_curve", samples_per_curve)


_MINUS = np.frombuffer(b"\0\0-\0", dtype=np.uint32)[0]  # the sign of x < 0, byte 2
# prefix words, bytes 0 and 1: a curve's first point, a run's first point,
# a point whose predecessor is drawn, and y ("," after x)
_HEAD, _MOVE, _LINE, _COMMA = np.frombuffer(b"\0M\0\0 M\0\0 L\0\0\0,\0\0", dtype=np.uint32)


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


def _fixed6(c: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """Row i is prefix[i]'s bytes, then "%.6f" % c[i], in ASCII, NUL where
    no character is printed.

    A row is uint32 words: the prefix word with the sign in byte 2 (NUL
    in byte 3); the integer digits (``lead``); "." and two decimals; four
    decimals.  q = |x|*1e6 is within half an ulp of the exact product, so
    n = rint(q) is the correctly rounded integer "%.6f" prints unless q
    lies within 2 ulp of a half-integer; 2**-51 times the batch's largest q
    is at least that for every q.  Those values are formatted by "%.6f"
    itself, and so are NaN, infinities and |x| >= 9999.9999995, which the
    clamp sends to q = 9999999999.5 exactly, a tie: every other q is below
    it, so n < 1e10 and the integer digits fit one word.  Their texts,
    written from byte 2 on, fit the 16-byte row while |x| < 1e6; the rows
    widen to the longest of them.
    """
    q = np.abs(c)
    np.fmin(q, 9999.9999995, out=q)  # NaN too
    q *= 1e6
    n = np.empty(c.size, dtype=np.int64)
    np.rint(q, out=n, casting="unsafe")
    tol = 2.0**-51 * q.max(initial=0.0)
    q -= n  # exact, and at most 1/2 in size
    np.abs(q, out=q)
    undecided = np.flatnonzero(q >= 0.5 - tol)
    n[undecided] = 0  # their rows are written below, from "%.6f"
    texts = [("%.6f" % x).encode() for x in c[undecided].tolist()]
    width = max([16, *(2 + len(t) for t in texts)])
    out = np.empty((c.size, -(-width // 4)), dtype=np.uint32)
    np.add(prefix, np.signbit(c) * _MINUS, out=out[:, 0])
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


def _prefixes(keep: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The prefix words of the drawn points ``keep``, two per point (x, y):
    "M" before a curve's first point, " M" where a point's predecessor in
    the curve is not drawn, else " L"; and "," before y.  Curve k is rows
    rows[k]:rows[k + 1]."""
    heads = rows[:-1][rows[:-1] < rows[1:]]  # nonempty curves' first rows
    words = np.empty((keep.size, 2), dtype=np.uint32)
    words[:, 0] = np.where(np.diff(keep, prepend=-2) == 1, _LINE, _MOVE)
    words[heads, 0] = _HEAD  # row 0 among them
    words[:, 1] = _COMMA
    return words.reshape(-1)


def _layout(sizes, close) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The path layout of consecutive curves, read-only: ``take``, the point
    each row draws (curve k's next ``sizes[k]`` points, then its first
    again where ``close[k]``); ``rows``, where each curve's rows start, then
    their count; and the prefix words of those rows when every point is
    drawn (``_prefixes``)."""
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    shut = np.asarray(close, dtype=bool) & (sizes > 0)
    lens = sizes + shut
    first = np.cumsum(lens) - lens  # where each curve starts once closed
    take = np.arange(int(lens.sum())) - np.repeat(first - starts, lens)
    take[first[shut] + sizes[shut]] = starts[shut]
    rows = np.append(first, take.size)
    layout = take, rows, _prefixes(np.arange(take.size), rows)
    for a in layout:
        a.flags.writeable = False
    return layout


def _coords(vals: np.ndarray, ok: np.ndarray, layout: tuple) -> tuple:
    """x and -y of each drawn row in turn, the rows of each curve (as
    ``_layout``) and their prefix words.  A masked-out point is not drawn
    and breaks its line; with none masked, ``layout`` is read as it is."""
    take, rows, words = layout
    if not ok.all():
        keep = np.flatnonzero(ok[take])
        rows = np.searchsorted(keep, rows)
        take, words = take[keep], _prefixes(keep, rows)
    xy = vals[take].view(np.float64)  # x and y in turn
    np.negative(xy[1::2], out=xy[1::2])
    return xy, rows, words


def _texts(xy: np.ndarray, rows: np.ndarray, words: np.ndarray) -> list[bytes]:
    """Path data of each curve, from ``_coords``, ASCII bytes per curve."""
    text = _fixed6(xy, words)
    text = text.reshape(-1, 2 * text.shape[1])
    return [text[a:b].tobytes().translate(None, b"\0")
            for a, b in zip(rows[:-1].tolist(), rows[1:].tolist())]


@functools.lru_cache(maxsize=1)
def _grid(circles: int, rays: int, r_max: float, n: int) -> tuple[np.ndarray, dict, tuple]:
    """Sample points of every curve, n each, read-only: the circles, the
    near-boundary circle at r_max, then the rays; the memo of log L at
    those points, by log argument L, that ``eval_masked`` fills; and the
    curves' path layout (``_layout``), the circles closed."""
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    ts = np.linspace(0.0, r_max, n)
    zs = np.concatenate([r_max * k / (circles + 1) * ring for k in range(1, circles + 1)]
                        + [r_max * ring]
                        + [ts * np.exp(2j * np.pi * j / rays) for j in range(rays)])
    zs.flags.writeable = False
    closed = circles + 1
    return zs, {}, _layout([n] * (closed + rays), [True] * closed + [False] * rays)


def render_svg(F, opts: RenderOptions = RenderOptions()) -> bytes:
    """Render the image of the polar grid under F as an SVG document, in
    UTF-8 (all ASCII)."""
    zs, logs, layout = _grid(opts.circles, opts.rays, opts.r_max, opts.samples_per_curve)
    vals, ok = F.eval_masked(zs, logs)  # ok only where the value is finite
    xy, rows, words = _coords(vals, ok, layout)
    # xy holds every finite value, the closing points twice, with y negated
    xmin, xmax = float(np.min(xy[0::2])), float(np.max(xy[0::2]))
    ymin, ymax = -float(np.max(xy[1::2])), -float(np.min(xy[1::2]))
    paths = _texts(xy, rows, words)
    # drawing order: circles, rays, boundary
    paths.append(paths.pop(opts.circles))

    pad = 0.05 * max(xmax - xmin, ymax - ymin, 1e-9)
    x0, y0 = xmin - pad, -(ymax + pad)
    w, h = (xmax - xmin) + 2 * pad, (ymax - ymin) + 2 * pad

    scale = w / _SIZE
    style = b'" fill="none" stroke="%s" stroke-width="%.6f"/>\n'
    tails = ([style % (b"#7a8aa0", _GRID_STROKE * scale)] * (len(paths) - 1)
             + [style % (b"#202020", _BOUNDARY_STROKE * scale)])
    parts = [b'<?xml version="1.0" encoding="UTF-8"?>\n'
             b'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             b'width="%d" height="%d" viewBox="%.6f %.6f %.6f %.6f">\n'
             % (_SIZE, _SIZE, x0, y0, w, h)]
    for data, tail in zip(paths, tails):
        if data:  # an empty path is left out
            parts += [b'<path d="', data, tail]
    parts.append(b"</svg>\n")
    return b"".join(parts)
