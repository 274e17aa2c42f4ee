"""Tiny static SVG plots, no renderer dependencies, byte-deterministic: the points are
whole hundredths of a pixel in one `scale(0.01)` group, the dots markers on a polyline;
the frame (ranges and ticks) is worked out on Python floats in numpy's own arithmetic."""
from __future__ import annotations

import math

import numpy as np
import orjson

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 34, 46  # margins around the plot box
_MAX = 1.7976931348623157e308  # the largest double


def _half(lo: float, hi: float) -> float:
    """1, or 1/2 where hi - lo overflows: hi h - lo h is then finite, and a factor of 1
    leaves every value's bits as they are (halving would not, on subnormals)."""
    return 1.0 if math.isfinite(hi - lo) else 0.5


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """`np.linspace(lo, hi, n)` in numpy's own float arithmetic, for lo < hi (`_widened`)."""
    step = (hi - lo) / (n - 1)  # where it underflows to 0, numpy scales i / (n - 1) instead
    return [i * step + lo if step else i / (n - 1) * (hi - lo) + lo for i in range(n - 1)] + [hi]


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi], with a zero range widened to [lo, lo + 1]; where |lo| >= 2^53
    loses that step, it is widened by 2^-50 |lo| towards zero instead."""
    if hi != lo:
        return lo, hi
    if lo + 1.0 != lo:
        return lo, lo + 1.0
    step = abs(lo) * 2.0**-50
    return (lo - step, lo) if lo > 0.0 else (lo, lo + step)


def _range(*arrays: np.ndarray) -> tuple[float, float]:
    """`_widened` min and max of the finite arrays as if concatenated, without the
    copy; [0, 1] when all are empty."""
    bounds = [(float(a.min()), float(a.max())) for a in arrays if a.size] or [(0.0, 1.0)]
    return _widened(min(lo for lo, _ in bounds), max(hi for _, hi in bounds))


def _finite(pair) -> tuple[np.ndarray, np.ndarray]:
    """The series' (x, y) pairs with both coordinates finite, as float arrays."""
    xs, ys = (np.asarray(a, dtype=float) for a in pair)
    keep = np.isfinite(xs) & np.isfinite(ys)
    return xs[keep], ys[keep]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _points(xs: np.ndarray, ys: np.ndarray) -> bytes:
    """The (x, y) pixel pairs, all inside the plot box, as "x,y x,y ..." in whole hundredths
    of a pixel: orjson writes the ints as one flat list, and every second comma becomes a space."""
    xy = np.rint(100.0 * np.column_stack((xs, ys))).astype(np.int64)
    text = bytearray(orjson.dumps(xy.ravel(), option=orjson.OPT_SERIALIZE_NUMPY))
    codes = np.frombuffer(text, dtype=np.uint8)
    codes[np.flatnonzero(codes == ord(","))[1::2]] = ord(" ")
    return bytes(text[1:-1])  # without the brackets


# in the group's hundredths of a pixel: a 1.6 px dot, a marker at each vertex; a 1.5 px line
_DOT = (b'<defs><marker id="dot" markerUnits="userSpaceOnUse" markerWidth="320" '
        b'markerHeight="320" refX="160" refY="160"><circle cx="160" cy="160" r="160" '
        b'fill="#1f77b4"/></marker></defs>')
_LINE = b'stroke="#d62728" stroke-width="150"'
_DOTS = b'marker-start="url(#dot)" marker-mid="url(#dot)" marker-end="url(#dot)"'


def series_overlay_svg(dots, line, title: str, xlabel: str = "t",
                       ylabel: str = "P(ground)") -> bytes:
    """Scatter `dots` with an overlaid `line`, both (x, y) array pairs, as UTF-8 text.
    A pair with a non-finite coordinate is left out, of the points and of the ranges."""
    (dx, dy), (lx, ly) = _finite(dots), _finite(line)
    x_lo, x_hi = _range(dx, lx)
    y_lo, y_hi = _range(dy, ly)
    h = _half(y_lo, y_hi)
    pad = 0.04 * (y_hi * h - y_lo * h) / h
    y_lo, y_hi = max(y_lo - pad, -_MAX), min(y_hi + pad, _MAX)  # a padded range stays finite
    hx, hy = _half(x_lo, x_hi), _half(y_lo, y_hi)

    px0, px1 = _ML, _W - _MR
    py0, py1 = _H - _MB, _MT

    # scalars or arrays, on the `_half` scale of their range; numpy applies the same
    # operations in the same order
    def sx(x):
        return px0 + (x * hx - x_lo * hx) / (x_hi * hx - x_lo * hx) * (px1 - px0)

    def sy(y):
        return py0 + (y * hy - y_lo * hy) / (y_hi * hy - y_lo * hy) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" height="{py0 - py1}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{(px0 + px1) / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<text x="{(px0 + px1) / 2:.1f}" y="{_H - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{(py0 + py1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {(py0 + py1) / 2:.1f})">{ylabel}</text>',
    ]
    for xv in (v / hx for v in _ticks(x_lo * hx, x_hi * hx)):
        parts.append(f'<line x1="{sx(xv):.2f}" y1="{py0}" x2="{sx(xv):.2f}" '
                     f'y2="{py0 + 4}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{sx(xv):.2f}" y="{py0 + 17}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{_fmt(xv)}</text>')
    for yv in (v / hy for v in _ticks(y_lo * hy, y_hi * hy)):
        parts.append(f'<line x1="{px0 - 4}" y1="{sy(yv):.2f}" x2="{px0}" '
                     f'y2="{sy(yv):.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{px0 - 7}" y="{sy(yv) + 3.5:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{_fmt(yv)}</text>')
    svg = ["\n".join(parts).encode(), _DOT, b'<g transform="scale(0.01)">']
    for xs, ys, style in ((lx, ly, _LINE), (dx, dy, _DOTS)):  # the line under the dots
        points = _points(sx(xs), sy(ys))
        if points:
            svg.append(b'<polyline points="%s" fill="none" %s/>' % (points, style))
    svg.append(b"</g>\n</svg>\n")
    return b"\n".join(svg)
