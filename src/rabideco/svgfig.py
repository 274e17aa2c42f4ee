"""Tiny static SVG plots, no renderer dependencies, byte-deterministic: a plot's points
are formatted by one `_fixed2` call over all of their coordinates and joined as bytes;
its frame (ranges and ticks) is worked out on Python floats in numpy's own arithmetic."""
from __future__ import annotations

import math

import numpy as np

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 34, 46  # margins around the plot box


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """`np.linspace(lo, hi, n)` in numpy's own float arithmetic; hi <= lo widens to lo + 1."""
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)  # where it underflows to 0, numpy scales i / (n - 1) instead
    return [i * step + lo if step else i / (n - 1) * (hi - lo) + lo for i in range(n - 1)] + [hi]


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi], with a zero range widened to [lo, lo + 1]; where |lo| >= 2^53
    loses that step, it is widened by 2^-50 |lo| towards zero instead."""
    if hi != lo:
        return lo, hi
    if lo + 1.0 != lo or not math.isfinite(lo):
        return lo, lo + 1.0
    step = abs(lo) * 2.0**-50
    return (lo - step, lo) if lo > 0.0 else (lo, lo + step)


def _range(*arrays: np.ndarray) -> tuple[float, float]:
    """`_widened` min and max of the arrays as if concatenated (NaN wins), without
    the copy; [0, 1] when all are empty."""
    bounds = [(float(a.min()), float(a.max())) for a in arrays if a.size] or [(0.0, 1.0)]
    if any(math.isnan(lo) for lo, _ in bounds):  # an array with a NaN has it as both bounds
        return math.nan, math.nan
    return _widened(min(lo for lo, _ in bounds), max(hi for _, hi in bounds))


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _fixed2(values: np.ndarray) -> np.ndarray:
    """'%.2f' % v for each v, as rows of ASCII codes right-aligned in 0 padding.

    Works on k = |rint(100 v)|. Below 2^31 the product 100 v is within 2^-22
    of its exact value, so it rounds the same way unless it lies within 1e-6
    of a tie; those entries, the non-finite ones and the larger ones take the
    scalar '%.2f'.
    """
    v = np.asarray(values, dtype=float).ravel()
    with np.errstate(invalid="ignore", over="ignore"):
        s = v * 100.0
        scalar = ~(np.abs(s) < 2.0**31) | (np.abs(s - np.floor(s) - 0.5) < 1e-6)
        k = np.abs(np.rint(np.where(scalar, 0.0, s)))  # integers below 2^31, exact
    places = len("%d" % (k.max(initial=0.0) // 100))  # digits of the largest whole part
    # q[j] = k // 10^(places + 1 - j): each exact quotient is at least
    # 10^-(places + 1) from the next integer, far more than its rounding error
    q = np.floor(k / 10.0 ** np.arange(places + 1, -1, -1)[:, None])
    chars = q + 48.0
    chars[1:] -= 10.0 * q[:-1]
    chars[:places - 1] *= q[:places - 1] != 0.0  # leading zeros become pad
    texts = {i: b"%.2f" % v[i] for i in np.flatnonzero(scalar).tolist()}
    width = max([places + 4] + [len(text) for text in texts.values()])
    out = np.zeros((width, v.size), dtype=np.uint8)  # one column per entry
    out[-places - 4] = np.signbit(v) * ord("-")  # any pad before the digits drops out
    out[-places - 3:-3] = chars[:places]
    out[-3] = ord(".")
    out[-2:] = chars[places:]
    for i, text in texts.items():
        out[:, i] = 0
        out[width - len(text):, i] = np.frombuffer(text, dtype=np.uint8)
    return out.T


def _rows(pre: bytes, xs: np.ndarray, mid: bytes, ys: np.ndarray, post: bytes) -> bytes:
    """b''.join(pre + x + mid + y + post)[:-1] over the rows of `_fixed2` tables xs and ys.

    The last character goes with the pad bytes rather than in a sliced copy."""
    table = np.concatenate([piece if isinstance(piece, np.ndarray) else np.frombuffer(
        piece * len(xs), dtype=np.uint8).reshape(len(xs), -1)
        for piece in (pre, xs, mid, ys, post)], axis=1)
    table[-1, -1] = 0
    # each stage drops the one before it: at most two copies of the text live at once
    text = table.tobytes()
    del table
    return text.replace(b"\0", b"")


def series_overlay_svg(dots, line, title: str, xlabel: str = "t",
                       ylabel: str = "P(ground)") -> bytes:
    """Scatter `dots` with an overlaid `line`, both (x, y) array pairs, as UTF-8 text."""
    dx, dy = (np.asarray(a, dtype=float) for a in dots)
    lx, ly = (np.asarray(a, dtype=float) for a in line)
    shared = lx is dx  # a line on the dots' own times, as every FigureResult draws
    x_lo, x_hi = _range(dx, *[] if shared else [lx])
    y_lo, y_hi = _range(dy, ly)
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px0, px1 = _ML, _W - _MR
    py0, py1 = _H - _MB, _MT

    # scalars or arrays; numpy applies the same operations in the same order
    def sx(x):
        return px0 + (x - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(y):
        return py0 + (y - y_lo) / (y_hi - y_lo) * (py1 - py0)

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
    for xv in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(xv):.2f}" y1="{py0}" x2="{sx(xv):.2f}" '
                     f'y2="{py0 + 4}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{sx(xv):.2f}" y="{py0 + 17}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{_fmt(xv)}</text>')
    for yv in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{px0 - 4}" y1="{sy(yv):.2f}" x2="{px0}" '
                     f'y2="{sy(yv):.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{px0 - 7}" y="{sy(yv) + 3.5:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{_fmt(yv)}</text>')
    # every coordinate in one `_fixed2` call, a shared x column once
    columns = [sx(lx), sy(ly)] + ([] if shared else [sx(dx)]) + [sy(dy)]
    table, n = _fixed2(np.concatenate(columns)), lx.size
    lxs, lys, dys = table[:n], table[n:2 * n], table[len(table) - dx.size:]
    dxs = lxs if shared else table[2 * n:2 * n + dx.size]
    svg = ["\n".join(parts).encode()]
    if lx.size:
        svg.append(b'<polyline points="' + _rows(b"", lxs, b",", lys, b" ")
                   + b'" fill="none" stroke="#d62728" stroke-width="1.5"/>')
    if dx.size:
        svg.append(_rows(b'<circle cx="', dxs, b'" cy="', dys, b'" r="1.6" fill="#1f77b4"/>\n'))
    svg.append(b"</svg>\n")
    return b"\n".join(svg)
