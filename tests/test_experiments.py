import hashlib
import importlib.util
import json
import math
import os
import re
import shutil
import stat
import tempfile
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rabideco import experiments, indistinguishable
from rabideco.cli import main as cli_main
from rabideco.core import ProbabilitySeries, rabi_frequency_ladder
from rabideco.distinguishable import MAX_EPOCHS
from rabideco.experiments import (
    ConfigError,
    WORK_BUDGET,
    ExperimentKind,
    FigureResult,
    SeriesResult,
    _csv,
    _json,
    config_from_dict,
    emit_outputs,
    load_config,
    predictor_series,
    run_experiment,
    run_figure_experiment,
    run_gamma_ratio_experiment,
    run_oracle_check,
)
from rabideco.fitting import FitConvergenceError
from rabideco.indistinguishable import table_plan
from rabideco.montecarlo import run_work
from rabideco.svgfig import (_H, _MB, _ML, _MR, _MT, _W, _fmt, _points, _range, _ticks,
                             series_overlay_svg)

from .reference import previous_range, previous_ticks

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def fig3_config(**overrides):
    data = {
        "experiment": "Fig3Indistinguishable",
        "system": {"omega": 1.0},
        "env": {"dt": 0.7, "beta": 0.995, "max_events": 5},
        "grid": {"t_max": 50.0, "n_points": 300},
        "output": {"prefix": "fig3"},
    }
    data.update(overrides)
    return data


def small_fig5_config(**overrides):
    data = {
        "experiment": "Fig5GammaRatio",
        "system": {"omega": 1.0},
        "env": {"beta": 0.99, "max_events": 2, "omega0_dt": 0.2},
        "ladder": {"n_max": 2},
        "fit_window": {"omega_t_span": 30.0, "n_points": 150},
        "output": {"prefix": "mini5"},
    }
    data.update(overrides)
    return data


def strict_json(text: str):
    """`json.loads` that refuses NaN and Infinity, which are not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def previous_series_overlay_svg(dots, line, title: str, xlabel: str = "t",
                                ylabel: str = "P(ground)") -> str:
    """`series_overlay_svg` before its one-format points (verbatim)."""
    dx, dy = (np.asarray(a, dtype=float) for a in dots)
    lx, ly = (np.asarray(a, dtype=float) for a in line)
    all_x = np.concatenate([dx, lx]) if dx.size or lx.size else np.array([0.0, 1.0])
    all_y = np.concatenate([dy, ly]) if dy.size or ly.size else np.array([0.0, 1.0])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
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
    if lx.size:
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(sx(lx).tolist(), sy(ly).tolist()))
        parts.append(f'<polyline points="{points}" fill="none" stroke="#d62728" '
                     f'stroke-width="1.5"/>')
    parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.6" fill="#1f77b4"/>'
              for x, y in zip(sx(dx).tolist(), sy(dy).tolist())]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# 513 points put the x pixels 35/32 apart, so every eighth one is a tie
# (68.375, 77.125, ...) that '%.2f' rounds half to even on its exact value
TIE_GRID = np.arange(513.0)

# values '%.2f' finds hard: exact and near ties, signed zeros, subnormals,
# large magnitudes, and the non-finite ones
formatted_floats = st.one_of(
    st.floats(-1e12, 1e12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**14, 10**14).map(lambda m: m / 200.0),
    st.integers(-2**40, 2**40).map(lambda m: m / 8.0),
    st.integers(-10**6, 10**6).map(lambda m: (m + 0.5) / 100.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -0.005, 0.005,
                     -0.004999, 9.995, 21474836.47, 21474836.48, 2.0**31 / 100.0, 1e300]),
)
finite_floats = formatted_floats.filter(math.isfinite)


SVG = "{http://www.w3.org/2000/svg}"
# the plot box in hundredths of a pixel, as the points are written
BOX_X, BOX_Y = (100 * _ML, 100 * (_W - _MR)), (100 * _MT, 100 * (_H - _MB))


def svg_points(svg: bytes) -> dict:
    """Parses a `series_overlay_svg` plot: its dot marker, and one `scale(0.01)` group
    holding the line's polyline and then the dots' one, each only when it has points.
    Returns each polyline's points, "line" and "dots", as (k, 2) ints (hundredths)."""
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG}svg"
    (marker,) = root.findall(f"{SVG}defs/{SVG}marker")
    assert marker.attrib == {"id": "dot", "markerUnits": "userSpaceOnUse", "markerWidth": "320",
                             "markerHeight": "320", "refX": "160", "refY": "160"}
    (dot,) = marker
    assert dot.tag == f"{SVG}circle"
    assert dot.attrib == {"cx": "160", "cy": "160", "r": "160", "fill": "#1f77b4"}
    (group,) = root.findall(f"{SVG}g")
    assert group.attrib == {"transform": "scale(0.01)"}
    points = {"line": np.empty((0, 2), dtype=np.int64), "dots": np.empty((0, 2), dtype=np.int64)}
    kinds = []
    for polyline in group:
        assert polyline.tag == f"{SVG}polyline" and polyline.get("fill") == "none"
        kinds.append("dots" if polyline.get("marker-mid") else "line")
        pairs = [pair.split(",") for pair in polyline.get("points").split(" ")]
        points[kinds[-1]] = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    assert kinds in ([], ["line"], ["dots"], ["line", "dots"])  # the line under the dots
    return points


def finite_pairs(pair) -> tuple:
    """The (x, y) pairs of a series whose coordinates are both finite, as two arrays."""
    xs, ys = (np.asarray(a, dtype=float) for a in pair)
    keep = np.array([math.isfinite(x) and math.isfinite(y)
                     for x, y in zip(xs.tolist(), ys.tolist())], dtype=bool)
    return xs[keep], ys[keep]


def pixels(dots, line) -> dict:
    """Each finite point's (x, y) pixels as both writers scale them, "line" and "dots"."""
    (dx, dy), (lx, ly) = finite_pairs(dots), finite_pairs(line)
    (x_lo, x_hi), (y_lo, y_hi) = _range(dx, lx), _range(dy, ly)
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def scale(x, y):
        return np.column_stack((_ML + (x - x_lo) / (x_hi - x_lo) * (_W - _MR - _ML),
                                _H - _MB + (y - y_lo) / (y_hi - y_lo) * (_MT - _H + _MB)))

    return {"line": scale(lx, ly), "dots": scale(dx, dy)}


def overflows(dots, line) -> bool:
    """Whether the x range or the padded y range of the finite pairs overflows to inf."""
    (dx, dy), (lx, ly) = finite_pairs(dots), finite_pairs(line)
    (x_lo, x_hi), (y_lo, y_hi) = _range(dx, lx), _range(dy, ly)
    pad = 0.04 * (y_hi - y_lo)
    return not (math.isfinite(x_hi - x_lo) and math.isfinite((y_hi + pad) - (y_lo - pad)))


def assert_matches_previous(dots, line) -> None:
    """`series_overlay_svg` against `previous_series_overlay_svg` of the finite pairs
    alone: the same frame bytes up to the points; each point with a finite '%.2f' text,
    and only those, at that text's hundredths, one off only where 100 v lies within 1e-6
    of a tie; the same colours, draw order, 1.5 px stroke and 1.6 px radius once scaled
    by 0.01."""
    svg = series_overlay_svg(dots, line, "t")
    previous = previous_series_overlay_svg(finite_pairs(dots), finite_pairs(line), "t")
    frame = re.split(r"\n<(?:polyline|circle|/svg)", previous)[0]
    assert svg.startswith(frame.encode() + b"\n<defs>")
    old = ET.fromstring(previous)
    old_line, old_dots = old.find(f"{SVG}polyline"), old.findall(f"{SVG}circle")
    texts = {"line": [] if old_line is None else [
        pair.split(",") for pair in old_line.get("points").split(" ")],
        "dots": [(circle.get("cx"), circle.get("cy")) for circle in old_dots]}
    got, want_pixels = svg_points(svg), pixels(dots, line)
    for kind, pairs in texts.items():
        hundredths = 100.0 * np.array(pairs, dtype=float).reshape(-1, 2)
        finite = np.isfinite(hundredths).all(axis=1)
        assert got[kind].shape == hundredths[finite].shape
        off = got[kind] - np.rint(hundredths[finite])
        v = 100.0 * want_pixels[kind][finite]
        near_tie = np.abs(v - np.floor(v) - 0.5) < 1e-6
        assert ((off == 0) | near_tie & (np.abs(off) == 1)).all()
    root = ET.fromstring(svg)
    for polyline in root.iter(f"{SVG}polyline"):
        if polyline.get("marker-mid"):
            assert {polyline.get(f"marker-{at}") for at in ("start", "mid", "end")} == {
                "url(#dot)"} and polyline.get("stroke") is None
            dot = root.find(f"{SVG}defs/{SVG}marker/{SVG}circle")
            assert dot.get("fill") == old_dots[0].get("fill") == "#1f77b4"
            assert float(dot.get("r")) / 100 == float(old_dots[0].get("r")) == 1.6
        else:
            assert polyline.get("stroke") == old_line.get("stroke") == "#d62728"
            assert (float(polyline.get("stroke-width")) / 100
                    == float(old_line.get("stroke-width")) == 1.5)


class TestWritersAgainstPrevious:
    @pytest.mark.parametrize("dots,line", [
        ((np.linspace(0.0, 5.0, 40), np.sin(np.linspace(0.0, 5.0, 40))),
         (np.linspace(0.0, 5.0, 7), np.cos(np.linspace(0.0, 5.0, 7)))),
        (((), ()), ((), ())),
        ((np.arange(5.0), np.arange(5.0)), ((), ())),
        (((), ()), (np.arange(3.0), np.array([0.0, -0.0, 5e-324]))),
        ((np.array([0.0, 1.0, 2.0]), np.array([0.5, float("nan"), 0.25])),
         (np.array([0.0, 2.0]), np.array([-0.0, 5e-324]))),
        ((np.array([0.0, 1.0]), np.array([float("inf"), 0.0])),
         (np.array([0.0, 1.0]), np.array([-float("inf"), 1.0]))),
        ((np.array([3, 4, 5]), np.array([1, 2, 3])), ((), ())),  # integer input
        ((TIE_GRID, np.cos(TIE_GRID)), (TIE_GRID, np.linspace(-1.0, 1.0, 513))),
    ])
    def test_svg_bytes(self, dots, line):
        with np.errstate(invalid="ignore"):
            assert_matches_previous(dots, line)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_dots=st.integers(0, 30), n_line=st.integers(0, 30),
           times=st.sampled_from(["own", "same", "equal", "prefix"]))
    def test_svg_bytes_property(self, data, n_dots, n_line, times):
        # the line on times of its own, on the dots' times (the same array, as every
        # FigureResult passes, or an equal copy), or on a view of their first n_line
        def column(n):
            return np.array(data.draw(st.lists(formatted_floats, min_size=n, max_size=n)))

        dots = (column(n_dots), column(n_dots))
        if times == "own":
            line_x = column(n_line)
        else:
            line_x = {"same": dots[0], "equal": dots[0].copy(), "prefix": dots[0][:n_line]}[times]
        line = (line_x, column(line_x.size))
        with np.errstate(all="ignore"):
            try:
                previous_series_overlay_svg(finite_pairs(dots), finite_pairs(line), "t")
            except ZeroDivisionError:  # a zero range that adding 1 does not widen
                comparable = False
            else:  # a range that overflows, where it drew NaN ticks and dropped points
                comparable = not overflows(dots, line)
            if comparable:
                assert_matches_previous(dots, line)
            else:  # every finite pair is drawn, inside the box
                got = svg_points(series_overlay_svg(dots, line, "t"))
                for kind, pair in (("dots", dots), ("line", line)):
                    assert len(got[kind]) == len(finite_pairs(pair)[0])
                    assert_in_box(got[kind])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_dots=st.integers(0, 30), n_line=st.integers(0, 30))
    def test_non_finite_pairs_left_out(self, data, n_dots, n_line):
        # NaN or +-inf in x, y or both, inserted anywhere into either series, writes
        # the bytes of the same call without those pairs: points and axis ranges alike
        bad_pairs = st.tuples(st.sampled_from([math.nan, math.inf, -math.inf]),
                              formatted_floats).flatmap(lambda p: st.sampled_from([p, p[::-1]]))

        def series(n):  # (x, y) columns with the bad pairs, and without
            kept = data.draw(st.lists(st.tuples(finite_floats, finite_floats),
                                      min_size=n, max_size=n))
            pairs = list(kept)
            for bad in data.draw(st.lists(bad_pairs, max_size=4)):
                pairs.insert(data.draw(st.integers(0, len(pairs))), bad)
            return [np.array(p, dtype=float).reshape(-1, 2).T for p in (pairs, kept)]

        (dots, finite_dots), (line, finite_line) = series(n_dots), series(n_line)
        with np.errstate(all="ignore"):
            assert (series_overlay_svg(dots, line, "t")
                    == series_overlay_svg(finite_dots, finite_line, "t"))

    @pytest.mark.parametrize("x,y", [(2.0**53, 0.0), (0.0, 2.0**53), (-2.0**54, 0.5),
                                     (2.0**53 + 2.0, -2.0**60), (1.7976931348623157e308, 1.0),
                                     (1.0, -1.7976931348623157e308)])
    def test_svg_zero_range_beyond_two_to_53(self, x, y):
        # x + 1 == x here, so the previous writer's widened range stayed empty
        dots, line = (np.array([x]), np.array([y])), (np.array([x]), np.array([y]))
        with pytest.raises(ZeroDivisionError):
            previous_series_overlay_svg(dots, line, "t")
        got = svg_points(series_overlay_svg(dots, line, "t"))
        assert got["line"].tolist() == got["dots"].tolist() and len(got["dots"]) == 1
        assert_in_box(got["dots"])


def assert_in_box(points: np.ndarray) -> None:
    assert ((BOX_X[0] <= points[:, 0]) & (points[:, 0] <= BOX_X[1])).all()
    assert ((BOX_Y[0] <= points[:, 1]) & (points[:, 1] <= BOX_Y[1])).all()


class TestSvgPoints:
    def test_whole_hundredths(self):
        xs, ys = np.array([1.0, 5.0, -0.004]), np.array([2.0, 6.0, 0.125])
        # -0.4 rounds to 0, not -0, and 12.5 half to even
        assert _points(xs, ys) == b"100,200 500,600 0,12"

    def test_empty(self):
        assert _points(np.empty(0), np.empty(0)) == b""

    def test_series_without_a_line(self):
        series = ProbabilitySeries(np.linspace(0.0, 1.0, 4), np.array([0.0, 1.0, 0.5, 0.25]), {})
        cfg = SimpleNamespace(experiment=ExperimentKind.FIG3_INDISTINGUISHABLE)
        got = svg_points(SeriesResult(series).svg(cfg))
        assert got["line"].size == 0
        want = np.rint(100.0 * pixels((series.times, series.probs), ((), ()))["dots"])
        assert got["dots"].tolist() == want.tolist()
        assert got["dots"][[0, -1], 0].tolist() == list(BOX_X)  # the first and last times

    @pytest.mark.parametrize("huge", [1e308, 1.7976931348623157e308])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_overflowing_range_keeps_every_point(self, huge, axis):
        # the range from -huge to huge overflows: every coordinate is scaled on half of it
        wide, narrow = np.array([-huge, 0.0, huge]), np.array([0.0, 0.5, 1.0])
        dots = (wide, narrow) if axis == "x" else (narrow, wide)
        with np.errstate(all="raise"):
            svg = series_overlay_svg(dots, ((), ()), "t")
        points = svg_points(svg)["dots"]
        assert len(points) == 3
        assert_in_box(points)
        column = points[:, 0 if axis == "x" else 1]
        assert len(set(column.tolist())) == 3
        root = ET.fromstring(svg)
        ticks = [float(text.text) for text in list(root.iter(f"{SVG}text"))[3:]]
        marks = [float(line.get(key)) for line in root.iter(f"{SVG}line") for key in ("x1", "y1")]
        assert len(ticks) == 10 and all(map(math.isfinite, ticks + marks))

    def test_all_nan_fit_curve_keeps_the_dots(self):
        # a degenerate fit's curve is NaN throughout: the plot is the series' alone
        series = ProbabilitySeries(np.linspace(0.0, 1.0, 4), np.array([0.0, 1.0, 0.5, 0.25]), {})
        cfg = SimpleNamespace(experiment=ExperimentKind.FIG3_INDISTINGUISHABLE)
        svg = FigureResult(series, None, np.full(4, math.nan)).svg(cfg)
        assert svg == SeriesResult(series).svg(cfg)
        assert len(svg_points(svg)["dots"]) == 4

    @pytest.mark.parametrize("kind", ["fig2", "fig3", "fig5", "oracle", "simulate"])
    def test_every_result_type_parses(self, kind):
        oracle = {"experiment": "OracleCrossCheck", "system": {"omega": 1.0},
                  "env": {"dt": 0.2, "eta": 0.98}, "grid": {"t_max": 6.0, "n_points": 13},
                  "mc": {"n_systems": 1000}, "seed": 3}
        data = {"fig2": json.loads((CONFIG_DIR / "fig2a.json").read_text()),
                "fig3": fig3_config(), "fig5": small_fig5_config(),
                "oracle": oracle, "simulate": fig3_config()}[kind]
        cfg = config_from_dict(data)
        result = SeriesResult(predictor_series(cfg)) if kind == "simulate" else run_experiment(cfg)
        got = svg_points(result.svg(cfg))
        n_dots = {"fig2": 400, "fig5": 3, "oracle": 13}.get(kind, 300)
        n_line = {"simulate": 0, "fig5": 100}.get(kind, n_dots)  # fig5: the fitted power law
        assert (len(got["dots"]), len(got["line"])) == (n_dots, n_line)
        for points in got.values():
            assert_in_box(points)


# every double: NaN, +-inf, +-0, subnormals, the largest, and both sides of the
# magnitudes where repr turns to exponent notation (1e-4 and 1e16)
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 1e16,
               -1e16, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
any_floats = st.floats() | st.sampled_from(EDGE_FLOATS)
# any valid UTF-8 text: every code point but the surrogates
utf8_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
# anything a JSON summary may hold: None, bools, ints below 2^64, any double, any
# text, and empty lists and dicts
summary_trees = st.dictionaries(utf8_texts, st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(0, 2**64 - 1), any_floats, utf8_texts,
              st.just([]), st.just({})),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(utf8_texts, children,
                                                                     max_size=4),
    max_leaves=12), max_size=6)


def tagged(value):
    """`value` with each scalar tagged by its type and each float by its bits (every
    NaN alike), a dict as its items in their order."""
    if isinstance(value, dict):
        return [(key, tagged(x)) for key, x in value.items()]
    if isinstance(value, list):
        return [tagged(x) for x in value]
    if isinstance(value, float):
        return "float", "nan" if math.isnan(value) else value.hex()
    return type(value).__name__, value


def read_back(tree):
    """What the JSON of `tree` parses to: each non-finite float None, keys sorted."""
    if isinstance(tree, dict):
        return {key: read_back(tree[key]) for key in sorted(tree)}
    if isinstance(tree, list):
        return [read_back(x) for x in tree]
    return None if isinstance(tree, float) and not math.isfinite(tree) else tree


def indented(tree, depth: int = 0) -> str:
    """`tree` laid out as `json.dumps(tree, indent=2)` lays it out, each scalar and
    each empty list or dict in orjson's text."""
    if isinstance(tree, dict) and tree:
        brackets = "{}"
        parts = [f"{orjson.dumps(key).decode()}: {indented(x, depth + 1)}"
                 for key, x in tree.items()]
    elif isinstance(tree, list) and tree:
        brackets, parts = "[]", [indented(x, depth + 1) for x in tree]
    else:
        return orjson.dumps(tree).decode()
    pad = "\n" + "  " * depth
    return brackets[0] + pad + "  " + f",{pad}  ".join(parts) + pad + brackets[1]


def assert_json_round_trips(tree: dict) -> None:
    """`_json`'s text parses back (strictly) to `tree`, each float bit for bit and each
    non-finite one as None, and is laid out with sorted keys and two-space indents."""
    text = _json(tree).decode()
    assert tagged(strict_json(text)) == tagged(read_back(tree))
    assert text == indented(read_back(tree)) + "\n"


def assert_csv_round_trips(header: str, rows) -> None:
    """`_csv`'s text is the header and a line per row, each of whose fields parses
    back, by float() (or int() for an int, Fig5's `n`), to its value bit for bit."""
    lines = _csv(header, rows).decode().split("\n")
    rows = rows.tolist() if isinstance(rows, np.ndarray) else [list(row) for row in rows]
    assert lines[0] == header and lines[-1] == "" and len(lines) == len(rows) + 2
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert len(fields) == len(row), line
        assert tagged([type(x)(field) for x, field in zip(row, fields)]) == tagged(row), line


class TestWriterRoundTrips:
    """CSV and JSON in orjson's notation read back to the values written."""

    @settings(max_examples=300, deadline=None)
    @given(tree=summary_trees)
    def test_json_round_trip(self, tree):
        assert_json_round_trips(tree)

    @pytest.mark.parametrize("tree", [
        {"a": 1e-05}, {"a": -1e16}, {"a": 2**64 - 1}, {"a": "\x7f"}, {"a": "caf\xe9"},
        {"\n": 1}, {"a": -0.0, "b": 5e-324}, {"a": [math.nan, {"b": -math.inf}]},
        {"a": [], "b": {}, "c": [{}]}])
    def test_json_edge_trees_round_trip(self, tree):
        assert_json_round_trips(tree)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_rows=st.sampled_from([1, 2, 7, 300]), width=st.integers(1, 5),
           fig5=st.booleans())
    def test_csv_round_trip(self, data, n_rows, width, fig5):
        # rows cycle through a drawn pool, so that many rows mix finite rows and %r ones
        pool = data.draw(st.lists(any_floats, min_size=1, max_size=12))
        table = np.resize(np.array(pool), (n_rows, width))
        header = ",".join("abcde"[:width])
        if fig5:  # Fig5's rows: tuples with an int first column
            ns = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n_rows,
                                    max_size=n_rows))
            assert_csv_round_trips(header, [(n, *row[1:]) for n, row in zip(ns, table.tolist())])
        else:
            assert_csv_round_trips(header, table)

    @pytest.mark.parametrize("rows", [
        [(0, 1.0, 0.5, 0.5)], [(2**64 - 1, 1e-05, 1e16, -0.0)],
        [(1.0, 2.0, 3.0, 4.0)] * 3 + [(math.nan, 5e-324, -math.inf, 1e-07)]])
    def test_csv_edge_rows_round_trip(self, rows):
        assert_csv_round_trips("a,b,c,d", rows)

    def test_csv_of_fig5_rows_round_trips(self):
        rows = run_gamma_ratio_experiment(config_from_dict(small_fig5_config())).rows
        assert isinstance(rows[0].n, int)
        assert_csv_round_trips("n,omega_n,gamma_n,ratio", rows)


# ends of the tick range: zeros, subnormals, magnitudes at and past 2^53, and
# pairs whose difference overflows
tick_ends = st.one_of(st.floats(), st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.0**53, -2.0**53, 2.0**53 + 2.0, 2.0**60,
    1.7976931348623157e308, -1.7976931348623157e308]))


def reprs(values) -> list:
    return [repr(v) for v in values]


class TestWritersAgainstReference:
    """The SVG frame's ticks and ranges against their previous code (tests/reference.py)."""

    @settings(max_examples=500, deadline=None)
    @given(lo=tick_ends, hi=tick_ends, ulps=st.integers(0, 3), near=st.booleans(),
           n=st.sampled_from([2, 3, 5, 9]))
    def test_ticks_match_linspace(self, lo, hi, ulps, near, n):
        if near:  # one to four ulps above lo: the step rounds or underflows
            hi = math.nextafter(lo, math.inf)
            for _ in range(ulps):
                hi = math.nextafter(hi, math.inf)
        elif hi < lo:  # the one caller passes an ordered range (`_widened`)
            lo, hi = hi, lo
        assume(not hi <= lo)
        with np.errstate(all="ignore"):
            want = previous_ticks(lo, hi, n)
        assert reprs(_ticks(lo, hi, n)) == reprs(want)

    @pytest.mark.parametrize("lo,hi", [
        (0.0, 5e-324), (-5e-324, 5e-324), (0.0, 2e-323),
        (-1.7976931348623157e308, 1.7976931348623157e308), (-1e308, 1e308),
        (2.0**53, 2.0**53), (-2.0**60, -2.0**60), (2.0**53, 2.0**53 + 2.0),
        (float("nan"), 1.0), (0.0, float("inf")), (-float("inf"), float("inf"))])
    def test_ticks_edges(self, lo, hi):
        with np.errstate(all="ignore"):
            assert reprs(_ticks(lo, hi)) == reprs(previous_ticks(lo, hi))

    @settings(max_examples=300, deadline=None)
    @given(columns=st.lists(st.lists(any_floats.filter(math.isfinite), max_size=6), max_size=3))
    @example(columns=[[-0.0], [0.0]])
    @example(columns=[[], []])
    @example(columns=[[2.0**53], [2.0**53]])
    def test_range_matches_min_max(self, columns):
        # the plot gives `_range` its finite pairs only; min() keeps the first of two
        # equal zeros and numpy the last, a sign no plot shows (test_svg_bytes_property)
        arrays = [np.array(column, dtype=float) for column in columns]
        assert _range(*arrays) == previous_range(*arrays)


class TestConfigParsing:
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_presets_load(self, path):
        cfg = load_config(path)
        assert isinstance(cfg.experiment, ExperimentKind)

    def test_unknown_top_level_key(self, tmp_path):
        data = fig3_config()
        data["grdi"] = {"t_max": 1.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data, indent=2))
        with pytest.raises(ConfigError, match="grdi"):
            load_config(path)

    def test_unknown_nested_key_reports_line(self, tmp_path):
        data = fig3_config()
        data["env"]["etaa"] = 0.5
        path = tmp_path / "cfg.json"
        text = json.dumps(data, indent=2)
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"env\.etaa \(line \d+\)"):
            load_config(path)

    def test_invalid_domain_value_fails_fast(self):
        data = fig3_config(env={"dt": 0.7, "beta": 1.5, "max_events": 5})
        with pytest.raises(ConfigError, match="beta"):
            config_from_dict(data)

    def test_missing_section(self):
        data = fig3_config()
        del data["grid"]
        with pytest.raises(ConfigError, match="grid"):
            config_from_dict(data)

    def test_wrong_type(self):
        data = fig3_config(system={"omega": "fast"})
        with pytest.raises(ConfigError, match="omega"):
            config_from_dict(data)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "experiment": "Fig3Indistinguishable",,\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="expected one of"):
            config_from_dict(fig3_config(experiment="Fig9"))

    def test_fig5_needs_exactly_one_time_scale(self):
        data = small_fig5_config(env={"beta": 0.99, "max_events": 2})
        with pytest.raises(ConfigError, match="omega0_dt"):
            config_from_dict(data)
        data = small_fig5_config(env={"beta": 0.99, "max_events": 2, "dt": 0.5, "omega0_dt": 0.2})
        with pytest.raises(ConfigError, match="omega0_dt"):
            config_from_dict(data)

    def test_fig5_master_eq_requires_rate(self):
        data = small_fig5_config(predictor="master-eq")
        with pytest.raises(ConfigError, match="gamma_se"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "patch,needle",
        [
            ({"grid": {"t_max": 50.0, "n_points": -1}}, "n_points"),
            ({"grid": {"t_max": float("nan"), "n_points": 10}}, "finite"),
            ({"system": {"omega": 0.0}}, "omega"),
            ({"fit": {"free_params": ["decay"]}}, "free_params"),
            ({"env": {"dt": -0.1, "beta": 0.5, "max_events": 5}}, "dt"),
            ({"output": {"prefix": "../escape"}}, "prefix"),
        ],
    )
    def test_validation_is_total(self, patch, needle):
        with pytest.raises(ConfigError, match=needle):
            config_from_dict(fig3_config(**patch))


class TestPipelines:
    def test_figure_experiment_fits(self):
        result = run_figure_experiment(config_from_dict(fig3_config()))
        assert result.fit is not None
        assert len(result.fit_curve) == len(result.series)

    def test_gamma_ratio_rows(self):
        rows, power_law = run_gamma_ratio_experiment(config_from_dict(small_fig5_config()))
        assert [r.n for r in rows] == [0, 1, 2]
        assert rows[0].ratio == 1.0
        assert not power_law.degenerate
        assert all(r.gamma_n > 0.0 for r in rows)

    def test_gamma_ratio_failure_names_level(self, monkeypatch):
        def no_fit(series, omega_hint, free_params, gamma_hint):
            raise FitConvergenceError("no progress", {}, 0.0)

        monkeypatch.setattr("rabideco.experiments.fit_damped_sinusoid", no_fit)
        cfg = config_from_dict(small_fig5_config())
        with pytest.raises(RuntimeError, match="level n=0 failed: no progress"):
            run_gamma_ratio_experiment(cfg)

    def test_gamma_ratio_master_eq_mode(self):
        cfg = config_from_dict(
            small_fig5_config(predictor="master-eq", master_eq={"gamma_se": 0.01})
        )
        rows, power_law = run_gamma_ratio_experiment(cfg)
        for row in rows:
            assert row.ratio == pytest.approx(1.0, abs=1e-3)
        assert power_law.exponent == pytest.approx(0.0, abs=0.01)

    def test_oracle_check_result(self):
        cfg = config_from_dict({
            "experiment": "OracleCrossCheck",
            "system": {"omega": 1.0},
            "env": {"dt": 0.2, "eta": 0.98},
            "grid": {"t_max": 8.0, "n_points": 17},
            "mc": {"n_systems": 20000},
            "seed": 5,
        })
        result = run_oracle_check(cfg)
        assert result.max_abs_z <= 5.0
        assert len(result.z_scores) == 17


class TestOutputs:
    def test_csv_structure(self, tmp_path):
        cfg = config_from_dict(fig3_config())
        paths = emit_outputs(run_experiment(cfg), cfg, tmp_path, ("csv",))
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "t_coord,p_predicted,p_fit"
        assert len(lines) == 1 + 300

    def test_byte_identical_reruns(self, tmp_path):
        cfg = config_from_dict(fig3_config())
        a = emit_outputs(run_experiment(cfg), cfg, tmp_path / "a", ("csv", "json", "svg"))
        b = emit_outputs(run_experiment(cfg), cfg, tmp_path / "b", ("csv", "json", "svg"))
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_json_round_trip_stable(self, tmp_path):
        cfg = config_from_dict(fig3_config())
        paths = emit_outputs(run_experiment(cfg), cfg, tmp_path, ("json",))
        text = paths[0].read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_csv_values_round_trip(self, tmp_path):
        cfg = config_from_dict(fig3_config())
        result = run_experiment(cfg)
        paths = emit_outputs(result, cfg, tmp_path, ("csv",))
        rows = paths[0].read_text().splitlines()[1:]
        parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
        np.testing.assert_array_equal(parsed[:, 1], result.series.probs)

    def test_target_verdict_in_summary(self, tmp_path):
        cfg = config_from_dict(fig3_config(target={"gamma_over_omega": 0.039, "tol": 0.005}))
        paths = emit_outputs(run_experiment(cfg), cfg, tmp_path, ("json",))
        summary = json.loads(paths[0].read_text())
        assert summary["pass"] is True
        assert summary["target"] == {"gamma_over_omega": 0.039, "tol": 0.005}

    @pytest.mark.parametrize("got,passes", [(0.75, True), (0.25, True), (0.75 + 2.0**-53, False),
                                            (0.25 - 2.0**-53, False)])
    def test_verdict_bound_is_inclusive(self, got, passes):
        # |got - want| == tol passes; each difference here is exact in binary
        summary = {}
        experiments._verdict(summary, {"exponent": 0.5, "tol": 0.25}, "exponent", got)
        assert summary == {"target": {"exponent": 0.5, "tol": 0.25}, "pass": passes}

    def test_fit_iterations_in_summary(self, tmp_path):
        cfg = config_from_dict(fig3_config())
        result = run_experiment(cfg)
        summary = json.loads(emit_outputs(result, cfg, tmp_path, ("json",))[0].read_text())
        assert summary["fit"]["iterations"] == result.fit.iterations >= 1

    def test_gamma_ratio_outputs(self, tmp_path):
        cfg = config_from_dict(small_fig5_config())
        paths = emit_outputs(run_experiment(cfg), cfg, tmp_path, ("csv", "json", "svg"))
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "n,omega_n,gamma_n,ratio"
        assert len(lines) == 1 + 3
        summary = json.loads(paths[1].read_text())
        assert summary["rows"][0]["ratio"] == 1.0
        assert paths[2].read_text().startswith("<svg")

    def test_rewrite_in_place(self, tmp_path):
        cfg = config_from_dict(fig3_config())
        result = run_experiment(cfg)
        fresh = emit_outputs(result, cfg, tmp_path / "fresh", ("csv", "json", "svg"))
        out = tmp_path / "out"
        out.mkdir()
        for path in fresh:  # a longer old file under every output name
            (out / path.name).write_bytes(b"x" * (3 * path.stat().st_size))
        inodes = [(out / path.name).stat().st_ino for path in fresh]
        again = emit_outputs(result, cfg, out, ("csv", "json", "svg"))
        assert [p.read_bytes() for p in again] == [p.read_bytes() for p in fresh]
        assert [p.stat().st_ino for p in again] == inodes

    def test_write_through_symlink_updates_target(self, tmp_path):
        cfg = config_from_dict(fig3_config())
        result = run_experiment(cfg)
        (fresh,) = emit_outputs(result, cfg, tmp_path / "fresh", ("csv",))
        target = tmp_path / "target.csv"
        target.write_text("old contents, longer than nothing\n" * 1000)
        out = tmp_path / "out"
        out.mkdir()
        (out / "fig3.csv").symlink_to(target)
        (path,) = emit_outputs(result, cfg, out, ("csv",))
        assert path.is_symlink()
        assert target.read_bytes() == fresh.read_bytes()

    def test_existing_mode_kept(self, tmp_path):
        cfg = config_from_dict(fig3_config())
        path = tmp_path / "fig3.csv"
        path.write_text("old\n")
        path.chmod(0o640)
        emit_outputs(run_experiment(cfg), cfg, tmp_path, ("csv",))
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_as_write_text(self, tmp_path, umask):
        cfg = config_from_dict(fig3_config())
        result = run_experiment(cfg)
        previous = os.umask(umask)
        try:
            (path,) = emit_outputs(result, cfg, tmp_path, ("csv",))
            reference = tmp_path / "reference.csv"
            reference.write_text("t\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)

    def test_unwritable_path_message(self, tmp_path):
        cfg = config_from_dict(fig3_config())
        (tmp_path / "fig3.csv").mkdir()
        with pytest.raises(OSError, match="cannot write .*fig3.csv: "):
            emit_outputs(run_experiment(cfg), cfg, tmp_path, ("csv",))

    def test_unknown_format_rejected(self, tmp_path):
        cfg = config_from_dict(fig3_config())
        with pytest.raises(ConfigError, match="format"):
            emit_outputs(run_experiment(cfg), cfg, tmp_path, ("pdf",))

    def test_unknown_format_creates_no_directory(self, tmp_path):
        cfg = config_from_dict(fig3_config())
        out = tmp_path / "new" / "dir"
        with pytest.raises(ConfigError, match="format"):
            emit_outputs(run_experiment(cfg), cfg, out, ("png",))
        assert not (tmp_path / "new").exists()


class TestCli:
    def test_experiment_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fig3_config()))
        code = cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert sorted(Path(p).name for p in out_lines) == ["fig3.csv", "fig3.json"]

    def test_simulate_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fig3_config()))
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path),
                         "--format", "csv"]) == 0
        lines = (tmp_path / "fig3.csv").read_text().splitlines()
        assert lines[0] == "t_coord,p_predicted"

    def test_simulate_rejects_gamma_ratio(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_fig5_config()))
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2

    def test_repeated_key_reports_its_own_section_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{\n'
            '  "experiment": "MasterEqBaseline",\n'
            '  "master_eq": {"gamma_se": 0.05},\n'
            '  "system": {"omega": 1.0},\n'
            '  "env": {\n'
            '    "gamma_se": "x"\n'
            '  },\n'
            '  "grid": {"t_max": 10.0, "n_points": 20}\n'
            '}\n')
        assert cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "env.gamma_se (line 6)" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fig3_config(env={"dt": 0.7, "beta": 2.0})))
        assert cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("config_seed,flag", [(-1, []), (3, ["--seed", "-1"])],
                             ids=["config", "flag"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, config_seed, flag):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "OracleCrossCheck",
            "system": {"omega": 1.0},
            "env": {"dt": 0.2, "eta": 0.9},
            "grid": {"t_max": 2.0, "n_points": 5},
            "mc": {"n_systems": 100},
            "seed": config_seed,
        }))
        assert cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path),
                         *flag]) == 2
        assert capsys.readouterr().err.startswith("config error: seed")

    def test_ladder_with_a_non_positive_frequency_is_a_config_error(self, tmp_path, capsys):
        # L1_89(0.202^2) = -0.0174: omega_89 < 0, while omega_0..omega_88 are positive
        config_from_dict(small_fig5_config(ladder={"n_max": 88, "lamb_dicke": 0.202}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_fig5_config(ladder={"n_max": 89,
                                                                  "lamb_dicke": 0.202})))
        assert cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ladder.n_max")
        assert "omega_89" in err

    @pytest.mark.parametrize("preset,section,values,key_path", [
        ("fig2a", "grid", {"n_points": 5}, "grid.n_points"),
        ("fig2a", "grid", {"n_points": 1}, "grid.n_points"),
        ("fig2a", "grid", {"t_max": 1.0}, "grid.t_max"),
        ("fig3", "grid", {"n_points": 5}, "grid.n_points"),
        ("master_eq", "grid", {"t_max": 6.0}, "grid.t_max"),
        ("fig5", "fit_window", {"omega_t_span": 3.0}, "fit_window.omega_t_span"),
        ("fig5_master_eq", "fit_window", {"n_points": 9}, "fit_window.n_points"),
        ("fig3", "grid", {"n_points": 0}, "grid.n_points"),
        ("oracle_check", "grid", {"n_points": 0}, "grid.n_points"),
        ("oracle_check", "grid", {"n_points": 1}, "grid.n_points"),
        ("oracle_check", "grid", {"t_max": 0.0}, "grid.t_max"),
        ("fig5", "ladder", {"n_max": 0}, "ladder.n_max"),
    ], ids=["fig2_points", "fig2_one_point", "fig2_span", "fig3_points", "master_eq_span",
            "fig5_span", "fig5_points", "fig3_empty", "oracle_empty", "oracle_one_point",
            "oracle_span", "fig5_one_level"])
    def test_grid_too_short_to_fit_is_a_config_error(self, tmp_path, capsys, preset, section,
                                                     values, key_path):
        # the fit's own rule (at least 10 points over two periods), named by its key; and
        # any grid without a point at some t > 0, or a ladder without a ratio to fit
        data = json.loads((CONFIG_DIR / f"{preset}.json").read_text())
        data[section].update(values)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data, indent=2))
        assert cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {key_path} (line ")

    def test_short_series_csv_is_a_config_error(self, tmp_path, capsys):
        t = np.linspace(0.0, 30.0, 5)
        (tmp_path / "series.csv").write_text(
            "t_coord,p\n" + "".join(f"{x!r},{math.sin(x) ** 2!r}\n" for x in t.tolist()))
        fit_cfg = tmp_path / "fit.json"
        fit_cfg.write_text(json.dumps({"series_csv": "series.csv", "omega_hint": 1.0}))
        assert cli_main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: series_csv: ")
        assert "need at least 10 points, got 5" in err

    @pytest.mark.parametrize("text", ["", "t_coord\n0.0,0.5\n1.0,0.25\n"],
                             ids=["empty", "one_column_header"])
    def test_series_csv_without_header_is_a_config_error(self, tmp_path, capsys, text):
        (tmp_path / "series.csv").write_text(text)
        fit_cfg = tmp_path / "fit.json"
        fit_cfg.write_text(json.dumps({"series_csv": "series.csv", "omega_hint": 1.0}))
        assert cli_main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: series_csv: ")
        assert err.rstrip().endswith("series.csv has no usable header row")
        assert len(err.splitlines()) == 1

    def test_degenerate_fit_writes_strict_json(self, tmp_path):
        # a constant series fits no decay: gamma and omega_fit are NaN, written as null
        t = np.linspace(0.0, 30.0, 40)
        (tmp_path / "series.csv").write_text(
            "t_coord,p\n" + "".join(f"{x!r},0.5\n" for x in t.tolist()))
        fit_cfg = tmp_path / "fit.json"
        fit_cfg.write_text(json.dumps({"series_csv": "series.csv", "omega_hint": 1.0}))
        assert cli_main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path)]) == 0
        summary = strict_json((tmp_path / "fit.json").read_text())
        assert summary["degenerate"] is True
        assert summary["gamma"] is None and summary["omega_fit"] is None

    def test_numerical_failure_exit_code(self, tmp_path):
        # times up to 1e300 overflow the fit's normal equations
        series = tmp_path / "series.csv"
        t = np.linspace(0.0, 1e300, 60)
        rows = ["t_coord,p"] + [f"{x!r},{math.sin(x) ** 2!r}" for x in t.tolist()]
        series.write_text("\n".join(rows) + "\n")
        fit_cfg = tmp_path / "fit.json"
        fit_cfg.write_text(json.dumps({"series_csv": str(series), "omega_hint": 1.0}))
        assert cli_main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("preset,t_max", [("fig2a", 1e301), ("fig3", 1e302)])
    def test_overflowing_fit_fails_without_a_warning(self, tmp_path, capsys, preset, t_max):
        # times near 1e301 overflow J^T J to inf - inf: a NaN pivot the solve refuses,
        # so the run exits 3 with one line, and numpy warns of nothing on the way
        data = json.loads((CONFIG_DIR / f"{preset}.json").read_text())
        data["env"]["dt"] = 1e300
        data["grid"] = {"t_max": t_max, "n_points": 400}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["experiment", "--config", str(cfg_path),
                             "--out", str(tmp_path)]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")

    def test_fig2_real_roots_name_the_regime(self, tmp_path, capsys):
        # at eta 0.5 the epoch map has real roots: nothing oscillates, and the
        # fit walks omega down to <= 0
        cfg = json.loads((CONFIG_DIR / "fig2a.json").read_text())
        cfg["env"]["eta"] = 0.5
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: a step would take omega to a non-physical")
        assert "real roots 0.960 and 0.521" in err
        assert "gamma = -ln|lambda_max|/dt = 0.510" in err
        assert len(err.splitlines()) == 1

    def test_fig2_complex_roots_name_the_rate(self, tmp_path, capsys):
        # ten samples over omega t 9 pi / 2 all lie on extremes of cos(2 omega t): the
        # fit refuses its start, and the message gives the epoch map's exact rate
        cfg = json.loads((CONFIG_DIR / "fig2a.json").read_text())
        cfg["grid"] = {"t_max": 4.5 * math.pi, "n_points": 10}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "the epoch map has complex roots" in err
        assert "gamma = -ln(eta)/(2 dt) = 0.0628" in err
        assert len(err.splitlines()) == 1

    def test_fit_command_round_trip(self, tmp_path):
        t = np.linspace(0.0, 30.0, 300)
        y = 0.5 * (1.0 - np.exp(-0.05 * t) * np.cos(2.0 * t))
        series = tmp_path / "series.csv"
        series.write_text(
            "t_coord,p\n"
            + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(t, y))
            + "\n"
        )
        fit_cfg = tmp_path / "fit.json"
        fit_cfg.write_text(json.dumps({"series_csv": "series.csv", "omega_hint": 1.0,
                                       "output": {"prefix": "refit"}}))
        assert cli_main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "refit.json").read_text())
        assert summary["gamma"] == pytest.approx(0.05, abs=1e-6)
        assert summary["iterations"] >= 1

    @pytest.mark.parametrize("rows,overrides,key_path", [
        (["0.0,0.5", "1.0"], {}, "series_csv"),
        (["0.0,0.5", "1.0," + "5" * 200_000], {}, "series_csv"),  # over csv's field limit
        (None, {"free_params": "gamma"}, "free_params"),
        (None, {"omega_hint": "abc"}, "omega_hint"),
        (None, {"omega_hint": 0.0}, "omega_hint"),
        (None, {"output": {"prefix": "../escape"}}, "output.prefix"),
    ], ids=["one_column_row", "oversized_cell", "free_params_string", "omega_hint_string",
            "omega_hint_zero", "prefix_escape"])
    def test_fit_bad_input_is_a_config_error(self, tmp_path, capsys, rows, overrides, key_path):
        if rows is None:
            t = np.linspace(0.0, 30.0, 100)
            rows = [f"{x!r},{math.sin(x) ** 2!r}" for x in t]
        (tmp_path / "series.csv").write_text("t_coord,p\n" + "\n".join(rows) + "\n")
        fit_cfg = tmp_path / "sub" / "fit.json"
        fit_cfg.parent.mkdir()
        fit_cfg.write_text(json.dumps({"series_csv": "../series.csv", "omega_hint": 1.0,
                                       **overrides}))
        out = tmp_path / "sub" / "out"
        assert cli_main(["fit", "--config", str(fit_cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key_path}")
        assert "Traceback" not in err
        assert not (tmp_path / "sub" / "escape.json").exists()

    @pytest.mark.parametrize("line,time,prob", [
        (12, "nan", None), (2, "-0.5", None), (50, "0.1", None), (30, None, "inf"),
        (31, None, "-inf"), (77, None, "nan"),
    ], ids=["nan_time", "negative_time", "time_decreases", "inf_prob", "minus_inf_prob",
            "nan_prob"])
    def test_fit_bad_cell_is_a_config_error_at_its_line(self, tmp_path, capsys, line, time,
                                                       prob):
        cells = [[repr(x), repr(math.sin(x) ** 2)] for x in np.linspace(0.0, 30.0, 100).tolist()]
        row = cells[line - 2]  # line 1 is the header
        row[:] = [time or row[0], prob or row[1]]
        (tmp_path / "series.csv").write_text(
            "t_coord,p\n" + "".join(",".join(cell) + "\n" for cell in cells))
        fit_cfg = tmp_path / "fit.json"
        fit_cfg.write_text(json.dumps({"series_csv": "series.csv", "omega_hint": 1.0}))
        assert cli_main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: series_csv: ")
        assert f"series.csv line {line}: " in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["experiment", "fit"])
    def test_config_not_utf8_is_a_config_error(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff\xfe" + json.dumps(fig3_config()).encode("utf-16-le"))
        assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: <config>: not UTF-8 text")

    @pytest.mark.parametrize("command,target", [
        ("experiment", "config"), ("fit", "config"), ("fit", "series_csv")])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_is_a_config_error(self, tmp_path, capsys, command, target, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        cfg_path = path
        if target == "series_csv":
            cfg_path = tmp_path / "fit.json"
            cfg_path.write_text(json.dumps({"series_csv": "input", "omega_hint": 1.0}))
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {'<config>' if target == 'config' else target}: ")
        assert err.endswith(f": {path}\n")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("where,code,err", [
        ("config", 2, "config error: <config>: embedded null byte: "),
        ("series_csv", 2, "config error: series_csv (line 1): expected a path without NUL"),
        ("prefix", 2, "config error: output.prefix (line 1): expected a bare file name"),
        ("out", 1, "i/o error: cannot create output directory "),
    ])
    def test_nul_byte_in_a_path(self, tmp_path, capsys, where, code, err):
        # a user-named path is refused at its key (the --out directory as unwritable),
        # not taken for a numerical failure
        data = fig3_config(output={"prefix": "a\0b" if where == "prefix" else "fig3"})
        if where == "series_csv":
            data = {"series_csv": "a\0b.csv", "omega_hint": 1.0}
        cfg_path = tmp_path / ("a\0b.json" if where == "config" else "cfg.json")
        if where != "config":
            cfg_path.write_text(json.dumps(data))
        out = tmp_path / ("o\0x" if where == "out" else "out")
        command = "fit" if where == "series_csv" else "experiment"
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(err)

    @pytest.mark.parametrize("case,key_path", [
        ("seed", "seed"), ("seed_flag", "seed"), ("max_events", "env.max_events"),
        ("series_csv", "series_csv"), ("config_directory", "series_csv")])
    def test_what_a_summary_cannot_hold_is_a_config_error(self, tmp_path, capsys, case,
                                                          key_path):
        # orjson writes no int of 2^64 or more and no lone surrogate, so each is refused
        # at its key before anything runs; at beta 1 any depth is Born's cheap table
        data, flag, command = json.loads((CONFIG_DIR / "fig2a.json").read_text()), [], "experiment"
        cfg_dir = tmp_path / ("d\udc80" if case == "config_directory" else "c")  # b"d\x80"
        cfg_dir.mkdir()
        if case == "seed":
            data["seed"] = 2**64
        elif case == "seed_flag":
            flag = ["--seed", str(2**64)]
        elif case == "max_events":
            data = fig3_config(env={"dt": 0.7, "beta": 1.0, "max_events": 2**70})
        else:
            command, name = "fit", "\udc80.csv" if case == "series_csv" else "series.csv"
            data = {"series_csv": name, "omega_hint": 1.0}
            (cfg_dir / name).write_text("t_coord,p\n" + "".join(
                f"{x!r},{math.sin(x) ** 2!r}\n" for x in np.linspace(0.0, 30.0, 100).tolist()))
        (cfg_dir / "cfg.json").write_text(json.dumps(data, indent=2))
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(cfg_dir / "cfg.json"), "--out", str(out),
                         *flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key_path}") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("key", ["seed", "max_events"])
    def test_largest_count_is_written(self, tmp_path, key):
        data = fig3_config(env={"dt": 0.7, "beta": 1.0, "max_events": 5}, seed=5)
        (data["env"] if key == "max_events" else data)[key] = 2**64 - 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        summary = strict_json((tmp_path / "fig3.json").read_text())
        assert {summary["seed"], summary["parameters"]["max_events"]} == {5, 2**64 - 1}

    def test_oracle_on_an_empty_grid_does_not_pass(self, tmp_path, capsys):
        # no point is compared, so there is no largest |z| to pass on: the run is
        # refused, and no summary (so no verdict) is written
        data = json.loads((CONFIG_DIR / "oracle_check.json").read_text())
        data["grid"]["n_points"] = 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert cli_main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: grid.n_points (line ")
        assert not (out / "oracle_check.json").exists()

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fig3_config()))
        (tmp_path / "fig3.json").mkdir()
        assert cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o error: cannot write ") and "fig3.json" in err

    def test_series_csv_not_utf8_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "series.csv").write_bytes(b"\xff\xfe" + "t_coord,p\n0.0,0.0\n".encode(
            "utf-16-le"))
        fit_cfg = tmp_path / "fit.json"
        fit_cfg.write_text(json.dumps({"series_csv": "series.csv", "omega_hint": 1.0}))
        assert cli_main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: series_csv: ")
        assert "is not UTF-8 text" in err

    @pytest.mark.parametrize("flag", [["--format", "csv"], ["--seed", "5"]])
    def test_fit_rejects_format_and_seed(self, tmp_path, capsys, flag):
        fit_cfg = tmp_path / "fit.json"
        fit_cfg.write_text(json.dumps({"series_csv": "series.csv", "omega_hint": 1.0}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_simulate_and_fit_outputs_unchanged(self, tmp_path, monkeypatch):
        # SHA-256 digests of the files the CLI wrote for the fig2a preset
        # before `simulate` and `fit` shared `emit_outputs`; the CSV and the
        # refit re-pinned when the predictor moved to powers of the epoch map, and
        # again when the fit block gained `iterations`; the SVG when its points became
        # whole hundredths of a pixel, the dots markers on one polyline
        want = {
            "fig2a.csv": "3ac5584e7793daee85b2fde56e31cb63c8828db493b332c49f270b35caaf641d",
            "fig2a.json": "558d9424cdacaf70c80be49f2d64c14c920ef4cd31249c901110bc237bce54aa",
            "fig2a.svg": "5532196603d835af89681976be96ab2da9c56b9ee66a836f35b0dd68d96e4d73",
            "refit.json": "263dd87ff49de8af7a26b7f5b8bd735b9d2848243ffac45b516b875ca0cfe7e4",
        }
        monkeypatch.chdir(tmp_path)  # relative paths keep series_csv out of the digest
        shutil.copy(CONFIG_DIR / "fig2a.json", "fig2a.json")
        assert cli_main(["simulate", "--config", "fig2a.json", "--out", ".", "--format", "csv",
                         "--format", "json", "--format", "svg"]) == 0
        Path("fit.json").write_text(json.dumps(
            {"series_csv": "fig2a.csv", "omega_hint": 1.0, "output": {"prefix": "refit"}}))
        assert cli_main(["fit", "--config", "fit.json", "--out", "."]) == 0
        got = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in want}
        assert got == want

    # SHA-256 digests of every file `rabideco experiment` writes for each preset;
    # the fig2* CSV/JSON and the oracle_check CSV re-pinned when the
    # distinguishable predictor moved to powers of the epoch map (|dp| <= 2.2e-16)
    # and the fig5 / fig5_master_eq CSV/JSON when the fit stopped at its first step
    # below tolerance (gamma_n within 2.0e-10 relative); the JSON of every preset
    # with a `fit` block (fig2*, fig3, master_eq) when that block gained `iterations`
    # and all three oracle_check files when the oracle split its 1e5 members into two
    # equal blocks of 50000 instead of 65536 + 34464 (max_abs_z 2.675 -> 2.829), and
    # again when its plan moved it onto the per-epoch chain (max_abs_z 2.829 -> 2.352);
    # every SVG when its points became whole hundredths of a pixel in one scaled
    # group, the dots markers on one polyline (each point keeps its '%.2f' hundredth);
    # the fig5_master_eq JSON when summaries took orjson's notation throughout
    # (exponent -9.697979169966796e-05 -> -0.00009697979169966796, the same value);
    # the fig2*, master_eq and fig5_master_eq CSV/JSON when the fit started gamma at
    # the predictor's exact rate (fit.gamma within 5.1e-10 relative, gamma_n within
    # 1.6e-9; fig2a, fig2a_consistent, fig2b, fig2b_consistent and master_eq
    # iterations 9/8/8/6/8 -> 5/5/4/4/5)
    PRESET_DIGESTS = {
        "fig2a": ("067b980f63b6638322d6db018cb962c0d76f153e1ad5657dc36c93415683c97e",
                  "38ae255547fa444b8c4ea903e703c3854e0351beb1cd1a9b09899354bffeef6d",
                  "033a146bd2daa450ab350f456cb4a78967fea76799dfc6cb33b6dfa8007bfc16"),
        "fig2a_consistent": (
            "421403699acef6f74c471b1c6592cb650243c6d705197fe81506419dc9c71fea",
            "28d8d0db390449e9f08766e94fa4cbfdd10b9fc98f70616380d46defef971f43",
            "24eb524af17554df7a5666c2a984c2739ac3c5966b61d3f34482689a136c590f"),
        "fig2b": ("8beb7f7b5e5007a2c4c7fdee89fa03305989acf79068df37e9bf73d36116f9c4",
                  "81c567f447c3b20f28145105ed791db43d28b92c53c26b1732974f607c70fbea",
                  "41a8a1ab08ff288f3852622b72950198c21f6b4b48708df73ecab039580d233e"),
        "fig2b_consistent": (
            "87fa5be06c846f3cd9656d8b7cb36dd6da7966ab339926031af26cfa8237a589",
            "d3d082422861118af01c2c332542af305fd4a28a4d45f46b17162b7e5ae6b735",
            "b92b80701236457c12b0633b57586d9579e00bd56c57de32c5996e03cd113895"),
        "fig3": ("8488b75990db24910362a7a77309b1aa805fd503b9ec7ee8751382795ad78ca6",
                 "a1a723b53256303cfd26336ed9c96a4d2f2a7f062f14dc0f73c4570f3d55ea94",
                 "70d776b106e6c063b67d2a2b92048ef02bbd8b7ee3bf4a594da5ebb54430dcd2"),
        "fig5": ("54250195f25227fcca7122aef7cf05ffc20538ce29886c0fc3d5ebf21ed0c780",
                 "d866ecab241126647b33221802f44c5da4d9cbd2bc61f403b4ed6c7fa9437656",
                 "2bdd64416aa5fcfdde0cc2c285e0eeb8673827a49d2571a873737329f0a0db48"),
        "fig5_master_eq": (
            "da52c9f4d12741ef7d37590968e353d950122cbd05ba8dab57fd74704155d4f5",
            "f74d344771b0c796906f1f9d2895216e1650d69660989f43f24498dc7cfaae73",
            "e180d30a9b6edba2d17976ae2a6de58aa94b1cdf69ed168f366a8748dbac736b"),
        "master_eq": ("d6752f3fee3f2053c1767d0ac6b911159666ea743b6d4753aadc4feac2de1c5a",
                      "c7af416eada59e8b39708a8f2106bf85f622263307990ab6eedd14aa8a1368dc",
                      "35276126507d902da328b245a4091de815871120a52a2aa1b97772b7541aac57"),
        "oracle_check": ("3eff9507427484f8f74893571fe88b84f33117af9b4f57de8982f3e0a7069885",
                         "1e67b2eac5b21e49433b91cb3330d47d9c1b747d6cbb1f6e01a1f933766c690d",
                         "26e449c0078e47b63b291c800e757d24ebae0de43ffebc30d74d8cef214c97ad"),
    }

    @pytest.mark.parametrize("prefix", sorted(PRESET_DIGESTS))
    def test_preset_outputs_unchanged(self, tmp_path, prefix):
        assert cli_main(["experiment", "--config", str(CONFIG_DIR / f"{prefix}.json"),
                         "--out", str(tmp_path), "--format", "csv", "--format", "json",
                         "--format", "svg"]) == 0
        got = tuple(hashlib.sha256((tmp_path / f"{prefix}.{ext}").read_bytes()).hexdigest()
                    for ext in ("csv", "json", "svg"))
        assert got == self.PRESET_DIGESTS[prefix]
        assert sorted(p.name for p in CONFIG_DIR.glob("*.json")) == sorted(
            f"{name}.json" for name in self.PRESET_DIGESTS)

    @pytest.mark.parametrize("preset", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_preset_verdict(self, tmp_path, preset):
        assert cli_main(["experiment", "--config", str(CONFIG_DIR / preset),
                         "--out", str(tmp_path)]) == 0
        for summary_path in tmp_path.glob("*.json"):
            summary = json.loads(summary_path.read_text())
            assert summary.get("pass", True) is True, summary_path.name

    def test_oracle_check_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "OracleCrossCheck",
            "system": {"omega": 1.0},
            "env": {"dt": 0.2, "eta": 0.98},
            "grid": {"t_max": 6.0, "n_points": 13},
            "mc": {"n_systems": 10000},
            "seed": 3,
            "output": {"prefix": "oc"},
        }))
        assert cli_main(["oracle-check", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "oc.json").read_text())
        assert summary["pass"] is True

    def test_oracle_check_requires_matching_kind(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fig3_config()))
        assert cli_main(["oracle-check", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2

    def test_seed_override_changes_oracle(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": "OracleCrossCheck",
            "system": {"omega": 1.0},
            "env": {"dt": 0.2, "eta": 0.9},
            "grid": {"t_max": 6.0, "n_points": 13},
            "mc": {"n_systems": 2000},
            "seed": 3,
            "output": {"prefix": "oc"},
        }))
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a"),
                         "--seed", "1"]) == 0
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
                         "--seed", "2"]) == 0
        assert (tmp_path / "a" / "oc.csv").read_bytes() != (tmp_path / "b" / "oc.csv").read_bytes()


class TestArithmeticCrashes:
    """Inputs whose arithmetic cannot succeed exit 2 or 3 with one stderr line."""

    def run_preset(self, tmp_path, capsys, preset, **overrides):
        data = json.loads((CONFIG_DIR / preset).read_text())
        data.update(overrides)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data, indent=2))
        code = cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)])
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        return code, err_lines[0]

    @pytest.mark.parametrize("gamma_se", [0, 0.0])
    def test_fig5_master_eq_zero_rate_is_a_config_error(self, tmp_path, capsys, gamma_se):
        code, err = self.run_preset(tmp_path, capsys, "fig5_master_eq.json",
                                    master_eq={"gamma_se": gamma_se})
        assert code == 2
        assert err.startswith("config error: master_eq.gamma_se")

    def test_fig5_zero_gamma_0_is_a_numerical_failure(self, tmp_path, capsys):
        # gamma_se = 1e-20 passes the config rule, but level 0 fits gamma = 0
        code, err = self.run_preset(tmp_path, capsys, "fig5_master_eq.json",
                                    master_eq={"gamma_se": 1e-20})
        assert code == 3
        assert "level n=0 fitted gamma 0" in err

    def test_master_eq_omega_beyond_closed_form_is_a_config_error(self, tmp_path, capsys):
        code, err = self.run_preset(tmp_path, capsys, "master_eq.json",
                                    system={"omega": 1e300})
        assert code == 2
        assert err.startswith("config error: system.omega")

    def test_other_arithmetic_errors_map_to_numerical_exit(self, tmp_path, capsys,
                                                           monkeypatch):
        def overflow(cfg):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr("rabideco.cli.run_experiment", overflow)
        code, err = self.run_preset(tmp_path, capsys, "master_eq.json")
        assert code == 3
        assert err.startswith("numerical failure:")


class TestGroundPreparation:
    """Collapses onto energy eigenstates make every decay factor independent of
    the eigenstate the ensemble starts in: a preset run through `cli.main` with
    only `system.initial_state` flipped to ground fits the excited preset's
    gamma, and the master-equation baseline, which models excited preparation
    only, rejects ground at its key."""

    @staticmethod
    def write_flipped(tmp_path, preset, state):
        data = json.loads((CONFIG_DIR / f"{preset}.json").read_text())
        data["system"]["initial_state"] = state
        cfg_path = tmp_path / f"{preset}_{state}.json"
        cfg_path.write_text(json.dumps(data, indent=2))
        return cfg_path, data["output"]["prefix"]

    def summary(self, tmp_path, preset, state, command="experiment"):
        cfg_path, prefix = self.write_flipped(tmp_path, preset, state)
        out = tmp_path / state
        assert cli_main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        return json.loads((out / f"{prefix}.json").read_text())

    @pytest.mark.parametrize("preset", ["fig2a", "fig2b", "fig2a_consistent",
                                        "fig2b_consistent", "fig3"])
    def test_figure_fits_the_excited_gamma(self, tmp_path, preset):
        ground, excited = (self.summary(tmp_path, preset, s) for s in ("ground", "excited"))
        assert ground["parameters"]["initial_state"] == "ground"
        assert ground["fit"]["gamma"] == pytest.approx(excited["fit"]["gamma"],
                                                       rel=1e-12, abs=0.0)
        assert ground["pass"] is excited["pass"] is True

    def test_fig5_fits_every_excited_gamma_n(self, tmp_path):
        ground, excited = (self.summary(tmp_path, "fig5", s) for s in ("ground", "excited"))
        assert len(ground["rows"]) == len(excited["rows"])
        for got, want in zip(ground["rows"], excited["rows"]):
            assert got["gamma_n"] == pytest.approx(want["gamma_n"], rel=1e-12, abs=0.0)
        assert ground["power_law"]["exponent"] == pytest.approx(
            excited["power_law"]["exponent"], rel=1e-12, abs=0.0)
        assert ground["pass"] is excited["pass"] is True

    def test_oracle_check_passes(self, tmp_path):
        summary = self.summary(tmp_path, "oracle_check", "ground", "oracle-check")
        assert summary["parameters"]["initial_state"] == "ground"
        assert summary["pass"] is True

    @pytest.mark.parametrize("preset", ["master_eq", "fig5_master_eq"])
    def test_master_eq_baseline_rejects_ground(self, tmp_path, capsys, preset):
        cfg_path, _ = self.write_flipped(tmp_path, preset, "ground")
        code = cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)])
        err_lines = capsys.readouterr().err.splitlines()
        line = next(i for i, text in enumerate(cfg_path.read_text().splitlines(), start=1)
                    if '"initial_state"' in text)
        assert code == 2
        assert len(err_lines) == 1
        assert err_lines[0].startswith(f"config error: system.initial_state (line {line}): ")
        assert "excited preparation only" in err_lines[0]


def perfbench_configs():
    """Every item config of the benchmark's four workloads at seeds 1 to 5."""
    root = CONFIG_DIR.parent
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [item["config"] for name in workloads.WORKLOADS for seed in range(1, 6)
            for item in workloads.generate(name, seed, root)]


class TestWorkBudget:
    """Sizes the config alone decides are checked before anything is built."""

    @pytest.mark.parametrize("preset,section,key,value", [
        ("fig2a.json", "grid", "t_max", 1e300),
        ("fig2a.json", "env", "dt", 1e-300),
        ("fig2a.json", "grid", "t_max", 8e6),
        ("fig3.json", "env", "dt", 1e-300),
        ("fig3.json", "env", "beta", 1e-300),
        ("fig3.json", "env", "max_events", 10**9),
        ("oracle_check.json", "grid", "t_max", 1e300),
        ("oracle_check.json", "mc", "n_systems", 2**53 + 1),  # past the member limit
        ("oracle_check.json", "grid", "t_max", 4e5),  # 5e9 collapses
        ("master_eq.json", "grid", "n_points", 10**12),
        ("fig5.json", "ladder", "n_max", 10**12),
        ("fig5.json", "fit_window", "omega_t_span", 1e300),
        ("fig5.json", "env", "omega0_dt", 1e-300),
    ])
    def test_over_budget_exits_2_at_its_key(self, tmp_path, capsys, preset, section, key, value):
        data = json.loads((CONFIG_DIR / preset).read_text())
        data[section][key] = value
        err_line = self.exits_2(tmp_path, capsys, data, f"{section}.{key}")
        # Fig2's distinguishable predictor is bounded by its epoch count, the
        # oracle's ensemble by the counts / N that stay exact, instead
        limit = (f"epoch limit of {MAX_EPOCHS:.0e}" if preset == "fig2a.json"
                 else "[1, 2^53]" if key == "n_systems" else "work budget")
        assert limit in err_line

    @staticmethod
    def exits_2(tmp_path, capsys, data, key_path):
        """The one stderr line of a config that exits 2 at `key_path` within 1 s."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data, indent=2))
        start = time.perf_counter()
        code = cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        err_lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err_lines) == 1
        assert err_lines[0].startswith(f"config error: {key_path} (line ")
        assert elapsed < 1.0
        return err_lines[0]

    def test_deep_nested_sum_exits_2(self, tmp_path, capsys):
        # 2^16 exponential-sum terms by 131731 columns: 8.6e9 terms, minutes of work
        data = json.loads((CONFIG_DIR / "fig3.json").read_text())
        data["env"]["max_events"] = 16
        data["grid"]["t_max"] = 91750
        assert "work budget" in self.exits_2(tmp_path, capsys, data, "grid.t_max")

    @pytest.mark.parametrize("levels,t_max,key_path", [
        (2000, 3480, "grid.t_max"),  # 2000 products at 4998 columns: 20-40 s
        (30000, 696.5, "env.max_events"),  # 30000 products at 1002 columns: about 10 s
    ])
    def test_deep_matrix_form_exits_2(self, tmp_path, capsys, levels, t_max, key_path):
        data = json.loads((CONFIG_DIR / "fig3.json").read_text())
        data["env"]["max_events"] = levels
        data["grid"]["t_max"] = t_max
        assert "work budget" in self.exits_2(tmp_path, capsys, data, key_path)

    @pytest.mark.parametrize("n_max", [2999, 8000])
    def test_long_rows_form_admitted(self, n_max):
        # 12 levels at 3000 columns, built in about 0.07 s, and at 8001, about 0.3 s: the
        # (n_max + 1)^2 matrix these took before held 1.3e8 words at 8001 columns
        data = json.loads((CONFIG_DIR / "fig3.json").read_text())
        data["env"]["max_events"] = 12
        data["grid"]["t_max"] = n_max * 0.995 * 0.7
        cfg = config_from_dict(data)
        assert table_plan(12, cfg.env.beta, n_max)[0] == "rows"

    @settings(max_examples=100, deadline=None)
    @given(levels=st.integers(2, 9), beta=st.sampled_from([0.3, 0.9, 0.995]),
           dt=st.floats(0.1, 1.0), offset=st.floats(-3.0, 3.0),
           ladder=st.one_of(st.none(), st.tuples(st.integers(1, 4), st.integers(0, 4))))
    def test_run_builds_the_priced_table(self, levels, beta, dt, offset, ladder):
        # the check prices each table's path and columns; the run builds them. Fig3's
        # table, or (ladder) Fig5's, with one level's table within 3 columns of the
        # sum's first, 2^(levels + 1)
        t_end = (2.0 ** (levels + 1) - 2.0 + offset) * beta * dt
        env = {"dt": dt, "beta": beta, "max_events": levels}
        if ladder is None:
            data = fig3_config(env=env, grid={"t_max": t_end, "n_points": 20})
            data["system"]["omega"] = 4.0 * math.pi / t_end  # two periods to fit
        else:
            n_max, level = ladder[0], min(ladder)
            ratio = rabi_frequency_ladder(1.0, n_max).omega_n(level)
            omega = 4.0 * math.pi / (t_end * ratio)  # level's span: omega_level t_end
            data = small_fig5_config(system={"omega": omega}, env=env, ladder={"n_max": n_max},
                                     fit_window={"omega_t_span": omega * ratio * t_end,
                                                 "n_points": 20})
        priced, built = [], []

        def pricing(levels, beta, n_max):
            path = table_plan(levels, beta, n_max)
            priced.append((path[0], n_max + 1))
            return path

        def spy(path):
            def build(row, *args):
                built.append((path, len(row)))
                return np.full(len(row), 0.5)
            return build

        def table_only(level):  # a Fig5 level's table, and a gamma for the ratios
            predictor_series(level)
            return SimpleNamespace(fit=SimpleNamespace(gamma=1.0))

        with mock.patch.object(experiments, "table_plan", pricing):
            cfg = config_from_dict(data)
        with mock.patch.object(indistinguishable, "_exponential_sum", spy("sum")), \
                mock.patch.object(indistinguishable, "_rows_form", spy("rows")), \
                mock.patch.object(experiments, "run_figure_experiment", table_only):
            if ladder is None:
                predictor_series(cfg)
            else:
                run_gamma_ratio_experiment(cfg)
        assert built == priced

    @pytest.mark.parametrize("preset,changes,key_path", [
        # 41 levels, 31 of them deep tables: priced at the slowest level's 8.2e7 alone
        # they ran for 39 s
        ("fig5.json", {"ladder": {"n_max": 40}, "env": {"max_events": 12},
                       "fit_window": {"omega_t_span": 4000, "n_points": 3000}},
         "fit_window.omega_t_span"),
        # 2.2e8 collapses at 220 a point, the price of a fit run to its 200-iteration cap;
        # undamped, this one stops after 1 iteration and the run takes about 2 s
        ("fig2a.json", {"env": {"eta": 1.0}, "grid": {"n_points": 10**6}}, "grid.n_points"),
    ])
    def test_every_table_and_fit_priced_exits_2(self, tmp_path, capsys, preset, changes,
                                                key_path):
        data = json.loads((CONFIG_DIR / preset).read_text())
        for section, keys in changes.items():
            data[section].update(keys)
        assert "work budget" in self.exits_2(tmp_path, capsys, data, key_path)

    @pytest.mark.parametrize("preset,changes", [
        # 2e8 comparisons of a member with its next collapse, about 1 ns each: 0.3 s
        ("oracle_check.json", {"env": {"eta": 1.0}, "mc": {"n_systems": 65536},
                               "grid": {"n_points": 3000}}),
        # ceil(t / (beta dt)) + 2 = 2^13 columns, so the sum of 2^12 terms: 0.9 s
        ("fig3.json", {"env": {"max_events": 12},
                       "grid": {"t_max": 8189.5 * 0.995 * 0.7, "n_points": 3000}}),
        # t_max / dt is 374.9999999996, but the run counts 375 epochs: 1352 collapses per
        # epoch among 1.1e15 members, which the chain steps over 376 keys a step
        ("oracle_check.json", {"env": {"dt": 0.08000000000008533, "eta": 1.0 - 1352.0 / 2**50},
                               "mc": {"n_systems": 2**50}}),
    ])
    def test_cheap_runs_exit_0(self, tmp_path, preset, changes):
        data = json.loads((CONFIG_DIR / preset).read_text())
        for section, keys in changes.items():
            data[section].update(keys)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0

    def test_billion_member_dense_oracle_exits_0(self, tmp_path):
        # at eta 0.5 the chain steps 35 keys per epoch, whatever the ensemble size
        data = json.loads((CONFIG_DIR / "oracle_check.json").read_text())
        data["env"]["eta"] = 0.5
        data["mc"]["n_systems"] = 10**9
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        start = time.perf_counter()
        code = cli_main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("changes,key_path", [
        ({"env": {"eta": 1.0}, "mc": {"n_systems": 2 * 10**7}, "grid": {"n_points": 10**5}},
         "grid.n_points"),
        ({"env": {"dt": 30.0}, "mc": {"n_systems": 9 * 10**7}, "grid": {"n_points": 2 * 10**6}},
         "grid.n_points"),
        # one member, one epoch: every grid time's fixed numpy calls, 8.7 s and over 30 s
        ({"env": {"dt": 30.0}, "mc": {"n_systems": 1}, "grid": {"n_points": 2 * 10**5}},
         "grid.n_points"),
        ({"env": {"dt": 30.0}, "mc": {"n_systems": 1}, "grid": {"n_points": 2 * 10**6}},
         "grid.n_points"),
        ({"env": {"dt": 3e-5}, "mc": {"n_systems": 10}, "grid": {"n_points": 20_000}}, "env.dt"),
        ({"env": {"dt": 3e-5}, "mc": {"n_systems": 10}, "grid": {"n_points": 2000}}, "env.dt"),
        # one member collapsing at each of 1e6 epochs: a round of the collapse loop
        # each, 15 us apiece
        ({"env": {"dt": 3e-5, "eta": 0.0}, "mc": {"n_systems": 1}, "grid": {"n_points": 2}},
         "env.dt"),
    ])
    def test_long_oracle_scan_exits_2(self, tmp_path, capsys, changes, key_path):
        # few draws, but every grid time measures the chain's occupancy, the chain
        # steps 1e6 epochs, or every grid time scans each key that 1e6 epochs can
        # reach: 1e5 and 2e6 measurements, 1e6 steps of 460 keys and 4e9 keys; 4 s, a
        # minute, over a minute and 8 s of work; or a lone member's 1e6 rounds of
        # collapses, 13 s
        data = json.loads((CONFIG_DIR / "oracle_check.json").read_text())
        for section, keys in changes.items():
            data[section].update(keys)
        assert "work budget" in self.exits_2(tmp_path, capsys, data, key_path)

    def test_single_point_grid_builds_no_epochs(self, tmp_path, capsys):
        # one grid point sits at t = 0, so t_max would size no epochs: the grid is
        # refused at its point count, not priced by the work budget
        data = json.loads((CONFIG_DIR / "oracle_check.json").read_text())
        data["grid"] = {"t_max": 1e300, "n_points": 1}
        assert "work budget" not in self.exits_2(tmp_path, capsys, data, "grid.n_points")

    @pytest.mark.parametrize("command", ["experiment", "simulate", "oracle-check"])
    def test_empty_oracle_grid_draws_nothing(self, tmp_path, capsys, monkeypatch, command):
        # an empty grid would charge no draws, so the budget would pass any n_systems;
        # each command refuses it at the config check, before its first block
        def no_draws(seed, block):
            raise AssertionError(f"drew block {block} for an empty grid")

        monkeypatch.setattr("rabideco.montecarlo._block_rng", no_draws)
        data = json.loads((CONFIG_DIR / "oracle_check.json").read_text())
        data["grid"]["n_points"] = 0
        data["mc"]["n_systems"] = 10**15
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: grid.n_points (line ")
        assert not (tmp_path / "oracle_check.csv").exists()

    def test_presets_and_benchmark_items_far_below(self, monkeypatch):
        monkeypatch.setattr("rabideco.experiments.WORK_BUDGET", WORK_BUDGET / 5.0)
        configs = [json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))]
        for data in configs + perfbench_configs():
            config_from_dict(data)


def work_estimate(data: dict) -> float | None:
    """The check's estimate of `data`'s work in member collapses, or None if it rejects it:
    the largest sum it checks, which for Fig5 is the one over every level's table."""
    sums, check = [], experiments._within_budget

    def spy(sizes, raw):
        sums.append(sum(size[1] for size in sizes))
        check(sizes, raw)

    with mock.patch.object(experiments, "_within_budget", spy):
        try:
            config_from_dict(data)
        except ConfigError:
            return None
    return max(sums)


def with_value(data: dict, key_path: str, value) -> dict:
    section, key = key_path.split(".")
    return {**data, section: {**data[section], key: value}}


def near_edge(data: dict, key_path: str, lo: float, hi: float, fraction: float,
              integer: bool) -> dict | None:
    """`data` with `key_path` at `fraction` of the largest value in [lo, hi] (bisected on a
    log scale) that the check admits; None when it admits none."""
    cast, least = (round if integer else float), lo
    if work_estimate(with_value(data, key_path, cast(lo))) is None:
        return None
    for _ in range(30):
        mid = math.sqrt(lo * hi)
        if work_estimate(with_value(data, key_path, cast(mid))) is None:
            hi = mid
        else:
            lo = mid
    return with_value(data, key_path, cast(max(lo * fraction, least)))


def preset(name: str, **sections) -> dict:
    data = json.loads((CONFIG_DIR / name).read_text())
    for section, keys in sections.items():
        data[section] = {**data.get(section, {}), **keys}
    return data


@st.composite
def runs_near_the_edge(draw, kind):
    """A config of `kind` whose one size key puts its work estimate at 30-100% of the
    budget's edge, or None when no value of that key passes the check."""
    unit = st.floats(0.0, 1.0)
    if kind == "fig2":
        # undamped, the fit takes all its iterations
        data = preset("fig2a.json", env={"eta": draw(st.sampled_from([1.0, 0.99, 0.9]))})
        key, lo, hi, integer = "grid.n_points", 10, 1e8, True
    elif kind == "master_eq":
        data, key, lo, hi, integer = preset("master_eq.json"), "grid.n_points", 10, 1e8, True
    elif kind in ("fig3_sum", "fig3_rows"):
        levels = draw(st.integers(4, 10) if kind == "fig3_sum" else st.integers(10, 300))
        beta, dt = draw(st.floats(0.9, 0.999)), draw(st.floats(0.3, 1.0))
        data = preset("fig3.json", env={"max_events": levels, "beta": beta, "dt": dt})
        edge = (2.0 ** (levels + 1) - 2.0) * beta * dt  # the sum's first t_max
        key, integer = "grid.t_max", False
        lo, hi = (edge, 1e9) if kind == "fig3_sum" else (10.0, min(edge - 3.0 * beta * dt, 1e9))
    elif kind == "fig5":
        points = draw(st.integers(100, 400))
        data = preset("fig5.json", ladder={"n_max": draw(st.integers(8, 40))},
                      env={"max_events": draw(st.integers(3, 10))},
                      fit_window={"n_points": points})
        # from two periods to six points a period of every level's fit
        key, lo, hi, integer = "fit_window.omega_t_span", 13.0, points * math.pi / 6.0, False
    elif kind == "fig5_band":  # the slowest level's table just takes the sum, the faster
        # ones the rows form: a ladder of 35-41 levels that takes about ten times the work
        # of its slowest level, over the budget once every level is priced
        omega0_dt, cols = draw(st.floats(0.008, 0.012)), 2.0**11 - 2.0 + draw(unit)
        return preset("fig5.json", ladder={"n_max": draw(st.integers(34, 40))},
                      env={"max_events": 10, "omega0_dt": omega0_dt},
                      fit_window={"omega_t_span": cols * 0.995 * omega0_dt,
                                  "n_points": draw(st.integers(60, 100))})
    else:  # the oracle: few members over many epochs, the many keys those epochs reach
        # scanned at each grid time, or the chain
        n, eta, points, t_max = {
            "oracle_members": (st.integers(1, 300), st.floats(0.0, 0.999), st.integers(2, 60),
                               st.just(30.0)),
            "oracle_scans": (st.integers(10**2, 10**4), st.just(1.0), st.integers(2, 10),
                             st.floats(3e4, 1e5)),
            "oracle_chain": (st.integers(10**6, 10**12), st.floats(0.3, 0.7),
                             st.integers(2, 121), st.just(30.0)),
        }[kind]
        data = preset("oracle_check.json", env={"eta": draw(eta), "dt": 1.0},
                      mc={"n_systems": draw(n)},
                      grid={"n_points": draw(points), "t_max": draw(t_max)})
        key, lo, hi, integer = (("grid.n_points", 2, 1e9, True) if kind == "oracle_scans"
                                else ("grid.t_max", 1.0, 1e7, False))  # t_max epochs
    return near_edge(data, key, lo, hi, 0.3 + 0.7 * draw(unit), integer)


# The work unit and what a run may take beyond its estimate: a member collapse at the slow
# end of 30-60 ns on a 2-core VM, a stated multiple of that, and the CLI's own parsing and
# writing.
COLLAPSE_S, SLACK, FLOOR_S = 60e-9, 3.0, 0.2


def slowdown() -> float:
    """How many times slower this machine runs now than the 2-core VM COLLAPSE_S was
    measured on, at least 1: the best of three runs of the benchmark's calibration kernel
    over its time there, `REFERENCE_S`."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_calibrate", CONFIG_DIR.parent / "perfbench" / "calibrate.py")
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        calibrate.kernel()
        times.append(time.perf_counter() - start)
    return max(1.0, min(times) / calibrate.REFERENCE_S)


def oracle_on_chain(data: dict) -> bool:
    """Whether `run_work` plans `data`'s oracle run on the chain."""
    grid = data["grid"]
    return run_work(data["mc"]["n_systems"], data["env"]["eta"],
                    grid["t_max"] / data["env"]["dt"], grid["n_points"])[0]


class TestWorkEstimate:
    """The work budget holds its word: every config it admits runs through the CLI within
    SLACK times its estimate at COLLAPSE_S per collapse, plus FLOOR_S; on a machine slower
    now than the 2-core VM, at COLLAPSE_S times its `slowdown`."""

    @pytest.mark.parametrize("kind", ["fig2", "master_eq", "fig3_sum", "fig3_rows", "fig5",
                                      "fig5_band", "oracle_members", "oracle_scans",
                                      "oracle_chain"])
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_admitted_runs_take_their_estimate(self, kind, data):
        with mock.patch.object(experiments, "WORK_BUDGET", 3e6):  # about 0.18 s
            config = data.draw(runs_near_the_edge(kind))
            estimate = None if config is None else work_estimate(config)
            if estimate is None:
                return
            if kind.startswith("oracle_"):  # the run takes the path its kind is named for
                assert oracle_on_chain(config) is (kind == "oracle_chain")
            bound = SLACK * estimate * COLLAPSE_S + FLOOR_S
            with tempfile.TemporaryDirectory() as out:
                cfg_path = Path(out) / "cfg.json"
                cfg_path.write_text(json.dumps(config))
                for _ in range(2):  # a second try, should the first meet a busy machine
                    start = time.perf_counter()
                    code = cli_main(["experiment", "--config", str(cfg_path), "--out", out])
                    elapsed = time.perf_counter() - start
                    if elapsed > bound:  # timed only when needed: the factor is at least 1
                        bound = SLACK * estimate * COLLAPSE_S * slowdown() + FLOOR_S
                    if elapsed <= bound:
                        break
        assert code in (0, 3)  # 3: a fit of too few points per period can fail, quickly
        assert elapsed <= bound
