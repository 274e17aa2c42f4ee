"""Config fuzzer: one mutation of a shipped preset, or raw bytes, run through
`cli.main`.

Whatever the mutation, and in either initial state, the CLI exits 0, 2 or 3
with at most one stderr line, an exit-2 line names the key path first, and no
exception escapes `main`.
The Monte Carlo preset runs with a small ensemble, and every size a mutation
can set is either the preset's own or far over the work budget, so each run
takes milliseconds."""
import contextlib
import copy
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rabideco.cli import main as cli_main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
PRESETS = {path.name: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}
N_SYSTEMS_CAP = 2000

VALUES = ["x", True, False, None, [1.0], math.nan, math.inf, -math.inf, 0, -1, -2.5,
          1e300, 10**30]
SECTION_VALUES = ["x", 1.0, [], None, True]
KEY_PATH_LINE = re.compile(r"config error: [A-Za-z_]\w*(\.[A-Za-z_]\w*)*( \(line \d+\))?: ")


def key_paths(data, prefix=()):
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def mutated_presets(draw):
    """(preset name, description, mutated config), prepared in either state."""
    name = draw(st.sampled_from(sorted(PRESETS)))
    data = copy.deepcopy(PRESETS[name])
    state = data["system"]["initial_state"] = draw(st.sampled_from(["excited", "ground"]))
    if "mc" in data:
        data["mc"]["n_systems"] = min(data["mc"]["n_systems"], N_SYSTEMS_CAP)
    paths = list(key_paths(data))
    sections = [()] + [path for path in paths if isinstance(at(data, path), dict)]
    how = draw(st.sampled_from(["drop", "replace", "unknown key", "section type"]))
    path = draw(st.sampled_from(sections[1:] if how == "section type" else
                                sections if how == "unknown key" else paths))
    if how == "unknown key":
        at(data, path)["unexpected"] = 1
    elif how == "drop":
        del at(data, path[:-1])[path[-1]]
    else:
        value = draw(st.sampled_from(SECTION_VALUES if how == "section type" else VALUES))
        at(data, path[:-1])[path[-1]] = value
    return name, f"{state}: {how} {'.'.join(path) or '<top>'}", data


def run_cli(data):
    """Exit code, stderr lines and the warnings raised (each one a stderr line
    outside pytest, which captures them) of one `experiment` run; `data` is a
    config object, or the raw bytes of the config file."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir:
        cfg_path = Path(out_dir) / "cfg.json"
        cfg_path.write_bytes(data if isinstance(data, bytes) else
                             json.dumps(data, indent=2).encode())
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["experiment", "--config", str(cfg_path), "--out", out_dir])
    return code, err.getvalue().splitlines(), [str(w.message) for w in caught]


class TestConfigFuzz:
    @settings(max_examples=1500, deadline=None)
    @given(case=mutated_presets())
    def test_mutated_preset_exits_cleanly(self, case):
        name, mutation, data = case
        code, lines, caught = run_cli(data)
        assert code in (0, 2, 3), (name, mutation, code)
        assert len(lines) == (0 if code == 0 else 1), (name, mutation, lines)
        assert not caught, (name, mutation, caught)
        if code == 2:
            assert KEY_PATH_LINE.match(lines[0]), (name, mutation, lines[0])


class TestRawBytes:
    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary(max_size=200))
    @example(raw=b"\xff\xfe" + json.dumps(PRESETS["fig3.json"]).encode("utf-16-le"))
    @example(raw=json.dumps(PRESETS["fig3.json"]).encode()[:-1] + b"\x80}")
    def test_raw_bytes_exit_2(self, raw):
        code, lines, caught = run_cli(raw)
        assert (code, len(lines), caught) == (2, 1, []), (raw, lines)
        assert lines[0].startswith("config error: "), (raw, lines)


class TestFoundByFuzzer:
    @pytest.mark.parametrize("section,key,value", [
        ("system", "omega", 1e300),  # the closed form squares omega_n
        ("master_eq", "gamma_se", 1e300),  # gamma_se >= 8 omega_n at every level
        ("master_eq", "gamma_se", 1.6),  # 8 omega_0 = 1.58: only the slowest level fails
    ])
    def test_fig5_master_eq_exits_2_at_its_key(self, section, key, value):
        data = copy.deepcopy(PRESETS["fig5_master_eq.json"])
        data[section][key] = value
        code, lines, _ = run_cli(data)
        assert code == 2
        assert lines[0].startswith(f"config error: {section}.{key} (line ")

    def test_overflowing_fit_window_is_one_line(self):
        # 300 points over omega t <= 1e300: J^T J overflows and the fit fails
        data = copy.deepcopy(PRESETS["fig5_master_eq.json"])
        data["fit_window"]["omega_t_span"] = 1e300
        code, lines, caught = run_cli(data)
        assert (code, len(lines), caught) == (3, 1, [])
        assert lines[0].startswith("numerical failure: ")
