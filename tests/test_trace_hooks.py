"""The benchmark's trace hooks still find, and count, the program's calls.

perfbench/tracing.py wraps each traced function under the name its caller
looks it up by (a global of `rabideco.cli`, `rabideco.experiments` or
`rabideco.indistinguishable`), and its counters bind the call's arguments
by parameter name. A refactor that moves a call out of those globals leaves
that span's per-layer metrics at 0 without any error. Here presets run in
process through `cli.main` under the real `Recorder` and `install`.
"""
import json
import sys
from pathlib import Path

import pytest

import rabideco.cli
import rabideco.experiments
import rabideco.indistinguishable

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import tracing  # noqa: E402  (perfbench is not a package)

MODULES = {m.__name__: m for m in (rabideco.cli, rabideco.experiments,
                                   rabideco.indistinguishable)}

CLI = {"cli.main", "experiments.load_config", "experiments.run_experiment",
       "experiments.emit_outputs"}
FIT = {"fitting.fit_damped_sinusoid"}
NESTED = {"indistinguishable.build_nested_table", "indistinguishable.sample_rescaled_series"}
RECURSION = {"distinguishable.build_predictor", "distinguishable.sample_series"}

# preset, changes to it, and the spans it must hit
ITEMS = {
    "fig2a": ("fig2a", {}, CLI | FIT | RECURSION),
    "fig3": ("fig3", {}, CLI | FIT | NESTED),
    # ten events on a 74-column table take the rows form, one Pascal step per column
    "fig3_deep": ("fig3", {"env": {"dt": 0.7, "beta": 0.995, "max_events": 10}},
                  CLI | FIT | NESTED | {"core.binomial_weights_row"}),
    "fig5": ("fig5", {}, CLI | FIT | NESTED),
    "master_eq": ("master_eq", {}, CLI | FIT | {"fitting.master_eq_series"}),
    "oracle_check": ("oracle_check", {"mc": {"n_systems": 2000}},
                     CLI | RECURSION | {"montecarlo.simulate_distinguishable"}),
}


def test_every_target_resolves_and_some_item_hits_it():
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(MODULES[module], attr, None)), f"{module}.{attr}"
    assert set().union(*(spans for _, _, spans in ITEMS.values())) == {
        name for _, _, name, _ in tracing.TARGETS}


@pytest.mark.parametrize("item", sorted(ITEMS))
def test_preset_hits_its_spans_and_counters(tmp_path, item):
    preset, changes, want = ITEMS[item]
    cfg = json.loads((ROOT / "configs" / f"{preset}.json").read_text())
    cfg.update(changes)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    recorder = tracing.Recorder()
    recorder.item = item
    saved = tracing.install(recorder, MODULES)
    try:
        code = rabideco.cli.main(["experiment", "--config", str(cfg_path), "--out",
                                  str(tmp_path / "out"), "--format", "csv", "--format",
                                  "json", "--format", "svg"])
    finally:
        tracing.uninstall(saved)
    assert code == 0
    assert recorder.errors == []
    calls = {name: 0 for name in recorder.names}
    for span in recorder.spans:
        calls[span.name] += 1
    assert {name for name in want if calls[name] == 0} == set()
    assert recorder.counts["experiments.emit_outputs.bytes"] > 0
