"""Every benchmark workload item's outputs, byte for byte.

`perfbench/workloads.py` (imported read-only) generates the four workloads'
items at seed 3; each runs through `cli.main` in this process, as the
benchmark's worker runs it. One SHA-256 per item, over its CSV, JSON and SVG
in that order (the worker's own digest), is compared with the manifest
`workload_manifest.json` beside this file. A change that moves outputs on
purpose re-pins the manifest: run this file as a script to rewrite it.
"""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from rabideco.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("workload_manifest.json")
SEED = 3


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def item_digests(tmp: Path) -> dict:
    """{"<workload>/<item id>": sha256 of the item's CSV, JSON and SVG} at `SEED`."""
    workloads, digests = _workloads(), {}
    for name in workloads.WORKLOADS:
        items = workloads.generate(name, SEED, ROOT)
        out = tmp / name / "out"
        for item, argv in zip(items, workloads.write_configs(items, tmp / name / "configs", out)):
            assert cli_main(argv) == 0, item["id"]
            h = hashlib.sha256()
            for fmt in workloads.FORMATS:
                h.update((out / f"{item['id']}.{fmt}").read_bytes())
            digests[f"{name}/{item['id']}"] = h.hexdigest()
    return digests


def test_workload_outputs_unchanged(tmp_path, capsys):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = item_digests(tmp_path)
    capsys.readouterr()  # the paths cli.main printed
    assert sorted(got) == sorted(want), "the workloads' items changed"
    moved = [item for item in sorted(want) if got[item] != want[item]]
    assert not moved, f"outputs moved for {len(moved)} items: {moved}"


if __name__ == "__main__":  # PYTHONPATH=src python tests/test_workload_manifest.py
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        digests = item_digests(Path(tmp))
    MANIFEST.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} items pinned in {MANIFEST.name}", file=sys.stderr)
