import pytest

import workloads
from conftest import ROOT

SIZES = {"dist_long": 104, "nested_mix": 100, "mc_sparse": 2, "mc_dense": 2}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_items_depend_only_on_the_seed(name):
    first = workloads.generate(name, 7, ROOT)
    assert first == workloads.generate(name, 7, ROOT)
    assert first != workloads.generate(name, 8, ROOT)
    assert len(first) == SIZES[name] == workloads.PROVENANCE[name]["items"]
    assert len({item["id"] for item in first}) == len(first)
    assert all(item["config"]["output"]["prefix"] == item["id"] for item in first)


def test_dist_long_work_is_the_same_for_every_seed():
    def total_epochs(seed):
        items = workloads.generate("dist_long", seed, ROOT)
        return sum(i["config"]["grid"]["t_max"] / i["config"]["env"]["dt"] for i in items)

    totals = [total_epochs(seed) for seed in range(5)]
    assert max(totals) / min(totals) < 1.01


def test_write_configs_gives_cli_argv(tmp_path):
    items = workloads.generate("mc_dense", 1, ROOT)
    argvs = workloads.write_configs(items, tmp_path / "configs", tmp_path / "out")
    assert argvs[0][:2] == ["experiment", "--config"]
    assert (tmp_path / "configs" / f"{items[0]['id']}.json").exists()
    assert argvs[0].count("--format") == len(workloads.FORMATS)
