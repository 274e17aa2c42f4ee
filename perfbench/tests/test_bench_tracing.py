import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import tracing
from tracing import Span

MAIN, POOL = 1, 2


def test_self_time_subtracts_the_union_of_same_thread_children():
    spans = [
        Span(1, "outer", 0.0, 10.0, None, MAIN, "a"),
        Span(2, "child", 1.0, 3.0, 1, MAIN, "a"),
        Span(3, "child", 2.0, 5.0, 1, MAIN, "a"),  # overlaps span 2: union is [1, 5]
        Span(4, "pool", 0.5, 9.5, 1, POOL, "a"),  # other thread: not subtracted
        Span(5, "leaf", 1.0, 2.5, 4, POOL, "a"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(6.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(9.0 - 1.5)
    assert selfs[5] == pytest.approx(1.5)


def test_summary_accounts_for_the_wall_time():
    spans = [
        Span(1, "outer", 1.0, 4.0, None, MAIN, "a"),
        Span(2, "inner", 2.0, 3.0, 1, MAIN, "a"),
        Span(3, "pool", 1.5, 3.5, 1, POOL, "a"),
        Span(4, "outer", 5.0, 6.0, None, MAIN, "b"),
    ]
    out = tracing.summarize(spans, {}, ["outer", "inner", "pool", "idle"],
                            wall_s=7.0, main_thread=MAIN)
    assert out["outer.calls"] == 2
    assert out["outer.busy_s"] == pytest.approx(4.0)
    assert out["outer.self_s"] == pytest.approx(3.0)
    assert out["pool.busy_s"] == pytest.approx(2.0)
    assert out["trace.self_sum_s"] == pytest.approx(4.0)
    assert out["trace.remainder_s"] == pytest.approx(3.0)
    assert out["trace.self_sum_s"] + out["trace.remainder_s"] == pytest.approx(7.0)
    assert out["idle.calls"] == 0  # wrapped, never called


def test_summary_leaves_out_names_that_were_not_wrapped():
    out = tracing.summarize([Span(1, "outer", 0.0, 1.0, None, MAIN, "a")],
                            dict.fromkeys(tracing.COUNTERS, 0.0), ["outer"],
                            wall_s=1.0, main_thread=MAIN)
    assert "cli.main.calls" not in out
    assert "montecarlo.simulate_distinguishable.member_events_per_s" not in out
    assert out["montecarlo.collapse_ratio"] == 0.0


def test_pool_thread_spans_attach_to_the_main_span_without_eating_its_self_time():
    recorder = tracing.Recorder()
    recorder.item = "item-0"
    leaf = recorder.wrap("leaf", lambda x: time.sleep(0.01) or x)

    def level(x):
        return leaf(x)

    traced_level = recorder.wrap("level", level)

    def run_all():
        with ThreadPoolExecutor(max_workers=4) as pool:
            return list(pool.map(traced_level, range(8)))

    assert recorder.wrap("run", run_all)() == list(range(8))
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s.name, []).append(s)
    (run,) = by_name["run"]
    assert run.thread == threading.get_ident() and run.parent is None
    assert all(s.parent == run.id and s.thread != run.thread for s in by_name["level"])
    level_ids = {s.id for s in by_name["level"]}
    assert all(s.parent in level_ids for s in by_name["leaf"])
    assert {s.item for s in recorder.spans} == {"item-0"}
    selfs = tracing.self_times(recorder.spans)
    assert selfs[run.id] == pytest.approx(run.end - run.start)
    assert all(selfs[s.id] < s.end - s.start for s in by_name["level"])


def test_counters_from_pool_threads_lose_no_update():
    recorder = tracing.Recorder()

    def count(counts, args, result):
        counts["n"] = counts.get("n", 0) + args["k"]

    work = recorder.wrap("work", lambda k: k, count)
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(work, [1] * 2000))
    assert recorder.counts["n"] == 2000


def _fake_program():
    """Module stand-ins holding every traced target, each returning 0."""
    modules = {mod: types.SimpleNamespace() for mod, _, _, _ in tracing.TARGETS}
    for mod, attr, _, _ in tracing.TARGETS:
        setattr(modules[mod], attr, lambda *args, **kwargs: 0)
    return modules


def test_install_wraps_every_target_and_uninstall_restores_them():
    modules = _fake_program()
    cli = modules["rabideco.cli"]
    main = cli.main
    recorder = tracing.Recorder()
    saved = tracing.install(recorder, modules)
    assert len(saved) == len(tracing.TARGETS)
    assert recorder.names == [name for _, _, name, _ in tracing.TARGETS]
    assert cli.main([]) == 0
    assert [s.name for s in recorder.spans] == ["cli.main"]
    tracing.uninstall(saved)
    assert cli.main is main


def test_install_refuses_a_program_without_a_target():
    modules = _fake_program()
    original = modules["rabideco.cli"].main
    del modules["rabideco.experiments"].build_nested_table
    with pytest.raises(LookupError, match="build_nested_table"):
        tracing.install(tracing.Recorder(), modules)
    assert modules["rabideco.cli"].main is original  # nothing was wrapped


def test_a_failing_counter_is_logged_and_does_not_reach_the_caller():
    recorder = tracing.Recorder()

    def build(n):  # the counter reads `n_max`, as if the parameter was renamed
        return n

    traced = recorder.wrap("distinguishable.build_predictor", build,
                           tracing._count_predictor)
    assert traced(5) == 5
    assert len(recorder.spans) == 1
    assert recorder.errors and "n_max" in recorder.errors[0]
