"""Self-tests of the benchmark harness: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and b [5, 9]
    t.enter("outer")
    clock.now = 1.0
    t.enter("a")
    clock.now = 2.0
    t.enter("b")
    clock.now = 3.0
    t.exit()
    clock.now = 4.0
    t.exit()
    clock.now = 5.0
    t.enter("b")
    clock.now = 9.0
    t.exit()
    clock.now = 10.0
    t.exit()
    assert t.total_s == {"outer": 10.0, "a": 3.0, "b": 5.0}
    assert t.self_s == {"outer": 3.0, "a": 2.0, "b": 5.0}
    assert t.calls == {"outer": 1, "a": 1, "b": 2}
    by_id = {s[0]: s for s in t.spans}
    parents = {s[1]: by_id[s[4]][1] if s[4] else None for s in t.spans}
    assert parents == {"outer": None, "a": "outer", "b": "outer"}
    assert sum(t.self_s.values()) == t.total_s["outer"]


def test_recursive_span_counts_total_once():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    t.enter("f")
    clock.now = 1.0
    t.enter("f")
    clock.now = 3.0
    t.exit()
    clock.now = 4.0
    t.exit()
    assert t.total_s["f"] == 4.0
    assert t.self_s["f"] == 4.0
    assert t.calls["f"] == 2


def test_time_spent_counting_stays_out_of_spans():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    t.enter("outer")

    def slow_count() -> int:
        clock.now += 5.0
        return 7

    t.count_outside_spans("x.candidates", slow_count)
    clock.now += 1.0
    t.exit()
    assert t.counts["x.candidates"] == 7
    assert t.self_s["outer"] == 1.0


def test_cache_scan_finds_and_empties_every_site():
    from seclab.catalog import coefficient_catalog, preset_groups, seeded_instances

    for g in preset_groups(6):
        coefficient_catalog(g, 3)
    seeded_instances(1, 2, 8)
    sites = tracing.cache_sites()
    assert sorted(sites) == sorted(run.CACHE_SITES)
    assert len(sites) == 15
    assert any(fn.cache_info().currsize for fn in sites.values())
    tracing.clear_caches(sites)
    assert all(fn.cache_info().currsize == 0 for fn in sites.values())


def test_no_tail_percentile_below_forty_samples():
    assert summary.tail_percentile(list(range(39)), 0.5) is None
    assert summary.tail_percentile(list(range(40)), 0.75) == 29
    # p90 needs ten samples beyond it, so a hundred in all
    assert summary.tail_percentile(list(range(99))) is None
    assert summary.tail_percentile(list(range(100))) == 89


def test_verdict_follows_the_pairing_rule():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [x * 0.7 for x in parent]
    assert summary.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    slower = [x * 1.3 for x in parent]
    assert summary.verdict(parent, slower, "lower", 0.1)["verdict"] == "worse"
    assert summary.verdict(parent, list(parent), "lower", 0.1)["verdict"] == "within bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
    assert summary.verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"


def _attribute_snapshot() -> dict:
    snap = {}
    for short, mod in tracing.seclab_modules().items():
        for attr, value in vars(mod).items():
            snap[(short, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    snap[(short, attr, cattr)] = cvalue
    return snap


def _is_tracer_wrapper(value) -> bool:
    code = getattr(value, "__code__", None)
    return code is not None and code.co_filename == tracing.__file__


class _SmallVerify(workloads.VerifyBatch):
    count = 3
    max_middle = 8


def test_traced_pass_restores_every_attribute():
    wl = _SmallVerify(1, run.load_oracles(), HERE)
    wl.import_modules()
    for short in tracing.TRACED_MODULES:
        __import__(f"seclab.{short}")
    before = _attribute_snapshot()
    tracer = tracing.Tracer()
    with tracer:
        during = _attribute_snapshot()
        wl.build()
        for item in wl.round_items():
            wl.run_item(item)
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    wrapped = [k for k in before if during[k] is not before[k]]
    assert all(_is_tracer_wrapper(during[k]) for k in wrapped)
    names = {k[1] for k in wrapped}
    assert {"verify_equivalences", "enumerate_homs", "h1", "main", "parse_manifest"} <= names
    assert ("cohomology", "GammaGroup", "__post_init__") in wrapped
    assert tracer.calls["localglobal.verify_equivalences"] == len(wl.round_items())
    assert tracer.calls["catalog.seeded_instances"] == 1


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    wl = _SmallVerify(1, run.load_oracles(), HERE)
    seen = []
    real_run_item = wl.run_item

    def watching(self, item, in_process=True):
        seen.append(any(_is_tracer_wrapper(v) for v in _attribute_snapshot().values()))
        return real_run_item(item, in_process)

    wl.run_item = types.MethodType(watching, wl)
    result = run.timed_run(wl, 0)
    assert seen and not any(seen)
    assert result["failed"] == 0 and result["checks"].failed == 0
    assert result["attempted"] == _SmallVerify.count


def test_traced_counts_repeat_exactly():
    def counts():
        wl = _SmallVerify(2, run.load_oracles(), HERE)
        res = run.traced_run(wl)
        return {
            k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"
        }

    first, second = counts(), counts()
    assert first == second
    assert first["localglobal.classes_checked"] > 0
    assert first["groups.enumerate_homs.candidates"] > 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )
