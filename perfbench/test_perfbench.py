"""The benchmark's own tests: determinism, span arithmetic, oracles.

    python3 -m pytest perfbench -q

Each workload test runs one full repetition (a few seconds each).
"""

from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import metrics, workloads  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Instrumentation,
    Span,
    SpanRecorder,
    layer_totals,
    root_coverage,
    self_times,
)

DETERMINISTIC = ("sim_s", "utilization", "bulk_items", "ops", "attempted", "counts")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_sim_metrics_and_counts(name):
    run = workloads.WORKLOADS[name]
    first, second = run(3), run(3)
    for field in DETERMINISTIC:
        assert getattr(first, field) == getattr(second, field), field
    assert {k: len(v) for k, v in first.latencies.items()} == {
        k: len(v) for k, v in second.latencies.items()
    }
    assert first.errors == [] and second.errors == []


def test_traced_rep_matches_untraced_counts_and_restores_the_program():
    from repro.datastructures.cuckoo import CuckooHashTable

    original = CuckooHashTable.__dict__["get"]
    recorder = SpanRecorder()
    with Instrumentation(recorder):
        traced = workloads.rpc_shuffle(5, recorder)
    plain = workloads.rpc_shuffle(5)
    assert CuckooHashTable.__dict__["get"] is original
    assert traced.counts == plain.counts and traced.sim_s == plain.sim_s
    totals = layer_totals(recorder.spans())
    for layer in ("rpc.client", "rpc.server", "rpc.framing", "events", "queue", "kvstore"):
        assert totals[layer][0] > 0, layer
    assert "file" not in totals and "controller.tick" not in totals


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("rpc.client", 0.0, 10.0, -1),  # 0: root
        Span("events", 1.0, 4.0, 0),  # 1: child of 0
        Span("events", 3.0, 6.0, 0),  # 2: overlaps span 1
        Span("kvstore", 2.0, 3.0, 1),  # 3: grandchild
        Span("cuckoo", 2.2, 2.7, 3),  # 4: great-grandchild
        Span("rpc.client", 12.0, 13.0, -1),  # 5: second root
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 0.5, 0.5, 1.0])
    totals = layer_totals(spans)
    assert totals["events"] == (2, pytest.approx(5.0))
    assert totals["rpc.client"] == (2, pytest.approx(6.0))
    # The roots cover 10 + 1 of 20 seconds.
    assert root_coverage(spans, 20.0) == pytest.approx(0.55)


def test_fastest_chunks_and_ops_across_repetitions():
    from perfbench.run import chunk_seconds, fastest

    # Two repetitions of the same stream: marks of 60 items, chunks of 100.
    slow = [(0.0, 0), (1.0, 60), (2.0, 60), (5.0, 60), (6.0, 60), (7.0, 30)]
    fast = [(10.0, 0), (10.5, 60), (11.0, 60), (11.5, 60), (12.5, 60), (13.0, 30)]
    assert chunk_seconds(slow, 100) == [2.0, 4.0, 1.0]
    assert chunk_seconds(fast, 100) == [1.0, 1.5, 0.5]
    assert fastest([chunk_seconds(slow, 100), chunk_seconds(fast, 100)]) == [1.0, 1.5, 0.5]
    with pytest.raises(RuntimeError):
        fastest([[1.0, 2.0], [1.0]])


def test_recorder_nests_spans_through_the_wrappers():
    from repro.datastructures.cuckoo import CuckooHashTable

    recorder = SpanRecorder()
    with Instrumentation(recorder):
        table = CuckooHashTable()
        table.put(b"k", b"v")  # not armed: no span
        recorder.armed = True
        table.put(b"k", b"w")
        assert table.get(b"k") == b"w"
    spans = recorder.spans()
    assert [s.layer for s in spans] == ["cuckoo", "cuckoo"]
    assert all(s.parent == -1 and s.end >= s.start for s in spans)


def _corrupt(monkeypatch, owner, name, corrupt, at=0):
    """Make calls of ``owner.name`` return or store a wrong value.

    ``corrupt(original, self, *args)`` stands in for call number ``at``,
    or for every call when ``at`` is None.
    """
    original = owner.__dict__[name]
    calls = iter(range(1 << 62))

    def wrapper(self, *args):
        if at is None or next(calls) == at:
            return corrupt(original, self, *args)
        return original(self, *args)

    monkeypatch.setattr(owner, name, wrapper)


def test_kv_oracle_trips_on_a_wrong_get(monkeypatch):
    from repro.datastructures.kvstore import JiffyKVStore

    _corrupt(
        monkeypatch, JiffyKVStore, "get", lambda f, self, key: f(self, key) + b"!"
    )
    rep = workloads.kv_zipf(1)
    assert rep.failed == 1 and "wrong value" in rep.errors[0]


def test_kv_oracle_trips_on_wrong_final_contents(monkeypatch):
    from repro.datastructures.kvstore import JiffyKVStore

    # The last key loaded is the coldest one of the mix.
    last = workloads.KV_LOAD_KEYS - 1
    _corrupt(
        monkeypatch,
        JiffyKVStore,
        "put",
        lambda f, self, k, v: f(self, k, v[:-1]),
        at=last,
    )
    rep = workloads.kv_zipf(1)
    assert rep.failed >= 1
    assert any("final contents" in e or "wrong value" in e for e in rep.errors)


def test_shuffle_oracle_trips_on_a_wrong_count(monkeypatch):
    from repro.datastructures.kvstore import JiffyKVStore

    def drop_one(f, self, pairs):
        return f(self, list(pairs)[1:])

    _corrupt(monkeypatch, JiffyKVStore, "multi_put", drop_one)
    rep = workloads.rpc_shuffle(1)
    assert any("word counts" in e for e in rep.errors)


def test_replay_oracle_trips_on_lost_bytes(monkeypatch):
    from repro.datastructures.file import JiffyFile

    _corrupt(
        monkeypatch,
        JiffyFile,
        "append",
        lambda f, self, data: f(self, data[:-1]),
        at=None,
    )
    rep = workloads.tenant_replay(1)
    assert rep.failed >= 1 and "holds" in rep.errors[0]


def test_replay_oracle_trips_on_lost_queue_items(monkeypatch):
    from repro.datastructures.queue import JiffyQueue

    _corrupt(
        monkeypatch,
        JiffyQueue,
        "enqueue_batch",
        lambda f, self, items: f(self, items[1:]),
        at=None,
    )
    rep = workloads.tenant_replay(1)
    assert rep.failed >= 1


def test_benchmark_json_matches_the_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.per_layer()
    ]
