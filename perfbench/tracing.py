"""Layer spans recorded from outside the program.

The traced run wraps the public entry points of each layer (the
``LAYERS`` table) so that every call into a layer opens a span: layer
name, wall start, wall end and the span that was open when it started.
Spans are kept in memory and turned into per-layer call counts and self
times when the run ends. A layer's self time is its span's duration
minus the part of that interval its child spans cover, so nested layers
(an RPC call whose server executes a KV put that probes the payload
table) each keep only their own share.

Nothing under ``src/`` knows about this module: the wrappers are
installed on the classes and module globals for one whole repetition,
so that methods the deployment binds while it is set up are wrapped
too, record only while the recorder is armed (the measured phases),
and are removed again when the repetition ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

#: Span boundaries: layer -> (module path, attribute path) pairs. An
#: attribute path ``Class.method`` wraps a method; a bare name wraps a
#: module-level function (patched in every module that imported it).
LAYERS: Dict[str, Sequence[Tuple[str, str]]] = {
    "cuckoo": [
        ("repro.datastructures.cuckoo", f"CuckooHashTable.{m}")
        for m in ("get", "put", "delete")
    ],
    "kvstore": [
        ("repro.datastructures.kvstore", f"JiffyKVStore.{m}")
        for m in (
            "put", "get", "delete", "exists",
            "multi_put", "multi_get", "multi_delete", "items",
        )
    ],
    "background": [
        ("repro.sim.background", f"BackgroundScheduler.{m}")
        for m in ("poll", "drain")
    ],
    "client": [
        ("repro.core.client", f"JiffyClient.{m}")
        for m in (
            "create_addr_prefix", "init_data_structure",
            "renew_lease", "renew_leases",
        )
    ],
    "controller.tick": [("repro.core.controller", "JiffyController.tick")],
    "blocks": [
        ("repro.blocks.pool", f"MemoryPool.{m}") for m in ("allocate", "reclaim")
    ],
    "file": [
        ("repro.datastructures.file", f"JiffyFile.{m}")
        for m in ("append", "read", "read_at", "readall")
    ],
    "queue": [
        ("repro.datastructures.queue", f"JiffyQueue.{m}")
        for m in ("enqueue", "dequeue", "enqueue_batch", "dequeue_batch")
    ],
    "external": [
        ("repro.storage.external", f"ExternalStore.{m}") for m in ("put", "get")
    ],
    "rpc.client": [
        ("repro.rpc.client", f"RpcClient.{m}") for m in ("call", "pipeline")
    ],
    # The server's request execution is an event-loop action named
    # ``rpc:<method>``; :func:`_wrap_schedule_at` gives it this layer.
    "rpc.server": [("repro.rpc.server", "RpcServer.deliver")],
    "rpc.framing": [
        (module, name)
        for module in ("repro.rpc.client", "repro.rpc.server")
        for name in ("encode_message", "decode_message")
    ],
    "events": [("repro.sim.events", "CalendarQueue.step")],
}

#: Registry lookups by name, counted (not timed) per operation.
LOOKUPS: Sequence[Tuple[str, str]] = [
    ("repro.telemetry.registry", f"MetricsRegistry.{m}")
    for m in ("counter", "gauge", "histogram")
]


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


class SpanRecorder:
    """In-memory span store for one traced repetition."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        #: spans and counts are recorded only while armed (measured phases)
        self.armed = False
        self.lookups = 0
        #: most blocks the pool held at once, backups included
        self.peak_allocated = 0
        #: every replica chain attached while tracing
        self.chains: List[object] = []

    @property
    def writes_acked(self) -> int:
        return sum(chain.writes_acked for chain in self.chains)

    def open(self, layer: str) -> int:
        index = len(self.starts)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def spans(self) -> List[Span]:
        return [
            Span(layer, start, end, parent)
            for layer, start, end, parent in zip(
                self.layers, self.starts, self.ends, self.parents
            )
        ]

    def write_jsonl(self, path: str, limit: int) -> int:
        """Write the first ``limit`` spans as JSON lines; returns count."""
        count = min(limit, len(self.starts))
        with open(path, "w") as out:
            for i in range(count):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "layer": self.layers[i],
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                        }
                    )
                    + "\n"
                )
        return count


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start)
        - _covered(children.get(i, []), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def layer_totals(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """``layer -> (calls, self seconds)`` summed over ``spans``."""
    totals: Dict[str, Tuple[int, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        calls, seconds = totals.get(span.layer, (0, 0.0))
        totals[span.layer] = (calls + 1, seconds + own)
    return totals


def root_coverage(spans: Sequence[Span], wall_s: float) -> float:
    """Share of ``wall_s`` covered by spans with no parent."""
    if wall_s <= 0:
        return 0.0
    roots = [(s.start, s.end) for s in spans if s.parent < 0]
    return _covered(roots, float("-inf"), float("inf")) / wall_s


# ----------------------------------------------------------------------
# Installing and removing the wrappers
# ----------------------------------------------------------------------


def _spanning(recorder: SpanRecorder, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.armed:
            return fn(*args, **kwargs)
        index = recorder.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def _counting(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.lookups += recorder.armed
        return fn(*args, **kwargs)

    return wrapper


def _observe_allocate(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def allocate(self, *args, **kwargs):
        block = fn(self, *args, **kwargs)
        if recorder.armed:
            recorder.peak_allocated = max(recorder.peak_allocated, self.allocated_blocks)
        return block

    return allocate


def _observe_attach(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def attach(self, primary):
        chain = fn(self, primary)
        if chain is not None and recorder.armed:
            recorder.chains.append(chain)
        return chain

    return attach


def _wrap_schedule_at(recorder: SpanRecorder, fn: Callable) -> Callable:
    """Give the server's ``rpc:<method>`` execution actions a span."""

    @functools.wraps(fn)
    def schedule_at(self, when, action, name=""):
        if name.startswith("rpc:"):
            action = _spanning(recorder, "rpc.server", action)
        return fn(self, when, action, name)

    return schedule_at


def _resolve(module_path: str, attr_path: str):
    import importlib

    owner = importlib.import_module(module_path)
    *outer, name = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Instrumentation:
    """Context manager that installs every layer wrapper, then restores."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def __enter__(self) -> "Instrumentation":
        for layer, targets in LAYERS.items():
            for module_path, attr_path in targets:
                owner, name = _resolve(module_path, attr_path)
                self._patch(
                    owner, name, _spanning(self.recorder, layer, getattr(owner, name))
                )
        for module_path, attr_path in LOOKUPS:
            owner, name = _resolve(module_path, attr_path)
            self._patch(owner, name, _counting(self.recorder, getattr(owner, name)))
        for module_path, attr_path, wrap in (
            ("repro.sim.events", "CalendarQueue.schedule_at", _wrap_schedule_at),
            ("repro.blocks.pool", "MemoryPool.allocate", _observe_allocate),
            ("repro.core.replication", "ReplicaManager.attach", _observe_attach),
        ):
            owner, name = _resolve(module_path, attr_path)
            self._patch(owner, name, wrap(self.recorder, getattr(owner, name)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


__all__ = [
    "Instrumentation",
    "LAYERS",
    "Span",
    "SpanRecorder",
    "layer_totals",
    "root_coverage",
    "self_times",
]
