"""Wall-clock cost of chain replication per write (§4.2.2).

Chain replication forwards each write's *operation* down the chain, so a
write at replication factor 2 costs one extra application of that op on
the backup — not a copy of everything the block already holds. This
bench measures real CPython wall microseconds per KV put, per 4 KB file
append and per 16-item queue ``enqueue_batch``, at rf=1 and rf=2, with
1k and 4k items already resident in the written block. The pins:

* the rf=2 / rf=1 KV put ratio is at most 2.5 at both resident sizes;
* the rf=2 KV put cost at 4k resident items is at most 1.5x its cost at
  1k — flat in the size of the block's contents.

Each configuration's figure is the median over chunks, each chunk timing
a few writes on a fresh deployment; chunks of all configurations are
interleaved so host noise hits every configuration alike. Every metric
is wall time and its name ends in ``_wall_us``; they land
in ``benchmarks/results/BENCH_replication.json``. Set
``REPLICATION_BENCH_QUICK=1`` to shrink the op counts for CI smoke runs.
"""

from __future__ import annotations

import gc
import os
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from _results import record

from repro.config import MB, JiffyConfig
from repro.core.client import connect
from repro.core.controller import JiffyController
from repro.sim.clock import SimClock

QUICK = os.environ.get("REPLICATION_BENCH_QUICK", "") not in ("", "0")

#: Items already resident in the written block before timing starts.
RESIDENT = {"1k": 1_000, "4k": 4_000}
#: Chunks per configuration: each chunk times a few writes against a
#: fresh deployment holding exactly the resident items; the median wins.
CHUNKS = 5 if QUICK else 11
#: One block holds every resident item plus the timed writes, so each
#: write lands in a block whose contents grow with RESIDENT.
BLOCK_SIZE = 64 * MB
VALUE = b"v" * 100
RECORD = b"r" * 4096
ITEM = b"i" * 100
BATCH = 16

def _client(rf: int):
    controller = JiffyController(
        JiffyConfig(block_size=BLOCK_SIZE, replication_factor=rf),
        clock=SimClock(),
        default_blocks=4,
    )
    controller.join_server(4)
    return connect(controller, "bench")


def _chunk_us(
    setup: Callable[[int, int], Callable[[int], None]],
    rf: int,
    resident: int,
    ops: int,
) -> float:
    """Wall microseconds per write over one chunk of ``ops`` writes.

    ``setup(rf, resident)`` builds a fresh loaded structure and returns
    the write to time.
    """
    op = setup(rf, resident)
    # Free the previous chunk's deployment now, not mid-timing.
    gc.collect()
    # One untimed write first: growing a freshly loaded payload past its
    # initial allocation is a one-off realloc, not a write cost.
    op(-1)
    start = perf_counter()
    for i in range(ops):
        op(i)
    return (perf_counter() - start) / ops * 1e6


def _kv_put(rf: int, resident: int) -> Callable[[int], None]:
    client = _client(rf)
    client.create_addr_prefix("kv")
    kv = client.init_data_structure("kv", "kv_store", num_slots=64)
    keys = [b"key-%06d" % i for i in range(resident)]
    kv.multi_put([(key, VALUE) for key in keys])
    assert len(kv.blocks()) == 1
    # Overwrites keep the resident count fixed while timing.
    return lambda i: kv.put(keys[(i * 7919) % resident], VALUE)


def _file_append(rf: int, resident: int) -> Callable[[int], None]:
    client = _client(rf)
    client.create_addr_prefix("f")
    f = client.init_data_structure("f", "file")
    f.append(RECORD * resident)
    assert len(f.blocks()) == 1
    return lambda i: f.append(RECORD)


def _enqueue_batch(rf: int, resident: int) -> Callable[[int], None]:
    client = _client(rf)
    client.create_addr_prefix("q")
    q = client.init_data_structure("q", "fifo_queue")
    q.enqueue_batch([ITEM] * resident)
    assert len(q.blocks()) == 1
    batch = [ITEM] * BATCH
    return lambda i: q.enqueue_batch(batch)


#: structure -> (setup, timed writes per chunk). Few enough writes that
#: the resident count barely moves while a chunk is timed.
_MEASURES = {
    "kv_put": (_kv_put, 200),
    "file_append_4kb": (_file_append, 100),
    "enqueue_batch16": (_enqueue_batch, 25),
}


def _measure() -> Dict[Tuple[str, int, str], float]:
    """Median chunk cost of every (structure, rf, size) configuration.

    Chunks of all configurations are interleaved round by round, so a
    slow spell on a shared host lands on every configuration alike
    instead of skewing the ratios the pins compare.
    """
    samples: Dict[Tuple[str, int, str], List[float]] = {}
    for _ in range(CHUNKS):
        for structure, (setup, ops) in _MEASURES.items():
            for rf in (1, 2):
                for size, resident in RESIDENT.items():
                    samples.setdefault((structure, rf, size), []).append(
                        _chunk_us(setup, rf, resident, ops)
                    )
    return {key: statistics.median(values) for key, values in samples.items()}


class TestReplicationWall:
    def test_writes_cost_o_write_not_o_block(self):
        cost = _measure()
        record(
            "replication",
            {
                f"{structure}_rf{rf}_{size}_wall_us": (us, "us")
                for (structure, rf, size), us in cost.items()
            },
        )
        for size in RESIDENT:
            ratio = cost["kv_put", 2, size] / cost["kv_put", 1, size]
            assert ratio <= 2.5, (
                f"rf=2 put is {ratio:.2f}x rf=1 at {size} resident keys"
            )
        growth = cost["kv_put", 2, "4k"] / cost["kv_put", 2, "1k"]
        assert growth <= 1.5, (
            f"rf=2 put grew {growth:.2f}x from 1k to 4k resident keys"
        )
