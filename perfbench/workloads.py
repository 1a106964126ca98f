"""The benchmark's three closed-loop workloads.

Each workload is one process, one client and no threads. It builds its
inputs from the seed, drives the system only through the public API
(``make_control_plane``, ``connect``, data-structure handles,
``serve_kv``/``serve_queue`` with ``RemoteKV``/``RemoteQueue``,
``join_server``/``leave_server``, ``tick`` and ``stats()``), checks
every output against an oracle, and returns one :class:`Rep`.

Shipped defaults throughout unless stated: client cache off,
``tiering="static"``, async repartition on, telemetry registry on.

Sizing reference points, measured on the unmodified code this benchmark
was written against (2 vCPU; for sizing only, not a claim):

* local KV get p50 5.8-10.3 us and put p50 10-18 us across runs, with
  run-to-run wall noise of about +/-20 %;
* loading 20k keys into 64 KB blocks (127 splits) took 1.6-2.9 s, most
  of it slot migration hashing every key of each migrated slot;
* one ``RemoteKV`` get took about 113 us wall at p50 against 230 us sim;
* a 1000-tenant, 180 s-sim replay took 2.35 s (file stages, rf=1),
  3.77 s (file, rf=2), 3.42 s (queue, rf=1) and 10.49 s (queue, rf=2);
* the rf=2 replica deep copy was about 98 % of KV put time (about
  585 us against 11 us), which is why ``kv_zipf`` stays at rf=1;
* chain replication was about 37 % of replay wall with file stages and
  67 % with queue stages.
"""

from __future__ import annotations

import math
import random
import time
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import JiffyConfig, KB, connect, make_control_plane
from repro.errors import KeyNotFoundError
from repro.experiments.fig14 import BASE_BLOCK, count_activations
from repro.rpc import RemoteKV, RemoteQueue, RpcError, serve_kv, serve_queue
from repro.sim import SimClock
from repro.sim.network import NetworkModel
from repro.storage import ExternalStore
from repro.telemetry import MetricsRegistry
from repro.workloads import SnowflakeWorkloadGenerator, SyntheticTextGenerator
from repro.workloads.snowflake import JobTrace

from perfbench.tracing import SpanRecorder

perf_counter = time.perf_counter


@dataclass
class Rep:
    """What one repetition of a workload measured and checked."""

    setup_s: float = 0.0
    #: wall seconds of each measured phase (set-up and checks excluded)
    phase_s: Dict[str, float] = field(default_factory=dict)
    bulk_items: int = 0
    ops: int = 0
    #: progress along the bulk and the ops stream: (wall time, items
    #: done since the previous mark), starting with a mark of 0 items
    marks: Dict[str, List[Tuple[float, int]]] = field(
        default_factory=lambda: {"bulk": [], "ops": []}
    )
    #: per-op wall latencies in seconds: "read" and "write"
    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {"read": [], "write": []}
    )
    sim_s: float = 0.0
    utilization: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: oracle disagreements (empty when the rep is correct)
    errors: List[str] = field(default_factory=list)
    #: deterministic per-layer counts for the traced run
    counts: Dict[str, float] = field(default_factory=dict)

    def mark(self, stream: str, items: int) -> None:
        self.marks[stream].append((perf_counter(), items))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def measured_s(self) -> float:
        return sum(self.phase_s.values())


class Phases:
    """Times the measured phases; arms the span recorder of a traced rep."""

    def __init__(self, rep: Rep, recorder: Optional[SpanRecorder]) -> None:
        self.rep = rep
        self.recorder = recorder

    @contextmanager
    def measure(self, name: str, *streams: str) -> Iterator[None]:
        """Time phase ``name``, which starts each of ``streams``."""
        if self.recorder:
            self.recorder.armed = True
        start = perf_counter()
        for stream in streams:
            self.rep.marks[stream].append((start, 0))
        try:
            yield
        finally:
            self.rep.phase_s[name] = (
                self.rep.phase_s.get(name, 0.0) + perf_counter() - start
            )
            if self.recorder:
                self.recorder.armed = False


# ----------------------------------------------------------------------
# kv_zipf
# ----------------------------------------------------------------------

KV_LOAD_KEYS = 8_000
KV_MIX_OPS = 20_000
KV_VALUE_BYTES = 256
KV_BLOCK = 64 * KB
KV_SLOTS = 1024


@dataclass
class KVInputs:
    load: List[bytes]
    load_values: List[bytes]
    kinds: List[int]  # 0 get, 1 put, 2 delete
    keys: List[bytes]
    values: List[bytes]


def kv_inputs(seed: int) -> KVInputs:
    """Unique load keys, then a Zipf(0.99) 70/25/5 get/put/delete mix."""
    rng = np.random.default_rng(seed)
    keys = [b"user:%09d" % i for i in random.Random(seed).sample(range(10**9), KV_LOAD_KEYS)]
    pool = [rng.bytes(KV_VALUE_BYTES) for _ in range(1024)]
    ranks = np.arange(1, KV_LOAD_KEYS + 1, dtype=float)
    cdf = np.cumsum(ranks**-0.99)
    cdf /= cdf[-1]
    picks = np.minimum(np.searchsorted(cdf, rng.random(KV_MIX_OPS)), KV_LOAD_KEYS - 1)
    draw = rng.random(KV_MIX_OPS)
    kinds = np.where(draw < 0.70, 0, np.where(draw < 0.95, 1, 2))
    value_ix = rng.integers(0, len(pool), KV_LOAD_KEYS + KV_MIX_OPS)
    return KVInputs(
        load=keys,
        load_values=[pool[i] for i in value_ix[:KV_LOAD_KEYS]],
        kinds=kinds.tolist(),
        keys=[keys[i] for i in picks],
        values=[pool[i] for i in value_ix[KV_LOAD_KEYS:]],
    )


def kv_zipf(seed: int, recorder: Optional[SpanRecorder] = None) -> Rep:
    """One KV store (local backend, rf=1): grow it by load, then mix."""
    rep = Rep()
    phases = Phases(rep, recorder)
    start = perf_counter()
    inputs = kv_inputs(seed)
    plane = make_control_plane(
        "local",
        config=JiffyConfig(block_size=KV_BLOCK),
        clock=SimClock(),
        default_blocks=4096,
    )
    client = connect(plane, "kv-job")
    client.create_addr_prefix("table")
    kv = client.init_data_structure("table", "kv_store", num_slots=KV_SLOTS)
    rep.setup_s = perf_counter() - start

    oracle: Dict[bytes, bytes] = {}
    reads, writes = rep.latencies["read"], rep.latencies["write"]
    with phases.measure("load", "bulk"):
        for key, value in zip(inputs.load, inputs.load_values):
            kv.put(key, value)
            rep.mark("bulk", 1)
            oracle[key] = value
    rep.bulk_items = len(inputs.load)

    with phases.measure("mix", "ops"):
        for kind, key, value in zip(inputs.kinds, inputs.keys, inputs.values):
            t0 = perf_counter()
            try:
                if kind == 0:
                    got = kv.get(key)
                    reads.append(perf_counter() - t0)
                    if got != oracle.get(key):
                        rep.fail(f"get {key!r} returned a wrong value")
                elif kind == 1:
                    kv.put(key, value)
                    writes.append(perf_counter() - t0)
                    oracle[key] = value
                else:
                    got = kv.delete(key)
                    if got != oracle.pop(key, None):
                        rep.fail(f"delete {key!r} returned a wrong value")
            except KeyNotFoundError:
                if kind == 0:
                    reads.append(perf_counter() - t0)
                if key in oracle:
                    rep.fail(f"{key!r} missing but the oracle holds it")
            rep.mark("ops", 1)
    rep.ops = len(inputs.kinds)
    rep.attempted = rep.bulk_items + rep.ops

    kv.drain_background()
    if dict(kv.items()) != oracle:
        rep.fail("final contents differ from the oracle")
    events = kv.repartition_events
    rep.sim_s = sum(e.latency_s for e in events)
    rep.utilization = kv.used_bytes() / kv.allocated_bytes()
    rep.counts = {
        "kvstore.splits": sum(e.kind == "split" for e in events),
        "kvstore.merges": sum(e.kind == "merge" for e in events),
        "kvstore.bytes_moved": sum(e.bytes_moved for e in events),
    }
    return rep


# ----------------------------------------------------------------------
# rpc_shuffle
# ----------------------------------------------------------------------

SHUFFLE_SENTENCES = 2_400
SHUFFLE_VOCABULARY = 2_000
SHUFFLE_MAPPERS = 4
SHUFFLE_REDUCERS = 4
SHUFFLE_DRAIN_BATCH = 256
SHUFFLE_QUERIES = 4_000
#: Enough puts that their p99 has ten samples beyond it.
SHUFFLE_PUTS = 1_000


def _partition(word: bytes) -> int:
    return zlib.crc32(word) % SHUFFLE_REDUCERS


@dataclass
class ShuffleInputs:
    splits: List[List[bytes]]  # one word list per mapper
    query_words: List[bytes]
    query_puts: List[bool]


def shuffle_inputs(seed: int) -> ShuffleInputs:
    text = SyntheticTextGenerator(vocabulary_size=SHUFFLE_VOCABULARY, seed=seed)
    words = [w.encode() for s in text.sentences(SHUFFLE_SENTENCES) for w in s.split()]
    per = math.ceil(len(words) / SHUFFLE_MAPPERS)
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, SHUFFLE_VOCABULARY + 1, dtype=float)
    cdf = np.cumsum(ranks**-0.99)
    cdf /= cdf[-1]
    picks = np.minimum(
        np.searchsorted(cdf, rng.random(SHUFFLE_QUERIES)), SHUFFLE_VOCABULARY - 1
    )
    return ShuffleInputs(
        splits=[words[i : i + per] for i in range(0, len(words), per)],
        query_words=[text.vocabulary[i].encode() for i in picks],
        query_puts=(rng.permutation(SHUFFLE_QUERIES) < SHUFFLE_PUTS).tolist(),
    )


def rpc_shuffle(seed: int, recorder: Optional[SpanRecorder] = None) -> Rep:
    """Word count whose whole data path crosses the simulated RPC layer."""
    rep = Rep()
    phases = Phases(rep, recorder)
    start = perf_counter()
    inputs = shuffle_inputs(seed)
    registry = MetricsRegistry()
    network = NetworkModel(sigma=0.0)
    plane = make_control_plane(
        "remote",
        config=JiffyConfig(block_size=KV_BLOCK),
        clock=SimClock(),
        network=network,
        registry=registry,
    )
    loop = plane.loop
    client = connect(plane, "wordcount")
    servers = []
    queues = []
    structures = []
    for r in range(SHUFFLE_REDUCERS):
        client.create_addr_prefix(f"shuffle-{r}")
        q = client.init_data_structure(f"shuffle-{r}", "fifo_queue")
        structures.append(q)
        servers.append(serve_queue(q, loop, registry=registry))
        queues.append(RemoteQueue(loop, servers[-1], network=network, registry=registry))
    client.create_addr_prefix("counts")
    counts_kv = client.init_data_structure("counts", "kv_store")
    structures.append(counts_kv)
    servers.append(serve_kv(counts_kv, loop, registry=registry))
    kv = RemoteKV(loop, servers[-1], network=network, registry=registry)
    rep.setup_s = perf_counter() - start

    sim_start = loop.clock.now()
    with phases.measure("shuffle", "bulk"):
        for split in inputs.splits:
            parts: List[List[bytes]] = [[] for _ in range(SHUFFLE_REDUCERS)]
            for word in split:
                parts[_partition(word)].append(word)
            for r, part in enumerate(parts):
                if part:
                    queues[r].enqueue_batch(part)
        for r in range(SHUFFLE_REDUCERS):
            counts: Counter = Counter()
            while True:
                items = queues[r].dequeue_batch(SHUFFLE_DRAIN_BATCH)
                if not items:
                    break
                counts.update(items)
            kv.multi_put([(w, b"%d" % n) for w, n in sorted(counts.items())])
        words = [w for split in inputs.splits for w in split]
        rep.mark("bulk", len(words))
    rep.sim_s = loop.clock.now() - sim_start
    rep.bulk_items = len(words)

    oracle = {w: b"%d" % n for w, n in Counter(words).items()}
    # Each word is enqueued and dequeued once; each count is put once.
    items = 2 * len(words) + len(oracle) + len(inputs.query_words)
    reads, writes = rep.latencies["read"], rep.latencies["write"]
    with phases.measure("query", "ops"):
        for word, is_put in zip(inputs.query_words, inputs.query_puts):
            t0 = perf_counter()
            if is_put:
                value = b"%d" % (int(oracle.get(word, b"0")) + 1)
                kv.put(word, value)
                writes.append(perf_counter() - t0)
                oracle[word] = value
            else:
                try:
                    got = kv.get(word)
                except RpcError:
                    got = None
                reads.append(perf_counter() - t0)
                if got != oracle.get(word):
                    rep.fail(f"get {word!r} disagrees with the oracle")
            rep.mark("ops", 1)
    rep.ops = len(inputs.query_words)
    rep.attempted = rep.bulk_items + rep.ops

    if dict(counts_kv.items()) != oracle:
        rep.fail("final counts differ from the expected word counts")
    if any(len(q) for q in structures[:-1]):
        rep.fail("a shuffle queue was not drained")
    rep.utilization = counts_kv.used_bytes() / counts_kv.allocated_bytes()
    served = [s.stats for s in servers]
    requests = sum(s.requests_served for s in served)
    rep.counts = {
        "rpc.bytes": sum(s.bytes_in + s.bytes_out for s in served),
        "rpc.items_per_request": items / requests,
        "rpc.server.busy_sim_s": sum(s.busy_seconds for s in served),
        "rpc.server.queue_sim_s": sum(
            h.sum
            for name, h in registry.histograms().items()
            if name.startswith("rpc.server.queue_s")
        ),
        "rpc.errors": sum(s.errors for s in served),
    }
    return rep


# ----------------------------------------------------------------------
# tenant_replay
# ----------------------------------------------------------------------

REPLAY_JOBS = 300
REPLAY_WINDOW_S = 60.0
REPLAY_DT = 2.0
REPLAY_LEASE_S = 1.0
REPLAY_SERVERS = 4
REPLAY_ITEM_BYTES = 256
#: Producers and consumers move data in records of at most 4 KB: file
#: appends of 4096 bytes, queue batches of 16 items of 256 bytes.
REPLAY_RECORD = {"file": 4096, "fifo_queue": 16}
RECORD_BYTES = b"x" * REPLAY_RECORD["file"]
RECORD_ITEMS = [b"q" * REPLAY_ITEM_BYTES] * REPLAY_RECORD["fifo_queue"]


def replay_inputs(seed: int) -> List[JobTrace]:
    """One job per tenant, with the stage shape of ``fig14.scale_workload``.

    Job sizes are stratified: every seed draws the same log-normal
    quantiles of tenant scale and shuffles them over the jobs, and the
    jobs arrive uniformly over the window (a Poisson process given its
    count). A seed then changes which job is large and when it runs, not
    how much data the window holds, which would otherwise swing every
    metric by tens of percent from seed to seed.
    """
    rng = random.Random(seed)
    gen = SnowflakeWorkloadGenerator(
        seed=seed,
        mean_stage_output=2 * BASE_BLOCK,
        sigma_output=0.8,
        mean_stage_duration=REPLAY_WINDOW_S / 9.0,
        mean_stages=3.0,
    )
    scales = [
        math.exp(NormalDist().inv_cdf((j + 0.5) / REPLAY_JOBS)) for j in range(REPLAY_JOBS)
    ]
    rng.shuffle(scales)
    submits = sorted(rng.uniform(0.0, REPLAY_WINDOW_S) for _ in range(REPLAY_JOBS))
    return [
        gen.generate_job(f"tenant-{j}/job-0", f"tenant-{j}", at, scale)
        for j, (at, scale) in enumerate(zip(submits, scales))
    ]


def tenant_replay(seed: int, recorder: Optional[SpanRecorder] = None) -> Rep:
    """Many tenants' stage prefixes under leases, rf=2, one server swap.

    Stages alternate between files and queues; each writes its output
    linearly in records of at most 4 KB while it runs, and the next
    stage drains a queue while it runs. Leases are renewed every
    lease/2 with a ``tick()`` after each renewal round, so finished
    stages expire, flush to the external store and are reclaimed.
    Write latency is a file append, read latency a queue
    ``dequeue_batch``; enqueues count as ops only, so the latency mix
    does not depend on how a seed's bytes split between files and
    queues.
    """
    rep = Rep()
    phases = Phases(rep, recorder)
    start = perf_counter()
    jobs = replay_inputs(seed)
    stages = sum(len(j.stages) for j in jobs)
    total = sum(j.total_intermediate_bytes() for j in jobs)
    per_server = (2 * math.ceil(total / BASE_BLOCK) + 4 * stages) // REPLAY_SERVERS
    clock = SimClock()
    store = ExternalStore()
    plane = make_control_plane(
        "local",
        config=JiffyConfig(
            block_size=BASE_BLOCK,
            lease_duration=REPLAY_LEASE_S,
            replication_factor=2,
        ),
        clock=clock,
        default_blocks=per_server,
        external_store=store,
    )
    for _ in range(REPLAY_SERVERS - 1):
        plane.join_server(per_server)
    rep.setup_s = perf_counter() - start

    clients = {}
    prefixes = set()  # (job index, stage index) with a created prefix
    handles = {}  # (job index, stage index) -> structure
    written = {}  # bytes for files, items for queues
    consumed = {}
    reads, writes = rep.latencies["read"], rep.latencies["write"]
    steps = int(math.ceil(REPLAY_WINDOW_S / REPLAY_DT))
    rounds = max(int(math.ceil(REPLAY_DT / (REPLAY_LEASE_S / 2))), 1)
    order = sorted(range(len(jobs)), key=lambda k: jobs[k].submit_time)
    live: List[int] = []
    next_job = 0
    util_sum = 0.0
    util_steps = 0
    data_ops = marked_ops = 0
    swap_step = steps // 2

    def kind(i: int) -> str:
        return "file" if i % 2 == 0 else "fifo_queue"

    def check_live(when: str) -> None:
        for (k, i), ds in handles.items():
            if ds.expired:
                continue
            have = ds.size if kind(i) == "file" else len(ds)
            want = written[(k, i)] - consumed.get((k, i), 0)
            if have != want:
                rep.fail(f"{when}: {jobs[k].job_id} stage {i} holds {have}, want {want}")

    with phases.measure("replay", "bulk", "ops"):
        for step in range(steps):
            now = clock.now()
            while next_job < len(order) and jobs[order[next_job]].submit_time <= now:
                live.append(order[next_job])
                next_job += 1
            live = [k for k in live if jobs[k].end_time > now]
            for k in live:
                job = jobs[k]
                client = clients.get(k)
                if client is None:
                    client = clients[k] = connect(plane, job.job_id)
                for i, stage in enumerate(job.stages):
                    key = (k, i)
                    if stage.start <= now < stage.end and key not in handles:
                        # A stage shorter than a step can be skipped; its
                        # consumer still names it as parent.
                        for a in range(i + 1):
                            if (k, a) not in prefixes:
                                client.create_addr_prefix(
                                    f"stage-{a}", parent=f"stage-{a - 1}" if a else None
                                )
                                prefixes.add((k, a))
                        handles[key] = client.init_data_structure(f"stage-{i}", kind(i))
                        written[key] = 0
                    ds = handles.get(key)
                    if ds is None:
                        continue
                    if stage.start <= now < stage.end and not ds.expired:
                        frac = min((now + REPLAY_DT - stage.start) / stage.duration, 1.0)
                        target = int(stage.output_bytes * frac)
                        if kind(i) == "fifo_queue":
                            target = max(target // REPLAY_ITEM_BYTES, 1)
                        while written[key] < target:
                            n = min(REPLAY_RECORD[kind(i)], target - written[key])
                            if kind(i) == "file":
                                t0 = perf_counter()
                                ds.append(RECORD_BYTES[:n])
                                writes.append(perf_counter() - t0)
                            else:
                                ds.enqueue_batch(RECORD_ITEMS[:n])
                            written[key] += n
                            data_ops += 1
                    if kind(i) == "fifo_queue" and i + 1 < len(job.stages):
                        consumer = job.stages[i + 1]
                        if consumer.start <= now < consumer.end and not ds.expired:
                            frac = min(
                                (now + REPLAY_DT - consumer.start) / consumer.duration,
                                1.0,
                            )
                            target = int(written[key] * frac)
                            while consumed.get(key, 0) < target:
                                n = min(REPLAY_RECORD[kind(i)], target - consumed.get(key, 0))
                                t0 = perf_counter()
                                got = ds.dequeue_batch(n)
                                reads.append(perf_counter() - t0)
                                data_ops += 1
                                consumed[key] = consumed.get(key, 0) + len(got)
                                if len(got) != n:
                                    rep.fail(f"dequeue_batch gave {len(got)} of {n}")
                                    break
            if step == swap_step:
                victim = plane.list_servers()[0]["server_id"]
                plane.join_server(per_server)
                plane.leave_server(victim)
            for _ in range(rounds):
                t = clock.now()
                for k in live:
                    job = jobs[k]
                    addrs = [
                        f"stage-{i}"
                        for i, stage in enumerate(job.stages)
                        if (k, i) in handles
                        and stage.start
                        <= t
                        < (job.stages[i + 1].end if i + 1 < len(job.stages) else stage.end)
                    ]
                    if addrs:
                        clients[k].renew_leases(addrs)
                clock.advance(REPLAY_DT / rounds)
                plane.tick()
            allocated = plane.allocated_bytes()
            demand = sum(jobs[k].demand_at(now) for k in live)
            if allocated > 0:
                util_sum += min(demand, allocated) / allocated
                util_steps += 1
            if step == swap_step:
                check_live("after the server swap")
            rep.mark("bulk", len(live))
            rep.mark("ops", data_ops - marked_ops)
            marked_ops = data_ops
    rep.bulk_items = count_activations(jobs, REPLAY_WINDOW_S, REPLAY_DT)
    rep.ops = data_ops
    rep.attempted = data_ops
    rep.utilization = util_sum / max(util_steps, 1)

    check_live("end of window")
    for (k, i), ds in handles.items():
        if ds.expired or kind(i) != "file":
            continue
        if ds.readall() != b"x" * written[(k, i)]:
            rep.fail(f"{jobs[k].job_id} stage {i} reads back wrong bytes")
    stats = plane.stats()
    rep.sim_s = sum(
        e.latency_s for ds in handles.values() for e in ds.repartition_events
    )
    replicator = plane.replicator
    rep.counts = {
        "controller.prefixes_expired": stats["prefixes_expired"],
        "controller.blocks_reclaimed_by_expiry": stats["blocks_reclaimed_by_expiry"],
        "controller.scale_up_signals": stats["scale_up_signals"],
        "controller.scale_down_signals": stats["scale_down_signals"],
        "external.bytes_flushed": store.bytes_written,
        "replication.backup_blocks": sum(
            len(chain.chain) - 1 for chain in replicator.chains.values()
        ),
        "replication.degraded_chains": len(replicator.degraded_chains()),
    }
    return rep


WORKLOADS: Dict[str, Callable[..., Rep]] = {
    "kv_zipf": kv_zipf,
    "rpc_shuffle": rpc_shuffle,
    "tenant_replay": tenant_replay,
}
