"""Chain replication by operation forwarding (§4.2.2): head ≡ every backup.

Writes reach backups as the *operation* the data structure ran on the
head (``Block.apply``), never as a copy of the head's payload. These
tests pin the invariant that makes that safe: after any step of any
hypothesis-chosen schedule — KV puts/deletes with sync or async
splits and merges, queue extends/shrinks/resets, file appends and
seals, graceful drains, and kills followed by chain repair — every
backup's payload is structurally equal to its head's, ``used`` and
``sealed`` match, and no mutable payload object is shared by identity
between two replicas (a kill wipes one server's memory and must not
reach into another's).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.config import KB, JiffyConfig
from repro.core.client import connect
from repro.core.controller import JiffyController
from repro.datastructures.cuckoo import CuckooHashTable
from repro.sim.clock import SimClock

KEYS = [f"k{i:02d}".encode() for i in range(24)]
SERVER_BLOCKS = 48


# ----------------------------------------------------------------------
# Replica comparison
# ----------------------------------------------------------------------


def _normalise(payload: dict) -> dict:
    """Payload as plain comparable values (KV tables as item dicts)."""
    out = {}
    for key, value in payload.items():
        if isinstance(value, CuckooHashTable):
            value = dict(value.items())
        elif isinstance(value, bytearray):
            value = bytes(value)
        out[key] = value
    return out


def _mutable_ids(payload: dict) -> set:
    """Identities of every mutable object a payload holds."""
    ids = {id(payload)}
    for value in payload.values():
        if isinstance(value, (list, dict, set, bytearray)):
            ids.add(id(value))
        elif isinstance(value, CuckooHashTable):
            ids.update({id(value), id(value._table), id(value._rng)})
            ids.update(id(row) for row in value._table)
    return ids


def assert_chains_consistent(controller: JiffyController) -> None:
    for chain in controller.replicator.chains.values():
        head = chain.head
        expected = _normalise(head.payload)
        seen = _mutable_ids(head.payload)
        for backup in chain.chain[1:]:
            # Compare to a bool first: pytest's diff of two large payloads
            # is far slower than the check itself.
            equal = _normalise(backup.payload) == expected
            assert equal, f"backup {backup.block_id} diverged from head {head.block_id}"
            assert backup.used == head.used
            assert backup.sealed == head.sealed
            ids = _mutable_ids(backup.payload)
            shared = bool(ids & seen)
            assert not shared, (
                f"backup {backup.block_id} shares payload objects with another replica"
            )
            seen |= ids


# ----------------------------------------------------------------------
# A replicated deployment with shadow models
# ----------------------------------------------------------------------


class Env:
    def __init__(self, rf: int, async_repartition: bool) -> None:
        self.rf = rf
        # A zero poll budget leaves async migrations to the schedule's
        # explicit "step" ops, so cut-overs interleave with everything.
        self.controller = JiffyController(
            JiffyConfig(
                block_size=KB,
                replication_factor=rf,
                async_repartition=async_repartition,
                repartition_poll_budget=0,
            ),
            clock=SimClock(),
            default_blocks=SERVER_BLOCKS,
        )
        for _ in range(rf + 1):
            self.controller.join_server(SERVER_BLOCKS)
        client = connect(self.controller, "job")
        for prefix in ("kv", "q", "f"):
            client.create_addr_prefix(prefix)
        self.kv = client.init_data_structure("kv", "kv_store", num_slots=16)
        self.q = client.init_data_structure("q", "fifo_queue")
        self.f = client.init_data_structure("f", "file")
        self.kv_model = {}
        self.q_model = []
        self.f_model = bytearray()
        self._joined = 0

    def live_servers(self):
        return sorted(
            row["server_id"]
            for row in self.controller.list_servers()
            if not row["draining"]
        )

    def join(self) -> None:
        self._joined += 1
        self.controller.join_server(SERVER_BLOCKS, server_id=f"late-{self._joined}")

    def leave(self, pick: int) -> None:
        candidates = self.live_servers()
        if len(candidates) <= self.rf + 1:
            return  # keep room for every chain plus a migration target
        self.controller.leave_server(candidates[pick % len(candidates)])

    def kill(self, pick: int) -> None:
        if self.controller.replicator.degraded_chains():
            return  # a kill is lossless only while chains are full
        servers = sorted(row["server_id"] for row in self.controller.list_servers())
        report = self.controller.kill_server(servers[pick % len(servers)])
        assert report["data_lost"] == 0
        self.join()
        self.controller.drain_background()  # chain repair (and drains)

    def check_models(self) -> None:
        assert dict(self.kv.items()) == self.kv_model
        assert len(self.q) == len(self.q_model)
        if self.q_model:
            assert self.q.peek() == self.q_model[0]
        assert self.f.readall() == bytes(self.f_model)


def apply_op(env: Env, op) -> None:
    kind = op[0]
    if kind == "put":
        _, ki, tag, rep = op
        value = (b"v%d-" % tag) * rep
        env.kv.put(KEYS[ki], value)
        env.kv_model[KEYS[ki]] = value
    elif kind == "multi_put":
        _, start, n, rep = op
        pairs = [(KEYS[(start + i) % len(KEYS)], b"m" * rep) for i in range(n)]
        env.kv.multi_put(pairs)
        env.kv_model.update(pairs)
    elif kind == "delete":
        key = KEYS[op[1]]
        if key in env.kv_model:
            assert env.kv.delete(key) == env.kv_model.pop(key)
    elif kind == "multi_delete":
        keys = [k for k in KEYS[op[1] :: 3] if k in env.kv_model]
        assert env.kv.multi_delete(keys) == [env.kv_model.pop(k) for k in keys]
    elif kind == "enq":
        item = (b"q%d-" % op[1]) * op[2]
        env.q.enqueue(item)
        env.q_model.append(item)
    elif kind == "enq_batch":
        items = [(b"b%d-" % i) * op[2] for i in range(op[1])]
        env.q.enqueue_batch(items)
        env.q_model.extend(items)
    elif kind == "deq":
        if env.q_model:
            assert env.q.dequeue() == env.q_model.pop(0)
    elif kind == "deq_batch":
        got = env.q.dequeue_batch(op[1])
        assert got == env.q_model[: op[1]]
        del env.q_model[: op[1]]
    elif kind == "append":
        data = bytes([op[1]]) * op[2]
        env.f.append(data)
        env.f_model.extend(data)
    elif kind == "step":
        env.kv.background.poll(op[1])
        env.controller.background.poll(op[1])
    elif kind == "leave":
        env.leave(op[1])
    elif kind == "kill":
        env.kill(op[1])
    elif kind == "join":
        if len(env.controller.list_servers()) < 8:
            env.join()


_key = st.integers(0, len(KEYS) - 1)
_tag = st.integers(0, 7)
_put = st.tuples(st.just("put"), _key, _tag, st.integers(1, 60))
_multi_put = st.tuples(
    st.just("multi_put"), _key, st.integers(1, 12), st.integers(1, 120)
)
_step = st.tuples(st.just("step"), st.integers(1, 6))
_delete = st.tuples(st.just("delete"), _key)
_multi_delete = st.tuples(st.just("multi_delete"), st.integers(0, 2))
# KV writes and background steps are weighted up so most schedules
# split, cut slots over and merge; the other structures fill a few
# blocks each (queue segments link, file chunks seal).
_op = st.one_of(
    _put,
    _put,
    _put,
    _multi_put,
    _multi_put,
    _delete,
    _delete,
    _multi_delete,
    _multi_delete,
    st.tuples(st.just("enq"), _tag, st.integers(1, 60)),
    st.tuples(st.just("enq_batch"), st.integers(1, 16), st.integers(1, 40)),
    st.tuples(st.just("deq")),
    st.tuples(st.just("deq_batch"), st.integers(0, 24)),
    st.tuples(st.just("append"), st.integers(0, 255), st.integers(1, 900)),
    _step,
    _step,
    _step,
    st.tuples(st.just("leave"), st.integers(0, 7)),
    st.tuples(st.just("kill"), st.integers(0, 7)),
    st.tuples(st.just("join")),
)


class TestHeadEqualsBackups:
    @pytest.mark.parametrize("async_repartition", [True, False])
    @pytest.mark.parametrize("rf", [2, 3])
    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(_op, min_size=5, max_size=60))
    def test_any_schedule_keeps_replicas_equal(self, rf, async_repartition, ops):
        env = Env(rf, async_repartition)
        for op in ops:
            apply_op(env, op)
            assert_chains_consistent(env.controller)
        env.controller.drain_background()
        assert_chains_consistent(env.controller)
        env.check_models()

    def test_split_and_merge_cycle(self):
        """A deterministic load/unload cycle crosses every KV op kind."""
        for async_repartition in (True, False):
            env = Env(2, async_repartition)
            for i in range(len(KEYS)):
                apply_op(env, ("put", i, i % 8, 30))
                assert_chains_consistent(env.controller)
            env.controller.drain_background()
            assert env.kv.splits > 0
            for i in range(len(KEYS)):
                apply_op(env, ("delete", i))
                apply_op(env, ("step", 2))
                assert_chains_consistent(env.controller)
            env.controller.drain_background()
            assert env.kv.merges > 0
            assert_chains_consistent(env.controller)
            env.check_models()


# ----------------------------------------------------------------------
# The queue's ``next`` link reaches backups
# ----------------------------------------------------------------------


def _queue_env():
    controller = JiffyController(
        JiffyConfig(block_size=4 * KB, replication_factor=2),
        clock=SimClock(),
        default_blocks=SERVER_BLOCKS,
    )
    for _ in range(2):
        controller.join_server(SERVER_BLOCKS)
    client = connect(controller, "job")
    client.create_addr_prefix("q")
    return controller, client.init_data_structure("q", "fifo_queue")


def _chain_of(controller, block_id):
    return controller.replicator.chains[block_id]


class TestQueueNextLink:
    def test_segment_extend_links_backups(self):
        controller, q = _queue_env()
        for i in range(40):
            q.enqueue(bytes([i]) * 200)
        segments = list(q._segments)
        assert len(segments) >= 3
        for prev_id, next_id in zip(segments, segments[1:]):
            chain = _chain_of(controller, prev_id)
            assert chain.head.payload["next"] == next_id
            for backup in chain.chain[1:]:
                assert backup.payload == chain.head.payload
        assert_chains_consistent(controller)

    def test_tier_style_rebind_relinks_backups(self):
        """A tier move hands the block a new id; the predecessor's
        rewritten link must reach its backups too."""
        controller, q = _queue_env()
        for i in range(40):
            q.enqueue(bytes([i]) * 200)
        prev_id, moved_id = q._segments[0], q._segments[1]
        old = controller.pool.get_block(moved_id)
        # The tier manager's cut-over: new physical block, same payload,
        # then rebind (which rewrites the queue's internal links).
        new = controller.pool.allocate(
            exclude=controller.replicator.chain_servers(moved_id)
        )
        new.payload = old.payload
        new.mirror_used(old.used)
        controller.replicator.reattach(moved_id, new)
        controller._tier_move_hook(moved_id, new)
        controller.pool.reclaim(moved_id)

        chain = _chain_of(controller, prev_id)
        assert chain.head.payload["next"] == new.block_id
        for backup in chain.chain[1:]:
            assert backup.payload["next"] == new.block_id
        assert_chains_consistent(controller)
        expected = [bytes([i]) * 200 for i in range(40)]
        assert q.drain() == expected


class TestForwardedRouting:
    def test_multi_put_after_head_promotion(self):
        """The slot map keeps a promoted head's old id (forwarded); a
        batched put routed through it must land, not re-route forever."""
        env = Env(2, async_repartition=True)
        apply_op(env, ("put", 0, 1, 5))
        head_server = env.kv.blocks()[0].server_id
        env.controller.kill_server(head_server)
        env.controller.drain_background()
        routed = env.kv._owner_block_id(KEYS[0])
        assert env.kv._get_block(routed).block_id != routed  # forwarded
        # One routed group lands whole: a stale-route verdict here would
        # send multi_put round its regroup loop forever.
        assert env.kv._put_group(routed, [(KEYS[0], b"w")]) == []
        env.kv_model[KEYS[0]] = b"w"
        apply_op(env, ("multi_put", 0, 8, 20))
        assert_chains_consistent(env.controller)
        env.check_models()
