"""Jiffy KV-Store (§5.3): hash-slot-sharded key-value storage.

Keys hash to one of ``H`` hash slots (H=1024 by default); KV pairs are
sharded across blocks such that each block owns one or more slots and a
slot is never split across blocks. Each block stores its pairs in a
cuckoo hash table. The controller's metadata manager holds the
block ↔ hash-slot mapping, cached by clients and refreshed on scaling.

Repartitioning (the only built-in data structure that needs it, Table 2):

* **split** — when a block crosses the high usage threshold, half of its
  hash slots are reassigned to a newly allocated block and the
  corresponding pairs move with them;
* **merge** — when a block falls below the low threshold (and the store
  has more than one block), its slots merge into the lowest-usage peer
  that can absorb them, and the drained block is reclaimed.

Repartitioning is performed *off the critical path* (§3.3): the
triggering operation only enqueues a :class:`SlotMigration` on the
store's :class:`~repro.sim.background.BackgroundScheduler` and returns.
The overloaded block keeps accepting writes up to its raw capacity while
the migration cuts slots over one at a time — each cut-over is atomic
(pairs, slot ownership, byte accounting, and the slot map move
together), so every invariant (slots partition exactly once, a pair
lives in exactly one table, usage is conserved) holds between any two
steps. Reads and writes route through the live slot map: the old block
serves a slot until its cut-over, the new block afterwards; batch
operations detect a mid-group cut-over and re-group, exactly as they do
mid-split on the synchronous path. ``async_repartition=False`` (the
``--sync-repartition`` ablation) recovers the inline behaviour, whose
modeled latency is then charged to the foreground operation via
:mod:`repro.sim.cost`.
"""

from __future__ import annotations

import hashlib
from functools import partial
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.blocks.block import Block
from repro.codec import decode_kv_pairs, encode_kv_pairs
from repro.datastructures.base import (
    CONTROLLER_CONNECT_S,
    ITEM_OVERHEAD_BYTES,
    DataStructure,
)
from repro.datastructures.cuckoo import CuckooHashTable
from repro.errors import DataStructureError
from repro.sim import cost
from repro.sim.background import BackgroundTask
from repro.telemetry import trace

__all__ = ["JiffyKVStore", "SlotMigration", "hash_slot"]


def hash_slot(key: bytes, num_slots: int) -> int:
    """Stable key → hash-slot mapping (process-independent)."""
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "little") % num_slots


# Payload ops (run on a shard block and forwarded to its replicas; see
# Block.apply). A shard's payload is ``{"table": CuckooHashTable,
# "slots": set of owned hash slots}``.


def _init_shard(payload: dict, slots: Iterable[int]) -> None:
    payload["table"] = CuckooHashTable()
    payload["slots"] = set(slots)


def _put_pair(payload: dict, key_bytes: bytes, value: bytes) -> None:
    payload["table"].put(key_bytes, value)


def _delete_pair(payload: dict, key_bytes: bytes) -> bytes:
    return payload["table"].delete(key_bytes)


def _take_slots(
    payload: dict, slots: Iterable[int], pairs: Iterable[Tuple[bytes, bytes]]
) -> None:
    """Adopt ``slots`` together with their ``pairs`` (a cut-over's target)."""
    table = payload["table"]
    for key_bytes, value in pairs:
        table.put(key_bytes, value)
    payload["slots"].update(slots)


def _give_slots(
    payload: dict, slots: Iterable[int], keys: Iterable[bytes]
) -> None:
    """Hand ``slots`` and their ``keys`` off (a cut-over's source)."""
    table = payload["table"]
    for key_bytes in keys:
        table.delete(key_bytes)
    payload["slots"].difference_update(slots)


class SlotMigration:
    """An in-flight split or merge: slots moving source → target.

    The plan (which slots move, in which order) is fixed at enqueue;
    each step moves whatever pairs the slot holds *at execution time*,
    so writes that land on a not-yet-moved slot are carried over by its
    eventual cut-over.
    """

    def __init__(
        self, kind: str, source_id: str, target_id: str, slots: List[int]
    ) -> None:
        self.kind = kind  # "split" | "merge"
        self.source_id = source_id
        self.target_id = target_id
        self.slots = slots
        self.bytes_moved = 0
        self.task: Optional[BackgroundTask] = None

    def __repr__(self) -> str:
        return (
            f"SlotMigration({self.kind}, {self.source_id}->{self.target_id}, "
            f"slots={len(self.slots)})"
        )


class JiffyKVStore(DataStructure):
    """Key-value store with get/put/delete and slot-level elasticity."""

    DS_TYPE = "kv_store"

    def __init__(
        self,
        controller,
        job_id: str,
        prefix: str,
        num_slots: Optional[int] = None,
        **kwargs,
    ) -> None:
        self.num_slots = (
            num_slots if num_slots is not None else controller.config.num_hash_slots
        )
        if self.num_slots <= 0:
            raise DataStructureError("num_slots must be positive")
        # slot -> block id; populated lazily on first write. Set before
        # super().__init__ so registration carries the initial map.
        self._slot_map: Dict[int, str] = {}
        self._size = 0
        self.splits = 0
        self.merges = 0
        # In-flight migrations, indexed by BOTH source and target block
        # id: a block participates in at most one migration at a time.
        self._migrations: Dict[str, SlotMigration] = {}
        super().__init__(controller, job_id, prefix, **kwargs)
        # Hot-path histograms are fetched once and guarded with None so a
        # disabled registry costs exactly one attribute check per op.
        reg = self.telemetry
        # The job label makes every op series per-tenant; it is baked
        # into the cached metric objects here, so the hot path pays the
        # same single attribute check as before.
        self._h_put = (
            reg.histogram("kv.op.latency_s", op="put", job=self.job_id)
            if reg.enabled
            else None
        )
        self._h_get = (
            reg.histogram("kv.op.latency_s", op="get", job=self.job_id)
            if reg.enabled
            else None
        )
        self._c_splits = reg.counter("kv.splits", job=self.job_id)
        self._c_merges = reg.counter("kv.merges", job=self.job_id)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def _async(self) -> bool:
        return self.controller.config.async_repartition

    @staticmethod
    def _canonical(key) -> bytes:
        if isinstance(key, bytes):
            return key
        if isinstance(key, str):
            return key.encode()
        raise DataStructureError(
            f"kv keys must be str or bytes, got {type(key).__name__}"
        )

    @staticmethod
    def _pair_cost(key: bytes, value: bytes) -> int:
        return len(key) + len(value) + ITEM_OVERHEAD_BYTES

    def _initial_partitioning(self) -> dict:
        return {"slot_map": dict(self._slot_map), "num_slots": self.num_slots}

    def _sync_metadata(self) -> None:
        self.controller.update_metadata(
            self.job_id,
            self.prefix,
            slot_map=dict(self._slot_map),
            num_slots=self.num_slots,
        )

    def _rebind_block(self, old_id: str, new_id: str) -> None:
        """Tier move: rewrite slot-map and migration references."""
        changed = False
        for slot, block_id in self._slot_map.items():
            if block_id == old_id:
                self._slot_map[slot] = new_id
                changed = True
        migration = self._migrations.pop(old_id, None)
        if migration is not None:
            if migration.source_id == old_id:
                migration.source_id = new_id
            if migration.target_id == old_id:
                migration.target_id = new_id
            self._migrations[new_id] = migration
        if changed:
            self._sync_metadata()

    def _init_block(self, slots: List[int]) -> Block:
        block = self._allocate_block()
        # The empty table/slot skeleton is a write of its own, so a
        # promoted backup is well-formed before any put.
        block.apply(_init_shard, tuple(slots))
        for slot in slots:
            self._slot_map[slot] = block.block_id
        return block

    def _block_for(self, key_bytes: bytes) -> Block:
        """getBlock for KV ops: route by the key's hash slot."""
        slot = hash_slot(key_bytes, self.num_slots)
        block_id = self._slot_map.get(slot)
        if block_id is None:
            # First write to the store: one block owns every slot.
            if not self._slot_map:
                block = self._init_block(list(range(self.num_slots)))
                self._sync_metadata()
                return block
            raise DataStructureError(f"hash slot {slot} has no owner block")
        return self._get_block(block_id)

    def _cannot_fit(self, block: Block, pair_bytes: int) -> DataStructureError:
        return DataStructureError(
            f"pair of {pair_bytes} bytes cannot fit in block "
            f"{block.block_id} (used={block.used}, "
            f"capacity={block.capacity})"
        )

    # ------------------------------------------------------------------
    # Operations (Table 2: writeOp=put, readOp=get, deleteOp=delete)
    # ------------------------------------------------------------------

    def put(self, key, value: bytes) -> None:
        """Insert or overwrite a key."""
        hist = self._h_put
        if hist is None:
            return self._put(key, value)
        op_start = perf_counter()
        try:
            return self._put(key, value)
        finally:
            hist.record(perf_counter() - op_start)

    def _put(self, key, value: bytes) -> None:
        self._check_alive()
        self._poll_background()
        key_bytes = self._canonical(key)
        if not isinstance(value, (bytes, bytearray)):
            raise DataStructureError("kv values must be bytes")
        value = bytes(value)
        pair_bytes = self._pair_cost(key_bytes, value)
        while True:
            block = self._block_for(key_bytes)
            table: CuckooHashTable = block.payload["table"]
            old_value = table.get(key_bytes, default=None)
            delta = pair_bytes
            if old_value is not None:
                delta -= self._pair_cost(key_bytes, old_value)
            if block.used + delta <= self.high_limit:
                break
            # Overload signal (§3.3).
            if not self._async:
                # Ablation: split inline before the write lands. The key
                # may hash to either half after the split, so re-route.
                if self._split(block):
                    continue
                if block.used + delta > block.capacity:
                    raise self._cannot_fit(block, pair_bytes)
                break
            migration = self._migrations.get(block.block_id)
            if migration is None:
                if self._begin_split(block):
                    continue  # now migrating: the capacity rule applies
                if block.used + delta > block.capacity:
                    raise self._cannot_fit(block, pair_bytes)
                break
            # A migration is in flight for this block: accept the write
            # up to raw capacity — the background copy will thin the
            # block out (or, for a migration target, finish and make it
            # splittable).
            if block.used + delta <= block.capacity:
                break
            # Raw-capacity emergency: the foreground write cannot land
            # until the migration makes room or cuts this slot over.
            self._force_room(block, migration, key_bytes, delta)
            continue
        block.apply(_put_pair, key_bytes, value, delta=delta)
        if old_value is None:
            self._size += 1
        self._publish("put", {"key": key_bytes, "value": value})

    def get(self, key) -> bytes:
        """Fetch a key's value; raises :class:`KeyNotFoundError` if absent."""
        hist = self._h_get
        if hist is None:
            return self._get(key)
        op_start = perf_counter()
        try:
            return self._get(key)
        finally:
            hist.record(perf_counter() - op_start)

    def _get(self, key) -> bytes:
        self._check_alive()
        self._poll_background()
        key_bytes = self._canonical(key)
        block = self._block_for(key_bytes)
        value = block.payload["table"].get(key_bytes)
        self._publish("get", {"key": key_bytes})
        return value

    def exists(self, key) -> bool:
        """Whether a key is present."""
        self._check_alive()
        key_bytes = self._canonical(key)
        if not self._slot_map:
            return False
        return key_bytes in self._block_for(key_bytes).payload["table"]

    def delete(self, key) -> bytes:
        """Remove a key; returns the old value."""
        self._check_alive()
        self._poll_background()
        key_bytes = self._canonical(key)
        block = self._block_for(key_bytes)
        # The bytes freed depend on the deleted value, so usage follows
        # the op as a usage-only write.
        value = block.apply(_delete_pair, key_bytes)
        block.add_used(-min(self._pair_cost(key_bytes, value), block.used))
        self._size -= 1
        self._publish("delete", {"key": key_bytes})
        self._maybe_merge(block)
        return value

    def _maybe_merge(self, block: Block) -> None:
        """Underload signal: fold a near-empty block into a peer."""
        if block.used >= self.low_limit or len(self.node.block_ids) <= 1:
            return
        if not self._async:
            self._merge(block)
        elif block.block_id not in self._migrations:
            self._begin_merge(block)

    # ------------------------------------------------------------------
    # Vectorized operations: group keys by hash slot -> owning block and
    # touch each routed block once per batch. Results are identical to
    # the equivalent sequence of single ops (last write per key wins;
    # splits re-route only the keys whose slots moved).
    # ------------------------------------------------------------------

    def _owner_block_id(self, key_bytes: bytes) -> str:
        """Route a key to its owning block id, initialising on first use."""
        slot = hash_slot(key_bytes, self.num_slots)
        block_id = self._slot_map.get(slot)
        if block_id is None:
            return self._block_for(key_bytes).block_id
        return block_id

    def multi_put(self, pairs) -> None:
        """Insert many pairs; one routed batch per owning block.

        Equivalent to ``put`` per pair: later occurrences of a key in
        ``pairs`` overwrite earlier ones, and blocks split on overload
        exactly as on the single-op path (the affected keys are simply
        re-routed through the refreshed slot map — whether the refresh
        came from an inline split or a background cut-over).
        """
        self._check_alive()
        self._poll_background()
        pending: List[Tuple[bytes, bytes]] = []
        for key, value in pairs:
            key_bytes = self._canonical(key)
            if not isinstance(value, (bytes, bytearray)):
                raise DataStructureError("kv values must be bytes")
            pending.append((key_bytes, bytes(value)))
        while pending:
            groups: Dict[str, List[Tuple[bytes, bytes]]] = {}
            for pair in pending:
                groups.setdefault(self._owner_block_id(pair[0]), []).append(pair)
            pending = []
            for block_id, group in groups.items():
                pending.extend(self._put_group(block_id, group))

    def _put_group(
        self, block_id: str, group: List[Tuple[bytes, bytes]]
    ) -> List[Tuple[bytes, bytes]]:
        """Write pairs into one routed block; returns pairs to re-route.

        Routing goes stale in two ways: an inline split moved half the
        slots (either half may now own any remaining key), or a
        background migration cut this pair's slot over since the group
        was formed. Both hand the rest of the group back for re-grouping
        against the refreshed slot map.
        """
        block = self._get_block(block_id)
        table: CuckooHashTable = block.payload["table"]
        for index, (key_bytes, value) in enumerate(group):
            slot = hash_slot(key_bytes, self.num_slots)
            # Compare with the routed id, not ``block.block_id``: a drain
            # or kill promotion forwards the id the slot map still holds.
            if self._slot_map.get(slot) != block_id:
                return group[index:]  # cut over mid-group: re-route
            pair_bytes = self._pair_cost(key_bytes, value)
            old_value = table.get(key_bytes, default=None)
            delta = pair_bytes
            if old_value is not None:
                delta -= self._pair_cost(key_bytes, old_value)
            if block.used + delta > self.high_limit:
                if not self._async:
                    if self._split(block):
                        return group[index:]
                    if block.used + delta > block.capacity:
                        raise self._cannot_fit(block, pair_bytes)
                else:
                    migration = self._migrations.get(block.block_id)
                    if migration is None and self._begin_split(block):
                        migration = self._migrations.get(block.block_id)
                    if block.used + delta > block.capacity:
                        if migration is None:
                            raise self._cannot_fit(block, pair_bytes)
                        self._force_room(block, migration, key_bytes, delta)
                        return group[index:]  # re-route via refreshed map
            block.apply(_put_pair, key_bytes, value, delta=delta)
            if old_value is None:
                self._size += 1
            self._publish("put", {"key": key_bytes, "value": value})
        return []

    _RAISE_ON_MISSING = object()

    def multi_get(self, keys, default=_RAISE_ON_MISSING) -> List[bytes]:
        """Fetch many keys, order preserved; one routed lookup per block.

        Raises :class:`KeyNotFoundError` on the first absent key unless
        ``default`` is given, in which case absent keys yield ``default``
        (the read-modify-write pattern of accumulator updates).
        """
        self._check_alive()
        self._poll_background()
        canon = [self._canonical(key) for key in keys]
        groups: Dict[str, List[int]] = {}
        for index, key_bytes in enumerate(canon):
            groups.setdefault(self._owner_block_id(key_bytes), []).append(index)
        out: List[Optional[bytes]] = [None] * len(canon)
        raise_on_missing = default is self._RAISE_ON_MISSING
        for block_id, indices in groups.items():
            table: CuckooHashTable = self._get_block(block_id).payload["table"]
            for index in indices:
                if raise_on_missing:
                    out[index] = table.get(canon[index])
                else:
                    out[index] = table.get(canon[index], default=default)
                self._publish("get", {"key": canon[index]})
        return out  # type: ignore[return-value]

    def multi_delete(self, keys) -> List[bytes]:
        """Delete many keys; returns old values in input order.

        Merge checks run once per touched block after its group drains
        (instead of after every delete) — the resulting contents are
        identical, the underload signal just fires without the per-op
        chatter.
        """
        self._check_alive()
        self._poll_background()
        canon = [self._canonical(key) for key in keys]
        groups: Dict[str, List[int]] = {}
        for index, key_bytes in enumerate(canon):
            groups.setdefault(self._owner_block_id(key_bytes), []).append(index)
        out: List[Optional[bytes]] = [None] * len(canon)
        for block_id, indices in groups.items():
            block = self._get_block(block_id)
            for index in indices:
                key_bytes = canon[index]
                value = block.apply(_delete_pair, key_bytes)
                block.add_used(
                    -min(self._pair_cost(key_bytes, value), block.used)
                )
                self._size -= 1
                self._publish("delete", {"key": key_bytes})
                out[index] = value
            self._maybe_merge(block)
        return out  # type: ignore[return-value]

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Every (key, value) pair, in arbitrary order."""
        self._check_alive()
        for block in self.blocks():
            yield from block.payload["table"].items()

    def keys(self) -> Iterator[bytes]:
        for key, _ in self.items():
            yield key

    # ------------------------------------------------------------------
    # Background repartitioning (§3.3, §5.3): enqueue-and-return
    # ------------------------------------------------------------------

    @property
    def migrations_in_flight(self) -> int:
        return len({id(m) for m in self._migrations.values()})

    def _begin_split(self, block: Block) -> bool:
        """Enqueue a background split of an overloaded block.

        The new block is allocated and the plan (upper half of the
        source's slots) fixed immediately — ``splits`` counts the scaling
        *decision* — but no data moves until the scheduler runs the
        cut-over steps. Returns False when the block cannot split (one
        slot, pool exhausted, or already migrating).
        """
        if block.block_id in self._migrations:
            return False
        if len(block.payload.get("slots", ())) <= 1:
            return False  # A single slot cannot split.
        new_block = self.controller.try_allocate_block(self.job_id, self.prefix)
        if new_block is None:
            return False  # Pool exhausted: stay overloaded rather than fail.
        slots = sorted(block.payload["slots"])
        moving = slots[len(slots) // 2 :]
        # The skeleton is a write of its own, replicated before the
        # migration starts cutting slots over.
        new_block.apply(_init_shard, ())
        migration = SlotMigration(
            "split", block.block_id, new_block.block_id, moving
        )
        self.splits += 1
        self._c_splits.inc()
        self._enqueue_migration(migration, estimated_bytes=block.used // 2)
        return True

    def _begin_merge(self, block: Block) -> None:
        """Enqueue a background merge of an underloaded block."""
        peers = [
            b
            for b in self.blocks()
            if b.block_id != block.block_id and b.block_id not in self._migrations
        ]
        candidates = [
            p for p in sorted(peers, key=lambda b: b.used)
            if p.used + block.used <= self.high_limit
        ]
        if not candidates:
            return  # No peer can absorb us without overloading.
        migration = SlotMigration(
            "merge",
            block.block_id,
            candidates[0].block_id,
            sorted(block.payload["slots"]),
        )
        self.merges += 1
        self._c_merges.inc()
        self._enqueue_migration(migration, estimated_bytes=block.used)

    def _enqueue_migration(
        self, migration: SlotMigration, estimated_bytes: int
    ) -> None:
        """Submit per-slot cut-over steps; total cost = the modeled
        end-to-end repartition latency, spread evenly across slots."""
        total_cost = CONTROLLER_CONNECT_S + self.network.rtt() + self.network.rtt()
        if estimated_bytes:
            total_cost += self.network.transfer(estimated_bytes)
        per_step = total_cost / len(migration.slots)
        steps = [
            (per_step, partial(self._migrate_slot, migration, slot))
            for slot in migration.slots
        ]
        self._migrations[migration.source_id] = migration
        self._migrations[migration.target_id] = migration
        migration.task = self.background.submit(
            steps,
            name=f"kv.{migration.kind}:{migration.source_id}",
            resource=migration.source_id,
            on_done=partial(self._finish_migration, migration),
        )

    def _migrate_slot(self, migration: SlotMigration, slot: int) -> None:
        """Atomically cut one hash slot over from source to target.

        Pairs, slot ownership, byte accounting, and the routing entry
        move together, so the store is consistent after every step.
        """
        source = self._get_block(migration.source_id)
        target = self._get_block(migration.target_id)
        moving = tuple(
            (key_bytes, value)
            for key_bytes, value in source.payload["table"].items()
            if hash_slot(key_bytes, self.num_slots) == slot
        )
        slot_bytes = sum(self._pair_cost(k, v) for k, v in moving)
        if target.used + slot_bytes > target.capacity:
            # The target filled up under foreground writes since the plan
            # was made: abort the remainder. Un-moved slots stay with the
            # source, which keeps serving them — state is consistent.
            self._abort_migration(migration)
            return
        source.apply(
            _give_slots,
            (slot,),
            tuple(key_bytes for key_bytes, _ in moving),
            delta=-min(slot_bytes, source.used),
        )
        target.apply(_take_slots, (slot,), moving, delta=slot_bytes)
        self._slot_map[slot] = migration.target_id
        migration.bytes_moved += slot_bytes
        # Cut-over is the moment a cached client's routing (and any
        # cached values fetched through it) can go stale — invalidate
        # precisely this slot.
        self._bump_epoch("migrate", [slot])

    def _force_room(
        self, block: Block, migration: SlotMigration, key_bytes: bytes, delta: int
    ) -> None:
        """Drive an in-flight migration forward step by step until the
        blocked write can land (room freed, or its slot cut over so the
        write re-routes). Runs at most the remaining steps — never more
        work than the migration itself — and usually far fewer.
        """
        slot = hash_slot(key_bytes, self.num_slots)
        task = migration.task
        assert task is not None
        with trace.span(
            "kv.force_room", job=self.job_id, prefix=self.prefix
        ) as span:
            forced = 0
            while not task.done and not task.cancelled:
                self.background.step_task(task)
                forced += 1
                if self._slot_map.get(slot) != block.block_id:
                    break
                if block.used + delta <= block.capacity:
                    break
            span.set_attr("steps", forced)
        self.telemetry.counter("kv.force_room", job=self.job_id).inc()

    def _finish_migration(
        self, migration: SlotMigration, task: BackgroundTask
    ) -> None:
        """Completion: reclaim a drained merge source, record the event,
        and publish the new slot map to the controller (cut-over refresh)."""
        self._migrations.pop(migration.source_id, None)
        self._migrations.pop(migration.target_id, None)
        if migration.kind == "merge":
            source = self._get_block(migration.source_id)
            if not source.payload["slots"]:
                self._reclaim_block(source)
        self._record_repartition(migration.kind, migration.bytes_moved)
        self.telemetry.histogram(
            "ds.repartition.duration_s", ds=self.DS_TYPE, kind=migration.kind
        ).record(task.duration_s)
        self._sync_metadata()

    def _abort_migration(self, migration: SlotMigration) -> None:
        """Stop a migration between steps, keeping state consistent."""
        if migration.task is not None:
            self.background.cancel(migration.task)
        self._migrations.pop(migration.source_id, None)
        self._migrations.pop(migration.target_id, None)
        if migration.kind == "split" and migration.bytes_moved == 0:
            # Nothing cut over yet: return the untouched target block.
            target = self._get_block(migration.target_id)
            if not target.payload["slots"]:
                self._reclaim_block(target)
        if migration.bytes_moved:
            self._record_repartition(migration.kind, migration.bytes_moved)
        self._sync_metadata()

    def _cancel_migrations(self) -> None:
        seen: Dict[int, SlotMigration] = {
            id(m): m for m in self._migrations.values()
        }
        for migration in seen.values():
            if migration.task is not None:
                self.background.cancel(migration.task)
        self._migrations.clear()

    # ------------------------------------------------------------------
    # Synchronous repartitioning (the --sync-repartition ablation)
    # ------------------------------------------------------------------

    def _split(self, block: Block) -> bool:
        """Move half of an overloaded block's hash slots to a new block,
        inline on the critical path.

        Returns True if a split happened; False when the pool is
        exhausted or the block owns a single slot (slots are atomic).
        """
        if len(block.payload.get("slots", ())) <= 1:
            return False  # A single slot cannot split.
        new_block = self.controller.try_allocate_block(self.job_id, self.prefix)
        if new_block is None:
            return False  # Pool exhausted: stay overloaded rather than fail.
        with trace.span(
            "kv.split", job=self.job_id, prefix=self.prefix
        ) as span:
            slots = sorted(block.payload["slots"])
            moving_slots = tuple(slots[len(slots) // 2 :])
            moving = set(moving_slots)
            pairs = tuple(
                (key_bytes, value)
                for key_bytes, value in block.payload["table"].items()
                if hash_slot(key_bytes, self.num_slots) in moving
            )
            moved_bytes = sum(self._pair_cost(k, v) for k, v in pairs)
            block.apply(
                _give_slots,
                moving_slots,
                tuple(key_bytes for key_bytes, _ in pairs),
                delta=-min(moved_bytes, block.used),
            )
            new_block.apply(_init_shard, ())
            new_block.apply(_take_slots, moving_slots, pairs, delta=moved_bytes)
            for slot in moving:
                self._slot_map[slot] = new_block.block_id
            self._bump_epoch("split", sorted(moving))
            self.splits += 1
            self._c_splits.inc()
            event = self._record_repartition("split", moved_bytes)
            # The foreground op pays the full modeled migration latency.
            cost.charge(event.latency_s)
            self.telemetry.histogram(
                "ds.repartition.duration_s", ds=self.DS_TYPE, kind="split"
            ).record(event.latency_s)
            self._sync_metadata()
            span.set_attr("moved_bytes", moved_bytes)
            span.set_attr("slots_moved", len(moving))
        return True

    def _merge(self, block: Block) -> None:
        """Fold an underloaded block's slots into its lowest-usage peer,
        inline on the critical path."""
        peers = [b for b in self.blocks() if b.block_id != block.block_id]
        candidates = [
            p for p in sorted(peers, key=lambda b: b.used)
            if p.used + block.used <= self.high_limit
        ]
        if not candidates:
            return  # No peer can absorb us without overloading.
        with trace.span(
            "kv.merge", job=self.job_id, prefix=self.prefix
        ) as span:
            target = candidates[0]
            # The source is reclaimed below, so only the target is written.
            pairs = tuple(block.payload["table"].items())
            moved_bytes = sum(self._pair_cost(k, v) for k, v in pairs)
            target.apply(
                _take_slots,
                tuple(block.payload["slots"]),
                pairs,
                delta=moved_bytes,
            )
            for slot in block.payload["slots"]:
                self._slot_map[slot] = target.block_id
            self._bump_epoch("merge", sorted(block.payload["slots"]))
            self.merges += 1
            self._c_merges.inc()
            event = self._record_repartition("merge", moved_bytes)
            cost.charge(event.latency_s)
            self.telemetry.histogram(
                "ds.repartition.duration_s", ds=self.DS_TYPE, kind="merge"
            ).record(event.latency_s)
            self._reclaim_block(block)
            self._sync_metadata()
            span.set_attr("moved_bytes", moved_bytes)

    # ------------------------------------------------------------------
    # Persistence (Piccolo-style checkpointing, §5.3)
    # ------------------------------------------------------------------

    def flush_to(self, store, external_path: str) -> int:
        # A mid-migration snapshot is complete: every pair lives in
        # exactly one block table at all times.
        pairs = [] if self._expired else list(self.items())
        data = encode_kv_pairs(pairs)
        store.put(external_path, data)
        return len(data)

    def load_from(self, store, external_path: str) -> int:
        data = store.get(external_path)
        self._revive()
        self._reclaim_all_blocks()
        self._reset_partition_state()
        for key_bytes, value in decode_kv_pairs(data):
            self.put(key_bytes, value)
        # External reload replaces the whole prefix's contents.
        self._bump_epoch("reload")
        return len(data)

    def _reset_partition_state(self) -> None:
        self._cancel_migrations()
        self._slot_map = {}
        self._size = 0
