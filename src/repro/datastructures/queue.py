"""Jiffy FIFO Queue (§5.2): a growing linked list of blocks.

Each block stores multiple items plus a pointer to the next block; the
controller only tracks the head and tail block ids (cached by clients).
``getBlock`` routes enqueues to the tail and dequeues to the head. Blocks
are added when the tail crosses the high threshold and removed when the
head block is fully consumed — no data repartitioning is ever needed
(Table 2). Consumers use notifications to learn of new items
(subscription to ``enqueue``) and producers of new space (``dequeue``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.blocks.block import Block
from repro.codec import decode_records, encode_records
from repro.datastructures.base import ITEM_OVERHEAD_BYTES, DataStructure
from repro.errors import DataStructureError, QueueEmptyError, QueueFullError


# Payload ops (run on a segment block and forwarded to its replicas; see
# Block.apply). A segment's payload is ``{"items": [...], "consumed":
# int}`` plus ``"next"``, its successor's block id, once one exists.


def _init_segment(payload: dict) -> None:
    payload["items"] = []
    payload["consumed"] = 0


def _push_items(payload: dict, items: tuple) -> None:
    payload["items"].extend(items)


def _set_consumed(payload: dict, consumed: int) -> None:
    payload["consumed"] = consumed


def _link_next(payload: dict, block_id: str) -> None:
    payload["next"] = block_id


class JiffyQueue(DataStructure):
    """FIFO queue of byte items over linked blocks."""

    DS_TYPE = "fifo_queue"

    def __init__(
        self,
        controller,
        job_id: str,
        prefix: str,
        max_queue_length: Optional[int] = None,
        **kwargs,
    ) -> None:
        if max_queue_length is not None and max_queue_length <= 0:
            raise DataStructureError("max_queue_length must be positive")
        self.max_queue_length = max_queue_length
        # Ordered segment list; head = first, tail = last. Set before
        # super().__init__ so registration carries the initial map.
        self._segments: List[str] = []
        self._num_items = 0
        super().__init__(controller, job_id, prefix, **kwargs)
        # Per-tenant op counters, cached like the KV hot-path histograms
        # so enqueue/dequeue pay one attribute check when disabled.
        reg = self.telemetry
        self._c_enqueued = (
            reg.counter("queue.items_enqueued", job=self.job_id)
            if reg.enabled
            else None
        )
        self._c_dequeued = (
            reg.counter("queue.items_dequeued", job=self.job_id)
            if reg.enabled
            else None
        )

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._num_items

    def is_empty(self) -> bool:
        return self._num_items == 0

    @staticmethod
    def _item_cost(item: bytes) -> int:
        return len(item) + ITEM_OVERHEAD_BYTES

    def _initial_partitioning(self) -> dict:
        head = self._segments[0] if self._segments else None
        tail = self._segments[-1] if self._segments else None
        return {"head": head, "tail": tail}

    def _sync_metadata(self) -> None:
        head = self._segments[0] if self._segments else None
        tail = self._segments[-1] if self._segments else None
        self.controller.update_metadata(
            self.job_id, self.prefix, head=head, tail=tail
        )

    def _rebind_block(self, old_id: str, new_id: str) -> None:
        """Tier move: rewrite the segment chain entry for the moved block.

        Segments also carry a ``payload["next"]`` pointer to their
        successor's id, so the predecessor (if any) is patched too.
        """
        changed = False
        for i, segment_id in enumerate(self._segments):
            if segment_id != old_id:
                continue
            self._segments[i] = new_id
            changed = True
            if i > 0:
                prev = self._get_block(self._segments[i - 1])
                if prev.payload.get("next") == old_id:
                    prev.apply(_link_next, new_id)
        if changed:
            self._sync_metadata()

    def _new_segment(self) -> Block:
        block = self._allocate_block()
        # The empty-segment skeleton is a write of its own, so a promoted
        # backup is well-formed before any enqueue.
        block.apply(_init_segment)
        if self._segments:
            prev = self._get_block(self._segments[-1])
            prev.apply(_link_next, block.block_id)
        self._segments.append(block.block_id)
        self._record_repartition("extend", 0)
        self._sync_metadata()
        return block

    def _tail_for(self, cost: int) -> Block:
        """getBlock for enqueue: the tail, extending the chain if full."""
        if self._segments:
            tail = self._get_block(self._segments[-1])
            if tail.used + cost <= self.high_limit:
                return tail
        block = self._new_segment()
        if cost > self.high_limit:
            if cost > block.capacity:
                raise DataStructureError(
                    f"item of {cost} bytes exceeds block capacity "
                    f"{block.capacity}"
                )
        return block

    # ------------------------------------------------------------------
    # Operations (writeOp=enqueue, readOp=dequeue)
    # ------------------------------------------------------------------

    def enqueue(self, item: bytes) -> None:
        """Append an item at the tail."""
        self._check_alive()
        if not isinstance(item, (bytes, bytearray)):
            raise DataStructureError("queue items must be bytes")
        if (
            self.max_queue_length is not None
            and self._num_items >= self.max_queue_length
        ):
            raise QueueFullError(
                f"queue at max_queue_length={self.max_queue_length}"
            )
        item = bytes(item)
        cost = self._item_cost(item)
        block = self._tail_for(cost)
        block.apply(_push_items, (item,), delta=cost)
        self._num_items += 1
        if self._c_enqueued is not None:
            self._c_enqueued.inc()
        self._publish("enqueue", item)

    def dequeue(self) -> bytes:
        """Pop the oldest item from the head."""
        self._check_alive()
        if self._num_items == 0:
            raise QueueEmptyError(f"queue {self.job_id}:{self.prefix} is empty")
        head = self._get_block(self._segments[0])
        items = head.payload["items"]
        consumed = head.payload["consumed"]
        item = items[consumed]
        head.apply(_set_consumed, consumed + 1, delta=-self._item_cost(item))
        self._num_items -= 1
        self._retire_head(head)
        if self._c_dequeued is not None:
            self._c_dequeued.inc()
        self._publish("dequeue", item)
        return item

    # ------------------------------------------------------------------
    # Vectorized operations: chunk a batch along the block chain so each
    # tail/head block is routed once per run of items instead of once
    # per item. Results are identical to the equivalent sequence of
    # single enqueues/dequeues (FIFO order, per-item notifications, the
    # same extend/shrink signals at the same fill levels).
    # ------------------------------------------------------------------

    def enqueue_batch(self, items: Sequence[bytes]) -> int:
        """Append many items at the tail; returns the number enqueued.

        Tail chunking: every item that fits the current tail block lands
        in one routed write; the chain is extended only when the tail
        crosses the high threshold, exactly as single ``enqueue``s would.
        Raises :class:`QueueFullError` mid-batch (earlier items stay
        enqueued) when ``max_queue_length`` is hit, like the sequential
        path.
        """
        self._check_alive()
        items = list(items)
        before = self._num_items
        try:
            return self._enqueue_batch_inner(items)
        finally:
            # Count what actually landed, including items enqueued
            # before a mid-batch QueueFullError.
            landed = self._num_items - before
            if landed and self._c_enqueued is not None:
                self._c_enqueued.inc(landed)

    def _enqueue_batch_inner(self, items: List[bytes]) -> int:
        appended = 0
        high_limit = self.high_limit
        max_length = self.max_queue_length
        while appended < len(items):
            item = items[appended]
            if not isinstance(item, (bytes, bytearray)):
                raise DataStructureError("queue items must be bytes")
            if max_length is not None and self._num_items >= max_length:
                raise QueueFullError(f"queue at max_queue_length={max_length}")
            item = bytes(item)
            cost = self._item_cost(item)
            block = self._tail_for(cost)
            # Gather the whole run that fits this tail, then land it as one
            # write before asking the controller for the next segment.
            run = [item]
            run_cost = cost
            error = None
            while appended + len(run) < len(items):
                if max_length is not None and self._num_items + len(run) >= max_length:
                    break
                item = items[appended + len(run)]
                if not isinstance(item, (bytes, bytearray)):
                    # Raised once the run before it has landed, exactly
                    # where item-by-item enqueues would have stopped.
                    error = DataStructureError("queue items must be bytes")
                    break
                item = bytes(item)
                cost = self._item_cost(item)
                if block.used + run_cost + cost > high_limit:
                    break
                run.append(item)
                run_cost += cost
            block.apply(_push_items, tuple(run), delta=run_cost)
            self._num_items += len(run)
            for item in run:
                self._publish("enqueue", item)
            appended += len(run)
            if error is not None:
                raise error
        return appended

    def dequeue_batch(self, max_items: int) -> List[bytes]:
        """Pop up to ``max_items`` oldest items (head chunking).

        Returns fewer than ``max_items`` when the queue drains first (an
        empty queue yields ``[]`` rather than raising). Fully consumed
        head blocks are reclaimed at the same points the sequential path
        would reclaim them.
        """
        self._check_alive()
        if max_items < 0:
            raise DataStructureError("max_items must be >= 0")
        out: List[bytes] = []
        while len(out) < max_items and self._num_items > 0:
            head = self._get_block(self._segments[0])
            stored = head.payload["items"]
            consumed = head.payload["consumed"]
            take = min(max_items - len(out), len(stored) - consumed)
            chunk = stored[consumed : consumed + take]
            head.apply(
                _set_consumed,
                consumed + take,
                delta=-sum(self._item_cost(item) for item in chunk),
            )
            self._num_items -= take
            for item in chunk:
                self._publish("dequeue", item)
            out.extend(chunk)
            self._retire_head(head)
        if out and self._c_dequeued is not None:
            self._c_dequeued.inc(len(out))
        return out

    def _retire_head(self, head: Block) -> None:
        """After a dequeue: recycle the head segment once fully consumed.

        A consumed head with successors is returned to the controller —
        queue blocks are removed without repartitioning (Table 2); the
        last segment of an emptied queue is kept and cleared for reuse.
        """
        if head.payload["consumed"] < len(head.payload["items"]):
            return
        if len(self._segments) > 1:
            self._segments.pop(0)
            self._record_repartition("shrink", 0)
            self._reclaim_block(head)
            self._sync_metadata()
        elif self._num_items == 0:
            head.apply(_init_segment, delta=-head.used)

    def peek(self) -> bytes:
        """The oldest item, without removing it."""
        self._check_alive()
        if self._num_items == 0:
            raise QueueEmptyError(f"queue {self.job_id}:{self.prefix} is empty")
        head = self._get_block(self._segments[0])
        return head.payload["items"][head.payload["consumed"]]

    def drain(self) -> List[bytes]:
        """Dequeue everything currently in the queue."""
        out: List[bytes] = []
        while not self.is_empty():
            out.append(self.dequeue())
        return out

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _pending_items(self) -> List[bytes]:
        pending: List[bytes] = []
        for block_id in self._segments:
            block = self._get_block(block_id)
            pending.extend(block.payload["items"][block.payload["consumed"]:])
        return pending

    def flush_to(self, store, external_path: str) -> int:
        data = encode_records([] if self._expired else self._pending_items())
        store.put(external_path, data)
        return len(data)

    def load_from(self, store, external_path: str) -> int:
        data = store.get(external_path)
        self._revive()
        self._reclaim_all_blocks()
        self._reset_partition_state()
        for item in decode_records(data):
            self.enqueue(item)
        return len(data)

    def _reset_partition_state(self) -> None:
        self._segments = []
        self._num_items = 0
