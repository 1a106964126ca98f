"""Jiffy File (§5.1): an append-only file over offset-ranged blocks.

A file is a collection of blocks, each storing a fixed-size chunk. The
controller's metadata manager keeps the block ↔ offset-range mapping;
``getBlock`` routes requests by offset. Writes are append-only; reads are
sequential or via ``seek`` with arbitrary offsets. Blocks are only ever
added (no repartitioning, Table 2): when the tail block's usage crosses
the high threshold it is sealed and a fresh block is allocated — the gap
between the threshold and full capacity is the utilisation loss measured
by the Fig 14(c) sensitivity sweep.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Tuple

from repro.blocks.block import Block
from repro.datastructures.base import DataStructure
from repro.errors import DataStructureError


# Payload ops (run on a chunk block and forwarded to its replicas; see
# Block.apply). A chunk's payload is ``{"data": bytearray}``.


def _init_chunk(payload: dict) -> None:
    payload["data"] = bytearray()


def _extend_chunk(payload: dict, data: memoryview) -> None:
    payload["data"].extend(data)


class JiffyFile(DataStructure):
    """Append-only byte file with random-access reads.

    ``buffer_bytes > 0`` enables write coalescing: appends accumulate in
    a client-side buffer and reach the blocks in one batched write once
    the buffer fills (or on an explicit :meth:`flush`). Reads, size
    accounting, and persistence all see the coalesced bytes — the buffer
    is flushed transparently before any of them — so the observable file
    contents are byte-identical to unbuffered appends; only the number
    of block writes (and metadata syncs) shrinks. Off by default.
    """

    DS_TYPE = "file"

    def __init__(
        self,
        controller,
        job_id: str,
        prefix: str,
        buffer_bytes: int = 0,
        **kwargs,
    ) -> None:
        if buffer_bytes < 0:
            raise DataStructureError("buffer_bytes must be >= 0")
        # (block_id, start_offset) per chunk, in offset order. Set before
        # super().__init__ so registration carries the initial map.
        self._chunks: List[Tuple[str, int]] = []
        self._size = 0
        self._read_pos = 0
        self._buffer_limit = buffer_bytes
        self._write_buffer = bytearray()
        super().__init__(controller, job_id, prefix, **kwargs)
        reg = self.telemetry
        self._h_append = (
            reg.histogram("file.append.latency_s", job=self.job_id)
            if reg.enabled
            else None
        )

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Total bytes in the file (including coalesced, unflushed ones)."""
        return self._size + len(self._write_buffer)

    def __len__(self) -> int:
        return self.size

    def tell(self) -> int:
        """Current sequential-read position."""
        return self._read_pos

    def _initial_partitioning(self) -> dict:
        return {"chunks": list(self._chunks), "size": self._size}

    def _sync_metadata(self) -> None:
        self.controller.update_metadata(
            self.job_id, self.prefix, chunks=list(self._chunks), size=self._size
        )

    def _rebind_block(self, old_id: str, new_id: str) -> None:
        """Tier move: rewrite the chunk table entry for the moved block."""
        changed = False
        for i, (block_id, start) in enumerate(self._chunks):
            if block_id == old_id:
                self._chunks[i] = (new_id, start)
                changed = True
        if changed:
            self._sync_metadata()

    def _tail_block(self) -> Block:
        """The writable tail chunk, allocating/extending as needed."""
        if self._chunks:
            block = self._get_block(self._chunks[-1][0])
            if not block.sealed:
                return block
        block = self._allocate_block()
        # The empty-chunk skeleton is a write of its own, so a promoted
        # backup is well-formed before any append.
        block.apply(_init_chunk)
        self._chunks.append((block.block_id, self._size))
        self._record_repartition("extend", 0)
        self._sync_metadata()
        return block

    # ------------------------------------------------------------------
    # Write path (writeOp = write/append)
    # ------------------------------------------------------------------

    def append(self, data: bytes) -> int:
        """Append bytes to the file; returns the write's start offset.

        Large writes split across blocks at the high-threshold boundary;
        once a block crosses the threshold it is sealed and a new block
        is allocated (the §3.3 overload signal). With write coalescing
        enabled, small appends park in the buffer and hit the blocks in
        one batched write when the buffer crosses ``buffer_bytes``.
        """
        if self._buffer_limit > 0:
            self._check_alive()
            if not isinstance(data, (bytes, bytearray)):
                raise DataStructureError("file data must be bytes")
            start_offset = self.size
            self._write_buffer.extend(data)
            if len(self._write_buffer) >= self._buffer_limit:
                self.flush()
            return start_offset
        hist = self._h_append
        if hist is None:
            return self._append(data)
        op_start = perf_counter()
        try:
            return self._append(data)
        finally:
            hist.record(perf_counter() - op_start)

    def flush(self) -> int:
        """Drain the write-coalescing buffer into blocks; returns bytes.

        A no-op when the buffer is empty (or coalescing is disabled).
        """
        if not self._write_buffer:
            return 0
        data, self._write_buffer = bytes(self._write_buffer), bytearray()
        hist = self._h_append
        if hist is None:
            self._append(data)
            return len(data)
        op_start = perf_counter()
        try:
            self._append(data)
        finally:
            hist.record(perf_counter() - op_start)
        return len(data)

    def _append(self, data: bytes) -> int:
        self._check_alive()
        if not isinstance(data, (bytes, bytearray)):
            raise DataStructureError("file data must be bytes")
        start_offset = self._size
        remaining = memoryview(bytes(data))
        while len(remaining) > 0:
            block = self._tail_block()
            room = self.high_limit - block.used
            if room <= 0:
                block.seal()
                continue
            take = min(room, len(remaining))
            block.apply(_extend_chunk, remaining[:take], delta=take)
            self._size += take
            remaining = remaining[take:]
            if block.used >= self.high_limit:
                block.seal()
        self._sync_metadata()
        self._publish("write", {"offset": start_offset, "length": len(data)})
        return start_offset

    write = append  # Table 2 names the file writeOp "write".

    # ------------------------------------------------------------------
    # Read path (readOp = read, plus seek)
    # ------------------------------------------------------------------

    def seek(self, offset: int) -> None:
        """Position the sequential-read cursor at an arbitrary offset."""
        self._check_alive()
        if not 0 <= offset <= self.size:
            raise DataStructureError(
                f"seek offset {offset} out of range [0, {self.size}]"
            )
        self._read_pos = offset

    def read(self, length: int = -1) -> bytes:
        """Sequential read from the cursor; -1 reads to end of file."""
        self._check_alive()
        if length < 0:
            length = self.size - self._read_pos
        data = self.read_at(self._read_pos, length)
        self._read_pos += len(data)
        return data

    def read_at(self, offset: int, length: int) -> bytes:
        """Random-access read (getBlock routes by offset range)."""
        self._check_alive()
        if offset < 0 or length < 0:
            raise DataStructureError("offset and length must be >= 0")
        self.flush()  # Reads always see coalesced appends.
        end = min(offset + length, self._size)
        if offset >= self._size:
            return b""
        out = bytearray()
        for block_id, start in self._chunks:
            block = self._get_block(block_id)
            chunk_len = block.used
            chunk_end = start + chunk_len
            if chunk_end <= offset:
                continue
            if start >= end:
                break
            lo = max(offset, start) - start
            hi = min(end, chunk_end) - start
            out.extend(block.payload["data"][lo:hi])
        return bytes(out)

    def readall(self) -> bytes:
        """The whole file contents."""
        return self.read_at(0, self.size)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def flush_to(self, store, external_path: str) -> int:
        """Persist the full file as one external object."""
        data = self.read_at(0, self.size) if not self._expired else b""
        store.put(external_path, data)
        return len(data)

    def load_from(self, store, external_path: str) -> int:
        """Restore the file from the external store (after expiry)."""
        data = store.get(external_path)
        self._revive()
        self._reclaim_all_blocks()
        self._reset_partition_state()
        self.append(data)
        # External reload replaces the whole prefix's contents.
        self._bump_epoch("reload")
        return len(data)

    def _reset_partition_state(self) -> None:
        self._chunks = []
        self._size = 0
        self._read_pos = 0
        self._write_buffer = bytearray()
