"""Chain replication at block granularity (§4.2.2).

For applications needing fault tolerance for intermediate data, Jiffy
supports chain replication [van Renesse & Schneider, OSDI '04]: each
logical block is backed by a chain of physical replicas on distinct
servers; writes enter at the head and propagate to the tail before they
are acknowledged, reads are served by the tail, so committed reads always
observe fully replicated data.

What travels down the chain is the *operation*, not the block: a data
structure states each payload mutation once as an op
(:meth:`Block.apply`), the head runs it, and the head's write hook runs
the same op on every backup before the write is acknowledged. A write
therefore costs O(write) per replica, whatever the block holds. The only
full copy is :meth:`ReplicaManager.repair_chain`, where a fresh replica
really does need the whole payload.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.blocks.block import Block, BlockId, PayloadOp
from repro.blocks.pool import MemoryPool
from repro.errors import BlockError, CapacityError, ReplicationError
from repro.telemetry import MetricsRegistry


class ReplicatedBlock:
    """A logical block over a chain of physical replicas."""

    def __init__(self, chain: Sequence[Block]) -> None:
        if not chain:
            raise ReplicationError("replication chain must be non-empty")
        servers = [b.server_id for b in chain]
        if len(set(servers)) != len(servers):
            raise ReplicationError(
                f"chain replicas must live on distinct servers, got {servers}"
            )
        self.chain: List[Block] = list(chain)
        self.writes_acked = 0
        self.reads_served = 0

    @property
    def head(self) -> Block:
        return self.chain[0]

    @property
    def tail(self) -> Block:
        return self.chain[-1]

    @property
    def length(self) -> int:
        return len(self.chain)

    def write(self, apply_write: Callable[[Block], Any]) -> Any:
        """Apply a write down the chain; ack (return) only after the tail.

        ``apply_write`` mutates a replica's payload; it runs on every
        replica head-to-tail, and the tail's return value is the ack.
        """
        result = None
        for replica in self.chain:
            result = apply_write(replica)
        self.writes_acked += 1
        return result

    def forward(
        self, head: Block, op: Optional[PayloadOp], args: Tuple[Any, ...]
    ) -> None:
        """Write hook of the chain head: forward one write to the backups.

        The head has already run ``op(head.payload, *args)``; each backup
        runs the same op on its own payload, then mirrors the head's
        usage and seal. ``op`` is None for a usage-only or seal change.
        """
        used = head.used
        sealed = head.sealed
        for backup in self.chain[1:]:
            if op is not None:
                op(backup.payload, *args)
            backup.mirror_used(used)
            backup._sealed = sealed
        self.writes_acked += 1

    def read(self, apply_read: Callable[[Block], Any]) -> Any:
        """Serve a read from the tail (committed data only)."""
        self.reads_served += 1
        return apply_read(self.tail)

    def fail_replica(self, server_id: str) -> None:
        """Drop the replica hosted on a failed server and splice the chain.

        Chain repair: predecessors link to successors; the data is intact
        on the survivors because writes were applied in chain order.
        """
        survivors = [b for b in self.chain if b.server_id != server_id]
        if len(survivors) == len(self.chain):
            raise ReplicationError(f"no replica on server {server_id}")
        if not survivors:
            raise ReplicationError("all replicas failed; data lost")
        self.chain = survivors

    def repair(self, new_replica: Block, copy_payload: Callable[[Block, Block], None]) -> None:
        """Re-extend the chain with a fresh replica (copied from the tail)."""
        if any(b.server_id == new_replica.server_id for b in self.chain):
            raise ReplicationError(
                f"chain already has a replica on {new_replica.server_id}"
            )
        copy_payload(self.tail, new_replica)
        self.chain.append(new_replica)

    def __repr__(self) -> str:
        return f"ReplicatedBlock(chain={[b.block_id for b in self.chain]})"


class ChainReplicator:
    """Allocates replica chains across distinct servers of a pool."""

    def __init__(self, pool: MemoryPool, replication_factor: int) -> None:
        if replication_factor < 1:
            raise ReplicationError("replication factor must be >= 1")
        self.pool = pool
        self.replication_factor = replication_factor

    def allocate_chain(self) -> ReplicatedBlock:
        """Allocate ``replication_factor`` blocks on distinct servers."""
        replicas: List[Block] = []
        used_servers: set = set()
        try:
            # The pool allocates least-loaded-first; retry until we have
            # distinct servers, returning rejected blocks immediately.
            attempts = 0
            while len(replicas) < self.replication_factor:
                attempts += 1
                if attempts > 10 * self.replication_factor + 10:
                    raise ReplicationError(
                        "could not find enough distinct servers for chain"
                    )
                block = self.pool.allocate()
                if block.server_id in used_servers:
                    self.pool.reclaim(block.block_id)
                    # All remaining free blocks may be on used servers.
                    free_servers = {
                        s.server_id
                        for s in self.pool.servers()
                        if s.free_blocks > 0
                    }
                    if free_servers <= used_servers:
                        raise ReplicationError(
                            "not enough distinct servers with free blocks "
                            f"for replication factor {self.replication_factor}"
                        )
                    continue
                used_servers.add(block.server_id)
                replicas.append(block)
        except (CapacityError, ReplicationError):
            for block in replicas:
                self.pool.reclaim(block.block_id)
            raise
        return ReplicatedBlock(replicas)

    def release_chain(self, replicated: ReplicatedBlock) -> None:
        """Return every replica of a chain to the pool."""
        for block in replicated.chain:
            self.pool.reclaim(block.block_id)


class ReplicaManager:
    """Wires chain replication into the controller's allocation path.

    With ``JiffyConfig(replication_factor=N)``, every block the allocator
    hands out becomes the *head* of a replica chain: N-1 backup blocks on
    distinct servers shadow it. The head's write hook
    (:attr:`Block._on_write`, bound to :meth:`ReplicatedBlock.forward`)
    applies each write's payload op to every backup and mirrors usage
    and seal before the write is acknowledged, so a write costs what the
    op costs, not what the block holds. The whole payload is copied only
    by :meth:`repair_chain`, when a new replica joins a short chain.

    The manager also owns the failure-time transitions: promoting a
    surviving replica when the head's server is killed, splicing dead
    backups out, re-extending short chains in the background, and
    relocating backups off draining servers.
    """

    def __init__(
        self,
        pool: MemoryPool,
        replication_factor: int,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if replication_factor < 1:
            raise ReplicationError("replication factor must be >= 1")
        self.pool = pool
        self.replication_factor = replication_factor
        self.telemetry = registry if registry is not None else MetricsRegistry()
        #: chain-head block id -> its replica chain
        self.chains: Dict[BlockId, ReplicatedBlock] = {}
        #: backup block id -> chain-head block id
        self._backup_index: Dict[BlockId, BlockId] = {}
        self._c_attached = self.telemetry.counter("chain.attached")
        self._c_degraded = self.telemetry.counter("chain.degraded")
        self._c_promotions = self.telemetry.counter("chain.promotions")
        self._c_repairs = self.telemetry.counter("chain.repair")
        self._c_backups_moved = self.telemetry.counter("chain.backups_moved")

    # ------------------------------------------------------------------
    # Allocation-path integration
    # ------------------------------------------------------------------

    def attach(self, primary: Block) -> Optional[ReplicatedBlock]:
        """Build a replica chain under a freshly allocated block.

        Best-effort: when the pool cannot offer enough distinct servers
        the chain starts short (counted as ``chain.degraded``) and is
        re-extended by :meth:`repair_chain` once capacity appears.
        Returns None at replication factor 1.
        """
        if self.replication_factor < 2:
            return None
        exclude = {primary.server_id}
        backups: List[Block] = []
        while len(backups) < self.replication_factor - 1:
            try:
                backup = self.pool.allocate(exclude=exclude)
            except CapacityError:
                break
            if backup.server_id in exclude:
                # A tiered pool may fall back to a spill server already
                # in the chain; hand it back rather than violate the
                # distinct-server invariant.
                self.pool.reclaim(backup.block_id)
                break
            exclude.add(backup.server_id)
            backups.append(backup)
        chain = ReplicatedBlock([primary] + backups)
        self.chains[primary.block_id] = chain
        for backup in backups:
            self._backup_index[backup.block_id] = primary.block_id
        primary._on_write = chain.forward
        self._c_attached.inc()
        if chain.length < self.replication_factor:
            self._c_degraded.inc()
        return chain

    def release(self, primary_id: BlockId) -> int:
        """Tear down a chain when its head is reclaimed; returns backups
        returned to the pool."""
        chain = self.chains.pop(primary_id, None)
        if chain is None:
            return 0
        chain.head._on_write = None
        freed = 0
        for backup in chain.chain[1:]:
            self._backup_index.pop(backup.block_id, None)
            try:
                self.pool.reclaim(backup.block_id)
                freed += 1
            except BlockError:
                pass  # backup's server already left the pool
        return freed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def is_backup(self, block_id: BlockId) -> bool:
        return block_id in self._backup_index

    def primary_of(self, backup_id: BlockId) -> BlockId:
        return self._backup_index[backup_id]

    def chain_servers(self, primary_id: BlockId) -> set:
        """Servers hosting any replica of a chain (placement exclusion)."""
        chain = self.chains.get(primary_id)
        if chain is None:
            return set()
        return {b.server_id for b in chain.chain}

    def degraded_chains(self) -> List[BlockId]:
        """Chain heads currently shorter than the replication factor."""
        return [
            primary_id
            for primary_id, chain in self.chains.items()
            if chain.length < self.replication_factor
        ]

    # ------------------------------------------------------------------
    # Failure-time transitions
    # ------------------------------------------------------------------

    def promote(self, primary_id: BlockId, dead_server: str) -> Optional[Block]:
        """Head's server died: the first survivor becomes the new head.

        Returns the promoted block (its payload is the committed state —
        every write's op ran on each replica before acking), or None when no
        replica survived.
        """
        chain = self.chains.pop(primary_id, None)
        if chain is None:
            return None
        survivors = [b for b in chain.chain if b.server_id != dead_server]
        if not survivors:
            return None
        for block in survivors:
            self._backup_index.pop(block.block_id, None)
        chain.chain = survivors
        new_head = survivors[0]
        self.chains[new_head.block_id] = chain
        for backup in survivors[1:]:
            self._backup_index[backup.block_id] = new_head.block_id
        new_head._on_write = chain.forward
        self._c_promotions.inc()
        return new_head

    def drop_backup(self, backup_id: BlockId) -> Optional[BlockId]:
        """A backup's server died: splice it out; returns the chain head
        whose chain is now short (repair candidate)."""
        primary_id = self._backup_index.pop(backup_id, None)
        if primary_id is None:
            return None
        chain = self.chains.get(primary_id)
        if chain is not None:
            chain.chain = [b for b in chain.chain if b.block_id != backup_id]
        return primary_id

    def repair_chain(self, primary_id: BlockId) -> bool:
        """Extend a short chain by one replica (background repair step).

        Returns True when a replica was added; False when the chain is
        already full, gone, or the pool has no eligible server. The new
        replica starts from a deep copy of the tail — the one place a
        whole payload is copied; later writes reach it as forwarded ops.
        """
        chain = self.chains.get(primary_id)
        if chain is None or chain.length >= self.replication_factor:
            return False
        exclude = {b.server_id for b in chain.chain}
        try:
            new_replica = self.pool.allocate(exclude=exclude)
        except CapacityError:
            return False
        if new_replica.server_id in exclude:
            self.pool.reclaim(new_replica.block_id)
            return False

        def copy_payload(src: Block, dst: Block) -> None:
            dst.payload = copy.deepcopy(src.payload)
            dst.mirror_used(src.used)
            dst._sealed = src.sealed

        chain.repair(new_replica, copy_payload)
        self._backup_index[new_replica.block_id] = primary_id
        self._c_repairs.inc()
        return True

    def move_backup(self, backup_id: BlockId) -> Optional[BlockId]:
        """Relocate a backup off its (draining) server.

        Returns the replacement block id, or None when no eligible
        server has room (the drain retries later).
        """
        primary_id = self._backup_index.get(backup_id)
        if primary_id is None:
            return None
        chain = self.chains.get(primary_id)
        if chain is None:
            return None
        old = next(b for b in chain.chain if b.block_id == backup_id)
        exclude = {b.server_id for b in chain.chain}
        try:
            new = self.pool.allocate(exclude=exclude)
        except CapacityError:
            return None
        if new.server_id in exclude:
            self.pool.reclaim(new.block_id)
            return None
        new.payload = old.payload
        new.mirror_used(old.used)
        new._sealed = old.sealed
        chain.chain[chain.chain.index(old)] = new
        del self._backup_index[backup_id]
        self._backup_index[new.block_id] = primary_id
        self.pool.reclaim(backup_id)
        self._c_backups_moved.inc()
        return new.block_id

    def reattach(self, old_primary_id: BlockId, new_head: Block) -> None:
        """Swap the chain head after the controller migrated the primary
        to a new server (drain-and-migrate path)."""
        chain = self.chains.pop(old_primary_id, None)
        if chain is None:
            return
        chain.chain[0]._on_write = None
        chain.chain[0] = new_head
        self.chains[new_head.block_id] = chain
        for backup in chain.chain[1:]:
            self._backup_index[backup.block_id] = new_head.block_id
        new_head._on_write = chain.forward

    def __repr__(self) -> str:
        return (
            f"ReplicaManager(rf={self.replication_factor}, "
            f"chains={len(self.chains)})"
        )
