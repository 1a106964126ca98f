"""The fixed-size memory block — Jiffy's unit of allocation.

A block is "raw memory" from the allocator's point of view; the data
structure that owns it (file chunk, queue segment, KV hash-slot shard)
defines the layout, mutates it only through :meth:`Block.apply` (one
payload op plus its usage delta, forwarded down a replica chain when the
block heads one) and reports pure usage changes through
:meth:`Block.set_used`.
Usage drives the §3.3 elastic-scaling thresholds: crossing the high
threshold raises an overload signal to the controller, and falling below
the low threshold makes the block a merge candidate.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import BlockError

#: Blocks are identified by opaque strings unique within a pool.
BlockId = str

#: One payload mutation, run as ``op(payload, *args)`` (see :meth:`Block.apply`).
PayloadOp = Callable[..., Any]

#: Write hook signature: ``hook(head, op, args)``; ``op`` is None for a
#: usage-only or seal change.
WriteHook = Callable[["Block", Optional[PayloadOp], Tuple[Any, ...]], None]


class Block:
    """A fixed-capacity memory block on a specific memory server.

    Attributes:
        block_id: pool-unique identifier.
        server_id: hosting :class:`~repro.blocks.server.MemoryServer` id.
        capacity: usable bytes.
        payload: data-structure-owned storage (layout is opaque here).
    """

    __slots__ = (
        "block_id",
        "server_id",
        "capacity",
        "payload",
        "tier",
        "acc",
        "heat",
        "tier_since",
        "tier_moves",
        "_used",
        "_sealed",
        "_on_write",
        "_acct",
    )

    def __init__(
        self,
        block_id: BlockId,
        server_id: str,
        capacity: int,
        tier: str = "dram",
    ) -> None:
        if capacity <= 0:
            raise BlockError(f"block capacity must be positive, got {capacity}")
        self.block_id = block_id
        self.server_id = server_id
        self.capacity = capacity
        self.payload: Dict[str, Any] = {}
        #: storage tier backing this block ("dram", or a spill tier name)
        self.tier = tier
        #: raw access count since the tier manager's last scan — bumped
        #: inline on the read/write path (one integer add, no RPC).
        self.acc = 0
        #: decayed access frequency, maintained by the tier manager.
        self.heat = 0.0
        #: clock time of the last tier transition (dwell accounting).
        self.tier_since = 0.0
        #: lifetime promote+demote count (thrash diagnostics).
        self.tier_moves = 0
        self._used = 0
        self._sealed = False
        # Write hook: chain replication (§4.2.2) attaches here so every
        # write on a chain head — the payload op plus the usage and seal
        # it leaves behind — is forwarded down the chain before the
        # write is acknowledged. None on unreplicated blocks — the
        # common path pays a single attribute check.
        self._on_write: Optional[WriteHook] = None
        # Accounting hook: the hosting server installs this so usage
        # changes update its running used-bytes total incrementally
        # (keeps server/pool ``used_bytes()`` O(1)). Receives the delta.
        self._acct: Optional[Callable[[int], None]] = None

    @property
    def used(self) -> int:
        """Bytes currently accounted as used by the owning data structure."""
        return self._used

    @property
    def free(self) -> int:
        """Bytes still available in the block."""
        return self.capacity - self._used

    @property
    def usage(self) -> float:
        """Fraction of capacity in use, in [0, 1]."""
        return self._used / self.capacity

    @property
    def sealed(self) -> bool:
        """Sealed blocks reject further writes (used by file chunks)."""
        return self._sealed

    def seal(self) -> None:
        """Mark the block read-only for the owning data structure."""
        self._sealed = True
        if self._on_write is not None:
            self._on_write(self, None, ())

    def apply(self, op: PayloadOp, *args: Any, delta: int = 0) -> Any:
        """One write: run ``op(payload, *args)``, then move usage by ``delta``.

        Every payload mutation of a data structure goes through here, so
        a chain head's write hook can forward the *operation* — the same
        ``op`` and ``args`` — to each backup (§4.2.2), which then equals
        the head by construction. ``op`` must build any container it
        installs afresh and ``args`` must be immutable, so no two
        replicas ever share a mutable payload object. Returns what
        ``op`` returns on this block.
        """
        if delta:
            used = self._used + delta
            if not 0 <= used <= self.capacity:
                self._check_used(used)  # raises, naming the bound broken
            result = op(self.payload, *args)
            if self._acct is not None:
                self._acct(delta)
            self._used = used
        else:
            result = op(self.payload, *args)
        self.acc += 1
        if self._on_write is not None:
            self._on_write(self, op, args)
        return result

    def _check_used(self, used: int) -> None:
        if used < 0:
            raise BlockError(f"used bytes must be >= 0, got {used}")
        if used > self.capacity:
            raise BlockError(
                f"used={used} exceeds capacity={self.capacity} "
                f"for block {self.block_id}"
            )

    def set_used(self, used: int) -> None:
        """Record the owning data structure's usage accounting."""
        self._check_used(used)
        if self._acct is not None and used != self._used:
            self._acct(used - self._used)
        self._used = used
        self.acc += 1
        if self._on_write is not None:
            self._on_write(self, None, ())

    def mirror_used(self, used: int) -> None:
        """Set usage without firing the write hook.

        Replica maintenance (chain forwarding, block moves) mirrors the
        head's usage onto a backup; firing ``_on_write`` there would
        re-enter the chain. Accounting still sees the change.
        """
        if self._acct is not None and used != self._used:
            self._acct(used - self._used)
        self._used = used

    def add_used(self, delta: int) -> None:
        """Adjust usage by ``delta`` bytes (may be negative)."""
        self.set_used(self._used + delta)

    def fits(self, nbytes: int) -> bool:
        """Whether ``nbytes`` more bytes fit in the block."""
        return nbytes <= self.free

    def touch(self) -> None:
        """Record one access for tier-heat tracking (read-path hook)."""
        self.acc += 1

    def reset(self) -> None:
        """Clear payload and usage; called when the block is reclaimed."""
        self.payload = {}
        if self._acct is not None and self._used:
            self._acct(-self._used)
        self._used = 0
        self.acc = 0
        self.heat = 0.0
        self.tier_since = 0.0
        self.tier_moves = 0
        self._sealed = False
        self._on_write = None

    def above(self, high_threshold: float) -> bool:
        """Whether usage exceeds the scale-up threshold."""
        return self.usage > high_threshold

    def below(self, low_threshold: float) -> bool:
        """Whether usage is under the scale-down threshold."""
        return self.usage < low_threshold

    def __repr__(self) -> str:
        return (
            f"Block(id={self.block_id!r}, server={self.server_id!r}, "
            f"used={self._used}/{self.capacity})"
        )
