"""Base machinery shared by Jiffy data structures.

Implements the internal block API of Fig 6 in spirit: each data structure
routes operations to blocks (``getBlock``), reads block payloads directly
and mutates them only through :meth:`Block.apply` (so a replicated
block's backups receive the same op, §4.2.2), and — the paper's key
mechanism (§3.3) — watches
block usage against the high/low thresholds, signalling the controller to
allocate or reclaim blocks and repartitioning data *inside the data
plane* so compute tasks never move bytes themselves.

Repartitioning cost is modelled (the in-process move is instant): the
paper reports ~1–1.5 ms to connect to the controller plus two EC2 round
trips for the control exchange, plus the data-move time over a 10 Gbps
link; each event is recorded with its modelled latency so Fig 11(b) can
be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional

from repro.blocks.block import Block
from repro.core.hierarchy import AddressNode
from repro.core.plane import ControlPlane
from repro.core.notifications import Listener, NotificationBroker
from repro.errors import CapacityError, LeaseExpiredError
from repro.sim.background import BackgroundScheduler
from repro.sim.network import NetworkModel

#: Modelled cost of the memory server establishing a controller
#: connection during a repartition (§6.3: "~1-1.5ms").
CONTROLLER_CONNECT_S = 1.25e-3

#: Accounting overhead per stored item (object headers, length prefixes).
ITEM_OVERHEAD_BYTES = 16


@dataclass(frozen=True)
class RepartitionEvent:
    """One block split/merge, with its modelled end-to-end latency."""

    timestamp: float
    kind: str  # "split" | "merge" | "extend" | "shrink"
    bytes_moved: int
    latency_s: float


class DataStructure:
    """A data structure bound to one address prefix of one job."""

    DS_TYPE = "abstract"

    def __init__(
        self,
        controller: ControlPlane,
        job_id: str,
        prefix: str,
        network: Optional[NetworkModel] = None,
        scheduler: Optional[BackgroundScheduler] = None,
    ) -> None:
        self.controller = controller
        self.job_id = job_id
        self.prefix = prefix
        self.network = network if network is not None else NetworkModel()
        self.telemetry = controller.telemetry
        # Background maintenance (repartition migrations, §3.3) runs on
        # this scheduler. The default is a private cooperative scheduler:
        # foreground ops donate small step budgets (_poll_background),
        # which is deterministic and backend-independent. Callers that
        # own an event loop pass ``scheduler=`` bound to it (and
        # optionally to an RpcServer executor) so background work is
        # driven by simulated time and contends for server cores.
        self.background = (
            scheduler
            if scheduler is not None
            else BackgroundScheduler(
                clock=controller.clock, registry=controller.telemetry
            )
        )
        self.broker = NotificationBroker(
            controller.clock, registry=controller.telemetry
        )
        self.repartition_events: List[RepartitionEvent] = []
        self._expired = False
        # Coherence epoch (§3.2 lease epochs, generalised): bumped
        # whenever data may have moved out from under a client-side
        # cache — repartition slot cut-overs, membership-driven block
        # relocation or loss, lease expiry, and external reloads. Each
        # bump publishes an ``"invalidate"`` notification carrying the
        # new epoch and (when known) the affected hash slots, so cached
        # views can invalidate precisely; entries are tagged with the
        # epoch at fill time as the conservative backstop.
        self._epoch = 0
        # Registration carries the initial partitioning so data-structure
        # init is ONE control-plane operation (one RPC on the remote
        # backend) — subclasses set their partition state before calling
        # up to this constructor.
        self._meta = controller.register_datastructure(
            job_id,
            prefix,
            self.DS_TYPE,
            self,
            partitioning=self._initial_partitioning(),
        )

    def _initial_partitioning(self) -> Optional[Mapping[str, Any]]:
        """The partition map to seed at registration (None for none)."""
        return None

    # ------------------------------------------------------------------
    # Background maintenance
    # ------------------------------------------------------------------

    def _poll_background(self) -> None:
        """Donate a small step budget to pending background work.

        Called at the top of foreground operations; a no-op when the
        scheduler is idle, loop-driven, or the budget is 0.
        """
        budget = self.controller.config.repartition_poll_budget
        if budget:
            self.background.poll(budget)

    def drain_background(self) -> int:
        """Run all pending background work to completion; returns steps.

        Barriers (stage boundaries, verification points) use this to
        reach the quiesced state the synchronous path would have
        produced.
        """
        return self.background.drain()

    # ------------------------------------------------------------------
    # Node/lease plumbing
    # ------------------------------------------------------------------

    @property
    def node(self) -> AddressNode:
        return self.controller.hierarchy(self.job_id).get_node(self.prefix)

    @property
    def expired(self) -> bool:
        return self._expired

    def _check_alive(self) -> None:
        if self._expired:
            raise LeaseExpiredError(
                f"lease expired for {self.job_id}:{self.prefix}; data was "
                "flushed to the external store — use loadAddrPrefix to restore"
            )

    def _on_expiry_reclaimed(self) -> None:
        """Controller hook: our blocks were reclaimed on lease expiry."""
        self._expired = True
        self._reset_partition_state()
        self._bump_epoch("expired")

    def _on_blocks_relocated(self, block_ids: List[str], lost: bool = False) -> None:
        """Controller hook: membership change moved (or lost) our blocks.

        Drain-and-migrate forwards block ids so routing survives, but a
        client-side cache cannot assume its invalidation stream covered
        the move — conservatively bump the epoch so cached entries for
        this prefix are re-fetched (InfiniStore's elasticity constraint).
        A kill with data loss must invalidate too: serving a cached value
        for data the uncached path would fail to find is incoherent.
        """
        self._bump_epoch("lost" if lost else "relocated")

    def _rebind_block(self, old_id: str, new_id: str) -> None:
        """Controller hook: one block's identity changed (tier move).

        Drains forward old ids forever (a drained server's ids never
        return), but a tier move frees the old id for reuse — any
        *internal* reference the layout keeps to it must be rewritten,
        not resolved through the forward table. Subclasses with
        id-keyed layout state (file chunk lists, queue segment chains,
        KV slot maps) override this; structures that only ever reach
        blocks through ``node.block_ids`` need nothing.
        """

    def _revive(self) -> None:
        self._expired = False
        # Reviving implies a fresh lease: clear the node's expired mark
        # (so the controller accepts allocations again) and restart its
        # lease clock.
        self.controller.start_lease(self.job_id, self.prefix)

    def renew_lease(self) -> int:
        """Convenience: renew this prefix's lease (DAG-propagated)."""
        return self.controller.renew_lease(self.job_id, self.prefix)

    # ------------------------------------------------------------------
    # Block plumbing
    # ------------------------------------------------------------------

    @property
    def block_size(self) -> int:
        return self.controller.config.block_size

    @property
    def high_limit(self) -> int:
        """Usable bytes per block before the high threshold trips."""
        return int(self.block_size * self.controller.config.high_threshold)

    @property
    def low_limit(self) -> int:
        """Bytes below which a block becomes a merge candidate."""
        return int(self.block_size * self.controller.config.low_threshold)

    def _allocate_block(self) -> Block:
        """Overload-signal path: ask the controller for one more block."""
        block = self.controller.try_allocate_block(self.job_id, self.prefix)
        if block is None:
            raise CapacityError(
                f"no free blocks for {self.job_id}:{self.prefix}"
            )
        return block

    def _reclaim_block(self, block: Block) -> None:
        """Underload path: hand a drained block back to the controller."""
        self.controller.reclaim_block(self.job_id, self.prefix, block.block_id)

    def _get_block(self, block_id: str) -> Block:
        return self.controller.get_block(block_id, self.job_id)

    def _reclaim_all_blocks(self) -> None:
        """Release every block of this prefix (load-from-scratch path).

        Uses the bulk control op so teardown is one request on backends
        with a wire in the path, not one per block.
        """
        block_ids = [block.block_id for block in self.blocks()]
        if block_ids:
            self.controller.reclaim_blocks(self.job_id, self.prefix, block_ids)

    def blocks(self) -> List[Block]:
        """Live blocks currently allocated to this prefix."""
        return self.controller.blocks_of(self.job_id, self.prefix)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def allocated_bytes(self) -> int:
        return len(self.node.block_ids) * self.block_size

    def used_bytes(self) -> int:
        return sum(b.used for b in self.blocks())

    def utilization(self) -> float:
        allocated = self.allocated_bytes()
        return (self.used_bytes() / allocated) if allocated else 1.0

    # ------------------------------------------------------------------
    # Repartitioning cost model
    # ------------------------------------------------------------------

    def _record_repartition(self, kind: str, bytes_moved: int) -> RepartitionEvent:
        latency = (
            CONTROLLER_CONNECT_S
            + self.network.rtt()  # trigger allocation / reclamation
            + self.network.rtt()  # partition-metadata update
        )
        if bytes_moved:
            latency += self.network.transfer(bytes_moved)
        event = RepartitionEvent(
            timestamp=self.controller.clock.now(),
            kind=kind,
            bytes_moved=bytes_moved,
            latency_s=latency,
        )
        self.repartition_events.append(event)
        self.telemetry.counter(
            "ds.repartitions", ds=self.DS_TYPE, kind=kind, job=self.job_id
        ).inc()
        self.telemetry.histogram(
            "ds.repartition.moved_bytes", ds=self.DS_TYPE, kind=kind, job=self.job_id
        ).record(float(bytes_moved))
        return event

    # ------------------------------------------------------------------
    # Notifications (Table 1)
    # ------------------------------------------------------------------

    def subscribe(self, op: str) -> Listener:
        """Subscribe to operations of type ``op`` on this data structure."""
        return self.broker.subscribe(op)

    def _publish(self, op: str, data: Any = None) -> None:
        self.broker.publish(op, data)

    # ------------------------------------------------------------------
    # Coherence epochs (client-cache invalidation)
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Current coherence epoch of this prefix (monotonic)."""
        return self._epoch

    def _bump_epoch(
        self, reason: str, slots: Optional[List[int]] = None
    ) -> int:
        """Advance the coherence epoch and publish the invalidation.

        ``slots`` names the affected hash slots when the change is
        slot-granular (KV repartition cut-overs); ``None`` means the
        whole prefix must be considered stale. Returns the new epoch.
        """
        self._epoch += 1
        self._publish(
            "invalidate",
            {"reason": reason, "epoch": self._epoch, "slots": slots},
        )
        self.telemetry.counter(
            "ds.epoch_bumps", ds=self.DS_TYPE, reason=reason, job=self.job_id
        ).inc()
        return self._epoch

    # ------------------------------------------------------------------
    # Persistence interface used by the controller
    # ------------------------------------------------------------------

    def flush_to(self, store, external_path: str) -> int:
        """Serialise contents into the external store; returns bytes."""
        raise NotImplementedError

    def load_from(self, store, external_path: str) -> int:
        """Restore contents from the external store; returns bytes."""
        raise NotImplementedError

    def _reset_partition_state(self) -> None:
        """Clear any client-side partition caching after reclamation."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.job_id}:{self.prefix}, "
            f"blocks={len(self.node.block_ids)})"
        )
