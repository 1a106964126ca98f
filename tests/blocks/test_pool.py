"""Memory pool: placement, cluster scaling, lookup routing."""

import pytest

from repro.blocks.pool import MemoryPool
from repro.errors import BlockError, CapacityError


@pytest.fixture
def pool():
    pool = MemoryPool(block_size=100)
    pool.add_server(num_blocks=2, server_id="a")
    pool.add_server(num_blocks=2, server_id="b")
    return pool


class TestPlacement:
    def test_least_loaded_placement(self, pool):
        first = pool.allocate()
        second = pool.allocate()
        # Should land on different servers (both start at load 0, then
        # the second goes to the other).
        assert first.server_id != second.server_id

    def test_exhaustion(self, pool):
        for _ in range(4):
            pool.allocate()
        with pytest.raises(CapacityError):
            pool.allocate()

    def test_reclaim_routes_to_hosting_server(self, pool):
        block = pool.allocate()
        pool.reclaim(block.block_id)
        assert pool.free_blocks == 4

    def test_get_block_roundtrip(self, pool):
        block = pool.allocate()
        assert pool.get_block(block.block_id) is block

    def test_unknown_block(self, pool):
        with pytest.raises(BlockError):
            pool.get_block("zzz:9")

    def test_allocated_on_server(self, pool):
        """The O(1) checks a drain step makes instead of listing blocks."""
        block = pool.allocate()
        other = "b" if block.server_id == "a" else "a"
        assert pool.is_allocated(block.block_id, block.server_id)
        assert not pool.is_allocated(block.block_id, other)
        assert pool.allocated_on(block.server_id) == 1
        assert pool.allocated_on(other) == 0
        pool.reclaim(block.block_id)
        assert not pool.is_allocated(block.block_id, block.server_id)
        assert pool.allocated_on(block.server_id) == 0


class TestClusterScaling:
    def test_add_server_generates_ids(self):
        pool = MemoryPool(block_size=10)
        sid0 = pool.add_server(1)
        sid1 = pool.add_server(1)
        assert sid0 != sid1
        assert pool.num_servers == 2

    def test_duplicate_server_rejected(self, pool):
        with pytest.raises(BlockError):
            pool.add_server(1, server_id="a")

    def test_remove_idle_server(self, pool):
        pool.remove_server("b")
        assert pool.num_servers == 1
        assert pool.total_blocks == 2

    def test_remove_busy_server_rejected(self, pool):
        # Allocate everything so both servers hold blocks.
        for _ in range(4):
            pool.allocate()
        with pytest.raises(BlockError):
            pool.remove_server("a")

    def test_capacity_grows_with_servers(self, pool):
        before = pool.capacity_bytes
        pool.add_server(4)
        assert pool.capacity_bytes == before + 400


class TestAccounting:
    def test_allocated_and_used_bytes(self, pool):
        block = pool.allocate()
        block.set_used(42)
        assert pool.allocated_bytes() == 100
        assert pool.used_bytes() == 42
        assert pool.allocated_blocks == 1

    def test_bad_block_size(self):
        with pytest.raises(BlockError):
            MemoryPool(block_size=0)
