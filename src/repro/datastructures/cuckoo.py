"""A cuckoo hash table (§5.3: "Jiffy employs cuckoo hashing ... for
highly concurrent KV operations", via libcuckoo in the C++ original).

Two hash functions over bucketised arrays (4 slots per bucket, the
libcuckoo default); inserts displace residents along a random walk with a
bounded number of kicks, falling back to a grow-and-rehash. Lookups probe
at most two buckets, which is the property the paper leans on and the one
the chained-vs-cuckoo ablation (`benchmarks/test_ablations.py`) measures.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import KeyNotFoundError

class _EmptySlot:
    """Empty-slot sentinel, compared by identity (``is _EMPTY``).

    A singleton that survives ``copy``/``deepcopy``/pickle as itself:
    chain repair seeds a new replica with a deep copy of a block payload,
    and a cloned sentinel would defeat every identity check on the copy,
    surfacing empty slots as live entries after a promotion.
    """

    _instance: Optional["_EmptySlot"] = None

    def __new__(cls) -> "_EmptySlot":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __copy__(self) -> "_EmptySlot":
        return self

    def __deepcopy__(self, memo: Any) -> "_EmptySlot":
        return self

    def __reduce__(self):
        return (_EmptySlot, ())

    def __repr__(self) -> str:
        return "<empty-slot>"


_EMPTY = _EmptySlot()

#: Slots per bucket (libcuckoo default).
BUCKET_SLOTS = 4

#: Maximum displacement steps before growing the table.
MAX_KICKS = 500


def _hash_bytes(key: bytes, seed: int) -> int:
    digest = hashlib.blake2b(key, digest_size=8, person=seed.to_bytes(8, "little"))
    return int.from_bytes(digest.digest(), "little")


class CuckooHashTable:
    """An open-addressing cuckoo hash map from bytes/str keys to values."""

    def __init__(self, initial_buckets: int = 8, rng: Optional[random.Random] = None) -> None:
        if initial_buckets < 1:
            raise ValueError("initial_buckets must be >= 1")
        self._num_buckets = initial_buckets
        self._table: List[List[Any]] = self._new_table(initial_buckets)
        self._size = 0
        self._rng = rng if rng is not None else random.Random(0x5EED)
        # Instrumentation for the hashing ablation.
        self.probes = 0
        self.kicks = 0
        self.rehashes = 0

    @staticmethod
    def _new_table(num_buckets: int) -> List[List[Any]]:
        # Two logical tables laid out as 2 * num_buckets buckets.
        return [[_EMPTY] * BUCKET_SLOTS for _ in range(2 * num_buckets)]

    @staticmethod
    def _canonical(key: Any) -> bytes:
        if isinstance(key, bytes):
            return key
        if isinstance(key, str):
            return key.encode()
        raise TypeError(f"keys must be str or bytes, got {type(key).__name__}")

    def _buckets_for(self, key_bytes: bytes) -> Tuple[int, int]:
        b1 = _hash_bytes(key_bytes, 1) % self._num_buckets
        b2 = self._num_buckets + _hash_bytes(key_bytes, 2) % self._num_buckets
        return b1, b2

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        return self._find(self._canonical(key)) is not None

    def _find(self, key_bytes: bytes) -> Optional[Tuple[int, int]]:
        """Locate ``(bucket, slot)`` for a key, probing both buckets."""
        for bucket in self._buckets_for(key_bytes):
            self.probes += 1
            row = self._table[bucket]
            for slot in range(BUCKET_SLOTS):
                entry = row[slot]
                if entry is not _EMPTY and entry[0] == key_bytes:
                    return bucket, slot
        return None

    def get(self, key: Any, default: Any = _EMPTY) -> Any:
        """Return the value for ``key``; raises KeyNotFoundError if absent
        and no ``default`` is given."""
        loc = self._find(self._canonical(key))
        if loc is None:
            if default is _EMPTY:
                raise KeyNotFoundError(f"key not found: {key!r}")
            return default
        bucket, slot = loc
        return self._table[bucket][slot][1]

    def put(self, key: Any, value: Any) -> bool:
        """Insert or update; returns True if the key was newly inserted."""
        key_bytes = self._canonical(key)
        loc = self._find(key_bytes)
        if loc is not None:
            bucket, slot = loc
            self._table[bucket][slot] = (key_bytes, value)
            return False
        self._insert_new(key_bytes, value)
        self._size += 1
        return True

    def _insert_new(self, key_bytes: bytes, value: Any) -> None:
        entry = (key_bytes, value)
        for _ in range(MAX_KICKS):
            b1, b2 = self._buckets_for(entry[0])
            for bucket in (b1, b2):
                row = self._table[bucket]
                for slot in range(BUCKET_SLOTS):
                    if row[slot] is _EMPTY:
                        row[slot] = entry
                        return
            # Both buckets full: evict a random resident from one of them
            # and re-place it (the cuckoo random walk).
            victim_bucket = self._rng.choice((b1, b2))
            victim_slot = self._rng.randrange(BUCKET_SLOTS)
            entry, self._table[victim_bucket][victim_slot] = (
                self._table[victim_bucket][victim_slot],
                entry,
            )
            self.kicks += 1
        # Displacement failed: grow and retry recursively.
        self._grow()
        self._insert_new(entry[0], entry[1])

    def _grow(self) -> None:
        self.rehashes += 1
        old_table = self._table
        self._num_buckets *= 2
        self._table = self._new_table(self._num_buckets)
        for row in old_table:
            for entry in row:
                if entry is not _EMPTY:
                    self._insert_new(entry[0], entry[1])

    def delete(self, key: Any) -> Any:
        """Remove a key; returns its value. Raises if absent."""
        loc = self._find(self._canonical(key))
        if loc is None:
            raise KeyNotFoundError(f"key not found: {key!r}")
        bucket, slot = loc
        value = self._table[bucket][slot][1]
        self._table[bucket][slot] = _EMPTY
        self._size -= 1
        return value

    def pop_all(self) -> List[Tuple[bytes, Any]]:
        """Drain the table, returning every (key, value) pair."""
        items = list(self.items())
        self._table = self._new_table(self._num_buckets)
        self._size = 0
        return items

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        """Iterate (key, value) pairs in arbitrary order."""
        for row in self._table:
            for entry in row:
                if entry is not _EMPTY:
                    yield entry

    def keys(self) -> Iterator[bytes]:
        for key, _ in self.items():
            yield key

    @property
    def load_factor(self) -> float:
        return self._size / (2 * self._num_buckets * BUCKET_SLOTS)

    def __repr__(self) -> str:
        return (
            f"CuckooHashTable(size={self._size}, buckets={2 * self._num_buckets}, "
            f"load={self.load_factor:.2f})"
        )


class ChainedHashTable:
    """A plain chained hash table — the baseline for the cuckoo ablation.

    Matches :class:`CuckooHashTable`'s interface and probe accounting:
    every chain entry inspected counts as a probe, so skew-heavy
    workloads show the probe gap cuckoo hashing avoids.
    """

    def __init__(self, initial_buckets: int = 16) -> None:
        self._num_buckets = max(1, initial_buckets)
        self._buckets: List[List[Tuple[bytes, Any]]] = [
            [] for _ in range(self._num_buckets)
        ]
        self._size = 0
        self.probes = 0
        self.rehashes = 0

    _canonical = staticmethod(CuckooHashTable._canonical)

    def _bucket_of(self, key_bytes: bytes) -> List[Tuple[bytes, Any]]:
        return self._buckets[_hash_bytes(key_bytes, 1) % self._num_buckets]

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        key_bytes = self._canonical(key)
        for entry_key, _ in self._bucket_of(key_bytes):
            self.probes += 1
            if entry_key == key_bytes:
                return True
        return False

    def get(self, key: Any, default: Any = _EMPTY) -> Any:
        key_bytes = self._canonical(key)
        for entry_key, value in self._bucket_of(key_bytes):
            self.probes += 1
            if entry_key == key_bytes:
                return value
        if default is _EMPTY:
            raise KeyNotFoundError(f"key not found: {key!r}")
        return default

    def put(self, key: Any, value: Any) -> bool:
        key_bytes = self._canonical(key)
        bucket = self._bucket_of(key_bytes)
        for i, (entry_key, _) in enumerate(bucket):
            self.probes += 1
            if entry_key == key_bytes:
                bucket[i] = (key_bytes, value)
                return False
        bucket.append((key_bytes, value))
        self._size += 1
        if self._size > 4 * self._num_buckets:
            self._grow()
        return True

    def _grow(self) -> None:
        self.rehashes += 1
        entries = [e for bucket in self._buckets for e in bucket]
        self._num_buckets *= 2
        self._buckets = [[] for _ in range(self._num_buckets)]
        for key_bytes, value in entries:
            self._buckets[_hash_bytes(key_bytes, 1) % self._num_buckets].append(
                (key_bytes, value)
            )

    def delete(self, key: Any) -> Any:
        key_bytes = self._canonical(key)
        bucket = self._bucket_of(key_bytes)
        for i, (entry_key, value) in enumerate(bucket):
            self.probes += 1
            if entry_key == key_bytes:
                del bucket[i]
                self._size -= 1
                return value
        raise KeyNotFoundError(f"key not found: {key!r}")

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        for bucket in self._buckets:
            yield from bucket
