"""One least-recently-used cache, bounded by the bytes of its entries'
arrays, for everything a command reuses (``CACHE``): angular laws by
(model, p), normal blocks by (seed, N, j) and draws by the whole input of
``simulate_L``.  The key shapes differ in length, so no two kinds collide."""

from __future__ import annotations

import numpy as np


def array_bytes(obj) -> int:
    """Bytes of an array, or of the numpy arrays among an object's attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


class ByteLRU:
    """Built values by key.  After each lookup the least recently used
    entries are evicted while all entries' arrays hold more than ``limit``
    bytes; the entry just looked up is always kept.  A build that raises
    keeps nothing under its key."""

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self._entries: dict = {}  # key -> (value, bytes), least recently used first

    def get(self, key, build):
        """The value under ``key``, from ``build()`` if there is none."""
        entry = self._entries.pop(key, None)
        if entry is None:
            value = build()
            entry = (value, array_bytes(value))
            self.nbytes += entry[1]
        self._entries[key] = entry
        while self.nbytes > self.limit and len(self._entries) > 1:
            self.nbytes -= self._entries.pop(next(iter(self._entries)))[1]
        return entry[0]


# Far above the working sets of the benchmark workloads: 47 laws (1.8 MiB)
# and 8 desk normal blocks (2 MiB) in a power study, 32 blocks (7.8 MiB) in
# pairs at B = 2000.  The largest CLI default, B = 4000 (pairs), needs 63
# blocks: 31.5 MiB on the paper grid, leaving room for some 800 laws of 512
# cells (40 KiB each) or 1,000 draws at B = 4000 (31 KiB each).
CACHE_BYTES = 64 * 2**20
CACHE = ByteLRU(CACHE_BYTES)
