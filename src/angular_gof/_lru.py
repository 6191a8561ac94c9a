"""A least-recently-used cache bounded by the bytes of its entries' arrays."""

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
    bytes; the entry just looked up is always kept."""

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
