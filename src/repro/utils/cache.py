"""Small bounded caches shared by the simulation layers.

The emission oracles are expensive to build (per-position numpy draws) but
cheap to keep, so model-level caches want LRU semantics: hold the working
set of a corpus run, evict the oldest entries once a long-lived model has
seen many distinct utterances.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, KeysView, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A bounded mapping evicting the least-recently-used entry.

    ``maxsize <= 0`` disables the bound (unbounded cache).
    """

    __slots__ = ("maxsize", "_data", "hits", "misses", "evictions")

    def __init__(self, maxsize: int = 64) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict[K, V] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: K) -> V | None:
        data = self._data
        value = data.get(key)
        if value is None:
            self.misses += 1
            return None
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if self.maxsize > 0:
            while len(data) > self.maxsize:
                data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()

    def keys(self) -> KeysView[K]:
        return self._data.keys()
