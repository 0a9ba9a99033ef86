"""TTL'd query-result cache for the serving layer.

The service cannot rely on callers invalidating answers after a graph
mutation, so its cache is defensive on both axes:

* every key embeds ``graph.version`` and the live epoch — a mutation
  or an applied update makes old entries unreachable without any
  invalidation call;
* every entry carries a TTL — even version-stable answers age out, so
  a long-running service's memory is bounded by churn as well as by
  the LRU capacity.

Which queries may be cached is the estimator registry's call
(:func:`repro.estimators.is_cacheable`): deterministic estimators
(``lb``, ``lb+``, ``exact``) always, sampling estimators (and
``auto``, which may pick one) only under an explicit seed.  The
service also skips budgeted queries (their answers depend on
wall-clock load) and never stores a degraded answer.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence, Tuple, Union

from ..core.engine import QueryResult

__all__ = ["CacheStats", "TTLResultCache"]


@dataclass
class CacheStats:
    """Hit/miss counters of a :class:`TTLResultCache`; the metrics
    snapshot and ``repro stats --metrics`` render them."""

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    evictions: int = 0
    #: Entries dropped because their TTL lapsed.
    expirations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of cacheable queries answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-able snapshot (used by the service metrics endpoint)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "hit_rate": self.hit_rate,
        }


class TTLResultCache:
    """Thread-safe LRU + TTL cache of :class:`QueryResult` objects.

    Parameters
    ----------
    capacity:
        Maximum number of entries (LRU-evicted beyond it).
    ttl_seconds:
        Lifetime of every entry; ``None`` disables expiry (pure LRU).
    clock:
        Injectable monotonic clock (tests freeze it).
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl_seconds: Optional[float] = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be positive or None, got {ttl_seconds}"
            )
        self._capacity = capacity
        self._ttl = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Tuple[float, QueryResult]]" = (
            OrderedDict()
        )
        self.stats = CacheStats()

    @staticmethod
    def make_key(
        graph_version: int,
        sources: Union[int, Sequence[int]],
        eta: float,
        method: str,
        num_samples: int,
        seed: Optional[int],
        multi_source_mode: str,
        max_hops: Optional[int],
    ) -> Hashable:
        """The full query signature, including the graph version.

        Source order is irrelevant to the answer, so sources are keyed
        as a frozenset.
        """
        if isinstance(sources, int):
            source_key: Hashable = frozenset((sources,))
        else:
            source_key = frozenset(sources)
        return (
            graph_version, source_key, eta, method, num_samples, seed,
            multi_source_mode, max_hops,
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[QueryResult]:
        """The cached result for *key*, or ``None`` (miss or expired)."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            expires_at, result = entry
            if self._ttl is not None and now >= expires_at:
                del self._entries[key]
                self.stats.expirations += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return result

    def put(self, key: Hashable, result: QueryResult) -> None:
        """Insert *result*; evicts the LRU entry beyond capacity."""
        expires_at = (
            self._clock() + self._ttl if self._ttl is not None else float("inf")
        )
        with self._lock:
            self._entries[key] = (expires_at, result)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def record_bypass(self) -> None:
        """Count a query that was not cacheable by contract."""
        with self._lock:
            self.stats.bypasses += 1
