"""Query-result caching for repeated reliability-search workloads.

The paper's applications issue reliability-search queries at a high
rate, often with repeating source sets (the influence-maximization loop
of Section 7.7 re-evaluates ``RS(S ∪ {w}, η_i)`` for overlapping seed
sets; monitoring workloads poll the same sources).  The index itself is
read-only at query time, so answers are safely memoizable until the
graph changes.

:class:`CachingRQTreeEngine` wraps any engine with an LRU cache keyed on
the full query signature.  Cacheability is decided by the estimator
registry (:func:`repro.estimators.is_cacheable`): deterministic
estimators (``lb``, ``lb+``, ``exact``) are always cacheable, sampling
estimators (and ``auto``, which may pick one) only under an explicit
seed.  Unseeded sampling queries bypass the cache because their answers
are intentionally non-deterministic.  Mutating the graph must be
followed by :meth:`invalidate`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from ..estimators import is_cacheable
from .engine import QueryResult, RQTreeEngine

__all__ = ["CacheStats", "CachingRQTreeEngine"]


@dataclass
class CacheStats:
    """Hit/miss counters for a query-result cache.

    Shared by :class:`CachingRQTreeEngine` and the serving layer's
    :class:`repro.service.cache.TTLResultCache`, so ``repro stats`` and
    the service metrics snapshot report both through one schema.
    """

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    evictions: int = 0
    #: Entries dropped because their TTL lapsed (always 0 for the
    #: un-TTL'd LRU cache).
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

    def as_rows(self):
        """``(metric, value)`` rows for the CLI's table renderer."""
        return list(self.as_dict().items())


class CachingRQTreeEngine:
    """LRU-cached facade over an :class:`RQTreeEngine`.

    Parameters
    ----------
    engine:
        The underlying engine (shared, not copied).
    capacity:
        Maximum number of cached query results; least-recently-used
        entries are evicted beyond it.
    """

    def __init__(self, engine: RQTreeEngine, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._engine = engine
        self._capacity = capacity
        self._cache: "OrderedDict[Tuple, QueryResult]" = OrderedDict()
        self.stats = CacheStats()

    @property
    def engine(self) -> RQTreeEngine:
        """The wrapped engine."""
        return self._engine

    @property
    def graph(self):
        """The underlying graph (convenience passthrough)."""
        return self._engine.graph

    @property
    def tree(self):
        """The underlying index tree (convenience passthrough)."""
        return self._engine.tree

    def __len__(self) -> int:
        return len(self._cache)

    def query(
        self,
        sources: Union[int, Sequence[int]],
        eta: float,
        method: str = "lb",
        num_samples: int = 1000,
        seed: Optional[int] = None,
        multi_source_mode: str = "greedy",
        max_hops: Optional[int] = None,
    ) -> QueryResult:
        """Answer a query, serving repeats from the cache.

        The cache key covers every parameter that affects the answer.
        Unseeded Monte-Carlo queries are never cached (their answers
        are fresh random draws by contract), and neither are degraded
        answers: a transient kernel failure must not be replayed to
        every later identical query.
        """
        source_key = (
            (sources,) if isinstance(sources, int)
            else tuple(sorted(set(sources)))
        )
        cacheable = is_cacheable(method, seed)
        if not cacheable:
            self.stats.bypasses += 1
            return self._engine.query(
                sources, eta, method=method, num_samples=num_samples,
                seed=seed, multi_source_mode=multi_source_mode,
                max_hops=max_hops,
            )
        key = (
            source_key, eta, method, num_samples, seed,
            multi_source_mode, max_hops,
        )
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        result = self._engine.query(
            sources, eta, method=method, num_samples=num_samples,
            seed=seed, multi_source_mode=multi_source_mode,
            max_hops=max_hops,
        )
        if result.degraded:
            return result
        self._cache[key] = result
        if len(self._cache) > self._capacity:
            self._cache.popitem(last=False)
            self.stats.evictions += 1
        return result

    def invalidate(self) -> None:
        """Drop every cached answer (call after any graph mutation)."""
        self._cache.clear()
