"""ReliabilityService: one shared engine serving concurrent queries.

This is the facade the CLI's ``repro serve`` and the tests drive.  It
ties the serving-layer pieces together around a single
:class:`~repro.core.engine.RQTreeEngine` (or, with ``shards=K``, a
:class:`~repro.shard.ShardedRQTreeEngine` spanning ``K`` worker
processes — the request path is identical either way):

* requests enter through :meth:`submit` (non-blocking, returns a
  :class:`concurrent.futures.Future`) or :meth:`query` (blocking);
* :class:`~repro.service.pool.AdmissionPolicy` sheds requests beyond
  ``max_in_flight`` at the door, and stale requests at dequeue time —
  a shed request resolves to a *degraded* :class:`QueryResult` (empty,
  ``degraded=True``), never an exception;
* a :class:`~repro.service.cache.TTLResultCache` answers repeats of
  deterministic queries without touching the engine, and identical
  in-flight requests are *single-flighted* (followers piggyback on the
  leader's future instead of re-running the query);
* every sampled query draws its own coins from its own seed, so no
  query's answer depends on which others are in flight;
* everything records into a :class:`MetricsRegistry`
  (:meth:`metrics_snapshot` merges it with the result cache's
  statistics).

Determinism contract: for any fixed request, the answer produced
through the service — whatever the worker count, cache state, or
co-resident load — is byte-identical to calling
``engine.query(...)`` serially, except for *shed* requests, which are
explicitly degraded.  The parity tests in ``tests/test_service.py``
enforce this.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Union

from ..core.candidates import CandidateResult
from ..core.engine import QueryResult, RQTreeEngine
from ..estimators import is_cacheable, validate_method
from ..graph.uncertain import UncertainGraph
from ..resilience.budget import QueryBudget
from ..shard.engine import ShardedRQTreeEngine
from .cache import TTLResultCache
from .metrics import MetricsRegistry, get_registry
from .pool import AdmissionPolicy, WorkerPool

__all__ = ["QueryRequest", "ReliabilityService"]


class QueryRequest:
    """One admitted query: parameters plus resolution state."""

    __slots__ = (
        "sources", "eta", "method", "num_samples", "seed",
        "multi_source_mode", "max_hops", "budget",
        "future", "followers", "cache_key", "submitted_at",
    )

    def __init__(
        self,
        sources: List[int],
        eta: float,
        method: str,
        num_samples: int,
        seed: Optional[int],
        multi_source_mode: str,
        max_hops: Optional[int],
        budget: Optional[QueryBudget],
        cache_key: Optional[object],
        submitted_at: float,
    ) -> None:
        self.sources = sources
        self.eta = eta
        self.method = method
        self.num_samples = num_samples
        self.seed = seed
        self.multi_source_mode = multi_source_mode
        self.max_hops = max_hops
        self.budget = budget
        self.cache_key = cache_key
        self.submitted_at = submitted_at
        self.future: "Future[QueryResult]" = Future()
        #: Futures of deduplicated identical in-flight requests.
        self.followers: "List[Future[QueryResult]]" = []


class ReliabilityService:
    """Concurrent query-serving facade over one shared engine.

    Parameters
    ----------
    engine:
        The engine every worker queries.  With *shards* set, a bare
        :class:`UncertainGraph` is enough: the shards build their own
        indexes, so no whole-graph index is needed.
    workers:
        Worker-thread count.
    admission:
        Load-shedding limits (see :class:`AdmissionPolicy`).
    cache:
        Result cache; ``None`` builds a default
        :class:`TTLResultCache`.  Pass ``cache=False``-like behaviour
        by using ``TTLResultCache(capacity=1, ttl_seconds=1e-9)`` if a
        test needs an effectively disabled cache.
    registry:
        Metrics registry; defaults to the process-global one, which is
        also where the engine's built-in instrumentation records — so
        one snapshot covers the whole pipeline.
    shards:
        ``None`` (default) serves the given engine directly.  A count
        ``K >= 1`` replaces it with a
        :class:`~repro.shard.ShardedRQTreeEngine` built over the same
        graph — ``K`` partition-aligned engines in worker processes
        behind the scatter-gather gateway — which the service then
        owns (and closes on :meth:`stop`).  Alternatively pass an
        already-built sharded engine as *engine* (the service does not
        close engines it did not build).
    shard_mode:
        ``"process"`` or ``"inline"``; forwarded to
        :meth:`ShardedRQTreeEngine.build` when *shards* is set.
    shard_seed:
        Root seed for the shard plan and per-shard index builds.
    shard_transport:
        ``"shm"`` (default) or ``"pickle"``; forwarded to
        :meth:`ShardedRQTreeEngine.build` when *shards* is set.  See
        :mod:`repro.shard.shm` for the shared-memory data plane.
    shard_respawn:
        When building a sharded engine (*shards* set), attach a
        :class:`~repro.shard.supervisor.ShardSupervisor`: liveness
        pings, supervised respawn of crashed workers, per-shard circuit
        breakers, and redispatch of in-flight requests.  See
        ``docs/ARCHITECTURE.md`` ("Failure domains & recovery").
    shard_retry_timeout_ms:
        Per-shard attempt timeout (milliseconds).  A sub-query that
        exceeds it has its worker recycled and is redispatched once.
        Requires *shard_respawn*.  ``None`` disables the limit.
    shard_hedge_after_ms:
        Hedged dispatch: after this many milliseconds without an
        answer, the supervisor promotes a warm standby and duplicates
        the sub-query (first answer wins).  ``0`` derives the delay
        from the shard's observed p99 latency; ``None`` disables
        hedging.  Requires *shard_respawn*.
    live:
        Accept streaming arc updates (``POST /update`` /
        :meth:`apply_updates`).  With *shards* set this builds a
        :class:`~repro.live.LiveShardedEngine` (epoch-versioned
        snapshots, streamed per-shard update slices, zero-downtime
        rebalancing); without shards a plain engine is wrapped in a
        :class:`~repro.live.LiveRQTreeEngine` reusing its index.
        Result-cache and single-flight keys carry the published epoch,
        so answers cached before an update can never serve after it.
    """

    def __init__(
        self,
        engine: Union[RQTreeEngine, ShardedRQTreeEngine, UncertainGraph],
        workers: int = 4,
        admission: Optional[AdmissionPolicy] = None,
        cache: Optional[TTLResultCache] = None,
        registry: Optional[MetricsRegistry] = None,
        shards: Optional[int] = None,
        shard_mode: str = "process",
        shard_seed: int = 0,
        shard_transport: str = "shm",
        shard_respawn: bool = False,
        shard_retry_timeout_ms: Optional[float] = None,
        shard_hedge_after_ms: Optional[float] = None,
        live: bool = False,
    ) -> None:
        self._owned_sharded: Optional[ShardedRQTreeEngine] = None
        if shards is None and isinstance(engine, UncertainGraph):
            raise ValueError("a bare graph can only be served with shards=K")
        if shards is not None:
            if isinstance(engine, ShardedRQTreeEngine):
                raise ValueError(
                    "pass either an already-sharded engine or shards=K, "
                    "not both"
                )
            if live:
                from ..live import LiveShardedEngine

                builder = LiveShardedEngine.build
            else:
                builder = ShardedRQTreeEngine.build
            engine = builder(
                engine if isinstance(engine, UncertainGraph) else engine.graph,
                shards=shards,
                seed=shard_seed,
                mode=shard_mode,
                flow_engine=getattr(engine, "flow_engine", "dinic"),
                transport=shard_transport,
                supervise=shard_respawn,
                retry_timeout_seconds=(
                    None if shard_retry_timeout_ms is None
                    else shard_retry_timeout_ms / 1000.0
                ),
                hedge_after_seconds=(
                    None if shard_hedge_after_ms is None
                    else shard_hedge_after_ms / 1000.0
                ),
            )
            self._owned_sharded = engine
        self._owned_live = None
        if shards is None and live and isinstance(engine, RQTreeEngine):
            from ..live import LiveRQTreeEngine

            engine = LiveRQTreeEngine(engine)
            self._owned_live = engine
        self._engine = engine
        self._registry = registry
        self._cache = cache if cache is not None else TTLResultCache()
        self._admission = admission if admission is not None else AdmissionPolicy()
        self._pool = WorkerPool(self._handle, workers=workers)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._inflight_keys: Dict[object, QueryRequest] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def engine(self) -> RQTreeEngine:
        return self._engine

    @property
    def cache(self) -> TTLResultCache:
        return self._cache

    @property
    def admission(self) -> AdmissionPolicy:
        """The service's load-shedding limits (read-only by convention);
        frontends derive their connection caps from it."""
        return self._admission

    @property
    def workers(self) -> int:
        return self._pool.workers

    @property
    def running(self) -> bool:
        return self._pool.running

    def start(self) -> "ReliabilityService":
        self._pool.start()
        return self

    def stop(self, drain: bool = True) -> None:
        self._pool.stop(drain=drain)
        if self._owned_sharded is not None:
            self._owned_sharded.close()
        if self._owned_live is not None:
            self._owned_live.close()

    def __enter__(self) -> "ReliabilityService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _metrics(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        sources: Union[int, Sequence[int]],
        eta: float,
        method: str = "lb",
        num_samples: int = 1000,
        seed: Optional[int] = None,
        multi_source_mode: str = "greedy",
        max_hops: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
    ) -> "Future[QueryResult]":
        """Enqueue a query; the returned future resolves to its result.

        Invalid *parameters* raise here, synchronously (a caller bug is
        not an overload condition).  Overload — too many requests in
        flight — resolves the future immediately with a degraded shed
        result instead.
        """
        source_list = RQTreeEngine._normalize_sources(sources)
        validate_method(method, max_hops=max_hops)
        metrics = self._metrics()
        metrics.counter("service.submitted").inc()

        cacheable = budget is None and is_cacheable(method, seed)
        cache_key = (
            TTLResultCache.make_key(
                self._graph_generation(), source_list, eta, method,
                num_samples, seed, multi_source_mode, max_hops,
            )
            if cacheable
            else None
        )
        request = QueryRequest(
            source_list, eta, method, num_samples, seed, multi_source_mode,
            max_hops, budget, cache_key, time.perf_counter(),
        )

        if cache_key is not None:
            cached = self._cache.get(cache_key)
            if cached is not None:
                request.future.set_result(cached)
                metrics.counter("service.completed").inc()
                return request.future
        else:
            self._cache.record_bypass()

        with self._lock:
            if cache_key is not None:
                leader = self._inflight_keys.get(cache_key)
                if leader is not None:
                    leader.followers.append(request.future)
                    metrics.counter("service.deduped").inc()
                    return request.future
            if self._in_flight >= self._admission.max_in_flight:
                metrics.counter("service.shed").inc()
                request.future.set_result(
                    self._shed_result(request, "shed: max in-flight exceeded")
                )
                return request.future
            self._in_flight += 1
            if cache_key is not None:
                self._inflight_keys[cache_key] = request
            metrics.gauge("service.in_flight").set(self._in_flight)

        self._pool.submit(request)
        return request.future

    def query(
        self,
        sources: Union[int, Sequence[int]],
        eta: float,
        timeout: Optional[float] = None,
        **kwargs: object,
    ) -> QueryResult:
        """Blocking convenience wrapper over :meth:`submit`."""
        return self.submit(sources, eta, **kwargs).result(timeout=timeout)

    def shed_pressure(self) -> float:
        """Current overload fraction in ``[0, 1]``: in-flight requests
        over the admission cap.  Frontends scale their ``Retry-After``
        hints by it (see :func:`~repro.service.wire.retry_after_seconds`)
        so backoff advice tracks how overloaded the service really is.
        """
        with self._lock:
            return min(
                1.0, self._in_flight / self._admission.max_in_flight
            )

    # ------------------------------------------------------------------
    # Worker path
    # ------------------------------------------------------------------
    def _handle(self, request: QueryRequest) -> None:
        metrics = self._metrics()
        queue_wait = time.perf_counter() - request.submitted_at
        metrics.histogram("service.queue_wait_seconds").observe(queue_wait)
        try:
            deadline = self._admission.queue_deadline_seconds
            if deadline is not None and queue_wait >= deadline:
                metrics.counter("service.shed").inc()
                self._resolve(
                    request,
                    result=self._shed_result(
                        request, "shed: queue deadline exceeded"
                    ),
                )
                return
            try:
                result = self._execute(request)
            except Exception as error:
                metrics.counter("service.errors").inc()
                self._resolve(request, error=error)
                return
            if request.cache_key is not None and not result.degraded:
                self._cache.put(request.cache_key, result)
            self._resolve(request, result=result)
        finally:
            with self._lock:
                self._in_flight -= 1
                metrics.gauge("service.in_flight").set(self._in_flight)

    def _execute(self, request: QueryRequest) -> QueryResult:
        return self._engine.query(
            request.sources,
            request.eta,
            method=request.method,
            num_samples=request.num_samples,
            seed=request.seed,
            multi_source_mode=request.multi_source_mode,
            max_hops=request.max_hops,
            budget=request.budget,
        )

    def _resolve(
        self,
        request: QueryRequest,
        result: Optional[QueryResult] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Settle the request's future and every deduplicated follower."""
        metrics = self._metrics()
        with self._lock:
            if (
                request.cache_key is not None
                and self._inflight_keys.get(request.cache_key) is request
            ):
                del self._inflight_keys[request.cache_key]
            followers = request.followers
        latency = time.perf_counter() - request.submitted_at
        metrics.histogram("service.latency_seconds").observe(latency)
        for future in [request.future, *followers]:
            if error is not None:
                future.set_exception(error)
            else:
                # Count BEFORE resolving: a client whose future fires can
                # read /metrics immediately, and the snapshot must
                # already include its own completion.
                metrics.counter("service.completed").inc()
                future.set_result(result)

    def _shed_result(self, request: QueryRequest, reason: str) -> QueryResult:
        """A degraded empty answer for a request the service refused.

        Shedding mirrors the budget contract: the caller gets a
        well-formed :class:`QueryResult` with ``degraded=True`` and
        zero achieved confidence, never an exception.
        """
        return QueryResult(
            nodes=set(),
            eta=request.eta,
            sources=list(request.sources),
            method=request.method,
            candidate_result=CandidateResult(
                candidates=set(),
                clusters_visited=0,
                flow_calls=0,
                final_upper_bound=0.0,
            ),
            candidate_seconds=0.0,
            verification_seconds=0.0,
            tree_height=self._engine_height(),
            num_graph_nodes=self._engine.graph.num_nodes,
            statuses={},
            degraded=True,
            degraded_reason=reason,
            worlds_used=0,
            achieved_confidence=0.0,
        )

    def _engine_height(self) -> int:
        """Index height for shed results: the RQ-tree's for a plain
        engine, the tallest per-shard tree for a sharded one."""
        tree = getattr(self._engine, "tree", None)
        if tree is not None:
            return tree.height
        return getattr(self._engine, "tree_height", 0)

    def _graph_generation(self) -> "tuple":
        """Generation stamp for cache and single-flight keys.

        A live engine answers every query on the epoch its store has
        published, so that epoch is the stamp.  The master graph is
        not: an update mutates it and stamps it with the new epoch
        *before* the snapshot is published, and a query admitted in
        between runs on the old epoch — keyed on the master, its
        answer would be filed under the new epoch and served after
        the update returned.  A frozen engine queries its graph
        directly, so that graph's mutation version and epoch are the
        stamp.
        """
        store = getattr(self._engine, "store", None)
        if store is not None:
            return ("published", store.current_epoch)
        graph = self._engine.graph
        return (graph.version, getattr(graph, "epoch", 0))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def apply_updates(self, ops: Sequence[object]) -> Dict[str, int]:
        """Apply a batch of arc updates through the live engine.

        Only available when the service serves a live engine (built
        with ``live=True``, or handed one).  Returns the epoch the batch
        was published under; in-flight queries keep running against
        their admitted epoch, new submissions see the new one (and miss
        the result cache, whose keys embed the epoch).
        """
        from ..live import LiveRQTreeEngine, LiveShardedEngine
        from ..live.updates import normalize_updates

        if not isinstance(self._engine, (LiveRQTreeEngine, LiveShardedEngine)):
            raise ValueError(
                "engine does not accept updates; construct the service "
                "with live=True to enable the update plane"
            )
        updates = normalize_updates(ops)
        epoch = self._engine.apply(updates)
        maybe_rebalance = getattr(self._engine, "maybe_rebalance", None)
        if maybe_rebalance is not None:
            maybe_rebalance()
        return {"epoch": epoch, "ops": len(updates)}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        """Registry snapshot merged with the serving-layer state.

        The ``service`` section carries what plain instruments can't:
        the result cache's :class:`~repro.service.cache.CacheStats`,
        pool shape, and live queue/in-flight depths.
        """
        snapshot = self._metrics().snapshot()
        with self._lock:
            in_flight = self._in_flight
        service: Dict[str, object] = {
            "workers": self._pool.workers,
            "in_flight": in_flight,
            "queue_depth": self._pool.queue_depth,
            "result_cache": self._cache.stats.as_dict(),
            "result_cache_entries": len(self._cache),
        }
        shards = getattr(self._engine, "num_shards", None)
        if shards is not None:
            service["shards"] = shards
            service["shard_mode"] = self._engine.mode
            service["shard_transport"] = getattr(
                self._engine, "transport", "pickle"
            )
            shard_states = getattr(self._engine, "shard_states", None)
            if shard_states is not None:
                service["shard_states"] = {
                    str(shard_id): state
                    for shard_id, state in shard_states().items()
                }
        epoch = getattr(self._engine, "epoch", None)
        if epoch is not None:
            service["epoch"] = epoch
        snapshot["service"] = service
        return snapshot
