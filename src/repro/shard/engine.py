"""ShardedRQTreeEngine: scatter-gather queries over partition shards.

The sharded engine presents the exact :meth:`RQTreeEngine.query`
signature over ``K`` partition-aligned shards, each holding an
independent RQ-tree on its slice of the graph (built in its own worker
process in ``mode="process"``).  A query runs in three steps:

1. **Scatter** — sources are routed to their owning shards
   (:attr:`ShardPlan.shard_of`) and each owning shard answers the
   sub-query ``RS(S ∩ shard, η)`` on its subgraph: candidate generation
   plus most-likely-path verification, under the remaining slice of the
   query budget.  Shards hold disjoint node sets, so sub-queries carry
   no overlapping work and run concurrently — across the shards of one
   query and across concurrent queries (each worker is its own
   process, so the GIL stops mattering).
2. **Gather** — per-shard candidate sets, locally certified answers,
   and instrumentation are merged.  A local certificate is globally
   sound (a path inside a shard subgraph is a path of ``G``); a local
   *rejection* is not (the best path may cross shards), so only
   confirmations survive the merge.
3. **Refine** — one *bounded* cross-shard pass accounts for every path
   the shards could not see.  A truncated multi-source Dijkstra over
   the whole graph (frontier arcs included), cut off at the query
   threshold, expands only nodes whose most-likely-path probability
   can still reach ``η`` — the answer's own neighbourhood, not the
   graph.  For ``method="lb"`` this *is* the final answer (and it
   equals the single-engine answer exactly: any prefix of an
   above-threshold path is itself above threshold, so candidate
   restriction never hides an optimal path).  For ``"lb+"`` the
   edge-packing verifier reruns over the merged pool.  For ``"mc"``
   the existing batched sampling kernel verifies the merged pool on
   the *whole* graph — per-shard MC would miss cross-shard worlds —
   with the pool widened by a most-likely-path floor
   (``mc_refine_floor``); at floor 0 this falls back to whole-graph
   MC over all nodes.

Degradation mirrors the single-engine budget contract: an expired
deadline skips refinement and returns the shard certificates (sound,
possibly incomplete); a dead or timed-out shard marks the answer
degraded but never fails the query — for ``"lb"`` the refinement pass
recomputes the full answer anyway, so even a query that loses every
shard still answers exactly.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, List, Optional, Sequence, Set, Union

from ..core.candidates import CandidateResult
from ..core.engine import QueryResult, RQTreeEngine
from ..errors import (
    InvalidThresholdError,
    NodeNotFoundError,
    ShardUnavailableError,
)
from ..graph.paths import (
    hop_bounded_path_probabilities,
    most_likely_path_probabilities,
)
from ..graph.uncertain import UncertainGraph
from ..core.verification import _ETA_SLACK, packing_bounds
from ..estimators import (
    AUTO,
    EstimateRequest,
    PortfolioConfig,
    QueryPlanner,
    get_estimator,
    run_estimate,
    sampling_methods,
    validate_method,
)
from ..resilience.budget import (
    CONFIRMED,
    REJECTED,
    UNVERIFIED,
    BudgetClock,
    QueryBudget,
)
from .plan import ShardPlan, build_shard_plan
from .runtime import build_shard_payload
from .supervisor import ShardSupervisor, SupervisorPolicy
from .worker import InlineShardClient, ProcessShardClient

__all__ = ["ShardedRQTreeEngine"]

#: Grace added to a budgeted query's shard-response timeout: covers
#: queue hops so a shard that honours its (already expired) deadline
#: still gets to deliver its degraded partial answer.
_WAIT_GRACE_SECONDS = 2.0


class ShardedRQTreeEngine:
    """K partition-aligned shard engines behind one query facade.

    Build one directly over a graph::

        sharded = ShardedRQTreeEngine.build(graph, shards=4, seed=7)
        try:
            result = sharded.query([source], eta=0.6)
        finally:
            sharded.close()

    or use it as a context manager.  The query surface is identical to
    :class:`RQTreeEngine` — the serving layer swaps one for the other
    without changes to request handling.

    Parameters (``build``)
    ----------------------
    shards:
        Number of shards ``K`` (1 is valid: one worker holding the
        whole graph).
    mode:
        ``"process"`` (default) spawns one worker process per shard;
        ``"inline"`` keeps every shard runtime in-process (tests,
        debugging, fault injection).
    seed:
        Root seed for the shard plan and the per-shard index builds
        (fanned out through :mod:`repro.seeding`).
    mc_refine_floor:
        Pool-widening knob for ``method="mc"``: the refinement pool
        additionally includes every node whose global most-likely-path
        probability is at least ``eta * mc_refine_floor``.  ``0``
        disables the floor and samples the whole graph (the safe,
        expensive fallback).
    shard_timeout_seconds:
        How long an *unbudgeted* query waits for each shard before
        declaring it unavailable (``None`` = wait for the worker or
        its death).  Budgeted queries always wait at most the
        remaining deadline plus a small grace.
    supervise:
        Attach a :class:`~repro.shard.supervisor.ShardSupervisor`:
        dead workers are respawned (shm segments re-attached, index
        deserialized from cache), in-flight sub-queries re-dispatched,
        and each shard runs the healthy → suspect → open-circuit →
        half-open → healthy breaker state machine with backoff and a
        crash-loop budget.  Without it a dead shard stays dead
        (fail-degraded, the pre-supervision behaviour).
    retry_timeout_seconds:
        Supervised only: per-shard, per-attempt response timeout.  A
        shard that is alive but silent for this long is treated as
        hung — its worker is replaced and the sub-query retried once.
        ``None`` disables the attempt timeout.
    hedge_after_seconds:
        Supervised process mode only: straggler hedging delay.  A
        positive value duplicates a still-unanswered sub-query onto a
        fresh worker after that many seconds (first answer wins);
        ``0.0`` derives the delay from the shard's observed p99
        latency; ``None`` (default) disables hedging.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        plan: ShardPlan,
        clients: Sequence[object],
        mode: str,
        flow_engine: str = "dinic",
        mc_refine_floor: float = 0.5,
        shard_timeout_seconds: Optional[float] = None,
        transport: str = "pickle",
        segments: Optional[Sequence[str]] = None,
        supervisor: Optional[ShardSupervisor] = None,
        retry_timeout_seconds: Optional[float] = None,
        hedge_after_seconds: Optional[float] = None,
        planner_config: Optional[PortfolioConfig] = None,
    ) -> None:
        if plan.num_nodes != graph.num_nodes:
            raise ValueError(
                "shard plan and graph disagree on the number of nodes: "
                f"{plan.num_nodes} vs {graph.num_nodes}"
            )
        if not 0.0 <= mc_refine_floor <= 1.0:
            raise ValueError(
                f"mc_refine_floor must be in [0, 1], got {mc_refine_floor}"
            )
        self.graph = graph
        self.plan = plan
        self.mode = mode
        self.flow_engine = flow_engine
        self.mc_refine_floor = mc_refine_floor
        self.shard_timeout_seconds = shard_timeout_seconds
        self.transport = transport
        self.retry_timeout_seconds = retry_timeout_seconds
        self.hedge_after_seconds = hedge_after_seconds
        self._clients = list(clients)
        self._segments = list(segments or [])
        self._supervisor = supervisor
        self._closed = False
        #: Guards the (plan, clients) pair: a live rebalance swaps both
        #: atomically while queries snapshot them together.
        self._routing_lock = threading.Lock()
        #: Cost-based estimator selection for ``method="auto"``; also
        #: caps the exact estimator on explicit ``method="exact"``.
        self.planner = QueryPlanner(planner_config)

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: UncertainGraph,
        shards: int = 4,
        seed: int = 0,
        mode: str = "process",
        max_imbalance: float = 0.1,
        strategy: str = "multilevel",
        flow_engine: str = "dinic",
        mc_refine_floor: float = 0.5,
        shard_timeout_seconds: Optional[float] = None,
        start_timeout: float = 300.0,
        transport: str = "shm",
        supervise: bool = False,
        supervisor_policy: Optional[SupervisorPolicy] = None,
        retry_timeout_seconds: Optional[float] = None,
        hedge_after_seconds: Optional[float] = None,
        planner_config: Optional[PortfolioConfig] = None,
    ) -> "ShardedRQTreeEngine":
        """Plan the partition, then build one engine per shard.

        ``transport`` picks how shard subgraphs reach their workers:
        ``"shm"`` (default) publishes each shard's CSR snapshot into a
        shared-memory segment mapped zero-copy by the worker;
        ``"pickle"`` ships a pickled arc list.  Both produce
        bit-identical answers; shm is the data plane, pickle the
        portable fallback (and is substituted automatically where
        shared memory is unavailable).

        ``supervise=True`` adds the self-healing layer (respawn,
        circuit breakers, redispatch, optional hedging) — see the
        constructor's parameter docs and
        :mod:`repro.shard.supervisor`.
        """
        if mode not in ("process", "inline"):
            raise ValueError(
                f"unknown shard mode {mode!r}; expected 'process' or 'inline'"
            )
        if transport not in ("pickle", "shm"):
            raise ValueError(
                f"unknown shard transport {transport!r}; "
                "expected 'pickle' or 'shm'"
            )
        from . import shm as shm_module

        if transport == "shm" and not shm_module.shm_available():
            cls._registry().counter("shard.shm_unavailable").inc()
            transport = "pickle"
        plan = build_shard_plan(
            graph, shards, seed=seed,
            max_imbalance=max_imbalance, strategy=strategy,
        )
        payloads: List[Dict[str, object]] = []
        clients: List[object] = []
        segments: List[str] = []
        try:
            for shard_id in range(plan.num_shards):
                payload = build_shard_payload(
                    graph, plan, shard_id, seed=seed,
                    flow_engine=flow_engine,
                    max_imbalance=max_imbalance, strategy=strategy,
                    transport=transport,
                )
                if "shm" in payload:
                    segments.append(payload["shm"]["name"])
                payloads.append(payload)
            if mode == "process":
                # Start every worker before waiting on any: the K index
                # builds overlap instead of serializing.
                clients = [ProcessShardClient(p) for p in payloads]
                for client in clients:
                    client.wait_ready(timeout=start_timeout)
            else:
                clients = [InlineShardClient(p) for p in payloads]
            supervisor = None
            if supervise:
                supervisor = ShardSupervisor(
                    clients, payloads, mode=mode,
                    policy=supervisor_policy, seed=seed,
                )
                supervisor.start()
        except BaseException:
            for client in clients:
                try:
                    client.close()
                except Exception:  # pragma: no cover - best effort
                    pass
            for name in segments:
                shm_module.registry.release(name)
            raise
        return cls(
            graph, plan, clients, mode,
            flow_engine=flow_engine,
            mc_refine_floor=mc_refine_floor,
            shard_timeout_seconds=shard_timeout_seconds,
            transport=transport,
            segments=segments,
            supervisor=supervisor,
            retry_timeout_seconds=retry_timeout_seconds,
            hedge_after_seconds=hedge_after_seconds,
            planner_config=planner_config,
        )

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def supervisor(self) -> Optional[ShardSupervisor]:
        """The attached supervisor, or ``None`` when unsupervised."""
        return self._supervisor

    def _client(self, shard_id: int):
        """The shard's current client (supervision swaps them on
        respawn; the construction-time list goes stale)."""
        if self._supervisor is not None:
            return self._supervisor.client(shard_id)
        return self._clients[shard_id]

    def _routing(self):
        """An atomic ``(plan, clients, supervisor)`` snapshot.

        Queries route through one consistent topology even if a live
        rebalance swaps the pair mid-flight; in-flight queries finish
        against the old clients (which are drained, not killed).
        """
        with self._routing_lock:
            return self.plan, self._clients, self._supervisor

    def _lease_epoch(self):
        """Pin the graph generation this query runs against.

        Returns an object with ``graph`` / ``epoch`` attributes and a
        ``release()`` method.  The frozen base engine has exactly one
        generation — the master graph — so the lease is a no-op
        wrapper; :class:`repro.live.LiveShardedEngine` overrides this
        with refcounted :class:`~repro.live.EpochStore` leases so a
        query admitted at epoch *E* reads epoch *E*'s snapshot even
        while updates land.
        """
        return _FrozenLease(self.graph)

    @property
    def tree_height(self) -> int:
        """Tallest per-shard RQ-tree (the sharded analogue of
        ``engine.tree.height``; used by height-ratio style reporting)."""
        return max(
            (
                self._client(shard_id).tree_height
                for shard_id in range(self.num_shards)
            ),
            default=0,
        )

    def shard_states(self) -> Dict[int, Dict[str, object]]:
        """Per-shard health for ``/healthz``.

        Supervised engines report the full state machine (state,
        structured reason, respawn count, queue depth); unsupervised
        ones report a plain healthy/dead liveness snapshot.
        """
        if self._supervisor is not None:
            return self._supervisor.states()
        snapshot: Dict[int, Dict[str, object]] = {}
        for client in self._clients:
            alive = True
            probe = getattr(client, "is_alive", None)
            if probe is not None:
                alive = bool(probe())
            snapshot[client.shard_id] = {
                "state": "healthy" if alive else "dead",
                "reason": None if alive else "worker process died",
                "respawns": 0,
                "queue_depth": getattr(client, "queue_depth", 0),
            }
        return snapshot

    def close(self) -> None:
        """Shut down every shard worker and release the engine's
        shared-memory segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            # Owns the *current* clients (and any standbys/retired
            # stragglers); client.close() below is then a no-op for
            # whatever overlaps.
            self._supervisor.close()
        for client in self._clients:
            client.close()
        if self._segments:
            from . import shm as shm_module

            # Release after the workers have exited: the creator's
            # release unlinks, and the attach side only ever closes.
            for name in self._segments:
                shm_module.registry.release(name)
            self._segments = []

    def __enter__(self) -> "ShardedRQTreeEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(
        self,
        sources: Union[int, Sequence[int]],
        eta: float,
        method: str = "lb",
        num_samples: int = 1000,
        seed: Optional[int] = None,
        multi_source_mode: str = "greedy",
        max_hops: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
    ) -> QueryResult:
        """Answer ``RS(S, eta)`` by scatter, gather, and refinement.

        Same signature, semantics, and degradation contract as
        :meth:`RQTreeEngine.query`; see the module docstring for how
        each method's verification is distributed.
        """
        source_list = RQTreeEngine._normalize_sources(sources)
        for node in source_list:
            if node not in self.graph:
                raise NodeNotFoundError(node)
        if math.isnan(eta) or not 0.0 < eta < 1.0:
            raise InvalidThresholdError(eta, context="sharded query")
        validate_method(method, max_hops=max_hops)
        if num_samples <= 0 and (
            method == AUTO or method in sampling_methods()
        ):
            raise ValueError(
                f"num_samples must be positive, got {num_samples}"
            )
        if self._closed:
            raise ShardUnavailableError(-1, "engine is closed")
        clock = budget.start() if budget is not None else None
        registry = self._registry()
        registry.counter("shard.queries").inc()

        # Pin the generation: every phase of this query — scatter,
        # stale-response demotion, whole-graph refinement — reads the
        # leased graph, never the (possibly mutating) master.
        lease = self._lease_epoch()
        try:
            graph = lease.graph
            epoch = lease.epoch

            # -- scatter / gather --------------------------------------
            scatter_start = time.perf_counter()
            gather = self._scatter_gather(
                source_list, eta, multi_source_mode, max_hops, clock,
                registry, epoch,
            )
            candidate_seconds = time.perf_counter() - scatter_start
            registry.histogram("shard.scatter_seconds").observe(
                candidate_seconds
            )

            # -- refine -------------------------------------------------
            refine_start = time.perf_counter()
            refined = self._refine(
                source_list, eta, method, num_samples, seed, max_hops,
                clock, gather, graph,
            )
            verification_seconds = time.perf_counter() - refine_start
            registry.histogram("shard.refine_seconds").observe(
                verification_seconds
            )
        finally:
            lease.release()

        degraded = gather["degraded"] or refined["degraded"]
        degraded_reason = (
            gather["degraded_reason"] or refined["degraded_reason"]
        )
        if degraded:
            registry.counter("shard.degraded").inc()

        candidate_result = CandidateResult(
            candidates=refined["pool"],
            clusters_visited=gather["clusters_visited"],
            flow_calls=gather["flow_calls"],
            final_upper_bound=0.0,
            max_subgraph_nodes=gather["max_subgraph_nodes"],
            max_subgraph_arcs=gather["max_subgraph_arcs"],
        )
        return QueryResult(
            nodes=refined["kept"],
            eta=eta,
            sources=source_list,
            method=method,
            candidate_result=candidate_result,
            candidate_seconds=candidate_seconds,
            verification_seconds=verification_seconds,
            tree_height=self.tree_height,
            num_graph_nodes=graph.num_nodes,
            statuses=refined["statuses"],
            degraded=degraded,
            degraded_reason=degraded_reason,
            worlds_used=refined["worlds_used"],
            achieved_confidence=_achieved_confidence(refined["statuses"]),
            shards_recovered=gather["shards_recovered"],
            estimator=refined.get("estimator") or method,
            planner_reason=refined.get("planner_reason"),
            estimates=refined.get("estimates") or {},
            epoch=epoch,
        )

    # ------------------------------------------------------------------
    # Phase 1+2: scatter / gather
    # ------------------------------------------------------------------
    def _scatter_gather(
        self,
        source_list: List[int],
        eta: float,
        multi_source_mode: str,
        max_hops: Optional[int],
        clock: Optional[BudgetClock],
        registry,
        epoch: int = 0,
    ) -> Dict[str, object]:
        plan, clients, supervisor = self._routing()
        by_shard: Dict[int, List[int]] = {}
        for node in source_list:
            by_shard.setdefault(plan.shard_of[node], []).append(node)
        sub_budget = self._sub_budget(clock)

        handles = []
        for shard_id in sorted(by_shard):
            request = {
                "sources": by_shard[shard_id],
                "eta": eta,
                "multi_source_mode": multi_source_mode,
                "max_hops": max_hops,
                "budget": sub_budget,
                "epoch": epoch,
            }
            try:
                if supervisor is not None:
                    handles.append(
                        (shard_id, supervisor.submit(shard_id, request))
                    )
                else:
                    handles.append(
                        (shard_id, clients[shard_id].submit(request))
                    )
            except ShardUnavailableError as error:
                handles.append((shard_id, error))

        merged: Dict[str, object] = {
            "candidates": set(),
            "confirmed": set(),
            "clusters_visited": 0,
            "flow_calls": 0,
            "max_subgraph_nodes": 0,
            "max_subgraph_arcs": 0,
            "degraded": False,
            "degraded_reason": None,
            "shards_recovered": 0,
        }
        failures: List[str] = []
        shard_degraded: Optional[str] = None
        for shard_id, handle in handles:
            if isinstance(handle, ShardUnavailableError):
                failures.append(str(handle))
                registry.counter("shard.unavailable").inc()
                continue
            try:
                if supervisor is not None:
                    response, recovered = supervisor.wait(
                        handle,
                        timeout=self._wait_timeout(clock),
                        attempt_timeout=self.retry_timeout_seconds,
                        hedge_after=self._hedge_delay(shard_id),
                    )
                    if recovered:
                        merged["shards_recovered"] += 1
                        registry.counter("shard.supervisor.recovered_answers").inc()
                else:
                    response = clients[shard_id].wait(
                        handle, timeout=self._wait_timeout(clock)
                    )
            except ShardUnavailableError as error:
                failures.append(str(error))
                registry.counter("shard.unavailable").inc()
                continue
            if response.get("epoch", epoch) != epoch:
                # The worker answered from a different generation than
                # this query was admitted on (an update raced the
                # scatter, or a respawn landed on a newer payload).
                # Its certificates may reflect arcs this epoch does not
                # have, so demote everything to candidates: the
                # refinement pass recomputes the exact answer from the
                # leased epoch's graph, which for lb means the final
                # answer never mixes generations.
                registry.counter("live.stale_shard_responses").inc()
                merged["candidates"].update(response["candidates"])
                merged["candidates"].update(response["kept"])
                merged["clusters_visited"] += response["clusters_visited"]
                merged["flow_calls"] += response["flow_calls"]
                continue
            merged["candidates"].update(response["candidates"])
            merged["confirmed"].update(response["kept"])
            merged["clusters_visited"] += response["clusters_visited"]
            merged["flow_calls"] += response["flow_calls"]
            merged["max_subgraph_nodes"] = max(
                merged["max_subgraph_nodes"],
                response["max_subgraph_nodes"],
            )
            merged["max_subgraph_arcs"] = max(
                merged["max_subgraph_arcs"], response["max_subgraph_arcs"]
            )
            registry.counter(f"shard.{shard_id}.queries").inc()
            registry.histogram(f"shard.{shard_id}.seconds").observe(
                response["seconds"]
            )
            if response["degraded"] and shard_degraded is None:
                shard_degraded = (
                    f"shard {shard_id}: "
                    f"{response['degraded_reason'] or 'budget exhausted'}"
                )
        if failures:
            merged["degraded"] = True
            merged["degraded_reason"] = "; ".join(failures)
        elif shard_degraded is not None:
            merged["degraded"] = True
            merged["degraded_reason"] = shard_degraded
        return merged

    # ------------------------------------------------------------------
    # Phase 3: bounded cross-shard refinement
    # ------------------------------------------------------------------
    def _refine(
        self,
        source_list: List[int],
        eta: float,
        method: str,
        num_samples: int,
        seed: Optional[int],
        max_hops: Optional[int],
        clock: Optional[BudgetClock],
        gather: Dict[str, object],
        graph: Optional[UncertainGraph] = None,
    ) -> Dict[str, object]:
        if graph is None:
            graph = self.graph
        source_set = set(source_list)
        candidates: Set[int] = gather["candidates"]
        confirmed: Set[int] = gather["confirmed"]

        if clock is not None and clock.expired():
            # Deadline gone before the cross-shard pass could run: the
            # shard certificates (plus the sources themselves, answers
            # by definition) are the sound partial answer.
            kept = confirmed | source_set
            pool = candidates | kept
            statuses = {
                node: (CONFIRMED if node in kept else UNVERIFIED)
                for node in pool
            }
            return _refined(
                kept, pool, statuses, degraded=True,
                reason="deadline expired before cross-shard refinement",
                estimator=method if method != AUTO else "",
                planner_reason=(
                    None if method == AUTO
                    else f"explicit method {method!r}"
                ),
            )

        cutoff = eta * (1.0 - _ETA_SLACK)
        probe = cutoff
        if method != "lb" and self.mc_refine_floor > 0.0:
            probe = min(cutoff, eta * self.mc_refine_floor)
        if max_hops is not None:
            reachable = hop_bounded_path_probabilities(
                graph, source_list, max_hops, min_probability=probe
            )
        else:
            reachable = most_likely_path_probabilities(
                graph, source_list, min_probability=probe
            )
        certified = {
            node for node, prob in reachable.items() if prob >= cutoff
        }

        if method == "lb":
            kept = certified | confirmed
            pool = candidates | kept
            statuses = {
                node: (CONFIRMED if node in kept else REJECTED)
                for node in pool
            }
            estimates = {
                node: reachable.get(node, 0.0) for node in pool
            }
            for s in source_set:
                estimates[s] = 1.0
            return _refined(
                kept, pool, statuses,
                estimates=estimates, estimator="lb",
                planner_reason=f"explicit method {method!r}",
            )

        if method == "lb+":
            pool = candidates | set(reachable) | certified | source_set
            if clock is not None and clock.expired():
                kept = certified | confirmed | source_set
                statuses = {
                    node: (CONFIRMED if node in kept else UNVERIFIED)
                    for node in pool
                }
                return _refined(
                    kept, pool, statuses, degraded=True,
                    reason="deadline expired before packing verification",
                    estimator="lb+",
                    planner_reason=f"explicit method {method!r}",
                )
            kept, bounds = packing_bounds(
                graph, source_list, eta, pool
            )
            kept |= certified | confirmed
            statuses = {
                node: (CONFIRMED if node in kept else REJECTED)
                for node in pool
            }
            return _refined(
                kept, pool, statuses,
                estimates=bounds, estimator="lb+",
                planner_reason=f"explicit method {method!r}",
            )

        if method == "exact":
            # The exact pool is built from the gateway's *whole-graph*
            # MLP pass only — never from the shard candidate sets,
            # which vary with the shard count.  The pool (and therefore
            # the induced subgraph, the traversal, and every estimate)
            # is thus bit-identical across shard layouts.  Shard
            # confirmation certificates are not folded in for the same
            # reason; they are dominated anyway — every MLP-certified
            # path lies inside the pool, so the exact subgraph
            # reliability confirms at least as much.
            pool = set(reachable) | certified | source_set
            request = EstimateRequest(
                graph=graph,
                sources=source_list,
                eta=eta,
                candidates=pool,
                num_samples=num_samples,
                seed=seed,
                max_hops=max_hops,
                clock=clock,
                config=self.planner.config,
            )
            report = run_estimate(get_estimator("exact"), request)
            reason = f"explicit method {method!r}"
            if report.notes:
                reason = f"{reason}; {report.notes}"
            return {
                "kept": set(report.kept),
                "pool": pool,
                "statuses": dict(report.statuses),
                "degraded": report.degraded,
                "degraded_reason": report.degraded_reason,
                "worlds_used": report.worlds_used,
                "estimates": dict(report.estimates),
                "estimator": report.estimator or "exact",
                "planner_reason": reason,
            }

        # Sampling methods (mc / rss / lazy) and "auto": one
        # whole-graph estimator pass over the merged pool through the
        # existing kernels.
        if method == "mc" and self.mc_refine_floor <= 0.0:
            pool = set(graph.nodes())
        else:
            pool = candidates | set(reachable) | certified | source_set
        request = EstimateRequest(
            graph=graph,
            sources=source_list,
            eta=eta,
            candidates=pool,
            num_samples=num_samples,
            seed=seed,
            max_hops=max_hops,
            clock=clock,
            config=self.planner.config,
        )
        if method == AUTO:
            decision = self.planner.plan(request)
            name = decision.estimator
            reason = decision.reason
        else:
            name = method
            reason = f"explicit method {method!r}"
        report = run_estimate(get_estimator(name), request)
        if report.notes:
            reason = f"{reason}; {report.notes}"
        kept = set(report.kept)
        statuses = dict(report.statuses)
        if report.degraded or gather["degraded"]:
            # Partial sampling: shard lower-bound certificates are
            # certain, so fold them back in (degraded, never wrong).
            kept |= confirmed
            for node in confirmed:
                statuses[node] = CONFIRMED
        return {
            "kept": kept,
            "pool": pool,
            "statuses": statuses,
            "degraded": report.degraded,
            "degraded_reason": report.degraded_reason,
            "worlds_used": report.worlds_used,
            "estimates": dict(report.estimates),
            "estimator": report.estimator or name,
            "planner_reason": reason,
        }

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _sub_budget(
        self, clock: Optional[BudgetClock]
    ) -> Optional[Dict[str, object]]:
        """Serialize the *remaining* budget for a shard sub-query.

        The deadline is re-anchored at send time (workers cannot share
        the gateway's clock), so queue hops eat into it — conservative
        in the right direction.  World caps stay with the gateway,
        where all sampling happens.
        """
        if clock is None:
            return None
        budget = clock.budget
        deadline = budget.deadline_seconds
        return {
            "deadline_seconds": (
                None if deadline is None
                else max(clock.remaining_seconds(), 1e-6)
            ),
            "max_candidate_nodes": budget.max_candidate_nodes,
            "confidence": budget.confidence,
        }

    def _wait_timeout(
        self, clock: Optional[BudgetClock]
    ) -> Optional[float]:
        if clock is not None and clock.budget.deadline_seconds is not None:
            return clock.remaining_seconds() + _WAIT_GRACE_SECONDS
        return self.shard_timeout_seconds

    def _hedge_delay(self, shard_id: int) -> Optional[float]:
        """The hedging delay for one dispatch: fixed when configured,
        p99-derived when ``hedge_after_seconds == 0``, else off."""
        if self._supervisor is None or self.hedge_after_seconds is None:
            return None
        if self.hedge_after_seconds > 0:
            return self.hedge_after_seconds
        return self._supervisor.hedge_delay(shard_id)

    @staticmethod
    def _registry():
        from ..service.metrics import get_registry

        return get_registry()


class _FrozenLease:
    """The base engine's no-op epoch lease (one immutable generation)."""

    __slots__ = ("graph", "epoch")

    def __init__(self, graph: UncertainGraph) -> None:
        self.graph = graph
        self.epoch = graph.epoch

    def release(self) -> None:
        pass


def _refined(
    kept: Set[int],
    pool: Set[int],
    statuses: Dict[int, str],
    degraded: bool = False,
    reason: Optional[str] = None,
    estimates: Optional[Dict[int, float]] = None,
    estimator: str = "",
    planner_reason: Optional[str] = None,
) -> Dict[str, object]:
    return {
        "kept": kept,
        "pool": pool,
        "statuses": statuses,
        "degraded": degraded,
        "degraded_reason": reason,
        "worlds_used": 0,
        "estimates": estimates if estimates is not None else {},
        "estimator": estimator,
        "planner_reason": planner_reason,
    }


def _achieved_confidence(statuses: Dict[str, str]) -> float:
    if not statuses:
        return 1.0
    decided = sum(1 for status in statuses.values() if status != UNVERIFIED)
    return decided / len(statuses)
