"""Per-shard engine runtime: payload construction and sub-query handling.

One :class:`ShardRuntime` owns one shard's slice of the graph and a full
:class:`RQTreeEngine` built on it.  Both execution modes of the sharded
engine run the *same* runtime — ``mode="process"`` reconstructs it from
a picklable payload inside a spawned worker (:mod:`repro.shard.worker`),
``mode="inline"`` holds it in the gateway process — so the two modes
compute identical sub-query answers by construction.

A sub-query always runs the paper's LB pipeline (candidate generation +
most-likely-path verification) on the shard subgraph, whatever
verification method the gateway query asked for:

* the shard's *candidate set* seeds the gateway's refinement pool
  (lifted to global ids);
* the shard's *confirmed set* is globally sound — a path inside a shard
  subgraph is a path of the whole graph, so a local lower-bound
  certificate is a global one — and survives as a partial answer even
  when the gateway's refinement is cut short by a budget or a dead
  shard;
* sampling (for ``method="mc"``) happens once, at the gateway, on the
  merged pool, so MC verdict semantics match the single-engine path.

Everything in the payload and the request/response dicts is plain
picklable data (ints, floats, strings, lists, dicts) — the spawn-based
worker transport requires it, and it keeps the protocol inspectable.
With ``transport="shm"`` the graph bytes leave the payload entirely:
the shard subgraph travels as a shared-memory CSR segment
(:mod:`repro.shard.shm`) and the payload shrinks to scalars plus the
segment's field table.  Both transports rebuild the identical local
graph — same arc insertion order, hence the same adjacency-dict
iteration order and the same deterministic RQ-tree — so answers are
bit-for-bit equal across transports by construction.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..core.engine import RQTreeEngine
from ..graph.uncertain import UncertainGraph
from ..resilience.budget import QueryBudget
from ..resilience.faultinject import fault_point
from ..seeding import derive_seed
from .plan import ShardPlan

__all__ = ["ShardRuntime", "build_shard_payload"]


def build_shard_payload(
    graph: UncertainGraph,
    plan: ShardPlan,
    shard_id: int,
    seed: int = 0,
    flow_engine: str = "dinic",
    max_imbalance: float = 0.1,
    strategy: str = "multilevel",
    transport: str = "pickle",
    epoch: int = 0,
) -> Dict[str, object]:
    """The picklable construction recipe for one shard's runtime.

    Contains the shard's induced subgraph — as a relabelled arc list
    (``transport="pickle"``) or as the attach-meta of a shared-memory
    CSR segment (``transport="shm"``, see :mod:`repro.shard.shm`; the
    caller owns the published segment and must release it through
    ``shm.registry``) — plus everything needed to rebuild its RQ-tree
    deterministically.  The per-shard build seed is derived under the
    ``"shard.build"`` namespace, so distinct shards (and distinct root
    seeds) get statistically independent index-construction streams.
    """
    if transport not in ("pickle", "shm"):
        raise ValueError(
            f"unknown shard transport {transport!r}; "
            "expected 'pickle' or 'shm'"
        )
    members = plan.shard_nodes[shard_id]
    local_of = plan.local_of
    member_set = set(members)
    payload: Dict[str, object] = {
        "shard_id": shard_id,
        "num_nodes": len(members),
        "transport": transport,
        "build_seed": derive_seed(seed, "shard.build", shard_id),
        "flow_engine": flow_engine,
        "max_imbalance": max_imbalance,
        "strategy": strategy,
        "epoch": epoch,
    }
    if transport == "shm":
        from ..accel.csr import csr_snapshot
        from . import shm

        local = UncertainGraph(len(members))
        for u in members:
            for v, p in graph.successors(u).items():
                if v in member_set:
                    local.add_arc(local_of[u], local_of[v], p)
        payload["shm"] = shm.publish_csr(csr_snapshot(local), members)
        return payload
    arcs: List[List[object]] = []
    for u in members:
        for v, p in graph.successors(u).items():
            if v in member_set:
                arcs.append([local_of[u], local_of[v], p])
    payload["arcs"] = arcs
    payload["global_ids"] = list(members)
    return payload


class ShardRuntime:
    """One shard's graph slice plus its private RQ-tree engine."""

    def __init__(self, payload: Dict[str, object]) -> None:
        self.shard_id: int = payload["shard_id"]
        if payload.get("transport", "pickle") == "shm":
            graph, self._global_ids = self._from_segment(payload["shm"])
        else:
            self._global_ids = list(payload["global_ids"])
            graph = UncertainGraph(payload["num_nodes"])
            for u, v, p in payload["arcs"]:
                graph.add_arc(u, v, p)
        graph.set_epoch(payload.get("epoch", 0))
        self._local_of = {
            node: index for index, node in enumerate(self._global_ids)
        }
        tree_document = payload.get("tree_json")
        if tree_document is not None:
            # Supervised respawn fast path: the supervisor cached the
            # first worker's serialized RQ-tree next to the payload, so
            # a replacement worker deserializes the index instead of
            # re-running the partition cascade.  Deterministic builds
            # make the two routes equivalent: from_json validates and
            # reconstructs the exact tree to_json saw.
            from ..core.rqtree import RQTree

            self.engine = RQTreeEngine(
                graph,
                RQTree.from_json(tree_document),
                flow_engine=payload["flow_engine"],
            )
        else:
            self.engine = RQTreeEngine.build(
                graph,
                max_imbalance=payload["max_imbalance"],
                seed=payload["build_seed"],
                strategy=payload["strategy"],
                flow_engine=payload["flow_engine"],
            )

    @staticmethod
    def _from_segment(meta: Dict[str, object]):
        """Rebuild the local graph from a shared-memory CSR segment.

        Arcs are replayed from the forward CSR in row order — the same
        order the pickle transport's arc list was emitted in — so the
        rebuilt adjacency dicts iterate identically and the RQ-tree
        build is bit-for-bit the same.
        """
        from . import shm

        arrays, global_ids = shm.attach_csr(meta)
        num_nodes = meta["num_nodes"]
        graph = UncertainGraph(num_nodes)
        indptr, indices, probs = (
            arrays["indptr"], arrays["indices"], arrays["probs"],
        )
        for u in range(num_nodes):
            for k in range(indptr[u], indptr[u + 1]):
                graph.add_arc(u, int(indices[k]), float(probs[k]))
        return graph, [int(node) for node in global_ids]

    @property
    def epoch(self) -> int:
        return self.engine.graph.epoch

    @property
    def tree_height(self) -> int:
        return self.engine.tree.height

    @property
    def num_nodes(self) -> int:
        return len(self._global_ids)

    def index_json(self) -> Dict[str, object]:
        """This shard's serialized RQ-tree (``RQTree.to_json``).

        Fetched once by the supervisor after start-up and cached into
        the shard's payload, so a respawned worker skips the index
        build — respawn then costs the payload bytes plus tree
        deserialization, not a partition cascade.
        """
        return self.engine.tree.to_json()

    def apply_updates(self, spec: Dict[str, object]) -> Dict[str, object]:
        """Apply one epoch's update slice to this shard, in place.

        ``spec`` carries ``ops`` (local-id ``(op, u, v, p)`` tuples) and
        the target ``epoch``.  The ops run through
        :meth:`RQTreeEngine.apply` on this shard's engine, which keeps
        the tree it was built with (so the supervisor's cached
        ``tree_json`` stays this worker's index) and drops only the
        cached bounds the slice made stale.  Sub-queries read the
        adjacency dicts only (they always run ``lb``), so no CSR is
        rebuilt here; sampling happens at the gateway.  The ack (this
        return value) is the gateway's drain barrier — the worker is
        single-threaded, so by the time it answers, every sub-query
        admitted before the update has finished against the old graph.
        """
        fault_point("shard.update")
        applied = self.engine.apply(spec.get("ops", ()))
        graph = self.engine.graph
        epoch = spec.get("epoch")
        if epoch is not None:
            graph.set_epoch(epoch)
        return {
            "shard_id": self.shard_id,
            "applied": applied,
            "epoch": graph.epoch,
            "tree_height": self.tree_height,
        }

    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """Answer one sub-query; ids in and out are *global*.

        The request carries ``sources`` (global ids owned by this
        shard), ``eta``, ``multi_source_mode``, ``max_hops``, and an
        optional serialized budget (the gateway's remaining allowance at
        send time).  The response carries the candidate/confirmed sets
        lifted back to global ids, plus the
        instrumentation the gateway merges into its
        :class:`CandidateResult`.
        """
        fault_point("shard.handle")
        started = time.perf_counter()
        sources = [self._local_of[node] for node in request["sources"]]
        budget_spec = request.get("budget")
        budget: Optional[QueryBudget] = (
            QueryBudget(**budget_spec) if budget_spec else None
        )
        result = self.engine.query(
            sources,
            request["eta"],
            method="lb",
            multi_source_mode=request.get("multi_source_mode", "greedy"),
            max_hops=request.get("max_hops"),
            budget=budget,
        )
        lift = self._global_ids
        candidate_result = result.candidate_result
        return {
            "shard_id": self.shard_id,
            "epoch": self.epoch,
            "candidates": [
                lift[node] for node in candidate_result.candidates
            ],
            "kept": [lift[node] for node in result.nodes],
            # Note: no per-node status map — the gateway recomputes
            # statuses during refinement, so shipping them would only
            # bloat the per-query response.
            "seconds": time.perf_counter() - started,
            "tree_height": result.tree_height,
            "min_selected_depth": result.min_selected_depth,
            "degraded": result.degraded,
            "degraded_reason": result.degraded_reason,
            "clusters_visited": candidate_result.clusters_visited,
            "flow_calls": candidate_result.flow_calls,
            "max_subgraph_nodes": candidate_result.max_subgraph_nodes,
            "max_subgraph_arcs": candidate_result.max_subgraph_arcs,
        }
