"""Answer oracle: whole-graph most-likely-path Dijkstra.

RQ-tree-LB answers ``{t : MLP(S, t) >= eta}``, where ``MLP(S, t)`` is
the probability of the most likely path from any source to ``t``.  The
oracle recomputes that set on the whole graph (not the candidate
subgraph) with a max-product Dijkstra that stops below the threshold,
so a check costs only the answer's neighbourhood.

Nodes whose MLP lies within a relative band of ``BAND`` around ``eta``
may fall either way (floating-point order differs between products and
summed log-distances); every other node must be decided exactly.

The same Dijkstra supplies the *certified* set of a sampled query:
``MLP(S, t) >= eta`` implies ``R(S, t) >= eta`` (Theorem 4), so a node
clearly above the band belongs in every correct answer.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Sequence, Set

BAND = 1e-9


def mlp_at_least(succ, sources: Iterable[int], floor: float) -> Dict[int, float]:
    """Most-likely-path probability of every node with MLP >= *floor*."""
    best: Dict[int, float] = {}
    heap = []
    for s in sources:
        best[s] = 1.0
        heap.append((-1.0, s))
    heapq.heapify(heap)
    done: Dict[int, float] = {}
    while heap:
        neg, u = heapq.heappop(heap)
        if u in done:
            continue
        p = -neg
        done[u] = p
        for v, q in succ[u].items():
            pv = p * q
            if pv >= floor and pv > best.get(v, 0.0) and v not in done:
                best[v] = pv
                heapq.heappush(heap, (-pv, v))
    return done


def lb_sets(succ, sources: Sequence[int], eta: float):
    """(must, allowed): nodes clearly above the band, and every node
    not clearly below it."""
    allowed = mlp_at_least(succ, sources, eta * (1.0 - BAND))
    must = {t for t, p in allowed.items() if p > eta * (1.0 + BAND)}
    return must, set(allowed)


def check_lb(succ, sources: Sequence[int], eta: float, answer: Set[int]) -> List[str]:
    """Mismatch descriptions (empty when the answer is exact)."""
    must, allowed = lb_sets(succ, sources, eta)
    problems = []
    missing = must - answer
    extra = answer - allowed
    if missing:
        problems.append(f"missing {sorted(missing)[:5]} (|{len(missing)}|)")
    if extra:
        problems.append(f"unexpected {sorted(extra)[:5]} (|{len(extra)}|)")
    return problems


def certified(succ, sources: Sequence[int], eta: float) -> Set[int]:
    """Certified-true non-source nodes: MLP clearly at or above eta."""
    must, _ = lb_sets(succ, sources, eta)
    return must - set(sources)


def check_sampled(sources: Sequence[int], answer: Set[int]) -> List[str]:
    """The sound part of a sampled answer: R(S, s) = 1 for every source."""
    missing = set(sources) - answer
    return [f"sources {sorted(missing)} missing"] if missing else []


class RecallTally:
    """certified_recall = found certified nodes / certified nodes."""

    def __init__(self) -> None:
        self.found = 0
        self.total = 0

    def add(self, succ, sources, eta, answer: Set[int]) -> None:
        cert = certified(succ, sources, eta)
        self.total += len(cert)
        self.found += len(cert & answer)

    @property
    def recall(self) -> float:
        return self.found / self.total if self.total else 1.0
