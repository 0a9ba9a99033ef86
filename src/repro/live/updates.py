"""Batched arc updates and the epoch-numbered update log.

An :class:`ArcUpdate` is one of three operations on one directed arc:

* ``"set"`` — the arc's probability is now exactly ``p`` (inserting the
  arc if absent);
* ``"insert"`` — alias of ``"set"`` kept for wire-level intent (the
  caller believes the arc is new); identical semantics, so replaying a
  slice against a shard that already saw part of the batch can never
  noisy-or an update into the wrong probability;
* ``"delete"`` — the arc is gone (a no-op when already absent).

Updates are admitted in *batches*: :meth:`UpdateLog.append` assigns the
batch the next epoch number, and every consumer of the log — the
gateway's master graph, each shard's
:class:`~repro.core.maintenance.DynamicRQTreeEngine`, a cold-rebuild
parity check — applies whole batches in epoch order.  Determinism is
the point: the same batch sequence applied anywhere produces the same
graph, which is what the update-parity suite asserts.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import InvalidProbabilityError
from ..graph.uncertain import UncertainGraph

__all__ = [
    "ArcUpdate", "UpdateLog", "apply_to_graph", "require_int", "shard_slices",
]

#: The operations an update may carry.
_OPS = ("set", "insert", "delete")


def require_int(value: object, name: str) -> int:
    """*value* as an ``int``, or :class:`TypeError` naming *name*.

    For node ids and counts that arrive from outside the program.
    Integers pass, numpy's included.  Floats, strings and booleans are
    refused rather than coerced: ``int(0.9)`` or ``int(True)`` would
    silently name a different node or count.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ArcUpdate:
    """One arc-level change: ``(op, u, v, p)``.

    ``p`` is required for ``"set"``/``"insert"`` and must lie in
    ``(0, 1]`` (the paper's probability domain); it is ignored (and
    normalized to ``None``) for ``"delete"``.
    """

    op: str
    u: int
    v: int
    p: Optional[float] = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(
                f"unknown update op {self.op!r}; expected one of {_OPS}"
            )
        object.__setattr__(self, "u", require_int(self.u, "u"))
        object.__setattr__(self, "v", require_int(self.v, "v"))
        if self.op == "delete":
            object.__setattr__(self, "p", None)
            return
        if self.p is None:
            raise ValueError(f"op {self.op!r} requires a probability")
        p = float(self.p)
        if math.isnan(p) or not 0.0 < p <= 1.0:
            raise InvalidProbabilityError(p, (self.u, self.v))
        object.__setattr__(self, "p", p)

    @classmethod
    def from_object(cls, obj: object) -> "ArcUpdate":
        """Coerce a dict, tuple, or ArcUpdate into an :class:`ArcUpdate`."""
        if isinstance(obj, ArcUpdate):
            return obj
        if isinstance(obj, dict):
            if "u" not in obj or "v" not in obj:
                raise ValueError(f"update {obj!r} needs both 'u' and 'v'")
            return cls(
                op=obj.get("op", "set"),
                u=obj["u"],
                v=obj["v"],
                p=obj.get("p"),
            )
        if isinstance(obj, (tuple, list)):
            if len(obj) not in (3, 4):
                raise ValueError(
                    f"update {obj!r} needs 3 or 4 fields, got {len(obj)}"
                )
            if len(obj) == 3 and isinstance(obj[0], str):
                return cls(op=obj[0], u=obj[1], v=obj[2])
            if len(obj) == 3:
                return cls(op="set", u=obj[0], v=obj[1], p=obj[2])
            return cls(op=obj[0], u=obj[1], v=obj[2], p=obj[3])
        raise TypeError(f"cannot interpret {obj!r} as an arc update")

    def as_tuple(self) -> Tuple[str, int, int, Optional[float]]:
        """Picklable wire form (what worker update slices carry)."""
        return (self.op, self.u, self.v, self.p)

    def as_dict(self) -> Dict[str, object]:
        """JSON wire form (what ``POST /update`` speaks)."""
        body: Dict[str, object] = {"op": self.op, "u": self.u, "v": self.v}
        if self.p is not None:
            body["p"] = self.p
        return body


def normalize_updates(ops: Iterable[object]) -> List[ArcUpdate]:
    """Coerce a heterogeneous iterable into a validated update list."""
    return [ArcUpdate.from_object(op) for op in ops]


def apply_to_graph(graph: UncertainGraph, ops: Sequence[ArcUpdate]) -> int:
    """Apply a batch to a bare graph; returns the number applied.

    This is the *semantic definition* of a batch — exactly what
    :meth:`DynamicRQTreeEngine.apply` does to its graph, minus the
    damage accounting — used by the gateway's master graph and by
    cold-rebuild parity checks.  ``set``/``insert`` write the
    probability exactly (remove-then-add, never noisy-or);
    ``delete`` of a missing arc is a no-op.
    """
    applied = 0
    for update in ops:
        if update.op == "delete":
            if graph.has_arc(update.u, update.v):
                graph.remove_arc(update.u, update.v)
                applied += 1
            continue
        if graph.has_arc(update.u, update.v):
            graph.remove_arc(update.u, update.v)
        graph.add_arc(update.u, update.v, update.p)
        applied += 1
    return applied


def shard_slices(
    ops: Sequence[ArcUpdate], plan
) -> Tuple[Dict[int, List[Tuple[str, int, int, Optional[float]]]],
           List[ArcUpdate]]:
    """Split a batch into per-shard slices of *local-id* update tuples.

    An update lands on shard ``s`` when both endpoints are owned by
    ``s`` (shard subgraphs only ever contain intra-shard arcs — the
    same rule :func:`~repro.shard.runtime.build_shard_payload` uses).
    Updates whose endpoints straddle shards are *frontier* updates:
    returned separately, they touch only the gateway's master graph,
    whose cross-shard refinement pass is the one place frontier arcs
    are ever read.
    """
    local_of: Dict[int, int] = {}
    for members in plan.shard_nodes:
        for index, node in enumerate(members):
            local_of[node] = index
    slices: Dict[int, List[Tuple[str, int, int, Optional[float]]]] = {
        shard_id: [] for shard_id in range(plan.num_shards)
    }
    frontier: List[ArcUpdate] = []
    for update in ops:
        shard_u = plan.shard_of[update.u]
        shard_v = plan.shard_of[update.v]
        if shard_u != shard_v:
            frontier.append(update)
            continue
        slices[shard_u].append(
            (update.op, local_of[update.u], local_of[update.v], update.p)
        )
    return slices, frontier


class UpdateLog:
    """Epoch-numbered history of admitted update batches.

    ``append`` assigns the next epoch (starting at 1; epoch 0 is the
    graph as loaded) and records the batch.  The log is the replay
    source for cold-rebuild parity checks and for late joiners (a shard
    brought up at epoch ``E`` replays ``since(E0)``), and it is
    bounded: ``max_batches`` caps retained history, dropping the oldest
    batches first (consumers needing full replay snapshot the graph
    instead).
    """

    def __init__(self, max_batches: int = 4096) -> None:
        if max_batches < 1:
            raise ValueError(
                f"max_batches must be positive, got {max_batches}"
            )
        self._lock = threading.Lock()
        self._batches: List[Tuple[int, Tuple[ArcUpdate, ...]]] = []
        self._latest = 0
        self._max_batches = max_batches

    @property
    def latest_epoch(self) -> int:
        """Epoch of the most recently admitted batch (0 = none yet)."""
        with self._lock:
            return self._latest

    def __len__(self) -> int:
        with self._lock:
            return len(self._batches)

    def append(self, ops: Iterable[object]) -> Tuple[int, List[ArcUpdate]]:
        """Admit one batch; returns ``(epoch, validated_updates)``.

        Validation happens *before* the epoch is assigned, so a batch
        with one malformed update is rejected atomically — no epoch is
        burned and no partial state escapes.
        """
        updates = normalize_updates(ops)
        with self._lock:
            self._latest += 1
            epoch = self._latest
            self._batches.append((epoch, tuple(updates)))
            while len(self._batches) > self._max_batches:
                self._batches.pop(0)
        return epoch, updates

    def since(self, epoch: int) -> List[Tuple[int, Tuple[ArcUpdate, ...]]]:
        """Batches with epoch strictly greater than *epoch*, in order."""
        with self._lock:
            return [
                (batch_epoch, batch)
                for batch_epoch, batch in self._batches
                if batch_epoch > epoch
            ]

    def history(self) -> List[Tuple[int, Tuple[ArcUpdate, ...]]]:
        """The retained batch history (oldest first)."""
        with self._lock:
            return list(self._batches)
