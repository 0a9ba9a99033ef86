"""Deterministic fault injection for resilience testing.

The library's degradation machinery (kernel failures, partial results,
typed error surfaces) is only trustworthy if every path is *provoked*
under test, not just reasoned about.  This module compiles named
injection points into the hot paths — each one a single dict lookup when
no plan is active, so production cost is negligible — and lets tests arm
them deterministically:

    plan = FaultPlan({"mc.kernel.chunk": "always"})
    with plan:
        result = engine.query(0, eta=0.5, method="mc")
    assert result.degraded
    assert plan.hits("mc.kernel.chunk") > 0

A trigger is either ``"always"`` (every hit raises), an integer ``N``
(only the Nth hit raises, 1-based), or a collection of hit numbers.
:meth:`FaultPlan.seeded` draws per-hit Bernoulli decisions from a seeded
``random.Random`` so stochastic fault storms are reproducible run to
run.

Plans are installed process-globally (the library's samplers and engines
share no handle a plan could ride on); nesting and threading are not
supported — this is a test harness, not a chaos-engineering service.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Mapping, Optional, Union

from ..errors import InjectedFault

__all__ = ["INJECTION_POINTS", "FaultPlan", "fault_point"]

#: Every injection point compiled into the library.  Arming an unknown
#: name is a hard error (it would silently never fire).
INJECTION_POINTS = frozenset(
    {
        # repro.accel.csr.csr_snapshot: building/fetching the cached CSR
        # snapshot the numpy kernels run on.
        "csr.snapshot",
        # repro.accel.mc_kernel.sample_reach_batch: once per world chunk
        # of the batched MC kernel ("always" kills every chunk).
        "mc.kernel.chunk",
        # repro.core.candidates.generate_candidates: entry of the
        # filtering phase.
        "candidates.generate",
        # repro.core.rqtree.RQTree.to_json / from_json: index
        # (de)serialization.
        "rqtree.serialize",
        "rqtree.deserialize",
        # repro.shard.runtime.ShardRuntime.handle: entry of one shard's
        # sub-query (plans are process-global, so this only reaches
        # inline-mode shards — see repro.shard.worker).
        "shard.handle",
        # repro.shard.runtime.ShardRuntime.apply_updates: entry of one
        # shard's update-slice application (live update plane).
        "shard.update",
        # repro.shard.supervisor.ShardSupervisor: the recovery
        # transitions of the per-shard state machine.  All four run in
        # the *gateway* process (monitor thread or waiting query
        # thread), so plans reach them in both shard modes.
        "supervisor.respawn",     # fails a respawn attempt (backoff/park)
        "supervisor.probe",       # fails the half-open probe (re-open)
        "supervisor.hedge",       # fails a hedged-lane promotion
        "supervisor.redispatch",  # fails an in-flight redispatch
    }
)

Trigger = Union[str, int, Iterable[int]]

#: The currently installed plan, if any (module-global by design).
_ACTIVE: Optional["FaultPlan"] = None


class FaultPlan:
    """A deterministic schedule of injected faults.

    Parameters
    ----------
    triggers:
        Maps injection-point names (members of
        :data:`INJECTION_POINTS`) to a trigger: ``"always"``, an int
        ``N`` (raise on the Nth hit only, counting from 1), or a
        collection of hit numbers.
    """

    def __init__(self, triggers: Mapping[str, Trigger]) -> None:
        unknown = set(triggers) - INJECTION_POINTS
        if unknown:
            raise ValueError(
                f"unknown injection point(s) {sorted(unknown)}; "
                f"known: {sorted(INJECTION_POINTS)}"
            )
        self._triggers: Dict[str, Trigger] = {}
        for name, trigger in triggers.items():
            if isinstance(trigger, str):
                if trigger != "always":
                    raise ValueError(
                        f"string trigger for {name!r} must be 'always', "
                        f"got {trigger!r}"
                    )
                self._triggers[name] = trigger
            elif isinstance(trigger, int):
                if trigger < 1:
                    raise ValueError(
                        f"hit number for {name!r} must be >= 1, got {trigger}"
                    )
                self._triggers[name] = trigger
            else:
                self._triggers[name] = frozenset(int(n) for n in trigger)
        self._hit_counts: Dict[str, int] = {}

    @classmethod
    def seeded(
        cls,
        seed: int,
        points: Iterable[str],
        probability: float = 0.5,
        horizon: int = 10_000,
    ) -> "FaultPlan":
        """A reproducible random storm: each of the first *horizon* hits
        of every point in *points* fails independently with
        *probability*, decided once up front by ``random.Random(seed)``
        so the schedule is identical on every run.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        rng = random.Random(seed)
        triggers: Dict[str, Trigger] = {}
        for name in points:
            triggers[name] = frozenset(
                hit for hit in range(1, horizon + 1)
                if rng.random() < probability
            )
        return cls(triggers)

    # ------------------------------------------------------------------
    # Introspection (for test assertions)
    # ------------------------------------------------------------------
    def hits(self, name: str) -> int:
        """How many times injection point *name* was reached so far."""
        return self._hit_counts.get(name, 0)

    def reset(self) -> None:
        """Zero the hit counters (the trigger schedule is unchanged)."""
        self._hit_counts.clear()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "FaultPlan":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a FaultPlan is already active; nesting "
                               "is not supported")
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        _ACTIVE = None

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def _observe(self, name: str) -> None:
        hit = self._hit_counts.get(name, 0) + 1
        self._hit_counts[name] = hit
        trigger = self._triggers.get(name)
        if trigger is None:
            return
        if trigger == "always":
            raise InjectedFault(name, hit)
        if isinstance(trigger, int):
            if hit == trigger:
                raise InjectedFault(name, hit)
        elif hit in trigger:
            raise InjectedFault(name, hit)


def fault_point(name: str) -> None:
    """Declare an injection point; raises :class:`InjectedFault` when an
    active :class:`FaultPlan` schedules a fault for this hit.

    A no-op (one global read) when no plan is installed, so the library
    sprinkles these on hot paths freely.
    """
    plan = _ACTIVE
    if plan is not None:
        plan._observe(name)
