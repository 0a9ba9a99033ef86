"""Exception hierarchy for the :mod:`repro` library.

All errors raised at public API boundaries derive from :class:`ReproError`
so that callers can catch library failures with a single ``except`` clause
while still distinguishing user mistakes (:class:`InvalidProbabilityError`,
:class:`InvalidThresholdError`, :class:`NodeNotFoundError`) from internal
inconsistencies (:class:`IndexCorruptionError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class GraphError(ReproError):
    """Base class for errors relating to uncertain-graph construction."""


class InvalidProbabilityError(GraphError, ValueError):
    """An arc probability lies outside the half-open interval (0, 1].

    The paper defines ``p: A -> (0, 1]``: zero-probability arcs carry no
    information and must simply be omitted, while probabilities above one
    are meaningless.
    """

    def __init__(self, value: float, arc: object = None) -> None:
        self.value = value
        self.arc = arc
        where = f" on arc {arc!r}" if arc is not None else ""
        super().__init__(
            f"arc probability must be in (0, 1], got {value!r}{where}"
        )


class InvalidThresholdError(ReproError, ValueError):
    """A reliability threshold eta lies outside the open interval (0, 1).

    Mirrors :class:`InvalidProbabilityError`: the offending value is kept
    on the exception (``.value``), together with optional context naming
    where the threshold came from (``.context``), and both appear in the
    message.
    """

    def __init__(self, value: float, context: object = None) -> None:
        self.value = value
        self.context = context
        where = f" in {context!r}" if context is not None else ""
        super().__init__(
            f"reliability threshold eta must be in (0, 1), got {value!r}{where}"
        )


class NodeNotFoundError(GraphError, KeyError):
    """A query referenced a node id absent from the graph."""

    def __init__(self, node: object) -> None:
        self.node = node
        super().__init__(f"node {node!r} is not present in the graph")


class EmptySourceSetError(ReproError, ValueError):
    """A reliability-search query was issued with no source nodes."""

    def __init__(self) -> None:
        super().__init__("the source set S of a query must be non-empty")


class InvalidMethodError(ReproError, ValueError):
    """A query named a verification method the estimator registry does
    not know, or combined a method with a feature it does not support.

    Every surface that accepts ``method=`` (``engine.query``, the
    detection helpers, the sharded gateway, the serving layer, the CLI)
    raises this same error with the same accepted set, sourced from
    :func:`repro.estimators.available_methods` — no more drifting ad-hoc
    ``ValueError`` lists.  Derives from :class:`ValueError` so existing
    ``except ValueError`` callers keep working.
    """

    def __init__(
        self,
        method: object,
        accepted: object = (),
        feature: object = None,
    ) -> None:
        self.method = method
        self.accepted = tuple(accepted)
        self.feature = feature
        expected = ", ".join(repr(name) for name in self.accepted)
        if feature is None:
            message = f"unknown method {method!r}; expected one of {expected}"
        else:
            message = (
                f"method {method!r} does not support {feature}; "
                f"methods that do: {expected}"
            )
        super().__init__(message)


class IndexCorruptionError(ReproError):
    """An RQ-tree index failed an internal consistency check.

    Raised when loading a serialized index whose structure violates the
    RQ-tree invariants (each level partitions the node set, children are
    nested in their parent, leaves are singletons).
    """


class FlowError(ReproError):
    """Base class for errors in the max-flow subsystem."""


class InvalidCapacityError(FlowError, ValueError):
    """A flow-network arc was given a negative or NaN capacity."""

    def __init__(self, value: float) -> None:
        self.value = value
        super().__init__(f"capacity must be non-negative, got {value!r}")


class PartitionError(ReproError):
    """The balanced partitioner received an unpartitionable input."""


class QueryDeadlineError(ReproError):
    """A query budget's wall-clock deadline expired where no partial
    answer can be expressed.

    The engine itself never raises this: :meth:`RQTreeEngine.query`
    degrades gracefully, returning a partial :class:`QueryResult` with
    per-node statuses.  The error exists for the *set-returning* public
    verifiers (:func:`repro.core.verification.verify_lower_bound`,
    :func:`~repro.core.verification.verify_sampling`), whose plain
    ``Set[int]`` return type cannot distinguish "rejected" from
    "ran out of time" — they raise instead of silently under-answering.
    """

    def __init__(self, elapsed: float, deadline: float) -> None:
        self.elapsed = elapsed
        self.deadline = deadline
        super().__init__(
            f"query deadline of {deadline:.6g} s expired after "
            f"{elapsed:.6g} s with no way to return a partial answer"
        )


class InjectedFault(ReproError, RuntimeError):
    """A deliberate failure raised by the fault-injection harness.

    Never raised in production: only an active
    :class:`repro.resilience.FaultPlan` can trigger it, at one of the
    named injection points compiled into the library
    (:data:`repro.resilience.faultinject.INJECTION_POINTS`).  Tests use
    it to prove degradation paths — kernel failures, partial results,
    clean :class:`ReproError` surfaces — end to end.
    """

    def __init__(self, point: str, hit: int) -> None:
        self.point = point
        self.hit = hit
        super().__init__(
            f"injected fault at point {point!r} (hit #{hit})"
        )


class ShardUnavailableError(ReproError):
    """A shard worker could not answer a sub-query.

    Raised by the shard transport (:mod:`repro.shard.worker`) when a
    worker process dies, fails to build its index, times out, or its
    runtime raises.  The sharded gateway engine never lets it escape a
    query: an unavailable shard degrades the answer (``degraded=True``,
    the shard's candidates missing from the pool) instead of failing it
    — the same never-raise contract budgets follow.
    """

    def __init__(
        self, shard_id: int, reason: str, worker_dead: bool = False
    ) -> None:
        self.shard_id = shard_id
        self.reason = reason
        #: True when the transport lost the worker itself (process died,
        #: client torn down) rather than the worker answering with an
        #: error.  The supervisor only respawns on dead-worker failures;
        #: application errors propagate without cycling a healthy worker.
        self.worker_dead = worker_dead
        super().__init__(f"shard {shard_id} unavailable: {reason}")


class WorkerPoolRestartError(ReproError, RuntimeError):
    """A stopped :class:`~repro.service.pool.WorkerPool` was re-started.

    Pools are single-shot by design: ``stop()`` poisons the queue and
    joins the threads, and none of that is reversible on the same
    object.  Restart semantics live one layer up — a supervisor (or the
    owning :class:`~repro.service.server.ReliabilityService`) replaces
    the pool with a freshly-constructed one instead of reviving it, the
    same replace-don't-revive rule the shard supervisor applies to
    worker processes.
    """

    def __init__(self) -> None:
        super().__init__(
            "worker pool cannot be restarted once stopped: construct a "
            "new WorkerPool (supervised restart replaces the pool, it "
            "does not revive it)"
        )


class SamplingKernelError(ReproError, RuntimeError):
    """The world-sampling kernel failed mid-run.

    Raised by :meth:`repro.graph.sampling.ReachabilityFrequencyEstimator.run`
    (and by its ``plan``, which ``run`` reads) around any failure of
    the CSR snapshot or the batched kernel (a
    defect, exhausted memory, or a fault injected at
    ``"csr.snapshot"`` / ``"mc.kernel.chunk"``).  The
    query engines never let it escape a query: the answer degrades to
    sources confirmed and every other candidate unverified, with the
    error named in ``degraded_reason``.  Detection and ranking
    (:mod:`repro.core.detection`) raise it instead.
    """

    def __init__(self, error: BaseException) -> None:
        self.error = error
        super().__init__(
            f"sampling kernel failed: {type(error).__name__}: {error}"
        )
