"""Request queue, worker pool, and admission control.

The serving layer's concurrency model is deliberately boring: one
:class:`queue.Queue` of pending requests drained by N daemon threads,
each running the full query pipeline to completion.  Reliability
queries are CPU-bound and the engine releases the GIL only inside
numpy, so threads buy *isolation of waiting* (slow queries don't
block admission, and numpy-heavy sampling overlaps with the rest)
rather than raw parallel speed-up.

:class:`AdmissionPolicy` is where overload turns into degraded answers
instead of timeouts: requests beyond ``max_in_flight`` (or older than
``queue_deadline_seconds`` by the time a worker picks them up) are
*shed* — the service resolves them immediately with a degraded
:class:`~repro.core.engine.QueryResult`, never an exception, matching
the graceful-degradation contract of :mod:`repro.resilience`.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import WorkerPoolRestartError

__all__ = ["AdmissionPolicy", "WorkerPool"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Limits on what the serving queue will accept and hold.

    Parameters
    ----------
    max_in_flight:
        Maximum number of admitted-but-unresolved requests (queued or
        executing).  Submissions beyond it are shed at the door.
    queue_deadline_seconds:
        Maximum time a request may wait in the queue.  A worker that
        dequeues a request older than this sheds it instead of running
        it (the caller has likely timed out; running it would only
        delay fresher requests).  ``None`` disables the check.
    """

    max_in_flight: int = 64
    queue_deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if (
            self.queue_deadline_seconds is not None
            and self.queue_deadline_seconds <= 0
        ):
            raise ValueError(
                "queue_deadline_seconds must be positive or None, "
                f"got {self.queue_deadline_seconds}"
            )


class WorkerPool:
    """N daemon threads draining one unbounded FIFO of work items.

    The pool knows nothing about queries: it hands each dequeued item
    to *handler* and guarantees the handler's exceptions never kill a
    worker.  Items may be enqueued before :meth:`start` — they sit in
    the queue until workers exist (tests use this to stage
    deterministic concurrency scenarios).
    """

    def __init__(
        self,
        handler: Callable[[object], None],
        workers: int = 4,
        name: str = "repro-service",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._handler = handler
        self._workers = workers
        self._name = name
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def queue_depth(self) -> int:
        """Items enqueued and not yet picked up (approximate)."""
        return self._queue.qsize()

    @property
    def running(self) -> bool:
        return bool(self._threads) and not self._stop.is_set()

    def submit(self, item: object) -> None:
        """Enqueue *item* for some worker (valid before ``start()``)."""
        if self._stop.is_set():
            raise RuntimeError("worker pool is stopped")
        self._queue.put(item)

    def start(self) -> None:
        """Spawn the worker threads (idempotent while running).

        A stopped pool raises :class:`WorkerPoolRestartError`: stop()
        poisons the queue and joins the threads, which cannot be undone
        on the same object.  Whoever supervises the pool replaces it
        with a new ``WorkerPool`` instead of reviving this one.
        """
        with self._lock:
            if self._threads:
                return
            if self._stop.is_set():
                raise WorkerPoolRestartError()
            for index in range(self._workers):
                thread = threading.Thread(
                    target=self._run,
                    name=f"{self._name}-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the pool.

        With ``drain=True`` (default) workers finish everything already
        enqueued first; with ``drain=False`` pending items are left
        unprocessed (their futures stay unresolved — callers that need
        an answer for every request should drain).
        """
        with self._lock:
            threads, self._threads = self._threads, []
        if drain and threads:
            self._queue.join()
        self._stop.set()
        # Wake every worker blocked on get().
        for _ in threads:
            self._queue.put(_POISON)
        for thread in threads:
            thread.join(timeout=timeout)

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _POISON or self._stop.is_set():
                    return
                try:
                    self._handler(item)
                except Exception:  # pragma: no cover - handler contract
                    # The service handler resolves its future under
                    # try/except; anything reaching here is a bug, but a
                    # worker must never die of it.
                    pass
            finally:
                self._queue.task_done()


_POISON = object()
