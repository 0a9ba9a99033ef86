"""Shard supervision: liveness, respawn, circuit breaking, hedging.

:class:`ShardSupervisor` turns the shard tier from *fail-degraded* into
*fail-recover*.  Unsupervised, a SIGKILLed worker poisons every later
query: the engine marks the shard unavailable forever and the answer
quality contract leans entirely on gateway refinement.  Supervised,
each shard runs a small per-shard state machine::

    healthy --(ping timeout | queue watermark)--> suspect
    healthy/suspect --(process death | ping error)--> open-circuit
    open-circuit --(backoff elapsed, respawn ok)--> half-open
    half-open --(probe answered)--> healthy
    half-open --(probe failed/timed out)--> open-circuit
    open-circuit --(crash-loop budget exhausted)--> parked

* **Liveness** — a monitor thread pings every worker each sweep (a
  queue round-trip, so it also proves the serve loop drains) and reads
  its in-flight queue depth; a depth above the watermark marks the
  shard *suspect* (slow is not dead — suspects still serve).
* **Respawn** — a dead worker is replaced by activating a pre-spawned
  :class:`~repro.shard.worker.WarmStandby` (interpreter + imports paid
  in advance) with the shard's original payload.  The shm CSR segment
  is still alive — the gateway owns it — so the replacement re-attaches
  by name, and the supervisor caches each worker's serialized RQ-tree
  into the payload so the rebuild skips the partition cascade.  Respawn
  therefore costs roughly the ~1.2KB payload plus tree deserialization
  (see ``benchmarks/bench_supervisor.py``).
* **Backoff** — failed respawn attempts are retried under exponential
  backoff with seeded jitter; more than ``max_respawns`` attempts
  within ``crash_window_seconds`` *parks* the shard as
  degraded-with-reason, ending the crash loop.
* **Redispatch** — a sub-query that was in flight on a dead worker is
  resubmitted (once) on the respawned one by :meth:`wait`, so the
  query completes instead of degrading whenever recovery beats the
  caller's deadline.
* **Hedging** — an optional straggler defence: when a healthy shard
  has not answered within a (p99-derived or fixed) delay, the shard's
  primary client is swapped to a fresh standby-backed worker and the
  sub-query is duplicated there; whichever lane answers first wins.
  The lb merge is idempotent (confirmed sets are unioned), so a
  duplicated sub-answer can never change the result.

Every transition is observable: ``shard.supervisor.*`` metrics,
:meth:`states` for ``/healthz``, and deterministic fault-injection
points (``supervisor.respawn`` / ``supervisor.probe`` /
``supervisor.hedge`` / ``supervisor.redispatch``) for drills.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import InjectedFault, ShardUnavailableError
from ..resilience.faultinject import fault_point
from ..seeding import derive_seed
from .worker import InlineShardClient, ProcessShardClient, WarmStandby

__all__ = [
    "SHARD_HEALTHY",
    "SHARD_SUSPECT",
    "SHARD_OPEN",
    "SHARD_HALF_OPEN",
    "SHARD_PARKED",
    "ShardSupervisor",
    "SupervisorPolicy",
]

SHARD_HEALTHY = "healthy"
SHARD_SUSPECT = "suspect"
SHARD_OPEN = "open-circuit"
SHARD_HALF_OPEN = "half-open"
SHARD_PARKED = "parked"


@dataclass(frozen=True)
class SupervisorPolicy:
    """Tunables for the per-shard state machine."""

    #: Monitor sweep / liveness-ping period.
    ping_interval_seconds: float = 0.5
    #: An unanswered ping older than this marks the shard suspect; a
    #: half-open probe older than this trips the circuit again.
    ping_timeout_seconds: float = 5.0
    #: In-flight calls on one worker above which it is marked suspect.
    queue_depth_watermark: int = 64
    #: Exponential backoff between failed respawn attempts.
    backoff_base_seconds: float = 0.05
    backoff_max_seconds: float = 2.0
    #: Relative jitter applied to each backoff (anti-thundering-herd).
    backoff_jitter: float = 0.25
    #: Crash-loop budget: more than this many respawn attempts within
    #: ``crash_window_seconds`` parks the shard.
    max_respawns: int = 5
    crash_window_seconds: float = 60.0
    #: How long a respawned worker may take to report ready.
    ready_timeout_seconds: float = 300.0
    #: Warm standbys kept spawned (process mode; 0 falls back to cold
    #: spawns, which work but miss the respawn-latency target).
    standby_workers: int = 1
    #: Cache each worker's serialized RQ-tree into its payload so
    #: respawns skip the index build.
    cache_index: bool = True


class _Dispatch:
    """One supervised sub-query lane: (shard, client, handle)."""

    __slots__ = ("shard_id", "client", "handle", "request")

    def __init__(self, shard_id, client, handle, request) -> None:
        self.shard_id = shard_id
        self.client = client
        self.handle = handle
        self.request = request


class _ShardSlot:
    """Mutable supervision state for one shard."""

    def __init__(self, shard_id: int, payload: Dict[str, object],
                 client) -> None:
        self.shard_id = shard_id
        self.payload = payload
        self.client = client
        self.lock = threading.Lock()
        self.state = SHARD_HEALTHY
        self.state_reason: Optional[str] = None
        #: Set exactly while state == healthy (redispatch waits on it).
        self.healthy = threading.Event()
        self.healthy.set()
        #: Monotonic times of recent respawn attempts (crash window).
        self.respawn_times: deque = deque()
        #: Consecutive failed respawn attempts (backoff exponent).
        self.failed_attempts = 0
        #: Successful respawns over the slot's lifetime (for /healthz).
        self.respawns = 0
        self.next_attempt_at = 0.0
        self.probe_handle = None
        self.probe_sent_at = 0.0
        self.ping_handle = None
        self.ping_sent_at = 0.0
        #: Recent sub-query latencies (drives the p99 hedge delay).
        self.latencies: deque = deque(maxlen=128)
        #: Demoted straggler clients still draining an answer.
        self.retired: List[object] = []


class ShardSupervisor:
    """Monitors, respawns, and circuit-breaks a set of shard clients.

    Owned by :class:`~repro.shard.engine.ShardedRQTreeEngine` when built
    with ``supervise=True``.  The engine routes every submit/wait
    through the supervisor; the supervisor owns the *current* client of
    each shard (the engine's original client list goes stale after the
    first respawn).
    """

    def __init__(
        self,
        clients,
        payloads,
        mode: str,
        policy: Optional[SupervisorPolicy] = None,
        seed: int = 0,
    ) -> None:
        if len(clients) != len(payloads):
            raise ValueError("one payload per client required")
        self.mode = mode
        self.policy = policy or SupervisorPolicy()
        self._rng = random.Random(derive_seed(seed, "shard.supervisor"))
        self._slots = [
            _ShardSlot(payload["shard_id"], payload, client)
            for client, payload in zip(clients, payloads)
        ]
        self._standbys: List[WarmStandby] = []
        self._standby_lock = threading.Lock()
        self._stop = threading.Event()
        self._kick = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the standby pool, the monitor, and the index prefetch."""
        if self.mode == "process":
            with self._standby_lock:
                for _ in range(self.policy.standby_workers):
                    self._standbys.append(WarmStandby())
        self._monitor = threading.Thread(
            target=self._monitor_loop,
            name="repro-shard-supervisor",
            daemon=True,
        )
        self._monitor.start()
        if self.policy.cache_index:
            threading.Thread(
                target=self._prefetch_indexes,
                name="repro-shard-supervisor-index",
                daemon=True,
            ).start()

    def close(self) -> None:
        """Stop supervision and every owned client (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._kick.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        for slot in self._slots:
            with slot.lock:
                clients = [slot.client] + slot.retired
                slot.retired = []
            for client in clients:
                try:
                    client.close()
                except Exception:  # pragma: no cover - best effort
                    pass
        with self._standby_lock:
            standbys, self._standbys = self._standbys, []
        for standby in standbys:
            standby.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def states(self) -> Dict[int, Dict[str, object]]:
        """Per-shard state snapshot (surfaces on ``/healthz``)."""
        snapshot: Dict[int, Dict[str, object]] = {}
        for slot in self._slots:
            with slot.lock:
                snapshot[slot.shard_id] = {
                    "state": slot.state,
                    "reason": slot.state_reason,
                    "respawns": slot.respawns,
                    "queue_depth": getattr(slot.client, "queue_depth", 0),
                }
        return snapshot

    def client(self, shard_id: int):
        """The shard's *current* client (changes across respawns)."""
        slot = self._slots[shard_id]
        with slot.lock:
            return slot.client

    # ------------------------------------------------------------------
    # Live-update hooks
    # ------------------------------------------------------------------
    def update_payload(self, shard_id: int, payload: Dict[str, object]) -> None:
        """Swap a shard's respawn recipe for a new epoch's payload.

        Called by the live engine after streaming an update batch: a
        worker that dies from here on must respawn onto the *current*
        graph, not the one it booted with.  The cached ``tree_json`` is
        carried over: workers never rebuild their index (any
        hierarchical partition is a correct one), so it is still the
        tree the live worker holds, and the respawned worker skips the
        partition cascade.
        """
        slot = self._slots[shard_id]
        with slot.lock:
            tree_json = slot.payload.get("tree_json")
            if tree_json is not None and "tree_json" not in payload:
                payload = dict(payload)
                payload["tree_json"] = tree_json
            slot.payload = payload

    def reconfigure(self, clients, payloads) -> None:
        """Adopt a rebalanced shard topology (possibly a new shard count).

        Installs a fresh slot table over the new clients; the old slots
        are parked (never respawned) but their primary clients are NOT
        closed here — the caller owns the drain of in-flight queries
        against the old topology and closes them afterwards.  Retired
        straggler clients of the old slots are reaped immediately.
        """
        if len(clients) != len(payloads):
            raise ValueError("one payload per client required")
        new_slots = [
            _ShardSlot(payload["shard_id"], payload, client)
            for client, payload in zip(clients, payloads)
        ]
        old_slots, self._slots = self._slots, new_slots
        for slot in old_slots:
            with slot.lock:
                slot.state = SHARD_PARKED
                slot.state_reason = "superseded by rebalance"
                slot.healthy.clear()
                retired, slot.retired = slot.retired, []
            for client in retired:
                self._close_async(client)
        self._metrics().counter("shard.supervisor.reconfigures").inc()
        self._kick.set()
        if self.policy.cache_index and not self._stop.is_set():
            threading.Thread(
                target=self._prefetch_indexes,
                name="repro-shard-supervisor-index",
                daemon=True,
            ).start()

    def hedge_delay(self, shard_id: int) -> Optional[float]:
        """A p99-derived hedge delay for the shard, or ``None`` until
        enough latency samples exist to estimate a tail."""
        ordered = sorted(self._slots[shard_id].latencies)
        if len(ordered) < 8:
            return None
        p99 = ordered[min(len(ordered) - 1,
                          round(0.99 * (len(ordered) - 1)))]
        return min(max(1.5 * p99, 0.01), 1.0)

    # ------------------------------------------------------------------
    # Supervised dispatch
    # ------------------------------------------------------------------
    def submit(self, shard_id: int, request: Dict[str, object]) -> _Dispatch:
        """Dispatch one sub-query, honouring the circuit breaker.

        Open/parked shards fail fast (classic breaker semantics: new
        load never piles onto a respawning worker); the raised reason is
        structured so degraded answers say *why* the shard was skipped.
        """
        slot = self._slots[shard_id]
        with slot.lock:
            state, reason, client = slot.state, slot.state_reason, slot.client
        if state == SHARD_PARKED:
            raise ShardUnavailableError(shard_id, f"parked: {reason}")
        if state in (SHARD_OPEN, SHARD_HALF_OPEN):
            raise ShardUnavailableError(
                shard_id, f"circuit {state}: {reason or 'worker down'}"
            )
        try:
            handle = client.submit(request)
        except ShardUnavailableError:
            self.report_failure(
                shard_id, "submit found the worker gone", client=client
            )
            raise
        return _Dispatch(shard_id, client, handle, request)

    def wait(
        self,
        dispatch: _Dispatch,
        timeout: Optional[float] = None,
        attempt_timeout: Optional[float] = None,
        hedge_after: Optional[float] = None,
    ):
        """Await a dispatch with redispatch, bounded retry, and hedging.

        Returns ``(response, recovered)`` where ``recovered`` is True
        when the answer only arrived thanks to a supervisor
        intervention (respawn redispatch or straggler swap).  Raises
        :class:`ShardUnavailableError` when the shard could not answer
        within the caller's limits — exactly the unsupervised failure
        surface, so the engine's degraded-merge path is unchanged.

        ``timeout`` bounds the whole wait (budget-derived);
        ``attempt_timeout`` bounds each attempt and triggers the one
        bounded retry against a *replaced* worker (retrying on the same
        hung worker would just queue behind the hang).
        """
        slot = self._slots[dispatch.shard_id]
        started = time.monotonic()
        deadline = None if timeout is None else started + timeout
        attempt_deadline = (
            None if attempt_timeout is None else started + attempt_timeout
        )
        lanes = [dispatch]
        recovered = False
        redispatched = False
        hedged = False
        last_error: Optional[ShardUnavailableError] = None
        dead_client = None
        while True:
            for lane in list(lanes):
                try:
                    response = lane.client.poll(lane.handle)
                except ShardUnavailableError as error:
                    if not getattr(error, "worker_dead", False):
                        # The worker *answered* with an error — an
                        # application failure, not a transport death.
                        # Propagate it unchanged rather than cycling a
                        # healthy worker over a bad request.
                        for other in lanes:
                            if other is not lane:
                                other.client.cancel(other.handle)
                        raise
                    lanes.remove(lane)
                    last_error = error
                    dead_client = lane.client
                    continue
                if response is not None:
                    for other in lanes:
                        if other is not lane:
                            other.client.cancel(other.handle)
                    if hedged and lane is not dispatch:
                        self._metrics().counter(
                            "shard.supervisor.hedge_wins"
                        ).inc()
                        recovered = True
                    slot.latencies.append(time.monotonic() - started)
                    return response, recovered
            now = time.monotonic()
            if not lanes:
                # Every lane died mid-flight: one bounded redispatch on
                # a recovered worker.
                assert last_error is not None
                if redispatched:
                    raise last_error
                self.report_failure(
                    dispatch.shard_id, str(last_error), client=dead_client
                )
                lane = self._redispatch(slot, dispatch.request,
                                        deadline, last_error)
                lanes = [lane]
                redispatched = True
                recovered = True
                if attempt_timeout is not None:
                    attempt_deadline = time.monotonic() + attempt_timeout
                continue
            if attempt_deadline is not None and now >= attempt_deadline:
                # The worker is alive but has not answered: treat it as
                # hung.  Retrying on the same worker would queue behind
                # the hang, so trip the breaker (terminating the
                # worker), then redispatch once on its replacement.
                timeout_error = ShardUnavailableError(
                    dispatch.shard_id,
                    f"no response within {attempt_timeout:.3g}s",
                )
                for lane in lanes:
                    lane.client.cancel(lane.handle)
                if redispatched:
                    self._metrics().counter(
                        "shard.supervisor.retry_timeouts"
                    ).inc()
                    raise timeout_error
                self._trip(slot, str(timeout_error), kill=True)
                lane = self._redispatch(slot, dispatch.request,
                                        deadline, timeout_error)
                lanes = [lane]
                redispatched = True
                recovered = True
                attempt_deadline = time.monotonic() + attempt_timeout
                continue
            if deadline is not None and now >= deadline:
                for lane in lanes:
                    lane.client.cancel(lane.handle)
                self._suspect(
                    slot, f"no response within {timeout:.3g}s"
                )
                raise ShardUnavailableError(
                    dispatch.shard_id,
                    f"no response within {timeout:.3g}s",
                )
            if (
                hedge_after is not None
                and not hedged
                and not redispatched
                and self.mode == "process"
                and now - started >= hedge_after
            ):
                hedged = True  # one hedge per dispatch, even if it fails
                extra = self._hedge(slot, dispatch.request)
                if extra is not None:
                    lanes.append(extra)
            # Block on the primary lane's event so responses wake us
            # immediately; the short cap keeps death detection fresh.
            lanes[0].client.wait_event(lanes[0].handle, 0.02)

    def report_failure(self, shard_id: int, reason: str, client) -> None:
        """Gateway-side failure report: trips the breaker and kicks the
        monitor so the respawn starts now, not on the next sweep.

        The report names the *client* that failed, and trips nothing
        once that client has been replaced: the monitor saw the death
        first and already respawned the shard, and tripping again would
        discard a healthy worker and spend crash-loop budget on it.
        """
        self._trip(self._slots[shard_id], reason, client=client)

    # ------------------------------------------------------------------
    # Redispatch / hedging internals
    # ------------------------------------------------------------------
    def _redispatch(self, slot, request, deadline, cause):
        """Wait for the shard to come back, then resubmit one request."""
        try:
            fault_point("supervisor.redispatch")
        except InjectedFault:
            raise cause
        if not self._await_healthy(slot, deadline):
            raise cause
        with slot.lock:
            client = slot.client
        try:
            handle = client.submit(request)
        except ShardUnavailableError:
            raise cause
        self._metrics().counter("shard.supervisor.redispatched").inc()
        return _Dispatch(slot.shard_id, client, handle, request)

    def _await_healthy(self, slot, deadline) -> bool:
        self._kick.set()
        while True:
            with slot.lock:
                state = slot.state
            if state == SHARD_HEALTHY:
                return True
            if state == SHARD_PARKED:
                return False
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                return False
            slot.healthy.wait(
                0.02 if remaining is None else min(0.02, remaining)
            )

    def _hedge(self, slot, request) -> Optional[_Dispatch]:
        """Open a second lane for a straggling sub-query.

        Promotes a warm standby to be the shard's *new* primary client
        and duplicates the sub-query there; the old client keeps
        running as a retired lane so whichever copy answers first wins
        (the lb merge is idempotent, so duplicated work is
        answer-safe).  Subsequent queries go straight to the fresh
        client.  Returns ``None`` when no standby is ready — a hedge is
        an optimisation, never a queue."""
        with slot.lock:
            if slot.state not in (SHARD_HEALTHY, SHARD_SUSPECT):
                return None
            old = slot.client
        standby = self._take_standby(warm_only=True)
        if standby is None:
            self._metrics().counter(
                "shard.supervisor.hedge_unavailable"
            ).inc()
            return None
        try:
            fault_point("supervisor.hedge")
            client = ProcessShardClient(slot.payload, standby=standby)
            client.wait_ready(timeout=self.policy.ready_timeout_seconds)
        except (ShardUnavailableError, InjectedFault):
            return None
        with slot.lock:
            if slot.client is old:
                slot.client = client
                slot.retired.append(old)
            else:
                # Lost a swap race (concurrent hedge or respawn); let
                # the reaper retire our freshly-built client instead.
                slot.retired.append(client)
        self._metrics().counter("shard.supervisor.hedges").inc()
        try:
            handle = client.submit(request)
        except ShardUnavailableError:
            return None
        return _Dispatch(slot.shard_id, client, handle, request)

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _trip(
        self, slot, reason: str, kill: bool = False, client=None
    ) -> None:
        """healthy/suspect/half-open → open-circuit (only while *client*,
        when given, is still the slot's current one)."""
        with slot.lock:
            if slot.state in (SHARD_OPEN, SHARD_PARKED):
                return
            if client is not None and slot.client is not client:
                return
            client = slot.client
            slot.state = SHARD_OPEN
            slot.state_reason = reason
            slot.healthy.clear()
            slot.next_attempt_at = 0.0  # first respawn attempt immediate
            slot.probe_handle = None
            slot.ping_handle = None
        self._metrics().counter("shard.supervisor.trips").inc()
        if kill:
            self._close_async(client)
        self._kick.set()

    def _suspect(self, slot, reason: str) -> None:
        with slot.lock:
            if slot.state != SHARD_HEALTHY:
                return
            slot.state = SHARD_SUSPECT
            slot.state_reason = reason
            slot.healthy.clear()
        self._metrics().counter("shard.supervisor.suspects").inc()

    def _clear_suspect(self, slot) -> None:
        with slot.lock:
            if slot.state != SHARD_SUSPECT:
                return
            slot.state = SHARD_HEALTHY
            slot.state_reason = None
            slot.healthy.set()

    def _park(self, slot, reason: str) -> None:
        with slot.lock:
            client = slot.client
            slot.state = SHARD_PARKED
            slot.state_reason = reason
            slot.healthy.clear()
        self._metrics().counter("shard.supervisor.parked").inc()
        self._close_async(client)

    # ------------------------------------------------------------------
    # Monitor loop
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            self._kick.wait(timeout=self.policy.ping_interval_seconds)
            self._kick.clear()
            if self._stop.is_set():
                return
            for slot in self._slots:
                try:
                    self._sweep(slot)
                except Exception:  # pragma: no cover - monitor survives
                    pass
            self._reap_retired()
            self._replenish_standbys()

    def _sweep(self, slot) -> None:
        policy = self.policy
        with slot.lock:
            state, client = slot.state, slot.client
        if state == SHARD_PARKED:
            return
        now = time.monotonic()
        if state in (SHARD_HEALTHY, SHARD_SUSPECT):
            if not client.is_alive():
                self._trip(slot, "worker process died")
                self._respawn_if_due(slot)
                return
            depth = getattr(client, "queue_depth", 0)
            self._metrics().gauge(
                f"shard.supervisor.{slot.shard_id}.queue_depth"
            ).set(depth)
            if depth > policy.queue_depth_watermark:
                self._suspect(
                    slot,
                    f"queue depth {depth} above watermark "
                    f"{policy.queue_depth_watermark}",
                )
            if slot.ping_handle is None:
                try:
                    slot.ping_handle = client.submit_control("ping")
                    slot.ping_sent_at = now
                except ShardUnavailableError as error:
                    self._trip(slot, f"ping submit failed: {error}")
                    self._respawn_if_due(slot)
                return
            try:
                answer = client.poll(slot.ping_handle)
            except ShardUnavailableError as error:
                slot.ping_handle = None
                self._trip(slot, f"ping failed: {error}")
                self._respawn_if_due(slot)
                return
            if answer is not None:
                slot.ping_handle = None
                depth = getattr(client, "queue_depth", 0)
                if depth <= policy.queue_depth_watermark:
                    self._clear_suspect(slot)
            elif now - slot.ping_sent_at > policy.ping_timeout_seconds:
                # Alive but not draining its queue: slow, not dead.
                self._suspect(
                    slot,
                    f"ping unanswered for "
                    f"{now - slot.ping_sent_at:.1f}s",
                )
            return
        if state == SHARD_OPEN:
            self._respawn_if_due(slot)
            return
        if state == SHARD_HALF_OPEN:
            self._check_probe(slot)

    def _respawn_if_due(self, slot) -> None:
        with slot.lock:
            if slot.state != SHARD_OPEN:
                return
            if time.monotonic() < slot.next_attempt_at:
                return
        self._respawn(slot)

    def _respawn(self, slot) -> None:
        policy = self.policy
        now = time.monotonic()
        slot.respawn_times.append(now)
        while (slot.respawn_times
               and now - slot.respawn_times[0] > policy.crash_window_seconds):
            slot.respawn_times.popleft()
        if len(slot.respawn_times) > policy.max_respawns:
            self._park(
                slot,
                f"crash-loop budget exhausted ({policy.max_respawns} "
                f"respawn attempts in {policy.crash_window_seconds:.0f}s); "
                f"last error: {slot.state_reason}",
            )
            return
        self._metrics().counter("shard.supervisor.respawns").inc()
        with slot.lock:
            old = slot.client
        # Tear the old client down off the respawn path: joining its
        # receiver thread costs up to its poll interval, which would
        # dominate the respawn latency budget.
        self._close_async(old)
        try:
            fault_point("supervisor.respawn")
            if self.mode == "process":
                standby = self._take_standby()
                client = ProcessShardClient(slot.payload, standby=standby)
                client.wait_ready(timeout=policy.ready_timeout_seconds)
            else:
                client = InlineShardClient(slot.payload)
        except Exception as error:  # noqa: BLE001 - any failure backs off
            self._respawn_failed(slot, f"respawn failed: {error}")
            return
        with slot.lock:
            slot.client = client
            slot.state = SHARD_HALF_OPEN
            slot.state_reason = "probing respawned worker"
        # Half-open probe: the worker must answer one queue round-trip
        # before taking traffic again.
        try:
            fault_point("supervisor.probe")
            slot.probe_handle = client.submit_control("ping")
            slot.probe_sent_at = time.monotonic()
        except Exception as error:  # noqa: BLE001 - probe must not leak
            self._trip(slot, f"probe failed: {error}", kill=True)
            self._respawn_failed(slot, f"probe failed: {error}")
            return
        # Give the probe one short synchronous chance so a healthy
        # respawn completes within the same sweep (latency matters:
        # redispatched requests are waiting on it).
        client.wait_event(
            slot.probe_handle, min(policy.ping_timeout_seconds, 1.0)
        )
        self._check_probe(slot)

    def _respawn_failed(self, slot, reason: str) -> None:
        slot.failed_attempts += 1
        delay = min(
            self.policy.backoff_base_seconds * (2 ** (slot.failed_attempts - 1)),
            self.policy.backoff_max_seconds,
        )
        jitter = 1.0 + self.policy.backoff_jitter * self._rng.uniform(-1, 1)
        with slot.lock:
            if slot.state == SHARD_PARKED:
                return
            slot.state = SHARD_OPEN
            slot.state_reason = reason
            slot.next_attempt_at = time.monotonic() + delay * jitter
        self._metrics().counter("shard.supervisor.respawn_failures").inc()

    def _check_probe(self, slot) -> None:
        with slot.lock:
            if slot.state != SHARD_HALF_OPEN:
                return
            client = slot.client
            handle = slot.probe_handle
        try:
            answer = client.poll(handle)
        except ShardUnavailableError as error:
            self._trip(slot, f"probe failed: {error}", kill=True)
            self._respawn_failed(slot, f"probe failed: {error}")
            return
        if answer is not None:
            with slot.lock:
                slot.state = SHARD_HEALTHY
                slot.state_reason = None
                slot.probe_handle = None
                slot.failed_attempts = 0
                slot.respawns += 1
                slot.healthy.set()
            self._metrics().counter("shard.supervisor.recoveries").inc()
            if (self.policy.cache_index
                    and "tree_json" not in slot.payload):
                self._cache_index_async(slot)
        elif (time.monotonic() - slot.probe_sent_at
              > self.policy.ping_timeout_seconds):
            self._trip(slot, "probe timed out", kill=True)
            self._respawn_failed(slot, "probe timed out")

    # ------------------------------------------------------------------
    # Standbys, retirement, index caching
    # ------------------------------------------------------------------
    @staticmethod
    def _close_async(client) -> None:
        """Close a (usually already dead) client off the hot path."""

        def close() -> None:
            try:
                client.close(join_timeout=2.0)
            except Exception:  # pragma: no cover - best effort
                pass

        threading.Thread(
            target=close, name="repro-shard-supervisor-close", daemon=True
        ).start()

    def _take_standby(self, warm_only: bool = False) -> Optional[WarmStandby]:
        """Pop a standby, preferring one whose interpreter has finished
        booting.  With ``warm_only`` (the hedging path) a cold standby
        is left in the pool: a hedge that blocks behind a worker boot
        would be slower than the straggler it is racing, whereas a
        respawn adopts cold happily (the init message just queues
        behind the remaining boot)."""
        with self._standby_lock:
            alive = [s for s in self._standbys if s.is_alive()]
            dead = [s for s in self._standbys if not s.is_alive()]
            chosen = next((s for s in alive if s.is_warm()), None)
            if chosen is None and alive and not warm_only:
                chosen = alive[0]
            if chosen is not None:
                alive.remove(chosen)
            self._standbys = alive
        for standby in dead:
            standby.close()
        return chosen

    def _replenish_standbys(self) -> None:
        if self.mode != "process" or self._stop.is_set():
            return
        with self._standby_lock:
            self._standbys = [s for s in self._standbys if s.is_alive()]
            while len(self._standbys) < self.policy.standby_workers:
                self._standbys.append(WarmStandby())

    def _reap_retired(self) -> None:
        """Close demoted straggler clients once they finished draining
        (or died); their late answers were already cancelled or lost."""
        for slot in self._slots:
            with slot.lock:
                retired = list(slot.retired)
            for client in retired:
                if (getattr(client, "queue_depth", 0) == 0
                        or not client.is_alive()):
                    try:
                        client.close(join_timeout=0.2)
                    except Exception:  # pragma: no cover - best effort
                        pass
                    with slot.lock:
                        if client in slot.retired:
                            slot.retired.remove(client)

    def _prefetch_indexes(self) -> None:
        """Cache each worker's serialized RQ-tree into its payload so
        the first respawn already skips the index build."""
        for slot in self._slots:
            if self._stop.is_set():
                return
            if "tree_json" in slot.payload:
                continue
            with slot.lock:
                client = slot.client
            try:
                slot.payload["tree_json"] = client.fetch_index(
                    timeout=self.policy.ready_timeout_seconds
                )
            except ShardUnavailableError:
                continue  # the post-respawn hook retries the fetch

    def _cache_index_async(self, slot) -> None:
        def fetch() -> None:
            with slot.lock:
                client = slot.client
            try:
                slot.payload["tree_json"] = client.fetch_index(
                    timeout=self.policy.ready_timeout_seconds
                )
            except ShardUnavailableError:
                pass

        threading.Thread(
            target=fetch,
            name=f"repro-shard-supervisor-index-{slot.shard_id}",
            daemon=True,
        ).start()

    @staticmethod
    def _metrics():
        from ..service.metrics import get_registry

        return get_registry()
