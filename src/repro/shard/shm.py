"""Shared-memory CSR segments: the zero-copy shard payload transport.

``transport="pickle"`` ships each shard its subgraph as a pickled arc
list — fine for construction, but the bytes are copied at least three
times (pickle, pipe, unpickle) and land as Python objects.  The shm
transport instead publishes the shard subgraph's CSR snapshot
(:class:`repro.accel.csr.CSRGraph`) into one
``multiprocessing.shared_memory`` segment per shard at spawn time;
workers map the arrays **read-only, zero-copy** (numpy views over the
segment buffer) and the pickled payload shrinks to a few scalars plus
the segment's field table.  Per-query messages were already scalars and
node-id lists; with the graph bytes out of the pipe, they are all that
remains on the wire.

Segment layout
--------------
One segment holds every array of one CSR snapshot, concatenated with
64-byte alignment: ``indptr`` / ``indices`` / ``probs`` (+ ``_f32``)
forward and reverse, plus the shard's ``global_ids`` relabelling
vector.  The field table (name → dtype, shape, byte offset) travels in
the payload next to the segment name; both sides derive their views
from it, so layout changes cannot desynchronize silently.

Lifecycle and crash-safety
--------------------------
The **creator** (the gateway process building a sharded engine) owns
every segment through the module-level :class:`SegmentRegistry`:
refcounted ``publish`` / ``retain`` / ``release``, with the last
release closing *and unlinking* the segment.  An ``atexit`` hook
unlinks anything still registered at interpreter shutdown, so a clean
but untidy exit leaks nothing.

For unclean exits the CPython ``resource_tracker`` is the backstop —
and its semantics on this interpreter shape the protocol:

* Creating **and attaching** a ``SharedMemory`` both register the name
  with the resource tracker (a separate watchdog process).
* Spawned shard workers inherit the creator's tracker, so their attach
  registrations dedupe into the same cache entry.  **Nobody manually
  unregisters**: a worker unregistering would strip the creator's
  crash insurance, and a clean ``unlink()`` unregisters by itself.
* The tracker unlinks leftover segments only once *every* process
  sharing it has exited.  Daemon workers outlive a ``SIGKILL``-ed
  gateway (the atexit reaper never ran), so the worker loop watches
  ``multiprocessing.parent_process().is_alive()`` and exits when
  orphaned — at which point the tracker reaps every segment.  A
  ``SIGKILL``-ed *worker* releases nothing: the creator still owns the
  segment and unlinks it on ``close()``.

Attached segments are tracked per-process and released best-effort via
:func:`detach_all`; a worker that dies abruptly merely unmaps.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

try:  # pragma: no cover - POSIX-only stdlib module
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without shm
    _shared_memory = None  # type: ignore[assignment]

from ..accel.csr import CSRGraph

__all__ = [
    "SegmentRegistry",
    "attach_csr",
    "detach_all",
    "publish_csr",
    "registry",
    "shm_available",
]

#: Byte alignment of every field inside a segment: one cache line, and
#: a multiple of every element size we store (int64/float64/float32).
_ALIGN = 64

#: The CSRGraph arrays a segment carries, in layout order.
_CSR_FIELDS = (
    "indptr",
    "indices",
    "probs",
    "probs_f32",
    "rev_indptr",
    "rev_indices",
    "rev_probs",
    "rev_probs_f32",
)


def shm_available() -> bool:
    """Whether the shared-memory transport can run in this environment."""
    return np is not None and _shared_memory is not None


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SegmentRegistry:
    """Creator-side table of published segments with refcounted unlink.

    ``publish`` allocates a segment, copies the arrays in, and records
    it with refcount 1.  ``retain`` / ``release`` adjust the count; the
    release that reaches zero closes and **unlinks** the segment (the
    attach side never unlinks).  ``shutdown`` — registered via
    ``atexit`` on first publish — force-unlinks anything left, so
    leaked engine handles cannot leak kernel objects past process
    exit.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: Dict[str, object] = {}
        self._refs: Dict[str, int] = {}
        self._atexit_installed = False

    def publish(self, arrays: Dict[str, "np.ndarray"]) -> Dict[str, object]:
        """Copy *arrays* into a fresh segment; returns the attach meta.

        The meta dict is small and picklable: segment ``name``,
        ``nbytes``, and a ``fields`` table of dtype/shape/offset per
        array.  The new segment starts with refcount 1, owned by the
        caller.
        """
        if not shm_available():
            raise RuntimeError(
                "multiprocessing.shared_memory (and numpy) are required "
                "for the shm transport; use transport='pickle'"
            )
        fields: Dict[str, Dict[str, object]] = {}
        offset = 0
        for name, array in arrays.items():
            offset = _aligned(offset)
            fields[name] = {
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "offset": offset,
            }
            offset += array.nbytes
        total = max(offset, 1)  # zero-byte segments are invalid
        segment = _shared_memory.SharedMemory(create=True, size=total)
        for name, array in arrays.items():
            spec = fields[name]
            flat = np.frombuffer(
                segment.buf,
                dtype=array.dtype,
                count=array.size,
                offset=spec["offset"],
            )
            flat[:] = array.ravel()
        with self._lock:
            self._segments[segment.name] = segment
            self._refs[segment.name] = 1
            if not self._atexit_installed:
                atexit.register(self.shutdown)
                self._atexit_installed = True
        return {
            "name": segment.name,
            "nbytes": total,
            "fields": fields,
        }

    def owns(self, name: str) -> bool:
        """Whether this process created (and still holds) *name*."""
        with self._lock:
            return name in self._segments

    def refcount(self, name: str) -> int:
        with self._lock:
            return self._refs.get(name, 0)

    def retain(self, name: str) -> None:
        """Add one owner to a published segment."""
        with self._lock:
            if name not in self._refs:
                raise KeyError(f"unknown shared-memory segment {name!r}")
            self._refs[name] += 1

    def release(self, name: str) -> bool:
        """Drop one owner; unlink on the last release.  Idempotent for
        already-released names (returns ``False``)."""
        with self._lock:
            if name not in self._refs:
                return False
            self._refs[name] -= 1
            if self._refs[name] > 0:
                return False
            segment = self._segments.pop(name)
            del self._refs[name]
        self._destroy(segment)
        return True

    def active(self) -> List[str]:
        """Names of the segments this process currently owns."""
        with self._lock:
            return sorted(self._segments)

    def shutdown(self) -> None:
        """Unlink every remaining segment (atexit backstop)."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            self._refs.clear()
        for segment in segments:
            self._destroy(segment)

    @staticmethod
    def _destroy(segment: object) -> None:
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        try:
            segment.close()
        except BufferError:
            # Live numpy views still export the mapping (e.g. an
            # inline-mode runtime the caller kept a reference to).
            # Disarm the handle so its destructor doesn't retry and
            # spam shutdown; the mapping itself is released when the
            # last view dies, or at process exit.
            segment._buf = None
            segment._mmap = None
            fd = getattr(segment, "_fd", -1)
            if fd >= 0:  # pragma: no branch - POSIX only
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - already closed
                    pass
                segment._fd = -1


#: The process-wide creator-side registry.
registry = SegmentRegistry()

#: Attach-side handles, kept alive while numpy views reference them.
_attached: Dict[str, object] = {}
_attached_lock = threading.Lock()


def publish_csr(
    csr: CSRGraph, global_ids: List[int]
) -> Dict[str, object]:
    """Publish one shard's CSR snapshot (+ id relabelling) as a segment.

    Returns the picklable meta the worker passes to :func:`attach_csr`;
    carries ``num_nodes`` / ``num_arcs`` so the attach side can rebuild
    a :class:`CSRGraph` without touching the graph object.
    """
    arrays = {name: getattr(csr, name) for name in _CSR_FIELDS}
    arrays["global_ids"] = np.asarray(global_ids, dtype=np.int64)
    meta = registry.publish(arrays)
    meta["num_nodes"] = csr.num_nodes
    meta["num_arcs"] = csr.num_arcs
    return meta


def attach_csr(
    meta: Dict[str, object]
) -> Tuple[Dict[str, "np.ndarray"], "np.ndarray"]:
    """Map a published segment; returns ``(csr_arrays, global_ids)``.

    Every array is a read-only numpy view over the segment buffer — no
    copy.  The underlying handle is cached in a per-process table so
    the views stay valid for the process lifetime (or until
    :func:`detach_all`).  Attaching a segment this process itself
    published reuses the registry's handle rather than double-mapping.
    """
    if not shm_available():
        raise RuntimeError(
            "multiprocessing.shared_memory (and numpy) are required "
            "to attach a shm payload"
        )
    name = meta["name"]
    with _attached_lock:
        segment = _attached.get(name)
        if segment is None:
            if registry.owns(name):
                segment = registry._segments[name]
            else:
                segment = _shared_memory.SharedMemory(name=name)
                _attached[name] = segment
    views: Dict[str, "np.ndarray"] = {}
    for field, spec in meta["fields"].items():
        count = 1
        for dim in spec["shape"]:
            count *= dim
        view = np.frombuffer(
            segment.buf,
            dtype=np.dtype(spec["dtype"]),
            count=count,
            offset=spec["offset"],
        ).reshape(spec["shape"])
        view.setflags(write=False)
        views[field] = view
    global_ids = views.pop("global_ids")
    return views, global_ids


def detach_all() -> None:
    """Close every attached (not owned) segment, best effort.

    Never unlinks — only the creator does that.  A ``BufferError``
    (live numpy views still exported) is swallowed: the process is on
    its way out and exit unmaps regardless; this call exists to keep
    tidy shutdowns warning-free.
    """
    with _attached_lock:
        segments = list(_attached.values())
        _attached.clear()
    for segment in segments:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - views still referenced
            pass
