"""Shareable, deterministic coin blocks for cross-query world batching.

The batched MC kernel (:mod:`repro.accel.mc_kernel`) spends most of its
time materializing arc coins: one ``Generator.random`` draw of shape
``(plan arcs, worlds)`` per chunk, compared against the arc
probabilities and bit-packed.  Those coins depend only on ``(graph
version, candidate set, seed, chunk partition)`` — *not* on the
query's sources or hop budget — so concurrent queries that sample the
same number of worlds from the same seed over the same candidate set
would each draw an identical coin matrix.

:class:`CoinBlock` shares that draw.  It keeps one
``numpy.random.default_rng(seed)`` stream per candidate node set (the
plan's :attr:`~repro.accel.mc_kernel.ReachPlan.key`) and materializes
packed coin chunks lazily, in the exact order and shapes the kernel
would have drawn them itself; every consumer passing the block as
``coin_source=`` to :func:`repro.accel.mc_kernel.sample_reach_batch`
gets bit-identical coins to a private draw from the same seed.  The
first consumer to need a chunk pays for it; the rest reuse the cached
array.  Per-query answers are therefore *byte-identical* to serial,
unshared execution — the whole point of the serving layer's
concurrent-vs-serial parity guarantee.  Queries over different
candidate sets hold different streams and share nothing.

The kernel opens a stream for each run and closes it after.  A closed
stream stays in the block, idle, so a holder that reaches the kernel
later still shares it; a block given an idle byte budget drops its
least recently closed idle streams beyond it, so a block that always
has some holder does not grow with every candidate set it serves.

Alignment contract: all consumers of one stream must request the same
chunk partition, which holds automatically when they call
``sample_reach_batch`` with the same ``num_worlds`` on the same graph
version and candidate set (the partition is a pure function of those).
Misaligned requests raise instead of silently desynchronizing the
stream; the query that raised degrades instead of corrupting anyone's
answer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

__all__ = ["CoinBlock", "draw_coins", "packed_columns", "pack_world_bits"]


def packed_columns(num_worlds: int) -> int:
    """Packed ``uint8`` columns holding *num_worlds* world bits.

    ``ceil(num_worlds / 8)`` rounded up to a multiple of 8 bytes, so a
    packed row is always view-castable to the kernel's ``uint64``
    words.  The pad bytes are zero — phantom worlds in which no coin
    ever lands heads — and are sliced off when the kernel unpacks its
    result.
    """
    return ((num_worlds + 63) // 64) * 8


def pack_world_bits(raw: np.ndarray) -> np.ndarray:
    """Bit-pack boolean world rows into zero-padded ``uint8`` rows.

    Exactly ``np.packbits(raw, axis=1)`` followed by zero-padding each
    row to :func:`packed_columns` width.
    """
    packed = np.packbits(raw, axis=1)
    width = packed_columns(raw.shape[1])
    if packed.shape[1] == width:
        return packed
    padded = np.zeros((packed.shape[0], width), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded


def draw_coins(rng: np.random.Generator, plan, size: int) -> np.ndarray:
    """One chunk of packed coins for *plan*'s arcs: ``size`` worlds.

    The kernel's private draw and :class:`CoinBlock` both draw through
    here, so shared and unshared streams produce identical arrays byte
    for byte.
    """
    return pack_world_bits(
        rng.random((plan.num_arcs, size), dtype=np.float32)
        < plan.probs_f32[:, None]
    )


class _Stream:
    """The drawn chunks of one candidate set's ``default_rng(seed)``."""

    __slots__ = ("lock", "rng", "chunks", "sizes", "next_start", "readers")

    def __init__(self, seed: Optional[int]) -> None:
        self.lock = threading.Lock()
        self.rng = np.random.default_rng(seed)
        self.chunks: Dict[int, np.ndarray] = {}
        self.sizes: Dict[int, int] = {}
        self.next_start = 0
        #: Kernel runs currently reading the stream (open/close pairs).
        self.readers = 0

    @property
    def nbytes(self) -> int:
        # A snapshot: another run may be adding a chunk meanwhile.
        return sum(chunk.nbytes for chunk in list(self.chunks.values()))


class CoinBlock:
    """Lazily materialized packed arc coins for shared sampling streams.

    Parameters
    ----------
    seed:
        The per-query verification seed all sharing queries use; each
        candidate set's stream is ``numpy.random.default_rng(seed)``.
    num_worlds:
        Total worlds of the sampling runs sharing this block (their
        common ``num_samples``); bounds the block's memory per stream.
    idle_bytes:
        Bytes of *idle* streams — ones no run has open — the block
        keeps; beyond it the least recently closed are dropped.  An
        open stream is never dropped, so the block holds at most its
        open streams plus *idle_bytes*.  ``None`` keeps every stream.

    The kernel brackets each run with :meth:`open` / :meth:`close`.
    Thread-safe: materialization is serialized per stream; returned
    arrays are read-only and shared by reference.
    """

    def __init__(
        self,
        seed: Optional[int],
        num_worlds: int,
        idle_bytes: Optional[int] = None,
    ) -> None:
        if num_worlds <= 0:
            raise ValueError(f"num_worlds must be positive, got {num_worlds}")
        self.seed = seed
        self.num_worlds = num_worlds
        self.idle_bytes = idle_bytes
        self._lock = threading.Lock()
        self._streams: Dict[bytes, _Stream] = {}
        # Idle stream key -> its size when it went idle, oldest first.
        self._idle: "OrderedDict[bytes, int]" = OrderedDict()
        self._idle_nbytes = 0
        self._bound: Optional[tuple] = None
        #: Chunks drawn / chunk requests served from cache (metrics).
        self.draws = 0
        self.hits = 0

    @property
    def nbytes(self) -> int:
        """Bytes held by the materialized chunks."""
        with self._lock:
            streams = list(self._streams.values())
        return sum(stream.nbytes for stream in streams)

    @property
    def idle_nbytes(self) -> int:
        """Bytes held by idle streams."""
        with self._lock:
            return self._idle_nbytes

    def _stream(self, plan) -> _Stream:
        """*plan*'s stream, created empty on first use (lock held)."""
        generation = (plan.version, plan.epoch)
        if self._bound is None:
            self._bound = generation
        elif generation != self._bound:
            raise RuntimeError(
                f"coin block bound to graph generation {self._bound} "
                f"used with {generation}; the graph mutated between "
                "sharing queries"
            )
        stream = self._streams.get(plan.key)
        if stream is None:
            stream = self._streams[plan.key] = _Stream(self.seed)
        return stream

    def open(self, plan) -> None:
        """Start a kernel run reading *plan*'s stream."""
        with self._lock:
            stream = self._stream(plan)
            if plan.key in self._idle:
                self._idle_nbytes -= self._idle.pop(plan.key)
            stream.readers += 1

    def close(self, plan) -> None:
        """End a run started with :meth:`open`; trim idle streams."""
        with self._lock:
            stream = self._streams.get(plan.key)
            if stream is None or stream.readers <= 0:
                return
            stream.readers -= 1
            if stream.readers:
                return
            nbytes = stream.nbytes
            if not nbytes:
                del self._streams[plan.key]  # nothing drawn to share
                return
            self._idle[plan.key] = nbytes
            self._idle_nbytes += nbytes
            if self.idle_bytes is None:
                return
            while self._idle_nbytes > self.idle_bytes:
                oldest, size = self._idle.popitem(last=False)
                self._idle_nbytes -= size
                del self._streams[oldest]

    def coins(self, plan, start: int, size: int) -> np.ndarray:
        """Packed coins of *plan*'s arcs for worlds ``start .. start+size-1``.

        Returns the ``uint8[plan.num_arcs, packed_columns(size)]`` array
        the kernel would have produced from its own ``default_rng(seed)``
        at the same stream position — drawn on first request, cached
        after.
        """
        if size <= 0 or start < 0 or start + size > self.num_worlds:
            raise ValueError(
                f"chunk [{start}, {start + size}) outside the block's "
                f"{self.num_worlds} worlds"
            )
        with self._lock:
            stream = self._stream(plan)
        with stream.lock:
            cached = stream.chunks.get(start)
            if cached is not None:
                # Compare exact world counts, not padded widths: rows
                # are padded to uint64 multiples, so differently sized
                # chunks can share a byte width yet desync the stream.
                if stream.sizes[start] != size:
                    raise RuntimeError(
                        "misaligned chunk request: consumers of one coin "
                        "stream must use the same chunk partition"
                    )
                hit = True
            else:
                if start != stream.next_start:
                    raise RuntimeError(
                        f"non-sequential first request for chunk at {start} "
                        f"(next undrawn is {stream.next_start}); consumers "
                        "of one coin stream must use the same chunk "
                        "partition"
                    )
                cached = draw_coins(stream.rng, plan, size)
                cached.setflags(write=False)
                stream.chunks[start] = cached
                stream.sizes[start] = size
                stream.next_start = start + size
                hit = False
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.draws += 1
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CoinBlock(seed={self.seed}, worlds={self.num_worlds}, "
            f"streams={len(self._streams)}, draws={self.draws}, "
            f"hits={self.hits})"
        )
