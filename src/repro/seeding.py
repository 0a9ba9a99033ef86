"""Deterministic seed derivation for fan-out workloads.

Whenever one user-supplied seed has to feed *several* random streams —
the per-query seeds of an evaluation workload, the per-rebuild seeds of
the dynamic index, the per-query verification streams of the serving
layer — deriving children as ``seed + i`` risks stream overlap: two
nearby root seeds (say 0 and 1) produce child sets that share almost
every member, so "independent" experiment repetitions silently reuse
most of their randomness.

This module fixes one scheme, used everywhere a seed fans out:

* The root entropy of a child stream is
  ``numpy.random.SeedSequence([root, *key])`` where ``key`` is a tuple
  of integers identifying the child (a namespace tag hashed to an int,
  then indices such as the query number).  ``SeedSequence`` mixes its
  entropy words through hashing, so children of *any* two distinct
  ``(root, key)`` pairs are statistically independent — no overlap
  between nearby roots, no correlation between adjacent indices.
* A *derived seed* is the first 64-bit word of
  ``SeedSequence.generate_state`` — a plain ``int`` usable by both
  ``random.Random`` and ``numpy.random.default_rng``, so python and
  numpy random streams stay seedable by the same value.
* Bulk fan-out (:func:`spawn_seeds`) enumerates indices ``0..n-1``
  under one key, matching ``SeedSequence.spawn`` semantics (each child
  is keyed by its spawn position) while keeping the children
  individually re-derivable: ``spawn_seeds(root, n, tag)[i] ==
  derive_seed(root, tag, i)``.

The scheme is pinned by ``tests/test_seeding.py`` (stability across
calls and processes, no collisions across a large fan-out) and
documented in DESIGN.md ("Seed streams").
"""

from __future__ import annotations

import hashlib
from typing import List, Union

import numpy as np

__all__ = ["derive_seed", "spawn_seeds"]

#: Derived seeds are 63-bit non-negative ints: valid for
#: ``random.Random``, ``numpy.random.default_rng`` and JSON round-trips.
_SEED_BITS = 63


def _key_word(part: Union[int, str]) -> int:
    """Map one key component to a non-negative entropy word.

    String tags (namespaces like ``"harness.query"``) are hashed with
    SHA-256 so the entropy word is stable across processes — python's
    built-in ``hash`` is salted per process and must not leak into
    seeds.
    """
    if isinstance(part, int):
        # SeedSequence entropy words must be non-negative; fold the
        # sign bit in a collision-free way.
        return part if part >= 0 else (abs(part) << 1) | 1
    digest = hashlib.sha256(part.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seed(root: int, *key: Union[int, str]) -> int:
    """One child seed for stream ``key`` under *root*.

    ``key`` identifies the child stream: a string namespace tag
    followed by integer indices, e.g. ``derive_seed(seed,
    "harness.query", query_index)``.  Distinct ``(root, key)`` pairs
    give statistically independent streams; identical pairs always give
    the same seed.
    """
    words = [_key_word(root)] + [_key_word(part) for part in key]
    state = np.random.SeedSequence(words).generate_state(1, np.uint64)
    return int(state[0]) & ((1 << _SEED_BITS) - 1)


def spawn_seeds(root: int, n: int, *key: Union[int, str]) -> List[int]:
    """*n* child seeds under ``key``, one per index ``0..n-1``.

    ``spawn_seeds(root, n, tag)[i] == derive_seed(root, tag, i)`` — the
    bulk form exists so call sites that fan out a whole workload read
    as one operation (mirroring ``SeedSequence.spawn``).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return [derive_seed(root, *key, index) for index in range(n)]
