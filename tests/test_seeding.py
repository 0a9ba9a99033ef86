"""Tests for the seed-derivation scheme (repro.seeding).

The scheme is a library-wide contract — every place one seed fans out
into many streams derives children through it — so these tests pin
determinism, independence (no collisions across large fan-outs, no
overlap between nearby roots), and the spawn/derive equivalence.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.seeding import derive_seed, spawn_seeds


def test_derive_is_deterministic():
    assert derive_seed(42, "tag", 0) == derive_seed(42, "tag", 0)
    assert derive_seed(0) == derive_seed(0)


def test_derive_distinguishes_every_key_component():
    base = derive_seed(42, "tag", 0)
    assert derive_seed(43, "tag", 0) != base       # root
    assert derive_seed(42, "other", 0) != base     # namespace
    assert derive_seed(42, "tag", 1) != base       # index


def test_derived_seeds_are_valid_for_both_rngs():
    seed = derive_seed(7, "both-rngs", 3)
    assert 0 <= seed < 2 ** 63
    random.Random(seed).random()
    np.random.default_rng(seed).random()


def test_no_collisions_across_large_fanout():
    seeds = set()
    for root in range(5):
        seeds.update(spawn_seeds(root, 2000, "fanout"))
    # 5 roots x 2000 children: all distinct (the seed+i scheme this
    # replaces would give ~8000 collisions here).
    assert len(seeds) == 5 * 2000


def test_nearby_roots_share_no_children():
    a = set(spawn_seeds(0, 500, "workload"))
    b = set(spawn_seeds(1, 500, "workload"))
    assert not a & b


def test_spawn_matches_derive():
    assert spawn_seeds(9, 10, "tag") == [
        derive_seed(9, "tag", index) for index in range(10)
    ]
    assert spawn_seeds(9, 10, "tag", 4)[3] == derive_seed(9, "tag", 4, 3)


def test_spawn_rejects_negative_count():
    with pytest.raises(ValueError, match="non-negative"):
        spawn_seeds(0, -1, "tag")
    assert spawn_seeds(0, 0, "tag") == []


def test_negative_roots_are_distinct_streams():
    assert derive_seed(-1, "tag") != derive_seed(1, "tag")
    assert derive_seed(-1, "tag") != derive_seed(-2, "tag")
    assert derive_seed(-5, "tag", 0) == derive_seed(-5, "tag", 0)


def test_scheme_is_pinned():
    # Frozen expected values: a change here silently reshuffles every
    # derived stream in the library (harness workloads, shard builds,
    # service seeds), so it must be a deliberate decision.
    assert derive_seed(0, "pin") == derive_seed(0, "pin")
    pinned = np.random.SeedSequence(
        [0, int.from_bytes(__import__("hashlib").sha256(b"pin").digest()[:8],
                           "big")]
    ).generate_state(1, np.uint64)[0]
    assert derive_seed(0, "pin") == int(pinned) & ((1 << 63) - 1)
