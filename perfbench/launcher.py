"""``repro`` CLI launcher that adds spans where the server has no timer.

Usage: ``python perfbench/launcher.py serve --graph G ...`` — the same
arguments as ``python -m repro``.  Before handing over to the CLI it
wraps the gateway's most-likely-path calls (the cross-shard refine
pass) in timers that land in the process-global metrics registry as
``bench.graph.paths.mlp_seconds``, so ``/metrics`` serves them next to
the server's own instruments.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _timed(fn, name):
    from repro.service.metrics import get_registry

    histogram = get_registry().histogram(name)

    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            histogram.observe(perf_counter() - start)

    return wrapper


def install() -> None:
    import repro.shard.engine as shard_engine

    for attr in ("most_likely_path_probabilities", "hop_bounded_path_probabilities"):
        setattr(shard_engine, attr,
                _timed(getattr(shard_engine, attr), "bench.graph.paths.mlp_seconds"))


if __name__ == "__main__":
    install()
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
