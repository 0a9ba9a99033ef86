"""Command-line interface: ``python -m repro <command> ...``.

The CLI covers the offline/online split of the paper's system:

* ``generate``     — materialize a synthetic dataset as an edge list;
* ``build-index``  — build an RQ-tree offline and save it as JSON;
* ``stats``        — graph and/or index statistics (Table 5-style);
* ``query``        — answer a reliability-search query online;
* ``top-k``        — the k most reliable nodes from a source set;
* ``detect``       — two-terminal reliability detection via binary
  search on the threshold (paper, Section 2 reduction);
* ``transform``    — what-if graph transformations (scale / power /
  backbone extraction);
* ``serve``        — run the concurrent query-serving layer behind the
  asyncio HTTP/JSON gateway (:mod:`repro.service`);
* ``update``       — stream arc updates to a live server;
* ``loadgen``      — replay production-shaped traffic against a server
  (or an in-process one) and gate on an SLO report (:mod:`repro.loadgen`).

Everything round-trips through the text/JSON formats in
:mod:`repro.graph.io` and :meth:`repro.core.rqtree.RQTree.save`, so an
index built once is reusable across invocations — the pre-computation
model of the paper.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from . import __version__
from .core.detection import detect_reliability, top_k_reliable
from .core.builder import build_rqtree
from .core.engine import RQTreeEngine
from .core.rqtree import RQTree
from .datasets.registry import dataset_names, load_dataset
from .estimators import available_methods
from .errors import ReproError
from .resilience import QueryBudget
from .eval.reporting import format_table
from .graph.io import read_edge_list, write_edge_list
from .graph.transforms import (
    power_probabilities,
    scale_probabilities,
    threshold_backbone,
)

__all__ = ["main", "build_parser"]


def _parse_sources(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sources must be comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RQ-tree reliability search in uncertain graphs "
        "(Khan et al., EDBT 2014 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic dataset as an edge list"
    )
    generate.add_argument(
        "--dataset", required=True, choices=sorted(dataset_names())
    )
    generate.add_argument("--nodes", type=int, default=0,
                          help="node count (0 = dataset default)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True,
                          help="edge-list file to write")

    build = commands.add_parser(
        "build-index", help="build an RQ-tree index offline"
    )
    build.add_argument("--graph", required=True, help="edge-list file")
    build.add_argument("--output", required=True, help="index JSON to write")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--strategy", choices=("multilevel", "random"), default="multilevel"
    )
    build.add_argument("--branching", type=int, default=2)
    build.add_argument("--max-imbalance", type=float, default=0.1)

    stats = commands.add_parser(
        "stats", help="print graph, index and/or service statistics"
    )
    stats.add_argument("--graph", default=None)
    stats.add_argument("--index", default=None)
    stats.add_argument(
        "--metrics", default=None,
        help="service metrics snapshot JSON (a saved GET /metrics "
        "reply) to summarize",
    )

    query = commands.add_parser(
        "query", help="answer a reliability-search query RS(S, eta)"
    )
    query.add_argument("--graph", required=True)
    query.add_argument("--index", default=None,
                       help="prebuilt index JSON (otherwise built on the fly)")
    query.add_argument("--sources", required=True, type=_parse_sources,
                       help="comma-separated node ids")
    query.add_argument("--eta", required=True, type=float)
    query.add_argument(
        "--method", choices=available_methods(), default="lb"
    )
    query.add_argument("--samples", type=int, default=1000)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--max-hops", type=int, default=None,
                       help="distance-constrained variant")
    query.add_argument(
        "--multi-source-mode", choices=("greedy", "exact"), default="greedy"
    )
    query.add_argument(
        "--deadline-ms", type=float, default=None,
        help="wall-clock budget for the query; on expiry a partial "
        "(DEGRADED) answer is printed instead of failing",
    )
    query.add_argument(
        "--max-worlds", type=int, default=None,
        help="cap on MC verification worlds (budgeted queries only)",
    )
    query.add_argument(
        "--max-candidate-nodes", type=int, default=None,
        help="cap on the candidate subgraph verification may process",
    )

    topk = commands.add_parser(
        "top-k", help="the k most reliable nodes from the source set"
    )
    topk.add_argument("--graph", required=True)
    topk.add_argument("--index", default=None)
    topk.add_argument("--sources", required=True, type=_parse_sources)
    topk.add_argument("-k", type=int, required=True)
    topk.add_argument(
        "--method", choices=available_methods(), default="lb"
    )
    topk.add_argument("--samples", type=int, default=1000)
    topk.add_argument("--seed", type=int, default=0)

    transform = commands.add_parser(
        "transform",
        help="what-if transformation of a graph (scale/power/backbone)",
    )
    transform.add_argument("--graph", required=True)
    transform.add_argument("--output", required=True)
    transform.add_argument("--scale", type=float, default=None,
                           help="multiply every probability by this factor")
    transform.add_argument("--power", type=float, default=None,
                           help="raise every probability to this exponent")
    transform.add_argument("--backbone", type=float, default=None,
                           help="keep only arcs with p >= this threshold")

    serve = commands.add_parser(
        "serve",
        help="serve reliability queries over HTTP (see repro.service)",
    )
    serve.add_argument("--graph", required=True)
    serve.add_argument("--index", default=None,
                       help="prebuilt index JSON (otherwise built on the fly)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--max-in-flight", type=int, default=64,
                       help="admission limit; excess queries are shed "
                       "with a degraded answer")
    serve.add_argument("--queue-deadline-ms", type=float, default=None,
                       help="shed queries that waited longer than this "
                       "in the queue")
    serve.add_argument("--cache-ttl", type=float, default=30.0,
                       help="result-cache TTL in seconds")
    serve.add_argument("--cache-capacity", type=int, default=1024)
    serve.add_argument("--shards", type=int, default=None,
                       help="split the graph into K partition-aligned "
                       "shards, one engine process each")
    serve.add_argument("--shard-mode", choices=("process", "inline"),
                       default="process",
                       help="run shard engines in worker processes or "
                       "inline (debugging)")
    serve.add_argument("--shard-transport", choices=("shm", "pickle"),
                       default="shm",
                       help="how shard subgraphs reach their workers: "
                       "shared-memory CSR segments (zero-copy) or "
                       "pickled arc lists")
    serve.add_argument("--shard-respawn", action="store_true",
                       help="supervise shard workers: liveness pings, "
                       "respawn on crash, per-shard circuit breakers, "
                       "redispatch of in-flight requests")
    serve.add_argument("--shard-retry-timeout-ms", type=float,
                       default=None,
                       help="per-shard attempt timeout; a sub-query "
                       "over it gets its worker recycled and one "
                       "redispatch (needs --shard-respawn)")
    serve.add_argument("--hedge-after-ms", type=float, default=None,
                       help="duplicate a slow sub-query to a standby "
                       "worker after this delay, first answer wins; "
                       "0 derives the delay from the shard's p99 "
                       "(needs --shard-respawn)")
    serve.add_argument("--max-connections", type=int, default=None,
                       help="connection cap; beyond it clients get "
                       "503 + Retry-After (default: 8 x --max-in-flight)")
    serve.add_argument("--live", action="store_true",
                       help="enable the update plane (POST /update): "
                       "epoch-versioned snapshots and streaming arc "
                       "updates over the index built at start-up")

    update = commands.add_parser(
        "update",
        help="stream arc updates to a running 'repro serve --live'",
    )
    update.add_argument("--url", required=True,
                        help="base URL of the running server")
    update.add_argument("--set", nargs=3, action="append", default=[],
                        metavar=("U", "V", "P"),
                        help="upsert arc u->v with probability p "
                        "(repeatable)")
    update.add_argument("--delete", nargs=2, action="append", default=[],
                        metavar=("U", "V"),
                        help="delete arc u->v (repeatable)")
    update.add_argument("--file", default=None,
                        help="JSON file with an array of update ops "
                        "('-' = stdin); combined with --set/--delete")

    loadgen = commands.add_parser(
        "loadgen",
        help="replayable production-traffic harness with an SLO report "
        "(see repro.loadgen)",
    )
    loadgen.add_argument("--profile", default="mixed",
                         help="workload profile name (see "
                         "repro.loadgen.PROFILES); ignored with --replay")
    loadgen.add_argument("--duration", type=float, default=10.0,
                         help="run length in seconds; ignored with --replay")
    loadgen.add_argument("--target-qps", type=float, default=20.0,
                         help="mean open-loop arrival rate; the diurnal "
                         "curve breathes around it; ignored with --replay")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="schedule seed: same profile + seed + shape "
                         "gives the identical request stream")
    loadgen.add_argument("--replay", default=None,
                         help="replay a schedule JSON written by --record "
                         "instead of generating one")
    loadgen.add_argument("--record", default=None,
                         help="write the generated schedule JSON here for "
                         "later --replay")
    loadgen.add_argument("--url", default=None,
                         help="drive a running server (storms are skipped: "
                         "fault injection is process-local)")
    loadgen.add_argument("--graph", default=None,
                         help="edge-list file: build an in-process service "
                         "+ gateway and drive it over loopback")
    loadgen.add_argument("--index", default=None,
                         help="prebuilt index JSON for --graph")
    loadgen.add_argument("--workers", type=int, default=4,
                         help="in-process service workers")
    loadgen.add_argument("--max-in-flight", type=int, default=64,
                         help="in-process service admission limit")
    loadgen.add_argument("--shards", type=int, default=None,
                         help="shard the in-process service's graph K ways")
    loadgen.add_argument("--shard-mode", choices=("process", "inline"),
                         default="process")
    loadgen.add_argument("--no-live", action="store_true",
                         help="disable the in-process update plane "
                         "(update traffic will then 400)")
    loadgen.add_argument("--max-client-in-flight", type=int, default=128,
                         help="driver-side concurrent-socket cap; queue "
                         "time behind it still counts as latency")
    loadgen.add_argument("--timeout", type=float, default=30.0,
                         help="per-request client timeout in seconds")
    loadgen.add_argument("--report-out", default=None,
                         help="write the SLO run report JSON here")
    loadgen.add_argument("--gate-p50-ms", type=float, default=None,
                         help="fail (exit 1) if p50 latency exceeds this")
    loadgen.add_argument("--gate-p99-ms", type=float, default=None,
                         help="fail (exit 1) if p99 latency exceeds this")
    loadgen.add_argument("--gate-degraded-rate", type=float, default=None,
                         help="fail (exit 1) if the degraded-answer rate "
                         "exceeds this (also sets the error budget)")
    loadgen.add_argument("--gate-error-rate", type=float, default=None,
                         help="fail (exit 1) if the HTTP/transport error "
                         "rate exceeds this")
    loadgen.add_argument("--gate-min-qps", type=float, default=None,
                         help="fail (exit 1) if achieved qps falls below")

    detect = commands.add_parser(
        "detect",
        help="two-terminal reliability detection (binary search on eta)",
    )
    detect.add_argument("--graph", required=True)
    detect.add_argument("--index", default=None)
    detect.add_argument("--source", type=int, required=True)
    detect.add_argument("--target", type=int, required=True)
    detect.add_argument("--tolerance", type=float, default=0.05)
    detect.add_argument(
        "--method", choices=available_methods(), default="mc"
    )
    detect.add_argument("--samples", type=int, default=1000)
    detect.add_argument("--seed", type=int, default=0)

    return parser


def _load_engine(graph_path: str, index_path: Optional[str]) -> RQTreeEngine:
    graph = read_edge_list(graph_path)
    if index_path:
        tree = RQTree.load(index_path)
        return RQTreeEngine(graph, tree)
    return RQTreeEngine.build(graph)


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, n=args.nodes, seed=args.seed)
    write_edge_list(graph, args.output)
    print(
        f"wrote {args.dataset} stand-in: {graph.num_nodes} nodes, "
        f"{graph.num_arcs} arcs -> {args.output}"
    )
    return 0


def _cmd_build_index(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    tree, report = build_rqtree(
        graph,
        max_imbalance=args.max_imbalance,
        seed=args.seed,
        strategy=args.strategy,
        branching=args.branching,
    )
    tree.save(args.output)
    print(
        format_table(
            ["metric", "value"],
            [
                ("nodes", graph.num_nodes),
                ("arcs", graph.num_arcs),
                ("build time (s)", report.build_seconds),
                ("index size (MB)", report.storage_megabytes),
                ("height", report.height),
                ("# clusters", report.num_clusters),
            ],
            title=f"RQ-tree written to {args.output}",
        )
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .eval.reporting import ascii_histogram
    from .graph.statistics import probability_histogram, summarize

    if args.graph is None and args.metrics is None:
        print(
            "at least one of --graph / --metrics is required",
            file=sys.stderr,
        )
        return 2
    if args.graph is not None:
        graph = read_edge_list(args.graph)
        rows = list(summarize(graph).as_rows())
        if args.index:
            tree = RQTree.load(args.index)
            rows += [
                ("index height", tree.height),
                ("index clusters", tree.num_clusters),
                ("index size (MB)", tree.storage_size_estimate() / 2**20),
            ]
        print(format_table(["metric", "value"], rows, title="statistics"))
        if graph.num_arcs:
            print()
            print(
                ascii_histogram(
                    probability_histogram(graph, num_bins=10),
                    title="arc-probability distribution",
                )
            )
    if args.metrics is not None:
        import json

        with open(args.metrics, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        if args.graph is not None:
            print()
        _print_metrics_snapshot(snapshot)
    return 0


def _print_metrics_snapshot(snapshot: dict) -> None:
    """Pretty-print a service metrics snapshot (``GET /metrics`` JSON)."""
    counters = snapshot.get("counters", {})
    if counters:
        print(
            format_table(
                ["counter", "value"],
                sorted(counters.items()),
                title="service counters",
            )
        )
    histograms = snapshot.get("histograms", {})
    if histograms:
        rows = [
            (
                name,
                summary.get("count", 0),
                f"{summary.get('p50', 0.0):.6f}",
                f"{summary.get('p90', 0.0):.6f}",
                f"{summary.get('p99', 0.0):.6f}",
            )
            for name, summary in sorted(histograms.items())
        ]
        print()
        print(
            format_table(
                ["histogram", "count", "p50 (s)", "p90 (s)", "p99 (s)"],
                rows,
                title="service latency histograms",
            )
        )
    cache_stats = snapshot.get("service", {}).get("result_cache")
    if cache_stats:
        print()
        print(
            format_table(
                ["metric", "value"],
                sorted(cache_stats.items()),
                title="result cache statistics",
            )
        )


def _cmd_query(args: argparse.Namespace) -> int:
    engine = _load_engine(args.graph, args.index)
    budget = None
    if (
        args.deadline_ms is not None
        or args.max_worlds is not None
        or args.max_candidate_nodes is not None
    ):
        budget = QueryBudget(
            deadline_seconds=(
                None if args.deadline_ms is None else args.deadline_ms / 1000.0
            ),
            max_worlds=args.max_worlds,
            max_candidate_nodes=args.max_candidate_nodes,
        )
    start = time.perf_counter()
    result = engine.query(
        args.sources,
        args.eta,
        method=args.method,
        num_samples=args.samples,
        seed=args.seed,
        multi_source_mode=args.multi_source_mode,
        max_hops=args.max_hops,
        budget=budget,
    )
    elapsed = time.perf_counter() - start
    rows = [
        ("answer size", len(result.nodes)),
        ("candidates", len(result.candidate_result.candidates)),
        ("height ratio", result.height_ratio),
        ("candidate ratio", result.candidate_ratio),
        ("query time (s)", elapsed),
        ("estimator", result.estimator or args.method),
    ]
    if budget is not None:
        rows += [
            ("worlds used", result.worlds_used),
            ("achieved confidence", result.achieved_confidence),
            ("unverified", len(result.unverified)),
        ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"RS({args.sources}, {args.eta}) via rq-tree-{args.method}",
        )
    )
    print("nodes:", " ".join(str(n) for n in sorted(result.nodes)))
    if args.method == "auto" and result.planner_reason:
        print(f"planner: {result.planner_reason}")
    if result.degraded:
        # Deadline-expired queries are a *successful* degraded answer:
        # exit 0, but mark the output unmistakably.
        print(
            f"DEGRADED: {result.degraded_reason or 'budget exhausted'}"
        )
    return 0


def _cmd_top_k(args: argparse.Namespace) -> int:
    engine = _load_engine(args.graph, args.index)
    ranked = top_k_reliable(
        engine,
        args.sources,
        args.k,
        method=args.method,
        num_samples=args.samples,
        seed=args.seed,
    )
    print(
        format_table(
            ["rank", "node", "score"],
            [(i + 1, node, score) for i, (node, score) in enumerate(ranked)],
            title=f"top-{args.k} most reliable nodes from {args.sources}",
        )
    )
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    engine = _load_engine(args.graph, args.index)
    result = detect_reliability(
        engine,
        args.source,
        args.target,
        tolerance=args.tolerance,
        method=args.method,
        num_samples=args.samples,
        seed=args.seed,
    )
    print(
        format_table(
            ["metric", "value"],
            [
                ("R lower bracket", result.low),
                ("R upper bracket", result.high),
                ("point estimate", result.midpoint),
                ("index queries", result.queries_issued),
            ],
            title=f"two-terminal reliability R({args.source}, {args.target})",
        )
    )
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    chosen = [
        opt for opt in (args.scale, args.power, args.backbone)
        if opt is not None
    ]
    if len(chosen) != 1:
        print(
            "exactly one of --scale / --power / --backbone is required",
            file=sys.stderr,
        )
        return 2
    graph = read_edge_list(args.graph)
    if args.scale is not None:
        result = scale_probabilities(graph, args.scale)
        action = f"scaled by {args.scale}"
    elif args.power is not None:
        result = power_probabilities(graph, args.power)
        action = f"raised to power {args.power}"
    else:
        result = threshold_backbone(graph, args.backbone)
        action = f"backbone at tau = {args.backbone}"
    write_edge_list(result, args.output)
    print(
        f"{action}: {result.num_nodes} nodes, {result.num_arcs} arcs "
        f"-> {args.output}"
    )
    return 0


def _build_service(args: argparse.Namespace):
    from .service.cache import TTLResultCache
    from .service.pool import AdmissionPolicy
    from .service.server import ReliabilityService

    if args.shards is not None:
        # Each shard builds its own index; a whole-graph one would be
        # built only to be thrown away.
        engine = read_edge_list(args.graph)
    else:
        engine = _load_engine(args.graph, args.index)
    admission = AdmissionPolicy(
        max_in_flight=args.max_in_flight,
        queue_deadline_seconds=(
            None
            if getattr(args, "queue_deadline_ms", None) is None
            else args.queue_deadline_ms / 1000.0
        ),
    )
    cache = TTLResultCache(
        capacity=getattr(args, "cache_capacity", 1024),
        ttl_seconds=getattr(args, "cache_ttl", 30.0),
    )
    return ReliabilityService(
        engine,
        workers=args.workers,
        admission=admission,
        cache=cache,
        shards=args.shards,
        shard_mode=args.shard_mode,
        shard_transport=getattr(args, "shard_transport", "shm"),
        shard_respawn=getattr(args, "shard_respawn", False),
        shard_retry_timeout_ms=getattr(args, "shard_retry_timeout_ms", None),
        shard_hedge_after_ms=getattr(args, "hedge_after_ms", None),
        live=args.live,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.aio_gateway import AioGateway

    service = _build_service(args)
    server = AioGateway(
        service, host=args.host, port=args.port,
        max_connections=args.max_connections,
    ).start()
    host, port = server.address
    engine = service.engine
    shards = getattr(engine, "num_shards", None)
    shard_note = "" if shards is None else f", {shards} shards"
    live_note = ", live updates" if args.live else ""
    print(
        f"serving {engine.graph.num_nodes} nodes / "
        f"{engine.graph.num_arcs} arcs on http://{host}:{port} "
        f"({service.workers} workers{shard_note}{live_note})",
        flush=True,
    )
    server.serve_forever()
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    import json
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    ops: List[dict] = []
    if args.file is not None:
        raw = (
            sys.stdin.read()
            if args.file == "-"
            else open(args.file, "r", encoding="utf-8").read()
        )
        loaded = json.loads(raw)
        if isinstance(loaded, dict):
            loaded = loaded.get("updates", [])
        ops.extend(loaded)
    for u, v, p in args.set:
        ops.append({"op": "set", "u": int(u), "v": int(v), "p": float(p)})
    for u, v in args.delete:
        ops.append({"op": "delete", "u": int(u), "v": int(v)})
    if not ops:
        print("no updates given (use --set/--delete/--file)", file=sys.stderr)
        return 2

    request = Request(
        f"{args.url.rstrip('/')}/update",
        data=json.dumps({"updates": ops}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urlopen(request, timeout=300) as response:
            reply = json.loads(response.read())
    except HTTPError as error:
        detail = error.read().decode("utf-8", "replace")
        print(f"update rejected ({error.code}): {detail}", file=sys.stderr)
        return 1
    print(
        f"applied {reply.get('ops', len(ops))} ops; "
        f"serving epoch {reply.get('epoch')}"
    )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json
    from urllib.request import urlopen

    from .loadgen import SLOTargets, drive, generate_schedule
    from .loadgen.driver import DriveError
    from .loadgen.generator import load_schedule, save_schedule

    if args.url is None and args.graph is None:
        print("need --graph (in-process) or --url", file=sys.stderr)
        return 2

    server = None
    try:
        if args.url is not None:
            url = args.url.rstrip("/")
            with urlopen(f"{url}/healthz", timeout=30) as response:
                num_nodes = int(json.loads(response.read())["nodes"])
            arm_storms = False
        else:
            from .service.aio_gateway import AioGateway

            args.live = not args.no_live
            service = _build_service(args)
            server = AioGateway(service, host="127.0.0.1", port=0).start()
            url = server.url
            num_nodes = service.engine.graph.num_nodes
            arm_storms = True

        if args.replay is not None:
            schedule = load_schedule(args.replay)
        else:
            schedule = generate_schedule(
                args.profile,
                seed=args.seed,
                duration_seconds=args.duration,
                target_qps=args.target_qps,
                num_nodes=num_nodes,
            )
        if args.record is not None:
            save_schedule(schedule, args.record)
            print(f"recorded schedule -> {args.record}")
        has_storm = any(
            spec.kind == "storm_start" for spec in schedule.requests
        )
        if has_storm and not arm_storms:
            print(
                "note: fault storms are process-local; skipped against "
                "a remote --url",
                file=sys.stderr,
            )

        targets = SLOTargets(
            p50_ms=args.gate_p50_ms,
            p99_ms=args.gate_p99_ms,
            degraded_rate=args.gate_degraded_rate,
            error_rate=args.gate_error_rate,
            min_qps=args.gate_min_qps,
        )
        try:
            report = drive(
                schedule,
                url,
                targets=targets,
                arm_storms=arm_storms,
                timeout_seconds=args.timeout,
                max_in_flight=args.max_client_in_flight,
            )
        except DriveError as error:
            print(f"loadgen failed: {error}", file=sys.stderr)
            return 2
    finally:
        if server is not None:
            server.stop()

    if args.report_out is not None:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")

    requests = report["requests"]
    latency = report["latency_ms"]
    print(
        format_table(
            ["metric", "value"],
            [
                ("profile", schedule.profile),
                ("completed", requests["completed"]),
                ("achieved qps", report["throughput"]["achieved_qps"]),
                ("p50 ms", latency["p50"]),
                ("p99 ms", latency["p99"]),
                ("degraded rate", report["degraded"]["rate"]),
                ("error rate", report["errors"]["rate"]),
                ("shed rate", report["shed"]["rate"]),
                ("cache hit rate", report["cache"]["hit_rate"]),
                ("storms", requests["storms"]),
            ],
        )
    )
    gates = report["gates"]
    if not gates["ok"]:
        for breach in gates["breaches"]:
            print(f"SLO BREACH: {breach}", file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "build-index": _cmd_build_index,
    "stats": _cmd_stats,
    "query": _cmd_query,
    "top-k": _cmd_top_k,
    "detect": _cmd_detect,
    "transform": _cmd_transform,
    "serve": _cmd_serve,
    "update": _cmd_update,
    "loadgen": _cmd_loadgen,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library failures (:class:`ReproError`) are reported as a one-line
    message on stderr with exit code 2 — never a raw traceback.  A
    deadline-expired query is *not* a failure: it prints its partial
    answer with a ``DEGRADED`` marker and exits 0.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
