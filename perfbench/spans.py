"""In-memory span recorder for the traced run.

The traced run wraps the call sites of each layer's public functions —
the name is patched *in the calling module*, e.g.
``repro.core.engine.generate_candidates`` — with ``perf_counter``
spans.  Spans of one op share an op id; a span's parent is the span
open when it started.  Self time is a span's duration minus the time
its direct children cover.  Counts are recorded at the same
boundaries.  Nothing here runs unless the traced run installs it.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        #: (op id, name, start, end, parent index); parents precede children.
        self.spans: List[Optional[tuple]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------
    def wrap(self, fn: Callable, name, after: Optional[Callable] = None) -> Callable:
        """*fn* inside a span.  *name* is a string or a function of the
        call's positional arguments; *after(args, result)* records
        counts once the call returned."""
        tracer = self
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = name if isinstance(name, str) else name(args)
                spans[index] = (tracer.op, label, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr)
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, self.wrap(original, name, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis -------------------------------------------------------
    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, total seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                child_time[span[4]] += span[3] - span[2]
        out: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            row = out[span[1]]
            row["calls"] += 1
            row["total_s"] += span[3] - span[2]
            row["self_s"] += span[3] - span[2] - child_time[index]
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = min((s[2] for s in self.spans if s), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is None:
                    continue
                op, name, start, end, parent = span
                handle.write(json.dumps(
                    {"op": op, "name": name, "start_us": round((start - origin) * 1e6, 1),
                     "dur_us": round((end - start) * 1e6, 1), "parent": parent}
                ) + "\n")


def install_inprocess(tracer: Tracer) -> None:
    """Spans around every in-process layer boundary of a query."""
    import repro.core.builder as builder
    import repro.core.candidates as candidates
    import repro.core.engine as engine
    import repro.core.outreach as outreach
    import repro.core.verification as verification
    import repro.graph.sampling as sampling
    from repro.estimators import get_estimator, available_methods
    from repro.estimators.planner import QueryPlanner

    counts = tracer.counts

    def outreach_done(args, result):
        counts["core.outreach.calls"] += 1
        if not result.used_flow:
            counts["core.outreach.cheap_accepts"] += 1

    def planned(args, decision):
        label = decision.estimator.replace("+", "_plus")
        counts[f"estimators.planner.decisions.{label}"] += 1

    def sampler_name(args):
        return ("accel.mc_kernel" if args[0].backend == "numpy"
                else "graph.sampling.python")

    def sampled(args, result):
        counts[f"{sampler_name(args)}.worlds"] += args[1]

    tracer.patch(engine, "build_rqtree", "core.builder")
    tracer.patch(builder, "bisect_uncertain_cluster", "partition.bisect")
    tracer.patch(engine.RQTreeEngine, "query", "core.engine")
    tracer.patch(engine, "generate_candidates", "core.candidates")
    tracer.patch(candidates, "outreach_upper_bound", "core.outreach", outreach_done)
    tracer.patch(outreach, "multi_terminal_max_flow", "flow.max_flow")
    tracer.patch(verification, "most_likely_path_probabilities", "graph.paths.mlp")
    tracer.patch(verification, "hop_bounded_path_probabilities", "graph.paths.mlp")
    tracer.patch(QueryPlanner, "plan", "estimators.planner", planned)
    tracer.patch(sampling.ReachabilityFrequencyEstimator, "run", sampler_name, sampled)
    for method in available_methods():
        if method == "auto":
            continue
        label = method.replace("+", "_plus")
        tracer.patch(get_estimator(method), "estimate", f"estimators.{label}")
