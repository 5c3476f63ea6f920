"""Outside-in tracing of wordrep's layers.

`install` wraps the public functions listed in TARGETS, in every wordrep
module that binds them, so calls made between modules are traced too. Each
call records a span: name, start, end and the enclosing span. Spans stay in
memory; `Tracer.totals` reduces them when the run ends. Only a traced process
calls `install`: the untraced timing runs never load this module's wrappers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

TARGETS = {
    "recognition": (
        "wr_decide",
        "comparability_decide",
        "mu_exact",
        "find_word",
        "check_semi_transitive",
        "check_transitive",
        "verify_certificate",
        "verify_decomposition",
    ),
    "graphs": ("induced_subgraph",),
    "formats": ("parse_graph", "encode_graph6"),
    "lexops": (
        "lex_product",
        "lex_power",
        "lex_map",
        "lift_semi_transitive",
        "special_subgraph",
        "orient_special",
    ),
    "decomposition": (
        "decompose_product_two",
        "decompose_power_k",
        "decompose_power_two_comparability",
        "decompose_product_general",
        "decompose_product_tight",
        "decompose_min_nonwr_product",
        "decomposition_diagnostics",
        "verify_lower_bound",
    ),
    "extremal": ("eta", "verify_power_bound"),
    "cli": ("main",),
}

WR = "recognition.wr_decide"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.graphs_decided: set = set()
        self.counts: dict[str, float] = defaultdict(float)
        self._note_for = self._notes()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter
        note = self._note_for.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        return traced

    def _notes(self) -> dict:
        counts = self.counts

        def built(args, result):
            counts["lexops.vertices_built"] += result.graph.n

        def parsed(args, result):
            counts["formats.bytes"] += len(args[0])

        def encoded(args, result):
            counts["formats.bytes"] += len(result)

        return {
            WR: lambda args, result: self.graphs_decided.add(args[0]),
            "lexops.lex_product": built,
            "lexops.lex_map": built,
            "lexops.special_subgraph": built,
            "formats.parse_graph": parsed,
            "formats.encode_graph6": encoded,
        }

    def totals(self) -> dict:
        """Sums over all spans: calls, duration and self time per function,
        plus the derived per-layer quantities. Self time is a span's duration
        minus the durations of its direct child spans."""
        out: dict[str, float] = defaultdict(float)
        out.update(self.counts)
        spans = self.spans
        child = [0.0] * len(spans)
        wr_depth = [0] * len(spans)  # wr_decide spans enclosing this one
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                wr_depth[i] = wr_depth[parent] + (spans[parent][0] == WR)
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.dur_s"] += dur
            out[f"{name}.self_s"] += dur - child[i]
            if name.startswith("decomposition.decompose_"):
                out["decomposition.construct.self_s"] += dur - child[i]
            if name != WR:
                continue
            if wr_depth[i] == 0:
                out[f"{WR}.top_self_s"] += dur - child[i]
            elif wr_depth[i] == 1:
                out[f"{WR}.nested_s"] += dur
            parent_name = spans[parent][0] if parent >= 0 else ""
            if parent_name == "recognition.mu_exact":
                out["recognition.mu_exact.child_wr_calls"] += 1
            elif parent_name == "extremal.eta":
                out["extremal.eta.candidates"] += 1
        out[f"{WR}.distinct"] = len(self.graphs_decided)
        return dict(out)


def install(tracer: Tracer) -> None:
    """Replace every binding of each target function, in every loaded
    wordrep module, with a traced wrapper."""
    for mod in TARGETS:
        importlib.import_module(f"wordrep.{mod}")
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "wordrep"]
    for mod, names in TARGETS.items():
        home = sys.modules[f"wordrep.{mod}"]
        for name in names:
            original = getattr(home, name)
            traced = tracer.wrap(f"{mod}.{name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)


def merge(into: dict, totals: dict) -> None:
    for key, value in totals.items():
        into[key] = into.get(key, 0.0) + value
