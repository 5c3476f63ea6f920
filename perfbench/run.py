"""wordrep benchmark: seeded, verdict-checked workloads.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory):
  decide     wr_decide / comparability_decide on dense and large sparse graphs
  cover      mu_exact, eta and is_minimal_non_wr, plus the W5, extremal8 and
             P3 o C5 anchors
  roundtrip  the README's command-line flow, each command piped into
             `wordrep verify -`

With --trace 0 the run measures the end-to-end metrics: it starts the
workload's worker several times for set-up only, then once for the timed
phase. With --trace 1 it runs an untraced and a traced phase of half the
time each, in separate fresh interpreters, and reports the per-layer
metrics. Every verdict is checked against the instance's known answer and
every certificate against a trusted checker; a wrong one makes the run exit
1. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0
MIN_BEYOND_TAIL = 10

# The tail percentile per workload is fixed, so that a faster program is
# compared at the same percentile; each leaves at least ten instances beyond
# it at the parent's throughput with the configured run length. A run with
# fewer instances falls back to the highest percentile that still does, and
# says so.
TAIL_PERCENTILE = {"decide": 85, "cover": 90, "roundtrip": 60}

PER_INSTANCE = [
    ("recognition.wr_decide.calls", "count"),
    ("recognition.wr_decide.distinct", "count"),
    ("recognition.wr_decide.top_self_s", "s"),
    ("recognition.wr_decide.nested_s", "s"),
    ("recognition.comparability_decide.calls", "count"),
    ("recognition.comparability_decide.self_s", "s"),
    ("recognition.mu_exact.calls", "count"),
    ("recognition.mu_exact.self_s", "s"),
    ("recognition.mu_exact.child_wr_calls", "count"),
    ("recognition.find_word.calls", "count"),
    ("recognition.find_word.self_s", "s"),
    ("recognition.check_semi_transitive.calls", "count"),
    ("recognition.check_semi_transitive.self_s", "s"),
    ("recognition.check_transitive.self_s", "s"),
    ("recognition.verify_certificate.self_s", "s"),
    ("recognition.verify_decomposition.self_s", "s"),
    ("graphs.induced_subgraph.calls", "count"),
    ("graphs.induced_subgraph.self_s", "s"),
    ("formats.parse_graph.self_s", "s"),
    ("formats.encode_graph6.self_s", "s"),
    ("formats.bytes", "B"),
    ("lexops.lex_product.self_s", "s"),
    ("lexops.lex_power.self_s", "s"),
    ("lexops.lex_map.self_s", "s"),
    ("lexops.lift_semi_transitive.self_s", "s"),
    ("lexops.special_subgraph.self_s", "s"),
    ("lexops.orient_special.self_s", "s"),
    ("lexops.vertices_built", "count"),
    ("decomposition.construct.self_s", "s"),
    ("decomposition.decomposition_diagnostics.self_s", "s"),
    ("decomposition.verify_lower_bound.self_s", "s"),
    ("extremal.eta.calls", "count"),
    ("extremal.eta.self_s", "s"),
    ("extremal.eta.candidates", "count"),
    ("extremal.verify_power_bound.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.document_bytes", "B"),
    ("cli.startup_s", "s"),
]


class BenchError(Exception):
    pass


def start_worker(args, seconds: float, deadline: float, *extra: str) -> tuple[dict, float]:
    """Run one worker phase; return its result and its start time."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), *extra]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_wrong_verdict:
        cmd.append("--inject-wrong-verdict")
    t0 = time.monotonic()
    # A session of its own, so that a worker past the deadline is stopped
    # together with the command it may be running.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{args.workload} worker passed the {RUN_LIMIT_S} s run limit")
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} worker exited {proc.returncode}")
    return json.loads(lines[-1]), t0


def percentile(sorted_xs: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(pct / 100 * len(sorted_xs)) - 1)]


def tail_percentile(workload: str, count: int) -> int:
    pct = TAIL_PERCENTILE[workload]
    while pct > 0 and count - math.ceil(pct / 100 * count) < MIN_BEYOND_TAIL:
        pct -= 1
    return pct


def end_to_end(args, run: dict, setups: list) -> tuple[dict, list]:
    lat = sorted(run["latencies_s"])
    pct = tail_percentile(args.workload, len(lat))
    metrics = {
        "instances_per_s": (rate(run), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_tail_ms": (percentile(lat, pct) * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
    }
    notes = [
        f"latency_tail_ms is p{pct} of {len(lat)} instances",
        f"failed_ratio {failed_ratio(run):.4f} ratio ({run['failed']} failed, "
        f"{run['known_hard_missed']} known-hard inputs missed their cap, "
        f"of {run['attempted']} attempted)",
        f"setup_s is the median of {len(setups)} set-ups",
    ]
    return metrics, notes


def rate(run: dict) -> float:
    return run["solved"] / run["busy_s"]


def failed_ratio(run: dict) -> float:
    return (run["failed"] + run["known_hard_missed"]) / run["attempted"]


def per_layer(plain: dict, traced: dict) -> tuple[dict, list]:
    totals = traced["trace"]
    count = traced["attempted"]
    metrics = {name: (totals.get(name, 0.0) / count, f"{unit}/inst") for name, unit in PER_INSTANCE}
    calls = totals.get("recognition.wr_decide.calls", 0.0)
    distinct = totals.get("recognition.wr_decide.distinct", 0.0)
    metrics["recognition.wr_decide.distinct_ratio"] = (distinct / calls if calls else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (rate(traced) / rate(plain), "ratio")
    metrics["failed_ratio"] = (failed_ratio(plain), "ratio")
    notes = [f"per-instance values over {count} traced instances; "
             f"overhead_ratio is traced over untraced instances_per_s"]
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes and no slow anchors, for the smoke test")
    ap.add_argument("--inject-wrong-verdict", action="store_true",
                    help="corrupt one known answer, to show that the gate fires")
    args = ap.parse_args()
    if not (SRC / "wordrep" / "__init__.py").is_file():
        print(f"wordrep sources not found at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            plain, _ = start_worker(args, args.seconds / 2, deadline)
            traced, _ = start_worker(args, args.seconds / 2, deadline, "--trace")
            runs = [plain, traced]
            metrics, notes = per_layer(plain, traced)
        else:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                r, t0 = start_worker(args, args.seconds, deadline, "--setup-only")
                setups.append(r["setup_end"] - t0)
            run, t0 = start_worker(args, args.seconds, deadline)
            setups.append(run["setup_end"] - t0)
            runs = [run]
            metrics, notes = end_to_end(args, run, setups)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    wrong = [w for r in runs for w in r["wrong"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  ({note})")
    for w in wrong:
        print(f"  WRONG ANSWER: {w}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
