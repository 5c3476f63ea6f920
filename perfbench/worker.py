"""One measured phase of one workload, in a fresh interpreter.

run.py starts this script once per phase, so wordrep's module-level memos
start empty in every phase without the benchmark touching them. The script
prints one JSON object on its last stdout line.

Set-up ends just before the first timed instance: interpreter start, import
of wordrep and generation of the first round. Later rounds are generated
between rounds, outside the timed phase. The phase solves whole rounds
until `--seconds` of solving time have passed, one instance at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from tracing import merge  # noqa: E402  (installs nothing on import)

INSTANCE_LIMIT_S = 60.0  # per library instance of decide and cover


class InstanceTimeout(BaseException):
    """Raised by SIGALRM inside a library call; a BaseException so that no
    handler in the program mistakes it for one of its own errors."""


def _alarm(signum, frame):
    raise InstanceTimeout()


def child_env(trace_out: Path | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if trace_out is not None:
        env["PERFBENCH_TRACE_OUT"] = str(trace_out)
    return env


class Phase:
    def __init__(self, workloads, trace_dir: Path | None):
        self.wl = workloads
        self.trace_dir = trace_dir
        self.latencies: list[float] = []
        self.attempted = 0
        self.solved = 0
        self.failed = 0
        self.known_hard_missed = 0
        self.wrong: list[str] = []
        self.busy_s = 0.0
        # traced roundtrip only: per-layer totals summed over children
        self.children = 0
        self.child_totals: dict = {}

    def solve_library(self, inst, solve) -> bool:
        signal.setitimer(signal.ITIMER_REAL, INSTANCE_LIMIT_S)
        try:
            solve(inst)
            return True
        except InstanceTimeout:
            print(f"failed: {inst.kind} n={inst.size} exceeded {INSTANCE_LIMIT_S} s",
                  file=sys.stderr)
            return False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def _child(self, argv, stdin, cap):
        """Run one `wordrep` command as a child process; when tracing, the
        child is the shim that installs the same wrappers first."""
        trace_out = None
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "wordrep", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracecli.py"), *argv]
            trace_out = self.trace_dir / f"{self.children}.json"
        self.children += 1
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, input=stdin, capture_output=True, timeout=cap,
                              env=child_env(trace_out))
        wall = time.perf_counter() - t0
        if trace_out is not None and trace_out.is_file():
            totals = json.loads(trace_out.read_text())
            trace_out.unlink()
            totals["cli.startup_s"] = wall - totals.get("cli.main.dur_s", 0.0)
            merge(self.child_totals, totals)
        return proc

    def solve_command(self, inst) -> bool:
        stdin = inst.stdin.encode() if inst.stdin is not None else None
        try:
            proc = self._child(inst.argv, stdin, inst.cap_s)
        except subprocess.TimeoutExpired:
            if inst.known_hard:
                self.known_hard_missed += 1
                return False
            raise
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise RuntimeError(f"exit code {proc.returncode}: {err}")
        if self.trace_dir is not None:
            merge(self.child_totals, {"cli.document_bytes": len(proc.stdout)})
        self.wl.check_document(inst, json.loads(proc.stdout))
        check = self._child(["verify", "-"], proc.stdout, self.wl.COMMAND_LIMIT_S)
        if check.returncode != 0 or json.loads(check.stdout).get("valid") is not True:
            raise self.wl.WrongAnswer(f"{inst.kind}: wordrep verify exited {check.returncode}")
        return True

    def run(self, batch, rounds, solve, seconds: float) -> None:
        while True:
            t_round = time.perf_counter()
            for inst in batch:
                self.attempted += 1
                t0 = time.perf_counter()
                ok = False
                try:
                    if solve is None:
                        ok = self.solve_command(inst)
                    else:
                        ok = self.solve_library(inst, solve)
                        self.failed += not ok
                except self.wl.WrongAnswer as e:
                    print(f"WRONG: {e}", file=sys.stderr)
                    self.wrong.append(str(e))
                    self.failed += 1
                except Exception:
                    traceback.print_exc()
                    print(f"failed: {inst.kind} n={inst.size}", file=sys.stderr)
                    self.failed += 1
                self.latencies.append(time.perf_counter() - t0)
                self.solved += ok
            self.busy_s += time.perf_counter() - t_round
            if self.busy_s >= seconds:
                return
            batch = next(rounds)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("decide", "cover", "roundtrip"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-wrong-verdict", action="store_true")
    args = ap.parse_args()

    # The library workloads trace this process; roundtrip traces its children.
    tracer = None
    if args.trace and args.workload != "roundtrip":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads  # binds the traced functions when tracing is installed

    make_rounds, solve = workloads.WORKLOADS[args.workload]
    rounds = make_rounds(args.seed, args.tiny)
    batch = next(rounds)
    if args.inject_wrong_verdict:
        workloads.inject_wrong_verdict(batch[0])
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    if args.trace and solve is None:
        with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as tmp:
            phase = Phase(workloads, Path(tmp))
            phase.run(batch, rounds, solve, args.seconds)
    else:
        phase = Phase(workloads, None)
        phase.run(batch, rounds, solve, args.seconds)

    if solve is None:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        totals = phase.child_totals if args.trace else None
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        totals = tracer.totals() if tracer is not None else None
    print(json.dumps({
        "setup_end": setup_end,
        "busy_s": phase.busy_s,
        "latencies_s": phase.latencies,
        "attempted": phase.attempted,
        "solved": phase.solved,
        "failed": phase.failed,
        "known_hard_missed": phase.known_hard_missed,
        "wrong": phase.wrong,
        "children": phase.children,
        "peak_rss_kb": peak_kb,
        "trace": totals,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
