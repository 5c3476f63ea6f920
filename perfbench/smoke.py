"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 perfbench/smoke.py

For every workload it checks that an untraced and a traced run exit 0 and
emit every metric BENCHMARK.json names, with its unit, and that a run with
one known answer corrupted is caught by the gate: it exits non-zero and
reports "correct": false. It is a script rather than a pytest module so that
the repository's own test suite does not pick it up.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, *extra: str) -> tuple[int, dict | None]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    problems = []
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = bench(name, trace)
            if code != 0 or out is None or not out["correct"]:
                problems.append(f"{name} trace {trace}: exit {code}, result {out}")
                continue
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
        code, out = bench(name, 0, "--inject-wrong-verdict")
        if code == 0 or out is None or out["correct"]:
            problems.append(f"{name}: injected wrong verdict not caught (exit {code}, {out})")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
