"""`wordrep` command line with the benchmark's wrappers installed.

The traced roundtrip phase runs this in place of `python -m wordrep`: it
installs the same wrappers as the library workloads, calls
`wordrep.cli.main`, and writes the span totals to the file named by
PERFBENCH_TRACE_OUT when the command ends.

    PYTHONPATH=src PERFBENCH_TRACE_OUT=t.json python3 perfbench/tracecli.py check --wr Ehfw
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import wordrep.cli

    try:
        code = wordrep.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        Path(os.environ["PERFBENCH_TRACE_OUT"]).write_text(json.dumps(tracer.totals()))
    sys.exit(code)
