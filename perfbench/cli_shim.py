"""Run one ``entdex`` CLI command under the benchmark tracer.

Usage: python3 perfbench/cli_shim.py SPANS_OUT ARGS...

Traced cli-roundtrip ops run this in place of ``python -m entdex ARGS``.
``PERFBENCH_SPAWNED_AT`` holds the parent's ``time.monotonic()`` just before
the spawn, so interpreter start plus ``import entdex`` is measured as the
CLI's start-up.  Spans and counters go to SPANS_OUT as JSON.
"""
import importlib
import os
import sys
import time

spawned_at = float(os.environ["PERFBENCH_SPAWNED_AT"])
cli = importlib.import_module("entdex.cli")
startup_s = time.monotonic() - spawned_at

import json  # noqa: E402  imported after the start-up measurement
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.counts["cli.startup_s"] += startup_s
tracer.counts["cli.invocations"] += 1
tracer.install()
try:
    code = cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    Path(sys.argv[1]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
sys.exit(code)
