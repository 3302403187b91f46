"""One benchmark worker process: set up one workload, run it, print one JSON line.

run.py starts this with the BLAS thread count pinned and ``PYTHONPATH`` set
to the checkout's ``src``.  Modes:

* default: set up, then run whole cycles of ops until ``--seconds`` pass;
* ``--setup-only``: set up and report the set-up time;
* ``--trace 1``: run a fixed op list once untraced and once traced, and
  report per-layer metrics;
* ``--self-test``: show that each check accepts the right answer and
  rejects a deliberately wrong expectation.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import entdex
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, wrong


@dataclass
class Pass:
    latencies_s: list[float]
    failed: int
    elapsed_s: float
    guard_ok: bool


def load_program(root: Path) -> SimpleNamespace:
    """The functions the workloads call, taken from the checkout's submodules."""
    expected = (root / "src" / "entdex").resolve()
    if Path(entdex.__file__).resolve().parent != expected:
        raise SystemExit(f"entdex was imported from {entdex.__file__}, not {expected}")
    mod = {m: importlib.import_module(f"entdex.{m}") for m in ("classify", "construct", "properties", "states")}
    return SimpleNamespace(
        classify=mod["classify"].classify,
        mixed_product_split=mod["classify"].mixed_product_split,
        ghz_product=mod["construct"].ghz_product,
        run_property_suite=mod["properties"].run_property_suite,
        density_matrix=mod["states"].density_matrix,
    )


def _openblas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _run_one(workload, op):
    """Time one op; the check runs after the clock stops."""
    t = time.perf_counter()
    try:
        result = workload.run(op)
    except Exception:
        traceback.print_exc()
        return None, time.perf_counter() - t, False
    dt = time.perf_counter() - t
    try:
        ok = bool(workload.check(op, result))
    except Exception:
        traceback.print_exc()
        ok = False
    return result, dt, ok


def _rejects_wrong(workload, op, result) -> bool:
    try:
        return not workload.check(wrong(op), result)
    except Exception:
        traceback.print_exc()
        return False


def run_pass(workload, ops, seconds: float | None = None, tracer: Tracer | None = None) -> Pass:
    """Closed loop over whole cycles of ``ops``: until ``seconds`` have
    passed, or each op once when ``seconds`` is None."""
    latencies, failed, guard_ok = [], 0, False
    start = time.perf_counter()
    i = 0
    while True:
        if tracer is not None:
            tracer.op = i
        op = ops[i % len(ops)]
        result, dt, ok = _run_one(workload, op)
        if i == 0:
            guard_ok = ok and _rejects_wrong(workload, op, result)
        latencies.append(dt)
        failed += not ok
        i += 1
        if i % workload.cycle_len == 0:
            done = i >= len(ops) if seconds is None else time.perf_counter() - start >= seconds
            if done:
                break
    return Pass(latencies, failed, time.perf_counter() - start, guard_ok)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


def warm_up(workload, ops) -> None:
    """Run the first op once, unjudged, so that lazy set-up in numpy, the
    program and the file cache is not charged to the first timed op.  In a
    timed run this counts as set-up: work the program defers to its first
    call still shows in ``setup_s``.  The loop runs and checks the op again."""
    _run_one(workload, ops[0])


def measure(workload, ops, seconds: float, setup_s: float) -> dict:
    p = run_pass(workload, ops, seconds=seconds)
    lat_ms = [x * 1e3 for x in p.latencies_s]
    p90 = statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0]
    attempted = len(lat_ms)
    return {
        "attempted": attempted,
        "failed": p.failed,
        "guard_ok": p.guard_ok,
        "elapsed_s": p.elapsed_s,
        "samples_above_p90": sum(x > p90 for x in lat_ms),
        "metrics": {
            "ops_per_s": (attempted - p.failed) / p.elapsed_s,
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": p90,
            "ok_ratio": (attempted - p.failed) / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(children=workload.name == "cli-roundtrip"),
        },
    }


def trace(workload, prog, seed: int, workdir: Path) -> dict:
    ops = workload.make_ops(np.random.default_rng(seed), workload.traced_cycles)
    warm_up(workload, ops)
    plain = run_pass(workload, ops)
    tracer = Tracer()
    tracer.install(prog)
    workload.tracer = tracer
    try:
        # inputs are generated again under the tracer so set-up work shows
        ops = workload.make_ops(np.random.default_rng(seed), workload.traced_cycles)
        traced = run_pass(workload, ops, tracer=tracer)
    finally:
        workload.tracer = None
        tracer.uninstall()
    out = workdir.parent / "trace" / f"{workload.name}-seed{seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    return {
        "attempted": len(plain.latencies_s) + len(traced.latencies_s),
        "failed": plain.failed + traced.failed,
        "guard_ok": plain.guard_ok and traced.guard_ok,
        "elapsed_s": traced.elapsed_s,
        "spans_file": str(out),
        "metrics": layer_metrics(tracer.spans, tracer.counts, traced.elapsed_s / plain.elapsed_s),
    }


def self_test(workload, ops) -> dict:
    checks = []
    for op in ops[:2]:
        result, _, ok = _run_one(workload, op)
        checks.append({"op": op.kind, "right_accepted": ok, "wrong_rejected": _rejects_wrong(workload, op, result)})
    return {"ok": all(c["right_accepted"] and c["wrong_rejected"] for c in checks), "checks": checks}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--workdir", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    root = Path.cwd()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    prog = load_program(root)
    workload = WORKLOADS[args.workload](prog, workdir)
    if args.trace:
        doc = trace(workload, prog, args.seed, workdir)
    else:
        cycles = 1 if args.self_test else workload.pool_cycles
        ops = workload.make_ops(np.random.default_rng(args.seed), cycles)
        if not args.self_test:
            warm_up(workload, ops)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            doc = {"setup_s": setup_s}
        elif args.self_test:
            doc = self_test(workload, ops)
        else:
            doc = measure(workload, ops, args.seconds, setup_s)
    doc["env"] = environment()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
