"""Run one workload of the entdex benchmark and print its metrics.

    python3 perfbench/run.py --workload classify-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout: the program is imported from ``src/``
there.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each measurement runs in a fresh worker process with the BLAS thread count
pinned to 1: unpinned OpenBLAS threads on a 2-core machine made one GHZ_11
classification swing between 85 ms and 435 ms.  Set-up time is the median
of SETUP_RUNS fresh workers.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
# every run, set-up workers included, ends within this many seconds
BUDGET_S = 170.0
WORKDIR = ".bench_work"


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(root / "src"),
    )
    return env


def spawn(root: Path, env: dict, deadline: float, *args: str) -> dict:
    """Start one worker, wait for it, and return the JSON line it printed."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(time.monotonic())]
    # its own process group, so a timeout also stops the CLI processes it started
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(out.strip().splitlines()[-1])


def describe_env(env: dict) -> str:
    return (
        f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
        f"BLAS threads {env['blas_threads']} (OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}), "
        f"nproc {env['nproc']}"
    )


def self_test(root: Path, env: dict, names: list[str], deadline: float) -> int:
    ok = True
    for name in names:
        workdir = root / WORKDIR / f"{name}-{os.getpid()}"
        try:
            doc = spawn(root, env, deadline, "--workload", name, "--seed", "1",
                        "--workdir", str(workdir), "--self-test")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for c in doc["checks"]:
            print(f"{name} {c['op']}: right answer accepted={c['right_accepted']}, "
                  f"wrong expectation rejected={c['wrong_rejected']}")
        ok = ok and doc["ok"]
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    deadline = time.monotonic() + BUDGET_S
    root = Path.cwd()
    if not (root / "src" / "entdex" / "__init__.py").is_file():
        print(f"error: no entdex sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    env = worker_env(root)
    if args.self_test:
        return self_test(root, env, names, deadline)
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")

    workdir = root / WORKDIR / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        if args.trace:
            declared = spec["per_layer"]
            doc = spawn(root, env, deadline, *common, "--trace", "1")
        else:
            declared = spec["end_to_end"]
            doc = spawn(root, env, deadline, *common, "--seconds", str(seconds))
            setups = [doc["metrics"]["setup_s"]]
            setups += [spawn(root, env, deadline, *common, "--setup-only")["setup_s"]
                       for _ in range(SETUP_RUNS - 1)]
            doc["metrics"]["setup_s"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(doc["metrics"]):
        print(f"error: measured {sorted(doc['metrics'])}, BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 3
    print(describe_env(doc["env"]))
    passes = "an untraced and a traced pass" if args.trace else "the timed loop"
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {doc['attempted']} ops in "
          f"{passes}, {doc['failed']} failed (fail_ratio {doc['failed'] / doc['attempted']:.4g}), "
          f"wrong-expectation guard {'rejected' if doc['guard_ok'] else 'NOT rejected'}")
    if args.trace:
        print(f"traced pass {doc['elapsed_s']:.2f} s; spans: {doc['spans_file']}")
    else:
        print(f"{doc['attempted']} latency samples in {doc['elapsed_s']:.2f} s, "
              f"{doc['samples_above_p90']} above p90; "
              f"set-up times {', '.join(f'{s:.4f}' for s in setups)} s")
    for name, value in doc["metrics"].items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": doc["failed"] == 0 and doc["guard_ok"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in doc["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
