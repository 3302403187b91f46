"""The benchmark's tracer wraps program names by import path; pin that they exist."""
import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np

from entdex.construct import ghz_product
from entdex.states import density_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    wrapped = [(importlib.import_module(m), attr) for m, attr, _ in tracing.PROGRAM_WRAPS]
    before = [getattr(owner, attr) for owner, attr in wrapped]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(wrapped, before))
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in wrapped] == before


def test_tracer_sees_every_kernel_call(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    module = importlib.import_module("entdex.classify")
    inner = module.marginal_purity
    calls = []

    def counted(psi, keep):
        calls.append(tuple(keep))
        return inner(psi, keep)

    monkeypatch.setattr(module, "marginal_purity", counted)
    rng = np.random.default_rng(2)
    blocks = []
    for _ in range(2):
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        blocks.append(g @ g.conj().T / np.linalg.norm(g) ** 2)
    rho = density_matrix(np.kron(*blocks))
    # undressed: the chain keeps every block of a dressed product, and no cut reaches the kernel
    state, expected = ghz_product([3, 2])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert module.classify(state).blocks == expected
        assert module.mixed_product_split(rho) == ((0, 1), (2, 3))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, 0.0)
    assert calls
    assert metrics["states.marginal_purity.calls"] == len(calls)
    assert metrics["states.marginal_purity.bytes_computed"] > 0


def test_benchmark_self_test_passes():
    # every workload's ground-truth check accepts a right answer and rejects
    # a wrong one, through the same program names the timed runs call
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--self-test"],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-test passed" in done.stdout
