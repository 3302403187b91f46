"""The benchmark's tracer wraps program names by import path; pin that they exist."""
import importlib
from pathlib import Path

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
