"""Spans and counters for the traced run, recorded from outside the program.

Each function is wrapped under the name its *caller* bound.  ``from .states
import marginal_purity`` copies the reference into ``entdex.classify``, so
replacing ``entdex.states.marginal_purity`` would never be seen by the
classifier.  Submodules are reached through ``importlib.import_module``
because the package attribute ``entdex.classify`` is the function of that
name, not the submodule.

A span records (name, parent span, operation, start, end); spans stay in
memory until the run ends.  A layer's self time is its spans' durations minus
the time covered by their direct child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter
from time import perf_counter

# (module that makes the call, name that module bound, span name).  Spans no
# metric reports, such as states.tensor, still take their time out of the
# caller's self time, so properties.self_s is time spent in properties.py.
PROGRAM_WRAPS = (
    ("entdex.classify", "marginal_purity", "states.marginal_purity"),
    ("entdex.classify", "partial_trace", "states.partial_trace"),
    ("entdex.construct", "apply_local_unitary", "states.apply_local_unitary"),
    ("entdex.properties", "classify", "classify.classify"),
    ("entdex.properties", "entanglement_index", "classify.entanglement_index"),
    ("entdex.properties", "ghz_product", "construct.ghz_product"),
    ("entdex.properties", "basis_state", "construct.basis_state"),
    ("entdex.properties", "random_local_unitary", "construct.random_local_unitary"),
    ("entdex.properties", "apply_local_unitary", "states.apply_local_unitary"),
    ("entdex.properties", "tensor", "states.tensor"),
    ("entdex.properties", "enumerate_partitions", "partitions.enumerate_partitions"),
    ("entdex.properties", "measure_qubit", "properties.measure_qubit"),
    ("entdex.cli", "classify", "classify.classify"),
    ("entdex.cli", "ghz_product", "construct.ghz_product"),
    ("entdex.cli", "load_state_file", "cli.load_state_file"),
    ("entdex.cli", "save_state_file", "cli.save_state_file"),
)

# the benchmark's own calls into the program, by the name the workload bound
BENCH_WRAPS = (
    ("classify", "classify.classify"),
    ("ghz_product", "construct.ghz_product"),
    ("mixed_product_split", "classify.mixed_product_split"),
    ("run_property_suite", "properties.run_property_suite"),
)

COMPLEX_BYTES = 16


def _purity_bytes(counts: Counter, psi, keep, *_, **__) -> None:
    # computed, not measured: read the 2**N amplitudes once, write the
    # 4**k Gram entries of the smaller side k of the cut
    n = psi.n_qubits
    k = len(set(keep))
    k = min(k, n - k)
    counts["states.marginal_purity.bytes_computed"] += COMPLEX_BYTES * (2**n + (4**k if k else 0))


def _qubits(counts: Counter, psi, *_, **__) -> None:
    counts["classify.qubits_classified"] += psi.n_qubits


COUNTERS = {
    "states.marginal_purity": _purity_bytes,
    "classify.classify": _qubits,
    "classify.entanglement_index": _qubits,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1  # index of the operation running; -1 is input generation
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self.counts, *args, **kwargs)
            rec = [name, self._stack[-1] if self._stack else -1, self.op, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                self._stack.pop()

        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, bench: object | None = None) -> None:
        """Wrap the program's internal call sites and, if given, the
        benchmark's own bound names on ``bench``."""
        for module, attr, name in PROGRAM_WRAPS:
            owner = importlib.import_module(module)
            self._set(owner, attr, self.wrap(name, getattr(owner, attr)))
        cli = importlib.import_module("entdex.cli")
        self._set(cli, "json", _TracedJson(self))
        self._set(cli, "Path", _traced_path_class(self, cli.Path))
        linalg = importlib.import_module("numpy.linalg")
        self._set(linalg, "svd", self.wrap("numpy.linalg.svd", linalg.svd))
        for attr, name in BENCH_WRAPS if bench is not None else ():
            self._set(bench, attr, self.wrap(name, getattr(bench, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def merge(self, doc: dict, op: int) -> None:
        """Add the spans and counters a traced child process wrote."""
        offset = len(self.spans)
        for name, parent, _, start, end in doc["spans"]:
            self.spans.append([name, parent + offset if parent >= 0 else -1, op, start, end])
        self.counts.update(doc["counts"])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


class _TracedJson:
    """Stands in for the ``json`` module inside ``entdex.cli``."""

    def __init__(self, tracer: Tracer) -> None:
        self.loads = tracer.wrap("cli.json_decode", json.loads)
        self.dumps = tracer.wrap("cli.json_encode", json.dumps)

    def __getattr__(self, attr: str):
        return getattr(json, attr)


def _traced_path_class(tracer: Tracer, base: type) -> type:
    """A ``Path`` whose text reads and writes are spans that count bytes."""

    def read_text(self, *args, **kwargs):
        tracer.counts["cli.bytes_read"] += os.stat(self).st_size
        return base.read_text(self, *args, **kwargs)

    def write_text(self, data, encoding=None, *args, **kwargs):
        tracer.counts["cli.bytes_written"] += len(data.encode(encoding or "utf-8"))
        return base.write_text(self, data, encoding, *args, **kwargs)

    return type(
        "TracedPath",
        (type(base()),),
        {
            "read_text": tracer.wrap("cli.file_read", read_text),
            "write_text": tracer.wrap("cli.file_write", write_text),
        },
    )


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, _, _, start, end) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out


def layer_metrics(spans: list[list], counts: Counter, overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    agg = aggregate(spans)

    def get(name: str, field: str) -> float:
        return agg.get(name, {}).get(field, 0)

    def self_of(prefix: str) -> float:
        return sum(row["self_s"] for name, row in agg.items() if name.startswith(prefix))

    kernel_calls = get("states.marginal_purity", "calls")
    qubits = counts.get("classify.qubits_classified", 0)
    invocations = counts.get("cli.invocations", 0)
    return {
        "states.marginal_purity.calls": kernel_calls,
        "states.marginal_purity.s": get("states.marginal_purity", "s"),
        "states.marginal_purity.bytes_computed": counts.get("states.marginal_purity.bytes_computed", 0),
        "classify.qubits_classified": qubits,
        "classify.kernel_calls_per_qubit": kernel_calls / qubits if qubits else 0.0,
        "classify.classify.s": get("classify.classify", "s"),
        "classify.entanglement_index.s": get("classify.entanglement_index", "s"),
        "classify.self_s": self_of("classify."),
        "classify.svd.calls": get("numpy.linalg.svd", "calls"),
        "classify.mixed_product_split.s": get("classify.mixed_product_split", "s"),
        "states.partial_trace.calls": get("states.partial_trace", "calls"),
        "states.partial_trace.s": get("states.partial_trace", "s"),
        "construct.ghz_product.calls": get("construct.ghz_product", "calls"),
        "construct.ghz_product.s": get("construct.ghz_product", "s"),
        "states.apply_local_unitary.s": get("states.apply_local_unitary", "s"),
        "partitions.enumerate_partitions.calls": get("partitions.enumerate_partitions", "calls"),
        "partitions.enumerate_partitions.s": get("partitions.enumerate_partitions", "s"),
        "properties.run_property_suite.s": get("properties.run_property_suite", "s"),
        "properties.self_s": self_of("properties."),
        "properties.measure_qubit.calls": get("properties.measure_qubit", "calls"),
        "cli.invocations": invocations,
        "cli.startup.s": counts.get("cli.startup_s", 0.0) / invocations if invocations else 0.0,
        "cli.load_state_file.s": get("cli.load_state_file", "s"),
        "cli.file_read.s": get("cli.file_read", "s"),
        "cli.json_decode.s": get("cli.json_decode", "s"),
        # load minus its child spans: file read and JSON decode
        "cli.parse_validate.s": get("cli.load_state_file", "self_s"),
        "cli.bytes_read": counts.get("cli.bytes_read", 0),
        "cli.save_state_file.s": get("cli.save_state_file", "s"),
        "cli.json_encode.s": get("cli.json_encode", "s"),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "trace.overhead_ratio": overhead_ratio,
    }
