"""Acceptance suite: one test per criterion, each printing its own verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs them silently as ordinary tests.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import entdex
from entdex.classify import Ensemble, classify, ensemble_index
from entdex.construct import ghz, ghz_product, random_local_unitary
from entdex.partitions import class_spectrum, enumerate_partitions, partition_count
from entdex.properties import expected_index_after, ghz_epr_arithmetic, run_property_suite
from entdex.states import (
    apply_local_unitary,
    partial_trace,
    permute_qubits,
    pure_state,
    purity,
    to_density,
)


def _verdict(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


def test_criterion_1_class_count():
    start = time.monotonic()
    ok = True
    for n in range(2, 13):
        spectrum = class_spectrum(n)
        ok = ok and spectrum == set(range(n)) and len(spectrum) == n
    elapsed = time.monotonic() - start
    _verdict(1, "class count 2..12", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_enumerator_vs_recurrence():
    start = time.monotonic()
    ok = partition_count(4) == 5 and partition_count(5) == 7 and partition_count(10) == 42
    for n in range(1, 41):
        ok = ok and len(enumerate_partitions(n)) == partition_count(n)
    elapsed = time.monotonic() - start
    _verdict(2, "partition count N<=40", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_3_round_trip_classification():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    mismatches = 0
    cases = 0
    for n in range(1, 8):
        for shape in enumerate_partitions(n):
            for _ in range(20):
                perm = [int(x) for x in rng.permutation(n)]
                lu_seed = int(rng.integers(2**32))
                state, blocks = ghz_product(shape, perm=perm, lu_seed=lu_seed)
                report = classify(state, tol=1e-9)
                cases += 1
                if (
                    report.shape != shape
                    or report.index != n - len(shape)
                    or report.blocks != blocks
                ):
                    mismatches += 1
    elapsed = time.monotonic() - start
    _verdict(
        3,
        "round-trip classification N<=7",
        mismatches == 0 and elapsed < 60.0,
        f"{cases} cases, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_4_four_properties():
    start = time.monotonic()
    failures = 0
    for pid in (1, 2, 4):
        for seed in (1, 2, 3, 4, 5):
            report = run_property_suite(pid, max_n=6, trials=100, seed=seed)
            failures += len(report.failures)
    measurement_ok = True
    for n in range(2, 9):
        state = ghz(n)
        z_val = expected_index_after(state, n - 1, "Z")
        x_val = expected_index_after(state, n - 1, "X")
        measurement_ok = (
            measurement_ok
            and abs(z_val) <= 1e-9
            and abs(x_val - (n - 2)) <= 1e-9
            and z_val <= n - 1
            and x_val <= n - 1
        )
    elapsed = time.monotonic() - start
    _verdict(
        4,
        "four properties",
        failures == 0 and measurement_ok and elapsed < 120.0,
        f"{failures} suite failures, measurement ok={measurement_ok}, {elapsed:.1f}s",
    )


def test_criterion_5_block_pair_arithmetic():
    report = ghz_epr_arithmetic(10)
    exact = all(c.block_index == c.width - 1 == c.epr_pair_equivalent for c in report.checks)
    _verdict(5, "GHZ/EPR index arithmetic m<=10", report.all_ok and exact)


def test_criterion_6_ensemble_formula():
    terms = tuple((0.2, parts) for parts in enumerate_partitions(4))
    uniform_ok = abs(ensemble_index(Ensemble(4, terms)) - 1.6) <= 1e-12

    e1 = Ensemble(4, ((0.5, (4,)), (0.5, (2, 2))))
    e2 = Ensemble(4, ((1.0, (1, 1, 1, 1)),))
    linear_ok = True
    for w in (0.1, 0.5, 0.75):
        merged = Ensemble(
            4,
            tuple((w * p, payload) for p, payload in e1.terms)
            + tuple(((1 - w) * p, payload) for p, payload in e2.terms),
        )
        expected = w * ensemble_index(e1) + (1 - w) * ensemble_index(e2)
        linear_ok = linear_ok and abs(ensemble_index(merged) - expected) <= 1e-12
    _verdict(6, "ensemble index formula", uniform_ok and linear_ok)


def test_criterion_7_numerical_soundness():
    rng = np.random.default_rng(777)
    ops = 0
    ok = True
    while ops < 1000:
        kind = ops % 3
        if kind == 0:
            # partial-trace chain on a random 4-qubit state
            v = rng.normal(size=16) + 1j * rng.normal(size=16)
            rho = to_density(pure_state(v / np.linalg.norm(v)))
            keep = sorted(rng.choice(4, size=3, replace=False).tolist())
            inner = sorted(rng.choice(3, size=2, replace=False).tolist())
            two_hop = partial_trace(partial_trace(rho, keep), inner)
            one_hop = partial_trace(rho, [keep[i] for i in inner])
            ok = ok and np.max(np.abs(two_hop.mat - one_hop.mat)) <= 1e-9
            for reduced in (two_hop, one_hop):
                p = purity(reduced)
                ok = ok and 1 / reduced.dim - 1e-9 <= p <= 1 + 1e-9
        elif kind == 1:
            # norm preservation under dressing and permutation
            n = int(rng.integers(2, 7))
            state, _ = ghz_product(
                enumerate_partitions(n)[int(rng.integers(partition_count(n)))],
                lu_seed=int(rng.integers(2**32)),
            )
            moved = permute_qubits(
                apply_local_unitary(state, random_local_unitary(n, rng)),
                [int(x) for x in rng.permutation(n)],
            )
            ok = ok and abs(np.linalg.norm(moved.vec) - 1.0) <= 1e-9
        else:
            # purity bounds of random marginals
            n = int(rng.integers(2, 7))
            v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi = pure_state(v / np.linalg.norm(v))
            size = int(rng.integers(1, n + 1))
            keep = sorted(rng.choice(n, size=size, replace=False).tolist())
            rho = partial_trace(to_density(psi), keep)
            p = purity(rho)
            ok = ok and 1 / rho.dim - 1e-9 <= p <= 1 + 1e-9
        ops += 1
    _verdict(7, "numerical soundness, 1000 ops", ok, f"{ops} operations")


def test_criterion_8_cli_determinism(tmp_path):
    # run the package under test, not some other installed copy
    env = dict(os.environ, PYTHONPATH=str(Path(entdex.__file__).parents[1]))

    def run_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "entdex", *args],
            capture_output=True,
            text=True,
            check=False,
            env=env,
        )

    commands = [
        ("partitions", "7", "--json"),
        ("verify", "--suite", "all", "--max-n", "4", "--trials", "10", "--seed", "5", "--json"),
    ]
    ok = True
    for args in commands:
        first, second = run_cli(*args), run_cli(*args)
        ok = ok and first.returncode == second.returncode == 0
        ok = ok and first.stdout == second.stdout and first.stdout != ""

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        result = run_cli("make", "--partition", "3,2", "--lu-seed", "42", "-o", str(path))
        ok = ok and result.returncode == 0
    ok = ok and a.read_bytes() == b.read_bytes()

    first = run_cli("classify", str(a), "--json")
    second = run_cli("classify", str(a), "--json")
    ok = ok and first.stdout == second.stdout and json.loads(first.stdout)["index"] == 3
    _verdict(8, "CLI determinism", ok)
