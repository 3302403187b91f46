"""Executable checks for the four requirements on the block-count index,
plus single-qubit measurement spot checks and the GHZ/EPR unit arithmetic.

The four requirements: (1) zero for fully separable states, (2) invariance
under local unitaries, (3) no increase in expectation under local projective
measurement, (4) additivity over tensor products.  Suites draw seeded random
cases from the ground-truth construction helpers, so every expected value is
known by construction.  Suites and the arithmetic check classify at the
default tolerance DEFAULT_TOL.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import classify, entanglement_index
from .construct import basis_state, ghz, ghz_product, random_local_unitary
from .partitions import enumerate_partitions
from .states import (
    DEFAULT_MAX_QUBITS,
    DEFAULT_TOL,
    MAX_QUBITS_CEILING,
    PureState,
    _fresh_state,
    apply_local_unitary,
    integer,
    qubit_subset,
    tensor,
)

PROBABILITY_FLOOR = 1e-12
PROPERTY_IDS = (1, 2, 3, 4)

# the rows are each basis's outcome vectors
_BASIS_VECTORS = {
    "Z": np.eye(2, dtype=np.complex128),
    "X": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0),
}


@dataclass(frozen=True)
class MeasurementOutcome:
    """One projective outcome: its probability and the collapsed state."""

    probability: float
    post_state: PureState


@dataclass(frozen=True)
class PropertyReport:
    """Result of one property suite run; failures are data, not errors."""

    property_id: int
    cases_run: int
    failures: tuple[str, ...]
    max_deviation: float


@dataclass(frozen=True)
class ArithmeticCheck:
    width: int
    block_index: int
    epr_pair_equivalent: int
    ok: bool


@dataclass(frozen=True)
class ArithmeticReport:
    """Per-width check that a width-m block is worth m-1 pair units."""

    checks: tuple[ArithmeticCheck, ...]
    all_ok: bool


def measure_qubit(psi: PureState, q: int, basis: str) -> list[MeasurementOutcome]:
    """Projective measurement of one qubit in the Z or X basis.

    The measured qubit is kept, collapsed to the outcome's basis state, so the
    post-states live on the same N qubits and the qubit becomes a singleton
    factor.  Outcomes below probability 1e-12 are pruned.
    """
    n = psi.n_qubits
    (q,) = qubit_subset([q], n)
    vectors = _BASIS_VECTORS.get(str(basis).upper())
    if vectors is None:
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    # rows are qubit q, columns the other qubits in order: np.tensordot's operand
    t = psi.vec.reshape(2**q, 2, -1).transpose(1, 0, 2).reshape(2, -1)
    outcomes = []
    for v in vectors:
        # amplitude of the outcome on the remaining qubits
        w = np.dot(v.conj().reshape(1, 2), t)
        prob = float(np.vdot(w, w).real)
        if prob < PROBABILITY_FLOOR:
            continue
        # a K=1 gemm like tensordot(axes=0); np.multiply.outer rounds differently
        post = np.dot(v.reshape(2, 1), w).reshape(2, 2**q, -1).transpose(1, 0, 2)
        outcomes.append(MeasurementOutcome(prob, _fresh_state(n, post.reshape(-1) / math.sqrt(prob))))
    return outcomes


def expected_index_after(
    psi: PureState, q: int, basis: str, tol: float = DEFAULT_TOL
) -> float:
    """Expectation of the index over the outcomes of one measurement."""
    return sum(
        o.probability * entanglement_index(o.post_state, tol)
        for o in measure_qubit(psi, q, basis)
    )


def _random_dressed(rng: np.random.Generator, n: int, cap: int):
    options = enumerate_partitions(n)
    shape = options[int(rng.integers(len(options)))]
    perm = [int(x) for x in rng.permutation(n)]
    lu_seed = int(rng.integers(0, 2**32))
    return ghz_product(shape, perm=perm, lu_seed=lu_seed, max_qubits=cap)


def _trial_separable(rng: np.random.Generator, max_n: int, cap: int):
    # per-qubit Haar dressing of |0...0> is separable by construction
    n = int(rng.integers(2, max_n + 1))
    lu = random_local_unitary(n, rng)
    e = entanglement_index(apply_local_unitary(basis_state([0] * n), lu))
    return [(float(abs(e)), f"n={n} separable state got E={e}")]


def _trial_lu_invariance(rng: np.random.Generator, max_n: int, cap: int):
    n = int(rng.integers(2, max_n + 1))
    state, blocks = _random_dressed(rng, n, cap)
    u = random_local_unitary(n, rng)
    before = classify(state)
    after = classify(apply_local_unitary(state, u))
    same = (before.blocks, before.shape, before.index) == (after.blocks, after.shape, after.index)
    message = (
        f"n={n} blocks={blocks} report changed under LU: "
        f"{(before.blocks, before.index)} -> {(after.blocks, after.index)}"
    )
    return [(0.0 if same else 1.0, message)]


def _trial_measurement(rng: np.random.Generator, max_n: int, cap: int):
    n = int(rng.integers(2, max_n + 1))
    state, _ = _random_dressed(rng, n, cap)
    e_before = entanglement_index(state)
    q = int(rng.integers(n))
    cases = []
    for basis in ("Z", "X"):
        dev = expected_index_after(state, q, basis) - e_before
        cases.append((dev, f"n={n} q={q} basis={basis} expected index rose by {dev:.3e}"))
    return cases


def _trial_additivity(rng: np.random.Generator, max_n: int, cap: int):
    # leave room for at least one qubit of B under the cap
    n_a = int(rng.integers(1, min(max_n, cap - 1) + 1))
    n_b = int(rng.integers(1, min(max_n, cap - n_a) + 1))
    state_a, _ = _random_dressed(rng, n_a, cap)
    state_b, _ = _random_dressed(rng, n_b, cap)
    joint = tensor(state_a, state_b, max_qubits=cap)
    e_a = entanglement_index(state_a)
    e_b = entanglement_index(state_b)
    e_ab = entanglement_index(joint)
    message = f"E({n_a}+{n_b} qubits)={e_ab} but parts give {e_a}+{e_b}"
    return [(float(abs(e_ab - e_a - e_b)), message)]


# each trial returns a list of (deviation, failure message), one per case it checks
_TRIALS = {1: _trial_separable, 2: _trial_lu_invariance, 3: _trial_measurement, 4: _trial_additivity}


def run_property_suite(
    property_id: int,
    max_n: int = 6,
    trials: int = 100,
    seed: int = 1,
) -> PropertyReport:
    """Run one of the four property suites over seeded random cases.

    Deterministic: identical (property_id, max_n, trials, seed) arguments
    produce an identical report.  Failures are returned in the report, never
    raised.  ``max_n`` may reach MAX_QUBITS_CEILING; states are built under
    the qubit cap max(DEFAULT_MAX_QUBITS, max_n), so draws for max_n up to
    DEFAULT_MAX_QUBITS do not depend on the ceiling.  States are classified
    at DEFAULT_TOL.  A case fails when its deviation exceeds DEFAULT_TOL for
    property 3 and 0 for the exact integer checks of properties 1, 2 and 4.
    """
    unknown = f"property_id must be one of {PROPERTY_IDS}, got {{!r}}"
    property_id = integer(property_id, -math.inf, unknown)
    if property_id not in PROPERTY_IDS:
        raise ValueError(unknown.format(property_id))
    max_n = integer(max_n, -math.inf, "max_n must be an integer, got {!r}")
    if not 2 <= max_n <= MAX_QUBITS_CEILING:
        raise ValueError(f"max_n must be in [2, {MAX_QUBITS_CEILING}], got {max_n}")
    trials = integer(trials, 1, "trials must be a positive integer, got {}")
    cap = max(DEFAULT_MAX_QUBITS, max_n)
    limit = DEFAULT_TOL if property_id == 3 else 0.0
    rng = np.random.default_rng(integer(seed, 0, "seed must be a non-negative integer, got {!r}"))
    failures: list[str] = []
    cases = 0
    max_dev = 0.0
    for trial in range(trials):
        for dev, message in _TRIALS[property_id](rng, max_n, cap):
            cases += 1
            max_dev = max(max_dev, dev)
            if dev > limit:
                failures.append(f"trial {trial}: {message}")
    return PropertyReport(
        property_id=property_id,
        cases_run=cases,
        failures=tuple(failures),
        max_deviation=float(max_dev),
    )


def ghz_epr_arithmetic(max_m: int) -> ArithmeticReport:
    """Check E(width-m block) = (m-1) * E(pair) for m = 2..max_m."""
    max_m = integer(max_m, -math.inf, "max_m must be an integer, got {!r}")
    if not 2 <= max_m <= DEFAULT_MAX_QUBITS:
        raise ValueError(f"max_m must be in [2, {DEFAULT_MAX_QUBITS}], got {max_m}")
    pair_unit = entanglement_index(ghz(2))
    checks = []
    for m in range(2, max_m + 1):
        e_m = entanglement_index(ghz(m))
        equivalent = (m - 1) * pair_unit
        checks.append(ArithmeticCheck(m, e_m, equivalent, e_m == equivalent))
    return ArithmeticReport(tuple(checks), all(c.ok for c in checks))
