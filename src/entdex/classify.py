"""Recover the finest tensor factorization of a pure state and assign its class.

Detection principle: for a globally pure state, the marginal on a subset S is
itself pure exactly when S is a tensor factor, and the finest factorization
into such factors is unique.  It is found by a Schmidt peel along nested
views of the input, one level per qubit, so no subsets are enumerated; a
level pays purity tests only when it leaves two or more candidate blocks.
Blocks whose cut it decided only on a row are certified on the input, by
one overlap bound or by marginal purity.  The index is E = N - p for p blocks.

Density matrices go through the same peel: rho = rho_A (x) rho_B exactly
when the operator vector vec(rho), with qubit q's row and column bits as one
four-state site q, is a product across A|B (the operator-Schmidt
decomposition), so the peel's blocks of sites are blocks of qubits.

``tol`` bounds the purity defect 1 - tr(rho^2) of a marginal (of vec(rho) for
a density matrix), which scales as the square of the perturbation that
entangles it.  A failed certification raises FactorizationError on both paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .partitions import as_partition, canonical_set_partition, index_of
from .states import (
    DEFAULT_TOL,
    DensityMatrix,
    PureState,
    integer,
    marginal_purity,
    partial_trace,  # noqa: F401  perfbench/tracing.py wraps entdex.classify.partial_trace
    qubit_subset,
)

LABEL_SEPARABLE = "fully separable"


class FactorizationError(RuntimeError):
    """A block found by the peel failed certification: its marginal on the
    input, or on vec(rho) for a density matrix, has a purity defect above tol,
    so the tolerance is numerically borderline for this state."""


@dataclass(frozen=True)
class ClassReport:
    """Classification result: block structure, shape, and index E = N - p."""

    n_qubits: int
    blocks: tuple[tuple[int, ...], ...]
    shape: tuple[int, ...]
    index: int
    label: str
    tolerance_used: float
    warning: str | None = None


@dataclass(frozen=True)
class Ensemble:
    """Probability-weighted terms, each an integer partition or a pure state."""

    n_qubits: int
    terms: tuple[tuple[float, Union[tuple[int, ...], PureState]], ...]

    def __post_init__(self) -> None:
        n = integer(self.n_qubits, 1, "n_qubits must be a positive integer, got {!r}")
        norm_terms = []
        total = 0.0
        for prob, payload in self.terms:
            prob = float(prob)
            if not 0.0 < prob <= 1.0:
                raise ValueError(f"probabilities must lie in (0, 1], got {prob}")
            total += prob
            if isinstance(payload, PureState):
                if payload.n_qubits != n:
                    raise ValueError(f"state term has {payload.n_qubits} qubits, expected {n}")
            else:
                payload = as_partition(payload)
                if sum(payload) != n:
                    raise ValueError(f"partition term {payload} does not sum to {n}")
            norm_terms.append((prob, payload))
        if abs(total - 1.0) > DEFAULT_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        object.__setattr__(self, "terms", tuple(norm_terms))


def _check_tol(tol: float) -> float:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    return float(tol)


# allowance for rounding in 1 - F**2: 64 units of 2**-52 per qubit of the vector
_ROUNDING_PER_QUBIT = 64 * 2.0**-52


def _product_overlap(vec: np.ndarray, columns: list[np.ndarray], bits: int) -> float:
    """F = |t|^2 / |vec|^2 for t, ``vec`` contracted on its leading sites with
    unit vectors along ``columns``: its overlap with a product state.  By
    Eckart-Young F <= sigma_1^2 across the cut of each of those sites and of
    the rest, so each such cut has a purity defect of at most 1 - F^2."""
    t = vec
    for c in columns:
        t = (c.conj() / np.linalg.norm(c)) @ t.reshape(2**bits, -1)
    return float(np.vdot(t, t).real) / float(np.vdot(vec, vec).real)


def _peel(
    vec: np.ndarray, tol: float, bits: int
) -> tuple[list[tuple[int, ...]], bool, list[tuple[int, ...]]]:
    """Finest blocks of an amplitude array, in its qubit indices.

    Sites of ``bits`` qubits each are never split.  Level 0 is ``vec`` and
    level j + 1 the heaviest row of level j over site j, a contiguous view
    of ``vec``.  Top-down, each level's Gram matrix gives the row weights,
    site j's (scale-invariant) purity defect and the heavy row's column.
    Bottom-up: a tensor factor of level j that leaves out site j is a factor
    of each of its rows, so every block of level j + 1 is a block of level j
    or a piece of site j's block; only the former has a pure marginal on
    level j.  A lone block is site j's complement, of the same defect.

    Also reports whether any decision was near tol, and the blocks whose
    cut was not decided on ``vec``.  If levels 0..r-1 pass, one
    ``_product_overlap`` may decide the cuts of sites 1..r-1 and the rest.
    """
    n = vec.size.bit_length() - 1
    levels, view = [], vec
    for _ in range(n // bits - 1):
        rows = view.reshape(2**bits, -1)
        gram = rows @ rows.conj().T
        weights = gram.diagonal().real.tolist()
        k = weights.index(max(weights))
        total = sum(weights)
        levels.append((view, total, 1.0 - float(np.vdot(gram, gram).real) / total**2, gram[:, k]))
        view = rows[k]
    found, near = [tuple(range(n - bits, n))], False
    for j in reversed(range(len(levels))):
        view, total, defect, _ = levels[j]
        site = tuple(range(j * bits, j * bits + bits))
        if defect <= tol:
            found = [site] + found
            continue
        defects = [defect]
        if len(found) > 1:
            psi = PureState(n - j * bits, view / math.sqrt(total) if j else view)
            defects = [1.0 - marginal_purity(psi, [q - j * bits for q in b]) for b in found]
        near = near or tol < defect <= 10.0 * tol
        head, kept = site, []
        for block, d in zip(found, defects):
            near = near or tol < d <= 10.0 * tol
            if d > tol:
                head += block
            else:
                kept.append(block)
        found = [head] + kept
    # two blocks have one cut, which level 0 decided on vec itself
    if len(found) <= 2:
        return found, near, []
    run = next((j for j, (_, _, defect, _) in enumerate(levels) if defect > tol), len(levels))
    undecided = found[1:] if run else found[:1]
    if run > 1:
        overlap = _product_overlap(vec, [column for *_, column in levels[:run]], bits)
        if 1.0 - overlap**2 + _ROUNDING_PER_QUBIT * n <= tol:
            certified = {*found[:run], tuple(range(run * bits, n))}
            undecided = [block for block in undecided if block not in certified]
    return found, near, undecided


def _factorize(vec: np.ndarray, tol: float, bits: int) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Certified finest blocks of a normalized vector, in sites of ``bits`` qubits; near flag.
    A block ``_peel`` left undecided is tested by its marginal purity on ``vec``."""
    tol = _check_tol(tol)
    n = vec.size.bit_length() - 1
    blocks, near, undecided = _peel(vec, tol, bits)
    sites = {block: tuple(q // bits for q in block[::bits]) for block in blocks}
    psi = PureState(n, vec) if undecided else None
    for block in undecided:
        defect = 1.0 - marginal_purity(psi, block)
        if defect > tol:
            raise FactorizationError(
                f"block {sites[block]} has purity defect {defect:.3e} > tol={tol:g} on the "
                "input; the tolerance is numerically borderline for this state"
            )
    return canonical_set_partition(sites.values(), n_qubits=n // bits), near


def finest_factorization(
    psi: PureState, tol: float = DEFAULT_TOL
) -> tuple[tuple[int, ...], ...]:
    """Blocks of the finest tensor factorization, in canonical order."""
    return _factorize(psi.vec, tol, 1)[0]


def minimal_pure_subset(psi: PureState, i: int, tol: float = DEFAULT_TOL) -> tuple[int, ...]:
    """The block of qubit ``i``: the smallest S containing i with a pure marginal."""
    (i,) = qubit_subset([i], psi.n_qubits)
    return next(b for b in finest_factorization(psi, tol) if i in b)


def entanglement_index(psi: PureState, tol: float = DEFAULT_TOL) -> int:
    """E = N - p for the finest factorization into p blocks."""
    return psi.n_qubits - len(finest_factorization(psi, tol))


def classify(psi: PureState, tol: float = DEFAULT_TOL) -> ClassReport:
    """Full classification: blocks, shape, index, and class label."""
    blocks, near = _factorize(psi.vec, tol, 1)
    shape = tuple(sorted(map(len, blocks), reverse=True))
    index = psi.n_qubits - len(blocks)
    label = LABEL_SEPARABLE if index == 0 else f"entangled class E={index}"
    warning = (
        "near-threshold purity defect within 10x tolerance; "
        "classification may be sensitive to tol"
        if near
        else None
    )
    return ClassReport(
        n_qubits=psi.n_qubits,
        blocks=blocks,
        shape=shape,
        index=index,
        label=label,
        tolerance_used=float(tol),
        warning=warning,
    )


def ensemble_index(e: Ensemble, tol: float = DEFAULT_TOL) -> float:
    """Probability-weighted index over a given decomposition.

    Partition terms contribute their exact N - p; state terms are
    classified at ``tol`` first.  The result depends on the decomposition
    supplied; no search over alternative decompositions is attempted.
    """
    tol = _check_tol(tol)
    total = 0.0
    for prob, payload in e.terms:
        if isinstance(payload, PureState):
            total += prob * entanglement_index(payload, tol)
        else:
            total += prob * index_of(payload)
    return total


def mixed_product_split(
    rho: DensityMatrix, tol: float = DEFAULT_TOL
) -> tuple[tuple[int, ...], ...]:
    """Finest product splitting of a density matrix.

    rho = rho_A (x) rho_B exactly when vec(rho) / ||rho||_F, read as N
    four-state sites holding qubit q's row and column bits, is a product
    across A|B; so ``classify``'s peel and certification run on it unchanged,
    ``tol`` bounds the same purity defect, and a block that fails
    certification raises FactorizationError.  Returns block structure only;
    whether a block is entangled is not determined for mixed inputs.
    """
    n = rho.n_qubits
    # site q of vec(rho) is qubits 2q and 2q + 1: qubit q's row and column bits
    axes = [a for q in range(n) for a in (q, n + q)]
    vec = rho.mat.reshape([2] * (2 * n)).transpose(axes).flatten()
    vec /= np.linalg.norm(vec)
    return _factorize(vec, tol, 2)[0]
