"""Recover the finest tensor factorization of a pure state and assign its class.

Detection principle: for a globally pure state, the marginal on a subset S is
itself pure exactly when S is a tensor factor, and the finest factorization
into such factors is unique.  It is found by a Schmidt peel: one step per
qubit, each splitting qubit 0 from the rest, so no subsets are enumerated;
a step pays purity tests only when it leaves two or more candidate blocks.
Blocks whose cut the peel decided only on a row are then certified by their
marginal purity on the input.  The index is E = N - p for p blocks.

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

from .partitions import as_partition, canonical_set_partition, index_of, shape_of
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


def _peel(
    vec: np.ndarray, tol: float, bits: int
) -> tuple[list[tuple[int, ...]], bool, list[tuple[int, ...]]]:
    """Finest blocks of a normalized amplitude array, in its local qubit indices.

    Sites of ``bits`` qubits each are never split.  A tensor factor that
    leaves out site 0 is also a factor of each row of ``vec.reshape(2**bits,
    -1)``, so every block of the heaviest row is either a block of ``vec`` or
    a piece of site 0's block; only the former has a pure marginal on ``vec``.
    A lone block is site 0's complement, whose marginal has the same defect,
    so it needs no test.  Also reports whether any decision was near tol, and
    the blocks whose cut was not decided on ``vec`` itself.
    """
    n = vec.size.bit_length() - 1
    site = tuple(range(bits))
    if n == bits:
        return [site], False, []
    rows = vec.reshape(2**bits, -1)
    gram = rows @ rows.conj().T
    weights = gram.diagonal().real.tolist()
    k = weights.index(max(weights))
    found, near, _ = _peel(rows[k] / math.sqrt(weights[k]), tol, bits)
    rest = [tuple(q + bits for q in block) for block in found]
    defect = 1.0 - float(np.vdot(gram, gram).real) / sum(weights) ** 2
    if defect <= tol:
        return [site] + rest, near, rest if len(rest) > 1 else []
    defects = [defect]
    if len(rest) > 1:
        psi = PureState(n, vec)
        defects = [1.0 - marginal_purity(psi, block) for block in rest]
    near = near or any(tol < d <= 10.0 * tol for d in [defect, *defects])
    head = site + tuple(q for block, d in zip(rest, defects) if d > tol for q in block)
    kept = [block for block, d in zip(rest, defects) if d <= tol]
    # beside a single kept block, the head's cut is that block's
    return [head] + kept, near, [head] if len(kept) > 1 else []


def _factorize(vec: np.ndarray, tol: float, bits: int) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Certified finest blocks of a normalized vector, in sites of ``bits`` qubits; near flag."""
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
    shape = shape_of(blocks)
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
