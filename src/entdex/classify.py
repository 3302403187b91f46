"""Recover the finest tensor factorization of a pure state and assign its class.

Detection principle: for a globally pure state, the marginal on a subset S is
itself pure exactly when S is a tensor factor, and the finest factorization
into such factors is unique.  It is found by a Schmidt peel: one step per
qubit, each splitting qubit 0 from the rest, so no subsets are enumerated;
a step pays purity tests only when it leaves two or more candidate blocks.
Every distinct cut found is then certified once by the purity of a marginal
on the input.  The index is E = N - p where p is the number of blocks.

Density matrices go through the same peel: rho = rho_A (x) rho_B exactly
when the operator vector vec(rho), with qubit q's row and column bits as one
four-state site q, is a product across A|B (the operator-Schmidt
decomposition), so the peel's blocks of sites are blocks of qubits.

``tol`` bounds the purity defect 1 - tr(rho^2) of a marginal, which scales
as the square of the perturbation that entangles it.  ``mixed_product_split``
certifies each split by Frobenius distance instead, with ``tol`` as the bound.
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
    input has a purity defect above tol, so the tolerance is numerically
    borderline for this state."""


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


def _peel(vec: np.ndarray, tol: float, bits: int) -> tuple[list[tuple[int, ...]], bool]:
    """Finest blocks of a normalized amplitude array, in its local qubit indices.

    Sites of ``bits`` qubits each are never split.  A tensor factor that
    leaves out site 0 is also a factor of each row of ``vec.reshape(2**bits,
    -1)``, so every block of the heaviest row is either a block of ``vec`` or
    a piece of site 0's block; only the former has a pure marginal on ``vec``.
    A lone block is site 0's complement, whose marginal has the same defect,
    so it needs no test.  Also reports whether any decision was near tol.
    """
    n = vec.size.bit_length() - 1
    site = tuple(range(bits))
    if n == bits:
        return [site], False
    rows = vec.reshape(2**bits, -1)
    gram = rows @ rows.conj().T
    weights = gram.diagonal().real.tolist()
    k = weights.index(max(weights))
    found, near = _peel(rows[k] / math.sqrt(weights[k]), tol, bits)
    rest = [tuple(q + bits for q in block) for block in found]
    defect = 1.0 - float(np.vdot(gram, gram).real) / sum(weights) ** 2
    if defect <= tol:
        return [site] + rest, near
    defects = [defect]
    if len(rest) > 1:
        psi = PureState(n, vec)
        defects = [1.0 - marginal_purity(psi, block) for block in rest]
    near = near or any(tol < d <= 10.0 * tol for d in [defect, *defects])
    head = site + tuple(q for block, d in zip(rest, defects) if d > tol for q in block)
    return [head] + [block for block, d in zip(rest, defects) if d <= tol], near


def _factorize(psi: PureState, tol: float) -> tuple[tuple[tuple[int, ...], ...], bool]:
    tol = _check_tol(tol)
    blocks, near = _peel(psi.vec, tol, 1)
    # a lone block is the whole state, and two blocks test the same cut
    for block in blocks if len(blocks) > 2 else blocks[:-1]:
        defect = 1.0 - marginal_purity(psi, block)
        if defect > tol:
            raise FactorizationError(
                f"block {block} has purity defect {defect:.3e} > tol={tol:g} on the "
                "input; the tolerance is numerically borderline for this state"
            )
    return canonical_set_partition(blocks, n_qubits=psi.n_qubits), near


def finest_factorization(
    psi: PureState, tol: float = DEFAULT_TOL
) -> tuple[tuple[int, ...], ...]:
    """Blocks of the finest tensor factorization, in canonical order."""
    blocks, _ = _factorize(psi, tol)
    return blocks


def minimal_pure_subset(psi: PureState, i: int, tol: float = DEFAULT_TOL) -> tuple[int, ...]:
    """The block of qubit ``i``: the smallest S containing i with a pure marginal."""
    (i,) = qubit_subset([i], psi.n_qubits)
    return next(b for b in finest_factorization(psi, tol) if i in b)


def entanglement_index(psi: PureState, tol: float = DEFAULT_TOL) -> int:
    """E = N - p for the finest factorization into p blocks."""
    return psi.n_qubits - len(finest_factorization(psi, tol))


def classify(psi: PureState, tol: float = DEFAULT_TOL) -> ClassReport:
    """Full classification: blocks, shape, index, and class label."""
    blocks, near = _factorize(psi, tol)
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


def _is_product_cut(rho: DensityMatrix, block: tuple[int, ...], tol: float) -> bool:
    n, k = rho.n_qubits, len(block)
    comp = [q for q in range(n) if q not in block]
    # row (i, i') of m is rho_B's entry (i, i'), column (j, j') rho_rest's
    axes = list(block) + [n + q for q in block] + comp + [n + q for q in comp]
    m = rho.mat.reshape([2] * (2 * n)).transpose(axes).reshape(4**k, 4 ** (n - k))
    rho_b = m @ np.eye(2 ** (n - k)).reshape(-1)
    rho_rest = np.eye(2**k).reshape(-1) @ m
    # a direct difference: the expanded norm cancels catastrophically at tol**2
    return float(np.linalg.norm(m - np.outer(rho_b, rho_rest))) <= tol


def _split_mixed(rho: DensityMatrix, tol: float) -> list[tuple[int, ...]]:
    n = rho.n_qubits
    # site q of vec(rho) is qubits 2q and 2q + 1: qubit q's row and column bits
    axes = [a for q in range(n) for a in (q, n + q)]
    vec = rho.mat.reshape([2] * (2 * n)).transpose(axes).flatten()
    vec /= np.linalg.norm(vec)
    blocks = [tuple(sorted(q // 2 for q in block[::2])) for block in _peel(vec, tol, 2)[0]]
    if len(blocks) == 1:
        return blocks
    if len(blocks) == 2:  # both blocks test the same cut
        return blocks if _is_product_cut(rho, blocks[0], tol) else [tuple(range(n))]
    kept = [b for b in blocks if _is_product_cut(rho, b, tol)]
    if len(kept) == len(blocks):
        return blocks
    merged = tuple(sorted(q for b in blocks if b not in kept for q in b))
    if kept and len(kept) + 1 < len(blocks) and _is_product_cut(rho, merged, tol):
        return kept + [merged]
    return [tuple(range(n))]


def mixed_product_split(
    rho: DensityMatrix, tol: float = DEFAULT_TOL
) -> tuple[tuple[int, ...], ...]:
    """Finest product splitting of a density matrix.

    The Schmidt peel runs on vec(rho) / ||rho||_F as a state of N four-state
    sites, site q holding qubit q's row and column bits, so its blocks are
    blocks of qubits and nothing is merged.  The finest factorization of a
    vector is unique and equals the finest split of rho, so for exact
    products this gives the finest split of rho.  There ``tol`` bounds the
    purity defect of each peel decision on the operator vector.  Each
    resulting block B is then certified on the input: ||rho - rho_B (x)
    rho_rest||_F <= ``tol``, with rho_rest the marginal on the other qubits.
    The blocks that fail are merged into one, which must pass in turn, or the
    whole register is one block; so every returned split passes the Frobenius
    test.  Returns block structure only; whether a block is entangled is not
    determined for mixed inputs.
    """
    blocks = _split_mixed(rho, _check_tol(tol))
    return canonical_set_partition(blocks, n_qubits=rho.n_qubits)
