"""Recover the finest tensor factorization of a pure state and assign its class.

Detection principle: for a globally pure state, the marginal on a subset S is
itself pure exactly when S is a tensor factor, and the finest factorization
into such factors is unique.  It is found by a Schmidt peel: one step per
qubit, each splitting qubit 0 from the rest, so no subsets are enumerated.
Every block found is then certified by the purity of its marginal on the
input.  The index is E = N - p where p is the number of blocks.

Density matrices go through the same peel: rho = rho_A (x) rho_B exactly
when the operator vector vec(rho), with each qubit's row and column bits
taken as two sites of a 2N-qubit state, is a product across A|B (the
operator-Schmidt decomposition).  The peel's blocks of sites are mapped back
to the qubits they belong to.

``tol`` bounds the purity defect 1 - tr(rho^2) of a marginal, which scales
as the square of the perturbation that entangles it.  ``mixed_product_split``
certifies each split by Frobenius distance instead, with ``tol`` as the bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .partitions import as_partition, canonical_set_partition, index_of, shape_of
from .states import (
    DEFAULT_TOL,
    DensityMatrix,
    PureState,
    _split_matrix,
    marginal_purity,
    partial_trace,
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
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        norm_terms = []
        total = 0.0
        for prob, payload in self.terms:
            prob = float(prob)
            if not 0.0 < prob <= 1.0:
                raise ValueError(f"probabilities must lie in (0, 1], got {prob}")
            total += prob
            if isinstance(payload, PureState):
                if payload.n_qubits != self.n_qubits:
                    raise ValueError(
                        f"state term has {payload.n_qubits} qubits, expected {self.n_qubits}"
                    )
            else:
                payload = as_partition(payload)
                if sum(payload) != self.n_qubits:
                    raise ValueError(
                        f"partition term {payload} does not sum to {self.n_qubits}"
                    )
            norm_terms.append((prob, payload))
        if abs(total - 1.0) > DEFAULT_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        object.__setattr__(self, "terms", tuple(norm_terms))


def _check_tol(tol: float) -> float:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    return float(tol)


def _peel(vec: np.ndarray, tol: float) -> tuple[list[tuple[int, ...]], bool]:
    """Finest blocks of a normalized amplitude array, in its local qubit indices.

    A tensor factor that leaves out qubit 0 is also a factor of each row of
    ``vec.reshape(2, -1)``, so every block of the heavier row is either a
    block of ``vec`` or a piece of qubit 0's block; only the former has a pure
    marginal on ``vec``.  Also reports whether any decision was near tol.
    """
    n = vec.size.bit_length() - 1
    if n == 1:
        return [(0,)], False
    rows = vec.reshape(2, -1)
    gram = rows @ rows.conj().T
    k = int(gram[1, 1].real > gram[0, 0].real)
    found, near = _peel(rows[k] / math.sqrt(gram[k, k].real), tol)
    rest = [tuple(q + 1 for q in block) for block in found]
    defect = 1.0 - float(np.vdot(gram, gram).real)
    if defect <= tol:
        return [(0,)] + rest, near
    psi = PureState(n, vec)
    defects = [1.0 - marginal_purity(psi, block) for block in rest]
    near = near or any(tol < d <= 10.0 * tol for d in [defect, *defects])
    head = (0,) + tuple(q for block, d in zip(rest, defects) if d > tol for q in block)
    return [head] + [block for block, d in zip(rest, defects) if d <= tol], near


def _factorize(psi: PureState, tol: float) -> tuple[tuple[tuple[int, ...], ...], bool]:
    tol = _check_tol(tol)
    blocks, near = _peel(psi.vec, tol)
    for block in blocks:
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
    n = psi.n_qubits
    if not 0 <= int(i) < n:
        raise ValueError(f"qubit index {i} out of range for {n} qubits")
    return next(b for b in finest_factorization(psi, tol) if int(i) in b)


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


def split_factors(
    psi: PureState, subset: Iterable[int]
) -> tuple[PureState, PureState]:
    """Extract the tensor factors across the cut (subset, complement).

    Uses the dominant column of the cross reshaping, so it is exact for
    product states and a best-effort rank-1 fit otherwise.  The returned
    pair reproduces the state with the subset's qubits moved to the front:
    ``kron(a.vec, b.vec)`` approximates ``permute-to-front(psi)``.
    """
    kept = qubit_subset(subset, psi.n_qubits)
    if not kept or len(kept) == psi.n_qubits:
        raise ValueError("subset must be a proper nonempty subset of the qubits")
    m = _split_matrix(psi, kept)
    col = int(np.argmax(np.linalg.norm(m, axis=0)))
    a = m[:, col] / np.linalg.norm(m[:, col])
    b = a.conj() @ m
    b = b / np.linalg.norm(b)
    return PureState(len(kept), a), PureState(psi.n_qubits - len(kept), b)


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


def _reordered_entries(rho: DensityMatrix, order: list[int]) -> np.ndarray:
    n = rho.n_qubits
    t = rho.mat.reshape([2] * (2 * n))
    axes = order + [n + q for q in order]
    return t.transpose(axes).reshape(2**n, 2**n)


def _is_product_cut(rho: DensityMatrix, block: tuple[int, ...], tol: float) -> bool:
    comp = tuple(q for q in range(rho.n_qubits) if q not in block)
    try:
        product = np.kron(partial_trace(rho, block).mat, partial_trace(rho, comp).mat)
    except ValueError:  # a marginal of a slightly non-positive rho can fail the purity check
        return False
    target = _reordered_entries(rho, list(block) + list(comp))
    return float(np.linalg.norm(target - product)) <= tol


def _split_mixed(rho: DensityMatrix, tol: float) -> list[tuple[int, ...]]:
    n = rho.n_qubits
    # site 2q holds qubit q's row bit and site 2q + 1 its column bit
    axes = [a for q in range(n) for a in (q, n + q)]
    vec = rho.mat.reshape([2] * (2 * n)).transpose(axes).reshape(-1)
    found, _ = _peel(vec / np.linalg.norm(vec), tol)
    groups: list[set[int]] = []
    for sites in found:
        group = {x // 2 for x in sites}
        for other in [g for g in groups if g & group]:
            groups.remove(other)
            group |= other
        groups.append(group)
    blocks = [tuple(sorted(g)) for g in groups]
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

    The Schmidt peel runs on vec(rho) / ||rho||_F as a 2N-qubit state whose
    sites 2q and 2q + 1 are qubit q's row and column bits; blocks of sites
    that share a qubit are merged.  The finest factorization of a vector is
    unique and refines every split of rho, so for exact products this gives
    the finest split of rho.  There ``tol`` bounds the purity defect of each
    peel decision on the operator vector.  Each resulting block B is then
    certified on the input: ||rho - rho_B (x) rho_rest||_F <= ``tol``, with
    rho_rest the marginal on the other qubits.  The blocks that fail are
    merged into one, which must pass in turn, or the whole register is one
    block; so every returned split passes the Frobenius test.  Returns block
    structure only; whether a block is entangled is not determined for mixed
    inputs.
    """
    blocks = _split_mixed(rho, _check_tol(tol))
    return canonical_set_partition(blocks, n_qubits=rho.n_qubits)
