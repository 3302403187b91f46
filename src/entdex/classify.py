"""Recover the finest tensor factorization of a pure state and assign its class.

Detection principle: for a globally pure state, the marginal on a subset S is
itself pure exactly when S is a tensor factor, and the finest factorization
into such factors is unique.  It is found by a Schmidt peel along nested
views of the input, one level per qubit, so no subsets are enumerated; a
level pays cut tests only when it leaves two or more candidate blocks.
Blocks whose cut it decided only on a row are certified on the caller's
state, read in place, by one overlap bound or by a cut test.  A cut with 6
qubits or more on each side is decided in O(2^N) between a lower bound
(Cauchy interlacing) and an upper bound (Eckart-Young) on its defect; only
a defect between them, or a narrower cut, pays the exact marginal purity,
about 2^(N + k) work for a smaller side of k qubits.  The index is E = N - p
for p blocks.

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
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .partitions import as_partition, index_of
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
            if isinstance(prob, bool) or not isinstance(prob, numbers.Real):
                raise ValueError(f"probability {prob!r} is not a real number")
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


# allowance for rounding in a bound on a defect: 64 units of 2**-52 per qubit of the vector
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


# the bounds decide cuts whose smaller side has at least this many qubits;
# below it the exact Gram matrix costs less than the bounds' numpy calls
_BOUND_SIDE = 6


def _cut_bounds(view: np.ndarray, keep: list[int]) -> tuple[float, float]:
    """(lower, upper) bounds on the purity defect of the cut ``keep`` | rest of
    ``view`` (any norm), in O(len(view)) work on one reordered (side, rest)
    copy m.  With row weights w, the heaviest row k and c = m m_k^H: the 2x2
    Gram matrix of row k and of the row farthest from it is a principal
    submatrix of m m^H, so by Cauchy interlacing its smaller eigenvalue over
    sum(w) is at most p_2 <= 1 - p_1 <= 1 - sum(p^2).  Row k after one power
    step, v = c^H m, gives F = |m v|^2 / (|v|^2 sum(w)) <= p_1, so by
    Eckart-Young the defect is at most 1 - F^2."""
    n = view.size.bit_length() - 1
    other = [q for q in range(n) if q not in keep]
    side, rest = (keep, other) if len(keep) <= len(other) else (other, keep)
    m = view.reshape([2] * n).transpose(*side, *rest).reshape(2 ** len(side), -1)
    m = np.ascontiguousarray(m)  # the reshape may be a strided view
    flat = m.view(np.float64)
    w = np.einsum("ij,ij->i", flat, flat)
    k = int(w.argmax())
    c = m @ m[k].conj()
    c2 = c.real**2 + c.imag**2
    far = w - c2 / w[k]  # each row's squared distance from row k's span
    i = int(far.argmax())
    total = float(w.sum())
    # the smaller eigenvalue as determinant over the larger, which does not cancel
    low = w[k] * far[i] / ((w[k] + w[i]) / 2 + math.hypot((w[k] - w[i]) / 2, math.sqrt(c2[i])))
    low = float(low) / total
    v = c.conj() @ m
    t = m @ v.conj()
    overlap = float(np.vdot(t, t).real) / (float(np.vdot(v, v).real) * total)
    return low, 1.0 - overlap**2


def _factorize(psi: PureState, tol: float, bits: int) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Certified finest blocks of ``psi`` in canonical order, in sites of
    ``bits`` qubits, and whether any decision was near tol.

    Sites are never split.  Level 0 is ``psi.vec`` and level j + 1 the
    heaviest row of level j over site j, a contiguous view of the input.
    Top-down, each level's Gram matrix gives the row weights, site j's
    (scale-invariant) purity defect and the heavy row's column.  Bottom-up: a
    tensor factor of level j that leaves out site j is a factor of each of
    its rows, so every block of level j + 1 is a block of level j or a piece
    of site j's block; only the former has a pure marginal on level j.  A
    lone block is site j's complement, of the same defect.

    Level 0 tests its cuts on ``psi`` itself, which is never copied.  A cut
    with ``_BOUND_SIDE`` qubits or more on each side is first given to
    ``_cut_bounds``: it passes if the upper bound is within tol, and is
    rejected, not near, if the lower bound exceeds 10 tol, both with the
    rounding allowance; in between, and for a narrower cut, marginal purity
    decides it on ``psi`` at level 0, or on the normalized slice at j > 0.
    A block whose cut only a row decided is certified on ``psi``: if levels
    0..r-1 pass, one ``_product_overlap`` may decide the cuts of sites
    1..r-1 and the rest; any other passes on the upper bound or is tested by
    its marginal purity, and a defect above tol raises FactorizationError.
    """
    tol = _check_tol(tol)
    n = psi.n_qubits
    allowance = _ROUNDING_PER_QUBIT * n
    levels, view = [], psi.vec
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
            width, level, defects = n - j * bits, None if j else psi, []
            for block in found:
                keep, d = [q - j * bits for q in block], None
                if min(len(block), width - len(block)) >= _BOUND_SIDE:
                    low, high = _cut_bounds(view, keep)
                    if high + allowance <= tol:
                        d = high + allowance
                    elif low - allowance > 10.0 * tol:
                        d = low - allowance
                if d is None:
                    if level is None:
                        level = PureState(width, view / math.sqrt(total))
                    d = 1.0 - marginal_purity(level, keep)
                defects.append(d)
        near = near or tol < defect <= 10.0 * tol
        head, kept = site, []
        for block, d in zip(found, defects):
            near = near or tol < d <= 10.0 * tol
            if d > tol:
                head += block
            else:
                kept.append(block)
        found = [head] + kept
    # two blocks have one cut, which level 0 decided on psi itself
    if len(found) > 2:
        run = next((j for j, (_, _, defect, _) in enumerate(levels) if defect > tol), len(levels))
        undecided = found[1:] if run else found[:1]
        if run > 1:
            overlap = _product_overlap(psi.vec, [column for *_, column in levels[:run]], bits)
            if 1.0 - overlap**2 + allowance <= tol:
                certified = {*found[:run], tuple(range(run * bits, n))}
                undecided = [block for block in undecided if block not in certified]
        for block in undecided:
            if (min(len(block), n - len(block)) >= _BOUND_SIDE
                    and _cut_bounds(psi.vec, list(block))[1] + allowance <= tol):
                continue
            defect = 1.0 - marginal_purity(psi, block)
            if defect > tol:
                raise FactorizationError(
                    f"block {tuple(q // bits for q in block[::bits])} has purity defect "
                    f"{defect:.3e} > tol={tol:g} on the input; the tolerance is "
                    "numerically borderline for this state"
                )
    return tuple(sorted(tuple(sorted(q // bits for q in b[::bits])) for b in found)), near


def finest_factorization(
    psi: PureState, tol: float = DEFAULT_TOL
) -> tuple[tuple[int, ...], ...]:
    """Blocks of the finest tensor factorization, in canonical order."""
    return _factorize(psi, tol, 1)[0]


def minimal_pure_subset(psi: PureState, i: int, tol: float = DEFAULT_TOL) -> tuple[int, ...]:
    """The block of qubit ``i``: the smallest S containing i with a pure marginal."""
    (i,) = qubit_subset([i], psi.n_qubits)
    return next(b for b in finest_factorization(psi, tol) if i in b)


def entanglement_index(psi: PureState, tol: float = DEFAULT_TOL) -> int:
    """E = N - p for the finest factorization into p blocks."""
    return psi.n_qubits - len(finest_factorization(psi, tol))


def classify(psi: PureState, tol: float = DEFAULT_TOL) -> ClassReport:
    """Full classification: blocks, shape, index, and class label."""
    blocks, near = _factorize(psi, tol, 1)
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
    psi = PureState(2 * n, vec)
    del vec  # PureState holds a copy; the peel must not keep both
    return _factorize(psi, tol, 2)[0]
