"""Dense complex linear algebra for N-qubit pure states and density matrices.

Bit ordering convention used throughout the package: qubit 0 is the MOST
significant bit of a basis index, i.e. the basis state |b0 b1 ... b_{N-1}>
sits at index sum_i b_i * 2**(N-1-i).  This makes ``tensor(a, b)`` a plain
Kronecker product with ``a`` on the high bits.

All values are immutable after construction (arrays are frozen) and all
operations are pure functions, so everything here is safe to share across
threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_MAX_QUBITS = 14
# the highest qubit cap that may be configured (ENTDEX_MAX_QUBITS, verify --max-n)
MAX_QUBITS_CEILING = 20
# Full density matrices above this width would need gigabytes; marginals of
# bigger pure states are always taken directly from the amplitudes instead.
DENSITY_MAX_QUBITS = 12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains NaN or Inf entries")


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over ``n_qubits`` qubits (length 2**N)."""

    n_qubits: int
    vec: np.ndarray

    def __post_init__(self) -> None:
        n = self.n_qubits
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n_qubits must be a positive integer, got {n!r}")
        vec = np.array(self.vec, dtype=np.complex128, copy=True)
        if vec.shape != (2**n,):
            raise ValueError(
                f"amplitude vector must have shape (2**{n},), got {vec.shape}"
            )
        _require_finite(vec, "amplitude vector")
        nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > DEFAULT_TOL:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
        object.__setattr__(self, "n_qubits", int(n))
        object.__setattr__(self, "vec", _freeze(vec))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian trace-1 operator on ``n_qubits`` qubits."""

    n_qubits: int
    mat: np.ndarray

    def __post_init__(self) -> None:
        n = self.n_qubits
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n_qubits must be a positive integer, got {n!r}")
        if n > DENSITY_MAX_QUBITS:
            raise ValueError(
                f"refusing to materialize a {n}-qubit density matrix "
                f"(limit {DENSITY_MAX_QUBITS})"
            )
        d = 2**n
        mat = np.array(self.mat, dtype=np.complex128, copy=True)
        if mat.shape != (d, d):
            raise ValueError(f"entries must have shape ({d}, {d}), got {mat.shape}")
        _require_finite(mat, "density matrix")
        if np.max(np.abs(mat - mat.conj().T)) > DEFAULT_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > DEFAULT_TOL:
            raise ValueError(f"trace must be 1, got {tr:.12g}")
        pur = float(np.vdot(mat, mat).real)
        if not (1.0 / d - DEFAULT_TOL <= pur <= 1.0 + DEFAULT_TOL):
            raise ValueError(f"purity {pur:.12g} outside [1/{d}, 1]")
        object.__setattr__(self, "n_qubits", int(n))
        object.__setattr__(self, "mat", _freeze(mat))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True)
class LocalUnitary:
    """One 2x2 unitary per qubit, applied as U_0 (x) U_1 (x) ... (x) U_{N-1}."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        frozen = []
        for j, m in enumerate(self.matrices):
            m = np.array(m, dtype=np.complex128, copy=True)
            if m.shape != (2, 2):
                raise ValueError(f"matrix {j} must be 2x2, got shape {m.shape}")
            _require_finite(m, f"matrix {j}")
            defect = np.max(np.abs(m.conj().T @ m - np.eye(2)))
            if defect > DEFAULT_TOL:
                raise ValueError(f"matrix {j} is not unitary (defect {defect:.3e})")
            frozen.append(_freeze(m))
        object.__setattr__(self, "matrices", tuple(frozen))

    @property
    def n_qubits(self) -> int:
        return len(self.matrices)


def pure_state(amplitudes: Sequence[complex] | np.ndarray) -> PureState:
    """Build a PureState from a flat amplitude sequence of length 2**N."""
    vec = np.asarray(amplitudes, dtype=np.complex128)
    if vec.ndim != 1:
        raise ValueError(f"amplitudes must be one-dimensional, got shape {vec.shape}")
    n = int(vec.size).bit_length() - 1
    if vec.size != 2**n or vec.size < 2:
        raise ValueError(f"amplitude count {vec.size} is not a power of two >= 2")
    return PureState(n, vec)


def density_matrix(entries: Sequence[Sequence[complex]] | np.ndarray) -> DensityMatrix:
    """Build a DensityMatrix from a square entry grid of size 2**N."""
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"entries must form a square matrix, got shape {mat.shape}")
    n = int(mat.shape[0]).bit_length() - 1
    if mat.shape[0] != 2**n or mat.shape[0] < 2:
        raise ValueError(f"matrix side {mat.shape[0]} is not a power of two >= 2")
    return DensityMatrix(n, mat)


def qubit_subset(members: Iterable[int], n_qubits: int) -> tuple[int, ...]:
    """Canonicalize a set of qubit indices: sorted, duplicate-free, in range."""
    subset = tuple(sorted(int(q) for q in members))
    if len(set(subset)) != len(subset):
        raise ValueError(f"duplicate qubit indices in {subset}")
    if subset and (subset[0] < 0 or subset[-1] >= n_qubits):
        raise ValueError(f"qubit indices {subset} out of range for {n_qubits} qubits")
    return subset


def tensor(a: PureState, b: PureState, max_qubits: int = DEFAULT_MAX_QUBITS) -> PureState:
    """Tensor product with ``a`` on the more significant qubit positions."""
    n = a.n_qubits + b.n_qubits
    if n > max_qubits:
        raise ValueError(f"tensor product has {n} qubits, exceeding the cap of {max_qubits}")
    return PureState(n, np.kron(a.vec, b.vec))


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 density matrix of a pure state."""
    if psi.n_qubits > DENSITY_MAX_QUBITS:
        raise ValueError(
            f"refusing to materialize the full density matrix of a "
            f"{psi.n_qubits}-qubit state (limit {DENSITY_MAX_QUBITS})"
        )
    return DensityMatrix(psi.n_qubits, np.outer(psi.vec, psi.vec.conj()))


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on ``keep``.

    The kept qubits appear in increasing original index order; the traced-out
    qubits are summed away.  Trace and Hermiticity are preserved.
    """
    n = rho.n_qubits
    kept = qubit_subset(keep, n)
    if not kept:
        raise ValueError("keep-set must be nonempty")
    traced = [q for q in range(n) if q not in kept]
    t = rho.mat.reshape([2] * (2 * n))
    axes = (
        list(kept)
        + [n + q for q in kept]
        + traced
        + [n + q for q in traced]
    )
    k, r = len(kept), len(traced)
    block = t.transpose(axes).reshape(2**k, 2**k, 2**r, 2**r)
    return DensityMatrix(k, np.einsum("ijtt->ij", block))


def _split_matrix(psi: PureState, subset: Sequence[int]) -> np.ndarray:
    """Amplitudes reshaped to (2**|subset|, 2**rest) with subset axes leading."""
    n = psi.n_qubits
    rest = [q for q in range(n) if q not in subset]
    t = psi.vec.reshape([2] * n)
    return t.transpose(list(subset) + rest).reshape(2 ** len(subset), -1)


def reduced_density(psi: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Marginal of a pure state, contracted directly from the amplitudes.

    Avoids materializing the full 2**N x 2**N density matrix, so it works for
    any state within the qubit cap as long as the kept subset is small enough.
    """
    kept = qubit_subset(keep, psi.n_qubits)
    if not kept:
        raise ValueError("keep-set must be nonempty")
    m = _split_matrix(psi, kept)
    return DensityMatrix(len(kept), m @ m.conj().T)


def purity(rho: DensityMatrix) -> float:
    """trace(rho^2), computed as the squared Frobenius norm of the entries."""
    return float(np.vdot(rho.mat, rho.mat).real)


def marginal_purity(psi: PureState, keep: Iterable[int]) -> float:
    """Purity of the marginal of a pure state on ``keep``.

    Complementary marginals of a pure state share their spectrum, so the
    contraction always runs on the smaller side of the cut.
    """
    n = psi.n_qubits
    kept = qubit_subset(keep, n)
    if not kept:
        raise ValueError("keep-set must be nonempty")
    other = [q for q in range(n) if q not in kept]
    if not other:
        nrm2 = float(np.vdot(psi.vec, psi.vec).real)
        return nrm2 * nrm2
    side = kept if len(kept) <= len(other) else tuple(other)
    m = _split_matrix(psi, side)
    g = m @ m.conj().T
    return float(np.vdot(g, g).real)


def frobenius_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Elementwise L2 distance between two operators of equal dimension."""
    if rho.n_qubits != sigma.n_qubits:
        raise ValueError(
            f"dimension mismatch: {rho.n_qubits} vs {sigma.n_qubits} qubits"
        )
    return float(np.linalg.norm(rho.mat - sigma.mat))


def apply_local_unitary(psi: PureState, u: LocalUnitary) -> PureState:
    """Apply one single-qubit unitary per qubit; preserves the norm."""
    n = psi.n_qubits
    if u.n_qubits != n:
        raise ValueError(f"expected {n} per-qubit matrices, got {u.n_qubits}")
    t = psi.vec.reshape([2] * n)
    for q, m in enumerate(u.matrices):
        t = np.moveaxis(np.tensordot(m, t, axes=([1], [q])), 0, q)
    return PureState(n, t.reshape(-1))


def permute_qubits(psi: PureState, perm: Sequence[int]) -> PureState:
    """Relocate qubit ``i`` to position ``perm[i]`` for every i."""
    n = psi.n_qubits
    p = [int(x) for x in perm]
    if sorted(p) != list(range(n)):
        raise ValueError(f"perm {perm!r} is not a bijection on [0, {n})")
    # output axis perm[i] must be fed by input axis i
    inv = np.argsort(p)
    t = psi.vec.reshape([2] * n)
    return PureState(n, t.transpose(inv).reshape(-1))
