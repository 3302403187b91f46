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

import math
import operator
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


def _density_side(n: int) -> int:
    if n > DENSITY_MAX_QUBITS:
        raise ValueError(
            f"refusing to materialize a {n}-qubit density matrix (limit {DENSITY_MAX_QUBITS})"
        )
    return 2**n


def _unitary_defect(m: np.ndarray) -> np.ndarray:  # of one 2x2 matrix, or of each in a stack
    with np.errstate(over="ignore", invalid="ignore"):  # huge finite entries read inf or nan
        return np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(2)).max(axis=(-2, -1))


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over ``n_qubits`` qubits (length 2**N)."""

    n_qubits: int
    vec: np.ndarray

    def __post_init__(self) -> None:
        n = integer(self.n_qubits, 1, "n_qubits must be a positive integer, got {!r}")
        vec = np.array(self.vec, dtype=np.complex128, copy=True)
        if vec.shape != (2**n,):
            raise ValueError(f"amplitude vector must have shape (2**{n},), got {vec.shape}")
        # as one real vector an overflow reads inf, not NaN; scan only a non-finite norm
        nrm = math.sqrt(np.vdot(vec.view(np.float64), vec.view(np.float64)))
        if not (math.isfinite(nrm) or np.isfinite(vec).all()):
            raise ValueError("amplitude vector contains NaN or Inf entries")
        if abs(nrm - 1.0) > DEFAULT_TOL:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
        object.__setattr__(self, "n_qubits", n)
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
        n = integer(self.n_qubits, 1, "n_qubits must be a positive integer, got {!r}")
        d = _density_side(n)
        mat = np.array(self.mat, dtype=np.complex128, copy=True)
        if mat.shape != (d, d):
            raise ValueError(f"entries must have shape ({d}, {d}), got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix contains NaN or Inf entries")
        # slabs of d/8 rows keep the temporaries near a fifth of the matrix
        step = max(1, d // 8)
        for i in range(0, d, step):
            slab = mat[:, i : i + step].conj().T
            slab -= mat[i : i + step]
            if np.max(np.abs(slab)) > DEFAULT_TOL:
                raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > DEFAULT_TOL:
            raise ValueError(f"trace must be 1, got {tr:.12g}")
        pur = float(np.vdot(mat, mat).real)
        if not (1.0 / d - DEFAULT_TOL <= pur <= 1.0 + DEFAULT_TOL):
            raise ValueError(f"purity {pur:.12g} outside [1/{d}, 1]")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "mat", _freeze(mat))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True)
class LocalUnitary:
    """One 2x2 unitary per qubit, applied as U_0 (x) U_1 (x) ... (x) U_{N-1}."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        # one batched check; a failing stack is walked in index order to name its failure
        try:
            stack = np.array(self.matrices, dtype=np.complex128)
        except (TypeError, ValueError):  # ragged, or an entry that is not a number
            stack = np.empty(0)
        if not (stack.shape == (len(self.matrices), 2, 2) and np.isfinite(stack).all()
                and (_unitary_defect(stack) <= DEFAULT_TOL).all()):
            for j, m in enumerate(self.matrices):
                m = np.asarray(m, dtype=np.complex128)
                if m.shape != (2, 2):
                    raise ValueError(f"matrix {j} must be 2x2, got shape {m.shape}")
                if not np.isfinite(m).all():
                    raise ValueError(f"matrix {j} contains NaN or Inf entries")
                defect = _unitary_defect(m)
                if not defect <= DEFAULT_TOL:
                    raise ValueError(f"matrix {j} is not unitary (defect {defect:.3e})")
        object.__setattr__(self, "matrices", tuple(_freeze(stack)))

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


def integer(value: object, low: float, message: str) -> int:
    """``value`` through ``operator.index``, unless it is a bool or below ``low``:
    then, or for a non-integer, ``ValueError(message.format(value))``.  The one
    integer rule: a count, width, part, bit, index or seed of 2.9 is refused, never truncated."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool) or n < low:
        raise ValueError(message.format(value))
    return n


def qubit_index(q: object) -> int:
    """``q`` under the integer rule; its range is the caller's to check."""
    return integer(q, -math.inf, "qubit index {!r} is not an integer")


def qubit_subset(members: Iterable[int], n_qubits: int) -> tuple[int, ...]:
    """Canonicalize a set of qubit indices: nonempty, sorted, duplicate-free, in range."""
    subset = tuple(sorted(map(qubit_index, members)))
    if not subset:
        raise ValueError("keep-set must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError(f"duplicate qubit indices in {subset}")
    if subset[0] < 0 or subset[-1] >= n_qubits:
        raise ValueError(f"qubit indices {subset} out of range for {n_qubits} qubits")
    return subset


def tensor(a: PureState, b: PureState, max_qubits: int = DEFAULT_MAX_QUBITS) -> PureState:
    """Tensor product with ``a`` on the more significant qubit positions."""
    n = a.n_qubits + b.n_qubits
    if n > max_qubits:
        raise ValueError(f"tensor product has {n} qubits, exceeding the cap of {max_qubits}")
    return PureState(n, np.multiply.outer(a.vec, b.vec).reshape(-1))


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 density matrix over the squared norm: trace 1 at any norm PureState accepts."""
    _density_side(psi.n_qubits)  # before np.outer allocates
    v = psi.vec
    return DensityMatrix(psi.n_qubits, np.outer(v, v.conj() / np.vdot(v, v).real))


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on ``keep``.

    The kept qubits appear in increasing original index order; the traced-out
    qubits are summed away.  Trace and Hermiticity are preserved.
    """
    n = rho.n_qubits
    kept = qubit_subset(keep, n)
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


def purity(rho: DensityMatrix) -> float:
    """trace(rho^2), computed as the squared Frobenius norm of the entries."""
    return float(np.vdot(rho.mat, rho.mat).real)


def marginal_purity(psi: PureState, keep: Iterable[int]) -> float:
    """Purity of the normalized marginal of a pure state on ``keep``.

    Complementary marginals of a pure state share their spectrum, so the
    contraction always runs on the smaller side of the cut.  Dividing by the
    squared trace makes a norm within tolerance of 1 read as exactly 1.
    """
    n = psi.n_qubits
    kept = qubit_subset(keep, n)
    other = [q for q in range(n) if q not in kept]
    side, rest = (kept, other) if len(kept) <= len(other) else (other, kept)
    m = psi.vec.reshape([2] * n).transpose(*side, *rest).reshape(2 ** len(side), -1)
    g = m @ m.conj().T
    return float(np.vdot(g, g).real) / sum(g.diagonal().real.tolist()) ** 2


def apply_local_unitary(psi: PureState, u: LocalUnitary) -> PureState:
    """Apply one single-qubit unitary per qubit; preserves the norm.

    Qubit q's step is one gemm on the operand ``np.tensordot`` builds: rows
    qubit q, columns the other qubits in their original order.  Any other
    operand changes the last bits of the amplitudes, and so the bytes of
    state files written from a seed.
    """
    n = psi.n_qubits
    if u.n_qubits != n:
        raise ValueError(f"expected {n} per-qubit matrices, got {u.n_qubits}")
    t = psi.vec.reshape(2, -1)
    for q, m in enumerate(u.matrices):
        if q:  # rows from qubit q - 1 to qubit q, with q - 1 back in its column place
            t = t.reshape(2, 2 ** (q - 1), 2, -1).transpose(2, 1, 0, 3).reshape(2, -1)
        t = np.dot(m, t)
    return PureState(n, t.T.reshape(-1))


def permute_qubits(psi: PureState, perm: Sequence[int]) -> PureState:
    """Relocate qubit ``i`` to position ``perm[i]`` for every i."""
    n = psi.n_qubits
    p = [qubit_index(x) for x in perm]
    if sorted(p) != list(range(n)):
        raise ValueError(f"perm {perm!r} is not a bijection on [0, {n})")
    # output axis perm[i] must be fed by input axis i
    inv = np.argsort(p)
    t = psi.vec.reshape([2] * n)
    return PureState(n, t.transpose(inv).reshape(-1))
