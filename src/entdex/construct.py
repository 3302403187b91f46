"""Representative states: GHZ blocks, basis products, and dressed block products.

The canonical representative of a width-n fully entangled block is the GHZ
state (|0...0> + |1...1>)/sqrt(2); width 1 is the unentangled |0>.  Dressing
with per-qubit Haar unitaries and qubit permutations produces other members
of the same class without changing the block structure.
"""
from __future__ import annotations

import cmath
import math
from functools import partial, reduce
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .partitions import as_partition, canonical_set_partition, shape_of
from .states import (
    DEFAULT_MAX_QUBITS,
    LocalUnitary,
    PureState,
    apply_local_unitary,
    integer,
    permute_qubits,
    tensor,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class GhzProduct(NamedTuple):
    """A constructed product state plus its ground-truth block structure."""

    state: PureState
    blocks: tuple[tuple[int, ...], ...]


def ghz(n: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> PureState:
    """GHZ state on n qubits; n=1 is the plain |0> (nothing to entangle)."""
    n = integer(n, 1, "block width must be a positive integer, got {!r}")
    if n > max_qubits:
        raise ValueError(f"block width {n} exceeds the cap of {max_qubits}")
    vec = np.zeros(2**n, dtype=np.complex128)
    if n == 1:
        vec[0] = 1.0
    else:
        vec[0] = _INV_SQRT2
        vec[-1] = _INV_SQRT2
    return PureState(n, vec)


def basis_state(bits: Sequence[int]) -> PureState:
    """Computational basis state |b0 b1 ... b_{N-1}> (qubit 0 most significant)."""
    if len(bits) < 1:
        raise ValueError("bits must be nonempty")
    index = 0
    for b in bits:
        bit = integer(b, 0, "bits must be 0 or 1, got {!r}")
        if bit > 1:
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        index = (index << 1) | bit
    vec = np.zeros(2 ** len(bits), dtype=np.complex128)
    vec[index] = 1.0
    return PureState(len(bits), vec)


def _one_qubit_unitary(u: float, phi_frac: float, lam_frac: float) -> np.ndarray:
    # theta = 2*arccos(sqrt(u)) gives Haar-distributed rotation angles;
    # u = 0 lands on theta = pi with no singularity.
    theta = 2.0 * math.acos(math.sqrt(u))
    phi = 2.0 * math.pi * phi_frac
    lam = 2.0 * math.pi * lam_frac
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


def random_local_unitary(n: int, seed: int | np.random.Generator) -> LocalUnitary:
    """n independent Haar-random single-qubit unitaries from a seeded generator.

    The same integer seed always yields the same matrices.  Passing a
    Generator draws from it in place (three uniforms per qubit, in qubit
    order), which callers use to derive dressings from one master stream.
    One ``rng.random((n, 3))`` draw gives the uniforms of n draws of three,
    so a seed keeps its matrices and dressed state files keep their bytes.
    """
    n = integer(n, 1, "qubit count must be a positive integer, got {!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return LocalUnitary(tuple(_one_qubit_unitary(*row) for row in rng.random((n, 3)).tolist()))


def ghz_product(
    shape: Iterable[int],
    assignment: Iterable[Iterable[int]] | None = None,
    perm: Sequence[int] | None = None,
    lu_seed: int | np.random.Generator | None = None,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> GhzProduct:
    """Tensor product of GHZ blocks with optional permutation and LU dressing.

    Parameters
    ----------
    shape:
        Integer partition (n1 >= n2 >= ... >= 1) giving the block widths.
    assignment:
        Optional qubit blocks realizing the shape (default: contiguous blocks
        in shape order).  Must partition [0, N) with block sizes matching
        ``shape``.
    perm:
        Optional qubit permutation applied after layout (qubit i moves to
        position perm[i]); the returned blocks reflect it.
    lu_seed:
        Optional seed (or Generator) for a per-qubit Haar dressing applied
        last; dressing never changes the block structure.

    Returns the state together with the ground-truth blocks, canonically
    ordered, so classifiers can be checked against the construction.
    """
    parts = as_partition(shape)
    n = sum(parts)
    if n > max_qubits:
        raise ValueError(f"total width {n} exceeds the cap of {max_qubits}")

    if assignment is None:
        blocks = [tuple(range(end - w, end)) for w, end in zip(parts, accumulate(parts))]
    else:
        blocks = list(canonical_set_partition(assignment, n_qubits=n))
        if shape_of(blocks) != parts:
            raise ValueError(f"assignment blocks have shape {shape_of(blocks)}, expected {parts}")

    pieces = [ghz(len(block), max_qubits=max_qubits) for block in blocks]
    psi = reduce(partial(tensor, max_qubits=max_qubits), pieces)

    # move the contiguously laid-out qubits onto their assigned positions
    positions = [q for block in blocks for q in block]
    if positions != list(range(n)):
        psi = permute_qubits(psi, positions)

    if perm is not None:
        psi = permute_qubits(psi, perm)
        blocks = [tuple(perm[q] for q in block) for block in blocks]

    blocks_canon = canonical_set_partition(blocks, n_qubits=n)

    if lu_seed is not None:
        psi = apply_local_unitary(psi, random_local_unitary(n, lu_seed))

    return GhzProduct(psi, blocks_canon)
