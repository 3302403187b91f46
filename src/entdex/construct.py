"""Representative states: GHZ blocks, basis products, and dressed block products.

The canonical representative of a width-n fully entangled block is the GHZ
state (|0...0> + |1...1>)/sqrt(2); width 1 is the unentangled |0>.  Dressing
with per-qubit Haar unitaries and qubit permutations produces other members
of the same class without changing the block structure.

``ghz_product`` writes a block product straight into one zeroed vector: a
product of GHZ blocks is nonzero only where each wide block reads all zeros
or all ones, so it writes those 2**k amplitudes, k the number of blocks
wider than one qubit, at the positions the layout and permutation give.
Each equals 1.0 multiplied by 1/sqrt(2) k times, as every nonzero entry of
the Kronecker product of the blocks does (a width-1 block contributes an
exact 1.0), and every imaginary part and every other entry is +0.0 in both,
so the amplitudes keep the bits of the product built block by block.
"""
from __future__ import annotations

import cmath
import math
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .partitions import as_partition, canonical_set_partition, shape_of
from .states import (
    DEFAULT_MAX_QUBITS,
    LocalUnitary,
    PureState,
    _fresh_state,
    apply_local_unitary,
    integer,
    qubit_permutation,
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
    return _fresh_state(n, vec)


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
    return _fresh_state(len(bits), vec)


def _one_qubit_entries(u: float, phi_frac: float, lam_frac: float) -> list[list[complex]]:
    # theta = 2*arccos(sqrt(u)) gives Haar-distributed rotation angles;
    # u = 0 lands on theta = pi with no singularity.
    theta = 2.0 * math.acos(math.sqrt(u))
    phi = 2.0 * math.pi * phi_frac
    lam = 2.0 * math.pi * lam_frac
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return [
        [c, -cmath.exp(1j * lam) * s],
        [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
    ]


def _one_qubit_unitary(u: float, phi_frac: float, lam_frac: float) -> np.ndarray:
    return np.array(_one_qubit_entries(u, phi_frac, lam_frac), dtype=np.complex128)


def random_local_unitary(n: int, seed: int | np.random.Generator) -> LocalUnitary:
    """n independent Haar-random single-qubit unitaries from a seeded generator.

    The same integer seed always yields the same matrices.  Passing a
    Generator draws from it in place (three uniforms per qubit, in qubit
    order), which callers use to derive dressings from one master stream.
    One ``rng.random((n, 3))`` draw gives the uniforms of n draws of three,
    so a seed keeps its matrices and dressed state files keep their bytes.
    A seed that is not a Generator follows the integer rule and must be
    non-negative.
    """
    n = integer(n, 1, "qubit count must be a positive integer, got {!r}")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng(integer(seed, 0, "seed must be a non-negative integer, got {!r}"))
    entries = [_one_qubit_entries(*row) for row in rng.random((n, 3)).tolist()]
    return LocalUnitary(tuple(np.array(entries, dtype=np.complex128)))


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

    The undressed state is one ``np.zeros(2**N)`` with its 2**k nonzero
    amplitudes written in place (see the module docstring), so no
    intermediate product is ever built, and pages of it that are never
    written are never resident.
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

    if perm is not None:
        p = qubit_permutation(perm, n)
        blocks = [tuple(p[q] for q in block) for block in blocks]

    blocks_canon = canonical_set_partition(blocks, n_qubits=n)

    # each wide block doubles the nonzero entries: all its qubits 0, or all 1
    vec = np.zeros(2**n, dtype=np.complex128)
    value, nonzero = 1.0, [0]
    for block in blocks:
        if len(block) > 1:
            value *= _INV_SQRT2
            ones = sum(1 << (n - 1 - q) for q in block)
            nonzero += [i | ones for i in nonzero]
    vec[nonzero] = value
    psi = _fresh_state(n, vec)

    if lu_seed is not None:
        psi = apply_local_unitary(psi, random_local_unitary(n, lu_seed))

    return GhzProduct(psi, blocks_canon)
