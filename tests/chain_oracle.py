"""The block-by-block construction of a GHZ product, kept as a test oracle.

The library writes the nonzero amplitudes of the undressed product into one
zeroed vector; this body builds one GHZ state per block, folds them with
``tensor``, moves the qubits with ``permute_qubits`` and only then dresses
the result.  Both must give the same bits, the same blocks, the same draws
from a Generator and the same error for every bad input.
"""
from functools import partial, reduce
from itertools import accumulate

from entdex.construct import GhzProduct, ghz, random_local_unitary
from entdex.partitions import as_partition, canonical_set_partition, shape_of
from entdex.states import DEFAULT_MAX_QUBITS, apply_local_unitary, permute_qubits, tensor


def chain_ghz_product(shape, assignment=None, perm=None, lu_seed=None, max_qubits=DEFAULT_MAX_QUBITS):
    """``ghz_product`` as a left fold of per-block GHZ states."""
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
