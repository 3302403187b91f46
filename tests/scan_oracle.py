"""Reference factorizations by exhaustive subset scan, kept as test oracles.

Pure states: for each qubit i, the smallest subset containing i whose
marginal is pure within tol is i's block.  Density matrices: split across the
first bipartition, smallest subsets first, whose product of marginals is
within tol of the input in Frobenius distance, and recurse on both sides.
Both visit up to 2**N subsets, so they are only usable for small N; the
library uses the Schmidt peel instead.
"""
from itertools import combinations

import numpy as np

from entdex.classify import FactorizationError
from entdex.partitions import canonical_set_partition
from entdex.states import marginal_purity, partial_trace


def scan_minimal_block(n, i, tol, pur):
    """Smallest subset containing i whose marginal is pure within tol.

    Subsets are visited by increasing size, then lexicographically; the scan
    always terminates because the full set is pure.  Also reports whether any
    rejected subset was within 10*tol of acceptance (near-threshold input).
    """
    others = [q for q in range(n) if q != i]
    near = False
    for size in range(1, n + 1):
        for combo in combinations(others, size - 1):
            subset = tuple(sorted((i,) + combo))
            defect = 1.0 - pur(subset)
            if defect <= tol:
                return subset, near
            if defect <= 10.0 * tol:
                near = True
    raise AssertionError("unreachable: the full qubit set is always pure")


def validate_blocks(n, blocks):
    """Deduplicate per-qubit blocks and require a genuine partition of [0, N)."""
    unique = []
    for b in blocks:
        if b not in unique:
            unique.append(b)
    for a, b in combinations(unique, 2):
        if set(a) & set(b):
            raise FactorizationError(
                f"minimal subsets {a} and {b} overlap without being equal; "
                "the tolerance is numerically borderline for this state"
            )
    covered = sorted(q for b in unique for q in b)
    if covered != list(range(n)):
        raise FactorizationError(f"minimal subsets {unique} do not cover all {n} qubits")
    return canonical_set_partition(unique, n_qubits=n)


def scan_factorize(psi, tol):
    """(blocks, near-threshold flag) of the finest factorization, by scan."""
    n = psi.n_qubits
    cache = {}

    def pur(subset):
        got = cache.get(subset)
        if got is None:
            got = cache[subset] = marginal_purity(psi, subset)
        return got

    near = False
    found = []
    for i in range(n):
        block, block_near = scan_minimal_block(n, i, tol, pur)
        near = near or block_near
        found.append(block)
    return validate_blocks(n, found), near


def _split_mixed(rho, labels, tol):
    n = rho.n_qubits
    if n == 1:
        return [labels]
    for size in range(1, n):
        for local in combinations(range(n), size):
            comp = tuple(q for q in range(n) if q not in local)
            part_a = partial_trace(rho, local)
            part_b = partial_trace(rho, comp)
            product = np.kron(part_a.mat, part_b.mat)
            axes = list(local) + list(comp)
            axes += [n + q for q in axes]
            target = rho.mat.reshape([2] * (2 * n)).transpose(axes).reshape(2**n, 2**n)
            if float(np.linalg.norm(target - product)) <= tol:
                return _split_mixed(
                    part_a, tuple(labels[q] for q in local), tol
                ) + _split_mixed(part_b, tuple(labels[q] for q in comp), tol)
    return [labels]


def scan_mixed_split(rho, tol):
    """Product blocks of a density matrix, by recursive subset scan."""
    blocks = _split_mixed(rho, tuple(range(rho.n_qubits)), tol)
    return canonical_set_partition(blocks, n_qubits=rho.n_qubits)
