"""Reference factorizations by exhaustive subset scan, kept as test oracles.

Pure states: for each qubit i, the smallest subset containing i whose
marginal is pure within tol is i's block.  Density matrices: the same, with
the purity of a marginal of vec(rho) read from the singular values sigma of
rho realigned across the cut S | rest, Sum sigma^4 / (Sum sigma^2)^2, so
that no library kernel is involved.  Both visit up to 2**N subsets, so they
are only usable for small N; the library uses the Schmidt peel instead.
"""
from functools import partial
from itertools import combinations

import numpy as np

from entdex.classify import FactorizationError
from entdex.partitions import canonical_set_partition
from entdex.states import marginal_purity


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


def _realigned_purity(rho, subset):
    """Purity of vec(rho)'s marginal on the row and column bits of ``subset``."""
    n, k = rho.n_qubits, len(subset)
    comp = [q for q in range(n) if q not in subset]
    # row (i, i') of m is the subset's entry (i, i'), column (j, j') the rest's
    axes = list(subset) + [n + q for q in subset] + comp + [n + q for q in comp]
    m = rho.mat.reshape([2] * (2 * n)).transpose(axes).reshape(4**k, 4 ** (n - k))
    s2 = np.linalg.svd(m, compute_uv=False) ** 2
    return float(np.sum(s2**2) / np.sum(s2) ** 2)


def scan_mixed_split(rho, tol):
    """Product blocks of a density matrix, by subset scan per qubit."""
    n = rho.n_qubits
    pur = partial(_realigned_purity, rho)
    return validate_blocks(n, [scan_minimal_block(n, i, tol, pur)[0] for i in range(n)])
