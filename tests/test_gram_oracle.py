"""The pure peel's dot products of two halves agree with the Gram products they replaced."""
import math

import numpy as np
import pytest

from entdex.classify import _levels, _product_overlap
from entdex.construct import basis_state, ghz, ghz_product
from entdex.partitions import enumerate_partitions
from entdex.states import pure_state
from gram_oracle import gram_level, gram_product_overlap

# agreement in units of 2**-52: of the level's total for weights and
# columns, absolute for the defect and for each contraction of the overlap
ULPS = 8 * 2.0**-52


def heavy_rows(levels):
    """The row k each level but the last followed: where level j + 1 sits in level j."""
    return [
        (nxt.ctypes.data - view.ctypes.data) // nxt.nbytes
        for (view, *_), (nxt, *_) in zip(levels, levels[1:])
    ]


def assert_agrees(psi):
    """Every level's total, defect, column and row, and the product-overlap
    chain of every leading run of levels with their columns, against the
    Gram-product forms.  A level whose reference weights lie within the
    bound of each other is a rounding tie, on which either row is right; the
    column must then be that row's."""
    levels = _levels(psi)
    assert len(levels) == psi.n_qubits - 1
    followed, columns = [], []
    for (view, total, defect, column), k in zip(levels, heavy_rows(levels) + [None]):
        weights, ref_total, ref_defect, gram, ref_k = gram_level(view)
        bound = ULPS * ref_total
        assert abs(total - ref_total) <= bound
        assert abs(defect - ref_defect) <= ULPS
        rows_allowed = [0, 1] if abs(weights[0] - weights[1]) <= bound else [ref_k]
        if k is None:  # the last level leads nowhere; its column names its row
            k = min(rows_allowed, key=lambda i: np.abs(np.array(column) - gram[:, i]).max())
        assert k in rows_allowed
        assert np.abs(np.array(column) - gram[:, k]).max() <= bound
        followed.append(k)
        columns.append(gram[:, k])
    for run in range(1, len(levels) + 1):  # each contraction rounds once more
        covectors = [np.conj(column) for *_, column in levels[:run]]
        steps = _product_overlap(psi.vec, [[q] for q in range(run)], covectors, levels[0][1], math.inf)
        (*_, (kept, got)) = steps
        assert kept
        assert abs(got - gram_product_overlap(psi.vec, columns[:run])) <= run * ULPS
    return followed


@pytest.mark.parametrize("n", range(1, 15))
def test_random_vectors_agree(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(3):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        assert_agrees(pure_state(v / np.linalg.norm(v)))


@pytest.mark.parametrize("n", range(1, 11))
def test_dressed_products_agree(n):
    # a dressed GHZ block's first qubit is maximally mixed: its rows tie
    # in exact arithmetic, and rounding picks the heavier one
    rng = np.random.default_rng(600 + n)
    for shape in enumerate_partitions(n):
        perm = [int(x) for x in rng.permutation(n)]
        assert_agrees(ghz_product(shape, perm=perm, lu_seed=int(rng.integers(2**32))).state)


@pytest.mark.parametrize("n", range(1, 15))
def test_exact_ties_follow_row_zero(n):
    # plain GHZ_N ties at level 0, and a |+> product at every level; both
    # forms compute those weights exactly, so both follow row 0
    plus = pure_state(np.full(2**n, 2.0 ** (-n / 2)))
    for psi in (ghz(n), plus):
        assert [gram_level(view)[4] for view, *_ in _levels(psi)] == [0] * (n - 1)
        assert assert_agrees(psi) == [0] * (n - 1)


@pytest.mark.parametrize("n", range(1, 15))
def test_basis_products_agree(n):
    rng = np.random.default_rng(700 + n)
    for _ in range(3):
        bits = [int(b) for b in rng.integers(0, 2, n)]
        assert assert_agrees(basis_state(bits)) == bits[: n - 1]
