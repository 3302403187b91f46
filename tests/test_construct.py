"""Tests for representative-state construction and dressing."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from entdex.construct import (
    _one_qubit_entries,
    basis_state,
    ghz,
    ghz_product,
    random_local_unitary,
)
from entdex.partitions import enumerate_partitions
from entdex.states import marginal_purity

from chain_oracle import chain_ghz_product, ghz_piece

S2 = 1.0 / math.sqrt(2.0)


class TestGhz:
    def test_pair(self):
        np.testing.assert_allclose(ghz(2).vec, [S2, 0, 0, S2])

    def test_width_one_is_zero_ket(self):
        np.testing.assert_allclose(ghz(1).vec, [1, 0])

    def test_three(self):
        vec = ghz(3).vec
        assert abs(vec[0] - S2) < 1e-15 and abs(vec[7] - S2) < 1e-15
        assert np.all(vec[1:7] == 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_marginals_half_pure(self, n):
        psi = ghz(n)
        for size in range(1, n):
            for subset in itertools.combinations(range(n), size):
                assert abs(marginal_purity(psi, subset) - 0.5) < 1e-9

    @pytest.mark.parametrize("n", range(1, 21))
    def test_bytes_match_the_written_piece(self, n):
        assert ghz(n, max_qubits=20).vec.tobytes() == ghz_piece(n).vec.tobytes()

    def test_errors(self):
        for n, message in [
            (0, "block width must be a positive integer, got 0"),
            (True, "block width must be a positive integer, got True"),
            (2.5, "block width must be a positive integer, got 2.5"),
            (15, "block width 15 exceeds the cap of 14"),
        ]:
            with pytest.raises(ValueError) as info:
                ghz(n)
            assert type(info.value) is ValueError and str(info.value) == message


class TestBasisState:
    def test_zero_zero(self):
        np.testing.assert_allclose(basis_state([0, 0]).vec, [1, 0, 0, 0])

    def test_one(self):
        np.testing.assert_allclose(basis_state([1]).vec, [0, 1])

    def test_big_endian(self):
        np.testing.assert_allclose(basis_state([1, 0]).vec, [0, 0, 1, 0])

    def test_errors(self):
        with pytest.raises(ValueError):
            basis_state([])
        with pytest.raises(ValueError):
            basis_state([0, 2])


class TestGhzProduct:
    def test_bell_times_zero(self):
        state, blocks = ghz_product([2, 1])
        np.testing.assert_allclose(state.vec, [S2, 0, 0, 0, 0, 0, S2, 0], atol=1e-15)
        assert blocks == ((0, 1), (2,))

    def test_fully_separable(self):
        state, blocks = ghz_product([1, 1, 1])
        np.testing.assert_allclose(state.vec, [1, 0, 0, 0, 0, 0, 0, 0])
        assert blocks == ((0,), (1,), (2,))

    def test_dressed_block_remains_fully_entangled(self):
        state, _ = ghz_product([3], lu_seed=42)
        for size in (1, 2):
            for subset in itertools.combinations(range(3), size):
                assert marginal_purity(state, subset) <= 0.5 + 1e-9

    def test_permutation_moves_blocks(self):
        state, blocks = ghz_product([2, 1], perm=(0, 2, 1))
        assert blocks == ((0, 2), (1,))
        # Bell now straddles qubits {0,2}: |000> and |101> carry the weight
        np.testing.assert_allclose(state.vec, [S2, 0, 0, 0, 0, S2, 0, 0], atol=1e-15)

    def test_assignment_layout(self):
        state, blocks = ghz_product([2, 2], assignment=[(1, 3), (0, 2)])
        assert blocks == ((0, 2), (1, 3))
        assert abs(marginal_purity(state, (0, 2)) - 1.0) < 1e-12
        assert abs(marginal_purity(state, (1, 3)) - 1.0) < 1e-12
        assert marginal_purity(state, (0, 1)) < 0.9

    @pytest.mark.parametrize("shape", [(2, 2), (3, 1), (4,), (2, 1, 1)])
    def test_dressing_keeps_blocks_pure(self, shape):
        for seed in range(1, 6):
            state, blocks = ghz_product(shape, lu_seed=seed)
            for block in blocks:
                assert abs(marginal_purity(state, block) - 1.0) < 1e-9

    def test_dressed_states_differ_but_structure_matches(self):
        a, blocks_a = ghz_product([2, 1], lu_seed=1)
        b, blocks_b = ghz_product([2, 1], lu_seed=2)
        assert blocks_a == blocks_b
        assert np.linalg.norm(a.vec - b.vec) > 1e-3

    def test_shape_assignment_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ghz_product([2, 2], assignment=[(0,), (1, 2, 3)])

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            ghz_product([10, 5])

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            ghz_product([1, 2])
        with pytest.raises(ValueError):
            ghz_product([])

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_partition_lays_out(self, n):
        for shape in enumerate_partitions(n):
            state, blocks = ghz_product(shape)
            assert state.n_qubits == n
            assert tuple(sorted((len(b) for b in blocks), reverse=True)) == shape


def _outcome(build, **kwargs):
    """The state's bytes and blocks, or the type and text of the error."""
    try:
        state, blocks = build(**kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return state.n_qubits, state.vec.tobytes(), blocks


class TestMatchesTheBlockChain:
    """ghz_product writes the bits the block-by-block chain computes."""

    @pytest.mark.parametrize("n", range(1, 15))
    def test_bits_blocks_and_draws(self, n):
        rng = np.random.default_rng(500 + n)
        options = enumerate_partitions(n)
        shapes = {options[0], options[-1], options[int(rng.integers(len(options)))]}
        for shape in sorted(shapes):
            order = [int(q) for q in rng.permutation(n)]
            sizes = [int(w) for w in rng.permutation(shape)]
            assignment = [order[end - w : end] for w, end in zip(sizes, itertools.accumulate(sizes))]
            perm = [int(q) for q in rng.permutation(n)]
            for layout in ({}, {"perm": perm}, {"assignment": assignment},
                           {"assignment": assignment, "perm": perm}):
                for lu in (None, 7 + n, "generator"):
                    kwargs = dict(layout, shape=shape)
                    if lu == "generator":
                        ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
                        got = _outcome(ghz_product, lu_seed=ours, **kwargs)
                        assert got == _outcome(chain_ghz_product, lu_seed=theirs, **kwargs)
                        assert ours.bit_generator.state == theirs.bit_generator.state
                    else:
                        got = _outcome(ghz_product, lu_seed=lu, **kwargs)
                        assert got == _outcome(chain_ghz_product, lu_seed=lu, **kwargs)

    BAD = {
        "perm": [[0, 0, 1, 2], [0, 1.0, 2, 3], [0, 1.5, 2, 3], [True, 0, 2, 3], [0, 1, 2, 4],
                 [-1, 1, 2, 3], [0, 1, 2], (0, 1, 2, 3, 4), "0123"],
        "assignment": [[(0, 1), (2,), (2,)], [(0, 1), (2, 3)], [(0, 1), (2,), (5,)], [(0, 1), (2,)],
                       [(0, 1.5), (2,), (3,)], [(0, 1), (), (2,), (3,)], [(0, True), (2,), (3,)]],
        "shape": [(10, 5), (1, 2), (), (0,), (2.5, 1)],
        "lu_seed": [-1, True, False, 1.5, "7"],
        "max_qubits": [3, 0],
    }

    @pytest.mark.parametrize("keys", [(key,) for key in BAD] + list(itertools.combinations(BAD, 2)),
                             ids=lambda keys: "+".join(keys))
    def test_the_same_error_comes_first(self, keys):
        base = {"shape": (2, 1, 1), "assignment": [(0, 3), (1,), (2,)], "perm": [3, 1, 0, 2], "lu_seed": 5}
        for values in itertools.product(*(self.BAD[key] for key in keys)):
            kwargs = dict(base, **dict(zip(keys, values)))
            got = _outcome(ghz_product, **kwargs)
            assert got[0] is ValueError and got == _outcome(chain_ghz_product, **kwargs)


class TestConstructionMemory:
    """The undressed product is the one zeroed vector; dressing adds no temporary."""

    CASES = [
        {"shape": (16,)},
        {"shape": (1,) * 16},
        {"shape": (2,) * 8, "perm": [(5 * q + 3) % 16 for q in range(16)]},
        {"shape": (7, 5, 3, 1), "assignment": [range(0, 14, 2), range(1, 11, 2), (11, 13, 15), (14,)]},
    ]

    @pytest.mark.parametrize("lu_seed, limit", [(None, 1.05), (16, 3.1)], ids=["bare", "dressed"])
    @pytest.mark.parametrize("case", CASES, ids=["ghz16", "singles16", "pairs-permuted", "assigned"])
    def test_traced_peak(self, case, lu_seed, limit):
        ghz_product((2,), lu_seed=lu_seed)  # first-call imports are not the construction's
        tracemalloc.start()
        try:
            state, _ = ghz_product(lu_seed=lu_seed, max_qubits=16, **case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * state.vec.nbytes


class TestRandomLocalUnitary:
    def test_unitarity(self):
        for seed in range(10):
            lu = random_local_unitary(4, seed)
            for m in lu.matrices:
                np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)

    def test_deterministic(self):
        a = random_local_unitary(3, 123)
        b = random_local_unitary(3, 123)
        for ma, mb in zip(a.matrices, b.matrices):
            assert np.array_equal(ma, mb)

    def test_distinct_seeds_differ(self):
        a = random_local_unitary(1, 1)
        b = random_local_unitary(1, 2)
        assert not np.allclose(a.matrices[0], b.matrices[0])

    def test_rotation_boundary(self):
        # u = 0 means a full theta = pi rotation; must stay unitary and finite
        m = np.array(_one_qubit_entries(0.0, 0.3, 0.7), dtype=np.complex128)
        assert np.all(np.isfinite(m))
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)
        m = np.array(_one_qubit_entries(1.0, 0.0, 0.0), dtype=np.complex128)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            random_local_unitary(0, 1)
