"""Unit tests for the dense state/density-matrix operations."""
import math
import re
import tracemalloc

import numpy as np
import pytest

from entdex.classify import mixed_product_split
from entdex.states import (
    DensityMatrix,
    LocalUnitary,
    PureState,
    apply_local_unitary,
    density_matrix,
    marginal_purity,
    partial_trace,
    permute_qubits,
    pure_state,
    purity,
    tensor,
    to_density,
)

S2 = 1.0 / math.sqrt(2.0)

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * S2
I2 = np.eye(2, dtype=complex)


def bell():
    return pure_state([S2, 0.0, 0.0, S2])


def ghz3():
    return pure_state([S2, 0, 0, 0, 0, 0, 0, S2])


def haar_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return pure_state(v / np.linalg.norm(v))


class TestTensor:
    def test_basis_product(self):
        zero = pure_state([1.0, 0.0])
        out = tensor(zero, zero)
        np.testing.assert_allclose(out.vec, [1, 0, 0, 0])

    def test_bell_times_zero(self):
        # hand expansion of (|00> + |11>)/sqrt(2) (x) |0> in big-endian order
        out = tensor(bell(), pure_state([1.0, 0.0]))
        np.testing.assert_allclose(out.vec, [S2, 0, 0, 0, 0, 0, S2, 0], atol=1e-15)
        assert out.n_qubits == 3

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            out = tensor(haar_state(rng, 2), haar_state(rng, 3))
            assert abs(np.linalg.norm(out.vec) - 1.0) < 1e-12

    def test_cap_overflow(self):
        a = haar_state(np.random.default_rng(0), 7)
        b = haar_state(np.random.default_rng(1), 8)
        with pytest.raises(ValueError, match="cap"):
            tensor(a, b)
        assert tensor(a, b, max_qubits=15).n_qubits == 15


class TestDensity:
    def test_to_density_basis(self):
        rho = to_density(pure_state([1.0, 0.0]))
        np.testing.assert_allclose(rho.mat, np.diag([1.0, 0.0]))

    def test_to_density_bell_corners(self):
        rho = to_density(bell())
        expected = np.zeros((4, 4))
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expected[i, j] = 0.5
        np.testing.assert_allclose(rho.mat, expected, atol=1e-15)

    def test_trace_one(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            rho = to_density(haar_state(rng, n))
            assert abs(np.trace(rho.mat) - 1.0) < 1e-12
            assert abs(purity(rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("scale", [1 + 8e-10, 1 - 8e-10])
    def test_to_density_accepts_every_norm_pure_state_accepts(self, scale):
        # the outer product alone has trace scale**2, off by 1.6e-9
        psi = PureState(3, np.eye(8)[0] * scale)
        rho = to_density(psi)
        assert abs(np.trace(rho.mat) - 1.0) < 1e-15
        assert mixed_product_split(rho) == ((0,), (1,), (2,))

    def test_density_width_is_refused_with_one_message_before_allocating(self):
        message = "refusing to materialize a 13-qubit density matrix (limit 12)"
        with pytest.raises(ValueError, match=re.escape(message)):
            DensityMatrix(13, np.zeros((1, 1)))
        psi = PureState(13, np.eye(1, 2**13)[0])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(message)):
                to_density(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < psi.vec.nbytes

    def test_refuses_large_n(self):
        with pytest.raises(ValueError, match="refusing"):
            DensityMatrix(13, np.zeros((1, 1)))

    def test_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            density_matrix([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="trace"):
            density_matrix([[0.9, 0.0], [0.0, 0.0]])
        # purity above 1 comes from a non-positive "density matrix"
        with pytest.raises(ValueError, match="purity"):
            density_matrix([[1.0, 0.6], [0.6, 0.0]])

    @pytest.mark.parametrize("row, col", [(0, 15), (15, 2), (9, 6)])
    def test_hermiticity_is_checked_in_every_slab(self, row, col):
        mat = np.eye(16, dtype=complex) / 16
        mat[row, col] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            density_matrix(mat)

    def test_construction_holds_one_copy_and_slabs(self):
        entries = to_density(haar_state(np.random.default_rng(5), 10)).mat
        tracemalloc.start()
        try:
            density_matrix(entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * entries.nbytes


class TestPartialTrace:
    def test_product_marginal(self):
        rho = to_density(pure_state([1.0, 0.0, 0.0, 0.0]))  # |00>
        out = partial_trace(rho, [0])
        np.testing.assert_allclose(out.mat, np.diag([1.0, 0.0]))

    def test_bell_marginal_maximally_mixed(self):
        out = partial_trace(to_density(bell()), [0])
        np.testing.assert_allclose(out.mat, np.eye(2) / 2, atol=1e-15)

    def test_ghz3_two_qubit_marginal(self):
        # hand partial trace of GHZ_3: diag(1/2, 0, 0, 1/2)
        out = partial_trace(to_density(ghz3()), [0, 1])
        np.testing.assert_allclose(out.mat, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-15)
        assert abs(purity(out) - 0.5) < 1e-12

    def test_errors(self):
        rho = to_density(bell())
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(rho, [])
        with pytest.raises(ValueError, match="range"):
            partial_trace(rho, [2])
        with pytest.raises(ValueError, match="duplicate"):
            partial_trace(rho, [0, 0])

    def test_chain_consistency(self):
        # tracing down in two hops equals one hop, for random 4-qubit states
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho = to_density(haar_state(rng, 4))
            mid = partial_trace(rho, [0, 1, 3])
            # qubits {0,1} sit at positions {0,1} within the kept set {0,1,3}
            two_hop = partial_trace(mid, [0, 1])
            one_hop = partial_trace(rho, [0, 1])
            np.testing.assert_allclose(two_hop.mat, one_hop.mat, atol=1e-9)
            # keeping every qubit returns the input entries exactly
            np.testing.assert_array_equal(partial_trace(rho, range(4)).mat, rho.mat)

    def test_reduced_density_matches(self):
        # the marginal contracted from the amplitudes has the purity of the
        # partial_trace of the full density matrix
        rng = np.random.default_rng(5)
        psi = haar_state(rng, 4)
        rho = to_density(psi)
        for keep in [(0,), (2,), (0, 3), (1, 2, 3)]:
            assert abs(marginal_purity(psi, keep) - purity(partial_trace(rho, keep))) < 1e-12

    def test_marginal_purity_full_set(self):
        assert abs(marginal_purity(bell(), (0, 1)) - 1.0) < 1e-12

    def test_tensor_factor_marginal_is_pure(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            a, b = haar_state(rng, 2), haar_state(rng, 3)
            joint = tensor(a, b)
            assert marginal_purity(joint, (0, 1)) >= 1.0 - 1e-9
            assert marginal_purity(joint, (2, 3, 4)) >= 1.0 - 1e-9


class TestLocalUnitary:
    def test_identity(self):
        psi = bell()
        out = apply_local_unitary(psi, LocalUnitary((I2, I2)))
        np.testing.assert_allclose(out.vec, psi.vec, atol=1e-12)

    def test_bit_flip(self):
        out = apply_local_unitary(pure_state([1, 0, 0, 0]), LocalUnitary((X, I2)))
        np.testing.assert_allclose(out.vec, [0, 0, 1, 0], atol=1e-15)

    def test_hadamard_on_bell_preserves_marginal_purity(self):
        out = apply_local_unitary(bell(), LocalUnitary((I2, H)))
        assert abs(np.linalg.norm(out.vec) - 1.0) < 1e-12
        assert abs(marginal_purity(out, (0,)) - 0.5) < 1e-12

    def test_wrong_count(self):
        with pytest.raises(ValueError, match="matrices"):
            apply_local_unitary(bell(), LocalUnitary((I2,)))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            LocalUnitary((np.array([[1, 0], [0, 2]], dtype=complex),))

    @pytest.mark.parametrize("big", [[[1e200, 0], [0, 1]], [[1e200, 1e200], [1e200, -1e200]]])
    def test_huge_finite_entries_are_refused_not_overflowed(self, big):
        # m^H m overflows, and the second also meets inf - inf: without errstate
        # both are RuntimeWarnings, errors under the suite's filterwarnings
        with pytest.raises(ValueError, match=r"matrix 0 is not unitary \(defect inf\)"):
            LocalUnitary((np.array(big), I2))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.eye(3), r"matrix 1 must be 2x2, got shape \(3, 3\)"),
            (np.array([[np.nan, 0], [0, 1]]), "matrix 1 contains NaN or Inf entries"),
            (np.array([[1, 0], [0, 2]]), r"matrix 1 is not unitary \(defect 3\.000e\+00\)"),
        ],
    )
    def test_rejection_names_the_matrix(self, bad, message):
        with pytest.raises(ValueError, match=message):
            LocalUnitary((H, bad, X))

    def test_lowest_bad_matrix_is_named(self):
        with pytest.raises(ValueError, match="matrix 1 contains NaN"):
            LocalUnitary((I2, np.full((2, 2), np.inf), 2 * I2, np.eye(3)))
        # checks run per matrix: shape, then finite, then unitary
        with pytest.raises(ValueError, match="matrix 0 is not unitary"):
            LocalUnitary((2 * I2, np.eye(3)))
        with pytest.raises(ValueError, match="matrix 0 is not unitary"):
            LocalUnitary((2 * I2, "not a matrix"))

    def test_empty_is_accepted(self):
        assert LocalUnitary(()).n_qubits == 0

    def test_accepted_matrices_are_read_only_complex_copies(self):
        u = LocalUnitary(([[1, 0], [0, 1]], H))
        assert [m.dtype for m in u.matrices] == [np.complex128] * 2
        assert np.array_equal(u.matrices[1], H)
        with pytest.raises(ValueError):
            u.matrices[0][0, 0] = 2.0

    def test_ragged_matrices_are_refused(self):
        with pytest.raises(ValueError):
            LocalUnitary((I2, [[1, 0], [0]]))
        with pytest.raises(ValueError, match=r"matrix 1 must be 2x2, got shape \(4, 1\)"):
            LocalUnitary((I2, np.ones((4, 1))))

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            # random special-ish unitaries via QR of a Gaussian matrix
            mats = []
            for _q in range(3):
                q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                mats.append(q)
            out = apply_local_unitary(haar_state(rng, 3), LocalUnitary(tuple(mats)))
            assert abs(np.linalg.norm(out.vec) - 1.0) < 1e-9


class TestPermute:
    def test_identity(self):
        psi = ghz3()
        np.testing.assert_allclose(permute_qubits(psi, [0, 1, 2]).vec, psi.vec)

    def test_swap(self):
        out = permute_qubits(pure_state([0, 1, 0, 0]), [1, 0])  # |01> -> |10>
        np.testing.assert_allclose(out.vec, [0, 0, 1, 0])

    def test_moves_qubit_to_position(self):
        # |100> under 0->1, 1->2, 2->0 becomes |010>
        out = permute_qubits(pure_state([0, 0, 0, 0, 1, 0, 0, 0]), [1, 2, 0])
        assert np.argmax(np.abs(out.vec)) == 2

    def test_involution(self):
        rng = np.random.default_rng(13)
        psi = haar_state(rng, 3)
        swapped = permute_qubits(permute_qubits(psi, [2, 1, 0]), [2, 1, 0])
        np.testing.assert_allclose(swapped.vec, psi.vec, atol=1e-12)

    def test_non_bijective(self):
        with pytest.raises(ValueError, match="bijection"):
            permute_qubits(bell(), [0, 0])


class TestValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError, match="power of two"):
            pure_state([1.0, 0.0, 0.0])

    def test_not_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            pure_state([1.0, 1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            PureState(1, np.array([np.nan, 0.0]))

    def test_inf_rejected(self):
        with pytest.raises(ValueError, match="amplitude vector contains NaN or Inf entries"):
            PureState(1, np.array([np.inf, 0.0]))

    def test_huge_entries_are_not_normalized(self):
        # |v|^2 overflows to inf, yet every entry is finite
        with pytest.raises(ValueError, match=r"not normalized: \|norm - 1\| = inf"):
            PureState(1, np.array([1e200, 1e200]))
        with pytest.raises(ValueError, match=r"not normalized: \|norm - 1\| = inf"):
            PureState(1, np.array([1e200 + 1e200j, 1e200]))

    def test_vectors_frozen(self):
        psi = bell()
        with pytest.raises(ValueError):
            psi.vec[0] = 0.0
        rho = to_density(psi)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.0


class TestQubitIndices:
    """Indices are integers: 1.9 or True used to be truncated to qubit 1."""

    @pytest.mark.parametrize("bad", [1.9, 0.5, True, np.float64(1.0), np.bool_(True), "1"])
    def test_non_integers_rejected(self, bad):
        psi = tensor(bell(), pure_state([1, 0]))
        with pytest.raises(ValueError, match=re.escape(f"qubit index {bad!r} is not an integer")):
            marginal_purity(psi, [bad])
        with pytest.raises(ValueError, match="is not an integer"):
            partial_trace(to_density(psi), [bad])

    def test_fractional_index_is_not_qubit_one(self):
        psi = tensor(bell(), pure_state([1, 0]))
        assert marginal_purity(psi, [1]) == pytest.approx(0.5)
        with pytest.raises(ValueError, match="1.9"):
            marginal_purity(psi, [1.9])

    def test_permutation_entries_must_be_integers(self):
        with pytest.raises(ValueError, match="qubit index 0.2 is not an integer"):
            permute_qubits(ghz3(), [0.2, 1.9, 2.0])
        with pytest.raises(ValueError, match="False"):
            permute_qubits(bell(), [1, False])

    def test_numpy_integers_pass(self):
        psi = tensor(bell(), pure_state([1, 0]))
        assert marginal_purity(psi, np.array([2])) == pytest.approx(1.0)
        assert marginal_purity(psi, [np.int64(0), np.uint8(1)]) == pytest.approx(1.0)
        out = permute_qubits(psi, np.array([2, 0, 1]))
        assert np.array_equal(out.vec, permute_qubits(psi, [2, 0, 1]).vec)
