"""The reshape-and-dot forms give the bits of the numpy forms they replaced."""
import math

import numpy as np
import pytest

from entdex.classify import _cut_bounds, _normalized
from entdex.construct import ghz_product, random_local_unitary
from entdex.properties import measure_qubit
from entdex.states import PureState, apply_local_unitary, marginal_purity, pure_state, tensor
from tensordot_oracle import (
    looped_local_unitary_matrices,
    tensordot_apply_local_unitary,
    tensordot_measure_qubit,
)


def haar_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return pure_state(v / np.linalg.norm(v))


@pytest.mark.parametrize("n", range(1, 13))
def test_apply_local_unitary_matches_tensordot(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        psi = haar_state(rng, n)
        u = random_local_unitary(n, rng)
        got = apply_local_unitary(psi, u).vec
        assert got.tobytes() == tensordot_apply_local_unitary(psi, u).tobytes()


def test_tensor_matches_kron():
    rng = np.random.default_rng(300)
    for n_a in range(1, 7):
        for n_b in range(1, 7):
            a, b = haar_state(rng, n_a), haar_state(rng, n_b)
            assert tensor(a, b).vec.tobytes() == np.kron(a.vec, b.vec).tobytes()


@pytest.mark.parametrize("n", range(1, 8))
def test_measure_qubit_matches_tensordot(n):
    rng = np.random.default_rng(200 + n)
    dressed = ghz_product([n], perm=list(rng.permutation(n)), lu_seed=n).state
    # a basis state prunes one Z outcome of every qubit
    for psi in (haar_state(rng, n), dressed, pure_state(np.eye(2**n)[3 % 2**n])):
        for q in range(n):
            for basis in ("Z", "X"):
                got = measure_qubit(psi, q, basis)
                want = tensordot_measure_qubit(psi, q, basis)
                assert len(got) == len(want)
                for outcome, (prob, vec) in zip(got, want):
                    assert outcome.probability == prob
                    assert outcome.post_state.vec.tobytes() == vec.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_random_local_unitary_matches_three_uniform_draws(n):
    for seed in range(5):
        gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_local_unitary(n, gen).matrices
        want = looped_local_unitary_matrices(n, ref)
        assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
        # the generator is left exactly 3n uniforms further on
        assert gen.bit_generator.state == ref.bit_generator.state
        fresh = np.random.default_rng(seed)
        fresh.random(3 * n)
        assert gen.random() == fresh.random()


def with_zeros(rng, size):
    """Random complex entries, with zeros, negative real zeros and zero imaginary parts."""
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    v[rng.random(size) < 0.2] = 0.0
    v.real[rng.random(size) < 0.2] = -0.0
    v.imag[rng.random(size) < 0.2] = 0.0
    return v


def rho_level(rng, n):
    """A strided 2-D view of 2**n entries, n even, as the peel takes of rho's:
    one of the four (row bit, column bit) sub-blocks of a matrix twice as wide."""
    side = 2 ** (n // 2 + 1)
    return with_zeros(rng, side * side).reshape(2, side // 2, 2, side // 2)[1, :, 0]


@pytest.mark.parametrize("n", range(1, 21))
def test_level_normalization_matches_complex_division(n):
    # numpy's complex / real is (re + im * 0) * (1 / s), so scaling the
    # float64 pairs by 1 / s gives the same values; only a zero's sign may differ
    rng = np.random.default_rng(400 + n)
    levels = [with_zeros(rng, 2**n)]
    if n % 2 == 0 and n <= 16:
        levels.append(rho_level(rng, n))
    for level in levels:
        flat = level.reshape(-1)
        total = float(np.vdot(flat, flat).real)
        got, want = _normalized(level, total), PureState(n, flat / math.sqrt(total))
        assert np.array_equal(got.vec, want.vec)
        for keep in {(0,), (n - 1,), tuple(range(min(n, 3)))}:
            assert marginal_purity(got, keep) == marginal_purity(want, keep)


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_cut_bounds_read_a_strided_level_as_its_flat_copy(n):
    # the reorder of a strided view and of its flat copy is one contiguous
    # copy with the same entries, so the bounds come out bit for bit alike
    level = rho_level(np.random.default_rng(500 + n), n)
    flat = level.reshape(-1)
    assert not level.flags.c_contiguous and not np.shares_memory(level, flat)
    for keep in {(0,), (n - 1,), tuple(range(n // 2)), (0, n // 2), tuple(range(1, n, 2))}:
        assert _cut_bounds(level, list(keep)) == _cut_bounds(flat, list(keep)), keep
