"""Tests for factorization recovery, classification, and the ensemble index."""
import math
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entdex.classify import (
    Ensemble,
    FactorizationError,
    classify,
    ensemble_index,
    entanglement_index,
    finest_factorization,
    minimal_pure_subset,
    mixed_product_split,
    _normalized,
)
from entdex.construct import basis_state, ghz, ghz_product, random_local_unitary
from entdex.partitions import enumerate_partitions, shape_of
from entdex.states import (
    LocalUnitary,
    PureState,
    apply_local_unitary,
    density_matrix,
    marginal_purity,
    permute_qubits,
    pure_state,
    tensor,
    to_density,
)
from scan_oracle import scan_factorize, scan_mixed_split

S2 = 1.0 / math.sqrt(2.0)


class TestMinimalPureSubset:
    def test_basis_product(self):
        assert minimal_pure_subset(basis_state([0, 0]), 0) == (0,)

    def test_ghz3_plus_spectator(self):
        psi = tensor(ghz(3), basis_state([0]))
        assert minimal_pure_subset(psi, 1) == (0, 1, 2)
        assert minimal_pure_subset(psi, 3) == (3,)

    def test_permuted_bell(self):
        state, _ = ghz_product([2, 1], perm=(0, 2, 1))  # Bell on {0,2}, |0> on 1
        assert minimal_pure_subset(state, 0) == (0, 2)
        assert minimal_pure_subset(state, 1) == (1,)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            minimal_pure_subset(ghz(2), 2)

    @pytest.mark.parametrize("bad", [2.7, 0.5, True])
    def test_non_integer_qubit_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"qubit index {bad!r} is not an integer")):
            minimal_pure_subset(tensor(ghz(2), basis_state([0])), bad)

    def test_numpy_integer_qubit(self):
        assert minimal_pure_subset(tensor(ghz(2), basis_state([0])), np.int64(2)) == (2,)


class TestFinestFactorization:
    def test_ground_truth_blocks(self):
        state, blocks = ghz_product([2, 1, 1])
        assert finest_factorization(state) == blocks == ((0, 1), (2,), (3,))

    def test_fully_separable(self):
        assert finest_factorization(basis_state([0] * 5)) == tuple((q,) for q in range(5))

    def test_ghz5_single_block(self):
        assert finest_factorization(ghz(5)) == ((0, 1, 2, 3, 4),)

    def test_borderline_state_fails_certification(self):
        # qubit 0 carries a purity defect of 2e-10 <= tol, so the peel splits
        # it off and reads qubits 1..3 from the heavier row, where qubit 2's
        # defect is 0.9e-9 <= tol.  On the input that defect is 1.1e-9 > tol.
        eta, d0 = 1e-10, 0.9e-9
        s2 = (1.0 - math.sqrt(1.0 - 2.0 * d0)) / 2.0
        vec = np.zeros(16)
        vec[0b0000] = math.sqrt((1.0 - eta) * (1.0 - s2))
        vec[0b0011] = math.sqrt((1.0 - eta) * s2)
        vec[0b1010] = math.sqrt(eta)
        # local unitaries on qubits 1..3 change neither spectra nor the row choice
        rng = np.random.default_rng(11)
        lu = LocalUnitary((np.eye(2),) + random_local_unitary(3, rng).matrices)
        psi = apply_local_unitary(pure_state(vec), lu)
        assert 1.0 - marginal_purity(psi, (2,)) == pytest.approx(1.1e-9, rel=1e-3)
        with pytest.raises(FactorizationError, match=r"block \(2,\)"):
            classify(psi, tol=1e-9)


class TestEntanglementIndex:
    def test_bell(self):
        assert entanglement_index(ghz(2)) == 1

    def test_separable_pair(self):
        assert entanglement_index(basis_state([0, 0])) == 0

    @pytest.mark.parametrize("m", range(2, 7))
    def test_ghz_matches_pair_count(self, m):
        assert entanglement_index(ghz(m)) == m - 1 == (m - 1) * entanglement_index(ghz(2))


class TestClassify:
    def test_dressed_three_two(self):
        state, _ = ghz_product([3, 2], lu_seed=7)
        report = classify(state)
        assert report.shape == (3, 2)
        assert report.index == 3
        assert report.label == "entangled class E=3"

    def test_fully_separable(self):
        report = classify(basis_state([0, 0, 0, 0]))
        assert report.shape == (1, 1, 1, 1)
        assert report.index == 0
        assert report.label == "fully separable"
        assert report.warning is None

    def test_ghz4(self):
        report = classify(ghz(4))
        assert report.shape == (4,)
        assert report.index == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip_all_partitions(self, n):
        rng = np.random.default_rng(n)
        for shape in enumerate_partitions(n):
            for _ in range(5):
                perm = [int(x) for x in rng.permutation(n)]
                state, blocks = ghz_product(shape, perm=perm, lu_seed=int(rng.integers(2**32)))
                report = classify(state)
                assert report.blocks == blocks
                assert report.shape == shape
                assert report.index == n - len(shape)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(17)
        for shape in [(2, 2), (3, 1), (4,)]:
            state, _ = ghz_product(shape, lu_seed=int(rng.integers(2**32)))
            before = classify(state)
            after = classify(apply_local_unitary(state, random_local_unitary(4, rng)))
            assert (before.blocks, before.shape, before.index) == (
                after.blocks,
                after.shape,
                after.index,
            )

    def test_additivity(self):
        rng = np.random.default_rng(23)
        for shape_a, shape_b in [((2,), (1,)), ((3,), (2, 1)), ((2, 2), (3,))]:
            a, _ = ghz_product(shape_a, lu_seed=int(rng.integers(2**32)))
            b, _ = ghz_product(shape_b, lu_seed=int(rng.integers(2**32)))
            assert entanglement_index(tensor(a, b)) == entanglement_index(
                a
            ) + entanglement_index(b)

    def test_permutation_covariance(self):
        state, blocks = ghz_product([2, 2, 1], lu_seed=5)
        perm = [3, 0, 4, 1, 2]
        moved = permute_qubits(state, perm)
        expected = tuple(sorted(tuple(sorted(perm[q] for q in b)) for b in blocks))
        report = classify(moved)
        assert report.blocks == expected
        assert report.shape == (2, 2, 1)
        assert report.index == 2

    def test_near_threshold_warning(self):
        # purity defect of the single-qubit marginal lands inside [tol, 10*tol]
        theta = math.sqrt(1e-9)  # defect ~ 2*theta^2 = 2e-9
        psi = pure_state([math.cos(theta), 0.0, 0.0, math.sin(theta)])
        report = classify(psi, tol=1e-9)
        assert report.shape == (2,)
        assert report.warning is not None

        # well below tol the state counts as separable, with no warning
        tiny = math.sqrt(1e-12)
        psi = pure_state([math.cos(tiny), 0.0, 0.0, math.sin(tiny)])
        report = classify(psi, tol=1e-9)
        assert report.shape == (1, 1)
        assert report.warning is None

    def test_w_state_counts_as_one_block(self):
        # equal-weight one-excitation state: no pure proper marginal, so the
        # factorization classifier puts it in the same class as a width-3 block
        w = pure_state([0, 1 / math.sqrt(3), 1 / math.sqrt(3), 0, 1 / math.sqrt(3), 0, 0, 0])
        report = classify(w)
        assert report.shape == (3,)
        assert report.index == 2

    @pytest.mark.parametrize("call", [classify, finest_factorization, entanglement_index,
                                      lambda rho: minimal_pure_subset(rho, 0)],
                             ids=["classify", "finest_factorization", "entanglement_index",
                                  "minimal_pure_subset"])
    def test_mixed_state_is_refused(self, call):
        # a classically correlated state is separable, not entangled class E=1
        with pytest.raises(ValueError, match="takes a PureState, not DensityMatrix; see mixed_product_split"):
            call(density_matrix(np.diag([0.5, 0.0, 0.0, 0.5])))

    @pytest.mark.parametrize("call", [classify, finest_factorization, entanglement_index,
                                      lambda psi: minimal_pure_subset(psi, 0)],
                             ids=["classify", "finest_factorization", "entanglement_index",
                                  "minimal_pure_subset"])
    def test_bare_array_is_refused(self, call):
        with pytest.raises(ValueError, match="takes a PureState, not ndarray"):
            call(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("call, arg, message", [
        (mixed_product_split, np.array([1.0, 0.0]),
         "mixed_product_split takes a DensityMatrix, not ndarray; see classify"),
        (ensemble_index, [1], "ensemble_index takes an Ensemble, not list"),
    ], ids=["mixed_product_split", "ensemble_index"])
    def test_other_bare_values_are_refused_by_name(self, call, arg, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(arg)

    def test_pure_state_is_refused_by_the_mixed_split(self):
        # 2 theta^2 = 7e-10: the pure defect passes at the default tol, rho's does not
        theta = math.sqrt(3.5e-10)
        psi = pure_state([math.cos(theta), 0.0, 0.0, math.sin(theta)])
        assert classify(psi).blocks == ((0,), (1,))
        assert mixed_product_split(to_density(psi)) == ((0, 1),)
        with pytest.raises(ValueError, match="mixed_product_split takes a DensityMatrix, not PureState; see classify"):
            mixed_product_split(psi)


class TestMinimalBlockUniqueness:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_ground_truth_blocks_recovered_per_qubit(self, n):
        rng = np.random.default_rng(n + 100)
        for shape in enumerate_partitions(n):
            state, blocks = ghz_product(shape, lu_seed=int(rng.integers(2**32)))
            lookup = {q: b for b in blocks for q in b}
            for i in range(n):
                assert minimal_pure_subset(state, i) == lookup[i]


class TestEnsembleIndex:
    def test_single_full_block(self):
        for n in (2, 4, 6):
            e = Ensemble(n, ((1.0, (n,)),))
            assert ensemble_index(e) == n - 1

    def test_uniform_over_partitions_of_four(self):
        terms = tuple((0.2, parts) for parts in enumerate_partitions(4))
        assert abs(ensemble_index(Ensemble(4, terms)) - 1.6) <= 1e-12

    def test_separable_terms_give_zero(self):
        e = Ensemble(3, ((0.25, (1, 1, 1)), (0.75, basis_state([0, 1, 0]))))
        assert ensemble_index(e) == 0.0

    def test_state_payloads(self):
        e = Ensemble(2, ((0.5, ghz(2)), (0.5, basis_state([0, 0]))))
        assert abs(ensemble_index(e) - 0.5) <= 1e-12

    def test_concatenation_linearity(self):
        e1 = Ensemble(4, ((1.0, (4,)),))
        e2 = Ensemble(4, ((0.5, (2, 2)), (0.5, (1, 1, 1, 1))))
        for w in (0.25, 0.5, 0.9):
            terms = tuple((w * p, payload) for p, payload in e1.terms) + tuple(
                ((1 - w) * p, payload) for p, payload in e2.terms
            )
            combined = ensemble_index(Ensemble(4, terms))
            expected = w * ensemble_index(e1) + (1 - w) * ensemble_index(e2)
            assert abs(combined - expected) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            Ensemble(4, ((0.5, (4,)), (0.4, (2, 2))))
        with pytest.raises(ValueError, match="sum to 4"):
            Ensemble(4, ((1.0, (2, 1)),))
        with pytest.raises(ValueError, match="qubits"):
            Ensemble(3, ((1.0, ghz(2)),))
        with pytest.raises(ValueError, match="probabilities"):
            Ensemble(2, ((0.0, (2,)), (1.0, (1, 1))))

    @pytest.mark.parametrize("prob", ["0.5", True, np.array([0.5]), np.array(0.5), 0.5j])
    def test_probability_is_refused_by_name(self, prob):
        # a string, a bool or an array is refused, never read as a number
        with pytest.raises(ValueError, match=re.escape(f"probability {prob!r} is not a real number")):
            Ensemble(2, ((prob, (2,)), (0.5, (1, 1))))

    @pytest.mark.parametrize("prob", [10**400, -(10**400)], ids=["huge", "huge-negative"])
    def test_probability_beyond_the_float_range_is_refused(self, prob):
        # an integer that float() cannot hold reads as an infinite probability
        with pytest.raises(ValueError, match=re.escape("probabilities must lie in (0, 1]")):
            Ensemble(1, ((prob, (1,)),))

    def test_real_scalars_are_probabilities(self):
        for prob in (np.float32(0.5), np.float64(0.5), 0.5):
            assert ensemble_index(Ensemble(2, ((prob, (2,)), (0.5, (1, 1))))) == 0.5
        assert Ensemble(1, ((1, (1,)),)).terms == ((1.0, (1,)),)


class TestMixedProductSplit:
    def test_product_of_bell_and_mixed_qubit(self):
        rho = density_matrix(np.kron(to_density(ghz(2)).mat, np.eye(2) / 2))
        assert mixed_product_split(rho) == ((0, 1), (2,))

    def test_ghz3_density_has_no_split(self):
        assert mixed_product_split(to_density(ghz(3))) == ((0, 1, 2),)

    def test_maximally_mixed_splits_fully(self):
        rho = density_matrix(np.eye(4) / 4)
        assert mixed_product_split(rho) == ((0,), (1,))

    def test_interleaved_block(self):
        # maximally mixed qubit 1 sandwiched inside a Bell pair on {0,2}
        psi0 = permute_qubits(tensor(ghz(2), basis_state([0])), (0, 2, 1))
        psi1 = permute_qubits(tensor(ghz(2), basis_state([1])), (0, 2, 1))
        rho = density_matrix(
            0.5 * to_density(psi0).mat + 0.5 * to_density(psi1).mat
        )
        assert mixed_product_split(rho) == ((0, 2), (1,))


class TestNormWithinTolerance:
    @pytest.mark.parametrize("scale", [1 - 4e-10, 1 + 9e-10])
    def test_scaled_states_keep_their_blocks(self, scale):
        # PureState accepts these norms, so purity must read 1 on a product
        psi = pure_state(scale * basis_state([0, 0, 0]).vec)
        assert marginal_purity(psi, (0,)) == pytest.approx(1.0, abs=1e-15)
        assert classify(psi).blocks == ((0,), (1,), (2,))
        state, blocks = ghz_product([2, 1], perm=(2, 0, 1), lu_seed=7)
        assert classify(pure_state(scale * state.vec)).blocks == blocks


# bools and non-reals are refused with the same message, never read as 1.0 or 0.0
BAD_TOLS = [math.nan, -1.0, math.inf, True, False, "1e-9", None, 1e-9j]


class TestTolValidation:
    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_pure_kernel_rejects(self, tol):
        with pytest.raises(ValueError, match="tol"):
            classify(ghz(3), tol=tol)
        with pytest.raises(ValueError, match="tol"):
            minimal_pure_subset(ghz(3), 0, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            ensemble_index(Ensemble(2, ((1.0, (2,)),)), tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_mixed_split_rejects(self, tol):
        with pytest.raises(ValueError, match="tol"):
            mixed_product_split(density_matrix(np.eye(4) / 4), tol=tol)

    def test_zero_is_accepted(self):
        assert classify(basis_state([0, 1, 0]), tol=0.0).shape == (1, 1, 1)
        report = classify(basis_state([0, 1, 0]), tol=-0.0)
        assert report.shape == (1, 1, 1)
        assert math.copysign(1.0, report.tolerance_used) == 1.0


@pytest.fixture
def kernel_calls(monkeypatch):
    """Records the (state, keep) of each marginal_purity call by the classifier."""
    module = sys.modules["entdex.classify"]
    inner = module.marginal_purity
    calls = []

    def counted(psi, keep):
        calls.append((psi, tuple(keep)))
        return inner(psi, keep)

    monkeypatch.setattr(module, "marginal_purity", counted)
    return calls


@pytest.fixture
def bound_calls(monkeypatch):
    """Records the (level shape, keep) of each _cut_bounds call by the classifier."""
    module = sys.modules["entdex.classify"]
    inner = module._cut_bounds
    calls = []

    def counted(view, keep):
        calls.append((view.shape, tuple(keep)))
        return inner(view, keep)

    monkeypatch.setattr(module, "_cut_bounds", counted)
    return calls


@pytest.fixture
def chain_calls(monkeypatch):
    """Records the (level shape, groups) of each _product_overlap chain by the classifier."""
    module = sys.modules["entdex.classify"]
    inner = module._product_overlap
    calls = []

    def counted(level, groups, covectors, total, budget):
        calls.append((level.shape, [tuple(g) for g in groups]))
        return inner(level, groups, covectors, total, budget)

    monkeypatch.setattr(module, "_product_overlap", counted)
    return calls


def chain_bounds_hold(call, state):
    """Run ``call(state)`` with every product-overlap chain recorded, and
    check each against the exact defects of its level: a kept block's, and
    their union's, is at most 1 - F^2 of the chain's last kept step, plus
    the classifier's rounding allowance.  Returns how many blocks were kept."""
    module = sys.modules["entdex.classify"]
    inner, chains = module._product_overlap, []

    def recorded(level, groups, covectors, total, budget):
        steps = []
        chains.append((level, groups, steps))
        for kept, overlap in inner(level, groups, covectors, total, budget):
            steps.append((kept, overlap))
            yield kept, overlap

    with mock.patch.object(module, "_product_overlap", recorded):
        outcome(call, state)
    bits = 1 if isinstance(state, PureState) else 2
    allowance = module._ROUNDING_PER_QUBIT * bits * state.n_qubits
    certified = 0
    for level, groups, steps in chains:
        kept = [group for group, (ok, _) in zip(groups, steps) if ok]
        if not kept:
            continue
        bound = 1.0 - [overlap for ok, overlap in steps if ok][-1] ** 2
        flat = level.reshape(-1)  # rho's levels are strided 2-D views
        level_state = pure_state(flat / np.linalg.norm(flat))
        for keep in kept + [[p for group in kept for p in group]]:
            exact = 1.0 - marginal_purity(level_state, keep)
            assert exact <= bound + allowance, (keep, exact, bound)
        certified += len(kept)
    return certified


def repeated_cuts(calls, n):
    """How many kernel calls on an n-qubit state test a cut already tested on one."""
    seen, repeats = set(), 0
    for psi, keep in calls:
        if psi.n_qubits == n:
            cut = frozenset([frozenset(keep), frozenset(range(n)) - frozenset(keep)])
            repeats += cut in seen
            seen.add(cut)
    return repeats


def perturbed(draw, state, low, high):
    """``state`` moved by 10**low to 10**high in a random direction, renormalized."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.normal(size=state.dim) + 1j * rng.normal(size=state.dim)
    eps = 10 ** draw(st.floats(low, high))
    vec = state.vec + eps * noise / np.linalg.norm(noise)
    return pure_state(vec / np.linalg.norm(vec))


@st.composite
def noisy_dressed_products(draw):
    """Permuted, LU-dressed GHZ products, N <= 7, perturbed by 1e-6 to 3e-4."""
    n = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(enumerate_partitions(n)))
    perm = draw(st.permutations(range(n)))
    state, _ = ghz_product(shape, perm=perm, lu_seed=draw(st.integers(0, 2**32 - 1)))
    return perturbed(draw, state, -6.0, math.log10(3e-4))


@st.composite
def noisy_products_with_separable_head(draw):
    """Noisy LU-dressed products, N 2-9, whose first 2 or more qubits are
    single-qubit blocks, perturbed by 1e-5 to 1e-4: their cuts read defects
    of about 1e-10 to 1e-8, so where the leading levels of the peel pass,
    the certification chain's bound lands on both sides of tol=1e-9."""
    n = draw(st.integers(2, 9))
    head = draw(st.integers(2, n))
    shape = (draw(st.sampled_from(enumerate_partitions(n - head))) if head < n else ()) + (1,) * head
    # the layout puts the single-qubit blocks last; rotate them to the front
    perm = [(q + head) % n for q in range(n)]
    state, _ = ghz_product(shape, perm=perm, lu_seed=draw(st.integers(0, 2**32 - 1)))
    return perturbed(draw, state, -5.0, -4.0)


# purity calls and product-overlap chains of classify on the classify-large
# benchmark shapes: GHZ_N, (ceil(N/2), floor(N/2)), (N-1, 1) and N single
# qubits, at lu_seed=7 with the qubits permuted by default_rng(N).  Every
# level with two blocks or more runs a chain, and so does certification; the
# purity calls at N = 12 were (0, 14, 9, 0) when each block was tested
CLASSIFY_LARGE_CALLS = {9: (0, 0, 0, 0), 10: (0, 0, 0, 0), 11: (0, 0, 0, 0), 12: (0, 0, 0, 0)}
CLASSIFY_LARGE_CHAINS = {9: (0, 6, 1, 1), 10: (0, 7, 8, 1), 11: (0, 9, 0, 1), 12: (0, 10, 8, 1)}


class TestKernelWork:
    @pytest.mark.parametrize("psi", [ghz(12), ghz(20, max_qubits=20)], ids=["ghz12", "ghz20"])
    def test_ghz_is_linear(self, kernel_calls, psi):
        # the heavier row of GHZ_N is |0...0>, so only the top level tests
        n = psi.n_qubits
        assert finest_factorization(psi) == (tuple(range(n)),)
        assert len(kernel_calls) <= n

    @pytest.mark.parametrize("seed", range(10))
    def test_dressed_ghz12_needs_no_kernel(self, kernel_calls, seed):
        # every row of a dressed GHZ block is one block, whose defect is
        # site 0's; a lone block is the whole state, so nothing is certified
        state, blocks = ghz_product([12], lu_seed=seed)
        assert finest_factorization(state) == blocks
        assert kernel_calls == []

    @pytest.mark.parametrize("seed", range(3))
    def test_dressed_ghz20_is_sublinear(self, kernel_calls, seed):
        # deep rows of a dressed GHZ_20 can fall below tol, and each false
        # split costs a test where the level above merges it back
        state, blocks = ghz_product([20], lu_seed=seed, max_qubits=20)
        assert finest_factorization(state) == blocks
        assert len(kernel_calls) <= 20 // 2

    @pytest.mark.parametrize("n", [12, 20])
    def test_dressed_separable_needs_no_kernel(self, kernel_calls, n):
        # every level passes, and one chain on the input certifies every qubit's cut
        state, blocks = ghz_product((1,) * n, lu_seed=n, max_qubits=20)
        assert classify(state).blocks == blocks
        assert kernel_calls == []

    @pytest.mark.parametrize("n", sorted(CLASSIFY_LARGE_CALLS))
    def test_classify_large_shapes_are_gated(self, kernel_calls, chain_calls, n):
        shapes = [(n,), (n - n // 2, n // 2), (n - 1, 1), (1,) * n]
        perm = [int(x) for x in np.random.default_rng(n).permutation(n)]
        for shape, limit, chains in zip(shapes, CLASSIFY_LARGE_CALLS[n], CLASSIFY_LARGE_CHAINS[n]):
            state, blocks = ghz_product(shape, perm=perm, lu_seed=7)
            kernel_calls.clear()
            chain_calls.clear()
            assert classify(state).blocks == blocks
            assert len(kernel_calls) <= limit and len(chain_calls) <= chains, shape

    @pytest.mark.parametrize("shape, limit", [((16, 4), 16), ((10, 10), 4), ((2,) * 10, 45)])
    def test_unpermuted_products_skip_the_head(self, kernel_calls, shape, limit):
        # site j shares its block with site j + 1, the head, tested last: when
        # every other block passes, subadditivity decides the head (30, 9 and
        # 55 calls when each head was tested)
        state, blocks = ghz_product(shape, lu_seed=7, max_qubits=20)
        assert classify(state).blocks == blocks
        assert len(kernel_calls) <= limit

    @pytest.mark.parametrize("shape, calls", [((10, 10), 0), ((16, 4), 1), ((2,) * 10, 0), ((5, 5, 5, 5), 0)],
                             ids=["10-10", "16-4", "2x10", "5-5-5-5"])
    def test_tiling_blocks_need_no_reorder(self, kernel_calls, shape, calls):
        # blocks that tile each level in order are contracted from views of
        # the input, with no reordered copy: the peak is one contraction of
        # the input, at most half of it (4, 16, 45 and 24 purity calls, and
        # peaks of 1.0, 1.0, 2.0 and 2.0, when every block but the head was
        # tested)
        state, blocks = ghz_product(shape, lu_seed=7, max_qubits=20)
        tracemalloc.start()
        try:
            assert classify(state).blocks == blocks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.51 * state.vec.nbytes
        assert len(kernel_calls) <= calls

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(noisy_products_with_separable_head())
    def test_overlap_bound_holds_on_the_input(self, psi):
        # the separable run's blocks are certified on the input by one chain:
        # F bounds sigma_1^2 across the cut of each block it kept, and of
        # their union, so each of those cuts has defect <= 1 - F^2
        chain_bounds_hold(classify, psi)

    def test_input_is_read_in_place(self, kernel_calls):
        # the peel's top level and certification both test cuts on the
        # caller's state itself, never on a copy of it.  Undressed products,
        # whose heavy rows are basis states, leave the chain cuts to test;
        # it keeps every block of a dressed one
        rng = np.random.default_rng(47)
        tested = 0
        for n in range(2, 10):
            for shape in enumerate_partitions(n):
                perm = [int(x) for x in rng.permutation(n)]
                state, _ = ghz_product(shape, perm=perm)
                kernel_calls.clear()
                classify(state)
                on_input = [psi for psi, _ in kernel_calls if psi.n_qubits == n]
                assert all(psi is state for psi in on_input), (shape, perm)
                tested += len(on_input)
        assert tested > 0

    @pytest.mark.parametrize("shape, limit", [
        ((6, 6), 2.33), ((7, 5), 1.83), ((4, 3, 3, 2), 2.09), ((12,), 0.05), ((20,), 0.05),
    ])
    def test_peak_memory_is_gated(self, shape, limit):
        # the input is read in place, and the peel reads each level from dot
        # products of its halves; the peak is a cut tested on it by the
        # exact kernel (its reordered copy, its conjugate and their Gram
        # matrix) or by the bounds (one reordered copy), and a GHZ block
        # tests none.  A copy of the input adds 1.0
        state, blocks = ghz_product(shape, lu_seed=3, max_qubits=20)
        tracemalloc.start()
        try:
            assert classify(state).blocks == blocks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * state.vec.nbytes

    def test_normalized_level_is_one_copy(self):
        # the PureState holds the scaled array itself, not a second copy of it
        vec = ghz_product([16], lu_seed=3, max_qubits=16).state.vec
        tracemalloc.start()
        try:
            psi = _normalized(vec, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.01 * vec.nbytes
        assert np.array_equal(psi.vec, vec) and not psi.vec.flags.writeable

    @pytest.mark.parametrize("shape", [(10, 10), (6, 6), (7, 5)])
    def test_wide_cuts_need_no_kernel(self, kernel_calls, shape):
        # no cut with a smaller side of 6 qubits or more reaches the kernel
        state, blocks = ghz_product(shape, lu_seed=3, max_qubits=20)
        assert classify(state).blocks == blocks
        assert all(min(len(keep), psi.n_qubits - len(keep)) < 6 for psi, keep in kernel_calls)

    def test_two_blocks_are_certified_once(self, kernel_calls):
        # the kernel sees the input itself at n qubits; the peel's top level
        # decides the one cut on it, so certification tests no cut again
        rng = np.random.default_rng(43)
        for n in range(2, 11):
            for shape in [s for s in enumerate_partitions(n) if len(s) == 2]:
                perm = [int(x) for x in rng.permutation(n)]
                state, blocks = ghz_product(shape, perm=perm, lu_seed=int(rng.integers(2**32)))
                kernel_calls.clear()
                assert finest_factorization(state) == blocks
                assert repeated_cuts(kernel_calls, n) == 0, (shape, perm)

    def test_dressed_partitions_are_quadratic(self, kernel_calls):
        # the README's promise for any state: at most N(N+1)/2 purity evaluations
        rng = np.random.default_rng(41)
        for n in range(1, 11):
            for shape in enumerate_partitions(n):
                perm = [int(x) for x in rng.permutation(n)]
                state, blocks = ghz_product(shape, perm=perm, lu_seed=int(rng.integers(2**32)))
                kernel_calls.clear()
                assert finest_factorization(state) == blocks
                assert len(kernel_calls) <= n * (n + 1) // 2, (shape, perm)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(noisy_dressed_products())
    def test_returned_blocks_pass_on_the_input(self, psi):
        # certification skips the cuts the peel's top level decided, which is
        # sound only if every returned block passes on the input itself
        try:
            blocks = classify(psi).blocks
        except FactorizationError:
            return
        for block in blocks:
            assert 1.0 - marginal_purity(psi, block) <= 1e-9, block


@st.composite
def dressed_block_products(draw):
    """GHZ and Haar-random blocks of up to 9 qubits, permuted and LU-dressed."""
    n = draw(st.sampled_from(range(1, 10)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    psi = None
    left = n
    while left:
        width = draw(st.integers(1, left))
        left -= width
        if draw(st.booleans()):
            block = ghz(width)
        else:
            amps = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
            block = pure_state(amps / np.linalg.norm(amps))
        psi = block if psi is None else tensor(psi, block)
    psi = permute_qubits(psi, draw(st.permutations(range(n))))
    return apply_local_unitary(psi, random_local_unitary(n, rng))


class TestScanOracle:
    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(dressed_block_products())
    def test_peel_agrees_with_subset_scan(self, psi):
        blocks, near = scan_factorize(psi, 1e-9)
        report = classify(psi, tol=1e-9)
        assert report.blocks == blocks
        assert report.shape == shape_of(blocks)
        assert report.index == psi.n_qubits - len(blocks)
        assert (report.warning is not None) == near


def random_mixed_block(rng, width):
    """Random density matrix of rank 1-3 on ``width`` qubits."""
    rank = int(rng.integers(1, 4))
    g = rng.normal(size=(2**width, rank)) + 1j * rng.normal(size=(2**width, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def permute_density(mat, perm):
    """Relocate qubit ``i`` to position ``perm[i]`` on both row and column axes."""
    n = len(perm)
    inv = [int(x) for x in np.argsort(perm)]
    t = np.asarray(mat).reshape([2] * (2 * n)).transpose(inv + [n + q for q in inv])
    return t.reshape(2**n, 2**n)


@st.composite
def mixed_block_products(draw):
    """Random rank-1-3, maximally mixed and LU-dressed GHZ blocks, N <= 7, permuted."""
    n = draw(st.sampled_from(range(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = np.ones((1, 1), dtype=np.complex128)
    left = n
    while left:
        width = draw(st.integers(1, left))
        left -= width
        kind = draw(st.sampled_from(["random", "maximally mixed", "ghz"]))
        if kind == "random":
            block = random_mixed_block(rng, width)
        elif kind == "maximally mixed":
            block = np.eye(2**width) / 2**width
        else:
            block = to_density(ghz_product([width], lu_seed=int(rng.integers(2**32)))[0]).mat
        mat = np.kron(mat, block)
    return density_matrix(permute_density(mat, draw(st.permutations(range(n)))))


def mixed_towards_full_rank(rng, mat, eps):
    """``mat`` moved by ``eps`` towards a random full-rank state: a valid density matrix."""
    g = rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape)
    sigma = g @ g.conj().T
    sigma /= np.trace(sigma).real
    return mat + eps * (sigma - mat) / np.linalg.norm(sigma - mat)


class TestMixedScanOracle:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(mixed_block_products())
    def test_peel_agrees_with_subset_scan(self, rho):
        assert mixed_product_split(rho) == scan_mixed_split(rho, 1e-9)

    @pytest.mark.parametrize(
        "eps, scope, expected",
        [
            # the cuts between blocks read defects of about tol/10 and 10*tol
            (1e-5, "global", ((0, 4), (1, 5), (2,), (3,))),
            (1e-4, "global", ((0, 1, 2, 3, 4, 5),)),
            (1.4e-5, "first two blocks", ((0, 4), (1, 5), (2,), (3,))),
            (1.4e-4, "first two blocks", ((0, 2, 4), (1, 5), (3,))),
        ],
        ids=["global-tol/10", "global-10tol", "local-tol/10", "local-10tol"],
    )
    def test_noisy_products_agree_with_subset_scan(self, eps, scope, expected):
        rng = np.random.default_rng(23)
        a, b, c, d = (random_mixed_block(rng, w) for w in (2, 1, 2, 1))
        if scope == "global":
            mat = mixed_towards_full_rank(rng, np.kron(np.kron(np.kron(a, b), c), d), eps)
        else:
            mat = np.kron(np.kron(mixed_towards_full_rank(rng, np.kron(a, b), eps), c), d)
        rho = density_matrix(permute_density(mat, (4, 0, 2, 5, 1, 3)))
        assert mixed_product_split(rho) == scan_mixed_split(rho, 1e-9) == expected

    @pytest.mark.parametrize(
        "eps, expected",
        [(1.4e-5, ((0, 2, 4), (1, 3))), (1.4e-4, ((0, 1, 2, 3, 4),))],
        ids=["tol/10", "10tol"],
    )
    def test_noisy_two_block_product_agrees_with_subset_scan(self, eps, expected):
        # the (0, 2, 4) | (1, 3) cut reads a defect of 1.0e-10 and 1.0e-8
        rng = np.random.default_rng(29)
        mat = np.kron(random_mixed_block(rng, 3), random_mixed_block(rng, 2))
        mat = mixed_towards_full_rank(rng, mat, eps)
        rho = density_matrix(permute_density(mat, (0, 2, 4, 1, 3)))
        assert mixed_product_split(rho) == scan_mixed_split(rho, 1e-9) == expected

    def test_non_positive_noise_is_not_certified(self):
        # a (2,1) product plus a traceless Hermitian perturbation of norm 7e-5:
        # rho passes DensityMatrix's checks though it is not positive, and the
        # (2,1) cut reads a defect of 1.1e-8 > tol, so no cut passes
        rng = np.random.default_rng(12)
        mat = np.kron(random_mixed_block(rng, 2), random_mixed_block(rng, 1))
        h = rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape)
        h = h + h.conj().T
        h -= np.trace(h) / len(h) * np.eye(len(h))
        rho = density_matrix(mat + 7e-5 * h / np.linalg.norm(h))
        assert mixed_product_split(rho) == ((0, 1, 2),)

    def test_off_diagonal_heavy_row_is_split(self):
        # I/4 + 0.3 X (x) X is not positive: its heaviest row over qubit 0 is
        # the off-diagonal block 0.3 X, whose diagonal is zero, so the chain
        # must slice that row off its diagonal
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        pair = np.eye(4) / 4 + 0.3 * np.kron(x, x)
        for rest, expected in [(np.diag([0.7, 0.3]), ((0, 1), (2,))),
                               (np.diag([0.54, 0.06, 0.36, 0.04]), ((0, 1), (2,), (3,)))]:
            rho = density_matrix(np.kron(pair, rest))
            assert mixed_product_split(rho) == scan_mixed_split(rho, 1e-9) == expected

    def test_exact_non_positive_product_is_split(self):
        # a is Hermitian with trace 1 but purity 1 + 3.5e-9, so partial_trace
        # refuses it; tensored with a full-rank qubit m, rho = a (x) m passes
        # DensityMatrix's checks and is at Frobenius distance 0 from a (x) m
        rng = np.random.default_rng(12)
        pure = to_density(ghz_product([2], lu_seed=int(rng.integers(2**32)))[0]).mat
        shift = pure - np.eye(4) / 4
        a = pure + 2e-9 * shift / np.linalg.norm(shift)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = g @ g.conj().T / np.linalg.norm(g) ** 2
        rho = density_matrix(np.kron(a, m))
        assert mixed_product_split(rho) == ((0, 1), (2,))


@st.composite
def noisy_wide_inputs(draw):
    """Inputs whose peel meets cuts with a smaller side of 6 or more qubits:
    permuted, LU-dressed GHZ products of N 12-14 perturbed by 1e-6 to 3e-4,
    or density matrices of permuted random mixed products of N 6-8 (vec(rho)
    has 12-16 qubits) moved as far towards a full-rank state.  The first
    block leaves 6 qubits of the vector or more on either side of it."""
    pure = draw(st.booleans())
    n = draw(st.integers(12, 14) if pure else st.integers(6, 8))
    low = 6 if pure else 3
    widths = [draw(st.integers(low, n - low))]
    left = n - widths[0]
    while left:
        widths.append(draw(st.integers(1, left)))
        left -= widths[-1]
    perm = draw(st.permutations(range(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = 10 ** rng.uniform(-6.0, math.log10(3e-4))  # a drawn float clusters at the ends
    if pure:
        state, _ = ghz_product(sorted(widths, reverse=True), perm=perm, lu_seed=rng)
        noise = rng.normal(size=state.dim) + 1j * rng.normal(size=state.dim)
        vec = state.vec + eps * noise / np.linalg.norm(noise)
        return pure_state(vec / np.linalg.norm(vec))
    mat = np.ones((1, 1))
    for width in widths:
        mat = np.kron(mat, random_mixed_block(rng, width))
    return density_matrix(permute_density(mixed_towards_full_rank(rng, mat, eps), perm))


def outcome(call, arg):
    """The result of ``call(arg)``, or the text of the FactorizationError it raised."""
    try:
        return call(arg)
    except FactorizationError as exc:
        return str(exc)


class TestCutBounds:
    def test_bounds_pass_and_reject_wide_cuts(self):
        # (|0>|GHZ_6+>|GHZ_6+> + |1>|GHZ_6->|GHZ_6->)/sqrt(2): level 1, the row
        # |GHZ_6+>|GHZ_6+>, is a product across its 6|6 cut, which the upper
        # bound passes; on level 0 each GHZ_6 block with qubit 0 has defect
        # 1/2, above 10 tol on the lower bound, so both are rejected, not near
        module = sys.modules["entdex.classify"]
        plus = np.zeros(64)
        plus[0] = plus[-1] = 1.0
        minus = plus.copy()
        minus[-1] = -1.0
        vec = np.kron([1.0, 0.0], np.kron(plus, plus)) + np.kron([0.0, 1.0], np.kron(minus, minus))
        psi = pure_state(vec / np.linalg.norm(vec))
        inner, seen = module._cut_bounds, []

        def recorded(view, keep):
            bounds = inner(view, keep)
            seen.append((view.size.bit_length() - 1, tuple(keep), bounds))
            return bounds

        with mock.patch.object(module, "_cut_bounds", recorded):
            report = classify(psi)
        assert report.blocks == (tuple(range(13)),) and report.warning is None
        assert [cut for *cut, _ in seen] == [[12, tuple(range(6, 12))], [13, tuple(range(7, 13))],
                                             [13, tuple(range(1, 7))]]
        passed, *rejected = [bounds for *_, bounds in seen]
        assert passed[1] <= 1e-15
        assert [low for low, _ in rejected] == pytest.approx([0.5, 0.5])
        with mock.patch.object(module, "_BOUND_SIDE", 10**9):
            assert classify(psi) == report

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(noisy_wide_inputs())
    def test_bounds_decide_as_the_exact_kernel(self, state):
        # every cut the bounds see: the lower bound is at most the exact
        # defect and the upper bound at least it, up to the rounding
        # allowance; a cut they pass passes exactly, and a cut they reject
        # reads above 10 tol exactly, so it is neither kept nor near
        module = sys.modules["entdex.classify"]
        pure = isinstance(state, PureState)
        call = classify if pure else mixed_product_split
        inner, seen = module._cut_bounds, []

        def recorded(view, keep):
            bounds = inner(view, keep)
            seen.append((view, keep, *bounds))
            return bounds

        with mock.patch.object(module, "_cut_bounds", recorded):
            result = outcome(call, state)
        with mock.patch.object(module, "_BOUND_SIDE", 10**9):
            assert outcome(call, state) == result
        # the classifier's allowance, per qubit of the vector it peels
        allowance = module._ROUNDING_PER_QUBIT * state.n_qubits * (1 if pure else 2)
        for view, keep, low, high in seen:
            width = view.size.bit_length() - 1
            assert min(len(keep), width - len(keep)) >= 6
            flat = view.reshape(-1)  # rho's levels are strided 2-D views
            exact = 1.0 - marginal_purity(pure_state(flat / np.linalg.norm(flat)), keep)
            assert low <= exact + allowance and exact <= high + allowance, (keep, low, exact, high)
            if high + allowance <= 1e-9:
                assert exact <= 1e-9, (keep, exact, high)
            if low - allowance > 1e-8:
                assert exact > 1e-8, (keep, exact, low)


@st.composite
def grouped_sites(draw):
    """A Haar-random pure state of N 2-8 qubits, or vec(rho) of a random mixed
    state of N 2-4 qubits read as the peel reads it (site q is bits q and
    N + q), with disjoint blocks of its sites: (state, bits per site, blocks)."""
    bits = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2, 8 // bits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if bits == 2:
        amps = random_mixed_block(rng, n).reshape(-1)
    else:
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    labels = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n).filter(lambda ls: max(ls) >= 0))
    blocks = [[q for q in range(n) if labels[q] == b] for b in range(4)]
    return pure_state(amps / np.linalg.norm(amps)), bits, [b for b in blocks if b]


class TestSubadditivity:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(grouped_sites())
    def test_defect_of_a_union_is_at_most_the_sum(self, case):
        # D = 1 - tr(rho_S^2) is the Tsallis q = 2 entropy, subadditive on every
        # state; the peel skips a level's head and a certification's last block by it
        state, bits, blocks = case
        n = state.n_qubits // bits

        def defect(sites):
            return 1.0 - marginal_purity(state, [q + w for w in (0, n)[:bits] for q in sites])

        allowance = sys.modules["entdex.classify"]._ROUNDING_PER_QUBIT * state.n_qubits
        union = [q for block in blocks for q in block]
        assert defect(union) <= sum(defect(block) for block in blocks) + allowance

    def test_head_near_the_bound_is_tested_after_the_chain(self, kernel_calls):
        # |000> + a|110> + b|101>: on level 0 site 0 reads 2(a^2 + b^2) = 10.4 tol
        # and the chain keeps the block (2,) with 1 - F^2 = 2b^2 = 0.9 tol, so
        # subadditivity leaves the head (1,) at 9.5 tol or more: not decided.
        # Its test reads 2a^2 = 9.5 tol, which alone sets the warning
        a, b = math.sqrt(4.75e-9), math.sqrt(0.45e-9)
        vec = np.zeros(8)
        vec[0b000], vec[0b110], vec[0b101] = 1.0, a, b
        psi = pure_state(vec / np.linalg.norm(vec))
        report = classify(psi)
        assert report.blocks == ((0, 1), (2,))
        assert report.warning is not None
        assert [keep for state, keep in kernel_calls if state is psi] == [(1,)]

    def test_head_settled_by_the_chain_counts_its_bound(self, kernel_calls):
        # Bell(0, 1) (x) (cos t|00> + sin t|11>): level 0's chain keeps (2,) and
        # (3,) with bound B = 1 - F^2, about 2t^2, and settles the head (1,) as
        # joining site 0.  Certification of the merged head (0, 1) starts from
        # level 0's spent defects, B among them: at tol = B + 1.5 allowances,
        # between one allowance and B + 2, the union bound cannot settle it,
        # so its cut is tested on the input
        t = 1e-5
        psi = pure_state(np.kron([S2, 0, 0, S2], [math.cos(t), 0, 0, math.sin(t)]))
        module = sys.modules["entdex.classify"]
        inner, steps = module._product_overlap, []

        def recorded(level, groups, covectors, total, budget):
            for kept, overlap in inner(level, groups, covectors, total, budget):
                steps.append((groups, kept, overlap))
                yield kept, overlap

        with mock.patch.object(module, "_product_overlap", recorded):
            assert classify(psi).blocks == ((0, 1), (2,), (3,))
        assert [(g, kept) for g, kept, _ in steps] == [([[2], [3], [1]], True)] * 2
        bound = 1.0 - steps[-1][2] ** 2
        allowance = module._ROUNDING_PER_QUBIT * psi.n_qubits
        kernel_calls.clear()
        assert classify(psi, bound + 1.5 * allowance).blocks == ((0, 1), (2,), (3,))
        assert [keep for state, keep in kernel_calls if state is psi] == [(0, 1)]

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.one_of(noisy_dressed_products(), noisy_products_with_separable_head(),
                  noisy_wide_inputs(), mixed_block_products()),
        st.sampled_from([1e-9, 1e-7, 0.0]),
    )
    def test_skips_decide_as_the_tests(self, state, tol):
        # with the union bound made useless every head and every last block is
        # tested; reports (blocks and warnings), splits and error texts must not change
        call = classify if isinstance(state, PureState) else mixed_product_split
        result = outcome(lambda arg: call(arg, tol), state)
        module = sys.modules["entdex.classify"]
        with mock.patch.object(module, "_union_bound", lambda defects, allowance: math.inf):
            assert outcome(lambda arg: call(arg, tol), state) == result


@st.composite
def chain_inputs(draw):
    """Permuted, LU-dressed GHZ products of N <= 8, or permuted products of
    random mixed blocks of N <= 5 (vec(rho) has up to 10 qubits), each exact
    or moved by 1e-7 to 3e-4."""
    noisy = draw(st.booleans())
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        shape = draw(st.sampled_from(enumerate_partitions(n)))
        perm = draw(st.permutations(range(n)))
        state, _ = ghz_product(shape, perm=perm, lu_seed=draw(st.integers(0, 2**32 - 1)))
        return perturbed(draw, state, -7.0, math.log10(3e-4)) if noisy else state
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat, left = np.ones((1, 1)), n
    while left:
        width = draw(st.integers(1, left))
        left -= width
        mat = np.kron(mat, random_mixed_block(rng, width))
    if noisy:
        mat = mixed_towards_full_rank(rng, mat, 10 ** rng.uniform(-7.0, math.log10(3e-4)))
    return density_matrix(permute_density(mat, draw(st.permutations(range(n)))))


def certifying_nothing(level, groups, covectors, total, budget):
    """A product-overlap chain that keeps no contraction."""
    return ((False, 1.0) for _ in covectors)


class TestProductOverlapChain:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(chain_inputs(), st.sampled_from([1e-9, 1e-7]))
    def test_chain_bounds_every_block_it_certifies(self, state, tol):
        call = classify if isinstance(state, PureState) else mixed_product_split
        chain_bounds_hold(lambda arg: call(arg, tol), state)

    def test_chain_certifies_blocks_of_exact_products(self, kernel_calls):
        # the chain is not vacuous: on exact dressed products it keeps
        # blocks, and the kernel is left with no cut to test
        rng = np.random.default_rng(53)
        for shape in [(3, 2, 2), (2, 2, 1, 1), (4, 3, 1)]:
            perm = [int(x) for x in rng.permutation(sum(shape))]
            state, blocks = ghz_product(shape, perm=perm, lu_seed=int(rng.integers(2**32)))
            assert chain_bounds_hold(classify, state) >= len(shape) - 1
            mat = np.ones((1, 1))
            for width in shape:
                mat = np.kron(mat, random_mixed_block(rng, width))
            rho = density_matrix(permute_density(mat, perm))
            assert chain_bounds_hold(mixed_product_split, rho) >= len(shape) - 1
            assert mixed_product_split(rho) == classify(state).blocks == blocks
        assert kernel_calls == []

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.one_of(noisy_dressed_products(), noisy_products_with_separable_head(),
                  noisy_wide_inputs(), chain_inputs()),
        st.sampled_from([1e-9, 1e-7, 0.0]),
    )
    def test_chain_decides_as_the_tests(self, state, tol):
        # with a chain that keeps nothing every block goes to its cut test;
        # blocks, warnings, splits and error texts must not change
        call = classify if isinstance(state, PureState) else mixed_product_split
        result = outcome(lambda arg: call(arg, tol), state)
        module = sys.modules["entdex.classify"]
        with mock.patch.object(module, "_product_overlap", certifying_nothing):
            assert outcome(lambda arg: call(arg, tol), state) == result


class TestMixedWork:
    def test_split_builds_no_state_without_an_exact_top_level_cut(self, monkeypatch):
        # rho's entries are peeled in place; a level becomes a PureState only
        # for the exact kernel, and these peels test no cut on level 0
        module, built = sys.modules["entdex.classify"], []

        def counted(n_qubits, vec):
            built.append(n_qubits)
            return PureState(n_qubits, vec)

        monkeypatch.setattr(module, "PureState", counted)
        g = np.random.default_rng(17).normal(size=(2**7, 6)).view(np.complex128)
        mats = [to_density(ghz_product([n], lu_seed=n)[0]).mat for n in (4, 8, 10)]
        for mat in mats + [g @ g.conj().T / np.vdot(g, g).real]:
            n = len(mat).bit_length() - 1
            assert mixed_product_split(density_matrix(mat)) == (tuple(range(n)),)
        assert built == []

    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_ghz_density_needs_no_partial_trace(self, kernel_calls, n):
        assert mixed_product_split(to_density(ghz(n))) == (tuple(range(n)),)
        assert len(kernel_calls) <= n - 1

    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_dressed_ghz_density_needs_no_kernel(self, kernel_calls, n):
        state, blocks = ghz_product([n], lu_seed=n)
        assert mixed_product_split(to_density(state)) == blocks
        assert kernel_calls == []

    def test_random_products_are_linear(self, kernel_calls, chain_calls):
        # a chain on each level with two blocks or more, and in certification,
        # keeps every block but one, which subadditivity decides (196 purity
        # calls when each block was tested)
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            mat, left, blocks = np.ones((1, 1)), n, []
            while left:
                width = int(rng.integers(1, left + 1))
                blocks.append(range(n - left, n - left + width))
                left -= width
                mat = np.kron(mat, random_mixed_block(rng, width))
            perm = [int(x) for x in rng.permutation(n)]
            expected = tuple(sorted(tuple(sorted(perm[q] for q in b)) for b in blocks))
            kernel_calls.clear()
            chain_calls.clear()
            assert mixed_product_split(density_matrix(permute_density(mat, perm))) == expected
            assert kernel_calls == [] and len(chain_calls) <= n, (n, perm)

    def test_certification_is_one_cut_test_per_block(self, kernel_calls, bound_calls, chain_calls):
        # the head's cut on level 0 is certified by subadditivity, from the
        # bound of the level-0 chain that kept the two other blocks (12 purity
        # calls and 2 bounds when each block was tested)
        rng = np.random.default_rng(7)
        mat = np.kron(np.kron(random_mixed_block(rng, 3), random_mixed_block(rng, 3)),
                      random_mixed_block(rng, 2))
        perm = (5, 2, 7, 0, 3, 6, 1, 4)
        rho = density_matrix(permute_density(mat, perm))
        assert mixed_product_split(rho) == ((0, 3, 6), (1, 4), (2, 5, 7))
        assert kernel_calls == [] and bound_calls == [] and len(chain_calls) <= 5

    def test_two_block_split_is_certified_once(self, kernel_calls, bound_calls, chain_calls):
        # 7 purity calls and 3 bounds when each block was tested
        rng = np.random.default_rng(5)
        mat = np.kron(random_mixed_block(rng, 4), random_mixed_block(rng, 4))
        perm = (6, 1, 3, 0, 7, 2, 4, 5)
        rho = density_matrix(permute_density(mat, perm))
        assert mixed_product_split(rho) == ((0, 1, 3, 6), (2, 4, 5, 7))
        assert kernel_calls == [] and bound_calls == [] and len(chain_calls) <= 6

    @pytest.mark.parametrize("shape, perm, calls, bounds, chains", [
        ((4, 4), (4, 7, 6, 5, 0, 1, 2, 3), 0, 0, 3),
        ((3, 3, 2), (1, 0, 4, 2, 3, 5, 6, 7), 0, 0, 4),
        ((5, 3), (5, 7, 6, 3, 1, 2, 4, 0), 0, 0, 4),
        ((2, 2, 2, 2), (7, 6, 4, 2, 3, 1, 0, 5), 0, 0, 3),
    ], ids=["4-4", "3-3-2", "5-3", "2-2-2-2"])
    def test_benchmark_layouts_are_gated(self, kernel_calls, bound_calls, chain_calls,
                                         shape, perm, calls, bounds, chains):
        # the mixed-split benchmark's layouts.  On each level with two blocks
        # or more, one chain keeps every block but site j's partner, which
        # subadditivity decides, whichever block it is (purity calls and
        # bounds per op when each block was tested: (4, 4) 1 and 2, (3, 3, 2)
        # 8 and 2, (5, 3) 6 and 2, (2, 2, 2, 2) 12 and 0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            mat = np.ones((1, 1))
            for width in shape:
                mat = np.kron(mat, random_mixed_block(rng, width))
            kernel_calls.clear()
            bound_calls.clear()
            chain_calls.clear()
            mixed_product_split(density_matrix(permute_density(mat, perm)))
            assert len(kernel_calls) <= calls and len(bound_calls) <= bounds
            assert len(chain_calls) <= chains

    @pytest.mark.parametrize("shape", [(4, 4), (5, 5), (7, 3), (4, 3, 3)])
    def test_wide_cuts_need_no_kernel(self, kernel_calls, shape):
        # no cut of vec(rho) with 6 qubits or more on each side reaches the kernel
        state, blocks = ghz_product(shape, lu_seed=3)
        assert mixed_product_split(to_density(state)) == blocks
        assert all(min(len(keep), psi.n_qubits - len(keep)) < 6 for psi, keep in kernel_calls)

    @pytest.mark.parametrize(
        "shape, limit", [((10,), 2.01), ((5, 5), 2.01), ((4, 3, 3), 2.01), ((7, 3), 2.01)]
    )
    def test_peak_memory_is_gated(self, shape, limit):
        # rho is read in place; the peak is the level-0 Gram matrix's reordered
        # rows and their conjugate.  A cut's bounds take one reordered copy of
        # rho.  One more full-size temporary adds 1.0 to the ratio
        state, blocks = ghz_product(shape, lu_seed=3)
        rho = to_density(state)
        tracemalloc.start()
        try:
            assert mixed_product_split(rho) == blocks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * rho.mat.nbytes
