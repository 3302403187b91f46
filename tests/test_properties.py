"""Tests for the measurement spot checks and the four property suites."""
import math

import numpy as np
import pytest

from entdex.classify import entanglement_index
from entdex.construct import basis_state, ghz, ghz_product
from entdex.properties import (
    expected_index_after,
    ghz_epr_arithmetic,
    measure_qubit,
    run_property_suite,
)
from entdex.states import DEFAULT_TOL

S2 = 1.0 / math.sqrt(2.0)


class TestMeasureQubit:
    def test_ghz3_z_collapses_to_basis_products(self):
        outcomes = measure_qubit(ghz(3), 2, "Z")
        assert len(outcomes) == 2
        for outcome, target in zip(outcomes, ([1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1])):
            assert abs(outcome.probability - 0.5) < 1e-12
            np.testing.assert_allclose(outcome.post_state.vec, target, atol=1e-12)

    def test_ghz3_x_leaves_bell_pair(self):
        outcomes = measure_qubit(ghz(3), 2, "X")
        assert len(outcomes) == 2
        plus, minus = outcomes
        # expanding GHZ_3 in the X basis of qubit 2 by hand
        np.testing.assert_allclose(
            plus.post_state.vec, [0.5, 0.5, 0, 0, 0, 0, 0.5, 0.5], atol=1e-12
        )
        np.testing.assert_allclose(
            minus.post_state.vec, [0.5, -0.5, 0, 0, 0, 0, -0.5, 0.5], atol=1e-12
        )
        for outcome in outcomes:
            assert abs(outcome.probability - 0.5) < 1e-12
            assert entanglement_index(outcome.post_state) == 1

    def test_eigenstate_gives_single_outcome(self):
        outcomes = measure_qubit(basis_state([0, 0]), 0, "Z")
        assert len(outcomes) == 1
        assert abs(outcomes[0].probability - 1.0) < 1e-12
        np.testing.assert_allclose(outcomes[0].post_state.vec, [1, 0, 0, 0])

    def test_outcome_completeness(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            state, _ = ghz_product(
                [n], perm=[int(x) for x in rng.permutation(n)], lu_seed=int(rng.integers(2**32))
            )
            q = int(rng.integers(n))
            for basis in ("Z", "X"):
                outcomes = measure_qubit(state, q, basis)
                assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-9
                for o in outcomes:
                    assert abs(np.linalg.norm(o.post_state.vec) - 1.0) < 1e-9

    def test_errors(self):
        with pytest.raises(ValueError, match="basis"):
            measure_qubit(ghz(2), 0, "Y")
        with pytest.raises(ValueError, match="range"):
            measure_qubit(ghz(2), 5, "Z")

    @pytest.mark.parametrize("bad", [1.9, True, np.float64(0.0)])
    def test_non_integer_qubit_rejected(self, bad):
        with pytest.raises(ValueError, match="is not an integer"):
            measure_qubit(ghz(3), bad, "Z")

    def test_numpy_integer_qubit(self):
        outcomes = measure_qubit(ghz(3), np.int64(2), "Z")
        assert [o.probability for o in outcomes] == pytest.approx([0.5, 0.5])


class TestExpectedIndexAfter:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_ghz_z_fully_collapses(self, n):
        assert abs(expected_index_after(ghz(n), n - 1, "Z")) < 1e-9

    @pytest.mark.parametrize("n", range(2, 7))
    def test_ghz_x_keeps_smaller_block(self, n):
        assert abs(expected_index_after(ghz(n), n - 1, "X") - (n - 2)) < 1e-9

    def test_separable_stays_zero(self):
        for basis in ("Z", "X"):
            assert expected_index_after(basis_state([0, 0, 0]), 1, basis) == 0.0

    def test_never_increases_on_random_products(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            perm = [int(x) for x in rng.permutation(n)]
            state, _ = ghz_product([n], perm=perm, lu_seed=int(rng.integers(2**32)))
            before = entanglement_index(state)
            q = int(rng.integers(n))
            for basis in ("Z", "X"):
                assert expected_index_after(state, q, basis) <= before + 1e-9


class TestPropertySuites:
    @pytest.mark.parametrize("pid", [1, 2, 4])
    def test_exact_suites_report_clean(self, pid):
        report = run_property_suite(pid, max_n=5, trials=50, seed=1)
        assert report.failures == ()
        assert report.max_deviation == 0.0

    def test_additivity_suite_at_the_qubit_cap(self):
        # n_a = 14 used to leave an empty range for n_b
        report = run_property_suite(4, max_n=14, trials=50, seed=1)
        assert report.failures == ()
        assert report.cases_run == 50

    @pytest.mark.parametrize("pid", [2, 3, 4])
    def test_suites_above_the_default_cap(self, pid):
        # max_n=16 raises the construction cap to 16 qubits (seed 1 reaches 16 and 15)
        report = run_property_suite(pid, max_n=16, trials=10, seed=1)
        assert report.failures == ()

    def test_measurement_suite_clean(self):
        report = run_property_suite(3, max_n=5, trials=50, seed=1)
        assert report.failures == ()
        assert report.max_deviation <= DEFAULT_TOL
        assert report.cases_run == 100  # two bases per trial

    @pytest.mark.parametrize("pid", [1, 2, 3, 4])
    def test_deterministic(self, pid):
        a = run_property_suite(pid, max_n=4, trials=25, seed=9)
        b = run_property_suite(pid, max_n=4, trials=25, seed=9)
        assert a == b

    @pytest.mark.parametrize("pid", [1, 2, 3, 4])
    def test_failures_iff_deviation_beyond_tolerance(self, pid):
        report = run_property_suite(pid, max_n=4, trials=25, seed=2)
        assert (report.failures == ()) == (report.max_deviation <= (DEFAULT_TOL if pid == 3 else 0.0))

    def test_seed_changes_cases(self):
        a = run_property_suite(1, max_n=5, trials=10, seed=1)
        b = run_property_suite(1, max_n=5, trials=10, seed=2)
        assert a.cases_run == b.cases_run
        # both clean, but they are distinct runs; equality only on same seed
        assert a == run_property_suite(1, max_n=5, trials=10, seed=1)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_property_suite(9)
        with pytest.raises(ValueError):
            run_property_suite(1, max_n=1)
        with pytest.raises(ValueError):
            run_property_suite(1, max_n=21)
        with pytest.raises(ValueError):
            run_property_suite(1, trials=0)


class TestGhzEprArithmetic:
    def test_all_widths_to_ten(self):
        report = ghz_epr_arithmetic(10)
        assert report.all_ok
        assert len(report.checks) == 9
        for check in report.checks:
            assert check.block_index == check.width - 1
            assert check.epr_pair_equivalent == check.width - 1
            assert check.ok

    def test_bounds(self):
        with pytest.raises(ValueError):
            ghz_epr_arithmetic(1)
        with pytest.raises(ValueError):
            ghz_epr_arithmetic(15)
