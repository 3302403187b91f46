"""One integer rule for every count, width, part, bit, index and seed.

Every entry point takes its integers through ``states.integer``: a bool or a
non-integer is refused with a ValueError that names it, never truncated, and
NumPy integers pass as Python ints.
"""
import re

import numpy as np
import pytest

from entdex import cli
from entdex.classify import Ensemble
from entdex.construct import basis_state, ghz, ghz_product, random_local_unitary
from entdex.partitions import (
    as_partition,
    canonical_set_partition,
    enumerate_partitions,
    partition_count,
)
from entdex.properties import ghz_epr_arithmetic, run_property_suite
from entdex.states import DensityMatrix, PureState, integer


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(lambda: as_partition([2.7, 1.2]), 2.7, id="as_partition([2.7, 1.2])"),
        pytest.param(lambda: ghz_product([2.9, 1]), 2.9, id="ghz_product([2.9, 1])"),
        pytest.param(
            lambda: canonical_set_partition([[0.5, 2.9], [1.0]]),
            0.5,
            id="canonical_set_partition([[0.5, 2.9], [1.0]])",
        ),
        pytest.param(
            lambda: ghz_product([2, 1], assignment=[[0.5, 2.9], [1.0]]),
            0.5,
            id="ghz_product([2, 1], assignment=[[0.5, 2.9], [1.0]])",
        ),
        pytest.param(lambda: basis_state([True, 0.0]), True, id="basis_state([True, 0.0])"),
        pytest.param(lambda: basis_state([1, 0.0]), 0.0, id="basis_state([1, 0.0])"),
        pytest.param(lambda: Ensemble(True, ((1.0, (1,)),)), True, id="Ensemble(True, ...)"),
        pytest.param(lambda: run_property_suite(1, trials=2.5), 2.5, id="run_property_suite(1, trials=2.5)"),
        pytest.param(lambda: run_property_suite(1, max_n=4.5), 4.5, id="run_property_suite(1, max_n=4.5)"),
        pytest.param(lambda: ghz_epr_arithmetic(3.5), 3.5, id="ghz_epr_arithmetic(3.5)"),
        pytest.param(lambda: PureState(1.0, [1.0, 0.0]), 1.0, id="PureState(1.0, ...)"),
        pytest.param(lambda: DensityMatrix(True, np.eye(2) / 2), True, id="DensityMatrix(True, ...)"),
        pytest.param(lambda: ghz(2.0), 2.0, id="ghz(2.0)"),
        pytest.param(lambda: random_local_unitary(2.5, 1), 2.5, id="random_local_unitary(2.5, 1)"),
        pytest.param(lambda: random_local_unitary(2, -1), -1, id="random_local_unitary(2, -1)"),
        pytest.param(lambda: ghz_product([2], lu_seed=True), True, id="ghz_product([2], lu_seed=True)"),
        pytest.param(lambda: ghz_product([2], lu_seed=2.9), 2.9, id="ghz_product([2], lu_seed=2.9)"),
        pytest.param(lambda: run_property_suite(1, seed=2.5), 2.5, id="run_property_suite(1, seed=2.5)"),
        pytest.param(lambda: run_property_suite(1, seed=True), True, id="run_property_suite(1, seed=True)"),
        pytest.param(lambda: run_property_suite(1, seed=-1), -1, id="run_property_suite(1, seed=-1)"),
        pytest.param(lambda: run_property_suite(True), True, id="run_property_suite(True)"),
        pytest.param(lambda: run_property_suite(1.0), 1.0, id="run_property_suite(1.0)"),
        pytest.param(lambda: enumerate_partitions(4.0), 4.0, id="enumerate_partitions(4.0)"),
        pytest.param(lambda: partition_count(True), True, id="partition_count(True)"),
    ],
)
def test_non_integers_are_refused_by_name(call, value):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call()


def test_numpy_integers_pass_as_python_ints():
    assert enumerate_partitions(np.int64(4)) == enumerate_partitions(4)
    assert all(type(p) is int for parts in enumerate_partitions(np.int64(4)) for p in parts)
    assert partition_count(np.uint8(5)) == 7
    assert as_partition(np.array([2, 1])) == (2, 1)
    assert type(as_partition(np.array([2, 1]))[0]) is int
    blocks = canonical_set_partition([np.array([0, 2]), [np.int64(1)]])
    assert blocks == ((0, 2), (1,)) and all(type(q) is int for b in blocks for q in b)
    assert type(ghz(np.int64(3)).n_qubits) is int
    assert basis_state(np.array([1, 0])).vec[2] == 1.0
    assert random_local_unitary(np.int64(2), 1).n_qubits == 2
    assert Ensemble(np.int64(2), ((1.0, (1, 1)),)).n_qubits == 2
    assert run_property_suite(1, max_n=np.int64(3), trials=np.int64(2)) == run_property_suite(
        1, max_n=3, trials=2
    )
    assert type(run_property_suite(np.int64(2), max_n=3, trials=2).property_id) is int
    assert ghz_epr_arithmetic(np.int64(3)) == ghz_epr_arithmetic(3)
    dressed = ghz_product(np.array([2, 1]), perm=np.array([2, 0, 1]), lu_seed=np.int64(4))
    assert dressed.blocks == ((0, 2), (1,)) and all(type(q) is int for b in dressed.blocks for q in b)


def test_seeds_keep_their_matrices():
    # an integer seed, a NumPy integer and a Generator from that seed draw alike
    expected = random_local_unitary(3, 5).matrices
    for seed in (np.int64(5), np.random.default_rng(5)):
        assert all(np.array_equal(a, b) for a, b in zip(random_local_unitary(3, seed).matrices, expected))


def test_cli_names_a_negative_seed(capsys, tmp_path):
    rc = cli.main(["make", "--partition", "2", "--lu-seed", "-1", "-o", str(tmp_path / "s.json")])
    assert rc == 1
    assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_integers_out_of_range_stay_refused():
    with pytest.raises(ValueError, match="n_qubits must be a positive integer, got 0"):
        Ensemble(0, ((1.0, (1,)),))
    with pytest.raises(ValueError, match="bits must be 0 or 1, got -1"):
        basis_state([-1])


def test_integer_formats_the_message_only_on_refusal():
    assert integer(np.uint8(3), 1, "{!r} {!r}") == 3  # two fields: formatting would fail
    for bad in (True, np.bool_(False), 2.0, "2", None, 0):
        with pytest.raises(ValueError, match=re.escape(f"count {bad!r}")):
            integer(bad, 1, "count {!r}")
