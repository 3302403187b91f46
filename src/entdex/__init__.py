"""N-qubit entanglement classes from tensor-factor structure.

Every N-qubit pure state that factors into p irreducible blocks carries the
index E = N - p; the N possible values 0..N-1 are the entanglement classes.
This package enumerates the classes (integer partitions of N), constructs
representative block-product states, recovers the block structure of
arbitrary pure states numerically, and checks the four properties any
sensible entanglement measure must satisfy.
"""
from .classify import (
    ClassReport,
    Ensemble,
    FactorizationError,
    classify,
    ensemble_index,
    entanglement_index,
    finest_factorization,
    minimal_pure_subset,
    mixed_product_split,
)
from .construct import GhzProduct, basis_state, ghz, ghz_product, random_local_unitary
from .partitions import (
    as_partition,
    canonical_set_partition,
    class_spectrum,
    enumerate_partitions,
    index_of,
    partition_count,
    shape_of,
)
from .properties import (
    ArithmeticReport,
    MeasurementOutcome,
    PropertyReport,
    expected_index_after,
    ghz_epr_arithmetic,
    measure_qubit,
    run_property_suite,
)
from .states import (
    DEFAULT_MAX_QUBITS,
    DEFAULT_TOL,
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

__version__ = "0.1.0"

__all__ = [
    "ArithmeticReport",
    "ClassReport",
    "DEFAULT_MAX_QUBITS",
    "DEFAULT_TOL",
    "DensityMatrix",
    "Ensemble",
    "FactorizationError",
    "GhzProduct",
    "LocalUnitary",
    "MeasurementOutcome",
    "PropertyReport",
    "PureState",
    "apply_local_unitary",
    "as_partition",
    "basis_state",
    "canonical_set_partition",
    "class_spectrum",
    "classify",
    "density_matrix",
    "ensemble_index",
    "entanglement_index",
    "enumerate_partitions",
    "expected_index_after",
    "finest_factorization",
    "ghz",
    "ghz_epr_arithmetic",
    "ghz_product",
    "index_of",
    "marginal_purity",
    "measure_qubit",
    "minimal_pure_subset",
    "mixed_product_split",
    "partial_trace",
    "partition_count",
    "permute_qubits",
    "pure_state",
    "purity",
    "random_local_unitary",
    "run_property_suite",
    "shape_of",
    "tensor",
    "to_density",
]
