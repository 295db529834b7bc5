"""Exact-arithmetic toolkit for restricted-partition incidence matrices and
polynomial volume growth of zero-entropy automorphisms."""

from .exactmat import ExactMatrix, SparseMultiPoly, matrix_rank, nullspace_basis
from .partitions import (
    PartitionSet,
    bump,
    count,
    decompose,
    enumerate_partitions,
    partition_set,
)
from .incidence import (
    IncidenceMatrix,
    block_form,
    build_incidence,
    kappa_of,
    nullity_truncated,
    table2_tuple,
    truncate_columns,
    verify_full_rank,
    verify_kernel_dim_one,
)
from .symfun import (
    CoeffVector,
    apply_derivation,
    hilbert_product,
    integrate_unit_cube,
    mhat_expand,
    vandermonde_coeff_vector,
)
from .dynamics import (
    AbelianSurrogate,
    check_principles,
    degree_growth_exponent,
    delta_polynomial,
    find_distinguished_kappa,
    hilbert_top_coefficient_check,
    nilpotent_log,
    power_sum_polynomial,
    run_pipeline,
    unipotent_power,
    verify_linear_system,
    w_vector,
)

__version__ = "0.1.0"
