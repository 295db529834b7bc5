"""The layers the traced run measures, and what each layer metric should move.

A layer is one module of the ``plovlab`` package.  The traced run wraps the
public functions below inside each op process and patches every name under
which the package looks them up, so a call is timed wherever it comes from.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

WORKLOADS = ("table2", "plov", "kernel")


def nnz(matrix) -> int:
    """Nonzeros of an ``ExactMatrix``."""
    return sum(len(row) for row in matrix.rows)


# (span name, module, attribute, counters(args, result) -> {counter: increment})
# An attribute "Class.method" patches the method on the class.  Two functions
# may share a span name; a call nested in a span of the same name is folded
# into the outer span (enumerate_partitions is recursive and partition_set
# calls it).
SPANS = (
    ("cli.self", "plovlab.cli", "main", None),
    ("partitions.enumerate", "plovlab.partitions", "partition_set",
     lambda a, r: {"partitions.members": len(r)}),
    ("partitions.enumerate", "plovlab.partitions", "enumerate_partitions",
     lambda a, r: {"partitions.members": len(r)}),
    ("incidence.build", "plovlab.incidence", "build_incidence",
     lambda a, r: {"incidence.nnz": nnz(r.data)}),
    ("incidence.truncate", "plovlab.incidence", "truncate_columns",
     lambda a, r: {"incidence.cols_kept": len(r[1])}),
    ("incidence.nullity_truncated", "plovlab.incidence", "nullity_truncated", None),
    ("incidence.kernel_check", "plovlab.incidence", "verify_kernel_dim_one", None),
    ("exactmat.rank", "plovlab.exactmat", "matrix_rank",
     lambda a, r: {"exactmat.input_nnz": nnz(a[0])}),
    ("exactmat.nullspace", "plovlab.exactmat", "nullspace_basis",
     lambda a, r: {"exactmat.input_nnz": nnz(a[0]), "exactmat.kernel_dim": len(r)}),
    ("exactmat.matvec", "plovlab.exactmat", "ExactMatrix.matvec", None),
    ("symfun.coeff_vector", "plovlab.symfun", "vandermonde_coeff_vector", None),
    ("symfun.vandermonde", "plovlab.symfun", "vandermonde_poly",
     lambda a, r: {"symfun.poly_terms": len(r.terms)}),
    ("symfun.mhat_expand", "plovlab.symfun", "mhat_expand", None),
    ("dynamics.model", "plovlab.dynamics", "model_from_json", None),
    ("dynamics.pipeline", "plovlab.dynamics", "run_pipeline", None),
    ("dynamics.prepare", "plovlab.dynamics", "unipotent_power", None),
    ("dynamics.prepare", "plovlab.dynamics", "nilpotent_log", None),
    ("dynamics.degree", "plovlab.dynamics", "degree_growth_exponent", None),
    ("dynamics.w_vector", "plovlab.dynamics", "w_vector", None),
    ("dynamics.linear_system", "plovlab.dynamics", "verify_linear_system", None),
    ("dynamics.kappa", "plovlab.dynamics", "find_distinguished_kappa", None),
    ("dynamics.hilbert", "plovlab.dynamics", "hilbert_top_coefficient_check", None),
    ("dynamics.delta", "plovlab.dynamics", "delta_polynomial", None),
    ("dynamics.intersect", "plovlab.dynamics", "AbelianSurrogate.intersect", None),
)

# Memo caches that a CLI call starts with empty.  An op that finds one filled
# ran in a process that already served another op.
COLD_CACHES = (
    ("plovlab.partitions", "enumerate_partitions"),
    ("plovlab.partitions", "_count_cache"),
    ("plovlab.symfun", "_vandermonde_square"),
    ("plovlab.symfun", "mhat_poly"),
    ("plovlab.dynamics", "_bernoulli"),
    ("plovlab.dynamics", "_cyclotomic"),
)

# per-layer metric -> (workloads it belongs to, end-to-end metrics it should move)
# On a workload it belongs to, a metric must record at least one call (a time)
# or a nonzero count, so a renamed or re-imported function fails the run
# instead of reporting 0.
MOVES = {
    "exactmat.rank_s": (("table2",), ("op_p50_s", "ops_per_s")),
    "exactmat.rank_calls": (("table2",), ("op_p50_s", "ops_per_s")),
    "exactmat.nullspace_s": (("kernel",), ("op_p50_s",)),
    "exactmat.kernel_dim": (("kernel",), ("op_p50_s",)),
    "exactmat.matvec_s": (("plov",), ("op_p50_s",)),
    "exactmat.input_nnz": (("table2", "kernel"), ("op_p50_s",)),
    "symfun.vandermonde_s": (("kernel",), ("op_p50_s",)),
    "symfun.mhat_expand_s": (("kernel",), ("op_p50_s",)),
    "symfun.poly_terms": (("kernel",), ("op_p50_s",)),
    "dynamics.intersect_s": (("plov",), ("op_p50_s", "op_tail_s", "cpu_per_op_s")),
    "dynamics.intersect_calls": (("plov",), ("op_p50_s", "op_tail_s", "cpu_per_op_s")),
    "dynamics.delta_s": (("plov",), ("op_p50_s", "op_tail_s")),
    "dynamics.delta_calls": (("plov",), ("op_p50_s", "op_tail_s")),
    "dynamics.prepare_s": (("plov",), ("op_p50_s",)),
    "dynamics.degree_s": (("plov",), ("op_p50_s",)),
    "dynamics.w_vector_s": (("plov",), ("op_p50_s",)),
    "dynamics.w_vector_calls": (("plov",), ("op_p50_s",)),
    "dynamics.linear_system_s": (("plov",), ("op_p50_s",)),
    "dynamics.kappa_s": (("plov",), ("op_p50_s",)),
    "dynamics.hilbert_s": (("plov",), ("op_tail_s",)),
    "incidence.build_s": (WORKLOADS, ("op_p50_s", "ops_per_s")),
    "incidence.build_calls": (WORKLOADS, ("op_p50_s", "ops_per_s")),
    "incidence.nnz": (WORKLOADS, ("op_p50_s",)),
    "incidence.truncate_s": (("table2", "kernel"), ("op_p50_s",)),
    "incidence.cols_kept": (("table2", "kernel"), ("op_p50_s",)),
    "partitions.enumerate_s": (WORKLOADS, ("op_p50_s",)),
    "partitions.enumerate_calls": (WORKLOADS, ("op_p50_s",)),
    "partitions.members": (WORKLOADS, ("op_p50_s",)),
    "cli.self_s": (WORKLOADS, ("op_p50_s", "ops_per_s")),
    "cli.report_bytes": (WORKLOADS, ("op_p50_s",)),
}

# Module totals: the self time of every span of the module, summed.
MODULE_TOTALS = ("exactmat", "symfun", "dynamics", "incidence")
