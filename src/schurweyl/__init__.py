"""Exact combinatorics of Schur-Weyl duality with a dense tensor oracle.

The algebraic layer (partitions, characters, coefficients, symmetric
functions, Werner-state weight calculus) is exact integer and rational
arithmetic throughout; the oracle layer rebuilds the same quantities as
literal matrices on small tensor powers and re-measures them.
"""

from .characters import dim_sym, dim_unitary, dim_unitary_charsum, mn_character
from .coefficients import (
    branching_sum_kron,
    branching_sum_lr,
    dim_skew,
    kronecker,
    littlewood_richardson,
    littlewood_richardson_char,
)
from .errors import DEFAULT_SIZE_CAP, ConsistencyError, SizeCapError, size_cap
from .partitions import (
    Partition,
    as_partition,
    class_size,
    conjugate,
    contains,
    partitions_of,
    skew_standard_count,
)
from .symfunc import falling_factorial, schur_eval, shifted_schur_eval
from .werner import (
    IntPolynomial,
    RootRange,
    WernerWeights,
    character_polynomial,
    cycle_sum_expansion,
    definetti_bound_dual,
    definetti_bound_sym,
    degrees_of_freedom,
    dual_trace,
    dual_twirl_cycle,
    fully_mixed,
    horn_witness,
    recombine_cycle_sum,
    root_range,
    trace_distance,
    trace_out_sym,
    twirl_power,
)

__version__ = "0.1.0"

# the dense oracle needs numpy, so it is imported on first use of one of
# its names rather than with the package (PEP 562)
_ORACLE_NAMES = frozenset({
    "DenseOperator", "first_standard_tableau", "identity_operator", "partial_trace_inner",
    "partial_trace_subsystems", "permutation_operator", "schur_weyl_projector",
    "schur_weyl_weights", "standard_tableaux", "symmetric_average", "trace_norm",
    "verify_general_dual", "werner_combination", "young_projector",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ConsistencyError",
    "DEFAULT_SIZE_CAP",
    "DenseOperator",
    "IntPolynomial",
    "Partition",
    "RootRange",
    "SizeCapError",
    "WernerWeights",
    "as_partition",
    "branching_sum_kron",
    "branching_sum_lr",
    "character_polynomial",
    "class_size",
    "conjugate",
    "contains",
    "cycle_sum_expansion",
    "definetti_bound_dual",
    "definetti_bound_sym",
    "degrees_of_freedom",
    "dim_skew",
    "dim_sym",
    "dim_unitary",
    "dim_unitary_charsum",
    "dual_trace",
    "dual_twirl_cycle",
    "falling_factorial",
    "first_standard_tableau",
    "fully_mixed",
    "horn_witness",
    "identity_operator",
    "kronecker",
    "littlewood_richardson",
    "littlewood_richardson_char",
    "mn_character",
    "partial_trace_inner",
    "partial_trace_subsystems",
    "partitions_of",
    "permutation_operator",
    "recombine_cycle_sum",
    "root_range",
    "schur_eval",
    "schur_weyl_projector",
    "schur_weyl_weights",
    "shifted_schur_eval",
    "size_cap",
    "skew_standard_count",
    "standard_tableaux",
    "symmetric_average",
    "trace_distance",
    "trace_norm",
    "trace_out_sym",
    "twirl_power",
    "verify_general_dual",
    "werner_combination",
    "young_projector",
]
