"""k-partite entanglement measures on explicit multipartite pure states.

The package computes a family of producibility-graded entanglement
measures on small pure states given as explicit tensor products, locates
minimizing bounded-block partitions with witnesses, and property-audits
the postulates the measures are supposed to satisfy.
"""

from .audit import (
    AXIOMS,
    DEFAULT_VARIANTS,
    AuditConfig,
    AuditReport,
    AxiomCheck,
    AxiomInstance,
    check_axiom,
    evaluate_instance,
    expected_verdict,
    run_suite,
)
from .factorize import Factor, FactorDecomposition, classify, finest_factorization
from .measures import (
    MEASURE_KINDS,
    MarginalCache,
    MeasureResult,
    MeasureSpec,
    convex_roof_upper_bound,
    evaluate_measure,
    parse_measure,
    unified_mem,
)
from .partitions import (
    Partition,
    apply_coarsening,
    bell_number,
    coarsening_related,
    count_k_fineness,
    iter_k_fineness,
    partition_from_text,
    partition_to_text,
)
from .qstate import (
    AmplitudesFactor,
    DensityMatrix,
    GhzFactor,
    MaxEntFactor,
    NumericalContractError,
    PureState,
    StateSpec,
    SystemLayout,
    WFactor,
    build_state,
    evaluate,
    permute_parties,
    random_pure,
    reduced_density,
    regroup,
    sample_check,
    spec_from_dict,
    spec_to_dict,
)
from .redfun import (
    CONCURRENCE,
    ENTROPY,
    KINDS,
    ReducedFunctionSpec,
    evaluate_spectrum,
    format_redfun,
    parse_redfun,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
