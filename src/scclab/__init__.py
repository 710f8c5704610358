"""scclab — an exact laboratory for stochastic choice correspondences.

Generate datasets from parametric choice models, decide the postulates that
characterize each model (with concrete counterexample witnesses), recover
parameters constructively, and classify datasets in the model-relationship
diagram.  All structured computation runs in exact rational arithmetic;
empirical data runs in float mode under explicit tolerances.
"""

from .core import (
    DEFAULT_TOL,
    MAX_ITEMS,
    IncompleteDatasetError,
    InfeasibleStructureError,
    InvalidParamsError,
    MenuAbsentError,
    MissingAttributesError,
    MissingBinaryMenuError,
    MissingWeightError,
    MixedFormatError,
    PreconditionFailedError,
    Prob,
    SCC,
    SchemaError,
    ScclabError,
    ShapeError,
    ToleranceConfig,
    Universe,
    Violation,
    WrongVariantError,
    ZeroTotalMenuError,
    bits,
    is_full_support,
    is_positive,
    is_zero,
    nonempty_submasks,
    popcount,
    prob_lookup,
    probs_equal,
    require_complete,
    submasks,
    support,
    validate_scc,
)
from .models import (
    ARParams,
    ArAttribute,
    Aspect,
    EBAParams,
    ICParams,
    LogitParams,
    ModelSpec,
    ModelTag,
    NSCParams,
    NestedLogitParams,
    RCGParams,
    RRMParams,
    eval_ar_item,
    evaluate,
    generate_scc,
    menu_row,
)
from .axioms import (
    AxiomId,
    AxiomReport,
    WITNESS_CAP,
    Witness,
    check_additivity,
    check_full_support,
    check_iis,
    check_nsc_structure,
    check_paf,
    check_piis,
    check_positivity,
    check_relative_additivity,
    check_rrm_suite,
    check_special,
    derive_revealed_constraints,
    derive_revealed_nests,
    full_battery,
    monotonicity_violations,
    recheck_witness,
    run_axiom,
    support_transfer_violations,
)
from .identify import (
    RecoveryResult,
    identify_ic,
    identify_logit,
    identify_nsc,
    identify_rcg,
    identify_rrm,
    round_trip_verify,
)
from .classify import (
    ClassificationReport,
    MEMBERSHIP_KEYS,
    MembershipVerdict,
    classify,
    verify_relationships,
)
from .fuzz import (
    ALL_VARIANTS,
    CHARACTERIZING_AXIOMS,
    FuzzFailure,
    FuzzSummary,
    GenConfig,
    fuzz_characterization,
    fuzz_relationships,
    sample_nest_invariant_params,
    sample_params,
    sample_singleton_params,
)
from .io_cli import (
    CountsTable,
    cli_main,
    estimate_from_counts,
    format_prob,
    parse_counts,
    parse_prob_literal,
    parse_params,
    parse_scc,
    params_to_document,
    scc_to_document,
)

__version__ = "0.1.0"
