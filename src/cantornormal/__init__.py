"""Exact tooling for digit expansions against varying base sequences.

Modules:
    blocks          digit strings, overlapping counts, tallies, digit files
    weightings      digit-mass weightings and block-frequency normality
    constructions   segmented constructions, enumeration blocks
    cantor          expansions, value/digit conversion, moments, orbits
    discrepancy     exact star discrepancy and its upper bounds
    verify          claim certificates
    cli             the ``cnl`` command
"""

from .blocks import (
    ConcatSpec,
    DigitString,
    EnumerationRuns,
    concat,
    count_occurrences,
    count_prefix_occurrences,
    count_top_digit,
    max_digit,
    read_digit_file,
    tally_blocks,
    write_digit_file,
)
from .cantor import (
    BasicSequence,
    CantorExpansion,
    RationalInterval,
    digits_to_value,
    normality_ratio,
    orbit_point,
    q_moment,
    salat_hypothesis,
    scaled_value_counts,
    value_to_digits,
)
from .constructions import (
    ConstructionSpec,
    SegmentSpec,
    assemble,
    build_C,
    build_P,
    build_P_runs,
    qde_default_eps,
    qde_spec,
    qnex_spec,
    repetition_count,
    salat_counterexample_spec,
)
from .discrepancy import (
    HypothesisReport,
    PrefixWeights,
    boundf_hypotheses,
    concat_bound,
    e1l_bound,
    epsbar,
    f_bound,
    kn1_bound,
    scaled_digits,
    star_discrepancy,
    star_discrepancy_from_counts,
    unit_sequence,
)
from .errors import (
    CantorError,
    InvalidSpecError,
    NeedsMoreDigitsError,
    NeedsMoreSegmentsError,
    SizeLimitError,
)
from .limits import DEFAULT_SIZE_CAP, resolve_cap, size_cap
from .verify import (
    CLAIMS,
    Certificate,
    run_all,
    run_claim,
    verify_bounds_ng_nl,
    verify_eknu,
    verify_lemma_1021,
    verify_lemma_amount,
    verify_lemma_pbw,
    verify_mqd_scaled,
    verify_notdn_scaled,
    verify_salat_counterexample,
    verify_t0_scaled,
)
from .weightings import (
    NormalityVerdict,
    NormalityWitness,
    Weighting,
    check_eps_k_normal,
    check_pb_uniform,
    nu,
    parse_weighting,
    uniform,
)

__version__ = "0.1.0"
