"""Desk-scale verification of character-sum bounds over boxes in F_{p^n}."""

from .boxes import (
    Box,
    BoxError,
    degenerate_pair_closed_form,
    degenerate_pair_set,
    difference_box,
    format_box_spec,
    omega_line_intersection,
    parse_box_spec,
    scaled_box,
    subdivide_box,
    tall_box_identity,
)
from .characters import (
    Character,
    PolyCharSum,
    box_char_sum,
    complete_poly_char_sum,
    generator_interval_sum,
    interval_sums_scan,
)
from .energy import (
    EnergyProfile,
    RatioProfile,
    TauProfile,
    energy,
    f_count,
    one_dim_f_counts,
    ratio_set,
    s_decomposition,
    tau_profile,
)
from .field import (
    BasisMatrix,
    FieldCtx,
    FieldError,
    build_field,
    cached_field,
    factorize,
    is_generating,
    is_irreducible,
    is_prime,
)
from .harness import (
    BurgessTrace,
    MomentResult,
    Parameters,
    RegimeError,
    bad_tuple_count,
    burgess_trace,
    choose_parameters,
    delta_bracket_ok,
    moment_sum,
)
from .lattice import (
    EnumerationBudgetError,
    GaugeBody,
    IntLattice,
    MinimaResult,
    ZClassification,
    classify_z,
    first_minimum,
    gamma_z,
    gamma_z_contains,
    lambda1_star,
    minima_for_z,
    mult_matrix,
    polar_body,
    polar_of,
    successive_minima,
    sup_box_body,
)
from .pilot import load_fixtures, pilot_fixtures, write_fixtures
from .survey import ExperimentConfig, SurveyReport, run_config, theorem_survey

__version__ = "0.1.0"
