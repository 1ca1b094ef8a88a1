"""Exact-arithmetic dimensions of higher secant varieties of the
bidegree-(1,d) embeddings of P^n x P^m, with the single-graded dictionary,
the residual/trace induction machinery, and grid certification tooling."""

from .expected import (
    DefectRecord,
    Thresholds,
    ah_expected,
    ah_is_exceptional,
    defect,
    expected_scheme_dim,
    expected_secant_dim,
    thresholds,
)
from .linalg import (
    DEFAULT_MODULUS,
    EXACT_RATIONAL,
    MODULAR,
    FieldConfig,
    Matrix,
    ideal_dimension,
    is_prime,
    matrix_from_rows,
    rank,
)
from .monomials import (
    BiBasis,
    GradedBasis,
    bihomogeneous_basis,
    graded_basis,
    monomial_eval,
    partial_eval,
)
from .schemes import (
    CastelnuovoCheck,
    DictionaryCheck,
    ProjectionCheck,
    ResidualTracePair,
    SchemePoint,
    SchemeSpec,
    add_v_spans,
    castelnuovo_check,
    project_from_h1,
    residual_trace,
    restricted_basis,
    sample_scheme,
    scheme_basis,
    scheme_from_dict,
    scheme_ideal_dimension,
    scheme_to_dict,
    verify_dictionary,
    w_space_rows,
)
from .scanner import (
    ScanGrid,
    SecantRecord,
    VerifySummary,
    grassmann_verdict,
    grid_from_ranges,
    records_to_csv,
    records_to_json,
    scan,
    scan_cell,
    verify_dictionary_grid,
    verify_theorem_suite,
)
from .terracini import (
    PointPair,
    SampleConfig,
    SegreVeroneseParams,
    ideal_dim_bidegree,
    random_point_pair,
    secant_dimension,
    tangent_block,
)

__version__ = "0.1.0"
