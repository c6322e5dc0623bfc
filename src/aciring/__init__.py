"""Exact computer algebra for a family of Artinian quadric quotients.

Working over the rationals or a prime field, the package builds the
quotient by the variable squares plus the squared variable sum, the
Gorenstein quotient linked to it by a colon ideal, and their graded Betti
tables — by closed-form combinatorics and by actual free resolutions —
together with a CLI that cross-checks every route against the others.
"""

__version__ = "0.1.0"

from .errors import (
    AciringError,
    BoundTooSmall,
    DegreeCapExceeded,
    DimensionMismatch,
    FieldMismatch,
)
from .fields import GF, QQ, Field, default_characteristic, field_for_char
from .poly import (
    DividedPowerForm,
    Polynomial,
    contract,
    format_poly,
    parse_form,
    parse_poly,
    squared_variable_sum,
    symmetric_orbit,
    variable_sum,
)
from .groebner import (
    GroebnerBasis,
    MonomialIdeal,
    aci_ideal,
    groebner_basis,
    ideal_equal,
    is_groebner_basis,
    normal_form,
    primed_aci_ideal,
    primed_squares_ideal,
    squares_ideal,
)
from .quotient import (
    GradedModuleSpan,
    QuotientRing,
    annihilator,
    exact_zero_divisor_check,
    hilbert_function,
    max_rank_check,
    regular_element_check,
)
from .resolution import (
    BettiTable,
    ci_resolution_betti,
    duality_check,
    koszul_betti,
    lifting_identity_check,
    named_quotient,
    syzygy_betti,
)
from .formulas import (
    betti_strand,
    betti_table_formula,
    catalan,
    ell,
    gamma_sequence,
    hilbert_formula,
    multiplicity_R,
    rho_sequence,
)
from .gorenstein import (
    G_from_orbit,
    HessianMatrix,
    ann_of_form,
    ballot_sequences,
    disjointness_invertible,
    disjointness_matrix,
    g_polynomial,
    hessian,
    inverse_form,
    predicted_initial_ideal,
    slp_check_A,
)

__all__ = [
    "AciringError",
    "BettiTable",
    "BoundTooSmall",
    "DegreeCapExceeded",
    "DimensionMismatch",
    "DividedPowerForm",
    "Field",
    "FieldMismatch",
    "GF",
    "G_from_orbit",
    "GradedModuleSpan",
    "GroebnerBasis",
    "HessianMatrix",
    "MonomialIdeal",
    "Polynomial",
    "QQ",
    "QuotientRing",
    "__version__",
    "aci_ideal",
    "ann_of_form",
    "annihilator",
    "ballot_sequences",
    "betti_strand",
    "betti_table_formula",
    "catalan",
    "contract",
    "default_characteristic",
    "disjointness_invertible",
    "disjointness_matrix",
    "duality_check",
    "ell",
    "exact_zero_divisor_check",
    "field_for_char",
    "format_poly",
    "g_polynomial",
    "gamma_sequence",
    "groebner_basis",
    "hessian",
    "hilbert_formula",
    "hilbert_function",
    "ideal_equal",
    "inverse_form",
    "is_groebner_basis",
    "koszul_betti",
    "ci_resolution_betti",
    "named_quotient",
    "lifting_identity_check",
    "max_rank_check",
    "multiplicity_R",
    "normal_form",
    "parse_form",
    "parse_poly",
    "predicted_initial_ideal",
    "primed_aci_ideal",
    "primed_squares_ideal",
    "regular_element_check",
    "rho_sequence",
    "slp_check_A",
    "squared_variable_sum",
    "squares_ideal",
    "symmetric_orbit",
    "syzygy_betti",
    "variable_sum",
]
