"""Exact enumeration toolkit for linear codes from quadratic forms over
finite-field towers: construction, complete weight enumerators, weight
hierarchies, closed-form cross-checks, and descent to the prime field."""

from .codes import (
    CodeSpec,
    CWE,
    Variant,
    WeightDistribution,
    ab_minimality,
    codeword,
    cwe_brute,
    cwe_predicted,
    griesmer_check,
    weight_distribution_brute,
    weight_distribution_predicted,
)
from .cyclotomic import (
    CycInt,
    additive_char_sum,
    count_solutions,
    count_solutions_brute,
    eta_twisted_sum_brute,
    eta_twisted_sum_closed,
    gauss_sum,
    pstar,
    qf_exp_sum_brute,
    qf_exp_sum_closed,
)
from .descent import (
    DescendedCode,
    DescentParams,
    char_identity_check,
    descend,
    descended_ghw_brute,
    descended_ghw_closed,
    descended_hierarchy,
    descended_wd,
    make_descent,
    orbit_check,
    psi,
    psi_weight_table,
)
from .errors import (
    BudgetError,
    ConfigError,
    MixedFieldError,
    ParameterError,
    ZeroFormError,
    budget,
)
from .fields import (
    Elem,
    ExtField,
    FieldTower,
    FiniteField,
    PrimeField,
    build_tower,
    elem_from_data,
    elem_to_data,
    enumerate_field,
    extension_field,
    prime_field,
    primitive_element,
    quad_char,
    rel_trace,
    smallest_irreducible,
)
from .ghw import (
    GhwReport,
    GhwRow,
    gaussian_binomial,
    ghw_brute,
    ghw_closed,
    hierarchy,
    subspace_bases,
    support_defect,
    support_defect_char,
    support_defect_closed,
)
from .presets import PRESETS, get_preset, preset_names
from .quadform import (
    FrobeniusTerm,
    QuadFormAnalysis,
    QuadraticForm,
    TraceSquareTerm,
    epsilon_sign,
)

__version__ = "0.1.0"
