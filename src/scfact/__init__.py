"""Order reduction of scalar difference equations via form symmetries.

The package constructs and verifies semiconjugate factorizations -- the
split of an order-(k+1) recurrence into a reduced factor equation and a
cofactor that rebuilds the original variable -- for the constructive
classes (homogeneous-of-degree-1, separable additive/multiplicative, and
fully triangular linear cascades), simulates the resulting systems, and
characterizes their dynamics.
"""

from .equations import (
    CarrierError,
    DifferenceEquation,
    DocumentError,
    General,
    GroupTag,
    Linear,
    Orbit,
    SeparableAdditive,
    SeparableMultiplicative,
    as_general,
    as_separable_additive,
    detect_period,
    general_equation,
    iterate_orbit,
    linear_equation,
    load_equation,
    load_equation_file,
    render_equation,
    separable_additive_equation,
    separable_multiplicative_equation,
    write_orbit_csv,
)
from .expressions import (
    DomainError,
    EvaluationError,
    Expression,
    NonFiniteLiteralError,
    ParseError,
    UnboundVariableError,
    evaluate,
    format_expression,
    parse_expression,
)
from .factorization import (
    EquivalenceReport,
    FactorizationError,
    NoFormSymmetryError,
    ScFactorization,
    SemiconjugacyReport,
    TrialSummary,
    TriangularSystem,
    as_sc_factorization,
    factor_hd1,
    factor_linear_full,
    factor_separable_additive,
    factor_separable_multiplicative,
    factorize,
    make_factorization,
    render_factorization,
    render_triangular_system,
    simulate_cascade,
    simulate_factorization,
    verify_equivalence,
    verify_semiconjugacy,
    verify_trials,
)
from .dynamics import (
    BifurcationData,
    CurvePair,
    FixedPointScan,
    LocusReport,
    StabilityReport,
    bifurcation_sweep,
    find_fixed_points,
    linearize_at,
    locus_check,
    render_stability_report,
    write_bifurcation_csv,
)
from .polynomials import (
    Polynomial,
    RootSet,
    characteristic_polynomial,
    deflate,
    find_roots,
    sigma,
    sigma_closed_form,
    solve_order2_closed_form,
)
from .symmetry import (
    FormSymmetry,
    GeneralMap,
    HD1Report,
    Inversion,
    ReductionConstantSet,
    UnaryComponents,
    build_additive_form_symmetry,
    build_multiplicative_form_symmetry,
    check_hd1,
    evaluate_form_symmetry,
    solve_reduction_constant,
)

__version__ = "0.1.0"
