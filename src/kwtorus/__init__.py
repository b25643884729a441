"""Numerical library for prescribed-curvature problems reduced to the
exponential equation  laplacian(w) + <alpha, dw> + c = phi e^w  on flat
periodic domains."""

from .errors import (
    CertificateError,
    ConfigError,
    DegenerateError,
    ExprEvalError,
    ExprSyntaxError,
    FileFormatError,
    GauduchonError,
    GridError,
    KWTorusError,
    SolvabilityError,
    SolverError,
)
from .fieldexpr import evaluate, parse, to_text
from .geometry import (
    GeometrySetup,
    ReducedProblem,
    coefficient,
    degenerate_solve,
    gauduchon_degree,
    recover_metric,
    reduce_problem,
    transform_s,
    transform_s2,
)
from .grid import (
    GridSpec,
    OneForm,
    ScalarField,
    make_field,
    read_field,
    read_field_csv,
    refine_field,
    write_field,
    write_field_csv,
)
from .kwsolver import (
    Bracket,
    KWProblem,
    NecessaryCheck,
    SolveReport,
    asymptotic_suite,
    build_subsolution,
    build_supersolution,
    construct_unsolvable,
    continuation_solve,
    critical_c_bracket,
    fixed_point_solve,
    is_subsolution,
    is_supersolution,
    monotone_solve,
    necessary_check,
    newton_solve,
    solve_prescribed,
    sufficient_check,
)
from .linsolve import (
    LinearOperatorSpec,
    LinearOptions,
    SolveStats,
    apply_operator,
    estimate_gamma,
    random_smooth_field,
    solve_meanzero,
    solve_shifted,
)
from .operators import (
    chern_laplacian,
    divergence,
    gauduchon_defect,
    grad_squared,
    laplacian,
    lee_pairing,
    lp_norm,
    mean,
    sup_norm,
)

__version__ = "0.1.0"
