"""Dependency-aware software requirements selection.

The pipeline, end to end: binary user preferences -> causal strengths and
their significance -> a signed fuzzy value dependency graph -> propagated
influences -> an exact 0/1 linear program maximizing overall value under a
budget and precedence constraints.
"""

__version__ = "0.1.0"

from .analysis import (
    BenchmarkReport,
    SweepReport,
    SyntheticSpec,
    benchmark,
    compare_selections,
    frequency_profile,
    generate_synthetic,
    risk_of_value_loss,
    sweep,
)
from .casestudy import (
    case_study_precedence,
    case_study_problem,
    case_study_requirements,
)
from .dependency_graph import (
    Conflicts,
    ExactlyOne,
    InfluenceMatrix,
    PrecedenceGraph,
    RequiresAll,
    RequiresAny,
    ValueDependencyGraph,
    propagate_strengths,
)
from .errors import InputFormatError, ReqselError, ValidationError
from .identification import (
    CausalAnalysis,
    MembershipConfig,
    SignificanceConfig,
    build_vdg,
    compute_eells,
    membership,
    odds_ratio,
    significance_test,
)
from .preferences import (
    BinaryStats,
    DichotomizedGaussianModel,
    PreferenceMatrix,
    binary_stats,
    fit_dichotomized_gaussian,
    sample_dichotomized_gaussian,
)
from .selection_models import (
    BK,
    BUDGET_COST,
    DARS,
    PCBK,
    PRICE_VALUE,
    SBK,
    LinearModel,
    SelectionProblem,
    build_model,
    export_lp,
    parse_lp,
)
from .solver import Solution, SolverLimits, solution_report, solve, verify_solution
from .valuation import Requirement, evaluate_selection, penalties

__all__ = [
    "__version__",
    "BenchmarkReport",
    "BinaryStats",
    "BK",
    "BUDGET_COST",
    "CausalAnalysis",
    "Conflicts",
    "DARS",
    "DichotomizedGaussianModel",
    "ExactlyOne",
    "InfluenceMatrix",
    "InputFormatError",
    "LinearModel",
    "MembershipConfig",
    "PCBK",
    "PRICE_VALUE",
    "PrecedenceGraph",
    "PreferenceMatrix",
    "ReqselError",
    "Requirement",
    "RequiresAll",
    "RequiresAny",
    "SBK",
    "SelectionProblem",
    "SignificanceConfig",
    "Solution",
    "SolverLimits",
    "SweepReport",
    "SyntheticSpec",
    "ValidationError",
    "ValueDependencyGraph",
    "benchmark",
    "binary_stats",
    "build_model",
    "build_vdg",
    "case_study_precedence",
    "case_study_problem",
    "case_study_requirements",
    "compare_selections",
    "compute_eells",
    "membership",
    "evaluate_selection",
    "export_lp",
    "fit_dichotomized_gaussian",
    "frequency_profile",
    "generate_synthetic",
    "odds_ratio",
    "parse_lp",
    "penalties",
    "propagate_strengths",
    "risk_of_value_loss",
    "sample_dichotomized_gaussian",
    "significance_test",
    "solution_report",
    "solve",
    "sweep",
    "verify_solution",
]
