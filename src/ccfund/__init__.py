"""Combinatorial civic crowdfunding with budgeted agents.

Game model and outcome evaluation, refund schemes with equilibrium
thresholds, welfare-optimal subset solvers, exact discretized best responses,
contribution heuristics with a clamped play-out engine, instance samplers and
constructed fixtures, and a Monte-Carlo experiment harness.
"""

__version__ = "0.1.0"

from .bestresponse import (
    BestResponse,
    DiscontinuityReport,
    ResidualView,
    best_response_bruteforce,
    best_response_exact,
    demonstrate_nonexistence,
    knapsack_form_oracle,
    make_view,
    response_utility,
)
from .errors import SolverError
from .generators import (
    DeviationCertificate,
    LiteralNumbersReport,
    SamplerConfig,
    SurplusWitnessCertificate,
    ValuationDist,
    build_appendix_b,
    build_example1,
    build_example2,
    build_procedure1,
    build_theorem2_witness,
    sample_instance,
    sample_surplus_sf_instance,
)
from .harness import (
    CellStats,
    ExperimentConfig,
    ExperimentReport,
    au_n,
    deviation_split,
    run_experiment,
    sw_n,
)
from .heuristics import Assignment, Heuristic, PlayOrder, intent_matrix, play
from .model import (
    TOL,
    BudgetStatus,
    ContributionProfile,
    Instance,
    Outcome,
    check_budget_surplus,
    check_subset_feasibility,
    evaluate,
)
from .refunds import (
    CmReport,
    LinearAdditiveRefund,
    PprRefund,
    RefundScheme,
    certify_cm,
    scheme_from_tag,
    threshold_general,
    threshold_matrix,
    thresholds,
)
from .welfare import (
    WelfareSolution,
    solve_pstar_bruteforce,
    solve_pstar_dp,
    solve_subset_bruteforce,
    solve_subset_dp,
    welfare_of,
)
