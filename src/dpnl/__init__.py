"""Oracle-guided exact and anytime-approximate probabilistic inference.

The engine computes output distributions of symbolic functions over
independent finite-domain random variables by a DPLL-style recursive
decomposition, pruned by a three-valued oracle, with no intermediate
logical-provenance formula. Includes a weighted model counter over CNF,
certified anytime bounds, oracles derived from ground Horn programs, and
exact gradients of output probabilities w.r.t. the input distributions.
"""

from .approx import (
    Bounds,
    EpsAdditive,
    EpsMultiplicative,
    Exhaustive,
    ExploreHeuristic,
    Fifo,
    MaxProbability,
    RandomChoice,
    StopPolicy,
    TimeBudget,
    TraceSnapshot,
    approx_dpnl,
    bound_trace,
)
from .cnf import (
    CnfFormula,
    DimacsError,
    WeightMap,
    condition,
    parse_dimacs,
    prob_of_dnf,
    probdpll,
    pwmc_bruteforce,
)
from .core import (
    Domain,
    Instance,
    InvalidInstanceError,
    OracleVerdict,
    QueryStats,
    SizeLimitError,
    Valuation,
    VERDICT_FALSE,
    VERDICT_TRUE,
    VERDICT_UNKNOWN,
    completion_count,
    fresh_valuation,
    is_subvaluation,
    total_completions,
)
from .inference import (
    CustomOrder,
    GradientResult,
    SequentialOrder,
    VariableOrder,
    bruteforce_probability,
    dpnl,
    dpnl_gradient,
    finite_difference_partials,
    output_distribution,
)
from .logic import (
    DegeneratePrefixError,
    HornProgram,
    ProgramError,
    ad_recover,
    ad_transform,
    applicable_rule_order,
    entails,
    logic_instance,
    logic_oracle,
    parse_program,
    provenance_clause_count,
    reachability_program,
    success_probability,
    success_probability_bruteforce,
)
from .oracle import (
    CheckReport,
    Oracle,
    SymbolicFunction,
    check_completeness,
    check_validity,
    exhaustive_oracle,
    naive_oracle,
)
from .sumtask import (
    SumInstanceSpec,
    addition,
    addition_oracle,
    build_sum_instance,
    right_to_left_order,
    sum_distribution_reference,
    sum_function,
    sum_oracle,
)

__version__ = "0.1.0"
