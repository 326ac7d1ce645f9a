"""Exact solvers, simulators, and brute-force oracles for two-observer
decentralized sequential detection with a one-shot message channel."""

from .belief import merge_atoms, update_observer1
from .best_response import (BestResponseResult, PBPOResult, ValueTable,
                            evaluate_o2_policy, immediate_sender_policy,
                            o1_best_response, o2_best_response, pbpo_iteration)
from .errors import (CapacityError, CertificationError, DecseqError,
                     ImpossibleUpdateError, ProblemSpecError,
                     StructureViolation)
from .infinite_horizon import (EpsilonPair, O1InfiniteSolution,
                               O2InfiniteSolution, TruncationCertificate,
                               epsilon_optimal_pair, stationary_anchor,
                               truncation_bound, value_iterate_o1, value_iterate_o2)
from .model import Channel, Costs, Problem, load_problem_spec, terminal_cost
from .oracle import (ORACLE_CAP_DEFAULT, OracleResult, brute_force_wald,
                     count_stop_rules, enumerate_policies_p1,
                     enumerate_policies_p2)
from .policies import (BLANK, O1Policy, O2Policy, StageRule, TerminalRule,
                       build_message_model, extract_thresholds, o1_from_dict,
                       o1_to_dict, o2_from_dict, o2_to_dict, pair_from_dict,
                       pair_to_dict, subjective_update)
from .seq_decomp import DesignerSolution, solve_p1, solve_p2
from .simulate import CostBreakdown, EstimateSummary, estimate_cost, exact_cost
from .wald import (StationaryWald, WaldSolution, solve_wald_finite,
                   solve_wald_infinite, wald_cost)

__version__ = "0.1.0"

__all__ = [
    "merge_atoms", "update_observer1",
    "BestResponseResult", "PBPOResult", "ValueTable", "evaluate_o2_policy",
    "extract_thresholds", "immediate_sender_policy", "o1_best_response",
    "o2_best_response", "pbpo_iteration",
    "CapacityError", "CertificationError", "DecseqError",
    "ImpossibleUpdateError", "ProblemSpecError", "StructureViolation",
    "EpsilonPair", "O1InfiniteSolution", "O2InfiniteSolution",
    "TruncationCertificate", "epsilon_optimal_pair", "stationary_anchor",
    "truncation_bound", "value_iterate_o1", "value_iterate_o2",
    "Channel", "Costs", "Problem", "load_problem_spec", "terminal_cost",
    "ORACLE_CAP_DEFAULT", "OracleResult", "brute_force_wald",
    "count_stop_rules", "enumerate_policies_p1", "enumerate_policies_p2",
    "BLANK", "O1Policy", "O2Policy", "StageRule", "TerminalRule",
    "build_message_model", "o1_from_dict", "o1_to_dict", "o2_from_dict",
    "o2_to_dict", "pair_from_dict", "pair_to_dict", "subjective_update",
    "DesignerSolution", "solve_p1", "solve_p2",
    "CostBreakdown", "EstimateSummary", "estimate_cost", "exact_cost",
    "StationaryWald", "WaldSolution", "solve_wald_finite",
    "solve_wald_infinite", "wald_cost",
    "__version__",
]
