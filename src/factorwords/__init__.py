"""Factor sets of binary words.

Which subsets of the 2^n binary words of length n arise as the set of all
length-n factors of a single (circular) word? This package decides
representability, finds shortest witnesses, enumerates every representable
set of small order, audits the counting bounds, and tabulates the number of
factor sets witnessed at each word length.
"""

from .budget import Budget, BudgetExceededError
from .bounds import (AlreadyPresent, Digraph, NetAudit, NotStronglyConnected,
                     UpperBoundAudit, WalkReport, chain_fan, construct_ts, construct_ty,
                     growth_ratio, hamiltonian_walk, lower_bound, net_audit,
                     random_strongly_connected, upper_bound, upper_bound_audit,
                     witness_length_bound)
from .counting import (Conjecture2nReport, EqualFactorPair, OutOfValidityRegion,
                       TCell, Theorem1Report, TTable, check_conjecture_2n,
                       check_theorem1, count_T_bruteforce, count_T_closed,
                       counterexample_family, equal_factor_pairs, t_table)
from .enumeration import (EnumerationResult, brute_force_enumerate,
                          enumerate_representable)
from .factorsets import (EmptySet, FactorSet, WitnessResult,
                         circular_factors, factors, is_circ_representable,
                         is_representable, shortest_circular_witness,
                         shortest_witness)
from .words import (InvalidLength, PeriodInfo, Word, are_conjugate,
                    are_root_conjugate, debruijn, divisors, lyndon_count,
                    lyndon_words, mobius, period, root)

__version__ = "0.1.0"

__all__ = [
    "Budget", "BudgetExceededError",
    "AlreadyPresent", "Digraph", "NetAudit", "NotStronglyConnected",
    "UpperBoundAudit", "WalkReport", "chain_fan", "construct_ts", "construct_ty",
    "growth_ratio", "hamiltonian_walk", "lower_bound", "net_audit",
    "random_strongly_connected", "upper_bound", "upper_bound_audit",
    "witness_length_bound",
    "Conjecture2nReport", "EqualFactorPair", "OutOfValidityRegion",
    "TCell", "Theorem1Report", "TTable", "check_conjecture_2n",
    "check_theorem1", "count_T_bruteforce", "count_T_closed",
    "counterexample_family", "equal_factor_pairs", "t_table",
    "EnumerationResult", "brute_force_enumerate", "enumerate_representable",
    "EmptySet", "FactorSet", "WitnessResult",
    "circular_factors", "factors", "is_circ_representable",
    "is_representable", "shortest_circular_witness", "shortest_witness",
    "InvalidLength", "PeriodInfo", "Word", "are_conjugate",
    "are_root_conjugate", "debruijn", "divisors", "lyndon_count",
    "lyndon_words", "mobius", "period", "root",
]
