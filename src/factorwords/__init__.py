"""Factor sets of binary words.

Which subsets of the 2^n binary words of length n arise as the set of all
length-n factors of a single (circular) word? This package decides
representability, finds shortest witnesses, enumerates every representable
set of small order, audits the counting bounds, and tabulates the number of
factor sets witnessed at each word length.

The names below are exported lazily (PEP 562): each loads its module on
first access, so ``import factorwords`` loads no submodule, and numpy loads
only with ``counting`` or the word scan.
"""

from importlib import import_module

__version__ = "0.1.0"

# per module, the names it exports
_EXPORTS = {
    "budget": ("Budget", "BudgetExceededError"),
    "bounds": ("AlreadyPresent", "Digraph", "NetAudit", "NotStronglyConnected",
               "UpperBoundAudit", "WalkReport", "chain_fan", "construct_ts", "construct_ty",
               "growth_ratio", "hamiltonian_walk", "lower_bound", "net_audit",
               "random_strongly_connected", "upper_bound", "upper_bound_audit",
               "witness_length_bound"),
    "counting": ("Conjecture2nReport", "EqualFactorPair", "OutOfValidityRegion",
                 "TCell", "Theorem1Report", "TTable", "check_conjecture_2n",
                 "check_theorem1", "count_T_bruteforce", "count_T_closed",
                 "counterexample_family", "equal_factor_pairs", "t_table"),
    "enumeration": ("EnumerationResult", "brute_force_enumerate", "enumerate_representable"),
    "factorsets": ("EmptySet", "FactorSet", "WitnessResult",
                   "circular_factors", "factors", "is_circ_representable",
                   "is_representable", "shortest_circular_witness", "shortest_witness"),
    "words": ("InvalidLength", "PeriodInfo", "Word", "are_conjugate",
              "are_root_conjugate", "debruijn", "divisors", "lyndon_count",
              "lyndon_words", "mobius", "period", "root"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
