"""Feasibility certification and fixed-point power allocation for
interference-coupled wireless QoS targets.

The admission test is a single comparison per terminal: evaluate the
terminal's adjustment rule at the all-ones vector and require the result
to be below 1. When every rule from the norm-like family passes, the
synchronous power-adjustment map is a sup-norm contraction, so the unique
power allocation exists and successive approximation finds it from any
starting point.

Every name in ``__all__`` is imported from its module on first access
(PEP 562), so ``import powerfeas.cli`` loads only the modules a
subcommand runs.
"""

import importlib

_EXPORTS = {
    "core": (
        "AdjustmentRule", "EvaluationError", "FeasibilityReport", "GainMatrix",
        "InfeasibleSystemError", "InvalidFunctionError", "InvalidInputError",
        "IterationTrace", "NoiseVector", "NonConvergenceError", "PowerVector", "QosVector",
        "insert_component", "remove_component", "sup_norm",
    ),
    "rules": ("DominationBound", "HolderNorm", "NormOfNorms", "WeightedAbsSum", "dominate"),
    "axioms": (
        "AxiomReport", "CheckVerdict", "Counterexample", "check_all", "check_extended_subhom",
        "check_max_monotone", "check_nonneg", "check_reverse_triangle", "check_subadd",
        "check_subhom_at_one",
    ),
    "engine": (
        "SolveConfig", "SolveRun", "System", "affine_parts", "contraction_modulus", "lift_rule",
        "linear_oracle", "rate_check", "solve", "write_trace_csv",
    ),
    "scenarios": (
        "FixedAssignment", "LeaveOneOutMap", "MacroDiversity", "MinSelectionRule",
        "MultiConnection", "SingleCell", "build_fixed_assignment", "build_macro_diversity",
        "build_macro_diversity_transformed", "build_multi_connection",
        "build_single_cell_received", "build_single_cell_transformed", "feasibility_formula",
        "kth_smallest", "leave_one_out_map", "macro_diversity_exact_update",
        "mc_exact_rules_in_bounded_coords",
    ),
    "capacity": (
        "RegionCloud", "RegionComparison", "RegionSpec", "compare_regions", "evaluate_predicate",
        "export_cloud", "export_inequalities", "region_inequalities", "sample_region",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
