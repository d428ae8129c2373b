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
        "FeasibilityReport", "InfeasibleSystemError", "InvalidInputError", "NonConvergenceError",
        "PowerVector", "SolveConfig",
    ),
    "axioms": (
        "AxiomReport", "CheckVerdict", "Counterexample", "EvaluationError", "HolderNorm", "NormOfNorms",
        "WeightedAbsSum", "check_all", "check_extended_subhom", "check_max_monotone", "check_nonneg",
        "check_reverse_triangle", "check_subadd", "check_subhom_at_one",
    ),
    "engine": ("SolveRun", "contraction_modulus", "solve", "write_trace_csv"),
    "scenarios": (
        "FixedAssignment", "MacroDiversity", "MultiConnection", "SingleCell", "feasibility_formula",
    ),
    "maps": ("LeaveOneOutMap", "leave_one_out_map"),
    "capacity": (
        "RegionCloud", "RegionComparison", "RegionSpec", "compare_regions", "evaluate_predicate",
        "export_cloud", "export_inequalities", "hanly", "region_inequalities", "sample_region",
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
