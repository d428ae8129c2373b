"""The paper's general rule family: norm-like functions and the systems built from them.

The functions are closed data (weights plus a combinator tree), not opaque
callables, so feasibility reports can name the binding weighted sum; all of
them evaluate through ``__call__`` on a plain vector. A :class:`System`
bundles one :class:`AdjustmentRule` per terminal, each such a function (or
any other the ``axioms`` checks admit) applied to the other terminals'
powers; its ``step`` and ``certificate`` make it an update map
``engine.solve`` accepts. No command builds one: the commands solve
``maps.LeaveOneOutMap``, and ``engine`` does not import this module.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import (
    FeasibilityReport,
    InvalidFunctionError,
    InvalidInputError,
    Vector,
    _Frozen,
)


def sup_norm(x: Vector) -> float:
    """Largest absolute component of ``x`` (the infinity norm)."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise InvalidInputError("sup_norm: empty vector")
    return float(np.max(np.abs(arr)))


def remove_component(x: Vector, i: int) -> np.ndarray:
    """Copy of ``x`` with component ``i`` deleted, order preserved."""
    arr = np.asarray(x, dtype=float)
    n = arr.shape[0]
    if n < 2:
        raise InvalidInputError("remove_component: need at least 2 components")
    if not 0 <= i < n:
        raise IndexError(f"remove_component: index {i} out of range for length {n}")
    return np.concatenate((arr[:i], arr[i + 1:]))


def _check_dim(x: np.ndarray, dim: int, what: str) -> None:
    if x.shape != (dim,):
        raise InvalidInputError(f"{what}: expected a vector of length {dim}, got shape {x.shape}")


class WeightedAbsSum(_Frozen):
    """Weighted sum of absolute components: sum_m |a_m * x_m|.

    Zero weights are permitted (a terminal with a degenerate gain simply
    drops out); the result is then a semi-norm rather than a norm, which
    is still admissible as an adjustment rule.
    """

    def __init__(self, weights: Vector):
        w = tuple(float(v) for v in weights)
        self._set(weights=w)
        if len(w) < 1:
            raise InvalidInputError("WeightedAbsSum: need at least one weight")
        if not all(math.isfinite(v) for v in w):
            raise InvalidInputError("WeightedAbsSum: weights must be finite")

    @property
    def dim(self) -> int:
        return len(self.weights)

    @cached_property
    def _abs_weights(self) -> np.ndarray:
        arr = np.abs(np.array(self.weights, dtype=float))
        arr.flags.writeable = False
        return arr

    def __call__(self, x: Vector) -> float:
        arr = np.asarray(x, dtype=float)
        _check_dim(arr, self.dim, "WeightedAbsSum")
        return float(self._abs_weights @ np.abs(arr))


class HolderNorm(_Frozen):
    """Holder p-norm, p >= 1; p = inf gives the sup norm."""

    def __init__(self, p: float):
        p = float(p)
        self._set(p=p)
        if math.isnan(p) or p < 1.0:
            raise InvalidInputError(f"HolderNorm: p must be >= 1 or inf, got {p}")

    def __call__(self, x: Vector) -> float:
        arr = np.abs(np.asarray(x, dtype=float))
        if arr.size == 0:
            raise InvalidInputError("HolderNorm: empty vector")
        if math.isinf(self.p):
            return float(arr.max())
        if self.p == 1.0:
            return float(arr.sum())
        if self.p == 2.0:
            return float(math.sqrt(float(arr @ arr)))
        return float(np.power(np.power(arr, self.p).sum(), 1.0 / self.p))


class NormOfNorms(_Frozen):
    """Outer Holder norm applied to a stack of weighted-abs-sum values.

    The outer norm must be monotonic for the composition to remain a norm;
    Holder norms (including inf, the default) are, so ``outer`` must be one.
    """

    def __init__(self, inner: tuple[WeightedAbsSum, ...], outer: HolderNorm = HolderNorm(math.inf)):
        inner = tuple(inner)
        self._set(inner=inner, outer=outer)
        if len(inner) < 1:
            raise InvalidInputError("NormOfNorms: need at least one inner function")
        dim = inner[0].dim
        if any(w.dim != dim for w in inner):
            raise InvalidInputError("NormOfNorms: inner functions must share one dimension")
        if not isinstance(outer, HolderNorm):
            raise InvalidInputError("NormOfNorms: outer must be a HolderNorm")

    @property
    def dim(self) -> int:
        return self.inner[0].dim

    @cached_property
    def _weight_matrix(self) -> np.ndarray:
        arr = np.abs(np.array([w.weights for w in self.inner], dtype=float))
        arr.flags.writeable = False
        return arr

    def inner_values(self, x: Vector) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        _check_dim(arr, self.dim, "NormOfNorms")
        return self._weight_matrix @ np.abs(arr)

    def __call__(self, x: Vector) -> float:
        return float(self.outer(self.inner_values(x)))

    def binding_inner(self, x: Vector) -> int | None:
        """Index of the inner sum attaining the value, when outer is the sup norm."""
        if math.isinf(self.outer.p):
            return int(np.argmax(self.inner_values(x)))
        return None


class AdjustmentRule(_Frozen):
    """One terminal's power update: next power = f(other powers) + offset.

    ``f`` maps the (N-1)-vector of the other terminals' powers to a
    non-negative scalar and must be deterministic; ``offset`` is the
    additive noise term and must be >= 0.
    """

    def __init__(self, f: Callable[[np.ndarray], float], offset: float, terminal_index: int):
        offset, terminal_index = float(offset), int(terminal_index)
        self._set(f=f, offset=offset, terminal_index=terminal_index)
        if not callable(f):
            raise InvalidInputError("AdjustmentRule: f must be callable")
        if not math.isfinite(offset) or offset < 0.0:
            raise InvalidInputError(f"AdjustmentRule: offset must be finite and >= 0, got {offset}")
        if terminal_index < 0:
            raise InvalidInputError("AdjustmentRule: terminal_index must be >= 0")


class System(_Frozen):
    """N coupled adjustment rules; rule i consumes the other N-1 powers."""

    def __init__(self, rules: Sequence[AdjustmentRule]):
        rules = tuple(rules)
        self._set(rules=rules)
        if len(rules) < 2:
            raise InvalidInputError("System: need at least two terminals")
        for i, rule in enumerate(rules):
            if rule.terminal_index != i:
                raise InvalidInputError(
                    f"System: rule at position {i} is labelled terminal {rule.terminal_index}"
                )
            dim = getattr(rule.f, "dim", None)
            if dim is not None and dim != len(rules) - 1:
                raise InvalidInputError(
                    f"System: rule {i + 1} consumes {dim} powers, expected {len(rules) - 1}"
                )

    @property
    def n(self) -> int:
        return len(self.rules)

    def step(self, x: np.ndarray) -> np.ndarray:
        """One synchronous update: every component from the previous iterate."""
        out = np.empty(self.n)
        for i, rule in enumerate(self.rules):
            out[i] = rule.f(remove_component(x, i)) + rule.offset
        return out

    def certificate(self) -> FeasibilityReport:
        """Every rule at the all-ones vector: ``engine.contraction_modulus`` of this system."""
        ones = np.ones(self.n - 1)
        moduli = []
        for rule in self.rules:
            value = float(rule.f(ones))
            if not math.isfinite(value):
                raise InvalidFunctionError(
                    f"contraction_modulus: rule for terminal {rule.terminal_index + 1} "
                    f"is {value} at the all-ones vector"
                )
            moduli.append(value)
        binder = getattr(self.rules[moduli.index(max(moduli))].f, "binding_inner", None)
        return FeasibilityReport(moduli, binder(ones) if binder is not None else None)


def lift_rule(f: Callable[[np.ndarray], float], i: int) -> Callable[[np.ndarray], float]:
    """View a rule on the other terminals' powers as a function of all powers.

    The lifted function ignores component ``i``; it inherits every axiom of
    ``f``, which is what makes the whole update map a contraction.
    """

    def lifted(x: np.ndarray) -> float:
        return float(f(remove_component(x, i)))

    return lifted
