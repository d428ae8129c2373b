"""The paper's general rule family: norm-like functions of the other terminals' powers.

The functions are closed data (weights plus a combinator tree), not opaque
callables; all of them evaluate through ``__call__`` on a plain vector.
The ``axioms`` command checks them, built from its ``--function`` spec by
:func:`_parse_function_spec`. No other command loads this module: the
commands solve ``maps.LeaveOneOutMap``, the one update map of the package,
whose certificate is these functions' value at the all-ones vector in
closed form.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import Optional

import numpy as np

from .core import InvalidInputError, Vector, _Frozen, _read_json


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


def _squared_l1(x: np.ndarray) -> float:
    return float(np.abs(np.asarray(x, dtype=float)).sum() ** 2)


def _parse_function_spec(spec: str, dim: Optional[int]):
    """The function an ``axioms --function`` spec names, and the dimension to check it in.

    ``holder:p`` and ``squared-l1`` take any dimension, so ``dim`` is required;
    ``weighted:`` and ``norm-of-norms:`` fix their own, which ``dim``, if given, must match.
    """
    def number(field: str, raw: str) -> float:
        try:
            return float(raw)
        except ValueError:
            raise InvalidInputError(f"axioms: --function {spec!r}: {field} {raw!r} is not a number") from None
    rest = spec.partition(":")[2]
    if spec == "squared-l1":
        f, subject = _squared_l1, "squared-l1"
    elif spec.startswith("holder:"):  # float() reads "inf" and "infinity" too
        f, subject = HolderNorm(number("p", rest)), "holder norms"
    elif spec.startswith("weighted:"):
        f = WeightedAbsSum(tuple(number("weight", v) for v in rest.split(",")))
        subject = f"{f.dim} weights"
    elif spec.startswith("norm-of-norms:"):
        f = _read_norm_of_norms(rest)
        subject = f"inner dimension {f.dim}"
    else:
        raise InvalidInputError(
            f"axioms: unknown function spec {spec!r} "
            "(use holder:p, weighted:a1,a2,..., norm-of-norms:file.json or squared-l1)"
        )
    own = getattr(f, "dim", None)  # None: any dimension
    if own is None and dim is None:
        raise InvalidInputError(f"axioms: --dim is required for {subject}")
    if own is not None and dim not in (None, own):
        raise InvalidInputError(f"axioms: --dim {dim} does not match {subject}")
    return f, dim if own is None else own


def _read_norm_of_norms(path: str) -> NormOfNorms:
    """The :class:`NormOfNorms` in a JSON file: ``inner`` weight rows, ``outer`` Holder p (default inf)."""
    what = f"norm-of-norms file {path}"
    doc = _read_json(path, what)
    if "inner" not in doc:
        raise InvalidInputError(f"{what}: inner is required")
    rows, outer = doc["inner"], doc.get("outer", "inf")
    if not (isinstance(rows, list) and rows and all(
            isinstance(row, list) and row and not set(map(type, row)) - {int, float} for row in rows)):
        raise InvalidInputError(f"{what}: inner must be a non-empty list of non-empty rows of numbers")
    if outer not in ("inf", "infinity") and type(outer) not in (int, float):
        raise InvalidInputError(f"{what}: outer must be a number or \"inf\", got {json.dumps(outer)}")
    try:
        p = math.inf if outer in ("inf", "infinity") else float(outer)
        return NormOfNorms(inner=tuple(map(WeightedAbsSum, rows)), outer=HolderNorm(p))
    except (InvalidInputError, OverflowError) as exc:  # OverflowError: an int beyond float
        raise InvalidInputError(f"{what}: {exc}") from exc
