"""The paper's rule family and seeded randomized checks of the axioms its contraction theorem assumes.

The functions (weighted absolute sums, Holder norms, norms of norms) are
closed data, not opaque callables, each called on a plain vector. Only the
``axioms`` command loads this module: it builds one from its ``--function``
spec (:func:`_parse_function_spec`) and checks it. The other commands solve
``maps.LeaveOneOutMap``, whose certificate is these functions' value at the
all-ones vector in closed form.

A rule function qualifies for the contraction argument when it is
non-negative, sub-homogeneous along the all-ones ray, sub-additive and
max-monotone. Each check samples one of those inequalities (plus two
derived ones: the reverse triangle inequality and sub-homogeneity for
factors above 1) and reports PASS, or FAIL with a reproducible witness.
Sampling is fully determined by the seed: fixed corner cases first
(all-zeros, all-ones, signed unit vectors, one huge component), then
uniform draws on [-10, 10] per component. Comparisons use the relative
tolerance 1e-12 * (1 + |lhs| + |rhs|) so exact-equality axioms do not fail
on floating-point associativity noise.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .core import InvalidInputError, Vector, _Frozen, _read_json


class EvaluationError(InvalidInputError):
    """A candidate function raised or returned a non-finite value."""

    def __init__(self, message: str, bad_input=None):
        super().__init__(message)
        self.bad_input = bad_input


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


RuleFunction = Callable[[np.ndarray], float]

DEFAULT_SAMPLES = 2000

AXIOM_NAMES = (
    "non-negativity",
    "sub-homogeneity(0,1)",
    "sub-additivity",
    "max-monotonicity",
    "reverse-triangle",
    "sub-homogeneity(r>1)",
)


class Counterexample(_Frozen):
    """Inputs and both sides of the violated inequality."""

    def __init__(self, inputs: tuple, lhs: float, rhs: float):
        self._set(inputs=inputs, lhs=lhs, rhs=rhs)


class CheckVerdict(_Frozen):
    """One axiom's verdict: PASS unless a counterexample was found."""

    def __init__(self, axiom: str, counterexample: Optional[Counterexample] = None):
        self._set(axiom=axiom, counterexample=counterexample)

    @property
    def passed(self) -> bool:
        return self.counterexample is None


class AxiomReport(_Frozen):
    """All six verdicts for one candidate function, ``results``, in :data:`AXIOM_NAMES` order."""

    def __init__(self, dim: int, samples: int, seed: int, results: tuple[CheckVerdict, ...]):
        results = tuple(results)
        if tuple(v.axiom for v in results) != AXIOM_NAMES:
            raise InvalidInputError(f"AxiomReport: need one verdict per axiom, in order {AXIOM_NAMES}")
        self._set(dim=dim, samples=samples, seed=seed, results=results)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.results)


def _tol(lhs: float, rhs: float) -> float:
    return 1e-12 * (1.0 + abs(lhs) + abs(rhs))


def _eval(f: RuleFunction, x: np.ndarray) -> float:
    try:
        value = float(f(x))
    except Exception as exc:
        point = tuple(x.tolist())
        raise EvaluationError(f"candidate function raised on input {point}: {exc}", bad_input=point) from exc
    if not math.isfinite(value):
        point = tuple(x.tolist())
        raise EvaluationError(f"candidate function returned {value} on input {point}", bad_input=point)
    return value


def _stream(corners: list, draw: Callable, samples: int, rng: np.random.Generator) -> Iterator:
    """The first ``samples`` corner cases, then ``draw(rng)`` until ``samples`` are out."""
    yield from corners[:samples]
    for _ in range(max(0, samples - len(corners))):
        yield draw(rng)


def _vector_stream(dim: int, samples: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    corners = [np.zeros(dim), np.ones(dim), -np.ones(dim)]
    for e in np.eye(min(3, dim), dim):
        corners += [e, -e]
    huge, mixed = np.zeros(dim), np.ones(dim)
    huge[0] = mixed[0] = 1e8
    return _stream(corners + [huge, mixed], lambda r: r.uniform(-10.0, 10.0, size=dim), samples, rng)


def _pair_stream(dim: int, samples: int, rng: np.random.Generator) -> Iterator[tuple]:
    ones, huge = np.ones(dim), np.zeros(dim)  # no array is shared: a candidate may write to its input
    huge[0] = 1e8
    corners = [(np.zeros(dim), np.zeros(dim)), (ones, ones.copy()), (ones.copy(), -ones)]
    corners += [(e, -e) for e in np.eye(min(2, dim), dim)] + [(huge, ones.copy())]
    return _stream(corners, lambda r: (r.uniform(-10.0, 10.0, size=dim), r.uniform(-10.0, 10.0, size=dim)),
                   samples, rng)


def _first_violation(axiom: str, cases: Iterable[tuple]) -> CheckVerdict:
    """PASS, or FAIL on the first (inputs, lhs, rhs) with lhs > rhs beyond :func:`_tol`.

    ``cases`` is lazy: sampling and evaluation stop at the first violation.
    Array inputs are reported as tuples.
    """
    for inputs, lhs, rhs in cases:
        if lhs > rhs + _tol(lhs, rhs):
            inputs = tuple(tuple(v) if isinstance(v, np.ndarray) else v for v in inputs)
            return CheckVerdict(axiom, Counterexample(inputs, lhs, rhs))
    return CheckVerdict(axiom)


def check_nonneg(f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int) -> CheckVerdict:
    """f(x) >= 0 on mixed-sign samples: lhs 0, rhs f(x)."""
    xs = _vector_stream(dim, samples, np.random.default_rng(seed))
    return _first_violation("non-negativity", (((x,), 0.0, _eval(f, x)) for x in xs))


def _ray(f: RuleFunction, dim: int, axiom: str, corners: tuple, low: float, high: float,
         samples: int, seed: int) -> CheckVerdict:
    """f(r * ones) <= r * f(ones) for the corner factors, then r drawn from U(low, high)."""
    rng = np.random.default_rng(seed)
    ones = np.ones(dim)
    at_ones = _eval(f, ones)
    factors = _stream(list(corners), lambda r: float(r.uniform(low, high)), samples, rng)
    return _first_violation(axiom, (((r,), _eval(f, r * ones), r * at_ones) for r in factors))


def check_subhom_at_one(
    f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int
) -> CheckVerdict:
    """f(lam * ones) <= lam * f(ones) for sampled lam in (0, 1)."""
    return _ray(f, dim, "sub-homogeneity(0,1)", (1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9),
                1e-12, 1.0 - 1e-12, samples, seed)


def check_subadd(f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int) -> CheckVerdict:
    """f(x + y) <= f(x) + f(y) on sampled pairs."""
    pairs = _pair_stream(dim, samples, np.random.default_rng(seed))
    return _first_violation("sub-additivity", (
        ((x, y), _eval(f, x + y), _eval(f, x) + _eval(f, y)) for x, y in pairs))


def check_max_monotone(
    f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int
) -> CheckVerdict:
    """f(x) <= f(max|x| * ones) on samples."""
    xs = _vector_stream(dim, samples, np.random.default_rng(seed))
    ones = np.ones(dim)
    return _first_violation("max-monotonicity", (
        ((x,), _eval(f, x), _eval(f, float(np.max(np.abs(x))) * ones)) for x in xs))


def check_reverse_triangle(
    f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int
) -> CheckVerdict:
    """|f(x) - f(y)| <= f(x - y); a consequence of sub-additivity."""
    pairs = _pair_stream(dim, samples, np.random.default_rng(seed))
    return _first_violation("reverse-triangle", (
        ((x, y), abs(_eval(f, x) - _eval(f, y)), _eval(f, x - y)) for x, y in pairs))


def check_extended_subhom(
    f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int
) -> CheckVerdict:
    """f(r * ones) <= r * f(ones) for sampled r > 1.

    Factors in (0, 1) belong to check_subhom_at_one; keeping the ranges
    disjoint lets the two verdicts disagree, which is the point: together
    with sub-additivity the (0, 1) axiom implies this one.
    """
    return _ray(f, dim, "sub-homogeneity(r>1)", (1.0 + 1e-9, 2.0, 7.3, 1000.0),
                1.0 + 1e-12, 100.0, samples, seed)


_CHECKS = (check_nonneg, check_subhom_at_one, check_subadd, check_max_monotone,
           check_reverse_triangle, check_extended_subhom)  # in AXIOM_NAMES order


def check_all(f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int) -> AxiomReport:
    """Run every check with the same seed and collect the verdicts."""
    if dim < 1 or samples < 1:
        raise InvalidInputError(f"check_all: need dim >= 1 and samples >= 1, got {dim} and {samples}")
    if seed < 0:
        raise InvalidInputError(f"check_all: seed must be >= 0, got {seed}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow surfaces as _eval's non-finite value
        return AxiomReport(dim, samples, seed, (check(f, dim, samples, seed=seed) for check in _CHECKS))

