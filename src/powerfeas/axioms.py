"""Seeded randomized checks of the adjustment-rule axioms.

A rule function qualifies for the contraction argument when it is
non-negative, sub-homogeneous along the all-ones ray, sub-additive and
max-monotone. Each check here samples one of those inequalities (plus two
derived ones: the reverse triangle inequality and sub-homogeneity for
factors above 1) and reports PASS, or FAIL with a reproducible witness.

Sampling is fully determined by the seed: fixed corner cases first
(all-zeros, all-ones, signed unit vectors, one huge component), then
uniform draws on [-10, 10] per component. Comparisons use the relative
tolerance 1e-12 * (1 + |lhs| + |rhs|) so exact-equality axioms do not fail
on floating-point associativity noise.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .core import EvaluationError, InvalidInputError, _Frozen

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

