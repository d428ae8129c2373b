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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .core import EvaluationError, InvalidInputError

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


@dataclass(frozen=True)
class Counterexample:
    """Inputs and both sides of the violated inequality."""

    inputs: tuple
    lhs: float
    rhs: float


@dataclass(frozen=True)
class CheckVerdict:
    axiom: str
    passed: bool
    counterexample: Optional[Counterexample] = None


@dataclass(frozen=True)
class AxiomReport:
    """All six verdicts for one candidate function."""

    dim: int
    samples: int
    seed: int
    nonneg: CheckVerdict
    subhom_at_one: CheckVerdict
    subadd: CheckVerdict
    max_monotone: CheckVerdict
    reverse_triangle: CheckVerdict
    extended_subhom: CheckVerdict

    def verdicts(self) -> tuple[CheckVerdict, ...]:
        return (
            self.nonneg,
            self.subhom_at_one,
            self.subadd,
            self.max_monotone,
            self.reverse_triangle,
            self.extended_subhom,
        )

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts())


def _tol(lhs: float, rhs: float) -> float:
    return 1e-12 * (1.0 + abs(lhs) + abs(rhs))


def _eval(f: RuleFunction, x: np.ndarray) -> float:
    try:
        value = float(f(x))
    except Exception as exc:
        raise EvaluationError(
            f"candidate function raised on input {tuple(x)}: {exc}", bad_input=tuple(x)
        ) from exc
    if not math.isfinite(value):
        raise EvaluationError(
            f"candidate function returned {value} on input {tuple(x)}", bad_input=tuple(x)
        )
    return value


def _corner_vectors(dim: int) -> list[np.ndarray]:
    corners = [np.zeros(dim), np.ones(dim), -np.ones(dim)]
    for i in range(min(dim, 3)):
        e = np.zeros(dim)
        e[i] = 1.0
        corners.append(e.copy())
        corners.append(-e)
    huge = np.zeros(dim)
    huge[0] = 1e8
    corners.append(huge)
    mixed = np.ones(dim)
    mixed[0] = 1e8
    corners.append(mixed)
    return corners


def _vector_stream(dim: int, samples: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    corners = _corner_vectors(dim)
    for x in corners[:samples]:
        yield x
    for _ in range(max(0, samples - len(corners))):
        yield rng.uniform(-10.0, 10.0, size=dim)


def _pair_stream(
    dim: int, samples: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    ones = np.ones(dim)
    corners = [
        (np.zeros(dim), np.zeros(dim)),
        (ones.copy(), ones.copy()),
        (ones.copy(), -ones),
    ]
    for i in range(min(dim, 2)):
        e = np.zeros(dim)
        e[i] = 1.0
        corners.append((e.copy(), -e))
    huge = np.zeros(dim)
    huge[0] = 1e8
    corners.append((huge, ones.copy()))
    for pair in corners[:samples]:
        yield pair
    for _ in range(max(0, samples - len(corners))):
        yield (
            rng.uniform(-10.0, 10.0, size=dim),
            rng.uniform(-10.0, 10.0, size=dim),
        )


def _scalar_stream(
    corners: Iterable[float], low: float, high: float, samples: int, rng: np.random.Generator
) -> Iterator[float]:
    corners = list(corners)
    for r in corners[:samples]:
        yield r
    for _ in range(max(0, samples - len(corners))):
        yield float(rng.uniform(low, high))


def check_nonneg(f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int) -> CheckVerdict:
    """f(x) >= 0 on mixed-sign samples."""
    rng = np.random.default_rng(seed)
    for x in _vector_stream(dim, samples, rng):
        value = _eval(f, x)
        if value < -_tol(value, 0.0):
            return CheckVerdict(
                "non-negativity", False, Counterexample((tuple(x),), value, 0.0)
            )
    return CheckVerdict("non-negativity", True)


def check_subhom_at_one(
    f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int
) -> CheckVerdict:
    """f(lam * ones) <= lam * f(ones) for sampled lam in (0, 1)."""
    rng = np.random.default_rng(seed)
    ones = np.ones(dim)
    at_ones = _eval(f, ones)
    corners = (1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9)
    for lam in _scalar_stream(corners, 1e-12, 1.0 - 1e-12, samples, rng):
        lhs = _eval(f, lam * ones)
        rhs = lam * at_ones
        if lhs > rhs + _tol(lhs, rhs):
            return CheckVerdict(
                "sub-homogeneity(0,1)", False, Counterexample((lam,), lhs, rhs)
            )
    return CheckVerdict("sub-homogeneity(0,1)", True)


def check_subadd(f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int) -> CheckVerdict:
    """f(x + y) <= f(x) + f(y) on sampled pairs."""
    rng = np.random.default_rng(seed)
    for x, y in _pair_stream(dim, samples, rng):
        lhs = _eval(f, x + y)
        rhs = _eval(f, x) + _eval(f, y)
        if lhs > rhs + _tol(lhs, rhs):
            return CheckVerdict(
                "sub-additivity", False, Counterexample((tuple(x), tuple(y)), lhs, rhs)
            )
    return CheckVerdict("sub-additivity", True)


def check_max_monotone(
    f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int
) -> CheckVerdict:
    """f(x) <= f(sup_norm(x) * ones) on samples."""
    rng = np.random.default_rng(seed)
    ones = np.ones(dim)
    for x in _vector_stream(dim, samples, rng):
        lhs = _eval(f, x)
        rhs = _eval(f, float(np.max(np.abs(x))) * ones)
        if lhs > rhs + _tol(lhs, rhs):
            return CheckVerdict(
                "max-monotonicity", False, Counterexample((tuple(x),), lhs, rhs)
            )
    return CheckVerdict("max-monotonicity", True)


def check_reverse_triangle(
    f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int
) -> CheckVerdict:
    """|f(x) - f(y)| <= f(x - y); a consequence of sub-additivity."""
    rng = np.random.default_rng(seed)
    for x, y in _pair_stream(dim, samples, rng):
        lhs = abs(_eval(f, x) - _eval(f, y))
        rhs = _eval(f, x - y)
        if lhs > rhs + _tol(lhs, rhs):
            return CheckVerdict(
                "reverse-triangle", False, Counterexample((tuple(x), tuple(y)), lhs, rhs)
            )
    return CheckVerdict("reverse-triangle", True)


def check_extended_subhom(
    f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int
) -> CheckVerdict:
    """f(r * ones) <= r * f(ones) for sampled r > 1.

    Factors in (0, 1) belong to check_subhom_at_one; keeping the ranges
    disjoint lets the two verdicts disagree, which is the point: together
    with sub-additivity the (0, 1) axiom implies this one.
    """
    rng = np.random.default_rng(seed)
    ones = np.ones(dim)
    at_ones = _eval(f, ones)
    corners = (1.0 + 1e-9, 2.0, 7.3, 1000.0)
    for r in _scalar_stream(corners, 1.0 + 1e-12, 100.0, samples, rng):
        lhs = _eval(f, r * ones)
        rhs = r * at_ones
        if lhs > rhs + _tol(lhs, rhs):
            return CheckVerdict(
                "sub-homogeneity(r>1)", False, Counterexample((r,), lhs, rhs)
            )
    return CheckVerdict("sub-homogeneity(r>1)", True)


def check_all(f: RuleFunction, dim: int, samples: int = DEFAULT_SAMPLES, *, seed: int) -> AxiomReport:
    """Run every check with the same seed and collect the verdicts."""
    if dim < 1 or samples < 1:
        raise InvalidInputError(f"check_all: need dim >= 1 and samples >= 1, got {dim} and {samples}")
    return AxiomReport(
        dim=dim,
        samples=samples,
        seed=seed,
        nonneg=check_nonneg(f, dim, samples, seed=seed),
        subhom_at_one=check_subhom_at_one(f, dim, samples, seed=seed),
        subadd=check_subadd(f, dim, samples, seed=seed),
        max_monotone=check_max_monotone(f, dim, samples, seed=seed),
        reverse_triangle=check_reverse_triangle(f, dim, samples, seed=seed),
        extended_subhom=check_extended_subhom(f, dim, samples, seed=seed),
    )
