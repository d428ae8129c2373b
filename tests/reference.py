"""The rule-object reference: each scenario's update map written out again, one rule per terminal.

A :class:`System` holds one :class:`AdjustmentRule` per terminal: a
function of the other terminals' powers, such as a ``powerfeas.axioms``
norm, plus an offset. Its ``n``, ``step`` and ``certificate`` make it an
update map that ``engine.solve`` and ``engine.contraction_modulus`` accept,
as they accept the package's own ``maps.LeaveOneOutMap``. Each builder
turns a scenario into a System; :func:`affine_parts` reads the (A, c) of an
affine System and :func:`linear_oracle` solves p = A p + c directly; the exact
multi-connection rules (:class:`MinSelectionRule`) and the exact
macro-diversity update are the maps the bounded ones over-estimate. The
tests compare all of it with ``maps``'s array map, ``scenarios``'s closed
form and ``engine.solve``. To keep that comparison independent, this module
imports neither ``engine``, ``maps`` nor the scenarios kernels (a test checks all three);
it shares only scenario data such as ``reference_gains``.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from powerfeas.core import (
    FeasibilityReport,
    InfeasibleSystemError,
    InvalidInputError,
    PowerVector,
    Vector,
    _check_entries,
    _Frozen,
    _matrix_rows,
)
from powerfeas.axioms import HolderNorm, NormOfNorms, WeightedAbsSum
from powerfeas.scenarios import FixedAssignment, MacroDiversity, MultiConnection, SingleCell


class InvalidFunctionError(ValueError):
    """A rule function is unusable, e.g. non-finite at the all-ones vector."""


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


def insert_component(x: Vector, i: int, value: float) -> np.ndarray:
    """Inverse of :func:`remove_component`: put ``value`` back at position ``i``."""
    arr = np.asarray(x, dtype=float)
    n = arr.shape[0] + 1
    if not 0 <= i < n:
        raise IndexError(f"insert_component: index {i} out of range for length {n}")
    return np.concatenate((arr[:i], [float(value)], arr[i:]))


def kth_smallest(values: Vector, m: int) -> float:
    """m-th smallest component, 1-based; duplicates count separately."""
    arr = np.sort(np.asarray(values, dtype=float))
    if not 1 <= m <= arr.size:
        raise InvalidInputError(f"kth_smallest: m={m} out of range for {arr.size} values")
    return float(arr[m - 1])


def _vector(x: Vector, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (dim,):
        raise InvalidInputError(f"{what}: expected a vector of length {dim}, got shape {arr.shape}")
    return arr


class MinSelectionRule(_Frozen):
    """Scaled d-th smallest of per-receiver weighted sums over own gains.

    Evaluates ``scale * (order-th smallest over k of
    (sum_m weight_rows[k][m] * |x_m|) / divisors[k])``. Receivers with a
    zero divisor produce an infinite ratio and are never selected; at least
    ``order`` positive divisors are therefore required. Non-negative,
    max-monotone and positively homogeneous, but not sub-additive in
    general, so certification goes through a domination bound rather than
    directly through the contraction theorem.
    """

    def __init__(self, weight_rows: Sequence[Sequence[float]], divisors: Sequence[float],
                 order: int, scale: float = 1.0):
        rows = _matrix_rows(weight_rows, "MinSelectionRule weights")
        divisors = tuple(float(v) for v in divisors)
        order, scale = int(order), float(scale)
        self._set(weight_rows=rows, divisors=divisors, order=order, scale=scale)
        if len(divisors) != len(rows):
            raise InvalidInputError("MinSelectionRule: one divisor per weight row required")
        _check_entries(divisors, "MinSelectionRule: divisor")
        if not 1 <= order <= len(rows):
            raise InvalidInputError(f"MinSelectionRule: order {order} out of range")
        if sum(1 for v in divisors if v > 0.0) < order:
            raise InvalidInputError(f"MinSelectionRule: need at least {order} positive divisors")
        if not math.isfinite(scale) or scale < 0.0:
            raise InvalidInputError("MinSelectionRule: scale must be finite and >= 0")

    @property
    def dim(self) -> int:
        return len(self.weight_rows[0])

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.weight_rows), np.array(self.divisors)

    def __call__(self, x: Vector) -> float:
        weights, divisors = self._arrays
        sums = weights @ np.abs(_vector(x, self.dim, "MinSelectionRule"))
        ratios = np.where(divisors > 0.0, sums / np.where(divisors > 0.0, divisors, 1.0), np.inf)
        return self.scale * kth_smallest(ratios, self.order)


class DominationBound(_Frozen):
    """Scaled sup norm that pointwise over-estimates a dominated rule.

    ``scale`` equals the dominated function's value at the all-ones vector;
    the bound is valid whenever that function is non-negative, max-monotone
    and sub-homogeneous for every positive scaling factor.
    """

    def __init__(self, scale: float, dim: int):
        self._set(scale=float(scale), dim=int(dim))
        if not math.isfinite(self.scale) or self.scale < 0.0:
            raise InvalidInputError(f"DominationBound: scale must be finite and >= 0, got {self.scale}")
        if self.dim < 1:
            raise InvalidInputError("DominationBound: dim must be >= 1")

    def __call__(self, x: Vector) -> float:
        return sup_norm(_vector(x, self.dim, "DominationBound")) * self.scale


def dominate(f: Callable[[np.ndarray], float], dim: int) -> DominationBound:
    """The sup-norm bound for ``f`` from its value at the all-ones vector.

    Under the hypotheses of :class:`DominationBound` (which the axioms
    module can check on samples), ``bound(x) >= f(x)`` everywhere.
    """
    try:
        at_ones = float(f(np.ones(int(dim))))
    except Exception as exc:
        raise InvalidFunctionError(f"dominate: function failed at the all-ones vector: {exc}") from exc
    if not math.isfinite(at_ones) or at_ones < 0.0:
        raise InvalidFunctionError(
            f"dominate: function value at the all-ones vector must be finite and >= 0, got {at_ones}"
        )
    return DominationBound(scale=at_ones, dim=int(dim))


def lift_rule(f: Callable[[np.ndarray], float], i: int) -> Callable[[np.ndarray], float]:
    """View a rule on the other terminals' powers as a function of all powers, ignoring component ``i``."""
    return lambda x: float(f(remove_component(x, i)))


class AdjustmentRule(_Frozen):
    """One terminal's power update: next power = f(other powers) + offset, offset finite and >= 0."""

    def __init__(self, f: Callable[[np.ndarray], float], offset: float):
        self._set(f=f, offset=float(offset))
        if not callable(f):
            raise InvalidInputError("AdjustmentRule: f must be callable")
        if not math.isfinite(self.offset) or self.offset < 0.0:
            raise InvalidInputError(f"AdjustmentRule: offset must be finite and >= 0, got {self.offset}")


class System(_Frozen):
    """N coupled adjustment rules from (f, offset) pairs; rule i consumes the other N-1 powers."""

    def __init__(self, rules: Sequence[tuple[Callable[[np.ndarray], float], float]]):
        self._set(rules=tuple(AdjustmentRule(f, offset) for f, offset in rules))
        if self.n < 2:
            raise InvalidInputError("System: need at least two terminals")
        for i, rule in enumerate(self.rules):
            dim = getattr(rule.f, "dim", None)
            if dim is not None and dim != self.n - 1:
                raise InvalidInputError(f"System: rule {i + 1} consumes {dim} powers, expected {self.n - 1}")

    @property
    def n(self) -> int:
        return len(self.rules)

    def step(self, x: np.ndarray) -> np.ndarray:
        """One synchronous update: every component from the previous iterate."""
        return np.array([rule.f(remove_component(x, i)) + rule.offset for i, rule in enumerate(self.rules)],
                        dtype=float)

    def certificate(self) -> FeasibilityReport:
        """Every rule at the all-ones vector, one by one.

        A binding rule that is a max of weighted sums (``NormOfNorms`` with
        the sup outer norm) names the receiver of its largest sum.
        """
        ones = np.ones(self.n - 1)
        moduli = [float(rule.f(ones)) for rule in self.rules]
        for i, value in enumerate(moduli):
            if not math.isfinite(value):
                raise InvalidFunctionError(
                    f"contraction_modulus: rule for terminal {i + 1} is {value} at the all-ones vector")
        f = self.rules[moduli.index(max(moduli))].f
        binding = isinstance(f, NormOfNorms) and math.isinf(f.outer.p)
        return FeasibilityReport(moduli, int(np.argmax(f.inner_values(ones))) if binding else None)


def rate_check(run, lam: float) -> bool:
    """The geometric envelope delta[t+1] <= lam * delta[t] on a run, with 1e-12 * (1 + delta[t]) of slack."""
    return not any(nxt > lam * prev + 1e-12 * (1.0 + prev) for prev, nxt in zip(run.deltas, run.deltas[1:]))


def _others(n: int, i: int) -> list[int]:
    return [j for j in range(n) if j != i]


def _max_of_sums(rows) -> NormOfNorms:
    return NormOfNorms(inner=tuple(map(WeightedAbsSum, rows)), outer=HolderNorm(math.inf))


def build_single_cell_received(sc: SingleCell) -> System:
    """Received-power update P_i = alpha_i * (sum of other P_n + sigma)."""
    return System((WeightedAbsSum((a,) * (sc.n - 1)), sc.sigma * a) for a in sc.alphas)


def build_single_cell_transformed(sc: SingleCell) -> System:
    """Normalised update q_i = sum of other alpha_n * q_n + sigma, q_i = P_i / alpha_i.

    Its modulus per terminal is the leave-one-out target sum, which is the
    sharper admission condition: targets may individually exceed 1/(N-1)
    and still certify here.
    """
    n = sc.n
    return System((WeightedAbsSum([sc.alphas[j] for j in _others(n, i)]), sc.sigma) for i in range(n))


def build_macro_diversity(md: MacroDiversity) -> System:
    """Transmit-power update P_i = (alpha_i/h_i) * (max_k interference_k + max noise), h_i the gain row sum."""
    n, h, sigma_hat = md.n, md.gains, max(md.noise)
    scales = [a / s for a, s in zip(md.alphas, md.row_sums)]
    return System((_max_of_sums([[scales[i] * h[m][k] for m in _others(n, i)] for k in range(md.receivers)]),
                    scales[i] * sigma_hat) for i in range(n))


def build_macro_diversity_transformed(md: MacroDiversity) -> System:
    """Normalised update q_i = max_k sum of other alpha_n * g_nk * q_n + max noise.

    q_i = h_i * P_i / alpha_i; the per-terminal modulus is then exactly the
    largest leave-one-out weighted target sum over receivers.
    """
    n, g, sigma_hat = md.n, md.relative, max(md.noise)
    return System((_max_of_sums([[md.alphas[m] * g[m][k] for m in _others(n, i)]
                                  for k in range(md.receivers)]), sigma_hat) for i in range(n))


def build_fixed_assignment(fa: FixedAssignment) -> System:
    """Transmit-power update at each terminal's assigned receiver only."""
    rules = []
    for j, a in enumerate(fa.assignment):
        own = fa.gains[a][j]
        rules.append((WeightedAbsSum([fa.alphas[j] * fa.gains[a][i] / own for i in _others(fa.n, j)]),
                      fa.alphas[j] * fa.noise[a] / own))
    return System(rules)


def _mc_bounded_relative_gains(mc: MultiConnection) -> tuple[tuple[float, ...], np.ndarray]:
    """Reference gains h_j (d_j-th largest per terminal) and g_kj = h_kj / h_j."""
    href = mc.reference_gains
    return href, np.array(mc.gains, dtype=float) / href


def build_multi_connection(mc: MultiConnection, noiseless: bool) -> System:
    """Two sub-modes, selected by ``noiseless``.

    * ``noiseless=True``: the exact rule in q_j = p_j / gamma_j coordinates,
      q_j = d_j-th smallest over receivers of (sum of other gamma_i * h_ki
      * q_i) / h_kj, with no offset. Noise is deliberately dropped. These
      rules are not sub-additive, so certify them through a domination
      bound (:func:`dominate`).
    * ``noiseless=False``: the bounded rule in q_j = p_j * h_j / gamma_j
      coordinates with h_j the d_j-th largest gain of terminal j:
      q_j = max_k sum of other gamma_i * g_ki * q_i + max noise.
    """
    n, k = mc.n, mc.receivers
    if noiseless:
        return System((MinSelectionRule([[mc.alphas[i] * mc.gains[kk][i] for i in _others(n, j)]
                                          for kk in range(k)],
                                         [row[j] for row in mc.gains], mc.d[j]), 0.0) for j in range(n))
    _, g = _mc_bounded_relative_gains(mc)
    return System((_max_of_sums([[mc.alphas[i] * g[kk, i] for i in _others(n, j)] for kk in range(k)]),
                    max(mc.noise)) for j in range(n))


def mc_exact_rules_in_bounded_coords(mc: MultiConnection) -> tuple[MinSelectionRule, ...]:
    """The exact noiseless rules rewritten in the bounded mode's coordinates.

    In q_j = p_j * h_j / gamma_j coordinates, terminal j's exact update is
    h_j * (d_j-th smallest over k of (sum of other gamma_i * g_ki * q_i) /
    h_kj). The bounded rule replaces the selected ratio with the maximum
    interference over h_j, so it dominates these rules pointwise on the
    non-negative orthant; tests assert exactly that ordering.
    """
    href, g = _mc_bounded_relative_gains(mc)
    return tuple(
        MinSelectionRule([[mc.alphas[i] * g[kk, i] for i in _others(mc.n, j)] for kk in range(mc.receivers)],
                         [row[j] for row in mc.gains], mc.d[j], href[j])
        for j in range(mc.n)
    )


def macro_diversity_exact_update(md: MacroDiversity, powers: Vector) -> np.ndarray:
    """One step of the exact per-receiver update the bounded rule over-estimates.

    Terminal i's exact requirement balances its target against the sum of
    per-receiver gain-to-interference ratios:
    P_i = alpha_i / sum_k [ h_ik / (Y_ik + sigma_k^2) ], Y_ik the power
    receiver k hears from the other terminals. Needs every denominator
    positive (positive noise or interference).
    """
    p = _vector(powers, md.n, "macro_diversity_exact_update")
    h = np.array(md.gains)
    received = h * p[:, None]
    denom = received.sum(axis=0) - received + np.array(md.noise)
    if np.any(denom <= 0.0):
        raise InvalidInputError("macro_diversity_exact_update: zero interference-plus-noise at some receiver")
    return np.array(md.alphas) / (h / denom).sum(axis=1)


def affine_parts(system: System) -> tuple[np.ndarray, np.ndarray]:
    """Extract (A, c) with update p <- A p + c from a weighted-abs-sum system.

    Valid on the non-negative orthant, where the weighted absolute sums are
    plain linear forms. Raises for systems built from other rule families.
    """
    n = system.n
    A, c = np.zeros((n, n)), np.zeros(n)
    for i, rule in enumerate(system.rules):
        if not isinstance(rule.f, WeightedAbsSum):
            raise InvalidInputError(f"affine_parts: rule for terminal {i + 1} is not a weighted absolute sum")
        A[i, _others(n, i)] = np.abs(rule.f.weights)
        c[i] = rule.offset
    return A, c


def linear_oracle(A: Sequence[Sequence[float]], c: Sequence[float]) -> PowerVector:
    """Exact solution of p = A p + c by direct elimination with partial pivoting.

    Independent ground truth for affine systems: A must be square and
    non-negative with a zero diagonal, c non-negative. Raises
    ``InfeasibleSystemError`` when (I - A) is singular.
    """
    A_arr, c_arr = np.asarray(A, dtype=float), np.asarray(c, dtype=float)
    if A_arr.ndim != 2 or A_arr.shape[0] != A_arr.shape[1]:
        raise InvalidInputError(f"linear_oracle: A must be square, got shape {A_arr.shape}")
    n = A_arr.shape[0]
    if c_arr.shape != (n,):
        raise InvalidInputError(f"linear_oracle: c must have length {n}, got shape {c_arr.shape}")
    if not np.all(np.isfinite(A_arr)) or not np.all(np.isfinite(c_arr)):
        raise InvalidInputError("linear_oracle: entries must be finite")
    if np.any(A_arr < 0.0) or np.any(c_arr < 0.0):
        raise InvalidInputError("linear_oracle: A and c must be non-negative")
    if np.any(np.diag(A_arr) != 0.0):
        raise InvalidInputError("linear_oracle: A must have a zero diagonal")
    try:
        solution = np.linalg.solve(np.eye(n) - A_arr, c_arr)
    except np.linalg.LinAlgError as exc:
        raise InfeasibleSystemError(f"linear_oracle: (I - A) is singular: {exc}") from exc
    return PowerVector(tuple(float(v) for v in solution))
