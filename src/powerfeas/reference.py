"""The rule-object reference: each scenario's update map written out again, one rule per terminal.

A :class:`System` bundles one :class:`AdjustmentRule` per terminal, each a
``powerfeas.rules`` object applied to the other terminals' powers; its
``step`` and ``certificate`` make it an update map ``engine.solve`` accepts.
Each builder turns a scenario into such a System, :func:`affine_parts` reads
the (A, c) of an affine one and :func:`linear_oracle` solves p = A p + c
directly. No command runs any of it; tests compare it with ``scenarios``'s
array map and closed form and with ``engine.solve``. To keep that comparison
independent, this module imports neither ``engine`` nor the scenarios kernels
and no other package module imports this one (a test checks both); it
shares only scenario data such as ``reference_gains``.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Sequence

from .core import (
    FeasibilityReport,
    InfeasibleSystemError,
    InvalidFunctionError,
    InvalidInputError,
    PowerVector,
    Vector,
    _check_entries,
    _Frozen,
    _matrix_rows,
    np,
    remove_component,
)
from .rules import HolderNorm, NormOfNorms, WeightedAbsSum
from .scenarios import FixedAssignment, MacroDiversity, MultiConnection, SingleCell


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
        return FeasibilityReport.from_moduli(moduli, binder(ones) if binder is not None else None)


def lift_rule(f: Callable[[np.ndarray], float], i: int) -> Callable[[np.ndarray], float]:
    """View a rule on the other terminals' powers as a function of all powers.

    The lifted function ignores component ``i``; it inherits every axiom of
    ``f``, which is what makes the whole update map a contraction.
    """

    def lifted(x: np.ndarray) -> float:
        return float(f(remove_component(x, i)))

    return lifted


def affine_parts(system: System) -> tuple[np.ndarray, np.ndarray]:
    """Extract (A, c) with update p <- A p + c from a weighted-abs-sum system.

    Valid on the non-negative orthant, where the weighted absolute sums are
    plain linear forms. Raises for systems built from other rule families.
    """
    n = system.n
    A = np.zeros((n, n))
    c = np.zeros(n)
    for i, rule in enumerate(system.rules):
        if not isinstance(rule.f, WeightedAbsSum):
            raise InvalidInputError(
                f"affine_parts: rule for terminal {i + 1} is not a weighted absolute sum"
            )
        for j, w in zip(_others(n, i), rule.f.weights):
            A[i, j] = abs(w)
        c[i] = rule.offset
    return A, c


def linear_oracle(A: Sequence[Sequence[float]], c: Sequence[float]) -> PowerVector:
    """Exact solution of p = A p + c by direct elimination with partial pivoting.

    Independent ground truth for affine systems: A must be square and
    non-negative with a zero diagonal, c non-negative. Raises
    :class:`InfeasibleSystemError` when (I - A) is singular.
    """
    A_arr = np.asarray(A, dtype=float)
    c_arr = np.asarray(c, dtype=float)
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


def kth_smallest(values: Vector, m: int) -> float:
    """m-th smallest component, 1-based; duplicates count separately."""
    arr = np.sort(np.asarray(values, dtype=float))
    if not 1 <= m <= arr.size:
        raise InvalidInputError(f"kth_smallest: m={m} out of range for {arr.size} values")
    return float(arr[m - 1])


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
            raise InvalidInputError(
                f"MinSelectionRule: need at least {order} positive divisors"
            )
        if not math.isfinite(scale) or scale < 0.0:
            raise InvalidInputError("MinSelectionRule: scale must be finite and >= 0")

    @property
    def dim(self) -> int:
        return len(self.weight_rows[0])

    @cached_property
    def _weights(self) -> np.ndarray:
        arr = np.array(self.weight_rows, dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def _divisors(self) -> np.ndarray:
        arr = np.array(self.divisors, dtype=float)
        arr.flags.writeable = False
        return arr

    def __call__(self, x: Vector) -> float:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dim,):
            raise InvalidInputError(
                f"MinSelectionRule: expected a vector of length {self.dim}, got shape {arr.shape}"
            )
        sums = self._weights @ np.abs(arr)
        ratios = np.where(self._divisors > 0.0, sums / np.where(self._divisors > 0.0, self._divisors, 1.0), np.inf)
        return self.scale * kth_smallest(ratios, self.order)


def _others(n: int, i: int) -> list[int]:
    return [j for j in range(n) if j != i]


def build_single_cell_received(sc: SingleCell) -> System:
    """Received-power update P_i = alpha_i * (sum of other P_n + sigma)."""
    n = sc.n
    rules = []
    for i in range(n):
        f = WeightedAbsSum((sc.alphas[i],) * (n - 1))
        rules.append(AdjustmentRule(f=f, offset=sc.sigma * sc.alphas[i], terminal_index=i))
    return System(tuple(rules))


def build_single_cell_transformed(sc: SingleCell) -> System:
    """Normalised update q_i = sum of other alpha_n * q_n + sigma, q_i = P_i / alpha_i.

    Its modulus per terminal is the leave-one-out target sum, which is the
    sharper admission condition: targets may individually exceed 1/(N-1)
    and still certify here.
    """
    n = sc.n
    rules = []
    for i in range(n):
        f = WeightedAbsSum(tuple(sc.alphas[j] for j in _others(n, i)))
        rules.append(AdjustmentRule(f=f, offset=sc.sigma, terminal_index=i))
    return System(tuple(rules))


def build_macro_diversity(md: MacroDiversity) -> System:
    """Received-power update P_i = (alpha_i/h_i) * (max_k interference_k + max noise)."""
    n = md.n
    h = md.gains.h
    row_sums = md.gains.row_sums
    sigma_hat = md.noise.max()
    rules = []
    for i in range(n):
        scale = md.alphas[i] / row_sums[i]
        inner = tuple(
            WeightedAbsSum(tuple(scale * h[nn][k] for nn in _others(n, i)))
            for k in range(md.receivers)
        )
        f = NormOfNorms(inner=inner, outer=HolderNorm(math.inf))
        rules.append(AdjustmentRule(f=f, offset=scale * sigma_hat, terminal_index=i))
    return System(tuple(rules))


def build_macro_diversity_transformed(md: MacroDiversity) -> System:
    """Normalised update q_i = max_k sum of other alpha_n * g_nk * q_n + max noise.

    q_i = h_i * P_i / alpha_i; the per-terminal modulus is then exactly the
    largest leave-one-out weighted target sum over receivers.
    """
    n = md.n
    g = md.gains.relative
    sigma_hat = md.noise.max()
    rules = []
    for i in range(n):
        inner = tuple(
            WeightedAbsSum(tuple(md.alphas[nn] * g[nn][k] for nn in _others(n, i)))
            for k in range(md.receivers)
        )
        f = NormOfNorms(inner=inner, outer=HolderNorm(math.inf))
        rules.append(AdjustmentRule(f=f, offset=sigma_hat, terminal_index=i))
    return System(tuple(rules))


def build_fixed_assignment(fa: FixedAssignment) -> System:
    """Transmit-power update at each terminal's assigned receiver only."""
    n = fa.n
    rules = []
    for j in range(n):
        a = fa.assignment[j]
        own = fa.gains[a][j]
        weights = tuple(fa.alphas[j] * fa.gains[a][i] / own for i in _others(n, j))
        f = WeightedAbsSum(weights)
        offset = fa.alphas[j] * fa.noise.sigma_sq[a] / own
        rules.append(AdjustmentRule(f=f, offset=offset, terminal_index=j))
    return System(tuple(rules))


def _mc_bounded_relative_gains(mc: MultiConnection) -> tuple[tuple[float, ...], np.ndarray]:
    """Reference gains h_j (d_j-th largest per terminal) and g_kj = h_kj / h_j."""
    href = mc.reference_gains
    return href, np.array(mc.gains, dtype=float) / href


def build_multi_connection(mc: MultiConnection, noiseless: bool) -> System:
    """Two sub-modes, selected by ``noiseless``.

    * ``noiseless=True``: the exact rule in q_j = p_j / gamma_j coordinates,
      q_j = d_j-th smallest over receivers of (sum of other gamma_i * h_ki
      * q_i) / h_kj, with no offset. Noise is deliberately dropped; the
      caller must opt in rather than have it discarded silently. These
      rules are not sub-additive, so certify them through a domination
      bound (see :func:`powerfeas.rules.dominate`).
    * ``noiseless=False``: the bounded rule in q_j = p_j * h_j / gamma_j
      coordinates with h_j the d_j-th largest gain of terminal j:
      q_j = max_k sum of other gamma_i * g_ki * q_i + max noise.
    """
    n = mc.n
    k = mc.receivers
    rules = []
    if noiseless:
        for j in range(n):
            weight_rows = tuple(
                tuple(mc.alphas[i] * mc.gains[kk][i] for i in _others(n, j))
                for kk in range(k)
            )
            f = MinSelectionRule(
                weight_rows=weight_rows,
                divisors=tuple(row[j] for row in mc.gains),
                order=mc.d[j],
                scale=1.0,
            )
            rules.append(AdjustmentRule(f=f, offset=0.0, terminal_index=j))
    else:
        _, g = _mc_bounded_relative_gains(mc)
        sigma_hat = mc.noise.max()
        for j in range(n):
            inner = tuple(
                WeightedAbsSum(tuple(mc.alphas[i] * g[kk, i] for i in _others(n, j)))
                for kk in range(k)
            )
            f = NormOfNorms(inner=inner, outer=HolderNorm(math.inf))
            rules.append(AdjustmentRule(f=f, offset=sigma_hat, terminal_index=j))
    return System(tuple(rules))


def mc_exact_rules_in_bounded_coords(mc: MultiConnection) -> tuple[MinSelectionRule, ...]:
    """The exact noiseless rules rewritten in the bounded mode's coordinates.

    In q_j = p_j * h_j / gamma_j coordinates, terminal j's exact update is
    h_j * (d_j-th smallest over k of (sum of other gamma_i * g_ki * q_i) /
    h_kj). The bounded rule replaces the selected ratio with the maximum
    interference over h_j, so it dominates these rules pointwise on the
    non-negative orthant; tests assert exactly that ordering.
    """
    n = mc.n
    k = mc.receivers
    href, g = _mc_bounded_relative_gains(mc)
    out = []
    for j in range(n):
        weight_rows = tuple(
            tuple(mc.alphas[i] * g[kk, i] for i in _others(n, j)) for kk in range(k)
        )
        out.append(
            MinSelectionRule(
                weight_rows=weight_rows,
                divisors=tuple(row[j] for row in mc.gains),
                order=mc.d[j],
                scale=href[j],
            )
        )
    return tuple(out)
