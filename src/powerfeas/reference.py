"""The rule-object reference: each scenario's update map written out again, one rule per terminal.

Each builder turns a scenario into an ``engine.System`` of ``powerfeas.rules``
objects. No command runs them; tests compare them with ``scenarios``'s array
map and closed form. To keep that comparison independent, this module imports
none of the scenarios kernels and no other package module imports this one (a
test checks both); it shares only scenario data such as ``reference_gains``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .core import InvalidInputError, Vector, _check_entries, _matrix_rows, np
from .engine import AdjustmentRule, System
from .rules import HolderNorm, NormOfNorms, WeightedAbsSum
from .scenarios import FixedAssignment, MacroDiversity, MultiConnection, SingleCell


def kth_smallest(values: Vector, m: int) -> float:
    """m-th smallest component, 1-based; duplicates count separately."""
    arr = np.sort(np.asarray(values, dtype=float))
    if not 1 <= m <= arr.size:
        raise InvalidInputError(f"kth_smallest: m={m} out of range for {arr.size} values")
    return float(arr[m - 1])


@dataclass(frozen=True)
class MinSelectionRule:
    """Scaled d-th smallest of per-receiver weighted sums over own gains.

    Evaluates ``scale * (order-th smallest over k of
    (sum_m weight_rows[k][m] * |x_m|) / divisors[k])``. Receivers with a
    zero divisor produce an infinite ratio and are never selected; at least
    ``order`` positive divisors are therefore required. Non-negative,
    max-monotone and positively homogeneous, but not sub-additive in
    general, so certification goes through a domination bound rather than
    directly through the contraction theorem.
    """

    weight_rows: tuple[tuple[float, ...], ...]
    divisors: tuple[float, ...]
    order: int
    scale: float = 1.0

    def __post_init__(self):
        rows = _matrix_rows(self.weight_rows, "MinSelectionRule weights")
        divisors = tuple(float(v) for v in self.divisors)
        object.__setattr__(self, "weight_rows", rows)
        object.__setattr__(self, "divisors", divisors)
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "scale", float(self.scale))
        if len(divisors) != len(rows):
            raise InvalidInputError("MinSelectionRule: one divisor per weight row required")
        _check_entries(divisors, "MinSelectionRule: divisor")
        if not 1 <= self.order <= len(rows):
            raise InvalidInputError(f"MinSelectionRule: order {self.order} out of range")
        if sum(1 for v in divisors if v > 0.0) < self.order:
            raise InvalidInputError(
                f"MinSelectionRule: need at least {self.order} positive divisors"
            )
        if not math.isfinite(self.scale) or self.scale < 0.0:
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
