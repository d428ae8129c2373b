"""Physical reception scenarios and their adjustment-rule systems.

Each builder turns a scenario description into a :class:`System` whose
rules come from the norm-like family, in the coordinates that make the
admission condition sharpest. ``feasibility_formula`` evaluates the same
conditions in closed form, independently of the rule objects, so the two
paths can cross-check each other.

Every closed form is one kernel, ``_loo``: for each terminal j and
receiver k the leave-one-out weighted sum over n != j of x_n * G[k, n],
reduced over receivers by a max or by a d_j-th smallest. Scenarios differ
only in the coefficients G, the point x, a per-terminal scale, an
optional divisor and the reduction they pass in. The capacity module's
region predicates and inequality export use the same kernel, so ``check``
and ``region`` give the same verdict at the same targets; the rule
objects stay the independent reference.

Coordinate conventions:

* single cell: "original" works on received powers P_i with update
  P_i = alpha_i * (sum of other received powers + sigma); "transformed"
  divides through, q_i = P_i / alpha_i.
* macro diversity: "original" works on received powers with the bounded
  update P_i = (alpha_i / h_i) * (max-receiver interference + max noise);
  "transformed" uses q_i = h_i * P_i / alpha_i.
* multiple connection: the exact noiseless mode is expressed in
  q_j = p_j / gamma_j; the bounded mode in q_j = p_j * h_j / gamma_j with
  h_j the d_j-th largest gain of terminal j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    AdjustmentRule,
    FeasibilityReport,
    GainMatrix,
    InvalidInputError,
    NoiseVector,
    QosVector,
    Vector,
)
from .engine import System
from .rules import HolderNorm, NormOfNorms, WeightedAbsSum


def kth_smallest(values: Vector, m: int) -> float:
    """m-th smallest component, 1-based; duplicates count separately."""
    arr = np.sort(np.asarray(values, dtype=float))
    if not 1 <= m <= arr.size:
        raise InvalidInputError(f"kth_smallest: m={m} out of range for {arr.size} values")
    return float(arr[m - 1])


def kth_largest(values: Vector, m: int) -> float:
    """m-th largest component, 1-based; duplicates count separately."""
    arr = np.sort(np.asarray(values, dtype=float))
    if not 1 <= m <= arr.size:
        raise InvalidInputError(f"kth_largest: m={m} out of range for {arr.size} values")
    return float(arr[arr.size - m])


def _reference_gains(gains, d, what: str) -> np.ndarray:
    """d_j-th largest gain of each terminal j; ``gains`` is receiver-major (K x N).

    The bounded multi-connection condition divides by these. Rejects orders
    outside [1, K] and terminals in range of fewer than d_j receivers.
    """
    h = np.asarray(gains, dtype=float)
    k, n = h.shape
    order = np.asarray(d, dtype=int)
    if order.shape != (n,):
        raise InvalidInputError(f"{what}: one diversity order per terminal required")
    bad = np.flatnonzero((order < 1) | (order > k))
    if bad.size:
        j = int(bad[0])
        raise InvalidInputError(
            f"{what}: diversity order {order[j]} for terminal {j + 1} must lie in [1, {k}]"
        )
    ref = np.sort(h, axis=0)[k - order, np.arange(n)]
    bad = np.flatnonzero(ref <= 0.0)
    if bad.size:
        j = int(bad[0])
        raise InvalidInputError(f"{what}: terminal {j + 1} is not in range of {order[j]} receivers")
    return ref


def _matrix_rows(rows, what: str) -> tuple[tuple[float, ...], ...]:
    out = tuple(tuple(float(v) for v in row) for row in rows)
    if len(out) < 1 or len(out[0]) < 1:
        raise InvalidInputError(f"{what}: matrix must be non-empty")
    width = len(out[0])
    for r, row in enumerate(out):
        if len(row) != width:
            raise InvalidInputError(f"{what}: row {r + 1} has length {len(row)}, expected {width}")
        for v in row:
            if not math.isfinite(v) or v < 0.0:
                raise InvalidInputError(f"{what}: entries must be finite and >= 0, got {v}")
    return out


@dataclass(frozen=True)
class SingleCell:
    """One receiver; every terminal interferes with every other."""

    alphas: QosVector
    gains: tuple[float, ...]
    sigma: float

    def __post_init__(self):
        gains = tuple(float(v) for v in self.gains)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "sigma", float(self.sigma))
        if len(gains) != len(self.alphas):
            raise InvalidInputError("SingleCell: one gain per terminal required")
        if any(not math.isfinite(g) or g <= 0.0 for g in gains):
            raise InvalidInputError("SingleCell: gains must be finite and > 0")
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise InvalidInputError("SingleCell: sigma must be finite and >= 0")

    @property
    def n(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class MacroDiversity:
    """All receivers jointly decode every terminal; no cell boundaries."""

    alphas: QosVector
    gains: GainMatrix
    noise: NoiseVector

    def __post_init__(self):
        if self.gains.n_terminals != len(self.alphas):
            raise InvalidInputError("MacroDiversity: one gain row per terminal required")
        if len(self.noise) != self.gains.n_receivers:
            raise InvalidInputError("MacroDiversity: one noise power per receiver required")

    @property
    def n(self) -> int:
        return len(self.alphas)

    @property
    def receivers(self) -> int:
        return self.gains.n_receivers


@dataclass(frozen=True)
class FixedAssignment:
    """Each terminal is decoded only by its assigned receiver.

    ``gains`` is receiver-major (K rows by N columns); ``assignment[j]`` is
    the 0-based receiver index serving terminal j.
    """

    alphas: QosVector
    gains: tuple[tuple[float, ...], ...]
    assignment: tuple[int, ...]
    noise: NoiseVector

    def __post_init__(self):
        gains = _matrix_rows(self.gains, "FixedAssignment gains")
        assignment = tuple(int(a) for a in self.assignment)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "assignment", assignment)
        n = len(self.alphas)
        k = len(gains)
        if len(gains[0]) != n:
            raise InvalidInputError("FixedAssignment: gain rows must have one column per terminal")
        if len(assignment) != n:
            raise InvalidInputError("FixedAssignment: one assigned receiver per terminal required")
        if len(self.noise) != k:
            raise InvalidInputError("FixedAssignment: one noise power per receiver required")
        for j, a in enumerate(assignment):
            if not 0 <= a < k:
                raise InvalidInputError(
                    f"FixedAssignment: terminal {j + 1} assigned to receiver {a + 1}, "
                    f"but only {k} receivers exist"
                )
            if gains[a][j] <= 0.0:
                raise InvalidInputError(
                    f"FixedAssignment: terminal {j + 1} has zero gain to its assigned receiver {a + 1}"
                )

    @property
    def n(self) -> int:
        return len(self.alphas)

    @property
    def receivers(self) -> int:
        return len(self.gains)


@dataclass(frozen=True)
class MultiConnection:
    """Each terminal must meet its SIR target at its d_j best receivers.

    ``gains`` is receiver-major (K rows by N columns). ``d[j] = 1`` is
    minimum power assignment as a special case.
    """

    alphas: QosVector
    gains: tuple[tuple[float, ...], ...]
    d: tuple[int, ...]
    noise: NoiseVector

    def __post_init__(self):
        gains = _matrix_rows(self.gains, "MultiConnection gains")
        d = tuple(int(v) for v in self.d)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "d", d)
        n = len(self.alphas)
        k = len(gains)
        if len(gains[0]) != n:
            raise InvalidInputError("MultiConnection: gain rows must have one column per terminal")
        if len(self.noise) != k:
            raise InvalidInputError("MultiConnection: one noise power per receiver required")
        _reference_gains(gains, d, "MultiConnection")

    @property
    def n(self) -> int:
        return len(self.alphas)

    @property
    def receivers(self) -> int:
        return len(self.gains)

    def column(self, j: int) -> tuple[float, ...]:
        return tuple(row[j] for row in self.gains)

    def reference_gain(self, j: int) -> float:
        """d_j-th largest gain of terminal j; the bounded mode divides by it."""
        return float(_reference_gains(self.gains, self.d, "MultiConnection")[j])


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
        if any(not math.isfinite(v) or v < 0.0 for v in divisors):
            raise InvalidInputError("MinSelectionRule: divisors must be finite and >= 0")
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
    href = _reference_gains(mc.gains, mc.d, "MultiConnection")
    return tuple(href.tolist()), np.array(mc.gains, dtype=float) / href


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
                divisors=mc.column(j),
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
                divisors=mc.column(j),
                order=mc.d[j],
                scale=href[j],
            )
        )
    return tuple(out)


def macro_diversity_exact_update(md: MacroDiversity, powers: Vector) -> np.ndarray:
    """One step of the exact per-receiver update the bounded rule over-estimates.

    Terminal i's exact requirement balances its target against the sum of
    per-receiver gain-to-interference ratios:
    P_i = alpha_i / sum_k [ h_ik / (Y_ik + sigma_k^2) ]. Needs every
    denominator positive (positive noise or interference).
    """
    p = np.asarray(powers, dtype=float)
    n, k = md.n, md.receivers
    if p.shape != (n,):
        raise InvalidInputError(f"macro_diversity_exact_update: expected {n} powers")
    h = md.gains.as_array()
    interference = _loo_sums(h.T, p[:, None])[:, :, 0]  # Y_ik: leave-one-out received power
    denom = interference + md.noise.as_array()[None, :]
    if np.any(denom <= 0.0):
        raise InvalidInputError(
            "macro_diversity_exact_update: zero interference-plus-noise at some receiver"
        )
    totals = (h / denom).sum(axis=1)
    return np.asarray(md.alphas.as_array() / totals, dtype=float)


def hanly(alphas: Vector, receivers: int) -> bool:
    """Gain-independent baseline admission test: total target sum below K."""
    arr = np.asarray(alphas, dtype=float)
    return bool(arr.sum() < receivers)


_CHUNK = 1 << 19  # (terminal, receiver, point) sums the kernel holds at once


def _loo_sums(G: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """s[j, k, p] = sum over n != j of G[k, n] * xt[n, p], shape (N, K, P).

    The own term is left out, never subtracted from a total, and terms are
    added in terminal order, so each entry rounds the same way whatever
    else is in the batch. At the unit vectors (xt = I) s[j, :, m] is the
    coefficient of x_m, exactly G[:, m] for m != j and 0 for m == j.
    """
    n = xt.shape[0]
    sums = np.zeros((n, G.shape[0], xt.shape[1]))
    for m in range(n):
        term = G[:, m, None] * xt[m]
        sums[:m] += term
        sums[m + 1:] += term
    return sums


def _loo(G, x, scale=None, divisor=None, order=None):
    """The leave-one-out kernel behind every closed-form admission condition.

    ``G`` holds coefficients (K x N) and ``x`` is one point (N,) or a batch
    (P, N). Per terminal j it reduces the sums s[j, k] of
    :func:`_loo_sums` over receivers k, after dividing them by
    ``divisor[j, k]`` (N x K) when given, a zero divisor making that
    receiver's ratio infinite, never selected. Without ``order`` the
    reduction is the max; with ``order`` (1-based ranks, one per terminal)
    it is the order[j]-th smallest. The result is multiplied by ``scale``
    (one factor per terminal) when given. Batches are evaluated ``_CHUNK``
    sums at a time.

    Returns (values, receivers), values shaped like ``x``. For one point
    and the max reduction, receivers[j] is the argmax, terminal j's binding
    receiver; otherwise receivers is None.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    p, n = pts.shape
    values = np.empty((n, p))
    step = max(1, _CHUNK // (n * G.shape[0]))
    for start in range(0, p, step):
        cols = slice(start, start + step)
        sums = _loo_sums(G, pts[cols].T)
        if divisor is not None:
            div = divisor[:, :, None]
            sums = np.divide(sums, div, out=np.full_like(sums, np.inf), where=div > 0.0)
        if order is None:
            values[:, cols] = sums.max(axis=1)
        else:
            values[:, cols] = np.sort(sums, axis=1)[np.arange(n), np.asarray(order) - 1]
    if scale is not None:
        values *= np.asarray(scale)[:, None]
    if x.ndim == 2:
        return values.T, None
    # one point is one chunk, so ``sums`` still holds all of its sums
    return values[:, 0], None if order is not None else sums[:, :, 0].argmax(axis=1)


def _mc_terms(gains, d, noiseless: bool):
    """Kernel inputs (G, divisor, order) of a multi-connection condition in the targets.

    Exact noiseless: G = h, each sum divided by the terminal's own gain at
    that receiver, d_j-th smallest. Bounded: G = h / (d_j-th largest gain
    of each terminal), max over receivers.
    """
    h = np.array(gains, dtype=float)
    if noiseless:
        return h, h.T, np.asarray(d)
    return h / _reference_gains(h, d, "MultiConnection"), None, None


def feasibility_formula(
    scenario,
    *,
    coordinates: str = "transformed",
    noiseless: bool = False,
) -> FeasibilityReport:
    """Closed-form admission condition for a scenario, no rule objects involved.

    ``coordinates`` selects the original or transformed condition for the
    single-cell and macro-diversity scenarios; ``noiseless`` selects the
    exact (order-statistic) versus bounded condition for multi-connection.
    Must agree with ``contraction_modulus`` of the matching build to 1e-12.
    """
    if coordinates not in ("original", "transformed"):
        raise InvalidInputError(f"feasibility_formula: unknown coordinates {coordinates!r}")
    if not isinstance(scenario, (SingleCell, MacroDiversity, FixedAssignment, MultiConnection)):
        raise InvalidInputError(
            f"feasibility_formula: unsupported scenario {type(scenario).__name__}"
        )

    alphas = scenario.alphas.as_array()
    ones = np.ones(scenario.n)
    transformed = coordinates == "transformed"
    divisor = order = None
    if isinstance(scenario, SingleCell):
        G = np.ones((1, scenario.n))
        x, scale = (alphas, None) if transformed else (ones, alphas)
    elif isinstance(scenario, MacroDiversity):
        if transformed:  # alpha_n * g_nk
            G, x, scale = scenario.gains.relative_array().T, alphas, None
        else:  # (alpha_i / h_i) * h_nk
            G, x, scale = scenario.gains.as_array().T, ones, alphas / scenario.gains.row_sums
    elif isinstance(scenario, FixedAssignment):
        # only the assigned receiver has a non-zero divisor, so the smallest
        # ratio is alpha_j * (sum of other gains there) / own gain there
        G, x, scale = np.array(scenario.gains, dtype=float), ones, alphas
        served = np.arange(scenario.receivers) == np.array(scenario.assignment)[:, None]
        divisor, order = np.where(served, G.T, 0.0), np.ones(scenario.n, dtype=int)
    else:
        G, divisor, order = _mc_terms(scenario.gains, scenario.d, noiseless)
        x, scale = alphas, None

    moduli, receivers = _loo(G, x, scale, divisor, order)
    term = int(np.argmax(moduli))
    named = receivers is not None and not isinstance(scenario, SingleCell)
    return FeasibilityReport.from_moduli(moduli, int(receivers[term]) if named else None, term)
