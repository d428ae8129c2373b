"""Physical reception scenarios and their adjustment-rule systems.

Each builder turns a scenario description into a :class:`System` whose
rules come from the norm-like family, in the coordinates that make the
admission condition sharpest. ``leave_one_out_map`` builds the same update
map as arrays, a :class:`LeaveOneOutMap`, straight from numpy: that is the
map the CLI iterates, and ``feasibility_formula`` is its certificate. The
rule objects stay the independent reference the tests compare it with.

Every closed form is one kernel, ``_loo``: for each terminal j and
receiver k the leave-one-out weighted sum over n != j of x_n * G[k, n],
reduced over receivers by a max or by a d_j-th smallest. Scenarios differ
only in the coefficients G, the point x, a per-terminal scale, an
optional divisor and the reduction they pass in. The capacity module's
region predicates and inequality export use the same kernel, so ``check``
and ``region`` give the same verdict at the same targets.

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


def kth_smallest(values: Vector, m: int) -> float:
    """m-th smallest component, 1-based; duplicates count separately."""
    arr = np.sort(np.asarray(values, dtype=float))
    if not 1 <= m <= arr.size:
        raise InvalidInputError(f"kth_smallest: m={m} out of range for {arr.size} values")
    return float(arr[m - 1])


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
    from .rules import WeightedAbsSum

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
    from .rules import WeightedAbsSum

    n = sc.n
    rules = []
    for i in range(n):
        f = WeightedAbsSum(tuple(sc.alphas[j] for j in _others(n, i)))
        rules.append(AdjustmentRule(f=f, offset=sc.sigma, terminal_index=i))
    return System(tuple(rules))


def build_macro_diversity(md: MacroDiversity) -> System:
    """Received-power update P_i = (alpha_i/h_i) * (max_k interference_k + max noise)."""
    from .rules import HolderNorm, NormOfNorms, WeightedAbsSum

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
    from .rules import HolderNorm, NormOfNorms, WeightedAbsSum

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
    from .rules import WeightedAbsSum

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
    from .rules import HolderNorm, NormOfNorms, WeightedAbsSum

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


@dataclass(frozen=True, eq=False)
class LeaveOneOutMap:
    """A scenario's update map as arrays: one leave-one-out sum per terminal and receiver.

    ``step(x)[j] = scale[j] * reduce over k of (sum over n != j of
    G[k, n] * x_n) / divisor[j, k] + c[j]``. ``G`` (K x N) holds the
    coefficients in the iterate's coordinates; ``scale`` (N), ``divisor``
    (N x K) and ``order`` (N, 1-based ranks) are optional. The reduction is
    the max, or the order[j]-th smallest when ``order`` is given; a zero
    divisor makes that receiver's ratio infinite, never selected.

    The map is the same one the ``build_*`` rule objects apply, one call per
    terminal, and its certificate is the map at the all-ones vector without
    ``c``. ``names_receiver`` is False for a single cell, which has no
    receiver to name in the binding pair. ``receiver_weights`` gives the
    one-receiver-per-terminal form that ``engine.policy_iteration`` solves.
    """

    G: np.ndarray
    c: np.ndarray
    scale: np.ndarray | None = None
    divisor: np.ndarray | None = None
    order: np.ndarray | None = None
    names_receiver: bool = True

    def __post_init__(self):
        k, n = np.shape(self.G)
        if n < 2:
            raise InvalidInputError("LeaveOneOutMap: need at least two terminals")
        for name, shape, dtype in (("G", (k, n), float), ("c", (n,), float), ("scale", (n,), float),
                                   ("divisor", (n, k), float), ("order", (n,), int)):
            value = getattr(self, name)
            if value is None:
                continue
            arr = np.array(value, dtype=dtype)
            if arr.shape != shape:
                raise InvalidInputError(f"LeaveOneOutMap: {name} must have shape {shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.order is not None and np.any((self.order < 1) | (self.order > k)):
            raise InvalidInputError(f"LeaveOneOutMap: orders must lie in [1, {k}]")

    @property
    def n(self) -> int:
        return self.G.shape[1]

    def step(self, x: Vector) -> np.ndarray:
        """One synchronous update in O(N*K): the total per receiver minus each own term.

        Each sum's rounding error is then relative to its receiver's total,
        at most twice the largest leave-one-out sum there, so a sum much
        smaller than its own term carries a larger relative error.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InvalidInputError(f"LeaveOneOutMap: expected {self.n} powers, got shape {x.shape}")
        # with x >= 0 the rounded total is never below an own term, so sums >= 0
        sums = (self.G @ x)[:, None] - self.G * x  # (K, N)
        if self.divisor is not None:
            div = self.divisor.T
            sums = np.divide(sums, div, out=np.full_like(sums, np.inf), where=div > 0.0)
        if self.order is None:
            out = sums.max(axis=0)
        else:
            out = np.sort(sums, axis=0)[self.order - 1, np.arange(self.n)]
        if self.scale is not None:
            out *= self.scale
        return out + self.c

    def certificate(self) -> FeasibilityReport:
        """The map without offsets at the all-ones vector, by the :func:`_loo` kernel.

        Computed once per map: the map is immutable, so ``check``'s and
        ``solve``'s certifications of it share one kernel evaluation.
        """
        return self._certificate

    @cached_property
    def _certificate(self) -> FeasibilityReport:
        moduli, receivers = _loo(self.G, np.ones(self.n), self.scale, self.divisor, self.order)
        term = int(np.argmax(moduli))
        named = receivers is not None and self.names_receiver
        return FeasibilityReport.from_moduli(moduli, int(receivers[term]) if named else None, term)

    @cached_property
    def receiver_weights(self) -> np.ndarray | None:
        """W (N x K) when the map picks one receiver per terminal, else None.

        Then ``step(x)[j]`` is the largest ``W[j, k] * s[j, k]`` over the
        receivers with ``W[j, k] > 0``, plus ``c[j]``, where s[j, k] is the
        leave-one-out sum: a max reduction, or a smallest ratio with one
        positive divisor per terminal (fixed assignment). A d-th smallest
        over several receivers has no such form and gives None.
        """
        scale = (np.ones(self.n) if self.scale is None else self.scale)[:, None]
        if self.order is None and self.divisor is None:
            weights = np.repeat(scale, self.G.shape[0], axis=1)
        elif (self.order is not None and self.divisor is not None and np.all(self.order == 1)
              and np.all((self.divisor > 0.0).sum(axis=1) == 1)):
            weights = np.divide(scale, self.divisor, out=np.zeros_like(self.divisor),
                                where=self.divisor > 0.0)
        else:
            return None
        weights.flags.writeable = False
        return weights


def leave_one_out_map(
    scenario,
    *,
    coordinates: str = "transformed",
    noiseless: bool = False,
) -> LeaveOneOutMap:
    """The scenario's update map in array form, no rule objects involved.

    ``coordinates`` selects the original or transformed map for the
    single-cell and macro-diversity scenarios; ``noiseless`` selects the
    exact (order-statistic) versus bounded map for multi-connection. The
    coordinates are those of the matching ``build_*`` system.
    """
    if coordinates not in ("original", "transformed"):
        raise InvalidInputError(f"leave_one_out_map: unknown coordinates {coordinates!r}")
    if not isinstance(scenario, (SingleCell, MacroDiversity, FixedAssignment, MultiConnection)):
        raise InvalidInputError(
            f"leave_one_out_map: unsupported scenario {type(scenario).__name__}"
        )

    # Coefficients fold the targets in as G[k, n] * alpha_n, the product the
    # kernel forms at x = alpha, so the certificate at x = 1 rounds alike.
    alphas = scenario.alphas.as_array()
    n = scenario.n
    transformed = coordinates == "transformed"
    scale = divisor = order = None
    if isinstance(scenario, SingleCell):
        if transformed:  # alpha_n
            G, c = alphas[None, :], np.full(n, scenario.sigma)
        else:  # scale alpha_i, coefficients 1
            G, scale, c = np.ones((1, n)), alphas, scenario.sigma * alphas
    elif isinstance(scenario, MacroDiversity):
        sigma_hat = scenario.noise.max()
        if transformed:  # alpha_n * g_nk
            G, c = scenario.gains.relative_array().T * alphas, np.full(n, sigma_hat)
        else:  # (alpha_i / h_i) * h_nk
            scale = alphas / np.array(scenario.gains.row_sums)
            G, c = scenario.gains.as_array().T, scale * sigma_hat
    elif isinstance(scenario, FixedAssignment):
        # only the assigned receiver has a non-zero divisor, so the smallest
        # ratio is alpha_j * (sum of other gains there) / own gain there
        G, scale = np.array(scenario.gains, dtype=float), alphas
        assigned = np.array(scenario.assignment)
        served = np.arange(scenario.receivers) == assigned[:, None]
        divisor, order = np.where(served, G.T, 0.0), np.ones(n, dtype=int)
        c = alphas * scenario.noise.as_array()[assigned] / G[assigned, np.arange(n)]
    else:  # alpha_i * h_ki, over h_kj (exact) or over the d_i-th largest gain (bounded)
        G, divisor, order = _mc_terms(scenario.gains, scenario.d, noiseless)
        G = G * alphas
        c = np.zeros(n) if noiseless else np.full(n, scenario.noise.max())
    named = not isinstance(scenario, SingleCell)
    return LeaveOneOutMap(G, c, scale, divisor, order, names_receiver=named)


def feasibility_formula(
    scenario,
    *,
    coordinates: str = "transformed",
    noiseless: bool = False,
) -> FeasibilityReport:
    """Closed-form admission condition for a scenario, no rule objects involved.

    The certificate of :func:`leave_one_out_map` with the same arguments.
    Must agree with ``contraction_modulus`` of the matching build to 1e-12.
    """
    return leave_one_out_map(scenario, coordinates=coordinates, noiseless=noiseless).certificate()
