"""Fixed-point machinery: certification, successive approximation, oracle.

A :class:`System` bundles one adjustment rule per terminal. The update map
applies every rule synchronously to the previous iterate; when each rule's
function evaluates below 1 at the all-ones vector, the map is a contraction
in the sup norm with modulus equal to the largest such value, so Picard
iteration converges to the unique fixed point from any starting vector.

``contraction_modulus`` and ``solve`` take any update map with ``n``,
``step(x)`` and ``certificate()``: a :class:`System` of rule objects, or
the array form ``scenarios.LeaveOneOutMap`` that the CLI solves. Traced,
``solve`` is Picard iteration and stacks each step's own output array once
into the trace's ``(steps + 1, N)`` array, which ``write_trace_csv`` writes
through ``core.write_csv``. Untraced, it keeps no iterates; a certified map
that picks one receiver per terminal (``receiver_weights``) is then solved
by :func:`policy_iteration`, a few K x K Woodbury solves whatever the
modulus, and every other map by the same Picard loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    AdjustmentRule,
    FeasibilityReport,
    InfeasibleSystemError,
    InvalidFunctionError,
    InvalidInputError,
    IterationTrace,
    NonConvergenceError,
    PowerVector,
    remove_component,
    sup_norm,
    write_csv,
)

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True)
class System:
    """N coupled adjustment rules; rule i consumes the other N-1 powers."""

    rules: tuple[AdjustmentRule, ...]

    def __post_init__(self):
        rules = tuple(self.rules)
        object.__setattr__(self, "rules", rules)
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
        """Every rule at the all-ones vector; see :func:`contraction_modulus`."""
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


@dataclass(frozen=True)
class SolveConfig:
    tolerance: float = DEFAULT_TOLERANCE
    max_iter: int = DEFAULT_MAX_ITER
    initial: Optional[PowerVector] = None

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise InvalidInputError(f"SolveConfig: tolerance must be > 0, got {self.tolerance}")
        if self.max_iter < 1:
            raise InvalidInputError(f"SolveConfig: max_iter must be >= 1, got {self.max_iter}")


def lift_rule(f: Callable[[np.ndarray], float], i: int) -> Callable[[np.ndarray], float]:
    """View a rule on the other terminals' powers as a function of all powers.

    The lifted function ignores component ``i``; it inherits every axiom of
    ``f``, which is what makes the whole update map a contraction.
    """

    def lifted(x: np.ndarray) -> float:
        return float(f(remove_component(x, i)))

    return lifted


def contraction_modulus(system) -> FeasibilityReport:
    """Evaluate every terminal's rule at the all-ones vector and report the maximum.

    The system is feasible exactly when the maximum is below 1 (strictly);
    the binding entry names the terminal attaining it, plus the receiver
    when the rule exposes one. A :class:`System` calls its rules one by
    one; an array map evaluates the same values in closed form.
    """
    return system.certificate()


@dataclass(frozen=True)
class SolveRun:
    """Outcome of an untraced :func:`solve`: the step sizes, no iterates.

    ``deltas[t]`` is the sup-norm step of Picard step t, or, for policy
    iteration, the residual ``sup_norm(T(p) - p)`` at the point reached by
    evaluation or polish step t. ``solver`` is ``"policy"`` or ``"picard"``.
    """

    deltas: tuple[float, ...]
    converged: bool
    tolerance: float
    certified: bool
    solver: str

    @property
    def iterations_used(self) -> int:
        return len(self.deltas)


def solve(
    system,
    config: SolveConfig = SolveConfig(),
    *,
    force: bool = False,
    trace: bool = True,
) -> tuple[PowerVector, IterationTrace | SolveRun]:
    """Compute the fixed point of an update map.

    Refuses to start when the contraction modulus is >= 1 unless ``force``
    is set; forced runs are annotated ``certified=False`` and may
    legitimately end in :class:`NonConvergenceError` when the iterates
    diverge or stall.

    With ``trace`` (the default) this is synchronous Picard iteration and
    the second element is the :class:`IterationTrace` of every iterate.
    Stopping: with modulus ``lam < 1``, iteration stops once the step size
    drops below ``tolerance * (1 - lam)``. By the standard a-posteriori
    bound this puts the returned vector within ``tolerance`` of the exact
    fixed point and leaves a residual ``sup_norm(T(p*) - p*) <= tolerance``.

    With ``trace=False`` no iterates are kept and the second element is a
    :class:`SolveRun`. A certified, unforced map whose ``receiver_weights``
    name one chosen receiver per terminal (``scenarios.LeaveOneOutMap`` with
    a max reduction or one positive divisor) is then solved by
    :func:`policy_iteration`, which returns a p with
    ``sup_norm(T(p) - p) <= tolerance * (1 - lam)``, the same guarantee.
    Every other map runs the Picard loop above.
    """
    report = contraction_modulus(system)
    if not report.feasible and not force:
        raise InfeasibleSystemError(
            f"solve: contraction modulus {report.modulus} >= 1; pass force=True to iterate anyway",
            report=report,
        )
    certified = report.feasible
    threshold = config.tolerance * (1.0 - report.modulus) if certified else config.tolerance

    if config.initial is None:
        x = np.zeros(system.n)
    else:
        if len(config.initial) != system.n:
            raise InvalidInputError(
                f"solve: initial vector has {len(config.initial)} entries, system has {system.n}"
            )
        x = config.initial.as_array()

    if not trace and not force and getattr(system, "receiver_weights", None) is not None:
        p, deltas = policy_iteration(system, x, report.modulus, config)
        run = SolveRun(tuple(deltas), converged=True, tolerance=config.tolerance, certified=True,
                       solver="policy")
        return PowerVector(tuple(p)), run

    iterates = [x]  # each step's own output array, stacked once into the trace
    deltas: list[float] = []

    def build_trace(converged: bool) -> IterationTrace | SolveRun:
        if not trace:
            return SolveRun(tuple(deltas), converged, config.tolerance, certified, solver="picard")
        return IterationTrace(iterates=iterates, deltas=deltas, converged=converged,
                              tolerance=config.tolerance, certified=certified)

    for _ in range(config.max_iter):
        nxt = np.asarray(system.step(x), dtype=float)
        if not np.isfinite(nxt).all():
            raise NonConvergenceError(
                "solve: iterates left the finite range (diverging run)",
                trace=build_trace(False),
            )
        if (nxt < 0.0).any():
            i = int(np.argmax(nxt < 0.0))
            raise InvalidInputError(
                f"solve: the update gives terminal {i + 1} the negative power {float(nxt[i])!r}"
            )
        delta = sup_norm(nxt - x)
        deltas.append(delta)
        if trace:
            iterates.append(nxt)
        x = nxt
        if delta <= threshold:
            return PowerVector(tuple(x)), build_trace(True)

    raise NonConvergenceError(
        f"solve: no convergence within {config.max_iter} iterations "
        f"(last step {deltas[-1] if deltas else 'n/a'})",
        trace=build_trace(False),
    )


def policy_iteration(system, x0: np.ndarray, lam: float, config: SolveConfig):
    """Howard's policy iteration for ``T(x) = max over policies of A_pi x + c``.

    ``system`` exposes ``G`` (K x N), ``c`` (N), ``step`` and
    ``receiver_weights`` W (N x K): ``T(x)[j]`` is the largest
    ``W[j, k] * (sum over n != j of G[k, n] * x_n)`` over receivers k with
    ``W[j, k] > 0``, plus ``c[j]``. A policy pi picks one such receiver per
    terminal; it starts greedy at ``x0`` and each evaluation solves
    ``x = A_pi x + c`` exactly (:func:`_evaluate_policy`). A terminal
    switches receiver only when another one is strictly larger at the
    current point, so in exact arithmetic no policy repeats and the loop
    ends; a repeat (rounding ties) ends it too. ``lam < 1`` is the
    certified modulus.

    Accepts a point p only if ``sup_norm(T(p) - p) <= tolerance * (1 - lam)``,
    which bounds ``sup_norm(p - p*)`` by the tolerance. Failing that, it
    takes Picard steps from the last point while the step shrinks. Returns
    (p, residuals), one residual per evaluation and polish step; raises
    :class:`InvalidInputError` naming the smallest tolerance float64
    certifies here when the bound stays out of reach, and
    :class:`NonConvergenceError` when ``max_iter`` runs out first.
    """
    threshold = config.tolerance * (1.0 - lam)
    weights = system.receiver_weights.T  # (K, N)
    cols = np.arange(system.n)

    def values(x):
        sums = (system.G @ x)[:, None] - system.G * x
        return np.where(weights > 0.0, weights * sums, -np.inf)

    residuals: list[float] = []
    policy = values(x0).argmax(axis=0)
    seen = {policy.tobytes()}
    improving = True
    while len(residuals) < config.max_iter:
        # evaluate the policy, or, once it is stable, polish with a Picard step
        x = _evaluate_policy(system.G, weights[policy, cols], policy, system.c) if improving else tx
        tx = system.step(x)
        residuals.append(sup_norm(tx - x))
        if residuals[-1] <= threshold:
            return x, residuals
        if improving:
            v = values(x)
            better = v.max(axis=0) > v[policy, cols]
            policy = np.where(better, v.argmax(axis=0), policy)
            improving = bool(better.any()) and policy.tobytes() not in seen
            seen.add(policy.tobytes())
        elif not residuals[-1] < residuals[-2]:
            floor = min(residuals) / (1.0 - lam)
            unit = 10.0 ** (math.floor(math.log10(floor)) - 2)  # round up to 3 digits
            raise InvalidInputError(
                f"solve: tolerance {config.tolerance!r} is below what float64 certifies here; "
                f"the smallest attainable tolerance is {math.ceil(floor / unit) * unit:.3g} "
                f"(residual {min(residuals):.3g} / (1 - lambda))"
            )
    raise NonConvergenceError(f"solve: no convergence within {config.max_iter} iterations")


def _evaluate_policy(G: np.ndarray, w: np.ndarray, policy: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve ``x = A x + c`` with ``A = diag(w) E G`` minus its diagonal, E selecting ``policy``.

    Row j of ``A x`` is ``w[j] * (t[policy[j]] - G[policy[j], j] * x_j)``
    with receiver totals ``t = G x``, so ``x = (c + w * t[policy]) / m``
    with ``m = 1 + w * G[policy, j]``. Substituting into ``t = G x`` leaves
    the K x K system ``(I - S) t = G (c / m)``, ``S = G diag(w / m) E``:
    the Sherman-Morrison-Woodbury capacitance matrix of the rank-K part.
    O(N * K^2 + K^3); no N x N matrix is formed.
    """
    n = G.shape[1]
    cols = np.arange(n)
    m = 1.0 + w * G[policy, cols]
    select = np.zeros((n, G.shape[0]))
    select[cols, policy] = w / m
    t = np.linalg.solve(np.eye(G.shape[0]) - G @ select, G @ (c / m))
    return (c + w * t[policy]) / m


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


def rate_check(trace: IterationTrace, lam: float) -> bool:
    """Verify the geometric envelope delta[t+1] <= lam * delta[t] on a trace.

    The comparison allows 1e-12 * (1 + delta[t]) of floating-point slack.
    """
    for prev, nxt in zip(trace.deltas, trace.deltas[1:]):
        if nxt > lam * prev + 1e-12 * (1.0 + prev):
            return False
    return True


def affine_parts(system: System) -> tuple[np.ndarray, np.ndarray]:
    """Extract (A, c) with update p <- A p + c from a weighted-abs-sum system.

    Valid on the non-negative orthant, where the weighted absolute sums are
    plain linear forms. Raises for systems built from other rule families.
    """
    from .rules import WeightedAbsSum

    n = system.n
    A = np.zeros((n, n))
    c = np.zeros(n)
    for i, rule in enumerate(system.rules):
        if not isinstance(rule.f, WeightedAbsSum):
            raise InvalidInputError(
                f"affine_parts: rule for terminal {i + 1} is not a weighted absolute sum"
            )
        others = [j for j in range(n) if j != i]
        for j, w in zip(others, rule.f.weights):
            A[i, j] = abs(w)
        c[i] = rule.offset
    return A, c


def write_trace_csv(trace: IterationTrace, path) -> None:
    """Dump a trace as CSV: iter, p_1..p_N, delta (delta blank on row 0)."""
    rows, n = trace.iterates.shape
    write_csv(
        path,
        ["iter"] + [f"p_{i + 1}" for i in range(n)] + ["delta"],
        [np.arange(rows), *trace.iterates.T, ["", *trace.deltas]],
    )
