"""The solver: certification, fixed-point iteration and the record of a run.

``contraction_modulus`` and ``solve`` take any update map with ``n``,
``step(x)`` and ``certificate()``; the package's one such map is
``maps.LeaveOneOutMap``. When the certificate's modulus is below 1 the map
is a sup-norm contraction, so its fixed point is unique and Picard
iteration reaches it from any start; every run ends in
one :class:`SolveRun`. Traced, ``solve`` is Picard iteration on the map's
numpy ``step``, one reduction giving each step's size and finite check, and
stacks each output array once into the run's ``(steps + 1, N)`` array, which
``write_trace_csv`` formats row by row, on two processes if large. Untraced,
it keeps no iterates; a certified map that maximises over receivers
(``receiver_weights``) is then solved by :func:`policy_iteration` in pure
Python, numpy unloaded: a few K x K solves whatever the modulus, on sums with
a ``math.fsum`` receiver total. Every other map runs the Picard loop.
"""

from __future__ import annotations

import math
import os
from itertools import accumulate
from operator import add, mul, sub, truediv
from typing import Optional, Sequence

from .core import (
    FeasibilityReport,
    InfeasibleSystemError,
    InvalidInputError,
    NonConvergenceError,
    PowerVector,
    SolveConfig,
    _CSV_CELLS,
    _Frozen,
    np,
)

_FORK_CELLS = 1 << 15  # trace cells from which a forked helper repays its fork (~16k-24k reprs)


def contraction_modulus(system) -> FeasibilityReport:
    """The map's certificate: every terminal's rule at the all-ones vector, and the maximum.

    The system is feasible exactly when the maximum is below 1 (strictly);
    the binding entry names the terminal attaining it, plus the receiver
    when the map names one. ``maps.LeaveOneOutMap`` evaluates the values in
    closed form.
    """
    return system.certificate()


class SolveRun(_Frozen):
    """Outcome of one :func:`solve`: the step sizes, and the iterates of a traced run.

    ``deltas[t]`` is the sup-norm step of Picard step t, or, for policy
    iteration, the residual ``max|T(p) - p|`` at the point reached by
    evaluation or polish step t. ``solver`` is ``"policy"`` or ``"picard"``;
    ``certified`` is False when the run was forced despite a modulus >= 1.
    ``iterates`` is None unless ``solve`` ran traced: then a read-only
    ``(steps + 1, N)`` float array, row t holding iterate t (any sequence of
    equal-length power vectors is accepted).
    """

    def __init__(self, deltas: Sequence[float], converged: bool, tolerance: float,
                 certified: bool, solver: str, iterates: Optional[np.ndarray] = None):
        deltas = tuple(deltas)
        if deltas and min(deltas) < 0.0:
            raise InvalidInputError("SolveRun: deltas must be >= 0")
        if converged and (not deltas or deltas[-1] > tolerance):
            raise InvalidInputError("SolveRun: a converged run must end within tolerance")
        if iterates is not None:
            iterates = np.array(iterates, dtype=float)
            if iterates.ndim != 2 or iterates.shape[1] < 1:
                raise InvalidInputError("SolveRun: iterates must be a non-empty (steps + 1, N) array")
            if len(iterates) != len(deltas) + 1:
                raise InvalidInputError("SolveRun: need exactly one delta per step")
            iterates.flags.writeable = False
        self._set(deltas=deltas, converged=converged, tolerance=tolerance, certified=certified,
                  solver=solver, iterates=iterates)

    @property
    def iterations_used(self) -> int:
        return len(self.deltas)


def solve(
    system,
    config: SolveConfig = SolveConfig(),
    *,
    force: bool = False,
    trace: bool = True,
) -> tuple[PowerVector, SolveRun]:
    """Compute the fixed point of an update map.

    Refuses to start when the contraction modulus is >= 1 unless ``force``
    is set; forced runs are annotated ``certified=False`` and may
    legitimately end in :class:`NonConvergenceError` when the iterates
    diverge or stall.

    With ``trace`` (the default) this is synchronous Picard iteration and
    the :class:`SolveRun` holds every iterate.
    Stopping: with modulus ``lam < 1``, iteration stops once the step size
    drops below ``tolerance * (1 - lam)``. By the standard a-posteriori
    bound this puts the returned vector within ``tolerance`` of the exact
    fixed point and leaves a residual ``max|T(p*) - p*| <= tolerance``.
    A certified run whose step sets no new minimum for
    ``4 * ceil(1 / (1 - lam))`` steps, over which the exact step shrinks by
    at least e^4, is held by rounding: it raises :func:`_floor_error`'s
    :class:`InvalidInputError`. (A float run can hover at its floor for
    more than ``ceil(1 / (1 - lam))`` steps and then land on a fixed point.)

    With ``trace=False`` no iterates are kept. A certified, unforced map with
    ``receiver_weights`` (``maps.LeaveOneOutMap`` with a max reduction)
    is then solved without numpy by :func:`policy_iteration`, which returns
    a p with ``max|T(p) - p| <= tolerance * (1 - lam)``, the same
    guarantee. Every other map runs the Picard loop above.
    """
    report = contraction_modulus(system)
    if not report.feasible and not force:
        raise InfeasibleSystemError(
            f"solve: contraction modulus {report.modulus} >= 1; pass force=True to iterate anyway",
            report=report,
        )
    certified, lam = report.feasible, report.modulus
    threshold = config.tolerance * (1.0 - lam) if certified else config.tolerance

    start = [0.0] * system.n if config.initial is None else list(config.initial.p)
    if len(start) != system.n:
        raise InvalidInputError(f"solve: initial vector has {len(start)} entries, system has {system.n}")

    if not trace and not force and getattr(system, "receiver_weights", None) is not None:
        p, deltas = policy_iteration(system, start, lam, config)
        return PowerVector(tuple(p)), SolveRun(deltas, True, config.tolerance, True, "policy")

    x = np.array(start)
    iterates = [x] if trace else None  # each step's own output array, stacked once by SolveRun
    deltas: list[float] = []
    stall = 4 * math.ceil(1.0 / (1.0 - lam)) if certified else math.inf
    best, since = math.inf, 0
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging run's inf or NaN: delta ends it
        for _ in range(config.max_iter):
            nxt = system.step(x)
            delta = float(abs(nxt - x).max())  # x is finite: delta is finite exactly when nxt is
            if not delta < math.inf:
                raise NonConvergenceError(
                    "solve: iterates left the finite range (diverging run)",
                    trace=SolveRun(deltas, False, config.tolerance, certified, "picard", iterates),
                )
            if nxt.min() < 0.0:
                i = int(np.argmax(nxt < 0.0))
                raise InvalidInputError(
                    f"solve: the update gives terminal {i + 1} the negative power {float(nxt[i])!r}"
                )
            deltas.append(delta)
            if trace:
                iterates.append(nxt)
            x = nxt
            if delta <= threshold:
                return PowerVector(tuple(x)), SolveRun(deltas, True, config.tolerance, certified,
                                                       "picard", iterates)
            best, since = (delta, 0) if delta < best else (best, since + 1)
            if since >= stall:
                raise _floor_error(config.tolerance, best, lam)

    raise NonConvergenceError(
        f"solve: no convergence within {config.max_iter} iterations "
        f"(last step {deltas[-1] if deltas else 'n/a'})",
        trace=SolveRun(deltas, False, config.tolerance, certified, "picard", iterates),
    )


def _floor_error(tolerance: float, residual: float, lam: float) -> InvalidInputError:
    """The error of a run whose smallest residual, ``residual``, stays above ``tolerance * (1 - lam)``."""
    floor = residual / (1.0 - lam)
    unit = 10.0 ** (math.floor(math.log10(floor)) - 2)  # round up to 3 digits
    return InvalidInputError(
        f"solve: tolerance {tolerance!r} is below what float64 certifies here; "
        f"the smallest attainable tolerance is {math.ceil(floor / unit) * unit:.3g} "
        f"(residual {residual:.3g} / (1 - lambda))"
    )


def policy_iteration(system, x0: Sequence[float], lam: float, config: SolveConfig):
    """Howard's policy iteration for ``T(x) = max over policies of A_pi x + c``, in pure Python.

    ``system`` exposes ``G``, ``c`` and ``receiver_weights`` W as sequences
    (``maps.LeaveOneOutMap``). A policy pi picks one receiver with
    ``W[k][j] > 0`` per terminal; it starts greedy at ``T(x0)`` and each
    evaluation solves ``x = A_pi x + c`` exactly (:func:`_policy_point`).
    A terminal switches receiver only when another one is strictly larger
    at the current point (:func:`_policy_values`), so in exact arithmetic no
    policy repeats and the loop ends; a repeat (rounding ties) ends it too.
    ``lam < 1`` is the certified modulus.

    Accepts a point p only if ``max|T(p) - p| <= tolerance * (1 - lam)``,
    which bounds ``max|p - p*|`` by the tolerance. Failing that, it
    takes Picard steps from the last point while the step shrinks. Returns
    (p, residuals), one residual per evaluation and polish step; raises
    :class:`InvalidInputError` naming the smallest tolerance float64
    certifies here when the bound stays out of reach (or that T(p) leaves
    float64), and :class:`NonConvergenceError` when ``max_iter`` runs out first.
    """
    threshold = config.tolerance * (1.0 - lam)
    G, c, weights = system.G, system.c, system.receiver_weights
    masks = [[0.0 if w > 0.0 else -math.inf for w in row] for row in weights]
    tx0 = list(map(add, map(max, _policy_values(G, weights, masks, x0)), c))  # at x0 = 0 every value ties
    values = _policy_values(G, weights, masks, tx0)
    policy = list(map(tuple.index, values, map(max, values)))
    seen = {tuple(policy)}
    improving = True
    residuals: list[float] = []
    while len(residuals) < config.max_iter:
        # evaluate the policy, or, once it is stable, polish with a Picard step
        x = _policy_point(G, weights, c, policy) if improving else tx
        values = _policy_values(G, weights, masks, x)
        best = list(map(max, values))
        tx = list(map(add, best, c))
        if not all(map(math.isfinite, tx)):
            raise InvalidInputError("solve: the fixed point lies beyond the float64 range")
        residuals.append(max(map(abs, map(sub, tx, x))))
        if residuals[-1] <= threshold:
            return x, residuals
        if improving:
            policy = [v.index(b) if b > v[k] else k for v, b, k in zip(values, best, policy)]
            improving = tuple(policy) not in seen
            seen.add(tuple(policy))
        elif not residuals[-1] < residuals[-2]:
            raise _floor_error(config.tolerance, min(residuals), lam)
    raise NonConvergenceError(f"solve: no convergence within {config.max_iter} iterations")


def _fsum(terms) -> float:
    """``math.fsum``, but inf where finite terms overflow: :func:`policy_iteration` then stops."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _policy_values(G, weights, masks, x) -> list[tuple[float, ...]]:
    """v[j][k] = W[k][j] * s[k][j], plus ``masks[k][j]``: -inf where W[k][j] is 0, else 0.

    s[k][j] is receiver k's ``math.fsum`` total minus terminal j's own
    term. With row total T and unit roundoff u, it lies within u * T + u * s
    of the exact sum of the non-negative terms (Higham, 2002, 2.2 and 4.2).
    """
    values = []
    for row, w, mask in zip(G, weights, masks):
        terms = list(map(mul, row, x))
        values.append(list(map(add, map(mul, w, map(_fsum(terms).__sub__, terms)), mask)))
    return list(zip(*values))


def _policy_point(G, weights, c, policy) -> list[float]:
    """Solve ``x = A x + c`` with ``A = diag(w) E G`` minus its diagonal, E selecting ``policy``.

    Row j of ``A x`` is ``w[j] * (t[policy[j]] - G[policy[j]][j] * x_j)``
    with receiver totals ``t = G x``, so ``x = (c + w * t[policy]) / m``
    with ``m = 1 + w * G[policy, j]``. Substituting into ``t = G x`` leaves
    the K x K system ``(I - S) t = G (c / m)``, ``S = G diag(w / m) E``
    (the Woodbury capacitance matrix), each entry one ``math.fsum``.
    O(N * K + K^3); no N x N matrix is formed.
    """
    w = [weights[r][j] for j, r in enumerate(policy)]
    m = [1.0 + wj * G[r][j] for j, (wj, r) in enumerate(zip(w, policy))]
    members = sorted(range(len(c)), key=policy.__getitem__)  # terminals grouped by receiver
    bounds = list(accumulate(map(policy.count, range(len(G))), initial=0))
    a, cm, rows = list(map(truediv, w, m)), list(map(truediv, c, m)), []
    for i, row in enumerate(G):
        grouped = list(map(list(map(mul, row, a)).__getitem__, members))
        rows.append([float(i == l) - _fsum(grouped[lo:hi])
                     for l, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
                    + [_fsum(map(mul, row, cm))])
    for col in range(len(rows)):  # Gauss-Jordan elimination, partial pivoting, on [I - S | G (c / m)]
        pivot = max(range(col, len(rows)), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        rows = [row if row is top else list(map(sub, row, map((row[col] / top[col]).__mul__, top)))
                for row in rows]
    t = [row[-1] / row[i] for i, row in enumerate(rows)]
    return [cmj + aj * t[r] for cmj, aj, r in zip(cm, a, policy)]


def write_trace_csv(run: SolveRun, path) -> None:
    """Dump a traced run as CSV: iter, p_1..p_N, delta (blank on row 0), each value its ``repr``.

    The bytes are ``csv.writer``'s for the same strings. From ``_FORK_CELLS`` values on, with two or more
    cores, a forked helper formats the second half of the rows; if fork or the helper fails, this process does.
    """
    rows, n = run.iterates.shape
    deltas, step = ["", *map(repr, run.deltas)], max(1, _CSV_CELLS // n)

    def _trace_lines(start: int, stop: int):
        for lo in range(start, stop, step):
            chunk = enumerate(run.iterates[lo:min(lo + step, stop)].tolist(), lo)
            yield "".join(f"{t},{','.join(map(repr, row))},{deltas[t]}\r\n" for t, row in chunk)

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    half = rows // 2 if rows * n >= _FORK_CELLS and cores >= 2 and hasattr(os, "fork") else rows
    with open(path, "w", newline="") as fh:
        print(",".join(["iter", *(f"p_{i + 1}" for i in range(n)), "delta"]), end="\r\n", file=fh, flush=True)
        read, write = os.pipe()
        try:
            pid = os.fork() if half < rows else -1
        except OSError:
            pid = -1
        if pid == 0:  # the helper: touches only its pipe and leaves by os._exit, 0 once all is sent
            try:
                os.close(read)
                text = "".join(_trace_lines(half, rows)).encode("ascii")
                os._exit(0 if os.write(write, text) == len(text) else 1)
            finally:
                os._exit(1)
        os.close(write)
        pipe = open(read, "rb")
        try:
            fh.writelines(_trace_lines(0, half))
            sent = pipe.read()  # at once b"" without a helper: nothing else holds the write end
        finally:  # the pipe closes before the wait, so a helper still writing gets EPIPE
            pipe.close()
            status = os.waitpid(pid, 0)[1] if pid > 0 else 1
        whole = status == 0 and sent.count(b"\n") == rows - half
        fh.write(sent.decode("ascii") if whole else "".join(_trace_lines(half, rows)))
