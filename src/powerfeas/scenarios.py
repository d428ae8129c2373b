"""Physical reception scenarios and their closed-form admission test.

The scenario types take plain sequences (tuples, lists or numpy arrays) for
targets, gains and noise, store them as float tuples and check every shape
and value on construction; the admission test needs two terminals or more.
``feasibility_formula`` certifies a scenario's update map in pure Python, in
the coordinates that make the admission condition sharpest: all ``check``
runs. The map as arrays (``maps.LeaveOneOutMap``) lives in ``maps``; the
tests write it out again as one rule object per terminal, an independent
reference to compare with.

Every closed form is one leave-one-out sum s[k][j] over n != j of x_n *
G[k, n], for each receiver k and terminal j, times W[k][j] and reduced over
the receivers with W[k][j] > 0 by a max or a d_j-th smallest. Scenarios
differ only in (G, W, order, c), which ``_coefficients`` builds. The
certificate and ``region`` add each sum as a prefix (n < j, left to right)
plus a suffix (n > j, right to left): here for one point (``_point_sums``),
in ``maps`` as two passes over ``region``'s batches, bit for bit alike.
The iteration takes each receiver's total minus each own term instead.

Coordinate conventions:

* single cell: "original" works on received powers P_i with update
  P_i = alpha_i * (sum of other received powers + sigma); "transformed"
  divides through, q_i = P_i / alpha_i.
* macro diversity: "original" works on transmit powers P_i with the
  bounded update P_i = (alpha_i / h_i) * (max-receiver interference + max
  noise), h_i the gain row sum; "transformed" uses q_i = h_i * P_i / alpha_i.
* multiple connection: the exact noiseless mode is expressed in
  q_j = p_j / gamma_j; the bounded mode in q_j = p_j * h_j / gamma_j with
  h_j the d_j-th largest gain of terminal j.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, mul, truediv

from .core import FeasibilityReport, InvalidInputError, Vector, _check_entries, _entries, _Frozen, _matrix_rows


def _targets(alphas, owner: str) -> tuple[float, ...]:
    """``alphas`` as a float tuple of finite targets > 0, at least two: the admission test needs them."""
    alphas = _entries(alphas, owner, "target for terminal", positive=True)
    if len(alphas) < 2:
        raise InvalidInputError("admission test: need at least two terminals")
    return alphas


def _reference_gains(gains, d) -> list[float]:
    """d_j-th largest gain of each terminal j; ``gains`` is receiver-major (K x N).

    The bounded multi-connection condition divides by these. Rejects orders
    outside [1, K] and terminals in range of fewer than d_j receivers.
    """
    k = len(gains)
    if len(d) != len(gains[0]):
        raise InvalidInputError("MultiConnection: one diversity order per terminal required")
    for j, order in enumerate(d):
        if not 1 <= order <= k:
            raise InvalidInputError(f"MultiConnection: diversity order {order} for terminal {j + 1} "
                                    f"must lie in [1, {k}]")
    ref = [sorted(column)[k - order] for column, order in zip(zip(*gains), d)]
    for j, h in enumerate(ref):
        if h <= 0.0:
            raise InvalidInputError(f"MultiConnection: terminal {j + 1} is not in range of {d[j]} receivers")
    return ref


class _Scenario(_Frozen):
    """Base of the scenario types: ``n`` targets and, for receiver-major ``gains``, ``receivers``."""

    @property
    def n(self) -> int:
        return len(self.alphas)

    @property
    def receivers(self) -> int:
        return len(self.gains)


class SingleCell(_Scenario):
    """One receiver; every terminal interferes with every other.

    Takes one target and one positive gain per terminal and a noise power ``sigma``.
    """

    def __init__(self, alphas: Vector, gains: Vector, sigma: float):
        alphas = _targets(alphas, "SingleCell")
        gains = tuple(float(v) for v in gains)
        self._set(alphas=alphas, gains=gains, sigma=float(sigma))
        if len(gains) != len(alphas):
            raise InvalidInputError("SingleCell: one gain per terminal required")
        _check_entries(gains, "SingleCell: gain for terminal", positive=True)
        if not math.isfinite(self.sigma) or self.sigma < 0.0:
            raise InvalidInputError("SingleCell: sigma must be finite and >= 0")

    @property
    def receivers(self) -> int:
        return 1


class MacroDiversity(_Scenario):
    """All receivers jointly decode every terminal; no cell boundaries.

    ``gains`` is terminal-major (N rows by K columns): an entry may be zero,
    a terminal out of range of a receiver, but every row needs a positive,
    finite sum h_i. ``noise`` holds one power per receiver. ``row_sums`` (the
    h_i) and ``relative`` (each row over its sum) are derived on construction
    and not compared.
    """

    def __init__(self, alphas: Vector, gains, noise: Vector):
        alphas = _targets(alphas, "MacroDiversity")
        gains = _matrix_rows(gains, "MacroDiversity gains")
        row_sums = tuple(float(sum(row)) for row in gains)
        for i, total in enumerate(row_sums):
            if total <= 0.0:
                raise InvalidInputError(f"MacroDiversity: gain row {i + 1} sums to zero; terminal unreachable")
            if not math.isfinite(total):
                raise InvalidInputError(f"MacroDiversity: gain row {i + 1} sum overflows float64")
        relative = tuple(tuple(v / s for v in row) for row, s in zip(gains, row_sums))
        for i, row in enumerate(relative):
            if abs(sum(row) - 1.0) > 1e-12:
                raise InvalidInputError(f"MacroDiversity: relative gains of row {i + 1} do not sum to 1")
        noise = _entries(noise, "MacroDiversity", "noise power for receiver")
        self._set(alphas=alphas, gains=gains, noise=noise)
        object.__setattr__(self, "row_sums", row_sums)  # derived: not compared
        object.__setattr__(self, "relative", relative)
        if len(gains) != len(alphas):
            raise InvalidInputError("MacroDiversity: one gain row per terminal required")
        if len(noise) != len(gains[0]):
            raise InvalidInputError("MacroDiversity: one noise power per receiver required")

    @property
    def receivers(self) -> int:
        return len(self.gains[0])


class FixedAssignment(_Scenario):
    """Each terminal is decoded only by its assigned receiver.

    ``gains`` is receiver-major (K rows by N columns); ``assignment[j]`` is
    the 0-based receiver index serving terminal j; ``noise`` holds one power
    per receiver.
    """

    def __init__(self, alphas: Vector, gains, assignment, noise: Vector):
        alphas = _targets(alphas, "FixedAssignment")
        noise = _entries(noise, "FixedAssignment", "noise power for receiver")
        gains = _matrix_rows(gains, "FixedAssignment gains")
        assignment = tuple(int(a) for a in assignment)
        self._set(alphas=alphas, gains=gains, assignment=assignment, noise=noise)
        n, k = len(alphas), len(gains)
        if len(gains[0]) != n:
            raise InvalidInputError("FixedAssignment: gain rows must have one column per terminal")
        if len(assignment) != n:
            raise InvalidInputError("FixedAssignment: one assigned receiver per terminal required")
        if len(noise) != k:
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


class MultiConnection(_Scenario):
    """Each terminal must meet its SIR target at its d_j best receivers.

    ``gains`` is receiver-major (K rows by N columns); ``noise`` holds one
    power per receiver. ``d[j] = 1`` is minimum power assignment as a
    special case. ``reference_gains`` holds the d_j-th largest gain of each
    terminal, sorted out once on construction.
    """

    def __init__(self, alphas: Vector, gains, d, noise: Vector):
        alphas = _targets(alphas, "MultiConnection")
        noise = _entries(noise, "MultiConnection", "noise power for receiver")
        gains = _matrix_rows(gains, "MultiConnection gains")
        d = tuple(int(v) for v in d)
        self._set(alphas=alphas, gains=gains, d=d, noise=noise)
        n, k = len(alphas), len(gains)
        if len(gains[0]) != n:
            raise InvalidInputError("MultiConnection: gain rows must have one column per terminal")
        if len(noise) != k:
            raise InvalidInputError("MultiConnection: one noise power per receiver required")
        object.__setattr__(self, "reference_gains", tuple(_reference_gains(gains, d)))  # derived: not compared


def _point_sums(G, x) -> list[list[float]]:
    """s[k][j] = sum over n != j of G[k][n] * x[n]: ``maps._loo_sums`` at one point, in pure Python."""
    sums = []
    for row in G:
        terms = list(map(mul, row, x))
        suffix = list(accumulate(reversed(terms), initial=0.0))[-2::-1]
        sums.append(list(map(add, accumulate(terms, initial=0.0), suffix)))
    return sums


def _certify(G, W=None, order=None, names_receiver=True) -> FeasibilityReport:
    """The paper's admission test, the map without offsets at the all-ones vector, in pure Python.

    The coefficients are lists (see ``maps.LeaveOneOutMap``), reduced as
    ``maps._reduce`` reduces. A max reduction's binding pair names the receiver too.
    """
    n = len(G[0])
    if n < 2:
        raise InvalidInputError("admission test: need at least two terminals")
    sums = _point_sums(G, [1.0] * n)
    if W is not None:  # a receiver with W = 0 adds 0 to the max and is no order statistic
        never = 0.0 if order is None else math.inf
        sums = [[w * s if w > 0.0 else never for w, s in zip(*rows)] for rows in zip(W, sums)]
    by_terminal = list(zip(*sums))
    moduli = (list(map(max, by_terminal)) if order is None else
              [sorted(values)[rank - 1] for values, rank in zip(by_terminal, order)])
    top = max(moduli)
    if top == math.inf:
        raise InvalidInputError("admission test: a weighted leave-one-out sum exceeds the float64 range")
    term = moduli.index(top)
    receiver = by_terminal[term].index(moduli[term]) if order is None and names_receiver else None
    return FeasibilityReport(moduli, receiver)


def _coefficients(scenario, coordinates: str = "transformed", noiseless: bool = False,
                  target: float | None = None):
    """The fields (G, c, W, order, names_receiver) of a scenario's map, as lists, then D.

    ``W`` None means unit weights, ``order`` None the max. ``coordinates``
    selects the original or transformed single-cell and macro-diversity map,
    ``noiseless`` the exact or bounded multi-connection map; ``target``, if
    given, takes the place of every target. This is the one place that decides
    where the targets enter the map. In the transformed maps and
    multi-connection they scale G's columns, and D is None. In the original
    maps and fixed assignment G does not depend on them and W[k][j] =
    alpha_j / D[k][j], D the divisors (inf: never selected).
    """
    if coordinates not in ("original", "transformed"):
        raise InvalidInputError(f"leave_one_out_map: unknown coordinates {coordinates!r}")
    if not isinstance(scenario, _Scenario):
        raise InvalidInputError(
            f"leave_one_out_map: unsupported scenario {type(scenario).__name__}"
        )

    # Coefficients fold the targets in as G[k][n] * alpha_n, the product the
    # batch kernel forms at x = alpha, so the certificate at x = 1 rounds alike.
    n = scenario.n
    alphas = scenario.alphas if target is None else (target,) * n
    transformed = coordinates == "transformed"
    W = D = order = None
    if isinstance(scenario, SingleCell):
        if transformed:  # alpha_n
            G, c = [alphas], [scenario.sigma] * n
        else:  # divisors 1, coefficients 1
            G, D, c = [[1.0] * n], [[1.0] * n], [scenario.sigma * a for a in alphas]
    elif isinstance(scenario, MacroDiversity):
        sigma_hat = max(scenario.noise)
        if transformed:  # alpha_n * g_nk
            G = [list(map(mul, column, alphas)) for column in zip(*scenario.relative)]
            c = [sigma_hat] * n
        else:  # divisors h_i, coefficients h_nk
            G = list(zip(*scenario.gains))
            D = [scenario.row_sums] * len(G)
            c = [a / h * sigma_hat for a, h in zip(alphas, scenario.row_sums)]
    elif isinstance(scenario, FixedAssignment):
        # divisor: the own gain at the assigned receiver, inf elsewhere
        G, served = scenario.gains, tuple(enumerate(scenario.assignment))
        D = [[G[a][j] if k == a else math.inf for j, a in served] for k in range(len(G))]
        c = [alphas[j] * scenario.noise[a] / G[a][j] for j, a in served]
    elif noiseless:  # alpha_i * h_ki weighted 1 / h_kj, d_j-th smallest
        G = [list(map(mul, row, alphas)) for row in scenario.gains]
        W = [[1.0 / h if h > 0.0 else 0.0 for h in row] for row in scenario.gains]
        order, c = scenario.d, [0.0] * n
    else:  # alpha_i * h_ki over the d_i-th largest gain h_i, max
        ref = scenario.reference_gains
        G = [[g / h * a for g, h, a in zip(row, ref, alphas)] for row in scenario.gains]
        c = [max(scenario.noise)] * n
    if isinstance(scenario, MultiConnection) and max(map(max, G)) == math.inf:
        raise InvalidInputError("leave_one_out_map: a target times a gain exceeds the float64 range")
    if D is not None:  # macro diversity's K divisor rows are one list: divide it once
        first = list(map(truediv, alphas, D[0]))
        W = [first if row is D[0] else list(map(truediv, alphas, row)) for row in D]
    if W is not None and max(map(max, W)) == math.inf:  # inf * 0 would be NaN, not 0
        raise InvalidInputError("leave_one_out_map: a weight over a gain exceeds the float64 range")
    return G, c, W, order, isinstance(scenario, (MacroDiversity, MultiConnection)), D


def feasibility_formula(scenario, *, coordinates: str = "transformed",
                        noiseless: bool = False) -> FeasibilityReport:
    """Closed-form admission condition for a scenario, no rule objects and no numpy involved.

    The certificate of ``maps.leave_one_out_map`` with the same arguments, by
    :func:`_certify` on the same coefficients.
    """
    G, _, W, order, named, _ = _coefficients(scenario, coordinates, noiseless)
    return _certify(G, W, order, named)
