"""A scenario's update map as arrays, :class:`LeaveOneOutMap`, and the numpy kernels that evaluate it.

``solve`` and ``region`` import this module; ``check`` never does. Every numpy path shares one
receiver reduction, ``_reduce`` (a max or a d_j-th smallest), over sums of one of two kinds: each
receiver's total minus each own term (``_sums``, the iteration's), or prefix plus suffix as two
passes over a batch (``_loo_sums``, ``region``'s), bit for bit ``scenarios._point_sums``.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain

from .core import FeasibilityReport, InvalidInputError, Vector, _Frozen, np
from .scenarios import _certify, _coefficients

_CHUNK = 1 << 16  # (terminal, receiver, point) sums the kernel holds at once: 0.5 MB, cache-sized


def _loo_sums(G: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """s[j, k, p] = sum over n != j of G[k, n] * xt[n, p], shape (N, K, P), in O(N*K*P).

    ``scenarios._point_sums``'s recipe as two passes over the terminals, each
    step one array operation over (K, P); ``cumsum`` along the first axis would
    run one short loop per (k, p) instead, several times slower. Each entry
    rounds alike whatever else is in the batch and, the terms being
    non-negative, within gamma_{N-2} times the sum (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, 4.2). At the unit vectors
    (xt = I) s[j, :, m] is exactly G[:, m] for m != j and 0 for m == j.
    """
    n, shape = len(xt), (len(G), xt.shape[1])
    sums, suffix, term = np.zeros((n, *shape)), np.zeros(shape), np.empty(shape)
    for j in range(1, n):  # prefix: terms n < j, left to right
        np.add(sums[j - 1], np.multiply(G[:, j - 1, None], xt[j - 1], out=term), out=sums[j])
    for j in range(n - 1, -1, -1):  # plus suffix: terms n > j, right to left
        sums[j] += suffix
        suffix += np.multiply(G[:, j, None], xt[j], out=term)
    return sums


def _loo(G, pts, W=None, order=None) -> np.ndarray:
    """Kernel values (P x N) at points (P x N): :func:`_reduce` over :func:`_loo_sums`, chunked."""
    p, n = pts.shape
    values = np.empty((n, p))
    step = max(1, _CHUNK // (n * G.shape[0]))
    for start in range(0, p, step):
        cols = slice(start, start + step)
        values[:, cols] = _reduce(_loo_sums(G, np.ascontiguousarray(pts[cols].T)), W, order)
    return values.T


def _sums(G: np.ndarray, x: np.ndarray) -> np.ndarray:
    """s[j, k] = sum over n != j of G[k, n] * x[n], shape (N, K): receiver totals minus own terms.

    Each row of a C-order ``G`` is summed pairwise, whatever the BLAS build.
    With row total T and unit roundoff u, each sum lies within
    gamma_{N-1} * T + u * s of the exact sum of the non-negative terms
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 2.2 and
    4.2): ulps of s unless the own term dominates its row. No sum is negative.
    """
    terms = G * x
    return (terms.sum(axis=1, keepdims=True) - terms).T


def _reduce(sums: np.ndarray, W=None, order=None) -> np.ndarray:
    """W[k, j] * s[j, k, ...] reduced over receivers k (W None: all ones).

    The max, or with ``order`` (1-based ranks) the order[j]-th smallest over
    the receivers with W[k, j] > 0. The max needs no such mask: every product
    is >= 0, so a receiver with W = 0 adds a 0, which never exceeds the rest.
    """
    if W is not None:
        w = W.T.reshape(W.T.shape + (1,) * (sums.ndim - 2))
        sums = sums * w if order is None else np.multiply(
            sums, w, out=np.full_like(sums, np.inf), where=w > 0.0)
    if order is None:
        return sums.max(axis=1)
    return np.sort(sums, axis=1)[np.arange(len(sums)), np.asarray(order) - 1]


class LeaveOneOutMap(_Frozen):
    """A scenario's update map: one weighted leave-one-out sum per terminal and receiver.

    ``step(x)[j] = c[j] + reduce over k of W[k][j] * s[k][j]``, s[k][j] the
    sum over n != j of G[k][n] * x_n; ``G`` and ``W`` are K x N, ``W`` None
    means all ones. The reduction, over the receivers with W[k][j] > 0, is
    the max, or the order[j]-th smallest (1-based) when ``order`` is given;
    each terminal needs that many such receivers. The fields are tuples of
    finite non-negative numbers, checked in pure Python; only ``step`` needs
    numpy, and it builds C-order arrays on first use, so :func:`_sums` adds
    in one order.

    Its certificate is the map at the all-ones vector without ``c``.
    ``names_receiver`` is False when the binding pair names no receiver: a
    single cell has just one, fixed assignment one per terminal.
    ``receiver_weights`` gives the max form ``engine.policy_iteration`` solves.
    """

    def __init__(self, G, c, W=None, order=None, names_receiver: bool = True):
        k, n = len(G), len(c)
        if k < 1:
            raise InvalidInputError("LeaveOneOutMap: G needs at least one receiver row")
        fields = {"G": G, "c": c, "W": W, "order": order}
        for name, rows, cols, kind in (("G", k, n, float), ("c", n, None, float),
                                       ("W", k, n, float), ("order", n, None, int)):
            value = fields[name]
            if value is None:
                continue
            value = tuple(map(kind, value)) if cols is None else tuple(tuple(map(kind, row)) for row in value)
            if len(value) != rows or cols is not None and any(len(row) != cols for row in value):
                shape = (rows,) if cols is None else (rows, cols)
                raise InvalidInputError(f"LeaveOneOutMap: {name} must have shape {shape}")
            if not all(0.0 <= v < math.inf for v in (chain(*value) if cols else value)):
                raise InvalidInputError(f"LeaveOneOutMap: {name} entries must be finite and >= 0")
            fields[name] = value
        self._set(**fields, names_receiver=names_receiver)
        if not all(1 <= rank <= k for rank in self.order or ()):
            raise InvalidInputError(f"LeaveOneOutMap: orders must lie in [1, {k}]")
        ranks = self.order or (1,) * n
        if self.W and any(sum(map(bool, col)) < rank for col, rank in zip(zip(*self.W), ranks)):
            raise InvalidInputError("LeaveOneOutMap: terminal j needs order[j] receivers with W > 0")

    @property
    def n(self) -> int:
        return len(self.c)

    @cached_property
    def _arrays(self) -> tuple:
        """(G, c, W, order) as C-order arrays, None where unused, for :meth:`step`."""
        return tuple(None if v is None else np.array(v) for v in (self.G, self.c, self.W, self.order))

    def step(self, x: Vector) -> np.ndarray:
        """One synchronous update in O(N*K): :func:`_reduce` over :func:`_sums`."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InvalidInputError(f"LeaveOneOutMap: expected {self.n} powers, got shape {x.shape}")
        G, c, W, order = self._arrays
        return _reduce(_sums(G, x), W, order) + c

    def certificate(self) -> FeasibilityReport:
        """The map without offsets at the all-ones vector, by ``scenarios._certify``.

        Computed once per map: the map is immutable, so ``check``'s and
        ``solve``'s certifications of it share one kernel evaluation.
        """
        return self._certificate

    @cached_property
    def _certificate(self) -> FeasibilityReport:
        return _certify(self.G, self.W, self.order, self.names_receiver)

    @cached_property
    def receiver_weights(self) -> tuple | None:
        """``W``, or all ones, when the reduction is the max; None for a d-th smallest."""
        return None if self.order is not None else self.W or ((1.0,) * self.n,) * len(self.G)


def leave_one_out_map(scenario, *, coordinates: str = "transformed",
                      noiseless: bool = False) -> LeaveOneOutMap:
    """The scenario's update map in array form (``scenarios._coefficients``), no rule objects involved."""
    return LeaveOneOutMap(*_coefficients(scenario, coordinates, noiseless)[:5])
