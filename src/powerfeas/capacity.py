"""Capacity-region sampling over QoS space, comparison and export.

A scenario's region is the set of targets at which ``check`` certifies it:
the map ``feasibility_formula`` certifies with the same options, at each
grid point. Regions are sampled on a regular grid per axis; points exactly
on a boundary count as infeasible because every condition is strict. Axis
value 0 is included for plotting and is treated as the limit of a vanishing
terminal, even though live scenarios require strictly positive targets.

``scenarios._coefficients`` gives the map at unit targets and says where the
targets enter it. Where they scale G, a grid point's moduli are the
leave-one-out kernel of ``maps`` at that point: the same coefficients and, bit for bit,
the same prefix/suffix sums as the certificate. Where they enter W through a
divisor table D, G's sums at the all-ones vector are fixed and terminal j's
modulus is max over k of (alpha_j / D[k][j]) * s[k][j], ``check``'s products
in ``check``'s order. Either way a grid point gets the moduli ``check``
reports at those targets. The inequality export emits the kernel's sums at
the unit vectors, or one box row per terminal; :func:`write_csv` writes both.
A region is compared with any verdicts on its cloud's own points, such as the
gain-blind baseline :func:`hanly`, sum(alpha) < K.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .core import InvalidInputError, _CSV_CELLS, _Frozen, np
from .maps import _loo, _loo_sums
from .scenarios import _certify, _coefficients, _point_sums

MAX_GRID_DIM = 4


class RegionSpec(_Frozen):
    """The targets at which ``check`` certifies a scenario, on a grid of ``resolution`` per axis.

    Takes the map options ``feasibility_formula`` takes and reads the map's
    coefficients at unit targets; ``receivers`` is the map's row count K.
    ``_kernel`` is (G, W, order, None) when the targets scale G, and (s, None,
    None, D) when they enter W, s the sums of G at the all-ones vector. Both
    are derived once here, and equality does not compare them. The moduli grow
    with the targets: where ``check`` refuses them at the largest grid point, the spec does too.
    """

    def __init__(self, scenario, *, coordinates: str = "transformed", noiseless: bool = False,
                 resolution: int, alpha_max: float):
        self._set(scenario=scenario, coordinates=coordinates, noiseless=noiseless,
                  resolution=int(resolution), alpha_max=float(alpha_max))
        if self.resolution < 2:
            raise InvalidInputError("RegionSpec: resolution must be >= 2")
        if not math.isfinite(self.alpha_max) or self.alpha_max <= 0.0:
            raise InvalidInputError(f"RegionSpec: alpha_max must be finite and > 0, got {self.alpha_max}")
        G, _, W, order, _, D = _coefficients(scenario, coordinates, noiseless, target=1.0)
        G_max, _, W_max = _coefficients(scenario, coordinates, noiseless, target=self.alpha_max)[:3]
        _certify(G_max, W_max, order)  # at alpha_max on every axis: raises if a modulus overflows
        if D is not None:
            G = _point_sums(G, [1.0] * self.n)
        object.__setattr__(self, "receivers", len(G))  # derived: not compared
        object.__setattr__(self, "_kernel", tuple(None if v is None else np.array(v) for v in (G, W, order, D)))

    @property
    def n(self) -> int:
        return self.scenario.n

    def moduli(self, pts: np.ndarray) -> np.ndarray:
        """Per-terminal moduli (P x N) at points (P x N): ``check``'s at those targets."""
        G, W, order, D = self._kernel
        if D is None:  # an overflow is inf, as in check's floats; in a modulus, __init__ refused it
            with np.errstate(over="ignore"):
                return _loo(G, pts, W, order)
        values = np.zeros_like(pts)
        for d, s in zip(D, G):  # G holds s; a weight of 0 adds 0, as in the certificate
            w = pts / d
            np.maximum(values, np.multiply(w, s, out=w, where=w > 0.0), out=values)
        return values

    @property
    def point_count(self) -> int:
        return self.resolution ** self.n

    def axis_values(self) -> np.ndarray:
        return np.linspace(0.0, self.alpha_max, self.resolution)

    def grid(self) -> np.ndarray:
        """All grid points in lexicographic order, shape (resolution**n, n)."""
        axes = np.meshgrid(*([self.axis_values()] * self.n), indexing="ij")
        return np.stack(axes, axis=-1).reshape(-1, self.n)


def evaluate_predicate(spec: RegionSpec, alphas: np.ndarray) -> np.ndarray:
    """Vectorised predicate over rows of ``alphas`` (shape (P, n)): every modulus < 1."""
    pts = np.atleast_2d(np.asarray(alphas, dtype=float))
    if pts.shape[1] != spec.n:
        raise InvalidInputError(
            f"evaluate_predicate: points have {pts.shape[1]} axes, spec has {spec.n}"
        )
    return (spec.moduli(pts) < 1.0).all(axis=1)


def hanly(alphas: np.ndarray, receivers: int) -> np.ndarray:
    """The gain-blind baseline over rows of ``alphas``: sum(alpha) < K, boundary excluded."""
    return np.atleast_2d(np.asarray(alphas, dtype=float)).sum(axis=1) < receivers


class RegionCloud(_Frozen):
    """Grid points ``alphas`` (P x n) with their verdicts ``feasible`` (P), both read-only,
    plus the RegionSpec they came from."""

    def __init__(self, spec: RegionSpec, alphas: np.ndarray, feasible: np.ndarray):
        self._set(spec=spec, alphas=alphas, feasible=feasible)
        if alphas.shape != (spec.point_count, spec.n):
            raise InvalidInputError("RegionCloud: point count must be resolution**n")
        if feasible.shape != (spec.point_count,):
            raise InvalidInputError("RegionCloud: one verdict per point required")


def sample_region(spec: RegionSpec, *, allow_large: bool = False) -> RegionCloud:
    """Evaluate the predicate on the full grid, lexicographic point order."""
    if spec.n > MAX_GRID_DIM and not allow_large:
        raise InvalidInputError(
            f"sample_region: {spec.n} axes exceeds the cost guard of {MAX_GRID_DIM}; "
            "pass allow_large=True (CLI: --force-dim) to override"
        )
    pts = spec.grid()
    verdicts = evaluate_predicate(spec, pts)
    pts.flags.writeable = False
    verdicts.flags.writeable = False
    return RegionCloud(spec=spec, alphas=pts, feasible=verdicts)


class RegionComparison(_Frozen):
    """Set relation between two regions on the same grid points, decided by its witnesses.

    A witness is a grid point feasible in one region only; None when there is none.
    """

    def __init__(self, witness_a_not_b: Optional[tuple[float, ...]],
                 witness_b_not_a: Optional[tuple[float, ...]]):
        self._set(witness_a_not_b=witness_a_not_b, witness_b_not_a=witness_b_not_a)

    @property
    def a_subset_b(self) -> bool:
        return self.witness_a_not_b is None

    @property
    def b_subset_a(self) -> bool:
        return self.witness_b_not_a is None

    @property
    def relation(self) -> str:
        if self.a_subset_b and self.b_subset_a:
            return "equal"
        if self.a_subset_b:
            return "a_subset_b"
        if self.b_subset_a:
            return "b_subset_a"
        return "incomparable"


def compare_regions(cloud: RegionCloud, verdicts: np.ndarray) -> RegionComparison:
    """Compare the cloud's feasible set (a) with ``verdicts`` (b), one bool per cloud point;
    witnesses are the first grid points (lexicographic) feasible on one side only."""
    verdicts = np.asarray(verdicts, dtype=bool)
    if verdicts.shape != cloud.feasible.shape:
        raise InvalidInputError(
            f"compare_regions: {verdicts.shape} verdicts for a cloud of {len(cloud.feasible)} points"
        )
    witnesses = [tuple(map(float, cloud.alphas[np.argmax(only)])) if only.any() else None
                 for only in (cloud.feasible & ~verdicts, verdicts & ~cloud.feasible)]
    return RegionComparison(*witnesses)


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write ``header`` and equal-length array ``columns`` as CSV rows ending in CRLF.

    Each distinct value of a column is formatted once: floats as ``repr``,
    by bit pattern so -0.0 keeps its sign, and integers and strings as
    ``str``. The bytes equal those of ``csv.writer`` fed the same strings;
    strings must need no quoting. Rows are joined about ``_CSV_CELLS``
    cells at a time.
    """
    cells = []  # per column (text, index): text[index[r]] is the cell of row r
    for column in columns:
        floats = column.dtype.kind == "f"
        keys = np.asarray(column, dtype=float).view(np.uint64) if floats else column
        distinct, index = np.unique(keys, return_inverse=True)
        text = map(repr if floats else str, (distinct.view(float) if floats else distinct).tolist())
        cells.append((np.array(list(text), dtype=object), index))
    step = max(1, _CSV_CELLS // len(cells))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(cells[0][1]), step):
            chunk = [text[index[start:start + step]].tolist() for text, index in cells]
            fh.write("\r\n".join(map(",".join, zip(*chunk, strict=True))) + "\r\n")


def export_cloud(cloud: RegionCloud, path) -> None:
    """CSV dump: alpha_1..alpha_N,feasible with full-precision values (:func:`write_csv`)."""
    write_csv(
        path,
        [f"alpha_{i + 1}" for i in range(cloud.spec.n)] + ["feasible"],
        [*cloud.alphas.T, cloud.feasible.astype(np.int8)],
    )


def region_inequalities(spec: RegionSpec) -> tuple[np.ndarray, np.ndarray]:
    """H-representation: coefficients (rows x N) and right-hand sides, relation '<'.

    Where the targets scale G, one row per terminal and receiver: the
    kernel's sums at the unit vectors. Where they enter W, one box row per
    terminal j, its one coefficient max over k of s[k][j] / D[k][j]. A d-th
    smallest (the exact multi-connection map) makes the region a union of
    such systems, with no single inequality list, so this raises instead.
    """
    G, _, order, D = spec._kernel
    if order is not None:
        raise InvalidInputError(
            "region_inequalities: the exact multi-connection region is not a single "
            "conjunction of linear inequalities"
        )
    if D is None:
        rows = _loo_sums(G, np.eye(spec.n)).reshape(-1, spec.n)  # the sums at the unit vectors
    else:
        rows = np.diag(np.divide(G, D, out=np.zeros_like(G), where=D < math.inf).max(axis=0))
    return rows, np.ones(len(rows))


def export_inequalities(spec: RegionSpec, path) -> None:
    """CSV dump of the H-representation: coef_1..coef_N,rhs,relation."""
    coefs, rhs = region_inequalities(spec)
    write_csv(
        path,
        [f"coef_{i + 1}" for i in range(spec.n)] + ["rhs", "relation"],
        [*coefs.T, rhs, np.full(len(rhs), "<")],
    )
