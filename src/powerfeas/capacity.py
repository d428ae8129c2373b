"""Capacity-region sampling over QoS space, comparison and export.

Regions are sampled on a regular grid per axis and evaluated with the
closed-form admission predicates; points exactly on a boundary count as
infeasible because every condition is strict. Axis value 0 is included
for plotting and is treated as the limit of a vanishing terminal, even
though live scenarios require strictly positive targets.

Every predicate except ``hanly`` is the leave-one-out kernel behind
``scenarios.feasibility_formula``, fed the targets as points: the same
coefficients and, bit for bit, the same prefix/suffix sums. The inequality
export emits the kernel's sums at the unit vectors. A grid point therefore
gets the verdict ``check`` gives the scenario at those targets; the rule
objects built by ``scenarios`` stay the independent reference.
Both exports write through ``core.write_csv``, the encoder the trace CSV
uses too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import GainMatrix, InvalidInputError, NoiseVector, QosVector, np, write_csv
from .scenarios import (MacroDiversity, MultiConnection, SingleCell, _loo, _loo_sums,
                        leave_one_out_map)

PREDICATES = ("simple", "macro_div", "mc_exact", "mc_bounded", "hanly")

MAX_GRID_DIM = 4


@dataclass(frozen=True)
class RegionSpec:
    """Which predicate to sample, on which grid.

    ``gains`` is terminal-major (N rows) for ``macro_div`` and gets row
    normalised internally; for the ``mc_*`` predicates it is receiver-major
    (K rows by N columns) and used raw together with ``d``. ``receivers``
    is only needed by ``hanly``. Every other predicate builds its scenario
    at unit targets and zero noise once: the scenario type checks ``gains``
    and ``d``, and the scenario's map, kept as ``_map``, holds the kernel
    terms each predicate call reads.
    """

    predicate: str
    n: int
    resolution: int
    alpha_max: float
    gains: Optional[tuple[tuple[float, ...], ...]] = None
    d: Optional[tuple[int, ...]] = None
    receivers: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "resolution", int(self.resolution))
        object.__setattr__(self, "alpha_max", float(self.alpha_max))
        if self.predicate not in PREDICATES:
            raise InvalidInputError(f"RegionSpec: unknown predicate {self.predicate!r}")
        if self.n < 1:
            raise InvalidInputError("RegionSpec: need at least one axis")
        if self.resolution < 2:
            raise InvalidInputError("RegionSpec: resolution must be >= 2")
        if not math.isfinite(self.alpha_max) or self.alpha_max <= 0.0:
            raise InvalidInputError("RegionSpec: alpha_max must be > 0")
        if self.predicate == "hanly":
            if self.receivers is None or int(self.receivers) < 1:
                raise InvalidInputError("RegionSpec: hanly needs the receiver count")
            object.__setattr__(self, "receivers", int(self.receivers))
            return
        macro = self.predicate == "macro_div"
        if self.predicate != "simple" and (self.gains is None or self.d is None and not macro):
            raise InvalidInputError(f"RegionSpec: {self.predicate} needs gains{'' if macro else ' and d'}")
        ones = QosVector((1.0,) * self.n)
        if self.predicate == "simple":
            scenario = SingleCell(ones, ones.alphas, 0.0)
        elif macro:
            gains = GainMatrix(self.gains)
            scenario = MacroDiversity(ones, gains, NoiseVector((0.0,) * gains.n_receivers))
            object.__setattr__(self, "gains", gains.h)
        else:
            scenario = MultiConnection(ones, self.gains, self.d, NoiseVector((0.0,) * len(self.gains)))
            object.__setattr__(self, "gains", scenario.gains)
            object.__setattr__(self, "d", scenario.d)
        object.__setattr__(self, "_map", leave_one_out_map(
            scenario, noiseless=self.predicate == "mc_exact"))

    @property
    def point_count(self) -> int:
        return self.resolution ** self.n

    def axis_values(self) -> np.ndarray:
        return np.linspace(0.0, self.alpha_max, self.resolution)

    def grid(self) -> np.ndarray:
        """All grid points in lexicographic order, shape (resolution**n, n)."""
        axes = np.meshgrid(*([self.axis_values()] * self.n), indexing="ij")
        return np.stack(axes, axis=-1).reshape(-1, self.n)

    def same_grid(self, other: "RegionSpec") -> bool:
        return (
            self.n == other.n
            and self.resolution == other.resolution
            and self.alpha_max == other.alpha_max
        )


def evaluate_predicate(spec: RegionSpec, alphas: np.ndarray) -> np.ndarray:
    """Vectorised predicate over rows of ``alphas`` (shape (P, n))."""
    pts = np.atleast_2d(np.asarray(alphas, dtype=float))
    if pts.shape[1] != spec.n:
        raise InvalidInputError(
            f"evaluate_predicate: points have {pts.shape[1]} axes, spec has {spec.n}"
        )

    if spec.predicate == "hanly":
        return pts.sum(axis=1) < spec.receivers
    G, _, W, order = spec._map._arrays
    return (_loo(G, pts, W, order) < 1.0).all(axis=1)


@dataclass(frozen=True)
class RegionCloud:
    """Grid points with their feasibility verdicts, plus the RegionSpec they came from."""

    spec: RegionSpec
    alphas: np.ndarray  # (P, n), read-only
    feasible: np.ndarray  # (P,), read-only bool

    def __post_init__(self):
        if self.alphas.shape != (self.spec.point_count, self.spec.n):
            raise InvalidInputError("RegionCloud: point count must be resolution**n")
        if self.feasible.shape != (self.spec.point_count,):
            raise InvalidInputError("RegionCloud: one verdict per point required")

    def points(self) -> list[tuple[tuple[float, ...], bool]]:
        return [
            (tuple(float(v) for v in row), bool(flag))
            for row, flag in zip(self.alphas, self.feasible)
        ]


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


@dataclass(frozen=True)
class RegionComparison:
    """Set relation between two clouds on the same grid, decided by its witnesses.

    A witness is a grid point feasible in one cloud only; None when there is none.
    """

    witness_a_not_b: Optional[tuple[float, ...]]
    witness_b_not_a: Optional[tuple[float, ...]]

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


def compare_regions(a: RegionCloud, b: RegionCloud) -> RegionComparison:
    """Compare feasible sets pointwise; witnesses are the first grid points
    (lexicographic) feasible on one side only."""
    if not a.spec.same_grid(b.spec):
        raise InvalidInputError("compare_regions: clouds were sampled on different grids")
    only_a = a.feasible & ~b.feasible
    only_b = b.feasible & ~a.feasible
    idx_a = int(np.argmax(only_a)) if only_a.any() else None
    idx_b = int(np.argmax(only_b)) if only_b.any() else None
    return RegionComparison(
        witness_a_not_b=None if idx_a is None else tuple(float(v) for v in a.alphas[idx_a]),
        witness_b_not_a=None if idx_b is None else tuple(float(v) for v in b.alphas[idx_b]),
    )


def export_cloud(cloud: RegionCloud, path) -> None:
    """CSV dump: alpha_1..alpha_N,feasible with full-precision values (``core.write_csv``)."""
    write_csv(
        path,
        [f"alpha_{i + 1}" for i in range(cloud.spec.n)] + ["feasible"],
        [*cloud.alphas.T, cloud.feasible.astype(np.int8)],
    )


def region_inequalities(spec: RegionSpec) -> tuple[np.ndarray, np.ndarray]:
    """H-representation: coefficients (rows x N) and right-hand sides, relation '<'.

    Available for the predicates that are finite conjunctions of strict
    linear inequalities; the exact multi-connection predicate selects an
    order statistic and is a union of such systems, so its feasible set has
    no single inequality list and this raises instead.
    """
    if spec.predicate == "hanly":
        return np.ones((1, spec.n)), np.array([float(spec.receivers)])
    if spec.predicate == "mc_exact":
        raise InvalidInputError(
            "region_inequalities: the exact multi-connection region is not a single "
            "conjunction of linear inequalities"
        )
    G = spec._map._arrays[0]
    rows = _loo_sums(G, np.eye(spec.n)).reshape(-1, spec.n)  # the sums at the unit vectors
    return rows, np.ones(len(rows))


def export_inequalities(spec: RegionSpec, path) -> None:
    """CSV dump of the H-representation: coef_1..coef_N,rhs,relation."""
    coefs, rhs = region_inequalities(spec)
    write_csv(
        path,
        [f"coef_{i + 1}" for i in range(spec.n)] + ["rhs", "relation"],
        [*coefs.T, rhs, ["<"] * len(rhs)],
    )
