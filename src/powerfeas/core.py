"""Shared value types for interference-coupled power adjustment systems.

Everything here is immutable after construction and safe to share across
threads. Algorithms live in the engine, scenarios and capacity modules;
this module defines the vocabulary they exchange, plus :func:`write_csv`,
the one CSV encoder behind every file the package writes.

Indexing is 0-based throughout the library; user-facing output (CLI,
reports) converts to 1-based terminal/receiver numbering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

Vector = Union[Sequence[float], np.ndarray]


class InvalidInputError(ValueError):
    """A value violates a documented precondition or type invariant."""


class InvalidFunctionError(ValueError):
    """A rule function is unusable, e.g. non-finite at the all-ones vector."""


class EvaluationError(RuntimeError):
    """A candidate function raised or returned a non-finite value."""

    def __init__(self, message: str, bad_input=None):
        super().__init__(message)
        self.bad_input = bad_input


class InfeasibleSystemError(RuntimeError):
    """A computation that needs a feasibility certificate does not have one."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NonConvergenceError(RuntimeError):
    """Iteration exhausted its step budget; the partial trace is attached."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


def _float_tuple(values, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what}: entries must be real numbers") from exc


def sup_norm(x: Vector) -> float:
    """Largest absolute component of ``x`` (the infinity norm)."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise InvalidInputError("sup_norm: empty vector")
    return float(np.max(np.abs(arr)))


def remove_component(x: Vector, i: int) -> np.ndarray:
    """Copy of ``x`` with component ``i`` deleted, order preserved."""
    arr = np.asarray(x, dtype=float)
    n = arr.shape[0]
    if n < 2:
        raise InvalidInputError("remove_component: need at least 2 components")
    if not 0 <= i < n:
        raise IndexError(f"remove_component: index {i} out of range for length {n}")
    return np.concatenate((arr[:i], arr[i + 1:]))


def insert_component(x: Vector, i: int, value: float) -> np.ndarray:
    """Inverse of :func:`remove_component`: put ``value`` back at position ``i``."""
    arr = np.asarray(x, dtype=float)
    n = arr.shape[0] + 1
    if not 0 <= i < n:
        raise IndexError(f"insert_component: index {i} out of range for length {n}")
    return np.concatenate((arr[:i], [float(value)], arr[i:]))


@dataclass(frozen=True)
class QosVector:
    """Per-terminal carrier-to-interference targets (dimensionless, > 0)."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        alphas = _float_tuple(self.alphas, "QosVector")
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) < 1:
            raise InvalidInputError("QosVector: need at least one terminal")
        for i, a in enumerate(alphas):
            if not math.isfinite(a) or a <= 0.0:
                raise InvalidInputError(
                    f"QosVector: target for terminal {i + 1} must be finite and > 0, got {a}"
                )

    def __len__(self) -> int:
        return len(self.alphas)

    def __iter__(self):
        return iter(self.alphas)

    def __getitem__(self, i: int) -> float:
        return self.alphas[i]

    def as_array(self) -> np.ndarray:
        return np.array(self.alphas, dtype=float)


@dataclass(frozen=True)
class GainMatrix:
    """Linear channel gains, one row per terminal, one column per receiver.

    Individual entries may be zero (a terminal out of range of a receiver)
    but every row must have a positive sum so relative gains are defined.
    """

    h: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(_float_tuple(row, "GainMatrix row") for row in self.h)
        object.__setattr__(self, "h", rows)
        if len(rows) < 1 or len(rows[0]) < 1:
            raise InvalidInputError("GainMatrix: need at least one terminal and one receiver")
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise InvalidInputError(f"GainMatrix: row {i + 1} has length {len(row)}, expected {width}")
            for k, v in enumerate(row):
                if not math.isfinite(v) or v < 0.0:
                    raise InvalidInputError(
                        f"GainMatrix: gain ({i + 1},{k + 1}) must be finite and >= 0, got {v}"
                    )
            if sum(row) <= 0.0:
                raise InvalidInputError(f"GainMatrix: row {i + 1} sums to zero; terminal unreachable")
        for i, grow in enumerate(self.relative):
            if abs(sum(grow) - 1.0) > 1e-12:
                raise InvalidInputError(f"GainMatrix: relative gains of row {i + 1} do not sum to 1")

    @property
    def n_terminals(self) -> int:
        return len(self.h)

    @property
    def n_receivers(self) -> int:
        return len(self.h[0])

    @cached_property
    def row_sums(self) -> tuple[float, ...]:
        """Total gain per terminal across all receivers."""
        return tuple(float(sum(row)) for row in self.h)

    @cached_property
    def relative(self) -> tuple[tuple[float, ...], ...]:
        """Row-normalised gains; each row sums to 1."""
        return tuple(
            tuple(v / s for v in row) for row, s in zip(self.h, self.row_sums)
        )

    def as_array(self) -> np.ndarray:
        return np.array(self.h, dtype=float)

    def relative_array(self) -> np.ndarray:
        return np.array(self.relative, dtype=float)


@dataclass(frozen=True)
class NoiseVector:
    """Noise power per receiver (watts, >= 0)."""

    sigma_sq: tuple[float, ...]

    def __post_init__(self):
        vals = _float_tuple(self.sigma_sq, "NoiseVector")
        object.__setattr__(self, "sigma_sq", vals)
        if len(vals) < 1:
            raise InvalidInputError("NoiseVector: need at least one receiver")
        for k, v in enumerate(vals):
            if not math.isfinite(v) or v < 0.0:
                raise InvalidInputError(
                    f"NoiseVector: noise power for receiver {k + 1} must be finite and >= 0, got {v}"
                )

    def __len__(self) -> int:
        return len(self.sigma_sq)

    def __iter__(self):
        return iter(self.sigma_sq)

    def max(self) -> float:
        return max(self.sigma_sq)

    def as_array(self) -> np.ndarray:
        return np.array(self.sigma_sq, dtype=float)


@dataclass(frozen=True)
class PowerVector:
    """Transmit or received powers (watts, >= 0)."""

    p: tuple[float, ...]

    def __post_init__(self):
        vals = _float_tuple(self.p, "PowerVector")
        object.__setattr__(self, "p", vals)
        if len(vals) < 1:
            raise InvalidInputError("PowerVector: need at least one terminal")
        for i, v in enumerate(vals):
            if not math.isfinite(v) or v < 0.0:
                raise InvalidInputError(
                    f"PowerVector: power for terminal {i + 1} must be finite and >= 0, got {v}"
                )

    @classmethod
    def zeros(cls, n: int) -> "PowerVector":
        return cls((0.0,) * n)

    @classmethod
    def full(cls, n: int, value: float) -> "PowerVector":
        return cls((float(value),) * n)

    def __len__(self) -> int:
        return len(self.p)

    def __iter__(self):
        return iter(self.p)

    def __getitem__(self, i: int) -> float:
        return self.p[i]

    def as_array(self) -> np.ndarray:
        return np.array(self.p, dtype=float)


@dataclass(frozen=True)
class AdjustmentRule:
    """One terminal's power update: next power = f(other powers) + offset.

    ``f`` maps the (N-1)-vector of the other terminals' powers to a
    non-negative scalar and must be deterministic; ``offset`` is the
    additive noise term and must be >= 0.
    """

    f: Callable[[np.ndarray], float]
    offset: float
    terminal_index: int

    def __post_init__(self):
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "terminal_index", int(self.terminal_index))
        if not callable(self.f):
            raise InvalidInputError("AdjustmentRule: f must be callable")
        if not math.isfinite(self.offset) or self.offset < 0.0:
            raise InvalidInputError(f"AdjustmentRule: offset must be finite and >= 0, got {self.offset}")
        if self.terminal_index < 0:
            raise InvalidInputError("AdjustmentRule: terminal_index must be >= 0")


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the admission test: one modulus per terminal, overall max.

    ``binding`` names the terminal (and receiver, when the rule exposes one)
    whose weighted sum attains the overall modulus; indices are 0-based.
    """

    per_terminal_modulus: tuple[float, ...]
    modulus: float
    feasible: bool
    binding: Optional[tuple[int, Optional[int]]] = None

    def __post_init__(self):
        moduli = _float_tuple(self.per_terminal_modulus, "FeasibilityReport")
        object.__setattr__(self, "per_terminal_modulus", moduli)
        object.__setattr__(self, "modulus", float(self.modulus))
        if len(moduli) < 1:
            raise InvalidInputError("FeasibilityReport: no terminals")
        if self.modulus != max(moduli):
            raise InvalidInputError("FeasibilityReport: modulus must equal max per-terminal modulus")
        if self.feasible != (self.modulus < 1.0):
            raise InvalidInputError("FeasibilityReport: feasible must mean modulus < 1")
        if self.binding is not None:
            term, recv = self.binding
            if not 0 <= term < len(moduli):
                raise InvalidInputError("FeasibilityReport: binding terminal out of range")
            object.__setattr__(self, "binding", (int(term), None if recv is None else int(recv)))

    @classmethod
    def from_moduli(
        cls,
        moduli: Sequence[float],
        binding_receiver: Optional[int] = None,
        binding_terminal: Optional[int] = None,
    ) -> "FeasibilityReport":
        vals = tuple(float(m) for m in moduli)
        lam = max(vals)
        term = vals.index(lam) if binding_terminal is None else binding_terminal
        return cls(
            per_terminal_modulus=vals,
            modulus=lam,
            feasible=lam < 1.0,
            binding=(term, binding_receiver),
        )


@dataclass(frozen=True)
class IterationTrace:
    """Record of one successive-approximation run.

    ``iterates`` is a read-only ``(steps + 1, N)`` float array, row t holding
    iterate t (any sequence of equal-length power vectors is accepted);
    ``deltas[t]`` is the sup-norm distance between iterates t and t+1;
    ``certified`` is False when the run was forced despite a modulus >= 1.
    """

    iterates: np.ndarray
    deltas: tuple[float, ...]
    converged: bool
    tolerance: float
    certified: bool = True

    def __post_init__(self):
        iterates = np.array(self.iterates, dtype=float)
        if iterates.ndim != 2 or iterates.shape[1] < 1:
            raise InvalidInputError("IterationTrace: iterates must be a non-empty (steps + 1, N) array")
        iterates.flags.writeable = False
        object.__setattr__(self, "iterates", iterates)
        object.__setattr__(self, "deltas", tuple(self.deltas))
        if len(self.deltas) != len(iterates) - 1:
            raise InvalidInputError("IterationTrace: need exactly one delta per step")
        if any(d < 0.0 for d in self.deltas):
            raise InvalidInputError("IterationTrace: deltas must be >= 0")
        if self.converged and (not self.deltas or self.deltas[-1] > self.tolerance):
            raise InvalidInputError("IterationTrace: converged trace must end within tolerance")

    @property
    def iterations_used(self) -> int:
        return len(self.deltas)

    @property
    def final(self) -> PowerVector:
        return PowerVector(tuple(self.iterates[-1]))


_CSV_CELLS = 1 << 18  # cells formatted and joined at once


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write ``header`` and equal-length ``columns`` as CSV rows ending in CRLF.

    A column is a numeric array, whose values are written as ``repr`` with
    each distinct value formatted once (floats by bit pattern, so -0.0 keeps
    its sign), or a list of strings, written as they are, and numbers,
    written as ``repr`` of their float value. The bytes equal those of
    ``csv.writer`` fed the same strings; strings must need no quoting. Rows
    are joined about ``_CSV_CELLS`` cells at a time.
    """
    cells = []  # per column (text, index): text[index[r]] is the cell of row r
    for column in columns:
        if isinstance(column, np.ndarray):
            floats = column.dtype.kind == "f"
            distinct, index = np.unique(
                np.asarray(column, dtype=float).view(np.uint64) if floats else column,
                return_inverse=True,
            )
            text = list(map(repr, (distinct.view(float) if floats else distinct).tolist()))
        else:
            text = [v if isinstance(v, str) else repr(float(v)) for v in column]
            index = np.arange(len(text))
        cells.append((np.array(text, dtype=object), index))
    step = max(1, _CSV_CELLS // len(cells))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(cells[0][1]), step):
            chunk = [text[index[start:start + step]].tolist() for text, index in cells]
            fh.write("\r\n".join(map(",".join, zip(*chunk, strict=True))) + "\r\n")
