"""Shared value types for interference-coupled power adjustment systems.

Every immutable value of the package, here and in the other modules, is a
plain class on :class:`_Frozen`: ``__init__`` checks the arguments and sets
each field once (:meth:`_Frozen._set`), and any later assignment or deletion
raises ``AttributeError``, so a value is safe to share across threads. Values
are equal when their types and fields are, array fields by value (a value
with one has no hash); ``repr`` lists the fields in constructor order.
Algorithms live in the scenarios, maps, engine and capacity modules; this module
defines the vocabulary they exchange (powers, reports, errors and
``engine.solve``'s :class:`SolveConfig`) and the entry checks the scenario
types run on their plain sequences (:func:`_entries`, :func:`_matrix_rows`)
and the JSON file reader of configs and norm-of-norms files (:func:`_read_json`).

Indexing is 0-based throughout the library; user-facing output (CLI,
reports) converts to 1-based terminal/receiver numbering.
``np`` is numpy, imported on first use: a command without array work
(``check``) never loads it.
"""

from __future__ import annotations

import json
import math
import sys
import types
from itertools import chain
from typing import Optional, Sequence, Union


class _DeferredModule(types.ModuleType):
    """A module imported on first attribute access, which copies its namespace in."""

    def __getattr__(self, name):
        module = __import__(self.__name__)
        self.__dict__.update(module.__dict__)
        self.__class__ = types.ModuleType  # a plain module again: later lookups cost nothing extra
        return getattr(module, name)


np = _DeferredModule("numpy")

Vector = Union[Sequence[float], "np.ndarray"]

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITER = 100_000


class InvalidInputError(ValueError):
    """A value violates a documented precondition or type invariant."""


class InfeasibleSystemError(RuntimeError):
    """A computation that needs a feasibility certificate does not have one."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NonConvergenceError(RuntimeError):
    """Iteration exhausted its step budget; the partial run (``engine.SolveRun``) is attached."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class _Frozen:
    """Base of the immutable value types: ``__init__`` sets the fields once, by :meth:`_set`.

    Two values of one type are equal, and hash alike, when their fields are equal.
    """

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_fields", tuple(fields.items()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        arrays = np.ndarray if "numpy" in sys.modules else ()  # numpy unloaded: no array fields
        return all(np.array_equal(a, b) if isinstance(a, arrays) or isinstance(b, arrays)
                   else a is b or a == b for (_, a), (_, b) in zip(self._fields, other._fields))

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in self._fields)})"


def _float_tuple(values, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what}: entries must be real numbers") from exc


def _check_entries(values, what: str, positive: bool = False, width: int = 0) -> None:
    """Raise unless every entry of ``values`` is finite and >= 0 (> 0 when ``positive``).

    ``min`` and ``sum`` pass valid entries at C speed (a NaN or inf leaves
    the sum non-finite); only then is each entry looked at. The message
    names the first bad one: ``what``, its 1-based index, or (row,column)
    when ``values`` is a row-major matrix ``width`` entries wide, and its value.
    """
    if (min(values) > 0.0 if positive else min(values) >= 0.0) and sum(values) < math.inf:
        return
    for i, v in enumerate(values):
        if not (0.0 < v < math.inf if positive else 0.0 <= v < math.inf):
            where = f"({i // width + 1},{i % width + 1})" if width else i + 1
            raise InvalidInputError(
                f"{what} {where} must be finite and {'>' if positive else '>='} 0, got {v}"
            )


def _entries(values, owner: str, unit: str, positive: bool = False) -> tuple[float, ...]:
    """``values`` as a non-empty float tuple, checked by :func:`_check_entries`.

    ``unit`` names one entry for the messages, e.g. "target for terminal";
    its last word names what there must be at least one of.
    """
    out = _float_tuple(values, owner)
    if not out:
        raise InvalidInputError(f"{owner}: need at least one {unit.split()[-1]}")
    _check_entries(out, f"{owner}: {unit}", positive)
    return out


def _matrix_rows(rows, what: str) -> tuple[tuple[float, ...], ...]:
    """``rows`` as a non-empty rectangular tuple of float rows whose entries are finite and >= 0."""
    out = tuple(_float_tuple(row, what) for row in rows)
    if len(out) < 1 or len(out[0]) < 1:
        raise InvalidInputError(f"{what}: matrix must be non-empty")
    width = len(out[0])
    for r, row in enumerate(out):
        if len(row) != width:
            raise InvalidInputError(f"{what}: row {r + 1} has length {len(row)}, expected {width}")
    _check_entries(list(chain.from_iterable(out)), f"{what}: entry", width=width)
    return out


def _read_json(path, what: str) -> dict:
    """The JSON object in file ``path``; each error starts with ``what``, which names the file."""
    with open(path, encoding="utf-8") as fh:  # JSON is UTF-8 (RFC 8259, 8.1), whatever the locale
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(
                f"{what}: line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{what}: {exc}") from None
        except RecursionError:
            raise InvalidInputError(f"{what}: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what}: top level must be an object")
    return doc


class PowerVector(_Frozen):
    """Transmit or received powers ``p`` (watts, >= 0)."""

    def __init__(self, p: Vector):
        self._set(p=_entries(p, "PowerVector", "power for terminal"))

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


class FeasibilityReport(_Frozen):
    """Outcome of the admission test: one modulus per terminal.

    ``modulus`` (their max) and ``feasible`` (``modulus < 1``) are derived,
    and so is ``binding``: the terminal whose weighted sum attains the
    modulus (the first, on a tie) and ``binding_receiver``, the receiver
    that attains it when the rule names one. Indices are 0-based.
    """

    def __init__(self, per_terminal_modulus: Vector, binding_receiver: Optional[int] = None):
        moduli = _float_tuple(per_terminal_modulus, "FeasibilityReport")
        if len(moduli) < 1:
            raise InvalidInputError("FeasibilityReport: no terminals")
        self._set(per_terminal_modulus=moduli,
                  binding_receiver=None if binding_receiver is None else int(binding_receiver))

    @property
    def modulus(self) -> float:
        return max(self.per_terminal_modulus)

    @property
    def feasible(self) -> bool:
        return self.modulus < 1.0

    @property
    def binding(self) -> tuple[int, Optional[int]]:
        return self.per_terminal_modulus.index(self.modulus), self.binding_receiver


class SolveConfig(_Frozen):
    """``engine.solve``'s step tolerance, step budget and start point (None: all zeros)."""

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE, max_iter: int = DEFAULT_MAX_ITER,
                 initial: Optional[PowerVector] = None):
        self._set(tolerance=tolerance, max_iter=max_iter, initial=initial)
        if not (math.isfinite(tolerance) and tolerance > 0.0):
            raise InvalidInputError(f"SolveConfig: tolerance must be > 0, got {tolerance}")
        if max_iter < 1:
            raise InvalidInputError(f"SolveConfig: max_iter must be >= 1, got {max_iter}")


_CSV_CELLS = 1 << 18  # cells formatted and joined at once, by capacity's CSV and engine's trace writers
