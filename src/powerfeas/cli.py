"""Command-line front end: check, solve, region, axioms.

Configs are JSON documents; see the README for the schema. :data:`SCHEMA`
says, per scenario kind, which type a config builds, which keys it reads
into that type's arguments and which option it takes. Loading checks JSON
types and keys; the scenario types check shapes and values, for every
command. Exit codes are a stable contract: 0 ok/feasible, 1 input error, 2
infeasible or axiom failure, 3 non-convergence of a (typically forced)
iteration run.

``check`` certifies a config with the closed form, in pure Python. ``solve``
computes the fixed point of the update map by policy iteration in pure
Python, or by Picard iteration on numpy arrays with ``--trace``, ``--force``
or in ``exact_noiseless`` mode. A command loads only what it runs (see the
README); the ``maps``, ``engine`` and ``capacity`` functions called here
import their module on first call (:func:`_deferred`).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from functools import partial
from typing import Optional

from .core import (
    FeasibilityReport,
    InfeasibleSystemError,
    InvalidInputError,
    NonConvergenceError,
    PowerVector,
    SolveConfig,
    _read_json,
)
from .scenarios import FixedAssignment, MacroDiversity, MultiConnection, SingleCell, feasibility_formula

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3


def _deferred(module: str, name: str):
    """A function standing in for ``module.name``: imports ``module`` on its first call."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(module, __package__), name)(*args, **kwargs)
    call.__qualname__ = call.__name__ = name
    return call


leave_one_out_map = _deferred(".maps", "leave_one_out_map")
solve = _deferred(".engine", "solve")
contraction_modulus = _deferred(".engine", "contraction_modulus")
write_trace_csv = _deferred(".engine", "write_trace_csv")
sample_region = _deferred(".capacity", "sample_region")
compare_regions = _deferred(".capacity", "compare_regions")
export_inequalities = _deferred(".capacity", "export_inequalities")
export_cloud = _deferred(".capacity", "export_cloud")


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default error path exits with status 2, which this tool
    # reserves for "infeasible"; route usage problems to exit 1 instead.
    def error(self, message):
        raise CliUsageError(message)


def _fmt(value: float) -> str:
    return repr(float(value))


def _field(value, name: str, kind: type = float):
    """A config value of JSON type ``kind``: ``int``, or ``float`` for any number; bools are neither."""
    if isinstance(value, bool) or not isinstance(value, (int,) if kind is int else (int, float)):
        wanted = "an integer" if kind is int else "a number"
        raise InvalidInputError(f"config: {name} must be {wanted}, got {type(value).__name__}")
    return kind(value)


def _fields(values, name: str, kind: type = float, depth: int = 1) -> tuple:
    """A config list of :func:`_field` values of type ``kind``, or, at ``depth`` 2, of such lists."""
    if not isinstance(values, (list, tuple)):
        raise InvalidInputError(f"config: {name} must be a list, got {type(values).__name__}")
    if depth > 1:
        return tuple(_fields(v, f"{name}[{i}]", kind, depth - 1) for i, v in enumerate(values))
    if not set(map(type, values)) <= ({int} if kind is int else {int, float}):
        for i, v in enumerate(values):  # raises naming the first bad entry
            _field(v, f"{name}[{i}]", kind)
    return tuple(map(kind, values))


_integer = partial(_field, kind=int)
_integers = partial(_fields, kind=int)
_rows = partial(_fields, depth=2)


def _receivers(values, name: str) -> tuple:
    """1-based receiver indices, as the 0-based ones the scenario types take."""
    return tuple(a - 1 for a in _integers(values, name))


_COORDINATES = {"coordinates": ("transformed", "original")}

# Per kind: its scenario type; the keys the type takes after ``alphas``, in
# constructor order, each with its reader; and its option, if it has one,
# with the allowed values, default first.
SCHEMA = {
    "single_cell": (SingleCell, (("gains", _fields), ("sigma", _field)), _COORDINATES),
    "macro_diversity": (MacroDiversity, (("gains", _rows), ("sigma", _fields)), _COORDINATES),
    "fixed_assignment": (FixedAssignment, (("gains", _rows), ("assignment", _receivers), ("sigma", _fields)),
                         {}),
    "multi_connection": (MultiConnection, (("gains", _rows), ("d", _integers), ("sigma", _fields)),
                         {"mode": ("bounded", "exact_noiseless")}),
}
_COMMON_KEYS = {"scenario", "n", "k", "alphas", "solver"}  # the keys every kind takes
# The solver settings with their readers; an absent one takes SolveConfig's default.
_SOLVER = (("tolerance", _field), ("max_iter", _integer),
           ("initial", lambda values, name: PowerVector(_fields(values, name))))


class ScenarioConfig:
    """A config document, read through :data:`SCHEMA` but not yet checked.

    Loading checks JSON types, keys, the option and the solver settings; the
    scenario type checks shapes and values when :meth:`scenario` builds it,
    for every command. ``args`` are the type's constructor arguments
    (``assignment`` already 0-based), ``options`` the kind's option and its
    value, ``k`` the optional receiver count :meth:`scenario` checks.
    """

    def __init__(self, kind: str, args: tuple, options: dict, k: Optional[int], solver: SolveConfig):
        self.kind, self.args, self.options, self.k, self.solver = kind, args, options, k, solver

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        keys = {kind: {*dict(fields), *options} for kind, (_, fields, options) in SCHEMA.items()}
        unknown = set(doc) - _COMMON_KEYS.union(*keys.values())
        if unknown:
            raise InvalidInputError(f"config: unknown keys {sorted(unknown)}")
        kind = doc.get("scenario")
        if kind not in tuple(SCHEMA):  # a tuple: kind may be unhashable
            raise InvalidInputError(f"config: scenario must be one of {tuple(SCHEMA)}, got {kind!r}")
        _, fields, options = SCHEMA[kind]
        foreign = set(doc) - _COMMON_KEYS - keys[kind]
        if foreign:
            raise InvalidInputError(f"config: {min(foreign)} is not used by {kind}")
        missing = [key for key in ("alphas", *dict(fields)) if key not in doc]
        if missing:
            raise InvalidInputError(f"config: {kind} requires {', '.join(missing)}")

        alphas = _fields(doc["alphas"], "alphas")
        n = len(alphas)
        if "n" in doc and _integer(doc["n"], "n") != n:
            raise InvalidInputError(f"config: n={doc['n']} but alphas has {n} entries")
        args = (alphas, *(read(doc[key], key) for key, read in fields))
        k = _integer(doc["k"], "k") if "k" in doc else None

        chosen = {}
        for name, values in options.items():
            chosen[name] = value = doc.get(name, values[0])
            if value not in values:
                raise InvalidInputError(f"config: {kind} {name} must be one of {values}, got {value!r}")

        settings = doc.get("solver", {})
        if not isinstance(settings, dict):
            raise InvalidInputError("config: solver must be an object")
        unknown = set(settings) - set(dict(_SOLVER))
        if unknown:
            raise InvalidInputError(f"config: unknown solver keys {sorted(unknown)}")
        solver = SolveConfig(**{key: read(settings[key], f"solver.{key}") for key, read in _SOLVER
                                if key in settings})
        if solver.initial is not None and len(solver.initial) != n:
            raise InvalidInputError("config: solver.initial needs one power per terminal")

        return cls(kind, args, chosen, k, solver)

    def scenario(self):
        """The scenario the config describes, built by its type, which checks it."""
        scenario = SCHEMA[self.kind][0](*self.args)
        if self.k is not None and self.k != scenario.receivers:
            raise InvalidInputError(f"config: k={self.k} but {self.kind} gains give K={scenario.receivers}")
        return scenario

    def _map_options(self) -> dict:
        return {
            "coordinates": self.options.get("coordinates", "transformed"),
            "noiseless": self.options.get("mode") == "exact_noiseless",
        }

    def build(self):
        """The update map ``solve`` iterates, in array form: a ``maps.LeaveOneOutMap``."""
        return leave_one_out_map(self.scenario(), **self._map_options())


def load_config(path) -> ScenarioConfig:
    return ScenarioConfig.from_dict(_read_json(path, f"config {path}"))


def _show_report(config: ScenarioConfig, report: FeasibilityReport, receivers: int, as_json: bool) -> None:
    """Print a certificate: ``check --json``'s line when ``as_json``, else ``check``'s table."""
    term, recv = report.binding
    if as_json:
        print(json.dumps({
            "per_terminal_modulus": list(report.per_terminal_modulus),
            "modulus": report.modulus,
            "feasible": report.feasible,
            "binding": {"terminal": term + 1, "receiver": None if recv is None else recv + 1},
        }))
        return
    option = "".join(f", {value} {name}" for name, value in config.options.items())
    print(f"scenario: {config.kind} (N={len(report.per_terminal_modulus)}, K={receivers}){option}")
    print("terminal  modulus")
    for i, m in enumerate(report.per_terminal_modulus):
        print(f"{i + 1:>8}  {_fmt(m)}")
    print(f"contraction modulus lambda = {_fmt(report.modulus)}")
    where = f"terminal {term + 1}" + ("" if recv is None else f", receiver {recv + 1}")
    value = report.per_terminal_modulus[term]
    print(f"binding: {where}; leave-one-out weighted sum = {_fmt(value)} (must stay < 1)")
    print(f"verdict: {'FEASIBLE' if report.feasible else 'INFEASIBLE'}")


def cmd_check(args) -> int:
    config = load_config(args.config)
    scenario = config.scenario()
    report = feasibility_formula(scenario, **config._map_options())
    _show_report(config, report, scenario.receivers, args.json)
    mode = config.options.get("mode")
    if mode and not args.json:  # multi-connection: report the other mode's condition too
        other_mode = "bounded" if mode == "exact_noiseless" else "exact_noiseless"
        other = feasibility_formula(scenario, noiseless=other_mode == "exact_noiseless")
        agree = "agrees" if other.feasible == report.feasible else "DISAGREES"
        print(
            f"note: {other_mode} condition gives modulus {_fmt(other.modulus)} "
            f"({'feasible' if other.feasible else 'infeasible'}); {agree} with {mode}"
        )
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _parse_initial(text: str, n: int) -> PowerVector:
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"--init: expected numbers, got {text!r}") from exc
    if len(values) == 1:
        return PowerVector.full(n, values[0])
    if len(values) != n:
        raise InvalidInputError(f"--init: expected 1 or {n} values, got {len(values)}")
    return PowerVector(tuple(values))


def cmd_solve(args) -> int:
    config = load_config(args.config)
    system = config.build()
    report = contraction_modulus(system)
    if not report.feasible and not args.force:  # the certificate check reports, as check shows it
        _show_report(config, report, len(system.G), args.json)
        print("refusing to iterate an uncertified system (use --force to override)",
              file=sys.stderr if args.json else sys.stdout)
        return EXIT_INFEASIBLE

    solve_config = config.solver
    if args.init is not None:
        solve_config = SolveConfig(solve_config.tolerance, solve_config.max_iter,
                                   _parse_initial(args.init, system.n))
    try:
        fixed_point, run = solve(system, solve_config, force=args.force,
                                 trace=args.trace is not None)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.trace and exc.trace is not None:
            write_trace_csv(exc.trace, args.trace)
            print(f"partial trace written to {args.trace}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    if args.trace:
        write_trace_csv(run, args.trace)
    if args.json:
        print(json.dumps({
            "powers": list(fixed_point.p),
            "iterations": run.iterations_used,
            "converged": run.converged,
            "certified": run.certified,
        }))
    else:
        for i, value in enumerate(fixed_point):
            print(f"p_{i + 1} = {value:.12g}")
        certified = "" if run.certified else " (uncertified run)"
        print(f"converged in {run.iterations_used} iterations{certified}")
    return EXIT_OK


def cmd_region(args) -> int:
    from .capacity import RegionSpec, hanly, region_inequalities

    if args.inequalities and os.path.realpath(args.inequalities) == os.path.realpath(args.out):
        raise InvalidInputError(
            f"region: --out {args.out} and --inequalities {args.inequalities} name one file")
    config = load_config(args.config)
    scenario = config.scenario()
    alpha_max = args.alpha_max if args.alpha_max is not None else float(scenario.receivers + 1)
    spec = RegionSpec(scenario, **config._map_options(), resolution=args.resolution, alpha_max=alpha_max)
    if args.inequalities:
        region_inequalities(spec)  # raises for a region without one, before any file is written
    cloud = sample_region(spec, allow_large=args.force_dim)
    export_cloud(cloud, args.out)
    if args.inequalities:
        try:
            export_inequalities(spec, args.inequalities)
        except Exception:
            os.remove(args.out)  # write both files or neither
            raise
    print(f"wrote {cloud.spec.point_count} points to {args.out}")
    if args.inequalities:
        print(f"wrote inequality rows to {args.inequalities}")
    if args.compare:
        comparison = compare_regions(cloud, hanly(cloud.alphas, spec.receivers))
        label = f"hanly(K={spec.receivers})"
        wording = {
            "equal": f"equal to {label}",
            "a_subset_b": f"scenario region contained in {label}",
            "b_subset_a": f"{label} contained in scenario region",
            "incomparable": "incomparable",
        }[comparison.relation]
        print(f"relation vs {label}: {wording}")
        if comparison.witness_a_not_b is not None:
            print(f"witness only in scenario region: {comparison.witness_a_not_b}")
        if comparison.witness_b_not_a is not None:
            print(f"witness only in {label}: {comparison.witness_b_not_a}")
    return EXIT_OK


def _fmt_witness(counterexample) -> str:
    parts = ("(" + ", ".join(map(_fmt, item)) + ")" if isinstance(item, tuple) else _fmt(item)
             for item in counterexample.inputs)
    return (
        f"witness {', '.join(parts)}: lhs={_fmt(counterexample.lhs)} "
        f"> rhs={_fmt(counterexample.rhs)}"
    )


def cmd_axioms(args) -> int:
    from . import axioms

    f, dim = axioms._parse_function_spec(args.function, args.dim)
    samples = axioms.DEFAULT_SAMPLES if args.samples is None else args.samples
    report = axioms.check_all(f, dim, samples=samples, seed=args.seed)
    print(f"function: {args.function} (dim {dim}, samples {samples}, seed {args.seed})")
    print(f"{'axiom':<22}verdict")
    for verdict in report.results:
        line = f"{verdict.axiom:<22}{'PASS' if verdict.passed else 'FAIL'}"
        if verdict.counterexample is not None:
            line += "  " + _fmt_witness(verdict.counterexample)
        print(line)
    print("all axioms hold" if report.all_passed else "axiom violations found")
    return EXIT_OK if report.all_passed else EXIT_INFEASIBLE


def build_parser() -> _Parser:
    parser = _Parser(prog="powerfeas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_check = sub.add_parser("check", help="certify feasibility of a scenario config")
    p_check.add_argument("config")
    p_check.add_argument("--json", action="store_true", help="machine-readable output")
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="iterate to the fixed-point power allocation")
    p_solve.add_argument("config")
    p_solve.add_argument("--trace", help="write the iteration trace CSV here")
    p_solve.add_argument("--force", action="store_true",
                         help="iterate even when the feasibility certificate fails")
    p_solve.add_argument("--init", help="initial powers: one value (broadcast) or comma list")
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    p_solve.set_defaults(func=cmd_solve)

    p_region = sub.add_parser("region", help="sample the capacity region on a grid")
    p_region.add_argument("config")
    p_region.add_argument("--resolution", type=int, default=41, help="grid steps per axis")
    p_region.add_argument("--out", required=True, help="cloud CSV output path")
    p_region.add_argument("--alpha-max", type=float, default=None,
                          help="axis upper bound (default: receivers + 1)")
    p_region.add_argument("--compare", choices=["hanly"],
                          help="compare against the gain-independent baseline")
    p_region.add_argument("--inequalities", help="also write the H-representation CSV here")
    p_region.add_argument("--force-dim", action="store_true",
                          help="override the dimension cost guard")
    p_region.set_defaults(func=cmd_region)

    p_axioms = sub.add_parser("axioms", help="run the rule-axiom checks on a function")
    p_axioms.add_argument("--function", required=True,
                          help="holder:p | weighted:a1,a2,... | norm-of-norms:file.json | squared-l1")
    p_axioms.add_argument("--dim", type=int, default=None)
    p_axioms.add_argument("--samples", type=int, default=None,
                          help="random samples per axiom (default 2000)")
    p_axioms.add_argument("--seed", type=int, default=0)
    p_axioms.set_defaults(func=cmd_axioms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InfeasibleSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_INPUT_ERROR


def run() -> None:
    """:func:`main`, then flush stdout and stderr and leave by ``os._exit``: no interpreter teardown.

    Every file a command writes is closed before :func:`main` returns. A stream that is None or fails
    to flush leaves by ``sys.exit`` instead, whose teardown reports the failure as a plain exit does.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
