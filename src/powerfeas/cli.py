"""Command-line front end: check, solve, region, axioms.

Configs are JSON documents; see the README for the schema. Exit codes are
a stable contract: 0 ok/feasible, 1 input error, 2 infeasible or axiom
failure, 3 non-convergence of a (typically forced) iteration run.

``check`` certifies a config with the closed form and ``solve`` computes
the fixed point of the array update map (``scenarios.leave_one_out_map``):
Picard iteration with ``--trace``, ``--force`` or in ``exact_noiseless``
mode, policy iteration otherwise. Neither builds rule objects, which stay
the library's independent reference.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .capacity import (
    RegionSpec,
    compare_regions,
    export_cloud,
    export_inequalities,
    sample_region,
)
from .core import (
    EvaluationError,
    FeasibilityReport,
    InfeasibleSystemError,
    InvalidFunctionError,
    InvalidInputError,
    NoiseVector,
    NonConvergenceError,
    PowerVector,
    QosVector,
    GainMatrix,
)
from .engine import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOLERANCE,
    SolveConfig,
    contraction_modulus,
    solve,
    write_trace_csv,
)
from .scenarios import (
    FixedAssignment,
    LeaveOneOutMap,
    MacroDiversity,
    MultiConnection,
    SingleCell,
    feasibility_formula,
    leave_one_out_map,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3

KINDS = ("single_cell", "macro_diversity", "fixed_assignment", "multi_connection")
MC_MODES = ("bounded", "exact_noiseless")


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default error path exits with status 2, which this tool
    # reserves for "infeasible"; route usage problems to exit 1 instead.
    def error(self, message):
        raise CliUsageError(message)


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt12(value: float) -> str:
    return format(float(value), ".12g")


@dataclass
class ScenarioConfig:
    """Validated, round-trippable mirror of a config document.

    Holds user-level values (1-based receiver indices in ``assignment``);
    conversion to 0-based happens when the typed scenario is produced.
    """

    kind: str
    alphas: tuple[float, ...]
    gains: tuple
    sigma: tuple[float, ...] | float
    assignment: Optional[tuple[int, ...]] = None
    d: Optional[tuple[int, ...]] = None
    mode: Optional[str] = None
    coordinates: Optional[str] = None
    solver: SolveConfig = field(default_factory=SolveConfig)

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise InvalidInputError("config: top level must be an object")
        known = {"scenario", "n", "k", "alphas", "gains", "sigma", "assignment",
                 "d", "mode", "coordinates", "solver"}
        unknown = set(doc) - known
        if unknown:
            raise InvalidInputError(f"config: unknown keys {sorted(unknown)}")
        kind = doc.get("scenario")
        if kind not in KINDS:
            raise InvalidInputError(f"config: scenario must be one of {KINDS}, got {kind!r}")
        if "alphas" not in doc or "gains" not in doc or "sigma" not in doc:
            raise InvalidInputError("config: alphas, gains and sigma are required")

        alphas = tuple(float(v) for v in doc["alphas"])
        n = len(alphas)
        if "n" in doc and int(doc["n"]) != n:
            raise InvalidInputError(f"config: n={doc['n']} but alphas has {n} entries")

        gains_doc = doc["gains"]
        if kind == "single_cell":
            gains = tuple(float(v) for v in gains_doc)
            if len(gains) != n:
                raise InvalidInputError("config: single_cell gains must list one gain per terminal")
            k = 1
        else:
            try:
                gains = tuple(tuple(float(v) for v in row) for row in gains_doc)
            except TypeError as exc:
                raise InvalidInputError("config: gains must be a matrix (list of rows)") from exc
            if not gains or not gains[0]:
                raise InvalidInputError("config: gains matrix is empty")
            widths = {len(row) for row in gains}
            if len(widths) != 1:
                raise InvalidInputError("config: gain rows have inconsistent lengths")
            if kind == "macro_diversity":
                # terminal-major: one row per terminal
                if len(gains) != n:
                    raise InvalidInputError("config: macro_diversity gains need one row per terminal")
                k = len(gains[0])
            else:
                # receiver-major: one row per receiver
                if len(gains[0]) != n:
                    raise InvalidInputError(f"config: {kind} gain rows need one column per terminal")
                k = len(gains)
        if "k" in doc and int(doc["k"]) != k:
            raise InvalidInputError(f"config: k={doc['k']} but gains imply {k} receivers")

        sigma_doc = doc["sigma"]
        if kind == "single_cell":
            if isinstance(sigma_doc, (list, tuple)):
                raise InvalidInputError("config: single_cell sigma is a scalar")
            sigma: tuple[float, ...] | float = float(sigma_doc)
        else:
            if not isinstance(sigma_doc, (list, tuple)):
                raise InvalidInputError(f"config: {kind} sigma must list one value per receiver")
            sigma = tuple(float(v) for v in sigma_doc)
            if len(sigma) != k:
                raise InvalidInputError(f"config: sigma has {len(sigma)} entries, expected {k}")

        assignment = None
        if kind == "fixed_assignment":
            if "assignment" not in doc:
                raise InvalidInputError("config: fixed_assignment requires an assignment list")
            assignment = tuple(int(v) for v in doc["assignment"])
            if len(assignment) != n:
                raise InvalidInputError("config: assignment needs one receiver per terminal")
            if any(not 1 <= a <= k for a in assignment):
                raise InvalidInputError("config: assignment uses 1-based receiver indices")
        elif "assignment" in doc:
            raise InvalidInputError("config: assignment is only valid for fixed_assignment")

        d = None
        mode = None
        if kind == "multi_connection":
            if "d" not in doc:
                raise InvalidInputError("config: multi_connection requires diversity orders d")
            d = tuple(int(v) for v in doc["d"])
            mode = doc.get("mode", "bounded")
            if mode not in MC_MODES:
                raise InvalidInputError(f"config: mode must be one of {MC_MODES}, got {mode!r}")
        else:
            if "d" in doc:
                raise InvalidInputError("config: d is only valid for multi_connection")
            if "mode" in doc:
                raise InvalidInputError("config: mode is only valid for multi_connection")

        coordinates = None
        if kind in ("single_cell", "macro_diversity"):
            coordinates = doc.get("coordinates", "transformed")
            if coordinates not in ("original", "transformed"):
                raise InvalidInputError(
                    f"config: coordinates must be 'original' or 'transformed', got {coordinates!r}"
                )
        elif "coordinates" in doc:
            raise InvalidInputError(f"config: coordinates is not used by {kind}")

        solver = SolveConfig()
        if "solver" in doc:
            sdoc = doc["solver"]
            if not isinstance(sdoc, dict):
                raise InvalidInputError("config: solver must be an object")
            unknown = set(sdoc) - {"tolerance", "max_iter", "initial"}
            if unknown:
                raise InvalidInputError(f"config: unknown solver keys {sorted(unknown)}")
            solver = SolveConfig(
                tolerance=float(sdoc.get("tolerance", DEFAULT_TOLERANCE)),
                max_iter=int(sdoc.get("max_iter", DEFAULT_MAX_ITER)),
                initial=PowerVector(sdoc["initial"]) if "initial" in sdoc else None,
            )
            if solver.initial is not None and len(solver.initial) != n:
                raise InvalidInputError("config: solver.initial needs one power per terminal")

        return cls(kind=kind, alphas=alphas, gains=gains, sigma=sigma,
                   assignment=assignment, d=d, mode=mode,
                   coordinates=coordinates, solver=solver)

    def to_dict(self) -> dict:
        doc: dict = {
            "scenario": self.kind,
            "n": self.n,
            "k": self.receivers,
            "alphas": list(self.alphas),
        }
        if self.kind == "single_cell":
            doc["gains"] = list(self.gains)
            doc["sigma"] = self.sigma
        else:
            doc["gains"] = [list(row) for row in self.gains]
            doc["sigma"] = list(self.sigma)
        if self.assignment is not None:
            doc["assignment"] = list(self.assignment)
        if self.d is not None:
            doc["d"] = list(self.d)
        if self.mode is not None:
            doc["mode"] = self.mode
        if self.coordinates is not None:
            doc["coordinates"] = self.coordinates
        doc["solver"] = {"tolerance": self.solver.tolerance, "max_iter": self.solver.max_iter}
        if self.solver.initial is not None:
            doc["solver"]["initial"] = list(self.solver.initial.p)
        return doc

    @property
    def n(self) -> int:
        return len(self.alphas)

    @property
    def receivers(self) -> int:
        if self.kind == "single_cell":
            return 1
        if self.kind == "macro_diversity":
            return len(self.gains[0])
        return len(self.gains)

    def scenario(self):
        qos = QosVector(self.alphas)
        if self.kind == "single_cell":
            return SingleCell(alphas=qos, gains=self.gains, sigma=self.sigma)
        if self.kind == "macro_diversity":
            return MacroDiversity(
                alphas=qos, gains=GainMatrix(self.gains), noise=NoiseVector(self.sigma)
            )
        if self.kind == "fixed_assignment":
            return FixedAssignment(
                alphas=qos,
                gains=self.gains,
                assignment=tuple(a - 1 for a in self.assignment),
                noise=NoiseVector(self.sigma),
            )
        return MultiConnection(
            alphas=qos, gains=self.gains, d=self.d, noise=NoiseVector(self.sigma)
        )

    def _map_options(self) -> dict:
        return {
            "coordinates": self.coordinates or "transformed",
            "noiseless": self.mode == "exact_noiseless",
        }

    def build(self) -> LeaveOneOutMap:
        """The update map ``solve`` iterates, in array form."""
        return leave_one_out_map(self.scenario(), **self._map_options())

    def formula(self) -> FeasibilityReport:
        """The admission certificate ``check`` reports: the map at the all-ones vector."""
        return feasibility_formula(self.scenario(), **self._map_options())

    def region_spec(self, resolution: int, alpha_max: float) -> RegionSpec:
        if self.kind == "single_cell":
            return RegionSpec("simple", n=self.n, resolution=resolution, alpha_max=alpha_max)
        if self.kind == "macro_diversity":
            return RegionSpec(
                "macro_div", n=self.n, resolution=resolution, alpha_max=alpha_max,
                gains=self.gains,
            )
        if self.kind == "multi_connection":
            predicate = "mc_exact" if self.mode == "exact_noiseless" else "mc_bounded"
            return RegionSpec(
                predicate, n=self.n, resolution=resolution, alpha_max=alpha_max,
                gains=self.gains, d=self.d,
            )
        raise InvalidInputError("region: fixed_assignment has no region predicate")

    def hanly_spec(self, resolution: int, alpha_max: float) -> RegionSpec:
        return RegionSpec(
            "hanly", n=self.n, resolution=resolution, alpha_max=alpha_max,
            receivers=self.receivers,
        )


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(
                f"config {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    return ScenarioConfig.from_dict(doc)


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_report(config: ScenarioConfig, report: FeasibilityReport) -> None:
    coords = f", {config.coordinates} coordinates" if config.coordinates else ""
    mode = f", {config.mode} mode" if config.mode else ""
    print(f"scenario: {config.kind} (N={config.n}, K={config.receivers}){coords}{mode}")
    print("terminal  modulus")
    for i, m in enumerate(report.per_terminal_modulus):
        print(f"{i + 1:>8}  {_fmt(m)}")
    print(f"contraction modulus lambda = {_fmt(report.modulus)}")
    if report.binding is not None:
        term, recv = report.binding
        where = f"terminal {term + 1}"
        if recv is not None:
            where += f", receiver {recv + 1}"
        value = report.per_terminal_modulus[term]
        print(f"binding: {where}; leave-one-out weighted sum = {_fmt(value)} (must stay < 1)")
    print(f"verdict: {'FEASIBLE' if report.feasible else 'INFEASIBLE'}")


def _report_json(report: FeasibilityReport) -> dict:
    term, recv = report.binding if report.binding is not None else (None, None)
    return {
        "per_terminal_modulus": list(report.per_terminal_modulus),
        "modulus": report.modulus,
        "feasible": report.feasible,
        "binding": {
            "terminal": None if term is None else term + 1,
            "receiver": None if recv is None else recv + 1,
        },
    }


def cmd_check(args) -> int:
    config = load_config(args.config)
    report = config.formula()
    if args.json:
        print(json.dumps(_report_json(report)))
    else:
        _print_report(config, report)
        if config.kind == "multi_connection":
            other_mode = "bounded" if config.mode == "exact_noiseless" else "exact_noiseless"
            other = feasibility_formula(
                config.scenario(), noiseless=other_mode == "exact_noiseless"
            )
            agree = "agrees" if other.feasible == report.feasible else "DISAGREES"
            print(
                f"note: {other_mode} condition gives modulus {_fmt(other.modulus)} "
                f"({'feasible' if other.feasible else 'infeasible'}); {agree} with {config.mode}"
            )
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _parse_initial(text: str, n: int) -> PowerVector:
    parts = [p for p in text.split(",") if p.strip() != ""]
    try:
        values = [float(p) for p in parts]
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
    if not report.feasible and not args.force:
        _print_report(config, report)
        print("refusing to iterate an uncertified system (use --force to override)")
        return EXIT_INFEASIBLE

    solve_config = config.solver
    if args.init is not None:
        solve_config = replace(solve_config, initial=_parse_initial(args.init, config.n))
    try:
        fixed_point, trace = solve(system, solve_config, force=args.force,
                                   trace=args.trace is not None)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.trace and exc.trace is not None:
            write_trace_csv(exc.trace, args.trace)
            print(f"partial trace written to {args.trace}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    if args.trace:
        write_trace_csv(trace, args.trace)
    if args.json:
        print(json.dumps({
            "powers": list(fixed_point.p),
            "iterations": trace.iterations_used,
            "converged": trace.converged,
            "certified": trace.certified,
        }))
    else:
        for i, value in enumerate(fixed_point):
            print(f"p_{i + 1} = {_fmt12(value)}")
        certified = "" if trace.certified else " (uncertified run)"
        print(f"converged in {trace.iterations_used} iterations{certified}")
    return EXIT_OK


def cmd_region(args) -> int:
    config = load_config(args.config)
    alpha_max = args.alpha_max if args.alpha_max is not None else float(config.receivers + 1)
    spec = config.region_spec(args.resolution, alpha_max)
    cloud = sample_region(spec, allow_large=args.force_dim)
    export_cloud(cloud, args.out)
    print(f"wrote {cloud.spec.point_count} points to {args.out}")
    if args.inequalities:
        export_inequalities(spec, args.inequalities)
        print(f"wrote inequality rows to {args.inequalities}")
    if args.compare:
        baseline = sample_region(
            config.hanly_spec(args.resolution, alpha_max), allow_large=args.force_dim
        )
        comparison = compare_regions(cloud, baseline)
        label = f"hanly(K={config.receivers})"
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


def _squared_l1(x: np.ndarray) -> float:
    return float(np.abs(np.asarray(x, dtype=float)).sum() ** 2)


def _parse_function_spec(spec: str, dim: Optional[int]):
    """Returns (callable, dim, label) for the axiom checker."""
    from .rules import HolderNorm, NormOfNorms, WeightedAbsSum

    if spec == "squared-l1":
        if dim is None:
            raise InvalidInputError("axioms: --dim is required for squared-l1")
        return _squared_l1, dim, "squared-l1"
    if spec.startswith("holder:"):
        raw = spec.split(":", 1)[1]
        p = math.inf if raw in ("inf", "infinity") else float(raw)
        if dim is None:
            raise InvalidInputError("axioms: --dim is required for holder norms")
        return HolderNorm(p), dim, spec
    if spec.startswith("weighted:"):
        weights = tuple(float(v) for v in spec.split(":", 1)[1].split(","))
        f = WeightedAbsSum(weights)
        if dim is not None and dim != f.dim:
            raise InvalidInputError(f"axioms: --dim {dim} does not match {f.dim} weights")
        return f, f.dim, spec
    if spec.startswith("norm-of-norms:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            doc = json.load(fh)
        inner = tuple(WeightedAbsSum(tuple(float(v) for v in row)) for row in doc["inner"])
        outer_doc = doc.get("outer", "inf")
        p = math.inf if outer_doc in ("inf", "infinity") else float(outer_doc)
        f = NormOfNorms(inner=inner, outer=HolderNorm(p))
        if dim is not None and dim != f.dim:
            raise InvalidInputError(f"axioms: --dim {dim} does not match inner dimension {f.dim}")
        return f, f.dim, f"norm-of-norms:{path}"
    raise InvalidInputError(
        f"axioms: unknown function spec {spec!r} "
        "(use holder:p, weighted:a1,a2,..., norm-of-norms:file.json or squared-l1)"
    )


def _fmt_witness(counterexample) -> str:
    parts = []
    for item in counterexample.inputs:
        if isinstance(item, tuple):
            parts.append("(" + ", ".join(_fmt(v) for v in item) + ")")
        else:
            parts.append(_fmt(item))
    return (
        f"witness {', '.join(parts)}: lhs={_fmt(counterexample.lhs)} "
        f"> rhs={_fmt(counterexample.rhs)}"
    )


def cmd_axioms(args) -> int:
    from . import axioms

    f, dim, label = _parse_function_spec(args.function, args.dim)
    samples = axioms.DEFAULT_SAMPLES if args.samples is None else args.samples
    report = axioms.check_all(f, dim, samples=samples, seed=args.seed)
    print(f"function: {label} (dim {dim}, samples {samples}, seed {args.seed})")
    print(f"{'axiom':<22}verdict")
    for verdict in report.verdicts():
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
    except (InvalidInputError, InvalidFunctionError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InfeasibleSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (json.JSONDecodeError, ValueError, KeyError, TypeError, OverflowError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
