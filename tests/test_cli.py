import ast
import contextlib
import copy
import io
import json
import os
import runpy
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from powerfeas import capacity, cli
from powerfeas.cli import ScenarioConfig, main

REPO = Path(__file__).resolve().parent.parent
REPO_CONFIGS = REPO / "configs"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def symmetric_doc(alpha=0.99):
    return {
        "scenario": "macro_diversity",
        "alphas": [alpha, alpha, alpha],
        "gains": [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
        "sigma": [1.0, 1.0],
    }


def floor_stall_doc(alphas=(0.26608152049936773, 0.2666805320691621, 0.2070182098202545,
                            0.16021973761121583, 0.11294283013403528)):
    """A single cell at lambda 0.9 whose Picard step stops shrinking above tolerance 1e-15."""
    n = len(alphas)
    return {"scenario": "single_cell", "alphas": list(alphas), "gains": [1] * n, "sigma": 1.0,
            "solver": {"tolerance": 1e-15}}


def pair_doc():
    return {
        "scenario": "single_cell",
        "alphas": [0.3, 0.4],
        "gains": [1.0, 1.0],
        "sigma": 1.0,
        "coordinates": "original",
        "solver": {"tolerance": 1e-12},
    }


class TestCheck:
    def test_symmetric_feasible_exit_zero(self, tmp_path, capsys):
        code = main(["check", write_config(tmp_path, symmetric_doc())])
        out = capsys.readouterr().out
        assert code == 0
        assert "lambda = 0.99" in out
        assert "FEASIBLE" in out

    def test_boundary_exit_two(self, tmp_path, capsys):
        code = main(["check", write_config(tmp_path, symmetric_doc(1.0))])
        assert code == 2
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_malformed_matrix_exit_one(self, tmp_path, capsys):
        doc = symmetric_doc()
        doc["gains"] = [[1.0, 1.0], [1.0], [1.0, 1.0]]
        code = main(["check", write_config(tmp_path, doc)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_json_syntax_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "scenario": oops\n}\n')
        code = main(["check", str(path)])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        doc = symmetric_doc()
        doc["extra"] = 1
        assert main(["check", write_config(tmp_path, doc)]) == 1

    def test_json_output(self, tmp_path, capsys):
        code = main(["check", write_config(tmp_path, symmetric_doc()), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["modulus"] == pytest.approx(0.99)
        assert payload["binding"]["terminal"] == 1

    @pytest.mark.parametrize("key", ["n", "k", "max_iter", "solver_list", "solver_key_list"])
    def test_overflowing_integer_exit_one(self, tmp_path, capsys, key):
        doc = symmetric_doc()
        if key == "max_iter":
            doc["solver"] = {"max_iter": 1e400}
        elif key == "solver_list":
            doc["solver"] = []
        elif key == "solver_key_list":
            doc["solver"] = ["tolerance"]
        else:
            doc[key] = 1e400
        path = write_config(tmp_path, doc)
        for command in ("check", "solve"):
            code = main([command, path])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("solver", [
        {"tolerance": 0}, {"max_iter": 0}, {"initial": [-1, 0, 0]},
    ], ids=["tolerance", "max_iter", "initial"])
    def test_invalid_solver_settings_exit_one(self, tmp_path, capsys, solver):
        path = write_config(tmp_path, dict(symmetric_doc(), solver=solver))
        for command in ("check", "solve"):
            assert main([command, path]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_check_memory_stays_linear(self, tmp_path, capsys):
        # the certificate needs O(N*K) memory; N*K rule objects would take
        # about 100 MB here
        rng = np.random.default_rng(17)
        n, k = 400, 16
        doc = {
            "scenario": "macro_diversity",
            "alphas": (rng.uniform(0.5, 1.0, n) * 8.0 / n).tolist(),
            "gains": rng.uniform(0.1, 2.0, (n, k)).tolist(),
            "sigma": [1.0] * k,
        }
        path = write_config(tmp_path, doc)
        tracemalloc.start()
        try:
            code = main(["check", path, "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code in (0, 2)
        assert json.loads(capsys.readouterr().out)["binding"]["receiver"] is not None
        assert peak < 32 * 2**20

    def test_multi_connection_reports_both_conditions(self, capsys):
        code = main(["check", str(REPO_CONFIGS / "multi_connection.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact_noiseless condition" in out


def fixed_assignment_doc():
    return {
        "scenario": "fixed_assignment",
        "alphas": [0.2, 0.3, 0.25],
        "gains": [[1.0, 0.2, 0.1], [0.3, 1.0, 0.8]],
        "sigma": [1.0, 0.5],
        "assignment": [1, 2, 2],
    }


def multi_connection_doc(mode="bounded"):
    return {
        "scenario": "multi_connection",
        "alphas": [0.1, 0.2, 0.15],
        "gains": [[1.0, 0.5, 0.2], [0.3, 1.0, 1.0]],
        "sigma": [1.0, 1.0],
        "d": [1, 2, 1],
        "mode": mode,
    }


class TestConfigTypes:
    """Integer fields take JSON integers only, number fields ints or floats; bools are neither."""

    @pytest.mark.parametrize("doc, field", [
        (dict(multi_connection_doc(), d="12"), "config: d must be a list"),
        (dict(fixed_assignment_doc(), assignment=[1.9, 2, 2]), "config: assignment[0] must be an integer"),
        (dict(symmetric_doc(), n=2.7), "config: n must be an integer"),
        (dict(symmetric_doc(), k=True), "config: k must be an integer"),
        (dict(multi_connection_doc(), alphas=[True, 0.2, 0.15]), "config: alphas[0] must be a number"),
        (dict(pair_doc(), sigma="1.0"), "config: sigma must be a number"),
        (dict(symmetric_doc(), gains=[[1.0, 1.0], [1.0, "1"], [1.0, 1.0]]), "config: gains[1][1] must be a number"),
        (dict(symmetric_doc(), solver={"max_iter": 10.0}), "config: solver.max_iter must be an integer"),
        (dict(symmetric_doc(), solver={"tolerance": False}), "config: solver.tolerance must be a number"),
        (dict(symmetric_doc(), solver={"initial": [1, None, 1]}), "config: solver.initial[1] must be a number"),
    ], ids=["d_string", "assignment_float", "n_float", "k_bool", "alphas_bool", "sigma_string",
            "gain_string", "max_iter_float", "tolerance_bool", "initial_null"])
    def test_wrong_type_exit_one_naming_the_field(self, tmp_path, capsys, doc, field):
        path = write_config(tmp_path, doc)
        for command in ("check", "solve"):
            assert main([command, path]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(f"error: {field}, got ")
            assert captured.err.count("\n") == 1

    def test_integral_floats_stay_numbers(self, tmp_path, capsys):
        doc = dict(symmetric_doc(), alphas=[1, 0.5, 0.5], sigma=[1, 2])
        assert main(["check", write_config(tmp_path, doc), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["modulus"] == 1.0 * 0.5 + 0.5 * 0.5


ONE_TERMINAL = {
    "single_cell": {"scenario": "single_cell", "alphas": [0.5], "gains": [1.0], "sigma": 1.0},
    "macro_diversity": {"scenario": "macro_diversity", "alphas": [0.5], "gains": [[1.0, 0.5]],
                        "sigma": [1.0, 1.0]},
    "fixed_assignment": {"scenario": "fixed_assignment", "alphas": [0.5], "gains": [[1.0], [0.5]],
                         "sigma": [1.0, 1.0], "assignment": [2]},
    "multi_connection": {"scenario": "multi_connection", "alphas": [0.5], "gains": [[1.0], [0.5]],
                         "sigma": [1.0, 1.0], "d": [2]},
}


@pytest.mark.parametrize("kind", sorted(ONE_TERMINAL))
def test_one_terminal_exit_one(tmp_path, capsys, kind):
    path = write_config(tmp_path, ONE_TERMINAL[kind])
    cloud = tmp_path / "cloud.csv"
    for argv in (["check", path, "--json"], ["solve", path, "--json"],
                 ["region", path, "--resolution", "3", "--out", str(cloud)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: admission test: need at least two terminals\n"
    assert not cloud.exists()


@pytest.mark.parametrize("doc, message", [
    (dict(pair_doc(), gains=[1.0, 0.0]), "SingleCell: gain for terminal 2 must be finite and > 0, got 0.0"),
    (dict(pair_doc(), sigma=-1.0), "SingleCell: sigma must be finite and >= 0"),
    (dict(pair_doc(), gains=[1.0]), "SingleCell: one gain per terminal required"),
    (dict(symmetric_doc(), alphas=[0.4, -0.4, 0.4]),
     "MacroDiversity: target for terminal 2 must be finite and > 0, got -0.4"),
    (dict(symmetric_doc(), alphas=[0.4, 0.4, 0.0]),
     "MacroDiversity: target for terminal 3 must be finite and > 0, got 0.0"),
    (dict(symmetric_doc(), sigma=[1.0, float("nan")]),
     "MacroDiversity: noise power for receiver 2 must be finite and >= 0, got nan"),
    (dict(symmetric_doc(), sigma=[1.0]), "MacroDiversity: one noise power per receiver required"),
    (dict(symmetric_doc(), gains=[[1.0, 1.0], [1.0, 1.0]]), "MacroDiversity: one gain row per terminal required"),
    (dict(symmetric_doc(), gains=[[1e308, 1e308], [1.0, 1.0], [1.0, 1.0]]),
     "MacroDiversity: gain row 1 sum overflows float64"),
    (dict(multi_connection_doc(), gains=[[1.0, 0.5, 0.2], [0.3, 1.0]]),
     "MultiConnection gains: row 2 has length 2, expected 3"),
    (dict(multi_connection_doc(), sigma=[1.0]), "MultiConnection: one noise power per receiver required"),
    (dict(multi_connection_doc(), d=[1, 2]), "MultiConnection: one diversity order per terminal required"),
    (dict(fixed_assignment_doc(), sigma=[1.0]), "FixedAssignment: one noise power per receiver required"),
    (dict(fixed_assignment_doc(), assignment=[1, 3, 2]),
     "FixedAssignment: terminal 2 assigned to receiver 3, but only 2 receivers exist"),
    # each modulus is exactly 1.0, but the float sum 1e308 + 1e308 is inf (check --json printed Infinity)
    (dict(fixed_assignment_doc(), alphas=[0.5] * 3, gains=[[1e308] * 3, [1] * 3], assignment=[1] * 3),
     "admission test: a weighted leave-one-out sum exceeds the float64 range"),
    # 1e308 passes at region's unit targets; its largest grid point, alpha_max 3, overflows
    (dict(multi_connection_doc("exact_noiseless"), alphas=[2, 2], gains=[[1e308, 1], [1, 1]], d=[1, 1]),
     "leave_one_out_map: a target times a gain exceeds the float64 range"),
], ids=["sc_zero_gain", "sc_negative_sigma", "sc_gain_count", "negative_target", "zero_target",
        "md_nan_noise", "md_short_sigma", "md_gain_rows", "md_row_sum_overflow", "mc_ragged_gains",
        "mc_short_sigma", "mc_short_d", "fa_short_sigma", "fa_assignment_beyond_k", "certificate_sum_overflow",
        "region_top_point_overflow"])
def test_malformed_configs_fail_alike_on_every_command(tmp_path, capsys, doc, message):
    # the scenario types check every command's input: region once skipped them
    path = write_config(tmp_path, doc)
    cloud = tmp_path / "cloud.csv"
    for argv in (["check", path], ["solve", path], ["region", path, "--resolution", "2", "--out", str(cloud)]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), argv
    assert not cloud.exists()


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("doc, message", [
    (dict(symmetric_doc(), assignment=[1, 2, 2]), "config: assignment is not used by macro_diversity"),
    (dict(fixed_assignment_doc(), d=[1, 1, 1]), "config: d is not used by fixed_assignment"),
    (dict(pair_doc(), mode="bounded"), "config: mode is not used by single_cell"),
    (dict(fixed_assignment_doc(), coordinates="original"), "config: coordinates is not used by fixed_assignment"),
    (without(pair_doc(), "gains"), "config: single_cell requires gains"),
    (without(symmetric_doc(), "sigma"), "config: macro_diversity requires sigma"),
    (without(fixed_assignment_doc(), "assignment"), "config: fixed_assignment requires assignment"),
    (without(multi_connection_doc(), "d"), "config: multi_connection requires d"),
    (without(multi_connection_doc(), "alphas"), "config: multi_connection requires alphas"),
    (dict(pair_doc(), coordinates="polar"),
     "config: single_cell coordinates must be one of ('transformed', 'original'), got 'polar'"),
    (dict(multi_connection_doc(), mode="exact"),
     "config: multi_connection mode must be one of ('bounded', 'exact_noiseless'), got 'exact'"),
    (dict(pair_doc(), scenario="ring"), "config: scenario must be one of ('single_cell', 'macro_diversity', "
                                        "'fixed_assignment', 'multi_connection'), got 'ring'"),
    (dict(symmetric_doc(), n=2), "config: n=2 but alphas has 3 entries"),
    (dict(symmetric_doc(), k=3), "config: k=3 but macro_diversity gains give K=2"),
    (dict(pair_doc(), k=2), "config: k=2 but single_cell gains give K=1"),
    (dict(fixed_assignment_doc(), k=3), "config: k=3 but fixed_assignment gains give K=2"),
    (dict(symmetric_doc(), solver={"tol": 1e-9}), "config: unknown solver keys ['tol']"),
    (dict(symmetric_doc(), solver={"initial": [1.0, 1.0]}), "config: solver.initial needs one power per terminal"),
], ids=["md_assignment", "fa_d", "sc_mode", "fa_coordinates", "sc_no_gains", "md_no_sigma",
        "fa_no_assignment", "mc_no_d", "mc_no_alphas", "sc_bad_coordinates", "mc_bad_mode",
        "unknown_scenario", "n_mismatch", "md_k_mismatch", "sc_k_mismatch", "fa_k_mismatch",
        "unknown_solver_key", "initial_length"])
def test_loader_messages_name_the_key_alike_on_every_command(tmp_path, capsys, doc, message):
    path = write_config(tmp_path, doc)
    cloud = tmp_path / "cloud.csv"
    for argv in (["check", path], ["solve", path], ["region", path, "--resolution", "2", "--out", str(cloud)]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), argv
    assert not cloud.exists()


# Policy iteration needs two evaluations on this map, more than its max_iter of 1 allows.
TWO_EVALUATIONS = {"scenario": "macro_diversity", "alphas": [0.4, 0.2, 0.3], "gains": [[3, 1], [2, 3], [0.5, 1]],
                   "sigma": [1, 1], "coordinates": "original", "solver": {"max_iter": 1}}


@pytest.mark.parametrize("doc, flags, code, message", [
    (symmetric_doc(0.5), ["solve", "--init", "abc"], 1, "--init: expected numbers, got 'abc'"),
    (symmetric_doc(0.5), ["solve", "--init", "1,2"], 1, "--init: expected 1 or 3 values, got 2"),
    (symmetric_doc(0.5), ["region", "--resolution", "1"], 1, "RegionSpec: resolution must be >= 2"),
    (TWO_EVALUATIONS, ["solve", "--json"], 3, "solve: no convergence within 1 iterations"),
], ids=["init_not_numbers", "init_count", "region_resolution", "policy_max_iter"])
def test_command_option_messages(tmp_path, capsys, doc, flags, code, message):
    cloud = tmp_path / "cloud.csv"
    argv = [flags[0], write_config(tmp_path, doc), *flags[1:]]
    assert main(argv + (["--out", str(cloud)] if flags[0] == "region" else [])) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not cloud.exists()


DEEP_JSON = "[" * 200000 + "]" * 200000


def test_deeply_nested_config_exit_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config {path}: arrays or objects nested too deeply\n"


FUZZ_BASES = (pair_doc(), symmetric_doc(0.4), dict(symmetric_doc(0.4), coordinates="original"),
              fixed_assignment_doc(), multi_connection_doc(), multi_connection_doc("exact_noiseless"),
              floor_stall_doc())
FUZZ_KEYS = ("scenario", "n", "k", "alphas", "gains", "sigma", "assignment", "d", "mode",
             "coordinates", "solver")
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(), st.floats(0.0, 3.0),
    st.sampled_from(["", "12", "x"]),
    st.just([]), st.just({}), st.lists(st.floats(0.0, 2.0), max_size=3),
    st.just([[0.5], [0.5, 1.0]]), st.fixed_dictionaries({"max_iter": st.integers(-1, 3)}),
)


def one_terminal(doc):
    """``doc`` cut down to its first terminal."""
    doc = dict(doc, alphas=doc["alphas"][:1])
    if doc["scenario"] in ("single_cell", "macro_diversity"):
        doc["gains"] = doc["gains"][:1]
    else:
        doc["gains"] = [row[:1] for row in doc["gains"]]
    for key in ("assignment", "d"):
        if key in doc:
            doc[key] = doc[key][:1]
    return doc


@st.composite
def mutated_docs(draw):
    """A valid config with one to three fields, entries or rows replaced, dropped or cut short."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    if draw(st.booleans()):
        doc = one_terminal(doc)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(FUZZ_KEYS))
        value = doc.get(key)
        action = draw(st.sampled_from(["replace", "delete", "entry", "drop_entry", "row"]))
        if action == "delete":
            doc.pop(key, None)
        elif isinstance(value, list) and value and action != "replace":
            i = draw(st.integers(0, len(value) - 1))
            if action == "entry":
                value[i] = copy.deepcopy(draw(JUNK))
            elif action == "drop_entry":
                del value[i]
            elif isinstance(value[i], list) and value[i]:
                del value[i][-1]  # a ragged matrix
        else:
            doc[key] = copy.deepcopy(draw(JUNK))  # later draws may edit it in place
    return doc


@pytest.mark.parametrize("command", [["check"], ["solve"], ["solve", "--init", "1"],
                                     ["solve", "--force"], ["solve", "--trace", "TRACE"],
                                     ["solve", "--init", "1e308"],
                                     ["region", "--resolution", "2", "--out", "CLOUD"]],
                         ids=["check", "solve", "solve-init", "solve-force", "solve-trace",
                              "solve-init-huge", "region"])
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_docs())
def test_fuzzed_configs_end_in_an_exit_code_and_one_line(tmp_path_factory, command, doc):
    base = tmp_path_factory.getbasetemp()
    path = base / f"fuzz_{'_'.join(command)}.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity become JSON tokens json.load accepts
    trace = base / "fuzz_trace.csv"
    trace.unlink(missing_ok=True)
    outputs = {"TRACE": str(trace), "CLOUD": str(base / "fuzz_cloud.csv")}
    flags = [outputs.get(flag, flag) for flag in command[1:]]
    if command[0] != "region":  # region has no --json
        flags.insert(0, "--json")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([command[0], str(path), *flags])
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    if "--trace" in command and len(lines) == 2:
        # the one intended second line: a run that ends in exit 3 names the trace it kept
        assert code == 3 and lines.pop() == f"partial trace written to {trace}"
    assert len(lines) <= 1 and "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]


class TestSolve:
    def test_known_fixed_point_to_twelve_digits(self, tmp_path, capsys):
        code = main(["solve", write_config(tmp_path, pair_doc())])
        out = capsys.readouterr().out
        assert code == 0
        assert "p_1 = 0.477272727273" in out
        assert "p_2 = 0.590909090909" in out

    def test_infeasible_refused_without_force(self, tmp_path, capsys):
        code = main(["solve", write_config(tmp_path, symmetric_doc(1.2))])
        out = capsys.readouterr().out
        assert code == 2
        assert "refusing" in out

    def test_json_refusal_prints_checks_json_line(self, tmp_path, capsys):
        # the paper's test rejects this feasible single cell (lambda 2.1): solve refuses it
        path = write_config(tmp_path, {"scenario": "single_cell", "alphas": [2, 0.1, 0.1],
                                       "gains": [1, 1, 1], "sigma": 1})
        assert main(["check", path, "--json"]) == 2
        check_out = capsys.readouterr().out
        assert main(["solve", path, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == check_out and json.loads(captured.out)["modulus"] == 2.1
        assert captured.err == "refusing to iterate an uncertified system (use --force to override)\n"

    def test_forced_divergence_exit_three(self, tmp_path, capsys):
        doc = symmetric_doc(1.5)
        doc["solver"] = {"max_iter": 300}
        code = main(["solve", write_config(tmp_path, doc), "--force"])
        assert code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    def test_overflowing_forced_run_exits_three_without_warnings(self, tmp_path, trace):
        doc = {"scenario": "single_cell", "alphas": [5.0, 5.0, 5.0], "gains": [1.0, 1.0, 1.0],
               "sigma": 1.0}
        trace_path = tmp_path / "trace.csv"
        args = ["solve", write_config(tmp_path, doc), "--force"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(args + (["--trace", str(trace_path)] if trace else []))
        assert code == 3 and not caught, [str(w.message) for w in caught]
        lines = err.getvalue().splitlines()
        assert lines[0] == "error: solve: iterates left the finite range (diverging run)"
        assert lines[1:] == ([f"partial trace written to {trace_path}"] if trace else [])

    def test_nan_step_exits_three_with_row_zero_trace(self, tmp_path):
        # gains of 100 against --init 1e307: own terms overflow, so inf - inf gives NaN powers
        doc = {"scenario": "macro_diversity", "alphas": [0.3, 0.4], "sigma": [1.0, 1.0],
               "gains": [[1.0, 100.0], [100.0, 1.0]], "coordinates": "original"}
        trace_path = tmp_path / "trace.csv"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["solve", write_config(tmp_path, doc), "--init", "1e307",
                         "--trace", str(trace_path)])
        assert code == 3 and not caught, [str(w.message) for w in caught]
        assert err.getvalue().splitlines() == [
            "error: solve: iterates left the finite range (diverging run)",
            f"partial trace written to {trace_path}",
        ]
        assert trace_path.read_bytes() == b"iter,p_1,p_2,delta\r\n0,1e+307,1e+307,\r\n"

    def test_fixed_point_beyond_float_range_exits_one(self, tmp_path, capsys):
        # T(p) is not finite; with --init 1e308 math.fsum already overflows at the greedy start
        large = {"scenario": "single_cell", "alphas": [0.4, 0.4, 0.4], "gains": [1, 1, 1],
                 "sigma": 1e308, "coordinates": "original"}
        doc = {"scenario": "single_cell", "alphas": [0.9, 0.09], "gains": [1.0, 1.0], "sigma": 1e308}
        for doc, flags in ((doc, []), (large, ["--init", "1e308"])):
            assert main(["solve", write_config(tmp_path, doc), "--json", *flags]) == 1
            captured = capsys.readouterr()
            assert captured.err == "error: solve: the fixed point lies beyond the float64 range\n"

    def test_fixed_point_near_float_max_is_solved(self, tmp_path, capsys):
        # p = 1e308 / 0.7 is representable though c + w * t is not: each term is divided first
        doc = {"scenario": "single_cell", "alphas": [0.3, 0.3], "gains": [1.0, 1.0], "sigma": 1e308}
        for flags in ([], ["--trace", str(tmp_path / "trace.csv")]):
            assert main(["solve", write_config(tmp_path, doc), "--json", *flags]) == 0
            powers = json.loads(capsys.readouterr().out)["powers"]
            assert powers == [pytest.approx(1e308 / 0.7, rel=1e-15)] * 2

    def test_initial_point_invariance(self, tmp_path, capsys):
        path = write_config(tmp_path, pair_doc())
        main(["solve", path, "--init", "0", "--json"])
        low = json.loads(capsys.readouterr().out)["powers"]
        main(["solve", path, "--init", "100", "--json"])
        high = json.loads(capsys.readouterr().out)["powers"]
        assert max(abs(a - b) for a, b in zip(low, high)) <= 2e-12

    def test_trace_csv(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code = main([
            "solve", write_config(tmp_path, pair_doc()), "--trace", str(trace_path)
        ])
        assert code == 0
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "iter,p_1,p_2,delta"
        assert len(lines) > 2

    def test_bad_init_rejected(self, tmp_path):
        code = main(["solve", write_config(tmp_path, pair_doc()), "--init", "1,2,3"])
        assert code == 1

    @staticmethod
    def sweep_doc(lam):
        """Macro diversity, N=1000, K=16, gains U(0.1, 1) (seed 0), equal targets at modulus lam."""
        gains = np.random.default_rng(0).uniform(0.1, 1.0, size=(1000, 16))
        doc = {"scenario": "macro_diversity", "alphas": [1.0] * 1000,
               "gains": gains.tolist(), "sigma": [1.0] * 16}
        unit = cli.feasibility_formula(ScenarioConfig.from_dict(doc).scenario()).modulus
        return dict(doc, alphas=[lam / unit] * 1000)

    def test_policy_iteration_at_high_modulus(self, tmp_path, capsys):
        path = write_config(tmp_path, self.sweep_doc(0.99))
        start = time.perf_counter()
        code = main(["solve", path, "--json"])
        elapsed = time.perf_counter() - start
        assert code == 0 and elapsed < 1.0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] and out["certified"] and out["iterations"] < 20

    def test_unattainable_tolerance_exit_one(self, tmp_path, capsys):
        # at lambda = 0.999 the stop threshold 1e-13 lies below float64 resolution at p*
        path = write_config(tmp_path, self.sweep_doc(0.999))
        start = time.perf_counter()
        code = main(["solve", path, "--json"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1 and elapsed < 1.0
        assert captured.out == "" and "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "smallest attainable tolerance" in captured.err

    @pytest.mark.parametrize("flags", [["--trace", "TRACE"], ["--force"]], ids=["traced", "forced"])
    def test_picard_stall_at_the_float_floor_exits_one(self, tmp_path, capsys, flags):
        # the step sits at 8.88e-16 from about step 150, above the 1e-15 * (1 - 0.9) threshold
        trace = tmp_path / "trace.csv"
        flags = [str(trace) if flag == "TRACE" else flag for flag in flags]
        path = write_config(tmp_path, floor_stall_doc())
        start = time.perf_counter()
        code = main(["solve", path, "--json", *flags])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1 and elapsed < 1.0 and not trace.exists()
        assert captured.out == ""
        assert captured.err == (
            "error: solve: tolerance 1e-15 is below what float64 certifies here; the smallest "
            "attainable tolerance is 8.89e-15 (residual 8.88e-16 / (1 - lambda))\n")
        assert main(["solve", path, "--json"]) == 1  # policy iteration names the same floor
        assert capsys.readouterr().err == captured.err
        # equal targets: the step holds 6 steps at 1.78e-15, then lands on a fixed point
        path = write_config(tmp_path, floor_stall_doc((0.3,) * 4))
        assert main(["solve", path, "--json", *flags]) == 0
        assert json.loads(capsys.readouterr().out)["iterations"] == 327

    @pytest.mark.parametrize("flags", [["--force"], []], ids=["forced", "exact_noiseless"])
    def test_picard_runs_report_alike_with_and_without_trace(self, tmp_path, capsys, flags):
        doc = json.loads((REPO_CONFIGS / "multi_connection.json").read_text())
        if not flags:
            doc["mode"] = "exact_noiseless"
        path = write_config(tmp_path, doc)
        outputs = []
        for trace in ([], ["--trace", str(tmp_path / "trace.csv")]):
            assert main(["solve", path, "--json", *flags, *trace]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestRegion:
    def test_smoke_resolution_two(self, tmp_path, capsys):
        out_path = tmp_path / "cloud.csv"
        code = main([
            "region", write_config(tmp_path, symmetric_doc()),
            "--resolution", "2", "--out", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 9  # header + 2^3 points

    def test_asymmetric_compare_incomparable(self, tmp_path, capsys):
        out_path = tmp_path / "cloud.csv"
        code = main([
            "region", str(REPO_CONFIGS / "asymmetric_3x2.json"),
            "--resolution", "41", "--out", str(out_path), "--compare", "hanly",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "incomparable" in out
        assert "witness only in scenario region" in out
        assert "witness only in hanly(K=2)" in out

    def test_symmetric_compare_contains_baseline(self, tmp_path, capsys):
        out_path = tmp_path / "cloud.csv"
        code = main([
            "region", write_config(tmp_path, symmetric_doc()),
            "--resolution", "41", "--out", str(out_path), "--compare", "hanly",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "hanly(K=2) contained in scenario region" in out

    @pytest.mark.parametrize("name", sorted(path.name for path in REPO_CONFIGS.glob("*.json")))
    def test_compare_prints_the_relation_of_the_written_cloud(self, tmp_path, capsys, name):
        # recomputed from the CSV alone: the baseline is sum(alpha) < K on the cloud's points
        doc = json.loads((REPO_CONFIGS / name).read_text())
        gains = doc["gains"]  # K: one for a single cell, columns for macro diversity, else rows
        k = 1 if doc["scenario"] == "single_cell" else len(gains[0] if doc["scenario"] == "macro_diversity" else gains)
        cloud = tmp_path / "cloud.csv"
        assert main(["region", str(REPO_CONFIGS / name), "--resolution", "21", "--out", str(cloud),
                     "--compare", "hanly"]) == 0
        rows = np.loadtxt(cloud, delimiter=",", skiprows=1)
        alphas, scenario = rows[:, :-1], rows[:, -1] == 1.0
        baseline = alphas.sum(axis=1) < k
        only_scenario, only_baseline = scenario & ~baseline, baseline & ~scenario
        label = f"hanly(K={k})"
        relation = {(False, False): f"equal to {label}", (False, True): f"scenario region contained in {label}",
                    (True, False): f"{label} contained in scenario region",
                    (True, True): "incomparable"}[(bool(only_scenario.any()), bool(only_baseline.any()))]
        want = [f"wrote {len(rows)} points to {cloud}", f"relation vs {label}: {relation}"]
        for only, side in ((only_scenario, "scenario region"), (only_baseline, label)):
            if only.any():
                want.append(f"witness only in {side}: {tuple(alphas[np.flatnonzero(only)[0]].tolist())}")
        assert capsys.readouterr().out.splitlines() == want

    def test_one_grid_and_one_predicate_call_per_op(self, tmp_path, monkeypatch):
        calls = {"grid": 0, "evaluate_predicate": 0}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        count(capacity.RegionSpec, "grid")
        count(capacity, "evaluate_predicate")
        assert main(["region", str(REPO_CONFIGS / "asymmetric_3x2.json"), "--resolution", "5",
                     "--out", str(tmp_path / "cloud.csv"), "--inequalities", str(tmp_path / "ineq.csv"),
                     "--compare", "hanly"]) == 0
        assert calls == {"grid": 1, "evaluate_predicate": 1}

    def test_region_samples_the_configured_coordinates(self, tmp_path, capsys):
        # region asks check's question: the original-coordinate map refuses (0.9, 0.05, 0.05)
        doc = {"scenario": "single_cell", "alphas": [0.9, 0.05, 0.05], "gains": [1.0] * 3, "sigma": 1.0}
        for coordinates, flag, code in (("original", 0, 2), ("transformed", 1, 0)):
            path = write_config(tmp_path, dict(doc, coordinates=coordinates), f"{coordinates}.json")
            cloud = tmp_path / "cloud.csv"
            assert main(["region", path, "--alpha-max", "1", "--resolution", "21", "--out", str(cloud)]) == 0
            assert f"\r\n0.9,0.05,0.05,{flag}\r\n".encode() in cloud.read_bytes()
            assert main(["check", path]) == code  # modulus 1.8 in original coordinates, 0.95 transformed

    def test_fixed_assignment_region(self, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        code = main([
            "region", str(REPO_CONFIGS / "fixed_assignment_2cell.json"),
            "--alpha-max", "1", "--resolution", "5", "--out", str(cloud),
        ])
        assert code == 0
        assert b"\r\n0.5,0.25,1\r\n" in cloud.read_bytes()  # the config's own targets
        assert main(["check", str(REPO_CONFIGS / "fixed_assignment_2cell.json")]) == 0

    @pytest.mark.parametrize("alpha_max", ["inf", "nan", "0", "-1"])
    def test_alpha_max_must_be_finite_and_positive(self, tmp_path, capsys, alpha_max):
        cloud = tmp_path / "cloud.csv"
        code = main(["region", str(REPO_CONFIGS / "asymmetric_3x2.json"),
                     f"--alpha-max={alpha_max}", "--out", str(cloud)])
        assert code == 1 and not cloud.exists()
        value = float(alpha_max)
        assert capsys.readouterr().err == f"error: RegionSpec: alpha_max must be finite and > 0, got {value}\n"

    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch):
        def exhausted(spec, allow_large=False):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")
        monkeypatch.setattr(cli, "sample_region", exhausted)
        code = main(["region", str(REPO_CONFIGS / "asymmetric_3x2.json"),
                     "--resolution", "100000", "--out", str(tmp_path / "cloud.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 74.5 GiB for an array\n"

    def test_inequality_export(self, tmp_path):
        ineq_path = tmp_path / "ineq.csv"
        code = main([
            "region", write_config(tmp_path, symmetric_doc()),
            "--resolution", "2", "--out", str(tmp_path / "cloud.csv"),
            "--inequalities", str(ineq_path),
        ])
        assert code == 0
        lines = ineq_path.read_text().strip().splitlines()
        assert lines[0] == "coef_1,coef_2,coef_3,rhs,relation"
        assert len(lines) == 7  # 3 terminals x 2 receivers

    def test_exact_region_refuses_inequalities_before_writing(self, tmp_path, capsys):
        doc = dict(json.loads((REPO_CONFIGS / "multi_connection.json").read_text()), mode="exact_noiseless")
        cloud, ineq = tmp_path / "c.csv", tmp_path / "i.csv"
        assert main(["region", write_config(tmp_path, doc), "--resolution", "3",
                     "--out", str(cloud), "--inequalities", str(ineq)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: region_inequalities: the exact multi-connection region")
        assert not cloud.exists() and not ineq.exists()

    @pytest.mark.parametrize("alias", ["same.csv", "./same.csv"])
    def test_one_file_for_both_outputs_refused_before_writing(self, tmp_path, monkeypatch, capsys, alias):
        # the inequality rows would overwrite the cloud the command reports as written
        config = write_config(tmp_path, symmetric_doc())
        monkeypatch.chdir(tmp_path)
        assert main(["region", config, "--resolution", "3", "--out", "same.csv", "--inequalities", alias]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: region: --out same.csv and --inequalities {alias} name one file\n"
        assert not (tmp_path / "same.csv").exists()

    def test_dimension_guard(self, tmp_path, capsys):
        doc = {
            "scenario": "single_cell",
            "alphas": [0.1] * 5,
            "gains": [1.0] * 5,
            "sigma": 1.0,
        }
        path = write_config(tmp_path, doc)
        assert main(["region", path, "--resolution", "2",
                     "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "allow_large" in err and "--force-dim" in err
        assert main(["region", path, "--resolution", "2",
                     "--out", str(tmp_path / "c.csv"), "--force-dim"]) == 0
        doc.update(alphas=[0.1] * 4, gains=[1.0] * 4)
        assert main(["region", write_config(tmp_path, doc), "--resolution", "2",
                     "--out", str(tmp_path / "c.csv")]) == 0

    @pytest.mark.parametrize("doc", [
        dict(symmetric_doc(), gains=[[1.0, float("nan")], [1.0, 1.0], [1.0, 1.0]]),
        {
            "scenario": "multi_connection",
            "alphas": [0.3, 0.3],
            "gains": [[1.0, float("inf")], [0.5, 1.0]],
            "sigma": [1.0, 1.0],
            "d": [1, 1],
        },
    ], ids=["macro_diversity_nan", "multi_connection_infinity"])
    def test_non_finite_gains_rejected(self, tmp_path, capsys, doc):
        path = write_config(tmp_path, doc)
        assert main(["region", path, "--resolution", "2",
                     "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
        assert not (tmp_path / "c.csv").exists()
        assert main(["check", path]) == 1


@pytest.mark.parametrize("command", ["check --json", "solve", "region"])
def test_overflowing_multi_connection_coefficient_exits_one(tmp_path, capsys, command):
    # g / h * alpha = 1e300 / 1e-300 * 0.5 overflows: one line, no file, on every command
    path = write_config(tmp_path, {"scenario": "multi_connection", "alphas": [0.5, 0.5],
                                   "gains": [[1e300, 1e-300], [1e-300, 1.0]], "d": [2, 1], "sigma": [1, 1]})
    argv = command.split() + [path] + (["--out", str(tmp_path / "c.csv")] if command == "region" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: leave_one_out_map: a target times a gain exceeds the float64 range\n"
    assert not (tmp_path / "c.csv").exists()


def test_region_overflow_at_an_unselected_receiver_keeps_check_verdicts(tmp_path, capsys):
    # 1e10 / 1e-300 overflows at receiver 1, which the d = 1 smallest never selects: no warning
    doc = {"scenario": "multi_connection", "mode": "exact_noiseless", "alphas": [0.5, 0.5],
           "gains": [[1e-300, 1e10], [1, 1]], "d": [1, 1], "sigma": [1, 1]}
    cloud = tmp_path / "c.csv"
    assert main(["region", write_config(tmp_path, doc), "--alpha-max", "1", "--resolution", "3",
                 "--out", str(cloud)]) == 0
    verdicts = {tuple(map(float, row[:2])): row[2] for row in
                (line.split(",") for line in cloud.read_text().splitlines()[1:])}
    for point, verdict in verdicts.items():
        if min(point) > 0.0:
            code = main(["check", write_config(tmp_path, dict(doc, alphas=list(point)))])
            assert verdict == ("1" if code == 0 else "0"), point
    assert capsys.readouterr().err == ""


def two_by_two_norm_of_norms(tmp_path):
    """A norm-of-norms file of two inner functions of dimension 2."""
    path = tmp_path / "nn.json"
    path.write_text(json.dumps({"inner": [[1, 2], [0.5, 0.25]]}))
    return path


class TestAxioms:
    def test_holder_all_pass(self, capsys):
        code = main(["axioms", "--function", "holder:2", "--dim", "3", "--seed", "7"])
        assert code == 0
        assert "all axioms hold" in capsys.readouterr().out

    def test_squared_l1_fails_subadditivity_with_ones_witness(self, capsys):
        code = main(["axioms", "--function", "squared-l1", "--dim", "1", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 2
        assert "sub-additivity        FAIL" in out
        assert "witness (1.0), (1.0)" in out

    def test_weighted_all_pass(self, capsys):
        code = main([
            "axioms", "--function", "weighted:0.66667,0.33333,0.5", "--seed", "3"
        ])
        assert code == 0

    def test_norm_of_norms_from_file(self, tmp_path, capsys):
        spec_path = tmp_path / "non.json"
        spec_path.write_text(json.dumps({
            "inner": [[0.6, 0.4], [0.25, 0.75]],
            "outer": "inf",
        }))
        code = main(["axioms", "--function", f"norm-of-norms:{spec_path}", "--seed", "11"])
        assert code == 0

    @pytest.mark.parametrize("text, fault", [
        ("{}", "inner is required"),
        ('{"inner": 3}', "inner must be a non-empty list of non-empty rows of numbers"),
        ("[[0.5, 0.5]]", "top level must be an object"),
        ('{"inner": [[0.5, 0.5]], "outer": null}', 'outer must be a number or "inf", got null'),
        ('{"inner": [[0.5, 0.5]]', "line 1 column 23: Expecting ',' delimiter"),
    ], ids=["empty", "inner_not_rows", "top_level_list", "outer_null", "not_json"])
    def test_norm_of_norms_file_errors_name_the_file_and_the_fault(self, tmp_path, capsys, text, fault):
        spec_path = tmp_path / "non.json"
        spec_path.write_text(text)
        assert main(["axioms", "--function", f"norm-of-norms:{spec_path}"]) == 1
        assert capsys.readouterr().err == f"error: norm-of-norms file {spec_path}: {fault}\n"

    def test_deeply_nested_norm_of_norms_file_exit_one(self, tmp_path, capsys):
        spec_path = tmp_path / "deep.json"
        spec_path.write_text(DEEP_JSON)
        assert main(["axioms", "--function", f"norm-of-norms:{spec_path}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: norm-of-norms file {spec_path}: arrays or objects nested too deeply\n"

    @pytest.mark.parametrize("spec, fault", [
        ("weighted:x", "weight 'x'"),
        ("weighted:", "weight ''"),
        ("holder:abc", "p 'abc'"),
        ("holder:", "p ''"),
    ])
    def test_inline_spec_errors_name_the_spec_and_the_field(self, capsys, spec, fault):
        assert main(["axioms", "--function", spec, "--dim", "2"]) == 1
        assert capsys.readouterr().err == f"error: axioms: --function {spec!r}: {fault} is not a number\n"

    def test_unknown_spec(self):
        assert main(["axioms", "--function", "mystery", "--dim", "2"]) == 1

    @pytest.mark.parametrize("spec, dim, message", [
        ("holder:2", None, "--dim is required for holder norms"),
        ("squared-l1", None, "--dim is required for squared-l1"),
        ("weighted:1,2", "3", "--dim 3 does not match 2 weights"),
        ("norm-of-norms:{nn}", "3", "--dim 3 does not match inner dimension 2"),
    ], ids=["holder", "squared_l1", "weighted", "norm_of_norms"])
    def test_dim_errors_name_the_spec_kind(self, tmp_path, capsys, spec, dim, message):
        argv = ["axioms", "--function", spec.format(nn=two_by_two_norm_of_norms(tmp_path))] + (["--dim", dim] if dim else [])
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: axioms: {message}\n")

    @pytest.mark.parametrize("spec, dim, checked_dim", [
        ("holder:inf", "2", 2), ("squared-l1", "4", 4), ("weighted:1,2,3", None, 3),
        ("weighted:1,2,3", "3", 3), ("norm-of-norms:{nn}", None, 2),
    ], ids=["holder", "squared_l1", "weighted", "weighted_matching_dim", "norm_of_norms"])
    def test_header_names_the_spec_and_the_dimension_checked(self, tmp_path, capsys, spec, dim, checked_dim):
        spec = spec.format(nn=two_by_two_norm_of_norms(tmp_path))
        argv = ["axioms", "--function", spec, "--samples", "20", "--seed", "5"] + (["--dim", dim] if dim else [])
        assert main(argv) in (0, 2)
        header = capsys.readouterr().out.splitlines()[0]
        assert header == f"function: {spec} (dim {checked_dim}, samples 20, seed 5)"

    @pytest.mark.parametrize("flags, point", [
        (["--function", "weighted:1e308,1e308", "--samples", "50"], "(1.0, 1.0)"),
        (["--function", "holder:1e308", "--dim", "2"], "(100000000.0, 0.0)"),
    ], ids=["weighted", "holder"])
    def test_overflowing_candidate_exits_one_with_one_line(self, flags, point):
        # numpy's overflow warnings would reach stderr from a plain program run: run one
        result = subprocess.run([sys.executable, "-m", "powerfeas.cli", "axioms", *flags],
                                env=program_env(False), capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (
            1, "", f"error: candidate function returned inf on input {point}\n")

    @pytest.mark.parametrize("flags", [
        ["--dim", "1", "--samples", "0"],
        ["--dim", "1", "--samples", "-5"],
        ["--dim", "0"],
    ], ids=["samples_zero", "samples_negative", "dim_zero"])
    def test_empty_sampling_rejected(self, capsys, flags):
        assert main(["axioms", "--function", "squared-l1", *flags]) == 1
        captured = capsys.readouterr()
        assert "all axioms hold" not in captured.out
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_negative_seed_rejected_naming_it(self, capsys):
        assert main(["axioms", "--function", "holder:2", "--dim", "2", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: check_all: seed must be >= 0, got -1\n"

    def test_usage_error_exit_one(self, capsys):
        assert main(["axioms"]) == 1  # --function is required
        assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(path.name for path in REPO_CONFIGS.glob("*.json")))
def test_shipped_configs_check(name, capsys):
    code = main(["check", str(REPO_CONFIGS / name), "--json"])
    assert code in (0, 2)
    assert json.loads(capsys.readouterr().out)["feasible"] == (code == 0)


# Per shipped config: the output of check, check --json and solve --json
SHIPPED_OUTPUT = {
    "asymmetric_3x2.json": (
        "scenario: macro_diversity (N=3, K=2), transformed coordinates\n"
        "terminal  modulus\n"
        "       1  0.99\n"
        "       2  0.99\n"
        "       3  0.9899999999999999\n"
        "contraction modulus lambda = 0.99\n"
        "binding: terminal 1, receiver 2; leave-one-out weighted sum = 0.99 (must stay < 1)\n"
        "verdict: FEASIBLE\n",
        '{"per_terminal_modulus": [0.99, 0.99, 0.9899999999999999], "modulus": 0.99, "feasible": true, '
        '"binding": {"terminal": 1, "receiver": 2}}\n',
        '{"powers": [99.99999999999773, 99.99999999999773, 99.99999999999773], "iterations": 1, '
        '"converged": true, "certified": true}\n',
    ),
    "degenerate_3x3.json": (
        "scenario: macro_diversity (N=3, K=3), transformed coordinates\n"
        "terminal  modulus\n"
        "       1  0.5\n"
        "       2  0.5\n"
        "       3  0.9\n"
        "contraction modulus lambda = 0.9\n"
        "binding: terminal 3, receiver 1; leave-one-out weighted sum = 0.9 (must stay < 1)\n"
        "verdict: FEASIBLE\n",
        '{"per_terminal_modulus": [0.5, 0.5, 0.9], "modulus": 0.9, "feasible": true, '
        '"binding": {"terminal": 3, "receiver": 1}}\n',
        '{"powers": [2.0792079207920793, 2.0792079207920793, 2.8712871287128707], "iterations": 1, '
        '"converged": true, "certified": true}\n',
    ),
    "fixed_assignment_2cell.json": (
        "scenario: fixed_assignment (N=2, K=2)\n"
        "terminal  modulus\n"
        "       1  0.125\n"
        "       2  0.1\n"
        "contraction modulus lambda = 0.125\n"
        "binding: terminal 1; leave-one-out weighted sum = 0.125 (must stay < 1)\n"
        "verdict: FEASIBLE\n",
        '{"per_terminal_modulus": [0.125, 0.1], "modulus": 0.125, "feasible": true, '
        '"binding": {"terminal": 1, "receiver": null}}\n',
        '{"powers": [0.28481012658227844, 0.2784810126582279], "iterations": 1, '
        '"converged": true, "certified": true}\n',
    ),
    "multi_connection.json": (
        "scenario: multi_connection (N=3, K=2), bounded mode\n"
        "terminal  modulus\n"
        "       1  0.25\n"
        "       2  0.6333333333333333\n"
        "       3  0.5625\n"
        "contraction modulus lambda = 0.6333333333333333\n"
        "binding: terminal 2, receiver 1; leave-one-out weighted sum = 0.6333333333333333 (must stay < 1)\n"
        "verdict: FEASIBLE\n"
        "note: exact_noiseless condition gives modulus 0.6 (feasible); agrees with bounded\n",
        '{"per_terminal_modulus": [0.25, 0.6333333333333333, 0.5625], "modulus": 0.6333333333333333, '
        '"feasible": true, "binding": {"terminal": 2, "receiver": 1}}\n',
        '{"powers": [1.4854771784232366, 1.991701244813278, 1.8672199170124482], "iterations": 1, '
        '"converged": true, "certified": true}\n',
    ),
    "single_cell_pair.json": (
        "scenario: single_cell (N=2, K=1), original coordinates\n"
        "terminal  modulus\n"
        "       1  0.3\n"
        "       2  0.4\n"
        "contraction modulus lambda = 0.4\n"
        "binding: terminal 2; leave-one-out weighted sum = 0.4 (must stay < 1)\n"
        "verdict: FEASIBLE\n",
        '{"per_terminal_modulus": [0.3, 0.4], "modulus": 0.4, "feasible": true, '
        '"binding": {"terminal": 2, "receiver": null}}\n',
        '{"powers": [0.4772727272727273, 0.590909090909091], "iterations": 1, '
        '"converged": true, "certified": true}\n',
    ),
    "symmetric_3x2.json": (
        "scenario: macro_diversity (N=3, K=2), transformed coordinates\n"
        "terminal  modulus\n"
        "       1  0.99\n"
        "       2  0.99\n"
        "       3  0.99\n"
        "contraction modulus lambda = 0.99\n"
        "binding: terminal 1, receiver 1; leave-one-out weighted sum = 0.99 (must stay < 1)\n"
        "verdict: FEASIBLE\n",
        '{"per_terminal_modulus": [0.99, 0.99, 0.99], "modulus": 0.99, "feasible": true, '
        '"binding": {"terminal": 1, "receiver": 1}}\n',
        '{"powers": [100.00000000000007, 100.00000000000007, 100.00000000000007], "iterations": 1, '
        '"converged": true, "certified": true}\n',
    ),
}


@pytest.mark.parametrize("command", ["check", "check --json", "solve --json"])
@pytest.mark.parametrize("name", sorted(path.name for path in REPO_CONFIGS.glob("*.json")))
def test_shipped_configs_print_pinned_output(name, command, capsys):
    assert main([*command.split(), str(REPO_CONFIGS / name)]) == 0
    expected = SHIPPED_OUTPUT[name][["check", "check --json", "solve --json"].index(command)]
    assert capsys.readouterr() == (expected, "")


class TestFileErrors:
    @pytest.mark.parametrize("case", ["check", "solve_trace", "region_out", "region_inequalities"])
    def test_directory_as_file_exit_one(self, tmp_path, capsys, case):
        config = write_config(tmp_path, symmetric_doc())
        folder = str(tmp_path)
        cloud = str(tmp_path / "cloud.csv")
        rows = str(tmp_path / "rows.csv")
        argv = {
            "check": ["check", folder],
            "solve_trace": ["solve", config, "--trace", folder],
            "region_out": ["region", config, "--resolution", "2", "--out", folder,
                           "--inequalities", rows],
            "region_inequalities": ["region", config, "--resolution", "2", "--out", cloud,
                                    "--inequalities", folder],
        }[case]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        if case.startswith("region"):  # region writes both files or neither, and reports none
            assert captured.out == ""
            assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


    @pytest.mark.parametrize("command", ["check", "solve", "region", "axioms"])
    def test_undecodable_file_named_exit_one(self, tmp_path, capsys, command):
        # JSON is UTF-8 (RFC 8259, 8.1): bytes that are not name the file, whatever the locale
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        argv = {"check": ["check", str(path)], "solve": ["solve", str(path)],
                "region": ["region", str(path), "--out", str(tmp_path / "c.csv")],
                "axioms": ["axioms", "--function", f"norm-of-norms:{path}"]}[command]
        what = f"norm-of-norms file {path}" if command == "axioms" else f"config {path}"
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {what}: 'utf-8' codec can't decode byte 0xff in position 0: "
                                "invalid start byte\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


# Per exit code, a command whose config and output names are relative to the working directory
PROGRAM_CASES = {
    0: ["check", "feasible.json"],
    1: ["check", "bad.json", "--json"],
    2: ["check", "infeasible.json", "--json"],
    3: ["solve", "stuck.json", "--force", "--trace", "trace.csv"],
}


def program_dir(path):
    """A working directory holding the configs of :data:`PROGRAM_CASES`."""
    path.mkdir()
    write_config(path, symmetric_doc(), "feasible.json")
    write_config(path, symmetric_doc(1.5), "infeasible.json")
    write_config(path, dict(symmetric_doc(), scenario="polar"), "bad.json")
    write_config(path, dict(symmetric_doc(1.5), solver={"max_iter": 5}), "stuck.json")
    return path


def program_env(unbuffered: bool) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(REPO / "src")
    return env | {"PYTHONUNBUFFERED": "1"} if unbuffered else env


def contents(path) -> dict:
    return {p.name: p.read_bytes() for p in path.iterdir()}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stdout", ["file", "pipe"])
@pytest.mark.parametrize("code", sorted(PROGRAM_CASES))
def test_module_as_program_matches_main(tmp_path, monkeypatch, capsys, code, stdout, unbuffered):
    # python -m powerfeas.cli leaves by cli.run's os._exit: output, exit code and files as main()'s
    argv = PROGRAM_CASES[code]
    in_process, program = program_dir(tmp_path / "main"), program_dir(tmp_path / "program")
    monkeypatch.chdir(in_process)
    assert main(argv) == code
    expected = capsys.readouterr()
    with open(tmp_path / "stdout.txt", "w+b") as sink:
        result = subprocess.run([sys.executable, "-m", "powerfeas.cli", *argv], cwd=program,
                                env=program_env(unbuffered), stderr=subprocess.PIPE,
                                stdout=sink if stdout == "file" else subprocess.PIPE)
        sink.seek(0)
        out = sink.read() if stdout == "file" else result.stdout
    assert (result.returncode, out.decode(), result.stderr.decode()) == (code, expected.out, expected.err)
    assert contents(program) == contents(in_process)
    assert code != 3 or "trace.csv" in contents(program)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_module_as_program_with_stdout_closed_exits_as_sys_exit(tmp_path, unbuffered):
    # a stdout that cannot be flushed sends cli.run down sys.exit's path: the same code and stderr
    program = program_dir(tmp_path / "program")
    launchers = {"run": ["-m", "powerfeas.cli"],
                 "sys.exit": ["-c", "import sys; from powerfeas.cli import main; sys.exit(main())"]}
    results = {}
    for name, launcher in launchers.items():
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the child starts: every write to stdout fails
        try:
            result = subprocess.run([sys.executable, *launcher, *PROGRAM_CASES[0]], cwd=program,
                                    env=program_env(unbuffered), stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        results[name] = result.returncode, result.stderr.decode()
    assert results["run"] == results["sys.exit"]
    assert results["run"][0] != 0 and "Broken pipe" in results["run"][1]


def test_cli_import_loads_only_what_subcommands_run(tmp_path):
    # check, solve and region never load the rule family and its axiom
    # checks, and axioms loads no solver; check and untraced policy-iteration
    # solve do no array work: numpy stays unloaded through them, and loads
    # for Picard iteration; no subcommand, and no name of the package, loads
    # dataclasses
    configs = []
    for name, doc in [("sc_t", pair_doc() | {"coordinates": "transformed"}), ("sc_o", pair_doc()),
                      ("md_t", symmetric_doc()), ("md_o", symmetric_doc() | {"coordinates": "original"}),
                      ("fa", fixed_assignment_doc()), ("mc_b", multi_connection_doc()),
                      ("mc_e", multi_connection_doc("exact_noiseless"))]:
        configs.append(write_config(tmp_path, doc, f"{name}.json"))
    script = (
        "import sys, powerfeas.cli\n"
        "assert 'powerfeas.axioms' not in sys.modules and 'numpy' not in sys.modules\n"
        f"for path in {configs!r}:\n"
        "    for flags in (['--json'], []):\n"
        "        assert powerfeas.cli.main(['check', path, *flags]) == 0, path\n"
        "        assert 'numpy' not in sys.modules, path\n"
        "unused = ('powerfeas.maps', 'powerfeas.engine', 'powerfeas.capacity', 'powerfeas.axioms',"
        " 'dataclasses')\n"
        "loaded = [m for m in unused if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        f"for path in {configs[:-1]!r}:\n"
        "    for flags in ([], ['--json'], ['--init', '2'], ['--json', '--init', '2']):\n"
        "        assert powerfeas.cli.main(['solve', path, *flags]) == 0, (path, flags)\n"
        "        assert 'numpy' not in sys.modules, (path, flags)\n"
        "assert 'powerfeas.maps' in sys.modules\n"
        "unused = ('powerfeas.capacity', 'powerfeas.axioms', 'dataclasses', 'inspect')\n"
        "loaded = [m for m in unused if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        f"assert powerfeas.cli.main(['solve', {configs[0]!r}, '--trace', {str(tmp_path / 't.csv')!r}]) == 0\n"
        "assert 'numpy' in sys.modules and 'dataclasses' not in sys.modules\n"
        f"assert powerfeas.cli.main(['solve', {configs[-1]!r}, '--json']) == 0\n"
        f"assert powerfeas.cli.main(['region', {configs[2]!r}, '--resolution', '3', '--compare', 'hanly',"
        f" '--out', {str(tmp_path / 'c.csv')!r}, '--inequalities', {str(tmp_path / 'i.csv')!r}]) == 0\n"
        "loaded = [m for m in ('powerfeas.axioms', 'dataclasses') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "import powerfeas\n"
        "missing = [n for n in powerfeas.__all__ if getattr(powerfeas, n, None) is None]\n"
        "assert not missing, missing\n"
        "assert 'dataclasses' not in sys.modules\n"
        "assert {'check_all', 'WeightedAbsSum', 'solve'} <= set(dir(powerfeas))\n"
    )
    axioms_script = (  # a fresh process: the script above has loaded every module
        "import sys, powerfeas.cli\n"
        "for spec in ('holder:2', 'holder:inf', 'weighted:1,2,3', 'squared-l1'):\n"
        "    assert powerfeas.cli.main(['axioms', '--function', spec, '--dim', '3', '--samples', '20'])"
        " == (2 if spec == 'squared-l1' else 0), spec\n"
        "assert 'powerfeas.axioms' in sys.modules\n"
        "loaded = [m for m in ('powerfeas.engine', 'powerfeas.maps', 'powerfeas.capacity', 'dataclasses')"
        " if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    for code in (script, axioms_script):
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
        assert result.returncode == 0, result.stderr
    import powerfeas

    assert sorted(powerfeas.__all__) == [  # a new public name is added here on purpose
        "AxiomReport", "CheckVerdict", "Counterexample", "EvaluationError", "FeasibilityReport",
        "FixedAssignment", "HolderNorm", "InfeasibleSystemError", "InvalidInputError", "LeaveOneOutMap",
        "MacroDiversity", "MultiConnection", "NonConvergenceError", "NormOfNorms", "PowerVector",
        "RegionCloud", "RegionComparison", "RegionSpec", "SingleCell", "SolveConfig", "SolveRun",
        "WeightedAbsSum", "check_all", "check_extended_subhom", "check_max_monotone", "check_nonneg",
        "check_reverse_triangle", "check_subadd", "check_subhom_at_one", "compare_regions",
        "contraction_modulus", "evaluate_predicate", "export_cloud", "export_inequalities",
        "feasibility_formula", "hanly", "leave_one_out_map", "region_inequalities", "sample_region",
        "solve", "write_trace_csv",
    ]


KERNELS = {"_point_sums", "_loo_sums", "_loo", "_sums", "_reduce", "_certify", "_coefficients"}


def imported(tree):
    """(module as written, names) of every import statement in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or ""), {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            yield from ((alias.name, set()) for alias in node.names)


def test_reference_stays_independent_of_the_production_kernels():
    # the test-side rule objects are an independent cross-check only while they read no kernel
    tree = ast.parse((REPO / "tests" / "reference.py").read_text())
    for module, names in imported(tree):
        assert not names & KERNELS and not {"engine", "maps"} & set(module.split(".")), (module, names)
    assert not {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} & KERNELS
    package = REPO / "src" / "powerfeas"
    for path in package.glob("*.py"):
        for module, names in imported(ast.parse(path.read_text())):
            assert module.split(".")[0] != "dataclasses", path.name  # one value-type idiom: core._Frozen
    # the solver module holds only what solve runs: no rule objects
    for module, names in imported(ast.parse((package / "engine.py").read_text())):
        assert "axioms" not in set(module.split(".")) | names, (module, names)


def test_every_name_the_benchmark_wraps_is_in_cli():
    # bench/spans.py times each layer by rebinding these names in place
    for owner_path, attr, _ in runpy.run_path(str(REPO / "bench" / "spans.py"))["WRAPPED"]:
        head, *rest = owner_path.split(".")
        owner = {"cli": cli, "capacity": capacity}[head]
        for part in rest:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, (owner_path, attr)
