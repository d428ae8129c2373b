"""The benchmark's checkers must count corrupted CLI output as failed ops.

Run with ``python -m pytest bench/tests`` from the repository root. Valid
outputs come from the real CLI, run in-process on small seeded configs;
each test then corrupts one thing and expects the checker to object.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import deck  # noqa: E402
from powerfeas import cli  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_config(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def admit_case(tmp_path):
    rng = np.random.default_rng(5)
    doc = deck.at_modulus(deck.scenario_doc(rng, "macro_diversity", "transformed", 20, 3), 0.95)
    code, stdout, stderr = run_cli(["check", write_config(tmp_path, doc), "--json"])
    return doc, code, stdout, stderr


def test_admit_output_passes(admit_case):
    assert check.check_admit(*admit_case) == []


def test_admit_flipped_verdict_fails(admit_case):
    doc, code, stdout, stderr = admit_case
    out = json.loads(stdout)
    out["feasible"] = not out["feasible"]
    assert check.check_admit(doc, code, json.dumps(out), stderr)
    assert check.check_admit(doc, 2, stdout, stderr)


def test_admit_perturbed_modulus_fails(admit_case):
    doc, code, stdout, stderr = admit_case
    out = json.loads(stdout)
    out["per_terminal_modulus"][3] *= 1 + 1e-6
    assert check.check_admit(doc, code, json.dumps(out), stderr)


def test_traceback_fails(admit_case):
    doc, code, stdout, _ = admit_case
    assert check.check_admit(doc, code, stdout, "Traceback (most recent call last):\n")


def test_boundary_is_infeasible():
    reproducer = deck.boundary_deck(0)[0].doc
    feasible = json.dumps({"feasible": True})
    infeasible = json.dumps({"feasible": False})
    assert check.check_boundary(reproducer, 0, feasible)
    assert check.check_boundary(reproducer, 2, infeasible) == []


@pytest.mark.parametrize("seed", range(3))
def test_boundary_configs_sit_exactly_on_the_boundary(seed):
    for op in deck.boundary_deck(seed):
        assert max(check.moduli_exact(op.doc)) == 1


@pytest.fixture
def solve_case(tmp_path):
    rng = np.random.default_rng(6)
    doc = deck.at_modulus(deck.scenario_doc(rng, "single_cell", "transformed", 20, 1), 0.9)
    trace = tmp_path / "trace.csv"
    code, stdout, stderr = run_cli(
        ["solve", write_config(tmp_path, doc), "--json", "--trace", str(trace)])
    return doc, code, stdout, stderr, trace


def test_solve_output_passes(solve_case):
    doc, code, stdout, stderr, trace = solve_case
    assert check.check_solve(doc, code, stdout, stderr, trace) == []


def test_solve_perturbed_power_fails(solve_case):
    doc, code, stdout, stderr, _ = solve_case
    out = json.loads(stdout)
    out["powers"][0] *= 1 + 1e-6
    assert check.check_solve(doc, code, json.dumps(out), stderr)


def test_solve_dropped_trace_row_fails(solve_case):
    doc, code, stdout, stderr, trace = solve_case
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(lines[:-1]))
    assert check.check_solve(doc, code, stdout, stderr, trace)


def test_solve_wrong_last_trace_row_fails(solve_case):
    doc, code, stdout, stderr, trace = solve_case
    lines = trace.read_text().splitlines(keepends=True)
    lines[-1] = lines[-1].replace(",", ",9", 1)
    trace.write_text("".join(lines))
    assert check.check_solve(doc, code, stdout, stderr, trace)


@pytest.fixture
def region_case(tmp_path):
    op = deck.region_deck(7)[0]
    op.flags[op.flags.index("--resolution") + 1] = "6"
    op.resolution = 6
    cloud, ineq = tmp_path / "cloud.csv", tmp_path / "ineq.csv"
    code, stdout, stderr = run_cli(["region", write_config(tmp_path, op.doc), *op.flags,
                                    "--out", str(cloud), "--inequalities", str(ineq)])
    return op, code, stdout, stderr, cloud, ineq


def region_errors(case, stdout=None) -> list[str]:
    op, code, out, stderr, cloud, ineq = case
    return check.check_region(op.doc, op.resolution, op.alpha_max, code,
                              out if stdout is None else stdout, stderr, cloud, ineq, seed=1)


def test_region_output_passes(region_case):
    assert region_errors(region_case) == []


def test_region_dropped_row_fails(region_case):
    cloud = region_case[4]
    lines = cloud.read_text().splitlines(keepends=True)
    cloud.write_text("".join(lines[:-1]))
    assert region_errors(region_case)


def test_region_flipped_flag_fails(region_case):
    cloud = region_case[4]
    lines = cloud.read_text().splitlines(keepends=True)
    row = int(check._region_sample(len(lines) - 1, 1)[0]) + 1
    flag = lines[row].rstrip()[-1]
    lines[row] = lines[row].rstrip()[:-1] + ("0" if flag == "1" else "1") + "\r\n"
    cloud.write_text("".join(lines))
    assert region_errors(region_case)


def test_region_wrong_relation_fails(region_case):
    stdout = region_case[2]
    line = next(l for l in stdout.splitlines() if l.startswith("relation vs"))
    assert region_errors(region_case, stdout.replace(line, line + " (wrong)"))


def test_benchmark_json_names_match_the_runner():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(deck.WORKLOADS)
