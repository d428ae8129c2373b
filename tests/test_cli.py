import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from powerfeas.cli import ScenarioConfig, load_config, main, save_config

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

    def test_forced_divergence_exit_three(self, tmp_path, capsys):
        doc = symmetric_doc(1.5)
        doc["solver"] = {"max_iter": 300}
        code = main(["solve", write_config(tmp_path, doc), "--force"])
        assert code == 3
        assert "error" in capsys.readouterr().err

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
        unit = ScenarioConfig.from_dict(doc).formula().modulus
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

    def test_fixed_assignment_has_no_region(self, tmp_path, capsys):
        code = main([
            "region", str(REPO_CONFIGS / "fixed_assignment_2cell.json"),
            "--out", str(tmp_path / "cloud.csv"),
        ])
        assert code == 1

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

    def test_unknown_spec(self):
        assert main(["axioms", "--function", "mystery", "--dim", "2"]) == 1

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

    def test_usage_error_exit_one(self, capsys):
        assert main(["axioms"]) == 1  # --function is required
        assert "usage error" in capsys.readouterr().err


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", [
        "single_cell_pair.json",
        "symmetric_3x2.json",
        "asymmetric_3x2.json",
        "degenerate_3x3.json",
        "fixed_assignment_2cell.json",
        "multi_connection.json",
    ])
    def test_shipped_configs_roundtrip(self, name, tmp_path):
        config = load_config(REPO_CONFIGS / name)
        path = tmp_path / "copy.json"
        save_config(config, path)
        again = load_config(path)
        assert again == config
        assert again.to_dict() == config.to_dict()

    def test_roundtrip_preserves_scenario(self, tmp_path):
        config = load_config(REPO_CONFIGS / "multi_connection.json")
        path = tmp_path / "copy.json"
        save_config(config, path)
        assert load_config(path).scenario() == config.scenario()


class TestFileErrors:
    @pytest.mark.parametrize("case", ["check", "solve_trace", "region_out", "region_inequalities"])
    def test_directory_as_file_exit_one(self, tmp_path, capsys, case):
        config = write_config(tmp_path, symmetric_doc())
        folder = str(tmp_path)
        cloud = str(tmp_path / "cloud.csv")
        argv = {
            "check": ["check", folder],
            "solve_trace": ["solve", config, "--trace", folder],
            "region_out": ["region", config, "--resolution", "2", "--out", folder],
            "region_inequalities": ["region", config, "--resolution", "2", "--out", cloud,
                                    "--inequalities", folder],
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_cli_import_loads_only_what_subcommands_run():
    # check, solve and region never call the axiom checker or the rule objects
    script = (
        "import sys, powerfeas.cli\n"
        "loaded = sorted(m for m in ('powerfeas.axioms', 'powerfeas.rules') if m in sys.modules)\n"
        "assert not loaded, loaded\n"
        "import powerfeas\n"
        "missing = [n for n in powerfeas.__all__ if getattr(powerfeas, n, None) is None]\n"
        "assert not missing, missing\n"
        "assert {'check_all', 'WeightedAbsSum', 'solve'} <= set(dir(powerfeas))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert result.returncode == 0, result.stderr
