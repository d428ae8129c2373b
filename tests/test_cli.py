import json
from pathlib import Path

import pytest

from powerfeas.cli import load_config, main, save_config

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    @pytest.mark.parametrize("key", ["n", "k", "max_iter"])
    def test_overflowing_integer_exit_one(self, tmp_path, capsys, key):
        doc = symmetric_doc()
        if key == "max_iter":
            doc["solver"] = {"max_iter": 1e400}
        else:
            doc[key] = 1e400
        code = main(["check", write_config(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

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
