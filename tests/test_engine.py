import csv
import math

import numpy as np
import pytest

from powerfeas.core import (
    AdjustmentRule,
    InfeasibleSystemError,
    InvalidFunctionError,
    InvalidInputError,
    IterationTrace,
    NoiseVector,
    NonConvergenceError,
    PowerVector,
    QosVector,
    GainMatrix,
    sup_norm,
)
from powerfeas.engine import (
    SolveConfig,
    System,
    affine_parts,
    contraction_modulus,
    linear_oracle,
    rate_check,
    solve,
    write_trace_csv,
)
from powerfeas.rules import WeightedAbsSum
from powerfeas.scenarios import (
    MacroDiversity,
    SingleCell,
    build_macro_diversity_transformed,
    build_single_cell_received,
    build_single_cell_transformed,
)

# Exact fixed point of P1 = 0.3*(P2 + 1), P2 = 0.4*(P1 + 1) by elimination:
# P1 = 0.12*P1 + 0.42  =>  P1 = 0.42/0.88 = 21/44, P2 = 0.4*(21/44) + 0.4 = 26/44
P_STAR = (21.0 / 44.0, 26.0 / 44.0)

PAIR_CELL = SingleCell(alphas=QosVector((0.3, 0.4)), gains=(1.0, 1.0), sigma=1.0)


def symmetric_3x2(alpha):
    return MacroDiversity(
        alphas=QosVector((alpha,) * 3),
        gains=GainMatrix(((1.0, 1.0),) * 3),
        noise=NoiseVector((1.0, 1.0)),
    )


def constant_system(offsets):
    n = len(offsets)
    rules = tuple(
        AdjustmentRule(f=WeightedAbsSum((0.0,) * (n - 1)), offset=c, terminal_index=i)
        for i, c in enumerate(offsets)
    )
    return System(rules)


class TestContractionModulus:
    def test_single_cell_transformed(self):
        report = contraction_modulus(build_single_cell_transformed(PAIR_CELL))
        assert report.per_terminal_modulus == pytest.approx((0.4, 0.3), abs=1e-15)
        assert report.modulus == pytest.approx(0.4, abs=1e-15)
        assert report.feasible
        assert report.binding[0] == 0

    def test_symmetric_macro_diversity_feasible_at_099(self):
        report = contraction_modulus(build_macro_diversity_transformed(symmetric_3x2(0.99)))
        assert report.per_terminal_modulus == pytest.approx((0.99,) * 3, abs=1e-15)
        assert report.feasible

    def test_boundary_is_strictly_infeasible(self):
        report = contraction_modulus(build_macro_diversity_transformed(symmetric_3x2(1.0)))
        assert report.modulus == pytest.approx(1.0, abs=1e-15)
        assert not report.feasible

    def test_non_finite_rule_rejected(self):
        bad = AdjustmentRule(f=lambda x: math.inf, offset=0.0, terminal_index=0)
        ok = AdjustmentRule(f=WeightedAbsSum((0.5,)), offset=0.0, terminal_index=1)
        with pytest.raises(InvalidFunctionError):
            contraction_modulus(System((bad, ok)))


class TestSolve:
    def test_pair_cell_matches_elimination(self):
        system = build_single_cell_received(PAIR_CELL)
        fixed_point, trace = solve(system, SolveConfig(tolerance=1e-12))
        assert fixed_point.as_array() == pytest.approx(P_STAR, abs=1e-9)
        assert trace.converged and trace.certified

    def test_constant_map_fixed_point_is_offset(self):
        system = constant_system((0.3, 0.7, 0.1))
        fixed_point, trace = solve(system)
        assert fixed_point.p == pytest.approx((0.3, 0.7, 0.1), abs=1e-15)
        # first application already lands on the fixed point
        assert trace.iterates[1] == pytest.approx((0.3, 0.7, 0.1), abs=1e-15)

    def test_initial_point_does_not_matter(self):
        system = build_single_cell_received(PAIR_CELL)
        cfg = SolveConfig(tolerance=1e-10)
        from_zero, _ = solve(system, cfg)
        from_high, _ = solve(
            system, SolveConfig(tolerance=1e-10, initial=PowerVector.full(2, 100.0))
        )
        assert sup_norm(from_zero.as_array() - from_high.as_array()) <= 2 * cfg.tolerance

    def test_residual_within_tolerance(self):
        system = build_macro_diversity_transformed(symmetric_3x2(0.9))
        cfg = SolveConfig(tolerance=1e-10)
        fixed_point, _ = solve(system, cfg)
        x = fixed_point.as_array()
        assert sup_norm(system.step(x) - x) <= cfg.tolerance

    def test_infeasible_refused_without_force(self):
        system = build_macro_diversity_transformed(symmetric_3x2(1.2))
        with pytest.raises(InfeasibleSystemError) as excinfo:
            solve(system)
        assert excinfo.value.report is not None

    def test_forced_divergence_reports_with_trace(self):
        system = build_macro_diversity_transformed(symmetric_3x2(1.5))
        with pytest.raises(NonConvergenceError) as excinfo:
            solve(system, SolveConfig(max_iter=500), force=True)
        trace = excinfo.value.trace
        assert trace is not None and not trace.converged and not trace.certified

    def test_forced_boundary_stalls(self):
        # modulus exactly 1: steps never shrink below tolerance
        system = build_macro_diversity_transformed(symmetric_3x2(1.0))
        with pytest.raises(NonConvergenceError):
            solve(system, SolveConfig(max_iter=200), force=True)

    def test_forced_run_may_converge_but_stays_uncertified(self):
        # the sup-norm certificate fails in received coordinates here, yet the
        # underlying linear iteration still settles; the trace must say so
        sc = SingleCell(alphas=QosVector((0.6, 0.3, 0.2)), gains=(1.0,) * 3, sigma=1.0)
        received = build_single_cell_received(sc)
        assert not contraction_modulus(received).feasible
        fixed_point, trace = solve(received, force=True)
        assert trace.converged and not trace.certified
        x = fixed_point.as_array()
        assert sup_norm(received.step(x) - x) <= 10 * trace.tolerance

    def test_initial_dimension_checked(self):
        system = build_single_cell_received(PAIR_CELL)
        with pytest.raises(InvalidInputError):
            solve(system, SolveConfig(initial=PowerVector.zeros(3)))


class TestLinearOracle:
    def test_matches_known_solution(self):
        result = linear_oracle([[0.0, 0.3], [0.4, 0.0]], [0.3, 0.4])
        assert result.as_array() == pytest.approx(P_STAR, abs=1e-14)

    def test_zero_matrix_returns_offsets(self):
        result = linear_oracle(np.zeros((3, 3)), [1.0, 2.0, 3.0])
        assert result.p == (1.0, 2.0, 3.0)

    def test_high_modulus_cross_check_with_iteration(self):
        n = 4
        rng = np.random.default_rng(17)
        A = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(A, 0.0)
        A *= 0.99 / A.sum(axis=1, keepdims=True)  # row sums exactly 0.99
        c = np.ones(n)
        direct = linear_oracle(A, c).as_array()
        assert np.all(direct > 0.0)
        rules = tuple(
            AdjustmentRule(
                f=WeightedAbsSum(tuple(A[i, j] for j in range(n) if j != i)),
                offset=1.0,
                terminal_index=i,
            )
            for i in range(n)
        )
        iterated, _ = solve(System(rules), SolveConfig(tolerance=1e-12))
        assert sup_norm(iterated.as_array() - direct) <= 1e-9

    def test_singular_rejected(self):
        with pytest.raises(InfeasibleSystemError):
            linear_oracle([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            linear_oracle([[0.1, 0.2], [0.3, 0.0]], [1.0, 1.0])  # nonzero diagonal
        with pytest.raises(InvalidInputError):
            linear_oracle([[0.0, -0.2], [0.3, 0.0]], [1.0, 1.0])  # negative entry


class TestRateCheck:
    def test_single_cell_ratios_below_modulus(self):
        system = build_single_cell_transformed(PAIR_CELL)
        report = contraction_modulus(system)
        _, trace = solve(system, SolveConfig(tolerance=1e-12))
        assert rate_check(trace, report.modulus)

    def test_constant_map_second_delta_zero(self):
        system = constant_system((0.5, 0.2))
        _, trace = solve(system)
        assert all(d == 0.0 for d in trace.deltas[1:])
        assert rate_check(trace, 0.0)

    def test_slow_contraction_keeps_geometric_envelope(self):
        system = build_macro_diversity_transformed(symmetric_3x2(0.99))
        report = contraction_modulus(system)
        _, trace = solve(system, SolveConfig(tolerance=1e-8))
        assert trace.iterations_used > 500  # slow but certified
        assert rate_check(trace, report.modulus)

    def test_violation_detected(self):
        trace = type("T", (), {"deltas": (1.0, 0.9, 0.95)})()
        assert not rate_check(trace, 0.5)


class TestContractionInequality:
    def test_update_shrinks_distances_by_modulus(self):
        system = build_macro_diversity_transformed(symmetric_3x2(0.8))
        lam = contraction_modulus(system).modulus
        rng = np.random.default_rng(23)
        for _ in range(200):
            x = rng.uniform(-10.0, 10.0, size=3)
            y = rng.uniform(-10.0, 10.0, size=3)
            lhs = sup_norm(system.step(x) - system.step(y))
            rhs = lam * sup_norm(x - y)
            assert lhs <= rhs + 1e-12 * (1.0 + rhs)


class TestAffineParts:
    def test_roundtrip_against_step(self):
        system = build_single_cell_received(PAIR_CELL)
        A, c = affine_parts(system)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(0.0, 5.0, size=2)
            assert np.allclose(system.step(x), A @ x + c)

    def test_rejects_non_affine_rules(self):
        system = build_macro_diversity_transformed(symmetric_3x2(0.5))
        with pytest.raises(InvalidInputError):
            affine_parts(system)


class TestTraceCsv:
    def test_columns_and_rows(self, tmp_path):
        system = build_single_cell_received(PAIR_CELL)
        _, trace = solve(system, SolveConfig(tolerance=1e-10))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,p_1,p_2,delta"
        assert len(lines) == len(trace.iterates) + 1
        first = lines[1].split(",")
        assert first[0] == "0" and first[-1] == ""

    @pytest.mark.parametrize("which", ["converged", "partial", "signed_zero"])
    def test_bytes_equal_csv_writer_with_repr(self, tmp_path, which):
        if which == "signed_zero":  # one column holding 0.0 and -0.0
            trace = IterationTrace(iterates=[[0.0, 1.0], [-0.0, 1.0], [0.0, 5e-324]],
                                   deltas=(0.0, 5e-324), converged=False, tolerance=1e-10)
        elif which == "converged":
            _, trace = solve(build_macro_diversity_transformed(symmetric_3x2(0.9)),
                             SolveConfig(initial=PowerVector((0.0, -0.0, 3.5))))
        else:
            with pytest.raises(NonConvergenceError) as excinfo:
                solve(build_macro_diversity_transformed(symmetric_3x2(1.5)),
                      SolveConfig(max_iter=40), force=True)
            trace = excinfo.value.trace
        path, reference = tmp_path / "trace.csv", tmp_path / "reference.csv"
        write_trace_csv(trace, path)
        n = trace.iterates.shape[1]
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter"] + [f"p_{i + 1}" for i in range(n)] + ["delta"])
            for t, row in enumerate(trace.iterates):
                delta = "" if t == 0 else repr(trace.deltas[t - 1])
                writer.writerow([t] + [repr(float(v)) for v in row] + [delta])
        assert path.read_bytes() == reference.read_bytes()


class TestTraceArray:
    def test_iterates_are_one_read_only_float_array(self):
        system = build_macro_diversity_transformed(symmetric_3x2(0.9))
        fixed_point, trace = solve(system)
        assert isinstance(trace.iterates, np.ndarray)
        assert trace.iterates.dtype == np.float64
        assert trace.iterates.shape == (trace.iterations_used + 1, 3)
        assert trace.iterations_used == len(trace.deltas)
        assert not trace.iterates.flags.writeable
        with pytest.raises(ValueError):
            trace.iterates[0, 0] = 1.0
        assert trace.final == fixed_point
        assert fixed_point.p == tuple(trace.iterates[-1].tolist())

    def test_negative_rule_output_rejected(self):
        ok = AdjustmentRule(f=WeightedAbsSum((0.5,)), offset=1.0, terminal_index=0)
        negative = AdjustmentRule(f=lambda x: 0.5 - float(x[0]), offset=0.0, terminal_index=1)
        with pytest.raises(InvalidInputError, match="terminal 2"):
            solve(System((ok, negative)))


class TestSystemValidation:
    def test_rule_order_enforced(self):
        r0 = AdjustmentRule(f=WeightedAbsSum((0.1,)), offset=0.0, terminal_index=1)
        r1 = AdjustmentRule(f=WeightedAbsSum((0.1,)), offset=0.0, terminal_index=0)
        with pytest.raises(InvalidInputError):
            System((r0, r1))

    def test_rule_dimension_enforced(self):
        r0 = AdjustmentRule(f=WeightedAbsSum((0.1, 0.2)), offset=0.0, terminal_index=0)
        r1 = AdjustmentRule(f=WeightedAbsSum((0.1, 0.2)), offset=0.0, terminal_index=1)
        with pytest.raises(InvalidInputError):
            System((r0, r1))
