import csv
import errno
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from powerfeas.core import (
    FeasibilityReport,
    InfeasibleSystemError,
    InvalidInputError,
    NonConvergenceError,
    PowerVector,
)
from powerfeas import engine
from powerfeas.axioms import WeightedAbsSum
from powerfeas.engine import (
    _FORK_CELLS,
    SolveConfig,
    SolveRun,
    contraction_modulus,
    solve,
    write_trace_csv,
)
from powerfeas.maps import leave_one_out_map
from powerfeas.scenarios import MacroDiversity, SingleCell
from reference import (
    InvalidFunctionError,
    System,
    affine_parts,
    build_macro_diversity_transformed,
    build_single_cell_received,
    build_single_cell_transformed,
    linear_oracle,
    rate_check,
    sup_norm,
)

# Exact fixed point of P1 = 0.3*(P2 + 1), P2 = 0.4*(P1 + 1) by elimination:
# P1 = 0.12*P1 + 0.42  =>  P1 = 0.42/0.88 = 21/44, P2 = 0.4*(21/44) + 0.4 = 26/44
P_STAR = (21.0 / 44.0, 26.0 / 44.0)

PAIR_CELL = SingleCell(alphas=(0.3, 0.4), gains=(1.0, 1.0), sigma=1.0)


def symmetric_3x2(alpha):
    return MacroDiversity(
        alphas=(alpha,) * 3,
        gains=((1.0, 1.0),) * 3,
        noise=(1.0, 1.0),
    )


def constant_system(offsets):
    return System((WeightedAbsSum((0.0,) * (len(offsets) - 1)), c) for c in offsets)


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
        bad, ok = (lambda x: math.inf, 0.0), (WeightedAbsSum((0.5,)), 0.0)
        with pytest.raises(InvalidFunctionError, match="rule for terminal 1 is inf"):
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
        sc = SingleCell(alphas=(0.6, 0.3, 0.2), gains=(1.0,) * 3, sigma=1.0)
        received = build_single_cell_received(sc)
        assert not contraction_modulus(received).feasible
        fixed_point, trace = solve(received, force=True)
        assert trace.converged and not trace.certified
        x = fixed_point.as_array()
        assert sup_norm(received.step(x) - x) <= 10 * trace.tolerance

    def test_initial_dimension_checked(self):
        system = build_single_cell_received(PAIR_CELL)
        with pytest.raises(InvalidInputError):
            solve(system, SolveConfig(initial=PowerVector((0.0,) * 3)))


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
        rules = ((WeightedAbsSum(tuple(A[i, j] for j in range(n) if j != i)), 1.0) for i in range(n))
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


def _csv_writer_bytes(trace, path) -> bytes:
    """The trace as ``csv.writer`` writes it, each value its ``repr``: the reference bytes."""
    n = trace.iterates.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter"] + [f"p_{i + 1}" for i in range(n)] + ["delta"])
        for t, row in enumerate(trace.iterates):
            delta = "" if t == 0 else repr(trace.deltas[t - 1])
            writer.writerow([t] + [repr(float(v)) for v in row] + [delta])
    return path.read_bytes()


def _written_bytes(trace, path) -> bytes:
    """``write_trace_csv``'s bytes; it leaves no child process and no open descriptor behind."""
    fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    write_trace_csv(trace, path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert fds is None or sorted(os.listdir("/proc/self/fd")) == fds
    return path.read_bytes()


def _random_run(rows, n, seed=0):
    rng = np.random.default_rng(seed)
    return SolveRun(tuple(rng.uniform(0.0, 1.0, rows - 1).tolist()), False, 1e-10, True, "picard",
                    iterates=rng.uniform(0.0, 2.0, (rows, n)) * rng.choice([1e-300, 1.0, 1e300], (rows, n)))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers ``write_trace_csv`` forks, on a process that may use two cores."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1}, raising=False)
    return pids


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

    @pytest.mark.parametrize("which", ["converged", "partial", "signed_zero", "deck_shaped"])
    def test_bytes_equal_csv_writer_with_repr(self, tmp_path, forks, which):
        if which == "deck_shaped":  # N=200 at lambda 0.96: several hundred distinct-valued rows
            gains = tuple(np.random.default_rng(7).uniform(0.2, 1.0, 200).tolist())
            cell = SingleCell(alphas=(0.96 / 199,) * 200, gains=gains, sigma=1.0)
            _, trace = solve(leave_one_out_map(cell))
            assert trace.iterates.shape[0] > 500
        elif which == "signed_zero":  # one column holding 0.0 and -0.0
            trace = SolveRun(deltas=(0.0, 5e-324), converged=False, tolerance=1e-10,
                             certified=True, solver="picard",
                             iterates=[[0.0, 1.0], [-0.0, 1.0], [0.0, 5e-324]])
        elif which == "converged":
            _, trace = solve(build_macro_diversity_transformed(symmetric_3x2(0.9)),
                             SolveConfig(initial=PowerVector((0.0, -0.0, 3.5))))
        else:
            with pytest.raises(NonConvergenceError) as excinfo:
                solve(build_macro_diversity_transformed(symmetric_3x2(1.5)),
                      SolveConfig(max_iter=40), force=True)
            trace = excinfo.value.trace
        written = _written_bytes(trace, tmp_path / "trace.csv")
        assert written == _csv_writer_bytes(trace, tmp_path / "reference.csv")
        assert len(forks) == (which == "deck_shaped")  # only the deck-sized trace is worth a helper

    @pytest.mark.parametrize("rows", [1, 2, 7])
    @pytest.mark.parametrize("forced", [False, True], ids=["serial", "forked"])
    def test_few_rows_on_either_path(self, tmp_path, forks, monkeypatch, rows, forced):
        if forced:
            monkeypatch.setattr(engine, "_FORK_CELLS", 1)
        trace = _random_run(rows, 3)
        assert _written_bytes(trace, tmp_path / "trace.csv") == _csv_writer_bytes(trace, tmp_path / "ref.csv")
        assert len(forks) == forced

    @pytest.mark.parametrize("side", ["below", "at"])
    def test_fork_threshold(self, tmp_path, forks, side):
        n = 128
        rows = _FORK_CELLS // n - (side == "below")
        trace = _random_run(rows, n, seed=rows)
        assert _written_bytes(trace, tmp_path / "trace.csv") == _csv_writer_bytes(trace, tmp_path / "ref.csv")
        assert len(forks) == (side == "at")

    def test_one_core_formats_in_one_process(self, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        trace = _random_run(_FORK_CELLS // 100 + 1, 100)
        assert _written_bytes(trace, tmp_path / "trace.csv") == _csv_writer_bytes(trace, tmp_path / "ref.csv")
        assert forks == []

    def test_failed_fork_formats_in_one_process(self, tmp_path, forks, monkeypatch):
        def fork():
            raise OSError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(os, "fork", fork)
        trace = _random_run(_FORK_CELLS // 100 + 1, 100)
        assert _written_bytes(trace, tmp_path / "trace.csv") == _csv_writer_bytes(trace, tmp_path / "ref.csv")

    def test_error_here_stops_a_blocked_helper(self, tmp_path, forks, monkeypatch):
        class Stop(Exception):
            pass

        parent = os.getpid()

        def repr_until_forked(value):  # this process fails once a helper is formatting
            if forks and os.getpid() == parent:
                raise Stop
            return repr(value)

        def hung(*_):
            raise AssertionError("write_trace_csv waits on a helper blocked on its pipe")

        monkeypatch.setattr(engine, "repr", repr_until_forked, raising=False)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:  # the helper's ~0.7 MB overfill the pipe: it blocks until the pipe closes
            with pytest.raises(Stop):
                _written_bytes(_random_run(301, 150), tmp_path / "trace.csv")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("failure", ["closes_early", "short_pipe", "exits_nonzero"])
    def test_failed_helper_is_replaced(self, tmp_path, forks, monkeypatch, failure):
        trace = _random_run(301, 150, seed=3)
        reference = _csv_writer_bytes(trace, tmp_path / "ref.csv")
        second_half = reference[reference.index(b"\r\n150,") + 2:]
        sent, status = {
            "closes_early": (b"", 0),
            "short_pipe": (second_half[:len(second_half) // 2], 0),
            "exits_nonzero": (second_half.replace(b"1", b"2"), 3),  # every row, but wrong
        }[failure]
        real_fork, real_pipe, fds = os.fork, os.pipe, []

        def pipe():
            fds[:] = real_pipe()
            return tuple(fds)

        def fork():
            pid = real_fork()
            if pid == 0:  # the helper sends ``sent`` instead of its rows
                os.close(fds[0])
                os.write(fds[1], sent)
                os._exit(status)
            return pid

        monkeypatch.setattr(os, "pipe", pipe)
        monkeypatch.setattr(os, "fork", fork)
        assert _written_bytes(trace, tmp_path / "trace.csv") == reference


class TestSolveRun:
    def test_delta_length_enforced(self):
        with pytest.raises(InvalidInputError):
            SolveRun((0.1,), False, 1e-10, True, "picard", iterates=(PowerVector((0.0,) * 2),))

    def test_converged_requires_final_delta_within_tolerance(self):
        for iterates in ((PowerVector((0.0,) * 2), PowerVector.full(2, 1.0)), None):
            with pytest.raises(InvalidInputError):
                SolveRun((1.0,), True, 1e-10, True, "picard", iterates)

    def test_negative_delta_rejected(self):
        with pytest.raises(InvalidInputError):
            SolveRun((-1.0,), False, 1e-10, True, "policy")

    def test_equality_compares_iterates_by_value(self):
        def run(iterates):
            return SolveRun((1.0,), False, 1e-10, True, "picard", iterates=iterates)

        assert run([[0.0], [1.0]]) == run([[0.0], [1.0]])
        assert run([[0.0], [1.0]]) != run([[0.0], [2.0]])
        assert run([[0.0], [1.0]]) != run([[0.0, 0.0], [1.0, 1.0]])
        assert run([[0.0], [1.0]]) != run(None) and run(None) == run(None)


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
        assert PowerVector(tuple(trace.iterates[-1])) == fixed_point
        assert fixed_point.p == tuple(trace.iterates[-1].tolist())

    def test_nan_step_ends_with_partial_trace(self):
        class NanAfterOneStep:  # a certified map whose second step returns NaN
            n = 2

            def certificate(self):
                return FeasibilityReport((0.5, 0.5))

            def step(self, x):
                return np.full(2, math.nan) if x.any() else np.ones(2)

        with pytest.raises(NonConvergenceError, match="left the finite range") as excinfo:
            solve(NanAfterOneStep())
        trace = excinfo.value.trace
        assert trace.deltas == (1.0,) and trace.iterates.tolist() == [[0.0, 0.0], [1.0, 1.0]]

    def test_negative_rule_output_rejected(self):
        ok, negative = (WeightedAbsSum((0.5,)), 1.0), (lambda x: 0.5 - float(x[0]), 0.0)
        with pytest.raises(InvalidInputError, match="terminal 2"):
            solve(System((ok, negative)))


class TestSystemValidation:
    def test_rule_dimension_enforced(self):
        rule = (WeightedAbsSum((0.1, 0.2)), 0.0)
        with pytest.raises(InvalidInputError, match="^System: rule 1 consumes 2 powers, expected 1$"):
            System((rule, rule))


def test_lambda_sweep_script_runs_both_solvers():
    # the in-process measurement tool: policy iteration against Picard on one small map
    repo = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(repo / "scripts" / "lambda_sweep.py"), "--n", "20", "--k", "3",
         "--lambdas", "0.9,0.99", "--picard-max-iter", "5000"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(repo / "src")),
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split()[:2] for line in lines[::3]] == [["lambda", "0.9"], ["lambda", "0.99"]]
    for line in lines[1::3] + lines[2::3]:  # a count, not an error, from both solvers at each lambda
        solver, result = line.split(":")
        assert solver.strip() in ("policy iteration", "picard") and result.split()[1] == "iterations,"
        assert int(result.split()[0]) >= 1, line
