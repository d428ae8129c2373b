import math

import numpy as np
import pytest

from powerfeas.axioms import (
    check_all,
    check_extended_subhom,
    check_max_monotone,
    check_nonneg,
    check_reverse_triangle,
    check_subadd,
    check_subhom_at_one,
)
from powerfeas.core import (
    EvaluationError,
    GainMatrix,
    InvalidInputError,
    NoiseVector,
    QosVector,
)
from powerfeas.engine import lift_rule
from powerfeas.rules import HolderNorm, WeightedAbsSum
from powerfeas.scenarios import MacroDiversity, build_macro_diversity_transformed

SEED = 424242


def squared_l1(x):
    return float(np.abs(np.asarray(x, dtype=float)).sum() ** 2)


def l1_plus_one(x):
    return float(np.abs(np.asarray(x, dtype=float)).sum() + 1.0)


def macro_div_rule(n=3, k=2):
    md = MacroDiversity(
        alphas=QosVector((0.9,) * n),
        gains=GainMatrix(tuple((1.0, 2.0)[:k] + (1.5,) * (k - 2) for _ in range(n))),
        noise=NoiseVector((1.0,) * k),
    )
    return build_macro_diversity_transformed(md).rules[0].f


class TestNonNeg:
    def test_euclidean_passes(self):
        assert check_nonneg(HolderNorm(2), 3, seed=SEED).passed

    def test_raw_coordinate_fails_on_sign_flip(self):
        verdict = check_nonneg(lambda x: float(x[0]), 2, seed=SEED)
        assert not verdict.passed
        witness = np.array(verdict.counterexample.inputs[0])
        assert float(witness[0]) < 0.0

    def test_macro_diversity_rule_passes(self):
        assert check_nonneg(macro_div_rule(), 2, seed=SEED).passed


class TestSubhomAtOne:
    def test_holder_passes_with_equality(self):
        for p in (1, 2, math.inf):
            assert check_subhom_at_one(HolderNorm(p), 4, seed=SEED).passed

    def test_constant_offset_fails(self):
        # f(lam*1) = lam*M + 1 exceeds lam*(M + 1) for lam < 1
        verdict = check_subhom_at_one(l1_plus_one, 3, seed=SEED)
        assert not verdict.passed
        lam = verdict.counterexample.inputs[0]
        assert 0.0 < lam < 1.0

    def test_squared_l1_passes_in_dim_one(self):
        # lam^2 <= lam on (0, 1)
        assert check_subhom_at_one(squared_l1, 1, seed=SEED).passed


class TestSubadd:
    def test_euclidean_passes(self):
        assert check_subadd(HolderNorm(2), 3, seed=SEED).passed

    def test_squared_l1_fails_with_ones_witness(self):
        verdict = check_subadd(squared_l1, 1, seed=SEED)
        assert not verdict.passed
        x, y = verdict.counterexample.inputs
        assert x == (1.0,) and y == (1.0,)
        assert verdict.counterexample.lhs == 4.0
        assert verdict.counterexample.rhs == 2.0

    def test_macro_diversity_rule_passes(self):
        assert check_subadd(macro_div_rule(), 2, seed=SEED).passed


class TestMaxMonotone:
    def test_one_norm_passes(self):
        assert check_max_monotone(HolderNorm(1), 3, seed=SEED).passed

    def test_difference_fails(self):
        verdict = check_max_monotone(lambda x: float(x[0] - x[1]), 2, seed=SEED)
        assert not verdict.passed

    def test_weighted_abs_sum_passes(self):
        f = WeightedAbsSum((2.0 / 3.0, 1.0 / 3.0))
        assert check_max_monotone(f, 2, seed=SEED).passed


class TestReverseTriangle:
    def test_sup_norm_equality_case(self):
        f = HolderNorm(math.inf)
        x, y = np.array([3.0, 0.0]), np.array([1.0, 0.0])
        assert abs(f(x) - f(y)) == pytest.approx(f(x - y))

    def test_euclidean_passes(self):
        assert check_reverse_triangle(HolderNorm(2), 3, seed=SEED).passed

    def test_squared_l1_fails(self):
        # e.g. x=2, y=1: |4 - 1| = 3 > f(1) = 1
        verdict = check_reverse_triangle(squared_l1, 1, seed=SEED)
        assert not verdict.passed


class TestExtendedSubhom:
    def test_one_norm_equality(self):
        f = HolderNorm(1)
        r = 7.3
        assert f(r * np.ones(3)) == pytest.approx(r * f(np.ones(3)))
        assert check_extended_subhom(f, 3, seed=SEED).passed

    def test_follows_from_subadd_and_subhom(self):
        # the executable version of the extension lemma, on several rules
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = WeightedAbsSum(tuple(rng.uniform(0.1, 2.0, size=3)))
            assert check_subhom_at_one(f, 3, seed=SEED).passed
            assert check_subadd(f, 3, seed=SEED).passed
            assert check_extended_subhom(f, 3, seed=SEED).passed

    def test_distinct_from_subhom_at_one(self):
        # f = l1 + 1 violates the (0,1) axiom but not the r > 1 one:
        # f(r) = r + 1 <= 2r exactly when r >= 1
        assert not check_subhom_at_one(l1_plus_one, 1, seed=SEED).passed
        assert check_extended_subhom(l1_plus_one, 1, seed=SEED).passed


class TestReportMachinery:
    def test_determinism(self):
        a = check_all(squared_l1, 2, samples=500, seed=7)
        b = check_all(squared_l1, 2, samples=500, seed=7)
        assert a == b

    def test_fail_witness_reproduces_violation(self):
        report = check_all(squared_l1, 2, samples=500, seed=7)
        verdict = report.subadd
        assert not verdict.passed
        x = np.array(verdict.counterexample.inputs[0])
        y = np.array(verdict.counterexample.inputs[1])
        lhs = squared_l1(x + y)
        rhs = squared_l1(x) + squared_l1(y)
        assert lhs > rhs + 1e-12 * (1.0 + abs(lhs) + abs(rhs))

    def test_evaluation_error_carries_input(self):
        def broken(x):
            raise RuntimeError("boom")

        with pytest.raises(EvaluationError) as excinfo:
            check_nonneg(broken, 2, seed=SEED)
        assert excinfo.value.bad_input is not None

    def test_non_finite_flagged(self):
        with pytest.raises(EvaluationError):
            check_nonneg(lambda x: math.nan, 2, seed=SEED)

    def test_all_passed_flag(self):
        assert check_all(HolderNorm(2), 3, samples=300, seed=1).all_passed
        assert not check_all(squared_l1, 2, samples=300, seed=1).all_passed

    @pytest.mark.parametrize("dim,samples", [(1, 0), (1, -5), (0, 100), (-1, 100)])
    def test_empty_sampling_rejected(self, dim, samples):
        # with no samples every verdict would PASS vacuously
        with pytest.raises(InvalidInputError):
            check_all(squared_l1, dim, samples=samples, seed=SEED)


class TestLiftingConsistency:
    def test_lifted_rule_keeps_all_axioms(self):
        base = WeightedAbsSum((0.4, 0.8, 0.2))
        for i in range(4):
            lifted = lift_rule(base, i)
            report = check_all(lifted, 4, samples=400, seed=SEED)
            assert report.all_passed

    def test_lifted_macro_diversity_rule(self):
        f = macro_div_rule()
        lifted = lift_rule(f, 1)
        assert check_all(lifted, 3, samples=400, seed=SEED).all_passed
