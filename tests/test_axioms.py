import math
import tracemalloc

import numpy as np
import pytest

from powerfeas.axioms import (
    AXIOM_NAMES,
    CheckVerdict,
    Counterexample,
    EvaluationError,
    HolderNorm,
    WeightedAbsSum,
    _pair_stream,
    _vector_stream,
    check_all,
    check_extended_subhom,
    check_max_monotone,
    check_nonneg,
    check_reverse_triangle,
    check_subadd,
    check_subhom_at_one,
)
from powerfeas.core import InvalidInputError
from powerfeas.scenarios import MacroDiversity
from reference import build_macro_diversity_transformed, lift_rule

SEED = 424242


def squared_l1(x):
    return float(np.abs(np.asarray(x, dtype=float)).sum() ** 2)


def l1_plus_one(x):
    return float(np.abs(np.asarray(x, dtype=float)).sum() + 1.0)


def macro_div_rule(n=3, k=2):
    md = MacroDiversity(
        alphas=(0.9,) * n,
        gains=tuple((1.0, 2.0)[:k] + (1.5,) * (k - 2) for _ in range(n)),
        noise=(1.0,) * k,
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
        verdict = report.results[AXIOM_NAMES.index("sub-additivity")]
        assert not verdict.passed
        x = np.array(verdict.counterexample.inputs[0])
        y = np.array(verdict.counterexample.inputs[1])
        lhs = squared_l1(x + y)
        rhs = squared_l1(x) + squared_l1(y)
        assert lhs > rhs + 1e-12 * (1.0 + abs(lhs) + abs(rhs))

    def test_verdict_passes_exactly_without_a_counterexample(self):
        assert CheckVerdict("sub-additivity").passed
        assert not CheckVerdict("sub-additivity", Counterexample((1.0,), 2.0, 1.0)).passed

    def test_evaluation_error_carries_input(self):
        def broken(x):
            raise RuntimeError("boom")

        with pytest.raises(EvaluationError) as excinfo:
            check_nonneg(broken, 2, seed=SEED)
        assert excinfo.value.bad_input is not None

    def test_non_finite_flagged(self):
        with pytest.raises(EvaluationError):
            check_nonneg(lambda x: math.nan, 2, seed=SEED)

    def test_overflow_is_reported_as_the_value_at_plain_float_inputs(self):
        # check_all silences numpy's overflow warning: the inf it leads to is the error
        with pytest.raises(EvaluationError, match=r"^candidate function returned inf on input \(1\.0, 1\.0\)$") \
                as excinfo:
            check_all(WeightedAbsSum((1e308, 1e308)), 2, samples=50, seed=SEED)
        assert excinfo.value.bad_input == (1.0, 1.0)
        assert all(type(v) is float for v in excinfo.value.bad_input)

    def test_all_passed_flag(self):
        assert check_all(HolderNorm(2), 3, samples=300, seed=1).all_passed
        assert not check_all(squared_l1, 2, samples=300, seed=1).all_passed

    @pytest.mark.parametrize("dim,samples", [(1, 0), (1, -5), (0, 100), (-1, 100)])
    def test_empty_sampling_rejected(self, dim, samples):
        # with no samples every verdict would PASS vacuously
        with pytest.raises(InvalidInputError):
            check_all(squared_l1, dim, samples=samples, seed=SEED)

    def test_negative_seed_rejected_naming_it(self):
        with pytest.raises(InvalidInputError, match=r"^check_all: seed must be >= 0, got -1$"):
            check_all(squared_l1, 2, samples=10, seed=-1)


class TestSampling:
    def test_corner_cases_take_only_the_unit_vectors_they_use(self):
        # 12 samples at dim 3000 hold a few dozen 24 kB vectors; a 3000 x 3000 identity is 72 MB
        check_all(HolderNorm(2), 3000, samples=12, seed=0)  # numpy's first-call caches, outside the count
        tracemalloc.start()
        try:
            check_all(HolderNorm(2), 3000, samples=12, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_corner_cases(self, dim):
        ones, units = np.ones(dim), [np.eye(dim)[i] for i in range(dim)]
        huge, mixed = np.zeros(dim), np.ones(dim)
        huge[0] = mixed[0] = 1e8
        vectors = [np.zeros(dim), ones, -ones, *(v for e in units[:3] for v in (e, -e)), huge, mixed]
        pairs = [(np.zeros(dim), np.zeros(dim)), (ones, ones), (ones, -ones), *((e, -e) for e in units[:2]),
                 (huge, ones)]
        rng = np.random.default_rng(0)
        assert [v.tobytes() for v in _vector_stream(dim, len(vectors), rng)] == [v.tobytes() for v in vectors]
        assert [(x.tobytes(), y.tobytes()) for x, y in _pair_stream(dim, len(pairs), rng)] == \
            [(x.tobytes(), y.tobytes()) for x, y in pairs]


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
