import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from powerfeas.axioms import HolderNorm, NormOfNorms, WeightedAbsSum, check_all
from powerfeas.core import InvalidInputError
from reference import DominationBound, InvalidFunctionError, MinSelectionRule, System, dominate

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


class TestWeightedAbsSum:
    def test_direct_sum(self):
        assert WeightedAbsSum((2.0, 3.0))((1.0, 1.0)) == 5.0

    def test_sign_invariance(self):
        assert WeightedAbsSum((2.0, 3.0))((-1.0, 1.0)) == 5.0

    def test_leave_one_out_sum(self):
        # matches the transformed single-cell modulus for targets (0.3, 0.4)
        assert WeightedAbsSum((0.3, 0.4))((1.0, 1.0)) == pytest.approx(0.7, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            WeightedAbsSum((1.0, 2.0))((1.0, 2.0, 3.0))

    def test_zero_weights_allowed(self):
        assert WeightedAbsSum((0.0, 1.0))((5.0, 2.0)) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            WeightedAbsSum(())


class TestHolderNorm:
    def test_euclidean(self):
        assert HolderNorm(2)((3.0, 4.0)) == pytest.approx(5.0)

    def test_one_norm(self):
        assert HolderNorm(1)((1.0, -2.0, 3.0)) == 6.0

    @given(x=st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=8))
    def test_one_norm_is_the_abs_sum_bit_for_bit(self, x):
        # p = 1 takes the general branch: x ** 1.0 and s ** 1.0 are exact
        assert HolderNorm(1)(x) == float(np.abs(np.asarray(x, dtype=float)).sum())

    def test_infinity_is_sup(self):
        assert HolderNorm(math.inf)((1.0, -7.0, 2.0)) == 7.0

    def test_p_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            HolderNorm(0.5)

    @given(x=st.lists(finite, min_size=1, max_size=6))
    def test_ordering_across_p(self, x):
        # sup <= q-norm <= p-norm <= 1-norm for 1 <= p < q
        v_inf = HolderNorm(math.inf)(x)
        v_4 = HolderNorm(4)(x)
        v_2 = HolderNorm(2)(x)
        v_1 = HolderNorm(1)(x)
        slack = 1e-9 * (1.0 + v_1)
        assert v_inf <= v_4 + slack
        assert v_4 <= v_2 + slack
        assert v_2 <= v_1 + slack


class TestNormOfNorms:
    def test_max_of_coordinates(self):
        f = NormOfNorms(inner=(WeightedAbsSum((1.0, 0.0)), WeightedAbsSum((0.0, 1.0))))
        assert f((3.0, 4.0)) == 4.0

    def test_single_inner(self):
        f = NormOfNorms(inner=(WeightedAbsSum((1.0, 1.0)),))
        assert f((1.0, 1.0)) == 2.0

    def test_matches_direct_double_loop(self):
        # per-receiver weighted sums evaluated independently of the rule object
        alphas = (0.7, 0.5, 0.9)
        g = ((0.6, 0.4), (0.25, 0.75), (0.5, 0.5))
        i = 1
        others = [0, 2]
        inner = tuple(
            WeightedAbsSum(tuple(alphas[n] * g[n][k] for n in others)) for k in range(2)
        )
        f = NormOfNorms(inner=inner)
        ones = np.ones(2)
        direct = max(sum(alphas[n] * g[n][k] for n in others) for k in range(2))
        assert f(ones) == pytest.approx(direct, abs=1e-15)
        assert System([(f, 0.0)] * 3).certificate().binding_receiver == int(
            np.argmax([sum(alphas[n] * g[n][k] for n in others) for k in range(2)])
        )

    def test_mixed_inner_dims_rejected(self):
        with pytest.raises(InvalidInputError):
            NormOfNorms(inner=(WeightedAbsSum((1.0,)), WeightedAbsSum((1.0, 2.0))))

    def test_custom_outer_must_be_absolute_norm(self):
        def not_a_norm(v):
            return float(v[0])  # sign-sensitive, and not a HolderNorm

        with pytest.raises(InvalidInputError):
            NormOfNorms(inner=(WeightedAbsSum((1.0,)), WeightedAbsSum((2.0,))), outer=not_a_norm)

    def test_custom_outer_accepted_when_absolute(self):
        f = NormOfNorms(
            inner=(WeightedAbsSum((1.0, 0.5)), WeightedAbsSum((0.5, 1.0))),
            outer=HolderNorm(2),
        )
        assert f((1.0, 1.0)) == pytest.approx(math.sqrt(2 * 1.5**2))
        assert System([(f, 0.0)] * 3).certificate().binding_receiver is None  # only the sup outer names one


class TestDominate:
    def test_euclidean_two_dims(self):
        bound = dominate(HolderNorm(2), 2)
        assert bound.scale == pytest.approx(math.sqrt(2.0))
        assert bound((1.0, 0.0)) == pytest.approx(math.sqrt(2.0))
        assert bound((1.0, 0.0)) >= HolderNorm(2)((1.0, 0.0))

    def test_sup_norm_self_domination(self):
        bound = dominate(HolderNorm(math.inf), 3)
        assert bound.scale == 1.0
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-5.0, 5.0, size=3)
            assert bound(x) == pytest.approx(HolderNorm(math.inf)(x), abs=1e-12)

    def test_dominates_min_selection_rule_pointwise(self):
        # 10^4 random non-negative vectors against the order-statistic rule
        rule = MinSelectionRule(
            weight_rows=((0.5, 1.5, 0.2), (1.0, 0.3, 0.8), (0.1, 0.9, 1.1)),
            divisors=(1.0, 2.0, 0.5),
            order=2,
        )
        bound = dominate(rule, rule.dim)
        rng = np.random.default_rng(11)
        xs = rng.uniform(0.0, 10.0, size=(10_000, rule.dim))
        for x in xs:
            assert bound(x) >= rule(x) - 1e-12

    def test_non_finite_rejected(self):
        def blows_up(x):
            return math.inf

        with pytest.raises(InvalidFunctionError):
            dominate(blows_up, 2)


class TestFamilyAxioms:
    """Every constructor in this module must pass the full axiom suite."""

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize(
        "make",
        [
            lambda dim: HolderNorm(1),
            lambda dim: HolderNorm(2),
            lambda dim: HolderNorm(math.inf),
            lambda dim: WeightedAbsSum(tuple(0.3 + 0.2 * i for i in range(dim))),
            lambda dim: NormOfNorms(
                inner=(
                    WeightedAbsSum(tuple(0.5 + 0.1 * i for i in range(dim))),
                    WeightedAbsSum(tuple(1.0 - 0.1 * i for i in range(dim))),
                )
            ),
            lambda dim: DominationBound(scale=1.7, dim=dim),
        ],
    )
    def test_all_axioms_pass(self, make, dim):
        report = check_all(make(dim), dim, samples=400, seed=99)
        assert report.all_passed, [v for v in report.results if not v.passed]
