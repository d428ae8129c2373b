import dataclasses

import numpy as np
import pytest

from powerfeas.core import (
    GainMatrix,
    InvalidInputError,
    NoiseVector,
    NonConvergenceError,
    PowerVector,
    QosVector,
    sup_norm,
)
from powerfeas.capacity import RegionSpec, evaluate_predicate
from powerfeas.engine import SolveConfig, affine_parts, contraction_modulus, linear_oracle, solve
from powerfeas.scenarios import (
    FixedAssignment,
    MacroDiversity,
    MinSelectionRule,
    MultiConnection,
    SingleCell,
    build_fixed_assignment,
    build_macro_diversity,
    build_macro_diversity_transformed,
    build_multi_connection,
    build_single_cell_received,
    build_single_cell_transformed,
    feasibility_formula,
    kth_smallest,
    leave_one_out_map,
    macro_diversity_exact_update,
    mc_exact_rules_in_bounded_coords,
)

ASYMMETRIC_GAINS = GainMatrix(((2.0, 1.0), (1.0, 2.0), (1.0, 1.0)))  # relative 2/3,1/3 | 1/3,2/3 | 1/2,1/2


def symmetric_md(alpha, n=3, k=2):
    return MacroDiversity(
        alphas=QosVector((alpha,) * n),
        gains=GainMatrix(((1.0,) * k,) * n),
        noise=NoiseVector((1.0,) * k),
    )


def random_md(rng, target):
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, 5))
    gains = rng.uniform(0.1, 2.0, size=(n, k))
    alphas = rng.uniform(0.2, 1.0, size=n)
    md = MacroDiversity(
        alphas=QosVector(tuple(alphas)),
        gains=GainMatrix(tuple(map(tuple, gains))),
        noise=NoiseVector(tuple(rng.uniform(0.1, 1.0, size=k))),
    )
    lam = feasibility_formula(md).modulus
    scaled = QosVector(tuple(a * target / lam for a in alphas))
    return MacroDiversity(alphas=scaled, gains=md.gains, noise=md.noise)


def random_mc(rng, target):
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, 5))
    gains = rng.uniform(0.05, 2.0, size=(k, n))
    d = tuple(int(rng.integers(1, k + 1)) for _ in range(n))
    alphas = rng.uniform(0.2, 1.0, size=n)
    mc = MultiConnection(
        alphas=QosVector(tuple(alphas)),
        gains=tuple(map(tuple, gains)),
        d=d,
        noise=NoiseVector(tuple(rng.uniform(0.1, 1.0, size=k))),
    )
    lam = feasibility_formula(mc, noiseless=False).modulus
    scaled = QosVector(tuple(a * target / lam for a in alphas))
    return MultiConnection(alphas=scaled, gains=mc.gains, d=d, noise=mc.noise)


class TestOrderStatistics:
    def test_kth_smallest(self):
        assert kth_smallest((5.0, 1.0, 3.0), 1) == 1.0
        assert kth_smallest((5.0, 1.0, 3.0), 2) == 3.0

    def test_duplicates_count_separately(self):
        assert kth_smallest((2.0, 2.0, 7.0), 2) == 2.0

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            kth_smallest((1.0,), 2)


class TestSingleCellReceived:
    def test_pair_system_structure(self):
        sc = SingleCell(alphas=QosVector((0.3, 0.4)), gains=(1.0, 1.0), sigma=1.0)
        system = build_single_cell_received(sc)
        assert system.rules[0].f.weights == (0.3,)
        assert system.rules[0].offset == pytest.approx(0.3)
        assert system.rules[1].f.weights == (0.4,)
        assert system.rules[1].offset == pytest.approx(0.4)

    def test_zero_target_rejected_by_type(self):
        with pytest.raises(InvalidInputError):
            QosVector((0.0, 0.0))

    def test_three_terminal_moduli(self):
        sc = SingleCell(alphas=QosVector((0.4,) * 3), gains=(1.0,) * 3, sigma=0.5)
        report = contraction_modulus(build_single_cell_received(sc))
        # each target below 1/(N-1) = 0.5, so the per-terminal condition holds too
        assert report.per_terminal_modulus == pytest.approx((0.8,) * 3, abs=1e-15)
        assert report.feasible


class TestSingleCellTransformed:
    def test_flexible_beyond_per_terminal_bound(self):
        sc = SingleCell(alphas=QosVector((0.6, 0.3, 0.2)), gains=(1.0,) * 3, sigma=1.0)
        transformed = contraction_modulus(build_single_cell_transformed(sc))
        assert transformed.per_terminal_modulus == pytest.approx((0.5, 0.8, 0.9), abs=1e-15)
        assert transformed.feasible
        # 0.6 > 1/(N-1): the received-coordinate certificate fails on the same system
        received = contraction_modulus(build_single_cell_received(sc))
        assert not received.feasible

    def test_boundary_sum(self):
        sc = SingleCell(alphas=QosVector((0.5, 0.5, 0.1)), gains=(1.0,) * 3, sigma=1.0)
        report = contraction_modulus(build_single_cell_transformed(sc))
        assert report.per_terminal_modulus[2] == pytest.approx(1.0, abs=1e-15)
        assert not report.feasible

    def test_fixed_points_related_by_target_scaling(self):
        sc = SingleCell(alphas=QosVector((0.3, 0.4)), gains=(1.0, 1.0), sigma=1.0)
        p, _ = solve(build_single_cell_received(sc), SolveConfig(tolerance=1e-12))
        q, _ = solve(build_single_cell_transformed(sc), SolveConfig(tolerance=1e-12))
        for qi, pi, ai in zip(q, p, sc.alphas):
            assert qi == pytest.approx(pi / ai, rel=1e-9)


class TestMacroDiversity:
    def test_symmetric_099_feasible(self):
        report = contraction_modulus(build_macro_diversity_transformed(symmetric_md(0.99)))
        assert report.per_terminal_modulus == pytest.approx((0.99,) * 3, abs=1e-15)
        assert report.feasible

    def test_original_coordinates_condition(self):
        # per-terminal modulus must equal alpha_i * max_k sum_{n != i} h_nk / h_i
        rng = np.random.default_rng(8)
        gains = rng.uniform(0.1, 2.0, size=(4, 3))
        md = MacroDiversity(
            alphas=QosVector((0.3, 0.5, 0.4, 0.2)),
            gains=GainMatrix(tuple(map(tuple, gains))),
            noise=NoiseVector((0.5, 1.0, 0.2)),
        )
        report = contraction_modulus(build_macro_diversity(md))
        h = gains
        for i in range(4):
            expected = md.alphas[i] * max(
                sum(h[n, k] for n in range(4) if n != i) / sum(h[i]) for k in range(3)
            )
            assert report.per_terminal_modulus[i] == pytest.approx(expected, rel=1e-12)

    def test_one_receiver_reduces_to_single_cell(self):
        md = MacroDiversity(
            alphas=QosVector((0.6, 0.3, 0.2)),
            gains=GainMatrix(((2.0,), (1.0,), (0.5,))),
            noise=NoiseVector((1.0,)),
        )
        md_report = contraction_modulus(build_macro_diversity_transformed(md))
        sc = SingleCell(alphas=md.alphas, gains=(2.0, 1.0, 0.5), sigma=1.0)
        sc_report = contraction_modulus(build_single_cell_transformed(sc))
        assert md_report.per_terminal_modulus == pytest.approx(
            sc_report.per_terminal_modulus, abs=1e-15
        )

    def test_asymmetric_boundary_point(self):
        md = MacroDiversity(
            alphas=QosVector((1.0, 1.0, 2.0 / 3.0)),
            gains=ASYMMETRIC_GAINS,
            noise=NoiseVector((1.0, 1.0)),
        )
        report = contraction_modulus(build_macro_diversity_transformed(md))
        assert abs(report.modulus - 1.0) <= 1e-12
        assert not report.feasible

    def test_asymmetric_inequalities(self):
        # receiver-1 pairs: (2/3)a1 + (1/3)a2, (1/3)a1 + ... per leave-one-out
        md = MacroDiversity(
            alphas=QosVector((0.9, 0.6, 0.5)),
            gains=ASYMMETRIC_GAINS,
            noise=NoiseVector((1.0, 1.0)),
        )
        report = contraction_modulus(build_macro_diversity_transformed(md))
        g = ASYMMETRIC_GAINS.relative
        a = md.alphas
        expected_3 = max(
            a[0] * g[0][0] + a[1] * g[1][0],
            a[0] * g[0][1] + a[1] * g[1][1],
        )
        assert report.per_terminal_modulus[2] == pytest.approx(expected_3, rel=1e-14)

    def test_fixed_points_related_by_gain_target_scaling(self):
        md = symmetric_md(0.6)
        p, _ = solve(build_macro_diversity(md), SolveConfig(tolerance=1e-12))
        q, _ = solve(build_macro_diversity_transformed(md), SolveConfig(tolerance=1e-12))
        for i in range(3):
            h_i = md.gains.row_sums[i]
            assert q[i] == pytest.approx(h_i * p[i] / md.alphas[i], rel=1e-9)

    def test_bounded_update_overestimates_exact_update(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            md = random_md(rng, target=float(rng.uniform(0.4, 0.95)))
            system = build_macro_diversity(md)
            for _ in range(20):
                powers = rng.uniform(0.05, 5.0, size=md.n)
                bounded = system.step(powers)
                exact = macro_diversity_exact_update(md, powers)
                assert np.all(bounded >= exact - 1e-12)


class TestFixedAssignment:
    def test_single_receiver_equals_received_single_cell(self):
        qos = QosVector((0.3, 0.4))
        fa = FixedAssignment(
            alphas=qos,
            gains=((1.0, 1.0),),
            assignment=(0, 0),
            noise=NoiseVector((1.0,)),
        )
        fa_system = build_fixed_assignment(fa)
        sc_system = build_single_cell_received(
            SingleCell(alphas=qos, gains=(1.0, 1.0), sigma=1.0)
        )
        for fa_rule, sc_rule in zip(fa_system.rules, sc_system.rules):
            assert fa_rule.f.weights == sc_rule.f.weights
            assert fa_rule.offset == pytest.approx(sc_rule.offset)

    def test_decoupled_cells(self):
        fa = FixedAssignment(
            alphas=QosVector((0.9, 0.8)),
            gains=((1.0, 0.0), (0.0, 2.0)),
            assignment=(0, 1),
            noise=NoiseVector((1.0, 1.0)),
        )
        system = build_fixed_assignment(fa)
        report = contraction_modulus(system)
        assert report.per_terminal_modulus == (0.0, 0.0)
        fixed_point, _ = solve(system)
        assert fixed_point.p == pytest.approx((0.9, 0.8 / 2.0), abs=1e-15)

    def test_cross_gain_modulus(self):
        fa = FixedAssignment(
            alphas=QosVector((0.5, 0.25)),
            gains=((2.0, 0.5), (0.4, 1.0)),
            assignment=(0, 1),
            noise=NoiseVector((1.0, 1.0)),
        )
        report = contraction_modulus(build_fixed_assignment(fa))
        assert report.per_terminal_modulus[0] == pytest.approx(0.5 * 0.5 / 2.0, abs=1e-15)
        assert report.per_terminal_modulus[1] == pytest.approx(0.25 * 0.4 / 1.0, abs=1e-15)

    def test_zero_gain_to_assigned_receiver_rejected(self):
        with pytest.raises(InvalidInputError):
            FixedAssignment(
                alphas=QosVector((0.5, 0.5)),
                gains=((0.0, 1.0), (1.0, 1.0)),
                assignment=(0, 1),
                noise=NoiseVector((1.0, 1.0)),
            )


class TestMultiConnection:
    def test_diversity_order_out_of_range(self):
        with pytest.raises(InvalidInputError):
            MultiConnection(
                alphas=QosVector((0.5, 0.5)),
                gains=((1.0, 1.0), (1.0, 1.0)),
                d=(3, 1),
                noise=NoiseVector((1.0, 1.0)),
            )

    def test_exact_condition_uses_order_statistic(self):
        # with d_j = 3 the third-smallest per-receiver sum is the modulus
        rng = np.random.default_rng(12)
        gains = rng.uniform(0.2, 2.0, size=(4, 3))
        mc = MultiConnection(
            alphas=QosVector((0.4, 0.3, 0.5)),
            gains=tuple(map(tuple, gains)),
            d=(3, 1, 2),
            noise=NoiseVector((1.0,) * 4),
        )
        report = contraction_modulus(build_multi_connection(mc, noiseless=True))
        a = mc.alphas
        for j, dj in enumerate(mc.d):
            sums = sorted(
                sum(a[i] * gains[k, i] for i in range(3) if i != j) / gains[k, j]
                for k in range(4)
            )
            assert report.per_terminal_modulus[j] == pytest.approx(sums[dj - 1], rel=1e-12)

    def test_bounded_condition_uses_dth_largest_reference(self):
        gains = ((1.0, 0.5), (2.0, 1.5), (0.5, 3.0))
        mc = MultiConnection(
            alphas=QosVector((0.4, 0.3)),
            gains=gains,
            d=(2, 1),
            noise=NoiseVector((1.0, 0.5, 2.0)),
        )
        report = contraction_modulus(build_multi_connection(mc, noiseless=False))
        # terminal 1: reference gain = 2nd largest of (1, 2, 0.5) = 1
        # terminal 2: reference gain = largest of (0.5, 1.5, 3) = 3
        ref = (1.0, 3.0)
        a = mc.alphas
        for j in range(2):
            other = 1 - j
            expected = max(a[other] * gains[k][other] / ref[other] for k in range(3))
            assert report.per_terminal_modulus[j] == pytest.approx(expected, rel=1e-14)

    def test_unreachable_terminal_rejected(self):
        with pytest.raises(InvalidInputError):
            MultiConnection(
                alphas=QosVector((0.5, 0.5)),
                gains=((1.0, 0.0), (1.0, 0.0)),
                d=(1, 1),
                noise=NoiseVector((1.0, 1.0)),
            )

    def test_order_one_uses_best_receiver(self):
        gains = ((1.0, 0.2), (0.3, 2.0))
        mc = MultiConnection(
            alphas=QosVector((0.5, 0.5)),
            gains=gains,
            d=(1, 1),
            noise=NoiseVector((1.0, 1.0)),
        )
        assert mc.reference_gain(0) == 1.0
        assert mc.reference_gain(1) == 2.0

    def test_exact_mode_has_no_offset(self):
        mc = MultiConnection(
            alphas=QosVector((0.5, 0.5)),
            gains=((1.0, 1.0), (2.0, 0.5)),
            d=(1, 1),
            noise=NoiseVector((1.0, 1.0)),
        )
        exact = build_multi_connection(mc, noiseless=True)
        assert all(rule.offset == 0.0 for rule in exact.rules)
        bounded = build_multi_connection(mc, noiseless=False)
        assert all(rule.offset == mc.noise.max() for rule in bounded.rules)

    def test_exact_feasible_iteration_collapses_to_zero(self):
        # without noise the only balance point is all-off; feasibility makes
        # the updates strictly shrinking from any start
        rng = np.random.default_rng(21)
        mc = random_mc(rng, target=0.8)
        exact = build_multi_connection(mc, noiseless=True)
        report = contraction_modulus(exact)
        if not report.feasible:  # exact condition can be stricter; rescale
            scale = 0.8 / report.modulus
            mc = MultiConnection(
                alphas=QosVector(tuple(a * scale for a in mc.alphas)),
                gains=mc.gains,
                d=mc.d,
                noise=mc.noise,
            )
            exact = build_multi_connection(mc, noiseless=True)
        fixed_point, trace = solve(
            exact,
            SolveConfig(tolerance=1e-10, initial=PowerVector.full(mc.n, 50.0)),
        )
        assert trace.converged
        assert max(fixed_point.p) <= 1e-9

    def test_bounded_rule_dominates_exact_rule_pointwise(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            mc = random_mc(rng, target=float(rng.uniform(0.4, 0.95)))
            bounded = build_multi_connection(mc, noiseless=False)
            exact_scaled = mc_exact_rules_in_bounded_coords(mc)
            xs = rng.uniform(0.0, 10.0, size=(200, mc.n - 1))
            for j in range(mc.n):
                f_bounded = bounded.rules[j].f
                f_exact = exact_scaled[j]
                for x in xs:
                    assert f_bounded(x) >= f_exact(x) - 1e-12

    def test_domination_survives_zero_gains(self):
        gains = ((1.0, 0.0, 0.5), (0.5, 2.0, 0.0), (0.0, 1.0, 1.5))
        mc = MultiConnection(
            alphas=QosVector((0.4, 0.3, 0.2)),
            gains=gains,
            d=(2, 1, 2),
            noise=NoiseVector((1.0, 1.0, 1.0)),
        )
        bounded = build_multi_connection(mc, noiseless=False)
        exact_scaled = mc_exact_rules_in_bounded_coords(mc)
        rng = np.random.default_rng(13)
        for x in rng.uniform(0.0, 10.0, size=(500, 2)):
            for j in range(3):
                assert bounded.rules[j].f(x) >= exact_scaled[j](x) - 1e-12


class TestMinSelectionRule:
    def test_zero_divisors_never_selected(self):
        rule = MinSelectionRule(
            weight_rows=((1.0, 1.0), (5.0, 5.0)),
            divisors=(0.0, 1.0),
            order=1,
        )
        assert rule((1.0, 1.0)) == 10.0  # the zero-divisor row is skipped

    def test_needs_enough_positive_divisors(self):
        with pytest.raises(InvalidInputError):
            MinSelectionRule(weight_rows=((1.0,), (1.0,)), divisors=(0.0, 1.0), order=2)


def hanly(alphas, receivers):
    """The gain-blind baseline region predicate at one target vector."""
    spec = RegionSpec("hanly", n=len(alphas), resolution=2, alpha_max=1.0, receivers=receivers)
    return bool(evaluate_predicate(spec, np.array([alphas]))[0])


class TestHanly:
    def test_boundary_strict(self):
        assert hanly((0.9, 0.9), 2)
        assert not hanly((1.0, 1.0), 2)

    def test_degenerate_receiver_inflates_baseline(self):
        # the gain-blind baseline admits sums up to the receiver count even
        # when one receiver hears nothing
        assert hanly((1.4, 1.4, 0.1), 3)
        assert not hanly((1.4, 1.4, 0.1), 2)


class TestFormulaEngineAgreement:
    def test_single_cell(self):
        sc = SingleCell(alphas=QosVector((0.6, 0.3, 0.2)), gains=(1.0,) * 3, sigma=1.0)
        for coordinates, build in (
            ("transformed", build_single_cell_transformed),
            ("original", build_single_cell_received),
        ):
            formula = feasibility_formula(sc, coordinates=coordinates)
            engine = contraction_modulus(build(sc))
            assert formula.per_terminal_modulus == pytest.approx(
                engine.per_terminal_modulus, abs=1e-12
            )
            assert formula.feasible == engine.feasible

    def test_macro_diversity_random(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            md = random_md(rng, target=float(rng.uniform(0.3, 1.4)))
            for coordinates, build in (
                ("transformed", build_macro_diversity_transformed),
                ("original", build_macro_diversity),
            ):
                formula = feasibility_formula(md, coordinates=coordinates)
                engine = contraction_modulus(build(md))
                assert formula.per_terminal_modulus == pytest.approx(
                    engine.per_terminal_modulus, abs=1e-12
                )
                assert formula.feasible == engine.feasible
                assert formula.binding == engine.binding or coordinates == "original"

    def test_fixed_assignment(self):
        fa = FixedAssignment(
            alphas=QosVector((0.5, 0.25, 0.4)),
            gains=((2.0, 0.5, 0.1), (0.4, 1.0, 0.3)),
            assignment=(0, 1, 1),
            noise=NoiseVector((1.0, 0.5)),
        )
        formula = feasibility_formula(fa)
        engine = contraction_modulus(build_fixed_assignment(fa))
        assert formula.per_terminal_modulus == pytest.approx(
            engine.per_terminal_modulus, abs=1e-12
        )

    def test_multi_connection_both_modes(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            mc = random_mc(rng, target=float(rng.uniform(0.3, 1.4)))
            for noiseless in (True, False):
                formula = feasibility_formula(mc, noiseless=noiseless)
                engine = contraction_modulus(build_multi_connection(mc, noiseless=noiseless))
                assert formula.per_terminal_modulus == pytest.approx(
                    engine.per_terminal_modulus, abs=1e-12
                )
                assert formula.feasible == engine.feasible

    def test_symmetric_reduces_to_leave_one_out_sum_vs_receivers(self):
        # with g = 1/K the transformed condition is sum_{n != i} alpha_n < K
        md = symmetric_md(0.99, n=3, k=2)
        report = feasibility_formula(md)
        alphas = md.alphas.as_array()
        for i in range(3):
            loo = alphas.sum() - alphas[i]
            assert report.per_terminal_modulus[i] == pytest.approx(loo / 2.0, rel=1e-14)

    def test_degenerate_third_receiver_condition_unchanged(self):
        degenerate = MacroDiversity(
            alphas=QosVector((0.9, 0.9, 0.1)),
            gains=GainMatrix(((1.0, 1.0, 0.0),) * 3),
            noise=NoiseVector((1.0, 1.0, 1.0)),
        )
        two_receiver = symmetric_md(0.9)
        report_a = feasibility_formula(degenerate)
        b = MacroDiversity(
            alphas=degenerate.alphas, gains=two_receiver.gains, noise=two_receiver.noise
        )
        report_b = feasibility_formula(b)
        assert report_a.per_terminal_modulus == pytest.approx(
            report_b.per_terminal_modulus, abs=1e-15
        )
        # while the gain-blind baseline even admits target sums up to 3
        assert hanly(degenerate.alphas.as_array(), 3)


def random_fa(rng):
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, 5))
    gains = rng.uniform(0.05, 2.0, size=(k, n))
    return FixedAssignment(
        alphas=QosVector(tuple(rng.uniform(0.2, 1.0, size=n))),
        gains=tuple(map(tuple, gains)),
        assignment=tuple(int(a) for a in rng.integers(0, k, size=n)),
        noise=NoiseVector(tuple(rng.uniform(0.1, 1.0, size=k))),
    )


def random_sc(rng):
    n = int(rng.integers(2, 7))
    return SingleCell(
        alphas=QosVector(tuple(rng.uniform(0.2, 1.0, size=n))),
        gains=tuple(rng.uniform(0.5, 2.0, size=n)),
        sigma=float(rng.uniform(0.1, 2.0)),
    )


# (scenario draw, map options, independent rule-object build) per coordinate system / mode
MAP_CASES = {
    "single_cell-transformed": (random_sc, {}, build_single_cell_transformed),
    "single_cell-original": (random_sc, {"coordinates": "original"}, build_single_cell_received),
    "macro_diversity-transformed": (
        lambda rng: random_md(rng, 0.5), {}, build_macro_diversity_transformed),
    "macro_diversity-original": (
        lambda rng: random_md(rng, 0.5), {"coordinates": "original"}, build_macro_diversity),
    "fixed_assignment": (random_fa, {}, build_fixed_assignment),
    "multi_connection-bounded": (
        lambda rng: random_mc(rng, 0.5), {},
        lambda mc: build_multi_connection(mc, noiseless=False)),
    "multi_connection-exact_noiseless": (
        lambda rng: random_mc(rng, 0.5), {"noiseless": True},
        lambda mc: build_multi_connection(mc, noiseless=True)),
}


class TestLeaveOneOutMap:
    """The array map against the rule objects, which stay an independent reference."""

    @staticmethod
    def draws(case, count=8):
        draw, options, build = MAP_CASES[case]
        rng = np.random.default_rng(sorted(MAP_CASES).index(case) + 71)
        for _ in range(count):
            scenario = draw(rng)
            # every modulus is linear in the targets: rescale to lambda in [0.3, 0.95]
            lam = feasibility_formula(scenario, **options).modulus
            target = float(rng.uniform(0.3, 0.95))
            alphas = QosVector(tuple(a * target / lam for a in scenario.alphas))
            scenario = dataclasses.replace(scenario, alphas=alphas)
            yield rng, scenario, leave_one_out_map(scenario, **options), build(scenario), options

    @pytest.mark.parametrize("case", sorted(MAP_CASES))
    def test_step_matches_rule_objects(self, case):
        for rng, _, array_map, system, _ in self.draws(case):
            n = array_map.n
            points = [np.zeros(n), np.ones(n), *np.eye(n)]
            for _ in range(6):
                x = rng.uniform(0.5, 5.0, size=n)
                x[rng.random(n) < 0.4] = 0.0
                points.append(x)
            for x in points:
                step = array_map.step(x)
                np.testing.assert_allclose(step, system.step(x), rtol=1e-12, atol=0.0)
                assert np.all(step >= 0.0)

    @pytest.mark.parametrize("case", sorted(MAP_CASES))
    def test_certificate_is_the_formula_and_the_rule_modulus(self, case):
        for _, scenario, array_map, system, options in self.draws(case):
            certificate = contraction_modulus(array_map)
            assert certificate == feasibility_formula(scenario, **options)
            rules = contraction_modulus(system)
            np.testing.assert_allclose(
                certificate.per_terminal_modulus, rules.per_terminal_modulus, rtol=0.0, atol=1e-12
            )
            assert certificate.feasible == rules.feasible

    @pytest.mark.parametrize("case", sorted(MAP_CASES))
    def test_solve_matches_rule_objects(self, case):
        config = SolveConfig(tolerance=1e-10)
        for _, _, array_map, system, _ in self.draws(case, count=4):
            p_map, trace = solve(array_map, config)
            p_rules, _ = solve(system, config)
            assert trace.converged and trace.certified
            np.testing.assert_allclose(
                p_map.as_array(), p_rules.as_array(), rtol=0.0, atol=2 * config.tolerance
            )

    def test_rejects_wrong_length(self):
        sc = SingleCell(alphas=QosVector((0.3, 0.4)), gains=(1.0, 1.0), sigma=1.0)
        with pytest.raises(InvalidInputError):
            leave_one_out_map(sc).step(np.ones(3))


def random_single_cell_feasible_both(rng, target):
    """Targets scaled so both coordinate systems certify feasibility."""
    n = int(rng.integers(2, 6))
    alphas = rng.uniform(0.2, 1.0, size=n)
    sc = SingleCell(
        alphas=QosVector(tuple(alphas)),
        gains=tuple(rng.uniform(0.5, 2.0, size=n)),
        sigma=float(rng.uniform(0.1, 2.0)),
    )
    lam = max(
        feasibility_formula(sc, coordinates="original").modulus,
        feasibility_formula(sc, coordinates="transformed").modulus,
    )
    return SingleCell(
        alphas=QosVector(tuple(a * target / lam for a in alphas)),
        gains=sc.gains,
        sigma=sc.sigma,
    )


def random_md_feasible_both(rng, target):
    md = random_md(rng, target=0.5)
    lam = max(
        feasibility_formula(md, coordinates="original").modulus,
        feasibility_formula(md, coordinates="transformed").modulus,
    )
    scaled = QosVector(tuple(a * target / lam for a in md.alphas))
    return MacroDiversity(alphas=scaled, gains=md.gains, noise=md.noise)


class TestTransformConsistency:
    def test_twenty_random_systems(self):
        rng = np.random.default_rng(59)
        for trial in range(20):
            target = float(rng.uniform(0.3, 0.9))
            if trial % 2 == 0:
                sc = random_single_cell_feasible_both(rng, target)
                p, _ = solve(build_single_cell_received(sc), SolveConfig(tolerance=1e-12))
                q, _ = solve(build_single_cell_transformed(sc), SolveConfig(tolerance=1e-12))
                mapped = [pi / ai for pi, ai in zip(p, sc.alphas)]
            else:
                md = random_md_feasible_both(rng, target)
                p, _ = solve(build_macro_diversity(md), SolveConfig(tolerance=1e-12))
                q, _ = solve(build_macro_diversity_transformed(md), SolveConfig(tolerance=1e-12))
                mapped = [
                    hi * pi / ai for hi, pi, ai in zip(md.gains.row_sums, p, md.alphas)
                ]
            for qi, mi in zip(q, mapped):
                assert qi == pytest.approx(mi, rel=1e-8)


POLICY_CASES = [case for case in sorted(MAP_CASES) if case != "multi_connection-exact_noiseless"]
AFFINE_CASES = ("fixed_assignment", "single_cell-original", "single_cell-transformed")
MAX_CASES = ("macro_diversity-original", "macro_diversity-transformed", "multi_connection-bounded")


class TestPolicyIteration:
    """Untraced ``solve`` of a map that picks one receiver per terminal runs policy iteration."""

    config = SolveConfig(tolerance=1e-10)

    @staticmethod
    def draws(case, count=6):
        draw, options, build = MAP_CASES[case]
        rng = np.random.default_rng(sorted(MAP_CASES).index(case) + 113)
        for target in np.linspace(0.3, 0.99, count):
            scenario = draw(rng)
            lam = feasibility_formula(scenario, **options).modulus
            alphas = QosVector(tuple(a * target / lam for a in scenario.alphas))
            scenario = dataclasses.replace(scenario, alphas=alphas)
            yield leave_one_out_map(scenario, **options), build(scenario)

    def policy_solve(self, array_map, config=None):
        p, run = solve(array_map, config or self.config, trace=False)
        assert run.solver == "policy" and run.converged and run.certified
        assert run.iterations_used == len(run.deltas) >= 1
        return p.as_array()

    @pytest.mark.parametrize("case", AFFINE_CASES)
    def test_affine_maps_match_linear_oracle(self, case):
        for array_map, system in self.draws(case):
            exact = linear_oracle(*affine_parts(system)).as_array()
            np.testing.assert_allclose(self.policy_solve(array_map), exact, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("case", MAX_CASES)
    def test_max_maps_match_picard(self, case):
        for array_map, _ in self.draws(case):
            picard, trace = solve(array_map, self.config)
            assert isinstance(trace.iterates, np.ndarray)
            np.testing.assert_allclose(self.policy_solve(array_map), picard.as_array(),
                                       rtol=0.0, atol=2 * self.config.tolerance)

    @pytest.mark.parametrize("case", POLICY_CASES)
    def test_start_point_does_not_matter(self, case):
        for array_map, _ in self.draws(case, count=3):
            from_zero = self.policy_solve(array_map)
            above = PowerVector.full(array_map.n, 2.0 * float(from_zero.max()) + 1.0)
            from_above = self.policy_solve(array_map, dataclasses.replace(self.config, initial=above))
            np.testing.assert_allclose(from_above, from_zero, rtol=0.0,
                                       atol=2 * self.config.tolerance)

    @pytest.mark.parametrize("case", POLICY_CASES)
    def test_residual_bound_holds(self, case):
        for array_map, system in self.draws(case):
            lam = contraction_modulus(array_map).modulus
            p = self.policy_solve(array_map)
            assert sup_norm(array_map.step(p) - p) <= self.config.tolerance * (1.0 - lam)
            # the rule objects, rounding their own way, agree within the tolerance
            assert sup_norm(system.step(p) - p) <= self.config.tolerance

    def test_order_statistics_and_forced_runs_keep_picard(self):
        for case, force in (("multi_connection-exact_noiseless", False),
                            ("macro_diversity-transformed", True)):
            for array_map, _ in self.draws(case, count=2):
                traced_p, trace = solve(array_map, self.config, force=force)
                p, run = solve(array_map, self.config, force=force, trace=False)
                assert run.solver == "picard" and not hasattr(run, "iterates")
                assert p == traced_p and run.deltas == trace.deltas
                assert (run.converged, run.certified) == (trace.converged, trace.certified)
        assert leave_one_out_map(random_mc(np.random.default_rng(1), 0.5),
                                 noiseless=True).receiver_weights is None

    def test_untraced_divergence_keeps_no_iterates(self):
        array_map = leave_one_out_map(symmetric_md(1.5))
        with pytest.raises(NonConvergenceError) as excinfo:
            solve(array_map, SolveConfig(max_iter=300), force=True, trace=False)
        run = excinfo.value.trace
        assert run.solver == "picard" and not run.converged and not run.certified
        assert run.iterations_used == 300

    def test_certified_once_per_map(self):
        array_map = leave_one_out_map(symmetric_md(0.9))
        assert contraction_modulus(array_map) is array_map.certificate()

    def test_unattainable_tolerance_names_the_floor(self):
        rng = np.random.default_rng(5)
        md = random_md(rng, 0.5)
        lam = feasibility_formula(md).modulus
        md = dataclasses.replace(md, alphas=QosVector(tuple(a * 0.9999 / lam for a in md.alphas)))
        array_map = leave_one_out_map(md)
        with pytest.raises(InvalidInputError) as excinfo:
            solve(array_map, SolveConfig(tolerance=1e-15), trace=False)
        message = str(excinfo.value)
        assert "\n" not in message and "smallest attainable tolerance" in message
        floor = float(message.split("smallest attainable tolerance is ")[1].split()[0])
        assert 1e-15 < floor < 1e-9
        self.policy_solve(array_map, SolveConfig(tolerance=floor))
