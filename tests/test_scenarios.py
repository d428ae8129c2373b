import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powerfeas.core import (
    InvalidInputError,
    NonConvergenceError,
    PowerVector,
)
from powerfeas.capacity import hanly as hanly_verdicts
from powerfeas.engine import SolveConfig, contraction_modulus, solve
from powerfeas.maps import LeaveOneOutMap, leave_one_out_map
from powerfeas.scenarios import (
    FixedAssignment,
    MacroDiversity,
    MultiConnection,
    SingleCell,
    feasibility_formula,
)
from reference import (
    MinSelectionRule,
    affine_parts,
    build_fixed_assignment,
    build_macro_diversity,
    build_macro_diversity_transformed,
    build_multi_connection,
    build_single_cell_received,
    build_single_cell_transformed,
    dominate,
    kth_smallest,
    linear_oracle,
    macro_diversity_exact_update,
    mc_exact_rules_in_bounded_coords,
    sup_norm,
)
from powerfeas.maps import _loo_sums, _reduce, _sums
from powerfeas.scenarios import _coefficients, _point_sums

ASYMMETRIC_GAINS = ((2.0, 1.0), (1.0, 2.0), (1.0, 1.0))  # relative 2/3,1/3 | 1/3,2/3 | 1/2,1/2


def with_alphas(scenario, alphas):
    """The same scenario at other targets, through its constructor."""
    rest = {SingleCell: ("gains", "sigma"), MacroDiversity: ("gains", "noise"),
            FixedAssignment: ("gains", "assignment", "noise"), MultiConnection: ("gains", "d", "noise")}
    return type(scenario)(alphas, *(getattr(scenario, name) for name in rest[type(scenario)]))


def symmetric_md(alpha, n=3, k=2):
    return MacroDiversity(
        alphas=(alpha,) * n,
        gains=((1.0,) * k,) * n,
        noise=(1.0,) * k,
    )


def random_md(rng, target):
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, 5))
    gains = rng.uniform(0.1, 2.0, size=(n, k))
    alphas = rng.uniform(0.2, 1.0, size=n)
    md = MacroDiversity(
        alphas=tuple(alphas),
        gains=tuple(map(tuple, gains)),
        noise=tuple(rng.uniform(0.1, 1.0, size=k)),
    )
    lam = feasibility_formula(md).modulus
    scaled = tuple(a * target / lam for a in alphas)
    return MacroDiversity(alphas=scaled, gains=md.gains, noise=md.noise)


def random_mc(rng, target):
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, 5))
    gains = rng.uniform(0.05, 2.0, size=(k, n))
    d = tuple(int(rng.integers(1, k + 1)) for _ in range(n))
    alphas = rng.uniform(0.2, 1.0, size=n)
    mc = MultiConnection(
        alphas=tuple(alphas),
        gains=tuple(map(tuple, gains)),
        d=d,
        noise=tuple(rng.uniform(0.1, 1.0, size=k)),
    )
    lam = feasibility_formula(mc, noiseless=False).modulus
    scaled = tuple(a * target / lam for a in alphas)
    return MultiConnection(alphas=scaled, gains=mc.gains, d=d, noise=mc.noise)


# The property suite. Each case is one of the seven maps, (scenario kind, map options, the
# reference's rule-object build); hypothesis draws its scenarios, and the properties below
# check the array map, the closed form and both solvers against the reference, never a kernel
# against itself. The draws are derandomized: every run checks the same examples.
CASES = {
    "single_cell-transformed": ("single_cell", {}, build_single_cell_transformed),
    "single_cell-original": ("single_cell", {"coordinates": "original"}, build_single_cell_received),
    "macro_diversity-transformed": ("macro_diversity", {}, build_macro_diversity_transformed),
    "macro_diversity-original": ("macro_diversity", {"coordinates": "original"}, build_macro_diversity),
    "fixed_assignment": ("fixed_assignment", {}, build_fixed_assignment),
    "multi_connection-bounded": ("multi_connection", {}, partial(build_multi_connection, noiseless=False)),
    "multi_connection-exact_noiseless": (
        "multi_connection", {"noiseless": True}, partial(build_multi_connection, noiseless=True)),
}
PROPERTY = settings(max_examples=10, derandomize=True, deadline=None, database=None)


@st.composite
def scenarios_of(draw, kind):
    """A ``kind`` scenario of N <= 6 terminals and K <= 4 receivers, every gain positive."""
    n, k = draw(st.integers(2, 6)), 1 if kind == "single_cell" else draw(st.integers(1, 4))

    def values(size, low, high, kind=st.floats):
        return tuple(draw(st.lists(kind(low, high), min_size=size, max_size=size)))

    alphas, noise = values(n, 0.2, 1.0), values(k, 0.1, 1.0)
    if kind == "single_cell":
        return SingleCell(alphas, values(n, 0.5, 2.0), draw(st.floats(0.1, 2.0)))
    if kind == "macro_diversity":
        return MacroDiversity(alphas, [values(k, 0.1, 2.0) for _ in range(n)], noise)
    gains = [values(n, 0.05, 2.0) for _ in range(k)]
    if kind == "fixed_assignment":
        return FixedAssignment(alphas, gains, values(n, 0, k - 1, st.integers), noise)
    return MultiConnection(alphas, gains, values(n, 1, k, st.integers), noise)


def scaled(scenario, lam, *options):
    """``scenario`` at targets whose largest modulus over ``options`` is ``lam`` (moduli are linear in them)."""
    top = max(feasibility_formula(scenario, **o).modulus for o in options)
    return with_alphas(scenario, tuple(a * lam / top for a in scenario.alphas))


@st.composite
def map_cases(draw, case, top=0.95):
    """(scenario, array map, rule-object System) of ``case`` at a modulus lambda in [0.3, top]."""
    kind, options, build = CASES[case]
    scenario = scaled(draw(scenarios_of(kind)), draw(st.floats(0.3, top)), options)
    return scenario, leave_one_out_map(scenario, **options), build(scenario)


def points(n, high=5.0):
    """Non-negative power vectors of length n, zeros included."""
    return st.lists(st.just(0.0) | st.floats(0.05, high), min_size=n, max_size=n).map(np.array)


PLAIN = {
    "single_cell": (SingleCell, ((0.3, 0.4), (1.0, 2.0), 1.0)),
    "macro_diversity": (MacroDiversity, ((0.3, 0.4), ((1.0, 0.5), (0.5, 1.0)), (1.0, 2.0))),
    "fixed_assignment": (FixedAssignment, ((0.3, 0.4), ((1.0, 0.5), (0.5, 1.0)), (0, 1), (1.0, 2.0))),
    "multi_connection": (MultiConnection, ((0.3, 0.4), ((1.0, 0.5), (0.5, 1.0)), (1, 2), (1.0, 2.0))),
}


@pytest.mark.parametrize("kind", list(PLAIN))
def test_constructors_take_tuples_lists_and_arrays(kind):
    make, args = PLAIN[kind]
    scenario = make(*args)
    for convert in (lambda v: np.array(v).tolist(), np.array):
        other = make(*(convert(v) if isinstance(v, tuple) else v for v in args))
        assert other == scenario
        for name in ("alphas", "gains", "noise"):
            value = getattr(other, name, ())
            rows = value if value and type(value[0]) is tuple else (value,)
            assert type(value) is tuple and all(type(v) is float for row in rows for v in row), name


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
        sc = SingleCell(alphas=(0.3, 0.4), gains=(1.0, 1.0), sigma=1.0)
        system = build_single_cell_received(sc)
        assert system.rules[0].f.weights == (0.3,)
        assert system.rules[0].offset == pytest.approx(0.3)
        assert system.rules[1].f.weights == (0.4,)
        assert system.rules[1].offset == pytest.approx(0.4)

    def test_zero_target_rejected_by_type(self):
        with pytest.raises(InvalidInputError, match="^SingleCell: target for terminal 1 "):
            SingleCell((0.0, 0.0), (1.0, 1.0), 1.0)

    def test_three_terminal_moduli(self):
        sc = SingleCell(alphas=(0.4,) * 3, gains=(1.0,) * 3, sigma=0.5)
        report = contraction_modulus(build_single_cell_received(sc))
        # each target below 1/(N-1) = 0.5, so the per-terminal condition holds too
        assert report.per_terminal_modulus == pytest.approx((0.8,) * 3, abs=1e-15)
        assert report.feasible


class TestSingleCellTransformed:
    def test_flexible_beyond_per_terminal_bound(self):
        sc = SingleCell(alphas=(0.6, 0.3, 0.2), gains=(1.0,) * 3, sigma=1.0)
        transformed = contraction_modulus(build_single_cell_transformed(sc))
        assert transformed.per_terminal_modulus == pytest.approx((0.5, 0.8, 0.9), abs=1e-15)
        assert transformed.feasible
        # 0.6 > 1/(N-1): the received-coordinate certificate fails on the same system
        received = contraction_modulus(build_single_cell_received(sc))
        assert not received.feasible

    def test_boundary_sum(self):
        sc = SingleCell(alphas=(0.5, 0.5, 0.1), gains=(1.0,) * 3, sigma=1.0)
        report = contraction_modulus(build_single_cell_transformed(sc))
        assert report.per_terminal_modulus[2] == pytest.approx(1.0, abs=1e-15)
        assert not report.feasible

    def test_fixed_points_related_by_target_scaling(self):
        sc = SingleCell(alphas=(0.3, 0.4), gains=(1.0, 1.0), sigma=1.0)
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
            alphas=(0.3, 0.5, 0.4, 0.2),
            gains=tuple(map(tuple, gains)),
            noise=(0.5, 1.0, 0.2),
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
            alphas=(0.6, 0.3, 0.2),
            gains=((2.0,), (1.0,), (0.5,)),
            noise=(1.0,),
        )
        md_report = contraction_modulus(build_macro_diversity_transformed(md))
        sc = SingleCell(alphas=md.alphas, gains=(2.0, 1.0, 0.5), sigma=1.0)
        sc_report = contraction_modulus(build_single_cell_transformed(sc))
        assert md_report.per_terminal_modulus == pytest.approx(
            sc_report.per_terminal_modulus, abs=1e-15
        )

    def test_asymmetric_boundary_point(self):
        md = MacroDiversity(
            alphas=(1.0, 1.0, 2.0 / 3.0),
            gains=ASYMMETRIC_GAINS,
            noise=(1.0, 1.0),
        )
        report = contraction_modulus(build_macro_diversity_transformed(md))
        assert abs(report.modulus - 1.0) <= 1e-12
        assert not report.feasible

    def test_asymmetric_inequalities(self):
        # receiver-1 pairs: (2/3)a1 + (1/3)a2, (1/3)a1 + ... per leave-one-out
        md = MacroDiversity(
            alphas=(0.9, 0.6, 0.5),
            gains=ASYMMETRIC_GAINS,
            noise=(1.0, 1.0),
        )
        report = contraction_modulus(build_macro_diversity_transformed(md))
        g = md.relative
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
            h_i = md.row_sums[i]
            assert q[i] == pytest.approx(h_i * p[i] / md.alphas[i], rel=1e-9)

    @PROPERTY
    @given(data=st.data())
    def test_bounded_update_overestimates_exact_update(self, data):
        # the array map's bounded transmit-power step against the reference's exact one
        md, array_map, _ = data.draw(map_cases("macro_diversity-original"))
        powers = data.draw(st.lists(st.floats(0.05, 5.0), min_size=md.n, max_size=md.n).map(np.array))
        assert np.all(array_map.step(powers) >= macro_diversity_exact_update(md, powers) - 1e-12)


class TestFixedAssignment:
    def test_single_receiver_equals_received_single_cell(self):
        qos = (0.3, 0.4)
        fa = FixedAssignment(
            alphas=qos,
            gains=((1.0, 1.0),),
            assignment=(0, 0),
            noise=(1.0,),
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
            alphas=(0.9, 0.8),
            gains=((1.0, 0.0), (0.0, 2.0)),
            assignment=(0, 1),
            noise=(1.0, 1.0),
        )
        system = build_fixed_assignment(fa)
        report = contraction_modulus(system)
        assert report.per_terminal_modulus == (0.0, 0.0)
        fixed_point, _ = solve(system)
        assert fixed_point.p == pytest.approx((0.9, 0.8 / 2.0), abs=1e-15)

    def test_cross_gain_modulus(self):
        fa = FixedAssignment(
            alphas=(0.5, 0.25),
            gains=((2.0, 0.5), (0.4, 1.0)),
            assignment=(0, 1),
            noise=(1.0, 1.0),
        )
        report = contraction_modulus(build_fixed_assignment(fa))
        assert report.per_terminal_modulus[0] == pytest.approx(0.5 * 0.5 / 2.0, abs=1e-15)
        assert report.per_terminal_modulus[1] == pytest.approx(0.25 * 0.4 / 1.0, abs=1e-15)

    def test_zero_gain_to_assigned_receiver_rejected(self):
        with pytest.raises(InvalidInputError):
            FixedAssignment(
                alphas=(0.5, 0.5),
                gains=((0.0, 1.0), (1.0, 1.0)),
                assignment=(0, 1),
                noise=(1.0, 1.0),
            )


class TestMultiConnection:
    def test_diversity_order_out_of_range(self):
        with pytest.raises(InvalidInputError):
            MultiConnection(
                alphas=(0.5, 0.5),
                gains=((1.0, 1.0), (1.0, 1.0)),
                d=(3, 1),
                noise=(1.0, 1.0),
            )

    def test_exact_condition_uses_order_statistic(self):
        # with d_j = 3 the third-smallest per-receiver sum is the modulus
        rng = np.random.default_rng(12)
        gains = rng.uniform(0.2, 2.0, size=(4, 3))
        mc = MultiConnection(
            alphas=(0.4, 0.3, 0.5),
            gains=tuple(map(tuple, gains)),
            d=(3, 1, 2),
            noise=(1.0,) * 4,
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
            alphas=(0.4, 0.3),
            gains=gains,
            d=(2, 1),
            noise=(1.0, 0.5, 2.0),
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
                alphas=(0.5, 0.5),
                gains=((1.0, 0.0), (1.0, 0.0)),
                d=(1, 1),
                noise=(1.0, 1.0),
            )

    def test_order_one_uses_best_receiver(self):
        gains = ((1.0, 0.2), (0.3, 2.0))
        mc = MultiConnection(
            alphas=(0.5, 0.5),
            gains=gains,
            d=(1, 1),
            noise=(1.0, 1.0),
        )
        assert mc.reference_gains[0] == 1.0
        assert mc.reference_gains[1] == 2.0
        assert mc.reference_gains == (1.0, 2.0)

    def test_exact_mode_has_no_offset(self):
        mc = MultiConnection(
            alphas=(0.5, 0.5),
            gains=((1.0, 1.0), (2.0, 0.5)),
            d=(1, 1),
            noise=(1.0, 1.0),
        )
        exact = build_multi_connection(mc, noiseless=True)
        assert all(rule.offset == 0.0 for rule in exact.rules)
        bounded = build_multi_connection(mc, noiseless=False)
        assert all(rule.offset == max(mc.noise) for rule in bounded.rules)

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
                alphas=tuple(a * scale for a in mc.alphas),
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

    @PROPERTY
    @given(data=st.data())
    def test_bounded_rule_dominates_exact_rule_pointwise(self, data):
        # and the sup-norm domination bound dominates the exact rule too
        mc, _, bounded = data.draw(map_cases("multi_connection-bounded"))
        x = data.draw(points(mc.n - 1, high=10.0))
        for j, exact in enumerate(mc_exact_rules_in_bounded_coords(mc)):
            assert bounded.rules[j].f(x) >= exact(x) - 1e-12
            assert dominate(exact, mc.n - 1)(x) >= exact(x) - 1e-12

    def test_domination_survives_zero_gains(self):
        gains = ((1.0, 0.0, 0.5), (0.5, 2.0, 0.0), (0.0, 1.0, 1.5))
        mc = MultiConnection(
            alphas=(0.4, 0.3, 0.2),
            gains=gains,
            d=(2, 1, 2),
            noise=(1.0, 1.0, 1.0),
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
    return bool(hanly_verdicts(np.array([alphas]), receivers)[0])


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
    def test_symmetric_reduces_to_leave_one_out_sum_vs_receivers(self):
        # with g = 1/K the transformed condition is sum_{n != i} alpha_n < K
        md = symmetric_md(0.99, n=3, k=2)
        report = feasibility_formula(md)
        alphas = np.array(md.alphas)
        for i in range(3):
            loo = alphas.sum() - alphas[i]
            assert report.per_terminal_modulus[i] == pytest.approx(loo / 2.0, rel=1e-14)

    def test_degenerate_third_receiver_condition_unchanged(self):
        degenerate = MacroDiversity(
            alphas=(0.9, 0.9, 0.1),
            gains=((1.0, 1.0, 0.0),) * 3,
            noise=(1.0, 1.0, 1.0),
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
        assert hanly(np.array(degenerate.alphas), 3)


class TestLeaveOneOutSums:
    """The pure-Python point recipe (``check``) against the cumsum batch (``region``)."""

    @staticmethod
    def draws(count=40):
        rng = np.random.default_rng(41)
        for _ in range(count):
            n, k, p = int(rng.integers(1, 70)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
            G = rng.lognormal(size=(k, n)) * (rng.random((k, n)) < 0.8)
            pts = np.vstack([np.ones(n), rng.lognormal(size=(p, n)), np.eye(n)])
            yield G, pts

    def test_point_and_batch_agree_bit_for_bit(self):
        for G, pts in self.draws():
            batch = _loo_sums(G, pts.T)  # every point evaluated inside one mixed batch
            for q, x in enumerate(pts):
                point = np.array(_point_sums(G.tolist(), x.tolist()))
                assert point.tobytes() == np.ascontiguousarray(batch[:, :, q].T).tobytes()

    def test_within_the_summation_bound_of_the_exact_sum(self):
        # non-negative terms: |s - exact| <= gamma_{N-2} * exact (Higham, 2002, 4.2)
        u = Fraction(1, 2 ** 53)
        for G, pts in self.draws(count=12):
            n = G.shape[1]
            gamma = (n - 2) * u / (1 - (n - 2) * u) if n > 2 else 0
            sums = _loo_sums(G, pts[:2].T)
            for q, x in enumerate(pts[:2]):
                terms = [list(map(Fraction, row)) for row in (G * x).tolist()]  # the kernel's products
                for j in range(n):
                    for r, row in enumerate(terms):
                        exact = sum(row[:j]) + sum(row[j + 1:])
                        assert abs(Fraction(sums[j, r, q]) - exact) <= gamma * exact


class TestIterationSums:
    """``_sums``, the iteration's order, against exact sums of its own products."""

    @pytest.mark.parametrize("row", ["uniform", "skewed"])
    def test_within_the_stated_bound(self, row):
        # |s - exact| <= gamma_{N-1} * (row total) + u * s (Higham, 2002, 2.2 and 4.2)
        rng = np.random.default_rng(43)
        n, own = 300, 7
        x = rng.uniform(0.5, 2.0, size=n)
        G = rng.uniform(0.1, 1.0, size=(1, n))
        if row == "skewed":  # one term 1e6 times the rest of its row
            rest = float((G * x).sum()) - float(G[0, own] * x[own])
            G[0, own] = 1e6 * rest / x[own]
        sums = _sums(G, x)[:, 0]
        u = Fraction(1, 2 ** 53)
        gamma = (n - 1) * u / (1 - (n - 1) * u)
        terms = [Fraction(t) for t in (G * x)[0].tolist()]  # the routine's products
        total = sum(terms)
        errors = [abs(Fraction(s) - (total - t)) for s, t in zip(sums.tolist(), terms)]
        for error, s in zip(errors, sums.tolist()):
            assert error <= gamma * total + u * Fraction(s)
        if row == "skewed":  # the total's error lands on the small sum that leaves the big term out
            assert errors[own] > 1000 * u * Fraction(float(sums[own]))


LAYOUT_CASES = ("fixed_assignment", "macro_diversity-transformed",
                "multi_connection-exact_noiseless")


def large_scenario(case, rng, n=200, k=8, lam=0.95):
    """N terminals, K receivers, equal targets scaled to modulus ``lam``."""
    ones = (1.0,) * n
    noise = (1.0,) * k
    if case == "macro_diversity-transformed":
        gains = tuple(map(tuple, rng.uniform(0.1, 1.0, (n, k))))
        scenario = MacroDiversity(ones, gains, noise)
    elif case == "fixed_assignment":
        gains = rng.uniform(0.05, 2.0, (k, n))
        scenario = FixedAssignment(ones, tuple(map(tuple, gains)),
                                   tuple(gains.argmax(axis=0).tolist()), noise)
    else:
        scenario = MultiConnection(ones, tuple(map(tuple, rng.uniform(0.05, 2.0, (k, n)))),
                                   tuple(rng.integers(1, k + 1, n).tolist()), noise)
    options = CASES[case][1]
    unit = feasibility_formula(scenario, **options).modulus
    return with_alphas(scenario, (lam / unit,) * n), options


@pytest.mark.parametrize("case", LAYOUT_CASES)
def test_map_results_do_not_depend_on_memory_layout(case):
    # one map from C-order and from Fortran-order arrays: both sum each receiver's terms as
    # one contiguous row, pairwise, whatever layout they were given, so the same bits
    rng = np.random.default_rng(LAYOUT_CASES.index(case) + 131)
    scenario, options = large_scenario(case, rng)
    c_map = leave_one_out_map(scenario, **options)
    fortran = {name: np.asfortranarray(getattr(c_map, name))
               for name in ("G", "W") if getattr(c_map, name) is not None}
    f_map = LeaveOneOutMap(fortran.get("G", c_map.G), c_map.c, fortran.get("W", c_map.W),
                           c_map.order, c_map.names_receiver)
    W, order = (None if v is None else np.array(v) for v in (c_map.W, c_map.order))
    for x in (np.ones(c_map.n), *rng.uniform(0.0, 50.0, (4, c_map.n))):
        terms = [np.array(row) * x for row in c_map.G]  # one 1-D array per receiver
        rows = _reduce(np.array([t.sum() - t for t in terms]).T, W, order) + np.array(c_map.c)
        assert c_map.step(x).tobytes() == f_map.step(x).tobytes() == rows.tobytes()
    # start above p* = 0 too, so the exact noiseless map iterates
    config = SolveConfig(initial=PowerVector.full(c_map.n, 1.0))
    (p_c, trace_c), (p_f, trace_f) = solve(c_map, config), solve(f_map, config)
    assert trace_c.iterations_used > 10
    assert trace_c.iterates.tobytes() == trace_f.iterates.tobytes() and p_c == p_f
    untraced = [solve(m, config, trace=False) for m in (c_map, f_map)]
    assert untraced[0][1].solver == ("picard" if "exact" in case else "policy")
    assert untraced[0][0] == untraced[1][0]


@pytest.mark.parametrize("kind", ["fixed_assignment", "exact_noiseless"])
def test_weighted_moduli_lie_within_four_ulp_of_exact(kind):
    # the two kinds whose weights are not 1: (alpha_j / own gain) * s and (1 / h) * s, with
    # the moduli computed in rationals from the scenario's own targets and gains
    rng = np.random.default_rng(43)
    n, k = 40, 4
    gains = rng.uniform(0.05, 1.0, (k, n))
    served = rng.integers(0, k, n)
    zero = rng.random((k, n)) < 0.3
    zero[served, np.arange(n)] = False  # every terminal keeps one receiver in range
    gains[zero] = 0.0
    alphas = tuple(rng.uniform(0.002, 0.02, n).tolist())
    noise = (0.0,) * k  # c = 0, so step(1) is the reduction alone
    gain_rows = tuple(map(tuple, gains.tolist()))
    a, G = list(map(Fraction, alphas)), [list(map(Fraction, row)) for row in gain_rows]
    if kind == "fixed_assignment":
        scenario = FixedAssignment(alphas, gain_rows, tuple(served.tolist()), noise)
        exact = [a[j] * (sum(G[r]) - G[r][j]) / G[r][j] for j, r in enumerate(served.tolist())]
    else:
        d = np.minimum(rng.integers(1, 4, n), (~zero).sum(axis=0))
        scenario = MultiConnection(alphas, gain_rows, tuple(d.tolist()), noise)
        exact = []
        for j, rank in enumerate(d.tolist()):
            # a receiver out of range (h = 0) is never selected: it is not among the candidates
            ratios = [(sum(map(Fraction.__mul__, a, row)) - a[j] * row[j]) / row[j]
                      for row in G if row[j] > 0]
            exact.append(sorted(ratios)[rank - 1])
    options = {"noiseless": kind == "exact_noiseless"}
    assert zero.any() and all(e > 0 for e in exact)
    moduli = feasibility_formula(scenario, **options).per_terminal_modulus
    for value, e in zip(moduli, exact):
        assert abs(Fraction(value) - e) <= 4 * Fraction(math.ulp(float(e)))
    # numpy's reduction selects the same receivers; its total-minus-own sums round differently
    step = leave_one_out_map(scenario, **options).step(np.ones(n))
    np.testing.assert_allclose(step, [float(e) for e in exact], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("case", ["single_cell-original", "macro_diversity-original", "fixed_assignment"])
@PROPERTY
@given(data=st.data())
def test_weights_are_the_per_row_quotients(case, data):
    # W[k][j] = alpha_j / D[k][j], bit for bit, however many divisor rows share one list
    kind, options, _ = CASES[case]
    scenario = data.draw(scenarios_of(kind))
    _, _, W, _, _, D = _coefficients(scenario, **options)
    per_row = [[a / d for a, d in zip(scenario.alphas, row)] for row in D]
    assert [[w.hex() for w in row] for row in W] == [[w.hex() for w in row] for row in per_row]
    if case == "macro_diversity-original":  # K divisor rows that are one list give one W row
        assert all(row is D[0] for row in D) and all(row is W[0] for row in W)


@pytest.mark.parametrize("kind", ["fixed_assignment", "exact_noiseless"])
def test_weights_beyond_float_range_are_rejected(kind):
    # W = alpha / 5e-324 or 1 / 5e-324 is inf, and inf times the zero sum at receiver 1 is NaN
    gains, noise = ((5e-324, 0.0, 0.0), (1.0, 1.0, 1.0)), (0.0, 0.0)
    alphas = (0.3,) * 3
    if kind == "fixed_assignment":
        scenario = FixedAssignment(alphas, gains, (0, 1, 1), noise)
    else:
        scenario = MultiConnection(alphas, gains, (1, 1, 1), noise)
    with pytest.raises(InvalidInputError, match="exceeds the float64 range"):
        feasibility_formula(scenario, noiseless=kind == "exact_noiseless")


class TestLeaveOneOutMap:
    """The array map against the rule objects, which stay an independent reference."""

    @pytest.mark.parametrize("case", sorted(CASES))
    @PROPERTY
    @given(data=st.data())
    def test_step_matches_rule_objects(self, case, data):
        _, array_map, system = data.draw(map_cases(case))
        n = array_map.n
        for x in (np.zeros(n), np.ones(n), *np.eye(n), data.draw(points(n))):
            step = array_map.step(x)
            np.testing.assert_allclose(step, system.step(x), rtol=1e-12, atol=0.0)
            assert np.all(step >= 0.0)

    @pytest.mark.parametrize("case", sorted(CASES))
    @PROPERTY
    @given(data=st.data())
    def test_certificate_is_the_formula_and_the_rule_modulus(self, case, data):
        scenario, array_map, system = data.draw(map_cases(case, top=1.4))  # infeasible ones too
        certificate = contraction_modulus(array_map)
        assert certificate == feasibility_formula(scenario, **CASES[case][1])
        rules = contraction_modulus(system)
        np.testing.assert_allclose(
            certificate.per_terminal_modulus, rules.per_terminal_modulus, rtol=0.0, atol=1e-12
        )
        # within that 1e-12 of 1 the two roundings may fall on either side of the strict boundary
        # (a fixed assignment at exact modulus 1 - 2.9e-17: certificate 1.0, rules 1 - 2**-53)
        if abs(rules.modulus - 1.0) > 1e-12:
            assert certificate.feasible == rules.feasible
        if case == "macro_diversity-transformed":  # the binding pair attains the modulus in the rules
            term, receiver = certificate.binding
            inner = system.rules[term].f.inner_values(np.ones(array_map.n - 1))
            assert abs(inner[receiver] - rules.modulus) <= 1e-12

    @pytest.mark.parametrize("case", sorted(CASES))
    @PROPERTY
    @given(data=st.data())
    def test_solve_matches_rule_objects(self, case, data):
        _, array_map, system = data.draw(map_cases(case))
        config = SolveConfig(tolerance=1e-10)
        p_map, trace = solve(array_map, config)
        p_rules, _ = solve(system, config)
        assert trace.converged and trace.certified
        np.testing.assert_allclose(
            p_map.as_array(), p_rules.as_array(), rtol=0.0, atol=2 * config.tolerance
        )

    def test_rejects_wrong_length(self):
        sc = SingleCell(alphas=(0.3, 0.4), gains=(1.0, 1.0), sigma=1.0)
        with pytest.raises(InvalidInputError):
            leave_one_out_map(sc).step(np.ones(3))

    @pytest.mark.parametrize("field, value", [
        ("G", ((-1.0, -1.0),)), ("G", ((math.nan, 1.0),)), ("G", ((math.inf, 1.0),)),
        ("c", (1.0, -0.5)), ("c", (math.nan, 1.0)),
        ("W", ((1.0, -1.0),)), ("W", ((math.inf, 1.0),)),
    ])
    def test_rejects_negative_and_non_finite_coefficients(self, field, value):
        # G = -1 would certify the modulus -1 as feasible; a NaN gain gives NaN moduli
        fields = {"G": ((1.0, 1.0),), "c": (1.0, 1.0), field: value}
        with pytest.raises(InvalidInputError, match=f"{field} entries must be finite and >= 0"):
            LeaveOneOutMap(**fields)

    def test_rejects_a_map_without_receiver_rows(self):
        # the certificate and untraced solve read G[0]: an IndexError before this check
        with pytest.raises(InvalidInputError, match="at least one receiver row"):
            LeaveOneOutMap(G=(), c=(1.0, 1.0))

    def test_each_terminal_needs_enough_weighted_receivers(self):
        G = ((1.0, 1.0), (1.0, 1.0))
        with pytest.raises(InvalidInputError, match="receivers with W > 0"):
            LeaveOneOutMap(G, (0.0, 0.0), W=((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(InvalidInputError, match="receivers with W > 0"):
            LeaveOneOutMap(G, (0.0, 0.0), W=((1.0, 1.0), (0.0, 1.0)), order=(2, 2))
        assert LeaveOneOutMap(G, (0.0, 0.0), W=((1.0, 1.0), (0.0, 1.0)), order=(1, 2)).step(
            np.ones(2)).tolist() == [1.0, 1.0]


class TestTransformConsistency:
    @settings(PROPERTY, max_examples=20)
    @given(data=st.data())
    def test_twenty_random_systems(self, data):
        # solve's powers in original and transformed coordinates: q_j = h_j * p_j / alpha_j, with
        # h_j the gain row sum in macro diversity and 1 in a single cell (received powers)
        kind = data.draw(st.sampled_from(["single_cell", "macro_diversity"]))
        options = ({"coordinates": "original"}, {"coordinates": "transformed"})
        scenario = scaled(data.draw(scenarios_of(kind)), data.draw(st.floats(0.3, 0.95)), *options)
        p, q = (solve(leave_one_out_map(scenario, **o), SolveConfig(tolerance=1e-12), trace=False)[0]
                for o in options)
        h = scenario.row_sums if kind == "macro_diversity" else (1.0,) * scenario.n
        for qi, pi, hi, ai in zip(q, p, h, scenario.alphas):
            assert qi == pytest.approx(hi * pi / ai, rel=1e-8)


POLICY_CASES = [case for case in sorted(CASES) if case != "multi_connection-exact_noiseless"]
AFFINE_CASES = ("fixed_assignment", "single_cell-original", "single_cell-transformed")
MAX_CASES = ("macro_diversity-original", "macro_diversity-transformed", "multi_connection-bounded")


class TestPolicyIteration:
    """Untraced ``solve`` of a map that picks one receiver per terminal runs policy iteration."""

    config = SolveConfig(tolerance=1e-10)

    @staticmethod
    def draw(data, case):
        """(array map, rule-object System) of ``case`` at lambda up to 0.99: policy iteration's cost stays flat."""
        return data.draw(map_cases(case, top=0.99))[1:]

    def policy_solve(self, array_map, config=None):
        p, run = solve(array_map, config or self.config, trace=False)
        assert run.solver == "policy" and run.converged and run.certified
        assert run.iterations_used == len(run.deltas) >= 1
        return p.as_array()

    @pytest.mark.parametrize("case", AFFINE_CASES)
    @PROPERTY
    @given(data=st.data())
    def test_affine_maps_match_linear_oracle(self, case, data):
        array_map, system = self.draw(data, case)
        exact = linear_oracle(*affine_parts(system)).as_array()
        np.testing.assert_allclose(self.policy_solve(array_map), exact, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("case", MAX_CASES)
    @PROPERTY
    @given(data=st.data())
    def test_max_maps_match_picard(self, case, data):
        array_map, _ = self.draw(data, case)
        picard, trace = solve(array_map, self.config, force=True)
        assert trace.solver == "picard" and isinstance(trace.iterates, np.ndarray)
        np.testing.assert_allclose(self.policy_solve(array_map), picard.as_array(),
                                   rtol=0.0, atol=2 * self.config.tolerance)

    @pytest.mark.parametrize("case", POLICY_CASES)
    @settings(PROPERTY, max_examples=5)
    @given(data=st.data())
    def test_start_point_does_not_matter(self, case, data):
        array_map, _ = self.draw(data, case)
        from_zero = self.policy_solve(array_map)
        above = PowerVector.full(array_map.n, 2.0 * float(from_zero.max()) + 1.0)
        from_above = self.policy_solve(array_map, SolveConfig(self.config.tolerance, self.config.max_iter, above))
        np.testing.assert_allclose(from_above, from_zero, rtol=0.0, atol=2 * self.config.tolerance)

    @pytest.mark.parametrize("case", POLICY_CASES)
    @PROPERTY
    @given(data=st.data())
    def test_residual_bound_holds(self, case, data):
        array_map, system = self.draw(data, case)
        lam = contraction_modulus(array_map).modulus
        p = self.policy_solve(array_map)
        assert sup_norm(array_map.step(p) - p) <= self.config.tolerance * (1.0 - lam)
        # the rule objects, rounding their own way, agree within the tolerance
        assert sup_norm(system.step(p) - p) <= self.config.tolerance

    @settings(PROPERTY, max_examples=4)
    @given(data=st.data())
    def test_order_statistics_and_forced_runs_keep_picard(self, data):
        for case, force in (("multi_connection-exact_noiseless", False),
                            ("macro_diversity-transformed", True)):
            array_map, _ = self.draw(data, case)
            traced_p, trace = solve(array_map, self.config, force=force)
            p, run = solve(array_map, self.config, force=force, trace=False)
            assert run.solver == "picard" and run.iterates is None
            assert p == traced_p and run.deltas == trace.deltas
            assert (run.converged, run.certified) == (trace.converged, trace.certified)
        assert leave_one_out_map(random_mc(np.random.default_rng(1), 0.5),
                                 noiseless=True).receiver_weights is None

    def test_greedy_start_at_the_first_step(self):
        # at p = 0 every receiver ties; at T(0) = c the greedy policy is already the optimal one
        md = MacroDiversity((0.2, 0.4, 0.6, 0.5), ((3, 1, 2), (1, 1, 3), (2, 0.5, 3), (0.5, 1, 2)), (1, 1, 1))
        array_map = leave_one_out_map(md)
        p, run = solve(array_map, self.config, trace=False)
        assert run.solver == "policy" and run.iterations_used == 1
        picard, _ = solve(array_map, self.config, force=True)
        np.testing.assert_allclose(p.as_array(), picard.as_array(), rtol=0.0, atol=2 * self.config.tolerance)

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
        md = MacroDiversity(tuple(a * 0.9999 / lam for a in md.alphas), md.gains, md.noise)
        array_map = leave_one_out_map(md)
        with pytest.raises(InvalidInputError) as excinfo:
            solve(array_map, SolveConfig(tolerance=1e-15), trace=False)
        message = str(excinfo.value)
        assert "\n" not in message and "smallest attainable tolerance" in message
        floor = float(message.split("smallest attainable tolerance is ")[1].split()[0])
        assert 1e-15 < floor < 1e-9
        self.policy_solve(array_map, SolveConfig(tolerance=floor))


def exact_fixed_point(A, c) -> list[Fraction]:
    """The p with p = A p + c, in rationals: Gauss-Jordan elimination on [I - A | c]."""
    n = len(c)
    rows = [[Fraction(int(i == j)) - Fraction(a) for j, a in enumerate(row)] + [Fraction(v)]
            for i, (row, v) in enumerate(zip(np.asarray(A).tolist(), np.asarray(c).tolist()))]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [row[n] / row[i] for i, row in enumerate(rows)]


class TestPolicyExactness:
    """Policy-iteration powers against exact rational fixed points: within 16 ulp relative."""

    @staticmethod
    def assert_near_exact(array_map, exact):
        p, run = solve(array_map, trace=False)
        assert run.solver == "policy"
        for value, e in zip(p, exact):
            assert abs(Fraction(value) - e) <= 16 * Fraction(1, 2 ** 52) * e

    @pytest.mark.parametrize("coordinates", ["original", "transformed"])
    def test_single_cell_closed_form(self, coordinates):
        # N=200 equal targets at lambda 0.965, as in the solve benchmark's single-cell slots
        n = 200
        sc = SingleCell((0.965 / (n - 1),) * n, (1.0,) * n, 1.065)
        # q_i = sigma / ((1 - S)(1 + alpha_i)) with S = sum of alpha / (1 + alpha); P_i = alpha_i q_i
        alphas = list(map(Fraction, sc.alphas))
        s = sum(a / (1 + a) for a in alphas)
        exact = [Fraction(sc.sigma) / ((1 - s) * (1 + a)) for a in alphas]
        if coordinates == "original":
            exact = [a * q for a, q in zip(alphas, exact)]
        self.assert_near_exact(leave_one_out_map(sc, coordinates=coordinates), exact)

    def test_fixed_assignment_linear_system(self):
        # dyadic gains, targets and noise: the rule objects' A and c are exact, whatever the rounding
        rng = np.random.default_rng(23)
        n, k = 7, 3
        assignment = rng.integers(0, k, n)
        gains = 2.0 ** rng.integers(-4, 0, (k, n))
        gains[assignment, np.arange(n)] = 2.0
        fa = FixedAssignment(tuple(rng.integers(8, 48, n) / 128), tuple(map(tuple, gains)),
                             tuple(assignment.tolist()), tuple(rng.integers(1, 9, k) / 8))
        assert 0.3 < feasibility_formula(fa).modulus < 1.0
        exact = exact_fixed_point(*affine_parts(build_fixed_assignment(fa)))
        self.assert_near_exact(leave_one_out_map(fa), exact)
