import csv
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from powerfeas import maps

from powerfeas.capacity import (
    RegionCloud,
    RegionComparison,
    RegionSpec,
    compare_regions,
    evaluate_predicate,
    export_cloud,
    export_inequalities,
    hanly,
    region_inequalities,
    sample_region,
)
from powerfeas.core import (
    InvalidInputError,
)
from powerfeas.engine import contraction_modulus
from powerfeas.scenarios import (
    FixedAssignment,
    MacroDiversity,
    MultiConnection,
    SingleCell,
    feasibility_formula,
)
from reference import (
    build_macro_diversity_transformed,
    build_multi_connection,
    build_single_cell_transformed,
)
from test_scenarios import PROPERTY, scenarios_of, with_alphas

SYMMETRIC_GAINS = ((1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
ASYMMETRIC_GAINS = ((2.0, 1.0), (1.0, 2.0), (1.0, 1.0))
DEGENERATE_GAINS = ((1.0, 1.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 0.0))


def single_cell(n):
    return SingleCell((0.1,) * n, (1.0,) * n, 1.0)


def macro(gains):
    return MacroDiversity((0.1,) * len(gains), gains,
                          (1.0,) * len(gains[0]))


def multi(gains, d):
    return MultiConnection((0.1,) * len(d), gains, d, (1.0,) * len(gains))


def spec_macro(gains, resolution=31, alpha_max=3.0):
    return RegionSpec(macro(gains), resolution=resolution, alpha_max=alpha_max)


class TestGrid:
    def test_point_count_two_by_two(self):
        spec = RegionSpec(single_cell(2), resolution=2, alpha_max=1.0)
        cloud = sample_region(spec)
        assert cloud.spec.point_count == 4
        assert len(cloud.alphas) == 4

    def test_lexicographic_order(self):
        spec = RegionSpec(single_cell(2), resolution=3, alpha_max=2.0)
        pts = spec.grid()
        assert pts[0].tolist() == [0.0, 0.0]
        assert pts[1].tolist() == [0.0, 1.0]
        assert pts[3].tolist() == [1.0, 0.0]

    def test_cost_guard(self):
        spec = RegionSpec(single_cell(5), resolution=2, alpha_max=1.0)
        with pytest.raises(InvalidInputError):
            sample_region(spec)
        cloud = sample_region(spec, allow_large=True)
        assert cloud.spec.point_count == 32

    def test_resolution_61_point_count(self):
        spec = spec_macro(SYMMETRIC_GAINS, resolution=61)
        assert spec.point_count == 226_981


class TestPredicates:
    def test_hanly_simplex_with_boundary_excluded(self):
        pts = spec_macro(SYMMETRIC_GAINS).grid()
        verdicts = hanly(pts, 2)
        assert verdicts.dtype == bool and verdicts.shape == (31**3,)
        assert verdicts.tolist() == [sum(row) < 2.0 for row in pts.tolist()]
        for corner in ((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 2.0)):
            assert not hanly(np.array([corner]), 2)[0]
            assert hanly(np.array([corner]), 3)[0]

    def test_simple_is_leave_one_out(self):
        spec = RegionSpec(single_cell(3), resolution=11, alpha_max=1.5)
        cloud = sample_region(spec)
        loo = cloud.alphas.sum(axis=1, keepdims=True) - cloud.alphas
        assert np.array_equal(cloud.feasible, (loo < 1.0).all(axis=1))

    def test_symmetric_macro_div_equals_leave_one_out_below_receivers(self):
        spec = spec_macro(SYMMETRIC_GAINS)
        cloud = sample_region(spec)
        # exact rational sums: a float total-minus-own rounds some grid points
        # that sit exactly on the boundary (0.5 + 1.5 = 2) to just inside it
        exact = [
            all(sum(map(Fraction, row)) - Fraction(v) < 2 for v in row)
            for row in cloud.alphas.tolist()
        ]
        assert np.array_equal(cloud.feasible, exact)
        assert evaluate_predicate(spec, np.array([[0.99, 0.99, 0.99]]))[0]

    def test_asymmetric_boundary_points(self):
        spec = spec_macro(ASYMMETRIC_GAINS)
        assert not evaluate_predicate(spec, np.array([[0.0, 0.0, 2.0]]))[0]
        assert evaluate_predicate(spec, np.array([[0.0, 0.0, 1.99]]))[0]
        assert not evaluate_predicate(spec, np.array([[1.0, 1.0, 2.0 / 3.0]]))[0]
        assert evaluate_predicate(spec, np.array([[0.99, 0.99, 0.66]]))[0]
        assert not evaluate_predicate(spec, np.array([[1.01, 1.01, 0.67]]))[0]

    def test_mc_exact_order_statistic(self):
        gains = ((1.0, 0.5, 0.8), (0.4, 1.2, 0.6))
        spec = RegionSpec(multi(gains, (2, 1, 2)), noiseless=True, resolution=5, alpha_max=1.0)
        pts = np.array([[0.3, 0.2, 0.4]])
        expected = True
        h = np.array(gains)
        for j, dj in enumerate((2, 1, 2)):
            sums = sorted(
                sum(pts[0, i] * h[k, i] for i in range(3) if i != j) / h[k, j]
                for k in range(2)
            )
            expected = expected and sums[dj - 1] < 1.0
        assert evaluate_predicate(spec, pts)[0] == expected

    def test_mc_zero_gain_never_selected(self):
        gains = ((1.0, 0.0), (0.5, 2.0))
        spec = RegionSpec(multi(gains, (1, 1)), noiseless=True, resolution=5, alpha_max=1.0)
        # terminal 2 is deaf to receiver 1, so only its receiver-2 ratio
        # (alpha_1 * 0.5 / 2.0) matters; no division-by-zero blowups
        assert evaluate_predicate(spec, np.array([[0.5, 0.5]]))[0]
        assert not evaluate_predicate(spec, np.array([[5.0, 0.5]]))[0]

    def test_unserved_receiver_is_never_selected(self):
        # receiver 2 serves no terminal; its sums overflow to inf, which W = 0 must not turn into NaN
        fa = FixedAssignment((0.1,) * 3, ((1.0,) * 3, (1e308,) * 3), (0, 0, 0),
                             (1.0, 1.0))
        spec = RegionSpec(fa, resolution=2, alpha_max=1.0)
        pts = np.array([[0.1, 0.1, 0.1], [0.0, 0.2, 0.3]])
        assert spec.moduli(pts).tolist() == [[0.2, 0.2, 0.2], [0.0, 0.4, 0.6]]
        assert spec.moduli(pts[:1]).tolist()[0] == list(feasibility_formula(fa).per_terminal_modulus)
        coefs, rhs = region_inequalities(spec)
        assert coefs.tolist() == (2.0 * np.eye(3)).tolist() and rhs.tolist() == [1.0] * 3

    def test_monotone_in_targets(self):
        rng = np.random.default_rng(7)
        specs = [
            RegionSpec(single_cell(3), resolution=2, alpha_max=2.0),
            spec_macro(ASYMMETRIC_GAINS),
            RegionSpec(multi(((1.0, 0.5, 0.8), (0.4, 1.2, 0.6)), (2, 1, 2)),
                       resolution=2, alpha_max=2.0),
            RegionSpec(multi(((1.0, 0.5, 0.8), (0.4, 1.2, 0.6)), (2, 1, 2)), noiseless=True,
                       resolution=2, alpha_max=2.0),
        ]
        predicates = [partial(evaluate_predicate, spec) for spec in specs] + [partial(hanly, receivers=2)]
        for predicate in predicates:
            pts = rng.uniform(0.0, 2.0, size=(300, 3))
            feas = predicate(pts)
            shrink = pts * rng.uniform(0.0, 1.0, size=pts.shape)
            feas_shrunk = predicate(shrink)
            assert np.all(feas_shrunk[feas])  # shrinking targets keeps feasibility

    def test_mc_exact_memory_bounded_across_chunks(self):
        rng = np.random.default_rng(17)
        gains = tuple(map(tuple, rng.uniform(0.1, 2.0, size=(16, 4))))
        spec = RegionSpec(multi(gains, (1, 4, 8, 16)), noiseless=True, resolution=21,
                          alpha_max=0.06)
        pts = spec.grid()
        tracemalloc.start()
        try:
            feas = evaluate_predicate(spec, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert 0 < feas.sum() < feas.size
        step = maps._CHUNK // (4 * 16)  # points per chunk at N=4, K=16
        edges = [i for c in range(step, len(pts), step) for i in (c - 1, c)]
        by_point = [evaluate_predicate(spec, pts[i])[0] for i in edges]
        assert by_point == feas[edges].tolist()
        assert len(set(by_point)) == 2


class TestEngineAgreement:
    def test_macro_div_one_percent_subsample(self):
        spec = spec_macro(ASYMMETRIC_GAINS, resolution=21)
        cloud = sample_region(spec)
        positive = np.all(cloud.alphas > 0.0, axis=1)
        idx = np.flatnonzero(positive)
        rng = np.random.default_rng(3)
        chosen = rng.choice(idx, size=max(1, len(idx) // 100), replace=False)
        for i in chosen:
            alphas = tuple(cloud.alphas[i])
            md = MacroDiversity(
                alphas=alphas,
                gains=ASYMMETRIC_GAINS,
                noise=(1.0, 1.0),
            )
            engine = contraction_modulus(build_macro_diversity_transformed(md))
            assert engine.feasible == bool(cloud.feasible[i])

    def test_simple_subsample(self):
        spec = RegionSpec(single_cell(3), resolution=15, alpha_max=1.2)
        cloud = sample_region(spec)
        positive = np.all(cloud.alphas > 0.0, axis=1)
        idx = np.flatnonzero(positive)
        rng = np.random.default_rng(5)
        for i in rng.choice(idx, size=30, replace=False):
            sc = SingleCell(
                alphas=tuple(cloud.alphas[i]), gains=(1.0,) * 3, sigma=1.0
            )
            engine = contraction_modulus(build_single_cell_transformed(sc))
            assert engine.feasible == bool(cloud.feasible[i])

    def test_mc_subsample_both_modes(self):
        gains = ((1.0, 0.5, 0.8), (0.4, 1.2, 0.6))
        d = (2, 1, 2)
        rng = np.random.default_rng(9)
        for noiseless in (True, False):
            spec = RegionSpec(multi(gains, d), noiseless=noiseless, resolution=9, alpha_max=1.5)
            cloud = sample_region(spec)
            positive = np.all(cloud.alphas > 0.0, axis=1)
            idx = np.flatnonzero(positive)
            for i in rng.choice(idx, size=25, replace=False):
                mc = MultiConnection(
                    alphas=tuple(cloud.alphas[i]),
                    gains=gains,
                    d=d,
                    noise=(1.0, 1.0),
                )
                engine = contraction_modulus(build_multi_connection(mc, noiseless=noiseless))
                assert engine.feasible == bool(cloud.feasible[i])


def boundary_cases(kind, options, rng, n=4, k=3):
    """A spec, targets on and 1 ulp either side of its float boundary, and check's report per point."""
    gains = tuple(map(tuple, rng.uniform(0.05, 2.0, size=(n, k) if kind == "macro_diversity" else (k, n))))
    d = tuple(int(v) for v in rng.integers(1, k + 1, size=n))
    assignment = tuple(int(v) for v in rng.integers(0, k, size=n))
    noise = (1.0,) * k

    def make(a):
        alphas = tuple(a)
        return {"single_cell": lambda: SingleCell(alphas, (1.0,) * n, 1.0),
                "macro_diversity": lambda: MacroDiversity(alphas, gains, noise),
                "fixed_assignment": lambda: FixedAssignment(alphas, gains, assignment, noise),
                "multi_connection": lambda: MultiConnection(alphas, gains, d, noise)}[kind]()
    spec = RegionSpec(make(np.ones(n)), **options, resolution=2, alpha_max=1.0)
    raw = rng.uniform(0.1, 1.0, size=(50, n))
    on = np.array([a / feasibility_formula(make(a), **options).modulus for a in raw])
    pts = np.concatenate([np.nextafter(on, 0.0), on, np.nextafter(on, 2.0)])
    return spec, pts, lambda a: feasibility_formula(make(a), **options)


# every map check certifies: the (kind, option) pairs sc_t, sc_o, md_t, md_o, fa, mc_b, mc_e
MAPS = {
    "simple": ("single_cell", {}),
    "simple_original": ("single_cell", {"coordinates": "original"}),
    "macro_div": ("macro_diversity", {}),
    "macro_div_original": ("macro_diversity", {"coordinates": "original"}),
    "fixed_assignment": ("fixed_assignment", {}),
    "mc_bounded": ("multi_connection", {}),
    "mc_exact": ("multi_connection", {"noiseless": True}),
}


class TestFormulaAgreement:
    @pytest.mark.parametrize("kind, options", MAPS.values(), ids=list(MAPS))
    def test_check_and_region_verdicts_agree_on_the_boundary(self, kind, options):
        rng = np.random.default_rng(29)
        verdicts = set()
        for _ in range(10):
            spec, pts, formula = boundary_cases(kind, options, rng)
            reports = [formula(p) for p in pts]
            assert spec.moduli(pts).tolist() == [list(r.per_terminal_modulus) for r in reports]
            feas = evaluate_predicate(spec, pts)
            assert feas.tolist() == [r.feasible for r in reports]
            verdicts.update(feas.tolist())
        assert verdicts == {True, False}  # the draws straddle the boundary


    @PROPERTY
    @given(data=st.data())
    @pytest.mark.parametrize("kind, options", MAPS.values(), ids=list(MAPS))
    def test_check_and_region_agree_at_random_grid_targets(self, kind, options, data):
        scenario = data.draw(scenarios_of(kind))
        spec = RegionSpec(scenario, **options, resolution=data.draw(st.integers(2, 41)),
                          alpha_max=data.draw(st.floats(0.1, 5.0)))
        cells = st.lists(st.integers(1, spec.resolution - 1), min_size=spec.n, max_size=spec.n)
        pts = spec.axis_values()[np.array(data.draw(st.lists(cells, min_size=1, max_size=8)))]
        reports = [feasibility_formula(with_alphas(scenario, p), **options) for p in pts]
        assert spec.moduli(pts).tolist() == [list(r.per_terminal_modulus) for r in reports]
        assert evaluate_predicate(spec, pts).tolist() == [r.feasible for r in reports]


class TestCompare:
    def test_clouds_compare_by_value(self):
        spec = spec_macro(ASYMMETRIC_GAINS, resolution=5)
        cloud, again = sample_region(spec), sample_region(spec)
        assert cloud.alphas is not again.alphas and cloud == again
        flipped = cloud.feasible.copy()
        flipped[0] = not flipped[0]
        assert cloud != RegionCloud(spec, cloud.alphas, flipped)

    def test_symmetric_baseline_strictly_inside(self):
        macro = sample_region(spec_macro(SYMMETRIC_GAINS, resolution=101))
        comparison = compare_regions(macro, hanly(macro.alphas, 2))
        assert comparison.relation == "b_subset_a"  # hanly inside macro-diversity
        witness = comparison.witness_a_not_b
        assert witness is not None
        assert evaluate_predicate(macro.spec, np.array([witness]))[0]
        assert not hanly(np.array([witness]), 2)[0]
        # the named separating point works too
        point = np.array([[0.99, 0.99, 0.99]])
        assert evaluate_predicate(macro.spec, point)[0]
        assert not hanly(point, 2)[0]

    def test_degenerate_receiver_not_contained_in_true_region(self):
        macro = sample_region(spec_macro(DEGENERATE_GAINS))
        comparison = compare_regions(macro, hanly(macro.alphas, 3))
        assert comparison.a_subset_b  # true region inside the inflated baseline
        assert not comparison.b_subset_a
        witness = comparison.witness_b_not_a
        assert witness is not None
        assert hanly(np.array([witness]), 3)[0]
        assert not evaluate_predicate(macro.spec, np.array([witness]))[0]
        # verified instance of the gap, not assumed:
        point = np.array([[1.4, 1.4, 0.1]])
        assert hanly(point, 3)[0]
        assert not evaluate_predicate(macro.spec, point)[0]

    def test_asymmetric_incomparable(self):
        macro = sample_region(spec_macro(ASYMMETRIC_GAINS, resolution=41))
        comparison = compare_regions(macro, hanly(macro.alphas, 2))
        assert comparison.relation == "incomparable"
        in_macro, in_hanly = partial(evaluate_predicate, macro.spec), partial(hanly, receivers=2)
        for witness, inside, outside in (
            (comparison.witness_a_not_b, in_macro, in_hanly),
            (comparison.witness_b_not_a, in_hanly, in_macro),
        ):
            assert witness is not None
            assert inside(np.array([witness]))[0]
            assert not outside(np.array([witness]))[0]

    def test_witnesses_are_the_first_points_on_one_side_only(self):
        cloud = sample_region(spec_macro(ASYMMETRIC_GAINS, resolution=5))
        verdicts = cloud.feasible.copy()
        assert compare_regions(cloud, verdicts).relation == "equal"
        inside, outside = np.flatnonzero(cloud.feasible)[[1, 3]], np.flatnonzero(~cloud.feasible)[[2, 4]]
        verdicts[inside], verdicts[outside] = False, True
        comparison = compare_regions(cloud, verdicts)
        assert comparison.witness_a_not_b == tuple(cloud.alphas[inside[0]].tolist())
        assert comparison.witness_b_not_a == tuple(cloud.alphas[outside[0]].tolist())
        assert comparison.relation == "incomparable"

    def test_relation_follows_the_witnesses(self):
        for witnesses, relation in (((None, None), "equal"), (((1.0,), None), "b_subset_a"),
                                    ((None, (1.0,)), "a_subset_b"), (((1.0,), (2.0,)), "incomparable")):
            comparison = RegionComparison(*witnesses)
            assert comparison.relation == relation
            assert (comparison.a_subset_b, comparison.b_subset_a) == (witnesses[0] is None, witnesses[1] is None)

    def test_shape_mismatch_rejected(self):
        a = sample_region(spec_macro(SYMMETRIC_GAINS, resolution=11))
        b = sample_region(spec_macro(SYMMETRIC_GAINS, resolution=13))
        for verdicts in (b.feasible, hanly(b.alphas, 2), a.feasible[:-1], a.feasible[:, None]):
            with pytest.raises(InvalidInputError, match="^compare_regions: "):
                compare_regions(a, verdicts)


class TestExport:
    def test_two_by_two_rows(self, tmp_path):
        cloud = sample_region(RegionSpec(single_cell(2), resolution=2, alpha_max=1.0))
        path = tmp_path / "cloud.csv"
        export_cloud(cloud, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alpha_1,alpha_2,feasible"
        assert len(lines) == 5

    def test_reexport_byte_identical(self, tmp_path):
        spec = spec_macro(ASYMMETRIC_GAINS, resolution=11)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_cloud(sample_region(spec), a)
        export_cloud(sample_region(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_resolution_61_row_count(self, tmp_path):
        cloud = sample_region(spec_macro(SYMMETRIC_GAINS, resolution=61))
        path = tmp_path / "big.csv"
        export_cloud(cloud, path)
        with open(path) as fh:
            rows = sum(1 for _ in fh)
        assert rows == 61**3 + 1  # header + one row per grid point

    @pytest.mark.parametrize("which", ["grid", "odd_values"])
    def test_bytes_equal_csv_writer_with_repr(self, tmp_path, which):
        if which == "grid":  # 61^3 rows: several export chunks
            cloud = sample_region(spec_macro(ASYMMETRIC_GAINS, resolution=61))
        else:  # signed zeros, non-finite and subnormal values, each kept as repr shows it
            values = np.array([[-0.0, 0.0], [np.nan, np.inf], [5e-324, -np.inf],
                               [0.1, 0.30000000000000004]])
            cloud = RegionCloud(RegionSpec(single_cell(2), resolution=2, alpha_max=1.0),
                                values, np.array([True, False, False, True]))
        path, reference = tmp_path / "cloud.csv", tmp_path / "reference.csv"
        export_cloud(cloud, path)
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"alpha_{i + 1}" for i in range(cloud.spec.n)] + ["feasible"])
            for row, flag in zip(cloud.alphas, cloud.feasible):
                writer.writerow([repr(float(v)) for v in row] + [int(flag)])
        assert path.read_bytes() == reference.read_bytes()

    def test_inequalities_simple(self, tmp_path):
        coefs, rhs = region_inequalities(RegionSpec(single_cell(3), resolution=2, alpha_max=1.0))
        assert coefs.tolist() == [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        assert rhs.tolist() == [1.0, 1.0, 1.0]
        path = tmp_path / "ineq.csv"
        export_inequalities(RegionSpec(single_cell(3), resolution=2, alpha_max=1.0), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "coef_1,coef_2,coef_3,rhs,relation"
        assert len(lines) == 4
        assert all(line.endswith(",<") for line in lines[1:])

    def test_inequalities_macro_div_coefficients(self):
        coefs, rhs = region_inequalities(spec_macro(ASYMMETRIC_GAINS))
        assert coefs.shape == (6, 3) and rhs.shape == (6,)
        assert coefs[0, 0] == 0.0  # terminal 1 left out, receiver 1
        assert coefs[0, 1] == pytest.approx(1.0 / 3.0)
        assert coefs[0, 2] == pytest.approx(0.5)
        assert rhs[0] == 1.0

    def test_inequalities_mc_exact_unavailable(self):
        spec = RegionSpec(multi(((1.0, 0.5), (0.4, 1.2)), (1, 1)), noiseless=True,
                          resolution=2, alpha_max=1.0)
        with pytest.raises(InvalidInputError):
            region_inequalities(spec)

    @pytest.mark.parametrize("predicate", ["macro_div", "mc_bounded"])
    def test_inequality_rows_are_the_coefficients_with_the_own_column_zeroed(self, predicate, tmp_path):
        # built here without the kernel: row (j, k) is receiver k's coefficients, 0 at j
        rng = np.random.default_rng(23)
        n, k = 12, 4
        if predicate == "macro_div":
            gains = rng.uniform(0.0, 2.0, size=(n, k))
            spec = RegionSpec(macro(tuple(map(tuple, gains))), resolution=2, alpha_max=1.0)
            G = np.array([[v / sum(row) for v in row] for row in gains.tolist()]).T
        else:
            gains = rng.uniform(0.0, 2.0, size=(k, n))
            d = rng.integers(1, k + 1, size=n)
            spec = RegionSpec(multi(tuple(map(tuple, gains)), tuple(d.tolist())),
                              resolution=2, alpha_max=1.0)
            G = gains / np.sort(gains, axis=0)[k - d, np.arange(n)]
        expected = np.repeat(G[None], n, axis=0)  # (terminal left out, receiver, coefficient)
        expected[np.arange(n), :, np.arange(n)] = 0.0
        coefs, rhs = region_inequalities(spec)
        assert coefs.tobytes() == expected.reshape(n * k, n).tobytes()
        assert rhs.tolist() == [1.0] * (n * k)
        path = tmp_path / "ineq.csv"
        export_inequalities(spec, path)
        lines = path.read_text().splitlines()
        assert lines[1:] == [",".join(map(repr, row)) + ",1.0,<" for row in coefs.tolist()]

    def test_inequalities_mc_bounded_match_predicate(self):
        spec = RegionSpec(multi(((1.0, 0.5), (0.4, 1.2)), (2, 1)), resolution=2, alpha_max=1.0)
        coefs, rhs = region_inequalities(spec)
        rng = np.random.default_rng(15)
        pts = rng.uniform(0.0, 2.0, size=(100, 2))
        by_rows = np.array([
            all(np.dot(row, p) < b for row, b in zip(coefs, rhs)) for p in pts
        ])
        assert np.array_equal(by_rows, evaluate_predicate(spec, pts))
