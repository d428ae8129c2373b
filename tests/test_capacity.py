import csv
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from powerfeas import scenarios

from powerfeas.capacity import (
    RegionCloud,
    RegionSpec,
    compare_regions,
    evaluate_predicate,
    export_cloud,
    export_inequalities,
    region_inequalities,
    sample_region,
)
from powerfeas.core import (
    GainMatrix,
    InvalidInputError,
    NoiseVector,
    QosVector,
)
from powerfeas.engine import contraction_modulus
from powerfeas.scenarios import (
    MacroDiversity,
    MultiConnection,
    SingleCell,
    build_macro_diversity_transformed,
    build_multi_connection,
    build_single_cell_transformed,
    feasibility_formula,
)

SYMMETRIC_GAINS = ((1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
ASYMMETRIC_GAINS = ((2.0, 1.0), (1.0, 2.0), (1.0, 1.0))
DEGENERATE_GAINS = ((1.0, 1.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 0.0))


def spec_hanly(receivers, resolution=31, alpha_max=3.0):
    return RegionSpec("hanly", n=3, resolution=resolution, alpha_max=alpha_max,
                      receivers=receivers)


def spec_macro(gains, resolution=31, alpha_max=3.0):
    return RegionSpec("macro_div", n=3, resolution=resolution, alpha_max=alpha_max,
                      gains=gains)


class TestGrid:
    def test_point_count_two_by_two(self):
        spec = RegionSpec("simple", n=2, resolution=2, alpha_max=1.0)
        cloud = sample_region(spec)
        assert cloud.spec.point_count == 4
        assert len(cloud.points()) == 4

    def test_lexicographic_order(self):
        spec = RegionSpec("simple", n=2, resolution=3, alpha_max=2.0)
        pts = spec.grid()
        assert pts[0].tolist() == [0.0, 0.0]
        assert pts[1].tolist() == [0.0, 1.0]
        assert pts[3].tolist() == [1.0, 0.0]

    def test_cost_guard(self):
        spec = RegionSpec("simple", n=5, resolution=2, alpha_max=1.0)
        with pytest.raises(InvalidInputError):
            sample_region(spec)
        cloud = sample_region(spec, allow_large=True)
        assert cloud.spec.point_count == 32

    def test_resolution_61_point_count(self):
        spec = spec_hanly(2, resolution=61)
        assert spec.point_count == 226_981


class TestPredicates:
    def test_hanly_simplex_with_boundary_excluded(self):
        spec = spec_hanly(2)
        cloud = sample_region(spec)
        sums = cloud.alphas.sum(axis=1)
        assert np.array_equal(cloud.feasible, sums < 2.0)
        for corner in ((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 2.0)):
            assert not evaluate_predicate(spec, np.array([corner]))[0]

    def test_simple_is_leave_one_out(self):
        spec = RegionSpec("simple", n=3, resolution=11, alpha_max=1.5)
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
        spec = RegionSpec("mc_exact", n=3, resolution=5, alpha_max=1.0,
                          gains=gains, d=(2, 1, 2))
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
        spec = RegionSpec("mc_exact", n=2, resolution=5, alpha_max=1.0,
                          gains=gains, d=(1, 1))
        # terminal 2 is deaf to receiver 1, so only its receiver-2 ratio
        # (alpha_1 * 0.5 / 2.0) matters; no division-by-zero blowups
        assert evaluate_predicate(spec, np.array([[0.5, 0.5]]))[0]
        assert not evaluate_predicate(spec, np.array([[5.0, 0.5]]))[0]

    def test_monotone_in_targets(self):
        rng = np.random.default_rng(7)
        specs = [
            RegionSpec("simple", n=3, resolution=2, alpha_max=2.0),
            spec_macro(ASYMMETRIC_GAINS),
            spec_hanly(2),
            RegionSpec("mc_bounded", n=3, resolution=2, alpha_max=2.0,
                       gains=((1.0, 0.5, 0.8), (0.4, 1.2, 0.6)), d=(2, 1, 2)),
            RegionSpec("mc_exact", n=3, resolution=2, alpha_max=2.0,
                       gains=((1.0, 0.5, 0.8), (0.4, 1.2, 0.6)), d=(2, 1, 2)),
        ]
        for spec in specs:
            pts = rng.uniform(0.0, 2.0, size=(300, 3))
            feas = evaluate_predicate(spec, pts)
            shrink = pts * rng.uniform(0.0, 1.0, size=pts.shape)
            feas_shrunk = evaluate_predicate(spec, shrink)
            assert np.all(feas_shrunk[feas])  # shrinking targets keeps feasibility

    def test_mc_exact_memory_bounded_across_chunks(self):
        rng = np.random.default_rng(17)
        gains = tuple(map(tuple, rng.uniform(0.1, 2.0, size=(16, 4))))
        spec = RegionSpec("mc_exact", n=4, resolution=21, alpha_max=0.06,
                          gains=gains, d=(1, 4, 8, 16))
        pts = spec.grid()
        tracemalloc.start()
        try:
            feas = evaluate_predicate(spec, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert 0 < feas.sum() < feas.size
        step = scenarios._CHUNK // (4 * 16)  # points per chunk at N=4, K=16
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
                alphas=QosVector(alphas),
                gains=GainMatrix(ASYMMETRIC_GAINS),
                noise=NoiseVector((1.0, 1.0)),
            )
            engine = contraction_modulus(build_macro_diversity_transformed(md))
            assert engine.feasible == bool(cloud.feasible[i])

    def test_simple_subsample(self):
        spec = RegionSpec("simple", n=3, resolution=15, alpha_max=1.2)
        cloud = sample_region(spec)
        positive = np.all(cloud.alphas > 0.0, axis=1)
        idx = np.flatnonzero(positive)
        rng = np.random.default_rng(5)
        for i in rng.choice(idx, size=30, replace=False):
            sc = SingleCell(
                alphas=QosVector(tuple(cloud.alphas[i])), gains=(1.0,) * 3, sigma=1.0
            )
            engine = contraction_modulus(build_single_cell_transformed(sc))
            assert engine.feasible == bool(cloud.feasible[i])

    def test_mc_subsample_both_modes(self):
        gains = ((1.0, 0.5, 0.8), (0.4, 1.2, 0.6))
        d = (2, 1, 2)
        rng = np.random.default_rng(9)
        for predicate, noiseless in (("mc_exact", True), ("mc_bounded", False)):
            spec = RegionSpec(predicate, n=3, resolution=9, alpha_max=1.5,
                              gains=gains, d=d)
            cloud = sample_region(spec)
            positive = np.all(cloud.alphas > 0.0, axis=1)
            idx = np.flatnonzero(positive)
            for i in rng.choice(idx, size=25, replace=False):
                mc = MultiConnection(
                    alphas=QosVector(tuple(cloud.alphas[i])),
                    gains=gains,
                    d=d,
                    noise=NoiseVector((1.0, 1.0)),
                )
                engine = contraction_modulus(build_multi_connection(mc, noiseless=noiseless))
                assert engine.feasible == bool(cloud.feasible[i])


def boundary_cases(predicate, rng, n=4, k=3):
    """A spec and targets scaled onto its float boundary, with a scenario maker per point."""
    gains, d, kwargs = None, None, {}
    if predicate == "simple":
        def make(a):
            return SingleCell(alphas=QosVector(tuple(a)), gains=(1.0,) * n, sigma=1.0)
    elif predicate == "macro_div":
        gains = tuple(map(tuple, rng.uniform(0.05, 2.0, size=(n, k))))

        def make(a):
            return MacroDiversity(alphas=QosVector(tuple(a)), gains=GainMatrix(gains),
                                  noise=NoiseVector((1.0,) * k))
    else:
        gains = tuple(map(tuple, rng.uniform(0.05, 2.0, size=(k, n))))
        d = tuple(int(v) for v in rng.integers(1, k + 1, size=n))
        kwargs = {"noiseless": predicate == "mc_exact"}

        def make(a):
            return MultiConnection(alphas=QosVector(tuple(a)), gains=gains, d=d,
                                   noise=NoiseVector((1.0,) * k))
    spec = RegionSpec(predicate, n=n, resolution=2, alpha_max=1.0, gains=gains, d=d)
    raw = rng.uniform(0.1, 1.0, size=(50, n))
    pts = np.array([a / feasibility_formula(make(a), **kwargs).modulus for a in raw])
    return spec, pts, lambda a: feasibility_formula(make(a), **kwargs)


class TestFormulaAgreement:
    @pytest.mark.parametrize("predicate", ["simple", "macro_div", "mc_bounded", "mc_exact"])
    def test_check_and_region_verdicts_agree_on_the_boundary(self, predicate):
        rng = np.random.default_rng(29)
        verdicts = set()
        for _ in range(10):
            spec, pts, formula = boundary_cases(predicate, rng)
            feas = evaluate_predicate(spec, pts)
            assert feas.tolist() == [formula(p).feasible for p in pts]
            verdicts.update(feas.tolist())
        assert verdicts == {True, False}  # the draws straddle the boundary


class TestCompare:
    def test_symmetric_baseline_strictly_inside(self):
        macro = sample_region(spec_macro(SYMMETRIC_GAINS, resolution=101))
        baseline = sample_region(spec_hanly(2, resolution=101))
        comparison = compare_regions(macro, baseline)
        assert comparison.relation == "b_subset_a"  # hanly inside macro-diversity
        witness = comparison.witness_a_not_b
        assert witness is not None
        assert evaluate_predicate(macro.spec, np.array([witness]))[0]
        assert not evaluate_predicate(baseline.spec, np.array([witness]))[0]
        # the named separating point works too
        point = np.array([[0.99, 0.99, 0.99]])
        assert evaluate_predicate(macro.spec, point)[0]
        assert not evaluate_predicate(baseline.spec, point)[0]

    def test_degenerate_receiver_not_contained_in_true_region(self):
        macro = sample_region(spec_macro(DEGENERATE_GAINS))
        inflated = sample_region(spec_hanly(3))
        comparison = compare_regions(macro, inflated)
        assert comparison.a_subset_b  # true region inside the inflated baseline
        assert not comparison.b_subset_a
        witness = comparison.witness_b_not_a
        assert witness is not None
        assert evaluate_predicate(inflated.spec, np.array([witness]))[0]
        assert not evaluate_predicate(macro.spec, np.array([witness]))[0]
        # verified instance of the gap, not assumed:
        point = np.array([[1.4, 1.4, 0.1]])
        assert evaluate_predicate(inflated.spec, point)[0]
        assert not evaluate_predicate(macro.spec, point)[0]

    def test_asymmetric_incomparable(self):
        macro = sample_region(spec_macro(ASYMMETRIC_GAINS, resolution=41))
        baseline = sample_region(spec_hanly(2, resolution=41))
        comparison = compare_regions(macro, baseline)
        assert comparison.relation == "incomparable"
        for witness, inside, outside in (
            (comparison.witness_a_not_b, macro.spec, baseline.spec),
            (comparison.witness_b_not_a, baseline.spec, macro.spec),
        ):
            assert witness is not None
            assert evaluate_predicate(inside, np.array([witness]))[0]
            assert not evaluate_predicate(outside, np.array([witness]))[0]

    def test_grid_mismatch_rejected(self):
        a = sample_region(spec_hanly(2, resolution=11))
        b = sample_region(spec_hanly(2, resolution=13))
        with pytest.raises(InvalidInputError):
            compare_regions(a, b)


class TestExport:
    def test_two_by_two_rows(self, tmp_path):
        cloud = sample_region(RegionSpec("simple", n=2, resolution=2, alpha_max=1.0))
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
            cloud = RegionCloud(RegionSpec("simple", n=2, resolution=2, alpha_max=1.0),
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
        rows = region_inequalities(RegionSpec("simple", n=3, resolution=2, alpha_max=1.0))
        assert rows == [
            ((0.0, 1.0, 1.0), 1.0),
            ((1.0, 0.0, 1.0), 1.0),
            ((1.0, 1.0, 0.0), 1.0),
        ]
        path = tmp_path / "ineq.csv"
        export_inequalities(RegionSpec("simple", n=3, resolution=2, alpha_max=1.0), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "coef_1,coef_2,coef_3,rhs,relation"
        assert len(lines) == 4
        assert all(line.endswith(",<") for line in lines[1:])

    def test_inequalities_macro_div_coefficients(self):
        rows = region_inequalities(spec_macro(ASYMMETRIC_GAINS))
        assert len(rows) == 6
        coefs, rhs = rows[0]  # terminal 1 left out, receiver 1
        assert coefs[0] == 0.0
        assert coefs[1] == pytest.approx(1.0 / 3.0)
        assert coefs[2] == pytest.approx(0.5)
        assert rhs == 1.0

    def test_inequalities_hanly(self):
        rows = region_inequalities(spec_hanly(2))
        assert rows == [((1.0, 1.0, 1.0), 2.0)]

    def test_inequalities_mc_exact_unavailable(self):
        spec = RegionSpec("mc_exact", n=2, resolution=2, alpha_max=1.0,
                          gains=((1.0, 0.5), (0.4, 1.2)), d=(1, 1))
        with pytest.raises(InvalidInputError):
            region_inequalities(spec)

    def test_inequalities_mc_bounded_match_predicate(self):
        spec = RegionSpec("mc_bounded", n=2, resolution=2, alpha_max=1.0,
                          gains=((1.0, 0.5), (0.4, 1.2)), d=(2, 1))
        rows = region_inequalities(spec)
        rng = np.random.default_rng(15)
        pts = rng.uniform(0.0, 2.0, size=(100, 2))
        by_rows = np.array([
            all(np.dot(coefs, p) < rhs for coefs, rhs in rows) for p in pts
        ])
        assert np.array_equal(by_rows, evaluate_predicate(spec, pts))
