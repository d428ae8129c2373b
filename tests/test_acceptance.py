"""End-to-end acceptance criteria, each at its stated tolerance.

Every test prints one ``ACCEPTANCE <n> <name>: PASS|FAIL`` line (shown with
``pytest -s``); a FAIL line is followed by the usual assertion detail.
"""

import functools
import math
import time

import numpy as np

from powerfeas.axioms import check_all, check_subadd
from powerfeas.capacity import (
    RegionSpec,
    compare_regions,
    evaluate_predicate,
    sample_region,
)
from powerfeas.core import (
    GainMatrix,
    NoiseVector,
    PowerVector,
    QosVector,
    sup_norm,
)
from powerfeas.engine import (
    SolveConfig,
    affine_parts,
    contraction_modulus,
    linear_oracle,
    rate_check,
    solve,
)
from powerfeas.rules import HolderNorm, WeightedAbsSum
from powerfeas.scenarios import (
    FixedAssignment,
    MacroDiversity,
    MultiConnection,
    SingleCell,
    build_fixed_assignment,
    build_macro_diversity,
    build_macro_diversity_transformed,
    build_multi_connection,
    build_single_cell_received,
    build_single_cell_transformed,
    feasibility_formula,
    mc_exact_rules_in_bounded_coords,
)

SYMMETRIC_GAINS = ((1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
ASYMMETRIC_GAINS = ((2.0, 1.0), (1.0, 2.0), (1.0, 1.0))
DEGENERATE_GAINS = ((1.0, 1.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 0.0))


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number} {name}: PASS")
            return result

        return wrapper

    return decorate


def symmetric_md(alpha):
    return MacroDiversity(
        alphas=QosVector((alpha,) * 3),
        gains=GainMatrix(SYMMETRIC_GAINS),
        noise=NoiseVector((1.0, 1.0)),
    )


def asymmetric_md(alphas):
    return MacroDiversity(
        alphas=QosVector(alphas),
        gains=GainMatrix(ASYMMETRIC_GAINS),
        noise=NoiseVector((1.0, 1.0)),
    )


def random_macro_diversity(rng, target, max_n=5, max_k=4):
    n = int(rng.integers(2, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    gains = rng.uniform(0.1, 2.0, size=(n, k))
    alphas = rng.uniform(0.2, 1.0, size=n)
    md = MacroDiversity(
        alphas=QosVector(tuple(alphas)),
        gains=GainMatrix(tuple(map(tuple, gains))),
        noise=NoiseVector(tuple(rng.uniform(0.1, 1.0, size=k))),
    )
    lam = feasibility_formula(md).modulus
    return MacroDiversity(
        alphas=QosVector(tuple(a * target / lam for a in alphas)),
        gains=md.gains,
        noise=md.noise,
    )


def random_single_cell_received(rng, target):
    n = int(rng.integers(2, 7))
    u = rng.uniform(0.3, 1.0, size=n)
    alphas = target * u / (u.max() * (n - 1))  # received-coordinate modulus = target
    return SingleCell(
        alphas=QosVector(tuple(alphas)),
        gains=tuple(rng.uniform(0.5, 2.0, size=n)),
        sigma=float(rng.uniform(0.1, 1.0)),
    )


def random_fixed_assignment(rng, target):
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, 4))
    gains = rng.uniform(0.2, 2.0, size=(k, n))
    assignment = tuple(int(rng.integers(0, k)) for _ in range(n))
    alphas = rng.uniform(0.2, 1.0, size=n)
    fa = FixedAssignment(
        alphas=QosVector(tuple(alphas)),
        gains=tuple(map(tuple, gains)),
        assignment=assignment,
        noise=NoiseVector(tuple(rng.uniform(0.2, 1.0, size=k))),
    )
    lam = feasibility_formula(fa).modulus
    return FixedAssignment(
        alphas=QosVector(tuple(a * target / lam for a in alphas)),
        gains=fa.gains,
        assignment=assignment,
        noise=fa.noise,
    )


def random_multi_connection(rng, target, max_n=5, max_k=4):
    n = int(rng.integers(2, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
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
    return MultiConnection(
        alphas=QosVector(tuple(a * target / lam for a in alphas)),
        gains=mc.gains,
        d=d,
        noise=mc.noise,
    )


@criterion(1, "symmetric-macro-diversity-3x2")
def test_symmetric_macro_diversity_exact():
    md = symmetric_md(0.99)
    system = build_macro_diversity_transformed(md)
    # warm-up so the timed section measures the checks, not import costs
    baseline = RegionSpec("hanly", n=3, resolution=2, alpha_max=1.0, receivers=2)
    targets = np.array([[0.99, 0.99, 0.99]])
    feasibility_formula(md)
    contraction_modulus(system)
    evaluate_predicate(baseline, targets)

    start = time.perf_counter()
    formula = feasibility_formula(md)
    baseline_admits = evaluate_predicate(baseline, targets)[0]
    elapsed = time.perf_counter() - start

    engine = contraction_modulus(system)
    assert formula.modulus == 0.99  # exact
    assert engine.modulus == 0.99  # exact
    assert all(m == 0.99 for m in formula.per_terminal_modulus)
    assert formula.feasible and engine.feasible
    assert not baseline_admits  # 2.97 is nowhere near < 2
    assert elapsed < 1e-3


@criterion(2, "degenerate-third-receiver")
def test_degenerate_third_receiver():
    spec_true = RegionSpec("macro_div", n=3, resolution=31, alpha_max=3.0,
                           gains=DEGENERATE_GAINS)
    spec_two = RegionSpec("macro_div", n=3, resolution=31, alpha_max=3.0,
                          gains=SYMMETRIC_GAINS)
    cloud_true = sample_region(spec_true)
    # the deaf third receiver leaves the admission condition unchanged
    assert np.array_equal(cloud_true.feasible, sample_region(spec_two).feasible)

    inflated = sample_region(RegionSpec("hanly", n=3, resolution=31, alpha_max=3.0,
                                        receivers=3))
    comparison = compare_regions(cloud_true, inflated)
    assert comparison.a_subset_b
    assert not comparison.b_subset_a  # the gain-blind baseline over-admits
    witness = comparison.witness_b_not_a
    assert witness is not None
    assert evaluate_predicate(inflated.spec, np.array([witness]))[0]
    assert not evaluate_predicate(spec_true, np.array([witness]))[0]

    # the named separating point, verified by predicate evaluation
    point = np.array([[1.4, 1.4, 0.1]])
    assert evaluate_predicate(inflated.spec, point)[0]  # 2.9 < 3
    assert not evaluate_predicate(spec_true, point)[0]  # (1.4 + 1.4)/2 = 1.4 >= 1


@criterion(3, "asymmetric-3x2-boundary-and-comparison")
def test_asymmetric_boundary_and_comparison():
    start = time.perf_counter()
    boundary = contraction_modulus(
        build_macro_diversity_transformed(asymmetric_md((1.0, 1.0, 2.0 / 3.0)))
    )
    assert abs(boundary.modulus - 1.0) <= 1e-12
    assert feasibility_formula(asymmetric_md((0.99, 0.99, 0.66))).feasible
    assert not feasibility_formula(asymmetric_md((1.01, 1.01, 0.67))).feasible

    spec_macro = RegionSpec("macro_div", n=3, resolution=41, alpha_max=3.0,
                            gains=ASYMMETRIC_GAINS)
    spec_hanly = RegionSpec("hanly", n=3, resolution=41, alpha_max=3.0, receivers=2)
    comparison = compare_regions(sample_region(spec_macro), sample_region(spec_hanly))
    assert comparison.relation == "incomparable"
    for witness, inside, outside in (
        (comparison.witness_a_not_b, spec_macro, spec_hanly),
        (comparison.witness_b_not_a, spec_hanly, spec_macro),
    ):
        assert witness is not None
        assert evaluate_predicate(inside, np.array([witness]))[0]
        assert not evaluate_predicate(outside, np.array([witness]))[0]
    assert time.perf_counter() - start < 10.0


@criterion(4, "fixed-point-oracle-equivalence")
def test_oracle_equivalence_on_affine_systems():
    rng = np.random.default_rng(20_240)
    start = time.perf_counter()
    for trial in range(100):
        target = float(rng.uniform(0.2, 0.95))
        if trial % 2 == 0:
            system = build_single_cell_received(random_single_cell_received(rng, target))
        else:
            system = build_fixed_assignment(random_fixed_assignment(rng, target))
        report = contraction_modulus(system)
        assert report.modulus <= 0.95 + 1e-12
        direct = linear_oracle(*affine_parts(system))
        iterated, trace = solve(system, SolveConfig(tolerance=1e-12))
        assert sup_norm(iterated.as_array() - direct.as_array()) <= 1e-9
        assert rate_check(trace, report.modulus)
    assert time.perf_counter() - start < 5.0


@criterion(5, "uniqueness-across-initial-points")
def test_uniqueness_across_initial_points():
    rng = np.random.default_rng(20_241)
    tolerance = 1e-10
    for _ in range(20):
        md = random_macro_diversity(rng, target=float(rng.uniform(0.3, 0.95)))
        system = build_macro_diversity_transformed(md)
        report = contraction_modulus(system)
        assert report.feasible
        from_zero, trace_zero = solve(system, SolveConfig(tolerance=tolerance))
        from_high, trace_high = solve(
            system,
            SolveConfig(tolerance=tolerance, initial=PowerVector.full(md.n, 100.0)),
        )
        assert sup_norm(from_zero.as_array() - from_high.as_array()) <= 2 * tolerance
        assert rate_check(trace_zero, report.modulus)
        assert rate_check(trace_high, report.modulus)


@criterion(6, "geometric-convergence-rate")
def test_geometric_rate_on_convergent_traces():
    rng = np.random.default_rng(20_242)
    systems = [
        build_single_cell_received(
            SingleCell(alphas=QosVector((0.3, 0.4)), gains=(1.0, 1.0), sigma=1.0)
        ),
        build_single_cell_transformed(
            SingleCell(alphas=QosVector((0.6, 0.3, 0.2)), gains=(1.0,) * 3, sigma=1.0)
        ),
        build_macro_diversity_transformed(symmetric_md(0.99)),  # slow, ~2750 steps
        build_macro_diversity(random_macro_diversity(rng, target=0.7)),
        build_fixed_assignment(random_fixed_assignment(rng, target=0.6)),
        build_multi_connection(random_multi_connection(rng, target=0.8), noiseless=False),
    ]
    for system in systems:
        report = contraction_modulus(system)
        for initial in (None, PowerVector.full(system.n, 50.0)):
            _, trace = solve(system, SolveConfig(tolerance=1e-9, initial=initial))
            assert trace.converged
            assert rate_check(trace, report.modulus)


@criterion(7, "axiom-suite")
def test_axiom_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20_243)
    for dim in range(2, 7):
        # a macro-diversity rule consuming `dim` powers needs dim + 1 terminals
        md = MacroDiversity(
            alphas=QosVector(tuple(rng.uniform(0.2, 1.0, size=dim + 1))),
            gains=GainMatrix(tuple(map(tuple, rng.uniform(0.1, 2.0, size=(dim + 1, 3))))),
            noise=NoiseVector((1.0, 1.0, 1.0)),
        )
        candidates = [
            HolderNorm(1),
            HolderNorm(2),
            HolderNorm(math.inf),
            WeightedAbsSum(tuple(rng.uniform(0.2, 2.0, size=dim))),
            build_macro_diversity_transformed(md).rules[0].f,
        ]
        for f in candidates:
            report = check_all(f, dim, samples=2000, seed=1000 + dim)
            assert report.all_passed, (dim, type(f).__name__,
                                       [v.axiom for v in report.verdicts() if not v.passed])

    verdict = check_subadd(lambda x: float(np.abs(x).sum() ** 2), 1, 2000, seed=7)
    assert not verdict.passed
    assert verdict.counterexample.inputs == ((1.0,), (1.0,))
    assert verdict.counterexample.lhs == 4.0
    assert verdict.counterexample.rhs == 2.0
    assert time.perf_counter() - start < 10.0


@criterion(8, "coordinate-transform-consistency")
def test_coordinate_transform_consistency():
    rng = np.random.default_rng(20_244)
    for trial in range(20):
        target = float(rng.uniform(0.3, 0.9))
        if trial % 2 == 0:
            sc = random_single_cell_received(rng, target)
            p, _ = solve(build_single_cell_received(sc), SolveConfig(tolerance=1e-12))
            q, _ = solve(build_single_cell_transformed(sc), SolveConfig(tolerance=1e-12))
            mapped = [pi / ai for pi, ai in zip(p, sc.alphas)]
        else:
            md = random_macro_diversity(rng, target=target)
            lam_orig = feasibility_formula(md, coordinates="original").modulus
            if lam_orig >= 1.0:  # rescale so the original certificate holds too
                scale = target / lam_orig
                md = MacroDiversity(
                    alphas=QosVector(tuple(a * scale for a in md.alphas)),
                    gains=md.gains,
                    noise=md.noise,
                )
            p, _ = solve(build_macro_diversity(md), SolveConfig(tolerance=1e-12))
            q, _ = solve(build_macro_diversity_transformed(md), SolveConfig(tolerance=1e-12))
            mapped = [hi * pi / ai for hi, pi, ai in zip(md.gains.row_sums, p, md.alphas)]
        for qi, mi in zip(q, mapped):
            assert abs(qi - mi) <= 1e-8 * max(abs(mi), 1e-30)


@criterion(9, "multi-connection-domination")
def test_multi_connection_domination():
    rng = np.random.default_rng(20_245)
    samples_checked = 0
    for _ in range(5):
        mc = random_multi_connection(rng, target=float(rng.uniform(0.4, 0.95)))
        bounded = build_multi_connection(mc, noiseless=False)
        exact_scaled = mc_exact_rules_in_bounded_coords(mc)
        xs = rng.uniform(0.0, 10.0, size=(2000, mc.n - 1))
        for x in xs:
            for j in range(mc.n):
                assert bounded.rules[j].f(x) >= exact_scaled[j](x) - 1e-12
            samples_checked += 1
        # feasibility of the bounded condition certifies its iteration
        report = feasibility_formula(mc, noiseless=False)
        assert report.feasible
        _, trace = solve(bounded, SolveConfig(tolerance=1e-10))
        assert trace.converged and trace.certified
    assert samples_checked >= 10_000
