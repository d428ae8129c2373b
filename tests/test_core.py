import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from powerfeas.core import (
    FeasibilityReport,
    GainMatrix,
    InvalidInputError,
    IterationTrace,
    NoiseVector,
    PowerVector,
    QosVector,
    insert_component,
    remove_component,
    sup_norm,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
vectors = st.lists(finite_floats, min_size=1, max_size=8)


class TestSupNorm:
    def test_zero_vector(self):
        assert sup_norm((0.0, 0.0, 0.0)) == 0.0

    def test_mixed_signs(self):
        assert sup_norm((1.0, -3.0, 2.0)) == 3.0

    def test_uniform(self):
        assert sup_norm((0.99, 0.99, 0.99)) == 0.99

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            sup_norm([])

    @given(x=vectors)
    def test_nonneg_and_definite(self, x):
        value = sup_norm(x)
        assert value >= 0.0
        assert (value == 0.0) == all(v == 0.0 for v in x)

    @given(x=vectors, lam=finite_floats)
    def test_homogeneous(self, lam, x):
        lhs = sup_norm([lam * v for v in x])
        rhs = abs(lam) * sup_norm(x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    @given(x=vectors, y=vectors)
    def test_triangle(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        assert sup_norm(np.add(x, y)) <= sup_norm(x) + sup_norm(y) + 1e-9


class TestRemoveComponent:
    def test_middle(self):
        assert remove_component((1.0, 2.0, 3.0), 1).tolist() == [1.0, 3.0]

    def test_first_of_two(self):
        assert remove_component((5.0, 7.0), 0).tolist() == [7.0]

    def test_last_symmetric(self):
        assert remove_component((4.0, 4.0, 4.0, 4.0), 3).tolist() == [4.0, 4.0, 4.0]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            remove_component((1.0, 2.0), 2)

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            remove_component((1.0,), 0)

    @given(x=st.lists(finite_floats, min_size=2, max_size=8), data=st.data())
    def test_reinsertion_roundtrip(self, x, data):
        i = data.draw(st.integers(min_value=0, max_value=len(x) - 1))
        reduced = remove_component(x, i)
        restored = insert_component(reduced, i, x[i])
        assert restored.tolist() == list(map(float, x))


class TestQosVector:
    def test_valid(self):
        q = QosVector((0.3, 0.4))
        assert len(q) == 2 and q[1] == 0.4

    @pytest.mark.parametrize("bad", [(), (0.0,), (-1.0, 0.5), (math.inf, 1.0)])
    def test_invalid(self, bad):
        with pytest.raises(InvalidInputError):
            QosVector(bad)


class TestGainMatrix:
    def test_relative_rows_sum_to_one(self):
        gm = GainMatrix(((1.0, 1.0), (2.0, 2.0), (0.5, 0.5)))
        assert gm.n_terminals == 3 and gm.n_receivers == 2
        for row in gm.relative:
            assert sum(row) == pytest.approx(1.0, abs=1e-12)
        assert gm.relative[0] == (0.5, 0.5)

    def test_zero_entry_allowed(self):
        gm = GainMatrix(((1.0, 1.0, 0.0),))
        assert gm.relative[0][2] == 0.0

    def test_zero_row_rejected(self):
        with pytest.raises(InvalidInputError):
            GainMatrix(((0.0, 0.0),))

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            GainMatrix(((1.0, -0.1),))

    def test_ragged_rejected(self):
        with pytest.raises(InvalidInputError):
            GainMatrix(((1.0, 1.0), (1.0,)))


class TestNoiseAndPower:
    def test_noise_max(self):
        assert NoiseVector((0.5, 2.0, 1.0)).max() == 2.0

    def test_noise_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            NoiseVector((-0.1,))

    def test_power_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            PowerVector((1.0, -2.0))

    def test_power_constructors(self):
        assert PowerVector.zeros(3).p == (0.0, 0.0, 0.0)
        assert PowerVector.full(2, 100.0).p == (100.0, 100.0)


class TestFeasibilityReport:
    def test_from_moduli(self):
        report = FeasibilityReport.from_moduli([0.4, 0.3])
        assert report.modulus == 0.4
        assert report.feasible
        assert report.binding == (0, None)

    def test_boundary_is_infeasible(self):
        report = FeasibilityReport.from_moduli([1.0, 0.5])
        assert not report.feasible

    def test_inconsistent_modulus_rejected(self):
        with pytest.raises(InvalidInputError):
            FeasibilityReport((0.2, 0.3), modulus=0.5, feasible=True)

    def test_inconsistent_verdict_rejected(self):
        with pytest.raises(InvalidInputError):
            FeasibilityReport((0.2, 0.3), modulus=0.3, feasible=False)


class TestIterationTrace:
    def test_delta_length_enforced(self):
        with pytest.raises(InvalidInputError):
            IterationTrace(
                iterates=(PowerVector.zeros(2),),
                deltas=(0.1,),
                converged=False,
                tolerance=1e-10,
            )

    def test_converged_requires_final_delta_within_tolerance(self):
        with pytest.raises(InvalidInputError):
            IterationTrace(
                iterates=(PowerVector.zeros(2), PowerVector.full(2, 1.0)),
                deltas=(1.0,),
                converged=True,
                tolerance=1e-10,
            )
