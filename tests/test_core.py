import inspect
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from powerfeas.axioms import (
    AXIOM_NAMES,
    AxiomReport,
    CheckVerdict,
    Counterexample,
    HolderNorm,
    NormOfNorms,
    WeightedAbsSum,
)
from powerfeas.capacity import RegionCloud, RegionComparison, RegionSpec, sample_region
from powerfeas.core import (
    FeasibilityReport,
    InvalidInputError,
    PowerVector,
    SolveConfig,
    _Frozen,
)
from powerfeas.engine import SolveRun
from powerfeas.maps import LeaveOneOutMap, leave_one_out_map
from powerfeas.scenarios import FixedAssignment, MacroDiversity, MultiConnection, SingleCell
from reference import (
    AdjustmentRule,
    DominationBound,
    MinSelectionRule,
    System,
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


def pair_cell(alphas=(0.3, 0.4)):
    return SingleCell(alphas, (1.0,) * len(alphas), 1.0)


def macro(gains, noise=(1.0, 1.0)):
    return MacroDiversity((0.5,) * len(gains), gains, noise)


class TestScenarioTargets:
    """The targets a scenario takes: at least two, each finite and > 0, stored as floats."""

    def test_valid(self):
        for alphas in ((0.3, 0.4), [0.3, 0.4], np.array([0.3, 0.4]), (Fraction(3, 10), 0.4)):
            cell = pair_cell(alphas)
            assert cell.alphas == (0.3, 0.4) and type(cell.alphas[0]) is float

    @pytest.mark.parametrize("bad", [(), (0.0,), (-1.0, 0.5), (math.inf, 1.0), (0.5,)])
    def test_invalid(self, bad):
        with pytest.raises(InvalidInputError, match="^(SingleCell|admission test): "):
            pair_cell(bad)


class TestMacroDiversityGains:
    """Macro diversity's terminal-major gains, with their row sums and relative gains."""

    def test_relative_rows_sum_to_one(self):
        md = macro(((1.0, 1.0), (2.0, 2.0), (0.5, 0.5)))
        assert md.n == 3 and md.receivers == 2
        assert md.row_sums == (2.0, 4.0, 1.0)
        for row in md.relative:
            assert sum(row) == pytest.approx(1.0, abs=1e-12)
        assert md.relative[0] == (0.5, 0.5)

    def test_zero_entry_allowed(self):
        md = macro(((1.0, 1.0, 0.0),) * 2, noise=(1.0,) * 3)
        assert md.relative[0][2] == 0.0

    def test_zero_row_rejected(self):
        with pytest.raises(InvalidInputError, match="^MacroDiversity: gain row 2 sums to zero"):
            macro(((1.0, 1.0), (0.0, 0.0)))

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^MacroDiversity gains: entry \(1,2\)"):
            macro(((1.0, -0.1), (1.0, 1.0)))

    def test_ragged_rejected(self):
        with pytest.raises(InvalidInputError, match="^MacroDiversity gains: row 2 has length 1"):
            macro(((1.0, 1.0), (1.0,)))


class TestNoiseAndPower:
    def test_noise_max(self):
        md = macro(((1.0,) * 3,) * 2, noise=[0.5, 2, 1.0])
        assert md.noise == (0.5, 2.0, 1.0)
        assert leave_one_out_map(md).c == (2.0, 2.0)  # the bounded map's offset is the largest noise

    def test_noise_negative_rejected(self):
        for make in (partial(macro, ((1.0,),) * 2), partial(FixedAssignment, (0.5, 0.5), ((1.0, 1.0),), (0, 0)),
                     partial(MultiConnection, (0.5, 0.5), ((1.0, 1.0),), (1, 1))):
            with pytest.raises(InvalidInputError, match="noise power for receiver 1 must be finite and >= 0"):
                make(noise=(-0.1,))

    def test_power_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            PowerVector((1.0, -2.0))

    @pytest.mark.parametrize("make, args, message", [
        (PowerVector, (1.0, 2.0, math.nan), "PowerVector: power for terminal 3 must be finite and >= 0, got nan"),
        (partial(macro, ((1.0, 1.0),) * 2), (math.inf, -1.0),
         "MacroDiversity: noise power for receiver 1 must be finite and >= 0, got inf"),
        (pair_cell, (0.5, -0.0), "SingleCell: target for terminal 2 must be finite and > 0, got -0.0"),
        (macro, ((1.0, 1.0), (1.0, -math.inf)), "MacroDiversity gains: entry (2,2) must be finite and >= 0, got -inf"),
    ], ids=["nan_after_valid", "inf", "negative_zero_target", "matrix_position"])
    def test_entry_check_names_the_first_bad_entry(self, make, args, message):
        with pytest.raises(InvalidInputError) as excinfo:
            make(args)
        assert str(excinfo.value) == message

    def test_entry_check_passes_valid_entries_whose_sum_overflows(self):
        assert PowerVector((1e308, 1e308, 0.0)).p == (1e308, 1e308, 0.0)
        assert macro(((1.0, 1.0),) * 2, noise=(-0.0, 1.0)).noise == (-0.0, 1.0)

    def test_power_constructors(self):
        assert PowerVector.full(2, 100.0).p == (100.0, 100.0)


class TestFeasibilityReport:
    def test_binding_is_the_first_argmax(self):
        report = FeasibilityReport([0.4, 0.3])
        assert report.modulus == 0.4
        assert report.feasible
        assert report.binding == (0, None)
        assert report == FeasibilityReport((0.4, 0.3), None)
        assert FeasibilityReport((0.2, 0.5, 0.5), 3).binding == (1, 3)

    def test_boundary_is_infeasible(self):
        report = FeasibilityReport([1.0, 0.5])
        assert not report.feasible


def value_types() -> list[type]:
    """Every subclass of ``core._Frozen`` the package and ``reference`` define, by name.

    A private base (``scenarios._Scenario``) holds no fields: its subclasses are the values.
    """
    found, todo = set(), [_Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.split(".")[0] in ("powerfeas", "reference") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return sorted((cls for cls in found if not cls.__name__.startswith("_")), key=lambda cls: cls.__name__)


def value_examples() -> dict:
    """Per value type, two sets of arguments whose values differ in one field.

    A set is a tuple of positional arguments, or a dict of keyword arguments.
    """
    q, gains = (0.2, 0.3), ((1.0, 0.5), (0.5, 1.0))
    noise, w = (1.0, 2.0), WeightedAbsSum((0.5,))
    rules = ((w, 1.0), (w, 1.0))
    md = MacroDiversity(q, gains, noise)
    cloud = sample_region(RegionSpec(md, resolution=2, alpha_max=1.0))
    flipped = ~cloud.feasible
    passes = tuple(map(CheckVerdict, AXIOM_NAMES))
    witness = Counterexample(((1.0,),), 2.0, 1.0)
    return {
        PowerVector: (((1.0, 2.0),), ((2.0, 2.0),)),
        FeasibilityReport: (((0.5, 0.7), 0), ((0.5, 0.7), None)),
        SolveConfig: ((1e-8, 10, PowerVector((1.0, 2.0))), (1e-8, 20, PowerVector((1.0, 2.0)))),
        SingleCell: ((q, (1.0, 2.0), 0.5), (q, (1.0, 2.0), 0.6)),
        MacroDiversity: ((q, gains, noise), (q, ((1.0, 0.6), (0.5, 1.0)), noise)),
        FixedAssignment: ((q, gains, (0, 1), noise), (q, gains, (0, 0), noise)),
        MultiConnection: ((q, gains, (1, 2), noise), (q, gains, (1, 1), noise)),
        LeaveOneOutMap: ((((1.0, 2.0),), (1.0, 1.0)), (((1.0, 2.0),), (1.0, 3.0))),
        Counterexample: ((((1.0,),), 2.0, 1.0), (((1.0,),), 3.0, 1.0)),
        CheckVerdict: (("sub-additivity",), ("sub-additivity", witness)),
        AxiomReport: ((2, 10, 0, passes), (2, 10, 1, passes)),
        RegionSpec: ({"scenario": md, "resolution": 2, "alpha_max": 1.0},
                     {"scenario": md, "resolution": 2, "alpha_max": 2.0}),
        RegionCloud: ((cloud.spec, cloud.alphas, cloud.feasible), (cloud.spec, cloud.alphas, flipped)),
        RegionComparison: (((0.5, 0.5), None), (None, None)),
        SolveRun: (((0.5, 0.1), True, 0.2, True, "policy"), ((0.5, 0.15), True, 0.2, True, "policy")),
        AdjustmentRule: ((w, 1.0), (w, 2.0)),
        System: ((rules,), (((w, 2.0), rules[1]),)),
        MinSelectionRule: ((gains, (1.0, 2.0), 1), (gains, (1.0, 2.0), 2)),
        DominationBound: ((1.5, 2), (1.5, 3)),
        WeightedAbsSum: (((0.5,),), ((0.6,),)),
        HolderNorm: ((2.0,), (3.0,)),
        NormOfNorms: (((w,),), ((w,), HolderNorm(2.0))),
    }


def test_every_value_type_has_an_example():
    assert value_types() == sorted(value_examples(), key=lambda cls: cls.__name__)
    assert len(value_types()) == 22


def construct(cls, args):
    return cls(**args) if isinstance(args, dict) else cls(*args)


@pytest.mark.parametrize("cls", value_types(), ids=lambda cls: cls.__name__)
def test_value_types_are_immutable_values(cls):
    args, other_args = value_examples()[cls]
    value, same, other = construct(cls, args), construct(cls, args), construct(cls, other_args)
    names = list(inspect.signature(cls).parameters)
    fields = tuple(getattr(value, name) for name in names)
    for name in (names[0], "unknown"):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable"):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields
    assert value == same and not value != same
    assert value != other and not value == other
    try:
        hash(fields)
    except TypeError:  # an array field: the value is unhashable too
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same) and hash(value) != hash(other)
    twin = construct(type(cls.__name__, (cls,), {}), args)  # same name and fields, another type
    assert value != twin and twin != value and value != fields
    assert repr(value) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, fields))})"
