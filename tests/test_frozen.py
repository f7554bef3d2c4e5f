"""Model data is held as read-only copies, checked once where it is built, so no cache
built from it can go stale."""

from dataclasses import replace

import numpy as np
import pytest

from finnet import fixtures
from finnet.invariance import Polyhedron
from finnet.netmodel import FinancialNetwork, ShiftedModel, validate
from finnet.numerics import LinearProgram
from finnet.robust import IntervalNetwork, extremal_fixed_points

C2 = [[0.0, 0.5], [0.5, 0.0]]

# each class with the caller's arrays it is built from
CASES = {
    "FinancialNetwork": (FinancialNetwork, lambda: dict(
        C=np.array(C2), D=np.eye(2), p=np.ones(2), beta=np.full(2, 0.5),
        threshold=np.full(2, 0.5))),
    "ShiftedModel": (ShiftedModel, lambda: dict(
        C=np.array(C2), r=np.full(2, 0.5), beta=np.full(2, 0.5), threshold=np.zeros(2))),
    "Polyhedron": (Polyhedron, lambda: dict(
        A=np.eye(2), b=np.zeros(2), row_power=np.zeros(2, dtype=int))),
    "IntervalNetwork": (IntervalNetwork, lambda: dict(
        c_lower=0.9 * np.array(C2), c_upper=1.1 * np.array(C2), r=np.full(2, 0.5))),
    "LinearProgram": (LinearProgram, lambda: dict(c=np.ones(2), A=np.eye(2), b=np.zeros(2))),
}


@pytest.mark.parametrize("name", CASES)
def test_value_objects_hold_read_only_copies(name):
    cls, make = CASES[name]
    caller = make()
    before = {field: a.copy() for field, a in caller.items()}
    obj = cls(**caller)
    for field, a in caller.items():
        held = getattr(obj, field)
        assert not held.flags.writeable and held.base is None
        assert not np.shares_memory(held, a)
        with pytest.raises(ValueError, match="read-only"):
            held[...] = 0
        # the caller's array stays writeable and unchanged, and writing to it leaves obj as built
        assert a.flags.writeable and np.array_equal(a, before[field])
        a += 1
        assert np.array_equal(held, before[field])
    # an object built from another's frozen arrays shares them
    again = cls(**{field: getattr(obj, field) for field in caller})
    assert all(getattr(again, field) is getattr(obj, field) for field in caller)


def test_lists_and_views_are_copied_once_frozen():
    net = fixtures.two_bank()
    view = net.C[:, :]      # read-only, but it does not own its data
    assert ShiftedModel(C=view, r=[0.5, 0.5], beta=net.beta, threshold=net.threshold).C is not view
    poly = Polyhedron(A=[[1.0, 0.0]], b=[0.0], row_power=[0])
    assert poly.row_power.dtype == int and not poly.A.flags.writeable


def test_models_built_from_a_frozen_network_share_its_arrays():
    net = fixtures.complete10()
    model = ShiftedModel.from_network(net)
    assert model.C is net.C and model.beta is net.beta and model.threshold is net.threshold
    moved = replace(net, D=np.zeros_like(net.D))
    assert all(getattr(moved, f) is getattr(net, f) for f in ("C", "p", "beta", "threshold"))
    poly = Polyhedron(A=np.eye(2), b=np.zeros(2), row_power=[0, 0])
    certified = replace(poly, certified=True)
    assert certified.A is poly.A and certified.b is poly.b and certified.row_power is poly.row_power
    lp = LinearProgram(c=np.ones(2), A=poly.A, b=poly.b)
    assert lp.A is poly.A and lp.b is poly.b


def test_an_interval_network_cannot_change_under_its_cached_extremes():
    # its extremes, and the regions built from them, are cached on it. An in-place write to
    # c_lower would leave extremal_fixed_points at (0.909, 0.909) where a fresh network with
    # the new bounds gives (0.5, 0.5), and one to c_upper would skip the column-sum check
    net = fixtures.two_bank()
    inet = IntervalNetwork.from_nominal(net.C, ShiftedModel.from_network(net).r, 0.1)
    np.testing.assert_allclose(extremal_fixed_points(inet)[0], [10 / 11, 10 / 11])
    with pytest.raises(ValueError, match="read-only"):
        inet.c_lower[0, 1] = inet.c_lower[1, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        inet.c_upper[0, 1] = 2.0
    np.testing.assert_allclose(extremal_fixed_points(inet)[0], [10 / 11, 10 / 11])
    c_lower = inet.c_lower.copy()
    c_lower[0, 1] = c_lower[1, 0] = 0
    fresh = IntervalNetwork(c_lower=c_lower, c_upper=inet.c_upper, r=inet.r)
    np.testing.assert_allclose(extremal_fixed_points(fresh)[0], [0.5, 0.5])
    c_upper = inet.c_upper.copy()
    c_upper[0, 1] = 2.0
    with pytest.raises(ValueError, match="^c_upper column sums must be < 1$"):
        IntervalNetwork(c_lower=inet.c_lower, c_upper=c_upper, r=inet.r)


def test_a_model_refuses_non_finite_data_but_a_network_reports_it():
    # validate names a network's violations; a model, which every analysis reads, refuses them
    net = FinancialNetwork(C=np.zeros((2, 2)), D=np.eye(2), p=[np.nan, 1.0], beta=np.ones(2),
                           threshold=np.zeros(2))
    assert not net.p.flags.writeable and validate(net) == ["p contains non-finite entries"]
    with pytest.raises(ValueError, match="^model data C, r or beta contains non-finite entries$"):
        ShiftedModel.from_network(net)
