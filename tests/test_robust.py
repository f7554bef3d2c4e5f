"""Interval-uncertain cross-holdings: extremes, regions, sandwich bounds."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finnet import equilibria, fixtures, invariance, robust
from finnet.cycles import NonFiniteTrajectoryError
from finnet.numerics import SolverError
from finnet.numerics import solve_linear
from finnet.invariance import maximal_invariant_region, polyhedra_equivalent
from finnet.netmodel import ShiftedModel
from finnet.robust import (
    IntervalNetwork,
    NoPositiveEquilibriumError,
    extremal_fixed_points,
    last_hope_membership,
    last_hope_region,
    robust_invariant_set,
    robust_report,
    sandwich_bounds,
    uniform_sampler,
)


def two_bank_interval(spread=0.10):
    net = fixtures.two_bank()
    model = ShiftedModel.from_network(net)
    return IntervalNetwork.from_nominal(net.C, model.r, spread)


def test_interval_validation():
    C = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError):
        IntervalNetwork(c_lower=1.1 * C, c_upper=C, r=np.ones(2))   # lower > upper
    with pytest.raises(ValueError):
        IntervalNetwork(c_lower=C, c_upper=2.2 * C, r=np.ones(2))   # col sums > 1
    with pytest.raises(ValueError):
        IntervalNetwork(c_lower=-C, c_upper=C, r=np.ones(2))


@pytest.mark.parametrize("c_lower, c_upper, r, message", [
    (np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2), "square matrices of equal shape"),
    (np.zeros((2, 2)), np.zeros((3, 3)), np.ones(2), "square matrices of equal shape"),
    (np.zeros(2), np.zeros(2), np.ones(2), "square matrices of equal shape"),
    (np.zeros((2, 2)), np.zeros((2, 2)), np.ones(3), "r has wrong shape")])
def test_interval_rejects_bad_shapes(c_lower, c_upper, r, message):
    with pytest.raises(ValueError, match=message):
        IntervalNetwork(c_lower=c_lower, c_upper=c_upper, r=r)


@pytest.mark.parametrize("name", ["c_lower", "c_upper", "r"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_interval_rejects_non_finite_data(name, bad):
    # NaN passes every ordering and column-sum test, so finiteness is checked first
    C = np.array([[0.0, 0.4], [0.4, 0.0]])
    parts = {"c_lower": C, "c_upper": 1.25 * C, "r": np.ones(2)}
    parts[name] = np.where(parts[name] > 0, bad, parts[name])
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
        IntervalNetwork(**parts)


def test_from_nominal_keeps_zero_entries_pinned():
    inet = two_bank_interval()
    assert inet.c_lower[0, 0] == 0.0 and inet.c_upper[0, 0] == 0.0
    assert inet.c_lower[0, 1] == pytest.approx(0.45)
    assert inet.c_upper[0, 1] == pytest.approx(0.55)


def test_extremal_fixed_points_hand_values():
    # scalar network: c in [0.2, 0.5], r = 1 gives 1/(1-c) in [1.25, 2.0]
    inet = IntervalNetwork(c_lower=np.array([[0.2]]), c_upper=np.array([[0.5]]),
                           r=np.array([1.0]))
    xl, xu = extremal_fixed_points(inet)
    np.testing.assert_allclose(xl, [1.25], atol=1e-12)
    np.testing.assert_allclose(xu, [2.0], atol=1e-12)

    xl, xu = extremal_fixed_points(two_bank_interval())
    np.testing.assert_allclose(xl, [10 / 11, 10 / 11], atol=1e-9)
    np.testing.assert_allclose(xu, [10 / 9, 10 / 9], atol=1e-9)
    assert np.all(xl <= xu)


def test_collapsed_interval_reduces_to_nominal():
    net = fixtures.two_bank()
    model = ShiftedModel.from_network(net)
    inet = IntervalNetwork(c_lower=net.C, c_upper=net.C, r=model.r)
    xl, xu = extremal_fixed_points(inet)
    np.testing.assert_allclose(xl, xu, atol=1e-12)
    np.testing.assert_allclose(xl, [1.0, 1.0], atol=1e-9)
    # the failure term is inactive on orthant 0, so the region is the nominal one
    assert polyhedra_equivalent(robust_invariant_set(inet), maximal_invariant_region(model, 0))


def test_negative_lower_equilibrium_is_rejected():
    inet = IntervalNetwork(c_lower=np.array([[0.1]]), c_upper=np.array([[0.2]]),
                           r=np.array([-1.0]))
    for _ in range(2):      # on every call: the rejection is never cached
        with pytest.raises(NoPositiveEquilibriumError,
                           match="^orthant 0 has no consistent equilibrium$"):
            robust_invariant_set(inet)
        with pytest.raises(NoPositiveEquilibriumError):
            sandwich_bounds(inet, np.array([1.0]), T=5, sampler=uniform_sampler(inet))


def test_regions_nest_lower_inside_upper():
    inet = two_bank_interval()
    robust = robust_invariant_set(inet)
    hope = last_hope_region(inet)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 3.0, size=(300, 2))
    for x in pts:
        if robust.contains(x):
            assert hope.contains(x)


def test_sandwich_ordering_and_limits():
    inet = two_bank_interval()
    xl, xu = extremal_fixed_points(inet)
    x0 = np.array([1.0, 1.0])
    res = sandwich_bounds(inet, x0, T=200, sampler=uniform_sampler(inet, seed=5))
    assert np.all(res.lower <= res.sampled + 1e-9)
    assert np.all(res.sampled <= res.upper + 1e-9)
    assert np.all(res.liminf_estimate >= xl - 1e-6)
    assert np.all(res.limsup_estimate <= xu + 1e-6)


def constant_sampler(c):
    return lambda t0, t1: np.broadcast_to(c, (t1 - t0,) + c.shape)


def test_constant_samplers_converge_to_their_fixed_points():
    inet = two_bank_interval()
    xl, xu = extremal_fixed_points(inet)
    x0 = np.array([1.0, 1.0])
    low = sandwich_bounds(inet, x0, T=300, sampler=constant_sampler(inet.c_lower))
    high = sandwich_bounds(inet, x0, T=300, sampler=constant_sampler(inet.c_upper))
    np.testing.assert_allclose(low.sampled[-1], xl, atol=1e-10)
    np.testing.assert_allclose(high.sampled[-1], xu, atol=1e-10)


def random_interval(rng, n):
    C = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(C, 0.0)
    C *= rng.uniform(0.3, 0.8, size=n) / np.maximum(C.sum(axis=0), 1e-300)     # n = 1: C = 0
    return IntervalNetwork.from_nominal(C, rng.uniform(0.1, 0.5, size=n), 0.1)


def ten_bank_interval(seed=0):
    return random_interval(np.random.default_rng(seed), 10)


@pytest.mark.parametrize("inet, calls", [(two_bank_interval(), 2500),
                                         (ten_bank_interval(), 130)])
def test_uniform_sampler_is_the_per_call_stream(inet, calls):
    # [0, calls) split into blocks of 1, 7, 1000 (at calls = 2500) and the rest steps: each
    # step is bitwise one rng.uniform call, which pins numpy's uniform as low + range * u
    # with no fused multiply-add
    sampler = uniform_sampler(inet, seed=11)
    rng = np.random.default_rng(11)
    t0 = 0
    for t1 in sorted({1, 8, min(1008, calls), calls}):
        block = sampler(t0, t1)
        assert block.shape == (t1 - t0, inet.n, inet.n)
        expected = np.array([rng.uniform(inet.c_lower, inet.c_upper) for _ in range(t0, t1)])
        np.testing.assert_array_equal(block.view(np.uint64), expected.view(np.uint64))
        assert np.all(block[:, 0, 0] == 0.0)        # zero-width entries stay put
        t0 = t1


@pytest.mark.parametrize("inet", [two_bank_interval(), ten_bank_interval()])
def test_sandwich_extremes_are_the_plain_iteration(inet):
    x0 = np.full(inet.n, 1.0)
    res = sandwich_bounds(inet, x0, T=300, sampler=uniform_sampler(inet, seed=2))
    for C, states in ((inet.c_lower, res.lower), (inet.c_upper, res.upper)):
        x, expected = x0, [x0]
        for _ in range(300):
            x = C @ x + inet.r
            expected.append(x)
        np.testing.assert_array_equal(states.view(np.uint64), np.array(expected).view(np.uint64))


def plain_sandwich(inet, x0, T, sampler):
    """One x = M @ x; x += r loop per trajectory: sampled, lower, upper."""
    runs = []
    for draw in (sampler, constant_sampler(inet.c_lower), constant_sampler(inet.c_upper)):
        x, states = x0, [x0]
        for t in range(T):
            x = draw(t, t + 1)[0] @ x
            x += inet.r
            states.append(x)
        runs.append(np.array(states))
    return runs


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12) | st.just(64), T=st.sampled_from([0, 1, 7, 200]),
       seed=st.integers(0, 2**32 - 1), constant=st.booleans())
@example(n=64, T=200, seed=1, constant=False)
@example(n=64, T=7, seed=2, constant=True)
def test_stacked_sandwich_is_bitwise_the_plain_loop(n, T, seed, constant):
    # the stacked product rests on numpy running each slice's matrix-vector
    # product as the plain c @ x does; the constant sampler returns one broadcast array,
    # and at n = 64 a block holds 16 steps, so T = 200 crosses 13 blocks
    rng = np.random.default_rng(seed)
    inet = random_interval(rng, n)
    x0 = rng.uniform(0.0, 3.0, size=n)
    make = ((lambda: constant_sampler(inet.c_lower)) if constant
            else (lambda: uniform_sampler(inet, seed)))
    res = sandwich_bounds(inet, x0, T, sampler=make())
    for got, want in zip((res.sampled, res.lower, res.upper), plain_sandwich(inet, x0, T, make())):
        assert got.shape == want.shape == (T + 1, n)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("draw, shape", [(lambda inet, t0, t1: inet.r, "(2,)"),
                                         (lambda inet, t0, t1: 0.5, "()"),
                                         (lambda inet, t0, t1: np.zeros((1, 2, 2)), "(1, 2, 2)"),
                                         (lambda inet, t0, t1: inet.c_lower, "(2, 2)")])
def test_sandwich_rejects_sampler_of_wrong_shape(draw, shape):
    # a scalar, a vector, a one-step stack or one matrix would broadcast over the block
    inet = two_bank_interval()
    with pytest.raises(ValueError, match=rf"^sampler returned shape {re.escape(shape)} for steps "
                                         r"0\.\.4, expected \(5, 2, 2\)$"):
        sandwich_bounds(inet, np.array([1.0, 1.0]), T=5,
                        sampler=lambda t0, t1: draw(inet, t0, t1))


def test_sandwich_rejects_non_finite_sampler_matrix():
    inet = two_bank_interval()
    def sampler(t0, t1):
        late = (np.arange(t0, t1) >= 3)[:, None, None]
        return np.where(late, np.nan, inet.c_lower)
    with pytest.raises(ValueError, match="^sampled trajectory is not finite from step 4$"):
        sandwich_bounds(inet, np.array([1.0, 1.0]), T=10, sampler=sampler)


def test_sandwich_overflow_is_a_solver_error():
    # a block of 1e308s takes the sampled state past float range at step 1: a typed
    # SolverError (the CLI exits 3)
    inet = two_bank_interval()
    message = "^sampled trajectory is not finite from step 1$"
    with np.errstate(over="ignore"), pytest.raises(NonFiniteTrajectoryError, match=message) as err:
        sandwich_bounds(inet, np.array([1.0, 1.0]), T=10,
                        sampler=lambda t0, t1: np.full((t1 - t0, 2, 2), 1e308))
    assert isinstance(err.value, SolverError) and isinstance(err.value, ValueError)


def test_sandwiches_share_one_robust_region(monkeypatch):
    builds = []
    build = robust._region_from
    monkeypatch.setattr(robust, "_region_from",
                        lambda model, eq: builds.append(model.C) or build(model, eq))
    inet = two_bank_interval()
    for seed in (1, 2):
        sandwich_bounds(inet, np.array([1.0, 1.0]), T=20, sampler=uniform_sampler(inet, seed))
    assert len(builds) == 1
    assert robust_invariant_set(inet) is inet.lower_region


@pytest.mark.parametrize("T", [-1, -3])
def test_sandwich_rejects_negative_horizon(T):
    with pytest.raises(ValueError, match="^horizon must be nonnegative$"):
        inet = two_bank_interval()
        sandwich_bounds(inet, np.array([1.0, 1.0]), T=T, sampler=uniform_sampler(inet))


def test_sandwich_rejects_outside_start():
    inet = two_bank_interval()
    with pytest.raises(ValueError):
        sandwich_bounds(inet, np.array([-0.5, 1.0]), T=10, sampler=uniform_sampler(inet))


def test_last_hope_membership_needs_nonneg():
    inet = two_bank_interval()
    assert last_hope_membership(inet, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        last_hope_membership(inet, np.array([-1.0, 1.0]))


@pytest.mark.parametrize("x0, message", [
    ([np.nan, 1.0], r"^x0 has non-finite entries$"),
    ([1.0, 1.0, 1.0], r"^x0 has shape \(3,\), expected \(2,\)$")])
def test_last_hope_membership_rejects_a_bad_state(x0, message):
    # checked as sandwich_bounds checks it: else a NaN entry reads as outside the region, and
    # a wrong length raises numpy's matmul error
    with pytest.raises(ValueError, match=message):
        last_hope_membership(two_bank_interval(), x0)


def test_report_solves_each_extreme_once(monkeypatch):
    # the extremal fixed point and the region of each extreme share one solve
    inet = two_bank_interval()
    expected = [solve_linear(np.eye(2) - c, inet.r) for c in (inet.c_lower, inet.c_upper)]
    solves = []
    for mod in (equilibria, invariance, robust):
        monkeypatch.setattr(mod, "solve_linear",
                            lambda A, b: solves.append(A) or solve_linear(A, b), raising=False)
    rep = robust_report(inet, np.array([1.0, 1.0]), T=30)
    assert len(solves) == 2
    # bitwise the plain solves: beta = 0 adds nothing to r
    np.testing.assert_array_equal(rep.x_lower.view(np.uint64), expected[0].view(np.uint64))
    np.testing.assert_array_equal(rep.x_upper.view(np.uint64), expected[1].view(np.uint64))


def test_report_bundle():
    inet = two_bank_interval()
    rep = robust_report(inet)
    assert rep.robust_region.certified and rep.last_hope.certified
    assert np.all(rep.x_lower <= rep.x_upper)
    assert rep.sandwich is None and rep.last_hope_membership is None
    rep = robust_report(inet, np.array([1.0, 1.0]), T=30, seed=4)
    assert rep.sandwich.T == 30 and rep.sandwich.ordered
    assert rep.last_hope_membership is True
