"""Model assembly, indicator/orthant bookkeeping, and simulation dynamics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finnet import fixtures
from finnet.netmodel import (
    FinancialNetwork,
    ShiftedModel,
    indicator,
    orthant_codes,
    orthant_of,
    orthant_phi,
    positivity_holds,
    simulate,
    validate,
)


def test_two_bank_assembles_and_validates():
    net = fixtures.two_bank()
    assert validate(net) == []
    np.testing.assert_allclose(net.r, [0.5, 0.5])


def test_validation_catches_shape_and_sign_errors():
    net = fixtures.two_bank()
    bad = FinancialNetwork(C=np.array([[0.0, 1.2], [0.5, 0.0]]), D=net.D,
                           p=net.p, beta=net.beta, threshold=net.threshold)
    violations = validate(bad)
    assert violations
    assert any("column" in v for v in violations)

    bad2 = FinancialNetwork(C=-net.C, D=net.D, p=net.p, beta=net.beta,
                            threshold=net.threshold)
    assert any("negative" in v for v in validate(bad2))

    bad3 = FinancialNetwork(C=net.C, D=net.D, p=np.array([4.0, -1.0]),
                            beta=net.beta, threshold=net.threshold)
    assert validate(bad3)


@pytest.mark.parametrize("field, value, message", [
    ("C", np.zeros((2, 3)), "C must be square, got (2, 3)"),
    ("D", np.ones((3, 2)), "D must have 2 rows, got (3, 2)"),
    ("p", np.ones(3), "p must have shape (2,), got (3,)"),
    ("beta", np.ones(3), "beta must have shape (2,), got (3,)"),
    ("threshold", np.ones((2, 1)), "threshold must have shape (2,), got (2, 1)"),
    ("threshold", np.array([5.0, np.nan]), "threshold contains non-finite entries"),
    ("D", np.array([[0.5, np.inf], [0.25, 0.5]]), "D contains non-finite entries"),
    ("C", np.array([[0.1, 0.5], [0.5, 0.0]]), "C has nonzero diagonal entries"),
    ("D", np.array([[0.5, -0.25], [0.25, 0.5]]), "D has negative entries"),
    ("p", np.zeros(2), "p has no positive entry"),
    ("beta", np.array([1.0, 0.0]), "beta must be strictly positive")],
    ids=["C-square", "D-rows", "p-shape", "beta-shape", "threshold-shape", "threshold-nan",
         "D-inf", "diagonal", "D-negative", "p-zero", "beta-zero"])
def test_validation_names_each_violation(field, value, message):
    net = fixtures.two_bank()
    parts = {name: getattr(net, name) for name in ("C", "D", "p", "beta", "threshold")}
    assert validate(FinancialNetwork(**{**parts, field: value})) == [message]


def test_singular_c_is_reported_as_warning_only():
    n = 2
    C = np.array([[0.0, 0.0], [0.0, 0.0]])      # singular but column sums fine
    net = FinancialNetwork(C=C, D=0.5 * np.eye(n), p=np.ones(n),
                           beta=np.ones(n), threshold=np.ones(n))
    assert validate(net) == []


def test_positivity_condition():
    net = fixtures.two_bank()
    # D p = (3, 3) >= beta = (1, 1)
    assert positivity_holds(net)
    starved = FinancialNetwork(C=net.C, D=0.01 * net.D, p=net.p,
                               beta=net.beta, threshold=net.threshold)
    assert not positivity_holds(starved)


def test_indicator_boundary_is_healthy():
    x = np.array([0.0, -0.0, 1e-300, -1e-300])
    np.testing.assert_array_equal(indicator(x), [0, 0, 0, 1])


@pytest.mark.parametrize("x", [[np.nan], [1.0, -np.nan], [[0.0, -1.0], [np.nan, np.inf]]])
def test_indicator_rejects_nan(x):
    with pytest.raises(ValueError, match="NaN"):
        indicator(x)
    model = ShiftedModel.from_parts(C=[[0.0]], r=[1.0], beta=[1.0])
    with pytest.raises(ValueError, match="NaN"):
        model.step([np.nan])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                min_size=1, max_size=6))
def test_indicator_agrees_with_sign(xs):
    x = np.array(xs, dtype=float)
    np.testing.assert_array_equal(indicator(x), (x < 0).astype(int))


def test_orthant_index_msb_first():
    # x = (1, -1) -> phi = (0, 1) -> k = 1; x = (-1, 1) -> k = 2
    assert orthant_of(np.array([1.0, -1.0])) == 1
    assert orthant_of(np.array([-1.0, 1.0])) == 2
    assert orthant_of(np.array([1.0, 1.0])) == 0
    assert orthant_of(np.array([-1.0, -1.0])) == 3
    np.testing.assert_array_equal(orthant_phi(5, 4), [0, 1, 0, 1])
    np.testing.assert_array_equal(orthant_phi(0, 3), [0, 0, 0])
    np.testing.assert_array_equal(orthant_phi(7, 3), [1, 1, 1])


def test_orthant_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        orthant_phi(16, 4)
    with pytest.raises(ValueError):
        orthant_phi(-1, 2)


def test_shifted_model_matches_network_dynamics():
    net = fixtures.two_bank()
    model = ShiftedModel.from_network(net)
    rng = np.random.default_rng(0)
    for _ in range(50):
        V = rng.uniform(-2.0, 12.0, size=2)
        x = V - net.threshold
        # V-coordinates stepped by hand
        V_next = net.C @ V + net.D @ net.p - net.beta * (V < net.threshold)
        np.testing.assert_allclose(model.step(x), V_next - net.threshold, atol=1e-12)


def test_affine_piece_reproduces_step_inside_orthant():
    net = fixtures.ring4()
    model = ShiftedModel.from_network(net)
    rng = np.random.default_rng(1)
    for _ in range(30):
        x = rng.uniform(-3.0, 3.0, size=4)
        k = orthant_of(x)
        A, c = model.affine_piece(k)
        np.testing.assert_allclose(A @ x + c, model.step(x), atol=1e-12)


def test_simulate_replay_and_orthants():
    net = fixtures.two_bank()
    model = ShiftedModel.from_network(net)
    traj = simulate(model, np.array([1.0, -1.0]), 20)
    assert traj.T == 20
    assert traj.states.shape == (21, 2)
    x = np.array([1.0, -1.0])
    for t in range(20):
        x = model.step(x)
        np.testing.assert_allclose(traj.states[t + 1], x, atol=1e-12)
    ks = traj.orthant_sequence()
    assert ks[0] == 1
    assert len(ks) == 21


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("batch", [False, True])
def test_simulate_rejects_non_finite_start(value, batch):
    # a NaN start once gave an all-NaN trajectory that classify_trajectory called undetermined
    model = ShiftedModel.from_network(fixtures.two_bank())
    x0 = np.array([[1.0, value], [-1.0, 2.0]]) if batch else np.array([value, 1.0])
    with pytest.raises(ValueError, match="x0 contains non-finite entries"):
        simulate(model, x0, 10)


def test_trajectories_stay_bounded_and_contract():
    # column sums below one give an ell-1 contraction toward each fixed piece
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        net = fixtures.random_network(rng, n)
        model = ShiftedModel.from_network(net)
        x = rng.uniform(-20.0, 20.0, size=n)
        y = rng.uniform(-20.0, 20.0, size=n)
        gamma = float(np.max(np.sum(net.C, axis=0)))
        assert gamma < 1.0
        for _ in range(10):
            xn, yn = model.step(x), model.step(y)
            # phi mismatch adds at most the beta gap; same-orthant pairs contract
            if np.array_equal(indicator(x), indicator(y)):
                assert np.sum(np.abs(xn - yn)) <= gamma * np.sum(np.abs(x - y)) + 1e-9
            x, y = xn, yn
        assert np.all(np.isfinite(x))


def test_monotone_step_for_same_indicator():
    # with phi frozen the map is order preserving (C >= 0)
    net = fixtures.ring4()
    model = ShiftedModel.from_network(net)
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = rng.uniform(0.1, 4.0, size=4)     # same healthy orthant
        y = x + rng.uniform(0.0, 2.0, size=4)
        assert np.all(model.step(x) <= model.step(y) + 1e-12)


def test_from_parts_defaults_threshold_to_zero():
    model = ShiftedModel.from_parts(C=np.array([[0.0]]), r=np.array([1.0]),
                                    beta=np.array([2.0]))
    np.testing.assert_array_equal(model.threshold, [0.0])
    assert model.step(np.array([-1.0]))[0] == pytest.approx(-1.0)   # r - beta


def reference_simulate(model, x0, T):
    """The plain loop simulate replaced: one model.step per step, no repeat test."""
    x = np.asarray(x0, dtype=float)
    states = np.empty((T + 1, model.n))
    states[0] = x
    for t in range(T):
        x = model.step(x)
        states[t + 1] = x
    return states


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       T=st.sampled_from([0, 1, 3, 40, 400, 2000]))
def test_simulate_is_bitwise_the_plain_loop(n, seed, T):
    rng = np.random.default_rng(seed)
    model = ShiftedModel.from_network(fixtures.random_network(rng, n))
    x0 = rng.uniform(-3.0, 3.0, size=n)
    assert_bitwise_equal(simulate(model, x0, T).states, reference_simulate(model, x0, T))


@pytest.mark.parametrize("T", [0, 1, 5, 500])
def test_simulate_ring4_orbit_bitwise(T):
    # T = 5 stops inside the first period, before any repeat
    model = ShiftedModel.from_network(fixtures.ring4())
    x0 = fixtures.RING4_ORBIT[0]
    assert_bitwise_equal(simulate(model, x0, T).states, reference_simulate(model, x0, T))


def test_simulate_bitwise_near_switching_boundary():
    rng = np.random.default_rng(4)
    for n in (2, 4, 8):
        model = ShiftedModel.from_network(fixtures.random_network(rng, n))
        for _ in range(20):
            x0 = rng.uniform(-1e-12, 1e-12, size=n)
            x0[rng.random(n) < 0.3] = rng.choice([0.0, -0.0, 5e-324, -5e-324])
            for T in (0, 1, 3, 300):
                assert_bitwise_equal(simulate(model, x0, T).states,
                                     reference_simulate(model, x0, T))


def test_simulate_repeat_compares_bit_patterns():
    # x(0) = -0.0 and x(1) = 0.0 are equal as numbers but not as bits: a
    # value test would tile -0.0 forever, the true trajectory stays at +0.0
    model = ShiftedModel.from_parts(C=[[0.5]], r=[0.0], beta=[1.0])
    states = simulate(model, np.array([-0.0]), 6).states
    assert_bitwise_equal(states, reference_simulate(model, np.array([-0.0]), 6))
    assert np.signbit(states[0, 0]) and not np.signbit(states[1:]).any()


def random200():
    rng = np.random.default_rng(3)
    model = ShiftedModel.from_network(fixtures.random_network(rng, 200))
    return model, rng.uniform(-2.0, 2.0, size=200)


def test_simulate_tiles_without_a_temporary():
    # the states array is the run's one large allocation; a gather of the
    # tiled rows would double the peak
    model, x0 = random200()
    tracemalloc.start()
    try:
        traj = simulate(model, x0, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.repeat is not None and traj.repeat[1] < 200
    assert peak < 1.05 * traj.states.nbytes


@pytest.mark.parametrize("start, extra", [("random200", 0), ("random200", 1), ("ring4", 0),
                                          ("ring4", 1), ("ring4", 10_000)])
def test_simulate_tiled_rows_bitwise(start, extra):
    # T = t1 tiles the repeated row alone, T = t1 + 1 one row more; ring4 has h = 8
    if start == "ring4":
        model, x0 = ShiftedModel.from_network(fixtures.ring4()), fixtures.RING4_ORBIT[0]
    else:
        model, x0 = random200()
    t0, t1 = simulate(model, x0, 10_000).repeat
    T = min(t1 + extra, 10_000)
    traj = simulate(model, x0, T)
    assert traj.repeat == (t0, t1)
    assert_bitwise_equal(traj.states, reference_simulate(model, x0, T))


def test_batched_simulate_matches_scalar_runs():
    rng = np.random.default_rng(8)
    for n in (2, 5, 12):
        model = ShiftedModel.from_network(fixtures.random_network(rng, n))
        X0 = rng.uniform(-5.0, 5.0, size=(n, 7))
        batch = simulate(model, X0, 300).states
        assert batch.shape == (301, n, 7)
        for j in range(7):
            single = simulate(model, X0[:, j], 300).states
            scale = max(1.0, float(np.max(np.abs(single))))
            np.testing.assert_allclose(batch[:, :, j], single, rtol=0, atol=1e-12 * scale)


def test_simulate_rejects_bad_shapes():
    model = ShiftedModel.from_network(fixtures.two_bank())
    for x0 in (np.zeros(3), np.zeros((2, 2, 2)), np.zeros((3, 2))):
        with pytest.raises(ValueError):
            simulate(model, x0, 4)
    with pytest.raises(ValueError):
        simulate(model, np.zeros(2), -1)


@pytest.mark.parametrize("n", [62, 63, 64, 70, 200])
def test_orthant_codes_exact_past_int64(n):
    rng = np.random.default_rng(n)
    states = rng.uniform(-1.0, 1.0, size=(30, n))
    states[0] = -1.0                        # every bit set
    states[1:3] = 0.0                       # boundary counts as healthy
    states[2, 0] = -0.0
    codes = orthant_codes(states)
    assert codes.dtype == (np.int64 if n <= 62 else object)
    for row, code in zip(states, codes):
        expected = int("".join("1" if v < 0 else "0" for v in row), 2)
        assert int(code) == expected == orthant_of(row)
    assert int(codes[0]) == 2 ** n - 1 and codes[1] == codes[2] == 0
