"""Periodic orbits: the lifted census, detection, classification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilibria_reference import reference_enumerate
from finnet import fixtures
from finnet.cycles import (
    CycleHit,
    _detect,
    InsufficientLengthError,
    classify_trajectory,
    detect_cycle,
    periodic_points,
    verify_no_period2,
)
from finnet.equilibria import DimensionTooLargeError, enumerate_equilibria
from finnet.netmodel import ShiftedModel, Trajectory, orthant_codes, simulate


def ring_model():
    return ShiftedModel.from_network(fixtures.ring4())


def lifted_brute_force(model, h):
    """Every fixed point of the block-circulant lift, one dense solve per orthant of R^(nh),
    in increasing orthant code, as (count, h, n) stacks."""
    n, N = model.n, model.n * h
    C_lift, B_lift = np.zeros((N, N)), np.zeros((N, N))
    for i in range(h):
        j = (i - 1) % h             # block i reads its predecessor; block 0 wraps to the last
        C_lift[i * n:(i + 1) * n, j * n:(j + 1) * n] = model.C
        B_lift[i * n:(i + 1) * n, j * n:(j + 1) * n] = np.diag(model.beta)
    phi = (np.arange(2 ** N)[:, None] >> np.arange(N - 1, -1, -1)) & 1     # row k: orthant k
    X = np.linalg.solve(np.eye(N) - C_lift, np.tile(model.r, h)[:, None] - B_lift @ phi.T).T
    return X[np.all((X < 0) == phi, axis=1)].reshape(-1, h, n)


def test_periodic_points_at_period_one_are_the_reference_census():
    rng = np.random.default_rng(5)
    models = [ShiftedModel.from_network(make())
              for make in (fixtures.two_bank, fixtures.ring4, fixtures.complete10)]
    models += [ShiftedModel.from_network(fixtures.random_network(rng, int(rng.integers(2, 11))))
               for _ in range(100)]
    for model in models:
        points, ref = periodic_points(model, 1), reference_enumerate(model)
        assert points.shape == (len(ref), 1, model.n)
        for x, rec in zip(points[:, 0], ref):
            assert np.array_equal(x, rec.x)


def test_periodic_points_match_brute_force_over_lifted_orthants():
    rng = np.random.default_rng(17)
    cases = [(ShiftedModel.from_network(fixtures.two_bank()), h) for h in range(1, 7)]
    cases += [(ring_model(), h) for h in range(1, 4)]
    for h in range(1, 7):
        for _ in range(12):
            n = int(rng.integers(1, 12 // h + 1))
            cases.append((ShiftedModel.from_network(fixtures.random_network(rng, n)), h))
    for model, h in cases:
        points, ref = periodic_points(model, h), lifted_brute_force(model, h)
        assert points.shape == ref.shape
        np.testing.assert_allclose(points, ref, rtol=0.0, atol=1e-9)


def test_periodic_points_on_ring4():
    model = ring_model()
    equilibria = np.array([rec.x for rec in enumerate_equilibria(model)])
    two = periodic_points(model, 2)
    assert two.shape == (8, 2, 4)
    for state in (0, 1):            # both states are the equilibrium: no proper period-2 point
        np.testing.assert_allclose(two[:, state], equilibria, rtol=0.0, atol=1e-12)
    six = periodic_points(model, 6)
    assert six.shape == (20, 6, 4)
    on_orbit = np.abs(six - six[:, :1]).max(axis=(1, 2)) > 1e-9
    assert on_orbit.sum() == 12
    for points in six[on_orbit]:            # no period 2 or 3 in between
        assert all(np.abs(points[d] - points[0]).max() > 1e-3 for d in (1, 2, 3))
    starts = six[on_orbit, 0]
    i = np.argmin(np.abs(starts - [2.4038, 0.0707, -2.4038, -0.0707]).max(axis=1))
    np.testing.assert_allclose(starts[i], [2.4038, 0.0707, -2.4038, -0.0707], atol=5e-5)
    for points in six:              # consecutive states, and step 6 closes the orbit
        states = simulate(model, points[0], 6).states
        assert np.abs(states - np.vstack([points, points[:1]])).max() <= 1e-12


def test_periodic_points_past_the_enumeration_guard():
    with pytest.raises(DimensionTooLargeError, match="n\\*h=32 exceeds enumeration guard 24"):
        periodic_points(ring_model(), 8)


def test_lift_rejects_period_zero():
    with pytest.raises(ValueError, match="period must be >= 1"):
        periodic_points(ring_model(), 0)


def test_detect_cycle_period8_on_ring():
    model = ring_model()
    traj = simulate(model, fixtures.RING4_ORBIT[0], 300)
    hit = detect_cycle(traj)
    assert hit is not None and hit.period == 8
    assert not hit.is_equilibrium


def test_detect_cycle_period1_is_equilibrium():
    model = ring_model()
    traj = simulate(model, -np.ones(4), 400)
    hit = detect_cycle(traj)
    assert hit == CycleHit(period=1, phase=hit.phase)
    assert hit.is_equilibrium


def test_detect_cycle_needs_enough_states():
    model = ring_model()
    traj = simulate(model, np.ones(4), 10)
    with pytest.raises(InsufficientLengthError):
        detect_cycle(traj)


def test_detect_cycle_none_when_period_exceeds_hmax():
    model = ring_model()
    traj = simulate(model, fixtures.RING4_ORBIT[0], 300)
    assert detect_cycle(traj, h_max=4) is None


def reference_detect(states, tol, h_max):
    """The per-trial search the batched detector replaced: (period, phase) or (0, None)."""
    lo = max(states.shape[0] - 2 * h_max, 0)
    states = states[lo:]
    T = states.shape[0] - 1
    codes = orthant_codes(states)
    for h in range(1, h_max + 1):
        start = T - h_max - h + 1
        stop = T - h
        win = slice(start, stop + 1)
        if np.any(codes[start + h:stop + h + 1] != codes[win]):
            continue
        diff = states[start + h:stop + h + 1] - states[win]
        if np.max(np.abs(diff)) <= tol:
            return h, lo + start
    return 0, None


def assert_batch_is_per_trial(history, tol, h_max):
    period, phase = _detect(history, tol, h_max)
    for j in range(history.shape[2]):
        assert (period[j], phase[j] if period[j] else None) == \
            reference_detect(history[:, :, j], tol, h_max)
    return period


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), T=st.sampled_from([16, 40, 200]),
       h_max=st.integers(1, 8), tol=st.sampled_from([1e-9, 1e-7, 1e-2, 0.5]))
def test_batched_detector_is_the_per_trial_one(n, seed, T, h_max, tol):
    rng = np.random.default_rng(seed)
    model = ShiftedModel.from_network(fixtures.random_network(rng, n))
    history = simulate(model, rng.uniform(-5.0, 5.0, size=(n, 12)), max(T, 2 * h_max)).states
    assert_batch_is_per_trial(history, tol, h_max)


def test_batched_detector_past_int64_codes():
    # n = 70 took the exact object-array orthant codes in the per-trial search:
    # 17 uncoupled ring4 blocks, plus two nodes that settle after one step
    ring = ring_model()
    model = ShiftedModel.from_parts(np.pad(np.kron(np.eye(17), ring.C), (0, 2)),
                                    np.r_[np.tile(ring.r, 17), 1.0, 2.0],
                                    np.r_[np.tile(ring.beta, 17), 1.0, 1.0])
    orbit, rest = np.tile(fixtures.RING4_ORBIT[0], 17), -np.ones(70)
    one_block = rest.copy()
    one_block[8:12] = fixtures.RING4_ORBIT[2]
    starts = np.column_stack([np.r_[orbit, 0.5, 0.5], rest, one_block,
                              np.random.default_rng(70).uniform(-3.0, 3.0, size=70)])
    history = simulate(model, starts, 400).states
    assert assert_batch_is_per_trial(history, 1e-9, 8)[:3].tolist() == [8, 1, 8]
    for h_max, tol in ((7, 1e-9), (64, 1e-9), (3, 10.0), (16, 0.5)):
        assert_batch_is_per_trial(history, tol, h_max)


def test_batched_detector_mixes_orbits_and_equilibria():
    starts = np.column_stack([fixtures.RING4_ORBIT[0], -np.ones(4), fixtures.RING4_ORBIT[3],
                              np.full(4, -7.0), fixtures.RING4_ORBIT[5]])
    history = simulate(ring_model(), starts, 400).states
    period = assert_batch_is_per_trial(history, 1e-9, 8)
    assert period.tolist() == [8, 1, 8, 1, 8]
    assert assert_batch_is_per_trial(history, 1e-9, 7).tolist() == [0, 1, 0, 1, 0]


def test_no_period2_on_fixtures():
    for make in (fixtures.two_bank, fixtures.ring4, fixtures.complete10):
        model = ShiftedModel.from_network(make())
        rep = verify_no_period2(model, trials=40, seed=3)
        assert rep.ok
        assert sum(rep.period_counts.values()) == 40
        assert not rep.violations


def test_no_period2_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        model = ShiftedModel.from_network(fixtures.random_network(rng, n))
        rep = verify_no_period2(model, trials=5, seed=int(rng.integers(10000)))
        assert rep.ok, f"period-2 violation on a random {n}-node network"


def test_classify_cycle():
    model = ring_model()
    res = classify_trajectory(simulate(model, fixtures.RING4_ORBIT[0], 10000))
    assert res.kind == "cycle" and res.period == 8
    assert res.orbit.shape == (8, 4)
    # one more step maps the last orbit row back onto the first
    np.testing.assert_allclose(model.step(res.orbit[-1]), res.orbit[0], atol=1e-6)


def test_classify_equilibrium():
    model = ring_model()
    res = classify_trajectory(simulate(model, -np.ones(4), 10000))
    assert res.kind == "equilibrium" and res.period == 1
    np.testing.assert_allclose(res.point, -5.0 * np.ones(4), atol=1e-6)
    assert res.transient > 0


def test_classify_critical_screens_first():
    model = ring_model()
    res = classify_trajectory(simulate(model, np.zeros(4), 10000))
    assert res.kind == "critical"
    assert res.first_critical == (0, 0)
    assert res.period is None


def test_classify_rejects_overflowing_run():
    # x(1) = 0.5 + 1.5e308 is finite, x(2) = 1.5 x(1) is not; simulate steps on quietly
    model = ShiftedModel.from_parts(fixtures.two_bank().C, np.full(2, 1.5e308), np.ones(2))
    traj = simulate(model, np.ones(2), 300)
    assert not np.isfinite(traj.states[2:]).any()
    with pytest.raises(ValueError, match="^trajectory is not finite from step 2$"):
        classify_trajectory(traj)
    states = np.ones((200, 2))
    states[150, 1] = np.nan     # one nan entry in a finite run is named too
    with pytest.raises(ValueError, match="^trajectory is not finite from step 150$"):
        classify_trajectory(Trajectory(states=states))


def test_classify_undetermined_when_hmax_too_small():
    model = ring_model()
    res = classify_trajectory(simulate(model, fixtures.RING4_ORBIT[0], 10000), h_max=4)
    assert res.kind == "undetermined"


def classify_fields(traj, **kw):
    try:
        res = classify_trajectory(traj, **kw)
    except InsufficientLengthError as e:
        return str(e)
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(res).items()}


def assert_prefix_scan_is_full_scan(traj, **kw):
    full = Trajectory(states=traj.states)      # repeat=None
    assert classify_fields(traj, **kw) == classify_fields(full, **kw)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       T=st.integers(0, 40) | st.integers(40, 500),
       start=st.sampled_from(["random", "critical", "ring4"]), h_max=st.integers(1, 16),
       rho=st.sampled_from([1e-6, 1e-3, 0.05]), tol=st.sampled_from([1e-9, 1e-3, 0.5, 1.5]))
def test_classify_prefix_scan_matches_full_scan(n, seed, T, start, h_max, rho, tol):
    rng = np.random.default_rng(seed)
    if start == "ring4":            # converges onto the period-8 orbit, repeat (117, 125)
        model, x0 = ring_model(), fixtures.RING4_ORBIT[rng.integers(8)]
    else:
        model = ShiftedModel.from_network(fixtures.random_network(rng, n))
        x0 = rng.uniform(-3.0, 3.0, size=n)
        if start == "critical":
            x0[rng.random(n) < 0.5] = rng.choice([0.0, -0.0, 1e-8, -1e-8])
    assert_prefix_scan_is_full_scan(simulate(model, x0, T), rho=rho, tol=tol, h_max=h_max)


@pytest.mark.parametrize("h_max", [1, 4, 7, 8])
def test_classify_prefix_scan_on_ring4_orbit(h_max):
    traj = simulate(ring_model(), fixtures.RING4_ORBIT[0], 500)
    assert traj.repeat == (117, 125)
    assert_prefix_scan_is_full_scan(traj, h_max=h_max)
    expected = "cycle" if h_max == 8 else "undetermined"       # kernel period 8 > h_max
    assert classify_trajectory(traj, h_max=h_max).kind == expected


def test_classify_transient_past_repeat_with_kernel_period_above_hmax():
    # period 5 from t = 2, a ramp of steps 0.1 that falls back by 0.4 at
    # t = 6, 11, ...: h = 1 closes at tol = 0.2 over the h_max = 2 window,
    # and the last fall before the end sets the transient
    ramp = np.array([1.0, 1.1, 1.2, 1.3, 1.4])
    states = np.concatenate([[3.0, 2.0], np.tile(ramp, 21)[:105]])[:, None]
    traj = Trajectory(states=states, repeat=(2, 7))
    res = classify_trajectory(traj, tol=0.2, h_max=2)
    assert res.kind == "equilibrium" and res.transient == 102
    assert_prefix_scan_is_full_scan(traj, tol=0.2, h_max=2)
    # the first state within rho of zero lies in the repeating part
    assert classify_trajectory(traj, rho=1.05, h_max=2).first_critical == (2, 0)
