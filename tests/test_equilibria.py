"""Per-orthant equilibrium enumeration and existence conditions."""

import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equilibria_reference import reference_enumerate
from finnet import equilibria, fixtures
from finnet.equilibria import (
    DimensionTooLargeError,
    candidate_equilibrium,
    enumerate_equilibria,
    existence_conditions,
)
from finnet.netmodel import ShiftedModel, indicator
from finnet.numerics import SingularMatrixError


def brute_force_census(model):
    """Every orthant solved densely by numpy; the consistent ones, in k order."""
    n = model.n
    ks = np.arange(2 ** n)
    phi = ((ks[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)
    X = np.linalg.solve(np.eye(n) - model.C, model.r[:, None] - model.beta[:, None] * phi.T).T
    keep = np.all((X < 0) == (phi > 0), axis=1)
    return ks[keep].tolist(), X[keep]


def weak_holding_model(rng, n):
    """Drift a fraction of each node's exposure C beta, so whether a node
    fails depends on its neighbours: many orthants hold an equilibrium."""
    C = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(C, 0.0)
    C *= rng.uniform(0.3, 0.6, size=n) / C.sum(axis=0)
    beta = rng.uniform(1.0, 2.0, size=n)
    return ShiftedModel.from_parts(C=C, r=rng.uniform(0.15, 0.55, size=n) * (C @ beta), beta=beta)


def census_model(kind, seed, n):
    rng = np.random.default_rng(seed)
    if kind == "random_network":
        return ShiftedModel.from_network(fixtures.random_network(rng, n))
    return weak_holding_model(rng, n)


def assert_same_records(got, want):
    """Bitwise equality: same k order, and the same bytes in x and v (-0.0 included)."""
    assert [rec.k for rec in got] == [rec.k for rec in want]
    for a, b in zip(got, want):
        assert type(a.k) is int
        assert a.x.tobytes() == b.x.tobytes() and a.v.tobytes() == b.v.tobytes()
        assert (a.consistent, a.interior) == (b.consistent, b.interior)


def test_two_bank_equilibria_values():
    model = ShiftedModel.from_network(fixtures.two_bank())
    recs = {rec.k: rec for rec in enumerate_equilibria(model)}
    assert sorted(recs) == [0, 1, 2, 3]
    np.testing.assert_allclose(recs[0].v, [6.0, 6.0], atol=1e-9)
    np.testing.assert_allclose(recs[1].v, [16 / 3, 14 / 3], atol=1e-9)
    np.testing.assert_allclose(recs[2].v, [14 / 3, 16 / 3], atol=1e-9)
    np.testing.assert_allclose(recs[3].v, [4.0, 4.0], atol=1e-9)


def test_equilibria_are_fixed_points_of_the_dynamics():
    # independent route: step the returned state and require no movement
    for make in (fixtures.two_bank, fixtures.ring4):
        model = ShiftedModel.from_network(make())
        for rec in enumerate_equilibria(model):
            np.testing.assert_allclose(model.step(rec.x), rec.x, atol=1e-9)


def test_ring4_has_eight_consistent_equilibria():
    model = ShiftedModel.from_network(fixtures.ring4())
    recs = {rec.k: rec for rec in enumerate_equilibria(model)}
    assert len(recs) == 8
    a, g, d = fixtures.RING4_ALPHA, fixtures.RING4_GAMMA, fixtures.RING4_DELTA
    np.testing.assert_allclose(recs[0].x, [5.0] * 4, atol=1e-3)
    np.testing.assert_allclose(recs[15].x, [-5.0] * 4, atol=1e-3)
    np.testing.assert_allclose(recs[3].x, [a, g, -a, -g], atol=1e-3)
    np.testing.assert_allclose(recs[5].x, [d, -d, d, -d], atol=1e-3)
    np.testing.assert_allclose(recs[6].x, [g, -a, -g, a], atol=1e-3)
    np.testing.assert_allclose(recs[9].x, [-g, a, g, -a], atol=1e-3)
    np.testing.assert_allclose(recs[10].x, [-d, d, -d, d], atol=1e-3)
    np.testing.assert_allclose(recs[12].x, [-a, -g, a, g], atol=1e-3)


def test_inconsistent_candidates_are_flagged_not_dropped():
    model = ShiftedModel.from_network(fixtures.two_bank())
    cands = [candidate_equilibrium(model, k) for k in range(4)]
    assert len(cands) == 4
    assert all(c.consistent for c in cands)     # every orthant consistent here

    single = ShiftedModel.from_parts(C=np.array([[0.0]]), r=np.array([1.0]),
                                     beta=np.array([0.5]))
    rec = candidate_equilibrium(single, 1)
    # solving the failed branch lands at r - beta = 0.5 > 0: wrong orthant
    assert not rec.consistent
    assert [r.k for r in enumerate_equilibria(single)] == [0]


def test_interior_flag_on_boundary_candidate():
    # r = 0 puts the healthy candidate exactly on the orthant boundary
    model = ShiftedModel.from_parts(C=np.array([[0.0]]), r=np.array([0.0]),
                                    beta=np.array([1.0]))
    rec = candidate_equilibrium(model, 0)
    assert rec.consistent
    assert not rec.interior


@pytest.mark.parametrize("C, r, beta, ks, boundary", [
    ([[0.0]], [0.0], [1.0], [0, 1], [0]),                       # r = 0: healthy x = 0
    ([[0.0]], [1.0], [1.0], [0], []),                           # failed x = 0 counts healthy
    ([[0.0, 0.5], [0.5, 0.0]], [0.0, 0.0], [1.0, 1.0], [0, 3], [0]),
    ([[0.0, 0.0], [0.0, 0.0]], [0.5, 0.0], [1.0, 1.0], [0, 1, 2, 3], [0, 2]),
    (np.zeros((8, 8)), np.ones(8), np.ones(8), [0], []),         # every failed x = 0: no prune
], ids=["r_zero", "failed_on_boundary", "coupled_r_zero", "mixed_boundary", "all_on_boundary"])
def test_enumeration_on_exact_boundaries(C, r, beta, ks, boundary, monkeypatch):
    model = ShiftedModel.from_parts(C=np.array(C), r=np.array(r), beta=np.array(beta))
    recs = enumerate_equilibria(model)
    assert [rec.k for rec in recs] == ks == brute_force_census(model)[0]
    assert [rec.k for rec in recs if not rec.interior] == boundary
    assert_same_records(recs, reference_enumerate(model))
    for rows in (1, 3):                 # blocks split at every level
        monkeypatch.setattr(equilibria, "_BLOCK_ROWS", rows)
        assert_same_records(enumerate_equilibria(model), reference_enumerate(model))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["random_network", "weak_holding"]),
       n=st.integers(2, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_enumeration_matches_brute_force(kind, n, seed):
    model = census_model(kind, seed, n)
    recs = enumerate_equilibria(model)
    ks, X = brute_force_census(model)
    assert [rec.k for rec in recs] == ks
    scale = max(1.0, np.max(np.abs(model.r)), np.max(model.beta), np.max(np.abs(X)))
    for rec, x in zip(recs, X):
        np.testing.assert_allclose(rec.x, x, rtol=0, atol=1e-12 * scale)
        np.testing.assert_array_equal(rec.phi, indicator(rec.x))
        assert rec.consistent


@pytest.mark.parametrize("rows", [None, 1, 3], ids=["default_rows", "rows1", "rows3"])
@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["random_network", "weak_holding"]),
       n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_block_enumeration_matches_node_reference(rows, kind, n, seed):
    # the node-at-a-time stack loop the blocks replaced: same arithmetic, so
    # the records agree bit for bit, also when every block is split
    model = census_model(kind, seed, n)
    patch = nullcontext() if rows is None else mock.patch.object(equilibria, "_BLOCK_ROWS", rows)
    with patch:
        assert_same_records(enumerate_equilibria(model), reference_enumerate(model))


def test_enumeration_memory_stays_bounded_without_pruning():
    # C = 0, r = beta = 1 puts every failed bit exactly on its boundary, so no
    # node is pruned and all 2^18 leaves are visited; a whole-level frontier
    # would hold 2^18 rows of 18 floats (36 MiB)
    n = 18
    model = ShiftedModel.from_parts(C=np.zeros((n, n)), r=np.ones(n), beta=np.ones(n))
    tracemalloc.start()
    try:
        recs = enumerate_equilibria(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [rec.k for rec in recs] == [0]
    assert peak < 16 * 2 ** 20


def test_negative_resolvent_is_rejected():
    # negative holdings make (I - C)^-1 B negative off the diagonal: the
    # monotone bounds fail, so no census is returned
    model = ShiftedModel.from_parts(C=np.array([[0.0, -0.5], [-0.5, 0.0]]),
                                    r=np.array([1.0, 1.0]), beta=np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="negative entry"):
        enumerate_equilibria(model)


@pytest.mark.parametrize("part", ["C", "r", "beta"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_model_data_is_rejected(part, value):
    # by the model's constructor, so no analysis (enumeration, existence) ever sees it
    parts = {"C": np.zeros((2, 2)), "r": np.array([1.0, 1.0]), "beta": np.array([0.5, 0.5])}
    parts[part].flat[0] = value
    with pytest.raises(ValueError, match="^model data C, r or beta contains non-finite entries$"):
        ShiftedModel.from_parts(**parts)


def test_existence_contradiction_raises_singular():
    # with (I - C)^-1 not nonnegative, w_minus >= 0 can hold while w_plus
    # has a negative entry; that contradiction is reported, not returned
    C = np.array([[0.0, -0.5], [-0.5, 0.0]])
    r = (np.eye(2) - C) @ np.array([-1.0, 4.0])       # w_plus = (-1, 4)
    model = ShiftedModel.from_parts(C=C, r=r, beta=np.array([0.1, 3.0]))
    w_minus = np.linalg.solve(np.eye(2) - C, r - model.beta)
    assert np.all(w_minus >= 0)
    with pytest.raises(SingularMatrixError, match="not numerically nonnegative"):
        existence_conditions(model)


def test_dimension_guard():
    n = 25
    model = ShiftedModel.from_parts(C=np.zeros((n, n)), r=np.ones(n),
                                    beta=np.ones(n))
    with pytest.raises(DimensionTooLargeError):
        enumerate_equilibria(model)


def test_existence_conditions_on_fixtures():
    model = ShiftedModel.from_network(fixtures.two_bank())
    rep = existence_conditions(model)
    # r = (0.5, 0.5) >= 0 and r - beta < 0: both signs coexist
    assert rep.positive_exists and rep.negative_exists
    assert not rep.positive_unique and not rep.negative_unique
    np.testing.assert_allclose(rep.w_plus, [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(rep.w_minus, [-1.0, -1.0], atol=1e-9)


def test_existence_uniqueness_implications_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        net = fixtures.random_network(rng, n)
        model = ShiftedModel.from_network(net)
        rep = existence_conditions(model)
        if rep.positive_unique:
            assert rep.positive_exists
        if rep.negative_unique:
            assert rep.negative_exists
        # sign tests agree with direct consistency checks
        recs = {rec.k: rec for rec in enumerate_equilibria(model)}
        assert rep.positive_exists == (0 in recs)
        assert rep.negative_exists == (2 ** n - 1 in recs)


def test_consistent_equilibria_are_locally_stable():
    # small perturbations inside the orthant flow back (1-norm contraction)
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        net = fixtures.random_network(rng, n)
        model = ShiftedModel.from_network(net)
        for rec in enumerate_equilibria(model):
            if not rec.interior:
                continue
            margin = np.min(np.abs(rec.x))
            if margin < 1e-6:
                continue
            delta = rng.uniform(-1.0, 1.0, size=n)
            delta *= 0.5 * margin / max(np.max(np.abs(delta)), 1e-12)
            x = rec.x + delta
            assert np.array_equal(indicator(x), rec.phi)
            err0 = np.sum(np.abs(x - rec.x))
            x1 = model.step(x)
            assert np.sum(np.abs(x1 - rec.x)) <= err0 + 1e-12
