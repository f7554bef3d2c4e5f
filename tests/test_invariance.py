"""Invariance tests, regions of attraction, and finite determination."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finnet import fixtures, invariance, numerics
from finnet.equilibria import candidate_equilibrium, enumerate_equilibria
from finnet.invariance import (
    NotDeterminedError,
    Polyhedron,
    _implied,
    finite_determination_index,
    intermediate_not_invariant,
    invariance_report,
    last_orthant_invariant,
    maximal_invariant_region,
    orthant0_invariant,
    polyhedra_equivalent,
    prune_redundant,
    region_of_attraction,
    row_redundant,
    stable_region,
)
from finnet.netmodel import FinancialNetwork, ShiftedModel, orthant_of, orthant_phi, simulate
from finnet.numerics import (OPT_TOL, InfeasibleError, LinearProgram, UnboundedError, _anchored,
                             _phase1, lp_solve)


def coordinate_box(poly):
    lo, hi = [], []
    for i in range(poly.dim):
        c = np.zeros(poly.dim)
        c[i] = 1.0
        lo.append(lp_solve(LinearProgram(c=c, A=poly.A, b=poly.b)).objective)
        try:
            hi.append(-lp_solve(LinearProgram(c=-c, A=poly.A, b=poly.b)).objective)
        except UnboundedError:
            hi.append(np.inf)
    return np.array(lo), np.array(hi)


def test_theorem_conditions_on_two_bank():
    model = ShiftedModel.from_network(fixtures.two_bank())
    assert orthant0_invariant(model)          # r = (0.5, 0.5) >= 0
    assert last_orthant_invariant(model)      # r < beta = (1, 1)


def test_healthy_invariance_fails_for_raised_threshold():
    net = fixtures.two_bank()
    greedy = FinancialNetwork(C=net.C, D=net.D, p=net.p, beta=net.beta,
                              threshold=10 * net.threshold)
    model = ShiftedModel.from_network(greedy)
    assert not orthant0_invariant(model)      # r = (C-I)*50 + 3 < 0
    assert last_orthant_invariant(model)


def test_failed_invariance_needs_strict_shortfall():
    # r == beta exactly: x=0 maps to r - beta = 0, leaving the open failed set
    model = ShiftedModel.from_parts(C=np.array([[0.0]]), r=np.array([1.0]),
                                    beta=np.array([1.0]))
    assert not last_orthant_invariant(model)
    assert orthant0_invariant(model)


def test_tau_is_one_iff_one_step_condition():
    for make in (fixtures.two_bank, fixtures.ring4):
        model = ShiftedModel.from_network(make())
        n = model.C.shape[0]
        assert finite_determination_index(model, 0) == 1
        assert finite_determination_index(model, 2 ** n - 1) == 1


def test_tau_grows_past_one_on_gapped_network():
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(40):
        net = fixtures.random_gap_network(rng, 3)
        model = ShiftedModel.from_network(net)
        tau = finite_determination_index(model, 0)
        assert tau >= 1
        if tau > 1:
            found += 1
            # the defining inequality holds at tau and fails at tau - 1
            eq = candidate_equilibrium(model, 0)
            gap = -eq.x
            Ct = np.linalg.matrix_power(model.C, tau)
            assert np.all(Ct @ gap + eq.x >= -1e-12)
            Cp = np.linalg.matrix_power(model.C, tau - 1)
            assert np.min(Cp @ gap + eq.x) < 0
    assert found > 0


def test_gap_network_draws_give_up_after_200(monkeypatch):
    # a draw whose healthy equilibrium is not positive is drawn again, 200 times at most
    draws = []
    def nonpositive(A, b):
        draws.append(b)
        return np.zeros_like(b)
    monkeypatch.setattr(fixtures, "solve_linear", nonpositive)
    with pytest.raises(RuntimeError, match="^could not draw a gap network; widen the search$"):
        fixtures.random_gap_network(np.random.default_rng(0), 3)
    assert len(draws) == 200


def capped_index(model, k, cap=10_000):
    """The truncation-index search with a fixed cap of 10^4 powers, which the proved bound
    replaced; None at the cap. Its powers are those of _powers, P = P @ C from I."""
    eq = candidate_equilibrium(model, k)
    sign, P = (1.0 if k == 0 else -1.0), np.eye(model.n)
    for tau in range(1, cap + 1):
        P = P @ model.C
        if np.all(sign * (P @ -eq.x + eq.x) >= 0):
            return tau
    return None


def proved_bound(model, x):
    """ceil(log(min y / |y|_1) / log rho), y = |x| and rho the largest column sum of |C|."""
    y, rho = np.abs(x), np.abs(model.C).sum(axis=0).max()
    return 1 if rho == 0 else max(1, int(np.ceil(np.log(y.min() / y.sum()) / np.log(rho))))


def test_truncation_index_matches_capped_search_within_proved_bound():
    rng = np.random.default_rng(21)
    nets = [fixtures.two_bank(), fixtures.ring4(), fixtures.complete10()]
    for _ in range(100):
        nets += [fixtures.random_network(rng, int(rng.integers(2, 9))),
                 fixtures.random_gap_network(rng, int(rng.integers(2, 7)))]
    checked = set()
    for i, net in enumerate(nets):
        model = ShiftedModel.from_network(net)
        for k in (0, 2 ** net.n - 1):
            eq = candidate_equilibrium(model, k)
            if not eq.consistent:
                with pytest.raises(invariance.NoPositiveEquilibriumError):
                    finite_determination_index(model, k)
                continue
            assert eq.interior
            tau = finite_determination_index(model, k)
            assert tau == capped_index(model, k) and 1 <= tau <= proved_bound(model, eq.x)
            checked.add((i, k))
    assert len(nets) >= 203 and len(checked) >= 200 and {k for _, k in checked} != {0}


def boundary_model(n):
    """Healthy equilibrium x* with x*_0 = 0, so the solved x_0 is rounding (about 1e-17)."""
    rng = np.random.default_rng(0)
    C = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(C, 0.0)
    C *= 0.9 / C.sum(axis=0).max()
    x = rng.uniform(0.5, 1.5, n)
    x[0] = 0.0
    return ShiftedModel.from_parts(C, x - C @ x, np.ones(n))


@pytest.mark.parametrize("n", [10, 20])
def test_boundary_equilibrium_is_not_determined(n):
    # a search capped at 10^4 powers certified tau = 80 (810 rows) at n = 10 and 109 at n = 20
    model = boundary_model(n)
    assert candidate_equilibrium(model, 0).consistent and capped_index(model, 0) == {10: 80, 20: 109}[n]
    for build in (lambda: finite_determination_index(model, 0),
                  lambda: maximal_invariant_region(model, 0)):
        with pytest.raises(NotDeterminedError, match="orthant 0 equilibrium lies on the boundary"):
            build()
    assert invariance_report(model).regions["healthy"].startswith("orthant 0 equilibrium lies")


def test_column_sum_past_one_is_not_determined():
    # rho(C) = 0.15 ** 0.5 < 1, but |C|'s second column sums to 1.5: the bound needs it below 1
    C = np.array([[0.0, 1.5], [0.1, 0.0]])
    model = ShiftedModel.from_parts(C, np.ones(2) - C @ np.ones(2), np.ones(2))
    assert candidate_equilibrium(model, 0).interior
    assert capped_index(model, 0) == 2
    with pytest.raises(NotDeterminedError, match="largest column sum of [|]C[|] is 1.5 >= 1"):
        finite_determination_index(model, 0)


def test_search_that_reaches_the_proved_bound_raises(monkeypatch):
    # powers 2I never pass the test, which only rounding could cause with the true powers
    model = ShiftedModel.from_network(fixtures.random_gap_network(np.random.default_rng(11), 3))
    bound = proved_bound(model, candidate_equilibrium(model, 0).x)
    assert finite_determination_index(model, 0) == 2 <= bound
    monkeypatch.setattr(invariance, "_powers", lambda C: itertools.repeat(2.0 * np.eye(len(C))))
    with pytest.raises(NotDeterminedError,
                       match=f"no truncation index up to its proved bound {bound} for orthant 0"):
        maximal_invariant_region(model, 0)


def oracle_rows(model, eq, tau):
    """J C^t and J (C^t - I) x_k for t = 0..tau by matrix_power, J from the bits of eq.k."""
    J = np.diag(1.0 - 2.0 * np.array(list(np.binary_repr(eq.k, model.n)), dtype=float))
    powers = [np.linalg.matrix_power(model.C, t) for t in range(tau + 1)]
    return (np.vstack([J @ P for P in powers]),
            np.concatenate([J @ ((P - np.eye(model.n)) @ eq.x) for P in powers]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 5), weak=st.booleans())
def test_region_rows_match_matrix_power_oracle(seed, n, weak):
    model = weak_holding_network(seed, n) if weak else ShiftedModel.from_network(
        fixtures.random_gap_network(np.random.default_rng(seed), n))
    last = 2 ** n - 1
    recs = [candidate_equilibrium(model, k) for k in (0, last)]
    recs += [rec for rec in enumerate_equilibria(model) if rec.k not in (0, last)]
    for eq in recs:
        taus = [0, 1, 3]
        if eq.k in (0, last) and eq.consistent:
            taus.append(finite_determination_index(model, eq.k))
            region = maximal_invariant_region(model, eq.k)
            ref = region_of_attraction(model, eq, taus[-1])
            assert region.A.tobytes() == ref.A.tobytes() and region.b.tobytes() == ref.b.tobytes()
            assert region.certified and not ref.certified and region.note == ref.note
        for tau in taus:
            poly = region_of_attraction(model, eq, tau)
            A, b = oracle_rows(model, eq, tau)
            scale = 1.0 + max(np.abs(A).max(), np.abs(b).max())
            np.testing.assert_allclose(poly.A, A, rtol=0.0, atol=1e-12 * scale)
            np.testing.assert_allclose(poly.b, b, rtol=0.0, atol=1e-12 * scale)
            np.testing.assert_array_equal(poly.row_power, np.repeat(np.arange(tau + 1), n))


def test_region_rows_grow_with_horizon_and_contain_equilibrium():
    model = ShiftedModel.from_network(fixtures.ring4())
    eq = candidate_equilibrium(model, 0)
    r2 = region_of_attraction(model, eq, 2)
    assert r2.n_rows == 12                    # (tau + 1) * n rows
    assert r2.contains(eq.x)
    assert not r2.contains(np.array([-1.0, 0.0, 0.0, 0.0]))


def test_maximal_region_is_invariant_and_maximal():
    # inside points stay inside for one step; nonneg outside points leave
    # the healthy orthant within tau steps under the linear branch
    rng = np.random.default_rng(12)
    for _ in range(10):
        net = fixtures.random_gap_network(rng, 3)
        model = ShiftedModel.from_network(net)
        tau = finite_determination_index(model, 0)
        poly = maximal_invariant_region(model, 0)
        eq = candidate_equilibrium(model, 0)
        box = 2.0 * np.abs(eq.x) + 1.0
        pts = rng.uniform(0.0, 1.0, size=(400, 3)) * box
        margins = (poly.A @ pts.T).T - poly.b
        inside = pts[np.all(margins >= -1e-9, axis=1)]
        outside = pts[np.any(margins < -1e-9, axis=1)]
        for x in inside[:50]:
            assert poly.margins(model.step(x)).min() >= -1e-7
        for x in outside[:50]:
            traj = simulate(model, x, tau + 1)
            assert np.min(traj.states[1:]) < 1e-12


def test_two_bank_quadrant_boxes():
    net = fixtures.two_bank()
    model = ShiftedModel.from_network(net)
    recs = {rec.k: rec for rec in enumerate_equilibria(model)}
    poly1, tau1 = stable_region(model, recs[1])
    lo, hi = coordinate_box(poly1)
    np.testing.assert_allclose(lo + net.threshold, [5.0, 4.0], atol=1e-6)
    np.testing.assert_allclose(hi + net.threshold, [6.0, 5.0], atol=1e-6)
    poly2, tau2 = stable_region(model, recs[2])
    lo, hi = coordinate_box(poly2)
    np.testing.assert_allclose(lo + net.threshold, [4.0, 5.0], atol=1e-6)
    np.testing.assert_allclose(hi + net.threshold, [5.0, 6.0], atol=1e-6)
    assert tau1 >= 1 and tau2 >= 1


def test_stable_region_short_trajectories_stay_inside():
    net = fixtures.two_bank()
    model = ShiftedModel.from_network(net)
    recs = {rec.k: rec for rec in enumerate_equilibria(model)}
    poly, _ = stable_region(model, recs[1])
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = rng.uniform([0.0, -1.0], [1.0, 0.0])
        if not poly.contains(x):
            continue
        traj = simulate(model, x, 30)
        for state in traj.states:
            assert poly.margins(state).min() >= -1e-7
        np.testing.assert_allclose(traj.states[-1], recs[1].x, atol=1e-6)


def test_stable_region_past_tau_cap_raises(monkeypatch):
    # orthant 1 of two_bank stabilizes at horizon 1, which a cap of 1 cannot confirm
    model = ShiftedModel.from_network(fixtures.two_bank())
    rec = {rec.k: rec for rec in enumerate_equilibria(model)}[1]
    monkeypatch.setattr(invariance, "_TAU_CAP", 2)
    assert stable_region(model, rec)[1] == 1
    monkeypatch.setattr(invariance, "_TAU_CAP", 1)
    with pytest.raises(NotDeterminedError, match="within 1 horizons"):
        stable_region(model, rec)


def test_intermediate_orthants_not_invariant_on_fixtures():
    # every off-diagonal C of two_bank is positive; ring4's cycle links every node
    for make, count in ((fixtures.two_bank, 2), (fixtures.ring4, 14)):
        model = ShiftedModel.from_network(make())
        verdicts = [intermediate_not_invariant(model, k) for k in range(1, count + 1)]
        assert [(v.status, v.reason) for v in verdicts] == [("not_invariant", "link")] * count


def sparse_model(rng, n, boundary):
    """C masked to about 40 %, r from U(-1, 1). boundary sets beta = r = |r|, so c_i = 0 on
    every failed row, and makes the mask symmetric, so a failed row often has a failed entry."""
    mask = rng.random((n, n)) < 0.4
    C = rng.uniform(0.05, 1.0, (n, n)) * (mask | mask.T if boundary else mask)
    np.fill_diagonal(C, 0.0)
    C /= C.sum(axis=0).max() + 0.1
    r, beta = rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0, n)
    if boundary:
        r = beta = np.abs(r)
    return ShiftedModel.from_parts(C, r, beta)


def highs_invariant(model, k, box=1e6, tol=1e-9):
    """Exact invariance of orthant k by HiGHS: min over the orthant in a box of s_i (C x + c)_i
    per row, s = 1 - 2 phi_k; a failed row at c_i = 0 is decided again on x_f <= -1."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    phi = orthant_phi(k, model.n)
    s, c = 1.0 - 2.0 * phi, model.r - model.beta * phi
    for lo in (0.0, 1.0):
        bounds = [(-box, -lo) if f else (0.0, box) for f in phi]
        for i in range(model.n):
            if lo and not (phi[i] and c[i] == 0):
                continue
            value = linprog(s[i] * model.C[i], bounds=bounds, method="highs").fun + s[i] * c[i]
            if value < -tol or lo and value <= tol:
                return False
    return True


def test_intermediate_criterion_matches_highs_on_sparse_networks():
    rng = np.random.default_rng(34)
    seen = set()
    for net in range(100):
        n = 2 + net % 4
        model = sparse_model(rng, n, boundary=net % 3 == 0)
        for k in range(1, 2 ** n - 1):
            v = intermediate_not_invariant(model, k)
            phi = orthant_phi(k, n)
            boundary = bool(np.any((phi == 1) & (model.r - model.beta * phi == 0)))
            if not highs_invariant(model, k):
                assert v.status == "not_invariant", (net, k, v)
                x = np.asarray(v.witness)
                assert orthant_of(x) == k != orthant_of(model.step(x))
            else:
                assert (v.status, v.reason) == (("unknown", "boundary") if boundary
                                                else ("invariant", "criterion")), (net, k, v)
            seen.add((v.status, v.reason))
    assert seen == {("not_invariant", "link"), ("not_invariant", "drift"),
                    ("invariant", "criterion"), ("unknown", "boundary")}


def test_intermediate_zero_drift_on_a_failed_row_decided_by_its_failed_entries():
    # C01 = C10 = .5, node 2 isolated, r = beta = 1: c_i = 0 on every failed row
    C = np.zeros((3, 3))
    C[0, 1] = C[1, 0] = 0.5
    model = ShiftedModel.from_parts(C, np.ones(3), np.ones(3))
    v = intermediate_not_invariant(model, 1)           # row 2 is zero: x'_2 = 0, healthy
    assert (v.status, v.reason) == ("not_invariant", "drift")
    assert v.witness.tolist() == [0.0, 0.0, -1.0] and orthant_of(model.step(v.witness)) == 0
    assert intermediate_not_invariant(model, 6) == invariance.IntermediateVerdict(
        k=6, status="unknown", reason="boundary")      # x'_i < 0 exactly; rounding may give 0


def test_intermediate_witness_is_finite_with_subnormal_holdings():
    # scaling along the 1e-320 link would need |x_1| > 1e320; the .5 link escapes instead
    model = ShiftedModel.from_parts([[0.0, 1e-320], [0.5, 0.0]], np.ones(2), np.ones(2))
    for k in (1, 2):
        v = intermediate_not_invariant(model, k)
        assert v.status == "not_invariant"
        assert np.isfinite(v.witness).all() and orthant_of(v.witness) == k
        assert orthant_of(model.step(v.witness)) != k


def test_intermediate_without_a_float_witness():
    # escaping k = 1 needs |x| > 1e620 along either 1e-320 link: proved, but no witness
    model = ShiftedModel.from_parts([[0.0, 1e-320], [1e-320, 0.0]], [1e300, 1e300], [1.0, 2e300])
    assert intermediate_not_invariant(model, 1) == invariance.IntermediateVerdict(
        k=1, status="not_invariant", reason="link")


def test_intermediate_drift_witness_shrinks_the_failed_coordinates():
    # C01 = C10 = .9, node 2 isolated, r = (1.1, .5, 1), beta = 1. At k = 6 (nodes 0 and 1
    # failed) row 0 has c_0 = .1 > 0, but from x = (-1, -1, 0) the failed in-neighbour's -.9
    # keeps x'_0 < 0; failed coordinates below |c_0| / .9, say (-.05, -.05, 0), escape
    C = np.zeros((3, 3))
    C[0, 1] = C[1, 0] = 0.9
    model = ShiftedModel.from_parts(C, [1.1, 0.5, 1.0], np.ones(3))
    assert orthant_of(model.step([-1.0, -1.0, 0.0])) == 6
    assert orthant_of(model.step([-0.05, -0.05, 0.0])) == 2
    v = intermediate_not_invariant(model, 6)
    assert (v.status, v.reason) == ("not_invariant", "drift")
    assert np.isfinite(v.witness).all() and orthant_of(v.witness) == 6
    assert orthant_of(model.step(v.witness)) == 2


@pytest.mark.parametrize("part", ["C", "r", "beta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_intermediate_rejects_non_finite_data(part, bad):
    # no model holds such data, so neither a verdict nor a report is ever built from it
    parts = {"C": np.zeros((2, 2)), "r": np.ones(2), "beta": np.ones(2)}
    parts[part][(0, 0) if part == "C" else 0] = bad
    message = "model data C, r or beta contains non-finite entries"
    with pytest.raises(ValueError, match=f"^{message}$"):
        ShiftedModel.from_parts(**parts)


@pytest.mark.parametrize("r, ratio", [(1.5e308, "nan"), (0.8e308, "0")])
def test_non_finite_truncation_ratio_is_not_determined(r, ratio):
    # x = 2 r: inf at r = 1.5e308 (inf / inf), finite at 0.8e308 with |x|_1 = inf
    model = ShiftedModel.from_parts(fixtures.two_bank().C, np.full(2, r), np.ones(2))
    with pytest.raises(NotDeterminedError, match=rf"^orthant 0 equilibrium has min \|x_i\| / "
                                                 rf"\|x\|_1 = {ratio}: no truncation bound$"):
        finite_determination_index(model, 0)


def test_finite_determination_rejects_intermediate_orthants():
    model = ShiftedModel.from_network(fixtures.two_bank())
    for k in (1, 2):
        with pytest.raises(ValueError, match="k=0 or k=2\\^n-1 only"):
            finite_determination_index(model, k)


def test_region_of_attraction_rejects_negative_tau():
    model = ShiftedModel.from_network(fixtures.two_bank())
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        region_of_attraction(model, candidate_equilibrium(model, 0), tau=-1)


def test_polyhedra_equivalent_with_a_side_without_rows():
    # no rows is the whole plane: equal to itself, not to a half-plane, in either order
    plane = Polyhedron(A=np.zeros((0, 2)), b=np.zeros(0), row_power=np.zeros(0))
    half = Polyhedron(A=np.array([[1.0, 0.0]]), b=np.array([0.0]), row_power=[0])
    assert polyhedra_equivalent(plane, plane)
    assert not polyhedra_equivalent(plane, half)
    assert not polyhedra_equivalent(half, plane)


def test_intermediate_guard_rejects_monotone_orthants():
    model = ShiftedModel.from_network(fixtures.two_bank())
    with pytest.raises(ValueError):
        intermediate_not_invariant(model, 0)
    with pytest.raises(ValueError):
        intermediate_not_invariant(model, 3)


def test_escape_witness_is_checked_against_dynamics():
    # every two_bank and ring4 intermediate has a finite witness in k whose step leaves k
    for make, count in ((fixtures.two_bank, 2), (fixtures.ring4, 14)):
        model = ShiftedModel.from_network(make())
        for k in range(1, count + 1):
            v = intermediate_not_invariant(model, k)
            x = np.asarray(v.witness)
            assert np.isfinite(x).all() and orthant_of(x) == k
            assert orthant_of(model.step(x)) != k


def test_redundancy_pruning_keeps_geometry():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, -1.0])          # third row implied by the others
    poly = Polyhedron(A=A, b=b, row_power=np.array([0, 0, 1]))
    assert row_redundant(poly, A[2], b[2])
    pruned = prune_redundant(poly)
    assert pruned.n_rows == 2
    assert polyhedra_equivalent(poly, pruned)


def two_pass_prune(poly):
    """The while-changed loop that prune_redundant replaced; kept row indices."""
    keep = list(range(poly.n_rows))
    changed = True
    while changed:
        changed = False
        for idx in list(keep):
            others = [i for i in keep if i != idx]
            if not others:
                continue
            sub = Polyhedron(A=poly.A[others], b=poly.b[others],
                             row_power=poly.row_power[others])
            if row_redundant(sub, poly.A[idx], float(poly.b[idx])):
                keep.remove(idx)
                changed = True
    return keep


def test_prune_one_pass_matches_two_pass_reference():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(14)
    nets = [fixtures.complete10()] + [fixtures.random_gap_network(rng, n) for n in (3, 4, 5, 6, 8)]
    dropped_total = 0
    for net in nets:
        region = maximal_invariant_region(ShiftedModel.from_network(net), 0)
        if net.n == 3:      # repeated rows: exactly one copy of each must stay
            region = Polyhedron(A=np.vstack([region.A, region.A[:4]]),
                                b=np.concatenate([region.b, region.b[:4]]),
                                row_power=np.concatenate([region.row_power, region.row_power[:4]]))
        pruned = prune_redundant(region)
        keep = two_pass_prune(region)
        assert np.array_equal(pruned.A, region.A[keep])
        assert np.array_equal(pruned.b, region.b[keep])
        scale = max(1.0, np.abs(region.A).max(), np.abs(region.b).max())
        for i in sorted(set(range(region.n_rows)) - set(keep)):
            ref = linprog(region.A[i], A_ub=-pruned.A, b_ub=-pruned.b,
                          bounds=[(None, None)] * region.dim, method="highs")
            assert ref.status == 0 and ref.fun >= region.b[i] - 1e-7 * scale
            dropped_total += 1
    assert dropped_total > 0


def phase1_prune(poly):
    """The one-pass loop with a phase 1 per row that prune_redundant replaced; kept row indices."""
    keep = list(range(poly.n_rows))
    for idx in range(poly.n_rows):
        others = [i for i in keep if i != idx]
        if others and row_redundant(Polyhedron(A=poly.A[others], b=poly.b[others],
                                               row_power=poly.row_power[others]),
                                    poly.A[idx], float(poly.b[idx])):
            keep.remove(idx)
    return keep


@st.composite
def nonempty_polyhedra(draw):
    """Small-integer rows through or around z0, with repeated rows, rows scaled
    by 1e+-3 and, for a flat polyhedron, an equality pair through z0."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    A = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=k, max_size=k)), dtype=float)
    z0 = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), dtype=float)
    b = A @ z0 - np.array(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)), dtype=float)
    if draw(st.booleans()):
        a = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
        A, b = np.vstack([A, a, -a]), np.concatenate([b, [a @ z0, -(a @ z0)]])
    repeats = draw(st.lists(st.integers(0, len(b) - 1), max_size=3))
    A, b = np.vstack([A, A[repeats]]), np.concatenate([b, b[repeats]])
    scale = 10.0 ** np.array(draw(st.lists(st.sampled_from([-3, 0, 3]),
                                           min_size=len(b), max_size=len(b))))
    return Polyhedron(A=A * scale[:, None], b=b * scale, row_power=np.arange(len(b)))


def highs_implied(poly, rows, a, rhs, tol):
    linprog = pytest.importorskip("scipy.optimize").linprog
    ref = linprog(a, A_ub=-poly.A[rows], b_ub=-poly.b[rows], bounds=[(None, None)] * poly.dim,
                  method="highs")
    return ref.status == 0 and ref.fun >= rhs - tol


# row_power numbers the rows, so a pruned region's row_power lists the kept rows.
# In the second example row 6 is row 2 times 1e-6; both loops judge row 2 implied,
# as HiGHS does, and keep [1, 4, 5, 6]. With phase 1 on unscaled rows the simplex
# found row 2's LP unbounded and kept row 2, not row 6.
@settings(max_examples=300, deadline=None)
@example(Polyhedron(A=np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [1.0, 0.0]]),
                    b=np.array([1.0, -1.0, 0.0, 0.0]), row_power=np.arange(4)))
@example(Polyhedron(A=np.array([[0.0, 0.0, 0.0, 0.0], [1e-3, 2e-3, 0.0, 1e-3],
                                [2e3, 0.0, 1e3, 2e3], [0.0, 0.0, 0.0, 0.0], [0.0, 1e-3, 0.0, 0.0],
                                [-1e-3, 2e-3, 2e-3, 0.0], [2e-3, 0.0, 1e-3, 2e-3]]),
                    b=np.zeros(7), row_power=np.arange(7)))
@given(nonempty_polyhedra())
def test_anchored_prune_keeps_the_phase1_rows(poly):
    assert prune_redundant(poly).row_power.tolist() == phase1_prune(poly)


def test_phase1_prune_on_rows_scaled_by_1e3_and_1e_3():
    # drawn by the property above; phase 1 on these rows, unscaled, called its own
    # problem unbounded and raised InfeasibleError on a polyhedron that is not empty
    small = np.array([[0, -1, -2, 2], [1, 1, -2, 0], [-1, 1, 1, 0], [0, 1, -2, 1], [1, 0, 0, 2],
                      [0, 1, -2, 1]]) * 1e-3
    A = np.vstack([small, np.array([[0, 1, -2, 1], [0, 1, -2, 1]]) * 1e3])
    b = np.concatenate([np.array([4, 2, -1, 2, 2, 2]) * 1e-3, [2e3, 2e3]])
    poly = Polyhedron(A=A, b=b, row_power=np.arange(8))
    keep = phase1_prune(poly)
    for i in range(poly.n_rows):
        others = [j for j in keep if j < i] + list(range(i + 1, poly.n_rows))
        assert highs_implied(poly, others, A[i], b[i], OPT_TOL) == (i not in keep)
    assert prune_redundant(poly).row_power.tolist() == keep


def integer_polyhedron(rng):
    """Small-integer rows through or around an integer z0, with repeated rows and, half the
    time, an equality pair through z0 (nonempty_polyhedra's shapes, drawn by numpy)."""
    n, k = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    A = rng.integers(-3, 4, (k, n)).astype(float)
    z0 = rng.integers(-2, 3, n).astype(float)
    b = A @ z0 - rng.integers(0, 3, k)
    if rng.random() < 0.5:
        a = rng.integers(-3, 4, n).astype(float)
        A, b = np.vstack([A, a, -a]), np.concatenate([b, [a @ z0, -(a @ z0)]])
    repeats = rng.integers(0, len(b), int(rng.integers(0, 4)))
    return Polyhedron(A=np.vstack([A, A[repeats]]), b=np.concatenate([b, b[repeats]]),
                      row_power=np.arange(len(b) + len(repeats)))


def test_redundancy_on_rows_scaled_by_1e4_matches_highs_on_integer_rows():
    # with phase 1 on unscaled rows, an implied row of the 13th polyhedron was judged not
    # implied by both row_redundant and polyhedra_equivalent
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(4)
    verdicts = []
    for _ in range(40):
        ref = integer_polyhedron(rng)
        scale = 10.0 ** rng.uniform(-4.0, 4.0, ref.n_rows)
        poly = Polyhedron(A=ref.A * scale[:, None], b=ref.b * scale, row_power=ref.row_power)
        assert polyhedra_equivalent(poly, ref)
        for i in range(ref.n_rows if ref.n_rows > 1 else 0):
            others = [j for j in range(ref.n_rows) if j != i]
            sub = Polyhedron(A=poly.A[others], b=poly.b[others], row_power=others)
            implied = highs_implied(ref, others, ref.A[i], ref.b[i], 1e-9)
            assert row_redundant(sub, poly.A[i], poly.b[i]) == implied
            assert polyhedra_equivalent(poly, sub) == implied
            verdicts.append(implied)
    assert 0 < sum(verdicts) < len(verdicts)


def degenerate_polyhedron(rng):
    """Integer rows, most of them through the integer point v, with repeated rows: (poly, v).
    At v the slack basis is degenerate, and so is the simplex's path through it."""
    n = int(rng.integers(2, 5))
    v = rng.integers(-2, 3, n).astype(float)
    A = rng.integers(-3, 4, (int(rng.integers(n + 1, 2 * n + 3)), n)).astype(float)
    b = A @ v - rng.integers(1, 3, len(A)) * (rng.random(len(A)) < 0.3)
    repeats = rng.integers(0, len(b), int(rng.integers(1, 4)))
    return Polyhedron(A=np.vstack([A, A[repeats]]), b=np.concatenate([b, b[repeats]]),
                      row_power=np.arange(len(b) + len(repeats))), v


def test_implied_matches_highs_on_degenerate_polyhedra(monkeypatch):
    # degenerate pivots are where _vertex's Dantzig pricing hands over to Bland's rule
    pytest.importorskip("scipy.optimize")
    vertex, pivot, in_vertex, degenerate = invariance._vertex, numerics._pivot, [False], []

    def counted_vertex(start, c):
        in_vertex[0] = True
        try:
            return vertex(start, c)
        finally:
            in_vertex[0] = False

    def counted_pivot(T, leave, enter):     # a step of at most _SIMPLEX_EPS in _vertex
        degenerate.append(in_vertex[0] and T[leave, -1] <= 1e-9 * T[leave, enter])
        pivot(T, leave, enter)

    monkeypatch.setattr(invariance, "_vertex", counted_vertex)
    monkeypatch.setattr(numerics, "_pivot", counted_pivot)
    rng = np.random.default_rng(30)
    verdicts = []
    for _ in range(50):
        poly, v = degenerate_polyhedron(rng)
        rows = np.arange(poly.n_rows)
        for i in rows:
            others = rows[rows != i]
            implied = highs_implied(poly, others, poly.A[i], poly.b[i], OPT_TOL)
            for start in (_phase1(poly.A[others], poly.b[others]),
                          _anchored(poly.A[others], poly.b[others], v)):
                assert (_implied(start, poly.A[i], float(poly.b[i])) is not None) == implied
            verdicts.append(implied)
        start = _anchored(poly.A, poly.b, v)    # new rows through v, warm as in stable_region
        for a in rng.integers(-3, 4, (4, poly.dim)).astype(float):
            end = _implied(start, a, float(a @ v))
            assert (end is not None) == highs_implied(poly, rows, a, a @ v, OPT_TOL)
            start = end or start
    assert 0 < sum(verdicts) < len(verdicts) and any(degenerate)


def unit_rows(poly):
    """poly with every nonzero row scaled to unit length, as prune_redundant scales it."""
    norm = np.linalg.norm(poly.A, axis=1)
    unit = np.where(norm > 0.0, norm, 1.0)
    return replace(poly, A=poly.A / unit[:, None], b=poly.b / unit)


def traced_prune(poly, monkeypatch):
    """prune_redundant(poly) with its row LPs counted, and the rows it settled without one:
    (kept rows, LP count, [(row, the rows kept when it was settled)]). Rows are numbered
    in order; an LP call is matched to its row by its objective and number of rows."""
    calls, implied = [], invariance._implied

    def counted(start, a, rhs):
        calls.append((start.T.shape[0], a.tolist(), rhs))
        return implied(start, a, rhs)

    monkeypatch.setattr(invariance, "_implied", counted)
    keep = prune_redundant(replace(poly, row_power=np.arange(poly.n_rows))).row_power.tolist()
    monkeypatch.undo()
    scaled = unit_rows(poly)
    lps, settled = list(calls), []
    for i in range(poly.n_rows):
        others = [j for j in keep if j < i] + list(range(i + 1, poly.n_rows))
        if others and lps[:1] == [(len(others), scaled.A[i].tolist(), float(scaled.b[i]))]:
            lps.pop(0)
        elif others:
            settled.append((i, others))
    assert not lps
    return keep, len(calls), settled


def gap_regions():
    nets = [fixtures.complete10()] + [fixtures.random_gap_network(np.random.default_rng(14), n)
                                      for n in (3, 4, 5, 6, 8, 10, 12)]
    return [maximal_invariant_region(ShiftedModel.from_network(net), 0) for net in nets]


def test_prune_runs_at_most_three_row_lps_per_region(monkeypatch):
    # one row LP per row before the sign and ray certificates: 9 to 36 per region here
    for region in gap_regions():
        keep, lps, _ = traced_prune(region, monkeypatch)
        assert lps <= 3
        assert keep == phase1_prune(region)


def test_every_certificate_verdict_matches_highs(monkeypatch):
    # over the unit-scaled rows, where prune_redundant's OPT_TOL applies
    rng = np.random.default_rng(27)
    polys = gap_regions() + [integer_polyhedron(rng) for _ in range(60)]
    verdicts = []
    for poly in polys:
        keep, _, settled = traced_prune(poly, monkeypatch)
        scaled = unit_rows(poly)
        for i, others in settled:
            implied = highs_implied(scaled, others, scaled.A[i], scaled.b[i], OPT_TOL)
            assert implied == (i not in keep)
            verdicts.append(implied)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("A, b, kept", [
    (np.zeros((0, 2)), [], []),                                 # no rows
    ([[0, 0], [1, 0]], [-1, 0], [1]),                            # a zero row with b <= 0
    ([[1, 0], [-1, 0], [1, 1]], [0, 0, -1], [0, 1, 2]),          # flat: radius 0, no ray
    ([[1, 0], [1, 0], [0, 1]], [0, 0, 0], [1, 2]),               # a repeated unit row
])
def test_prune_edge_cases_keep_the_lp_rows(A, b, kept):
    poly = Polyhedron(A=np.reshape(A, (-1, 2)), b=b, row_power=np.arange(len(b)))
    assert prune_redundant(poly).row_power.tolist() == kept == phase1_prune(poly)


def test_prune_raises_on_an_empty_polyhedron():
    # each row's LP over the other one is unbounded, so both rows used to be kept
    poly = Polyhedron(A=np.array([[1.0], [-1.0]]), b=np.array([1.0, 0.0]), row_power=[0, 0])
    with pytest.raises(InfeasibleError):
        prune_redundant(poly)


@pytest.mark.parametrize("part", ["A", "b"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_polyhedron_is_rejected(part, value):
    parts = {"A": np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), "b": np.array([0.0, 0.0, -1.0])}
    parts[part].flat[-1] = value
    poly = Polyhedron(A=parts["A"], b=parts["b"], row_power=[0, 0, 1])
    with pytest.raises(ValueError, match="non-finite"):
        prune_redundant(poly)
    with pytest.raises(ValueError, match="non-finite"):
        row_redundant(poly, np.ones(2), 0.0)


@pytest.mark.parametrize("part", ["A", "b"])
@pytest.mark.parametrize("bad_side", ["p", "q"])
def test_polyhedra_equivalent_rejects_non_finite(part, bad_side):
    # it builds its phase 1 directly, so it needs its own check: with b = (0, NaN)
    # a polyhedron once compared unequal to itself instead of raising
    good = Polyhedron(A=np.array([[1.0], [-1.0]]), b=np.array([0.0, -1.0]), row_power=[0, 0])
    parts = {"A": good.A.copy(), "b": good.b.copy()}
    parts[part].flat[-1] = np.nan
    bad = Polyhedron(A=parts["A"], b=parts["b"], row_power=[0, 0])
    pair = (bad, good) if bad_side == "p" else (good, bad)
    with pytest.raises(ValueError, match="non-finite"):
        polyhedra_equivalent(*pair)
    with pytest.raises(ValueError, match="non-finite"):
        polyhedra_equivalent(bad, bad)
    assert polyhedra_equivalent(good, good)


def phase1_stable_region(model, eq, tau_cap=64):
    """stable_region with a phase 1 per horizon, as before the anchored start."""
    n = model.n
    J = np.diag(1.0 - 2.0 * orthant_phi(eq.k, n))
    poly = region_of_attraction(model, eq, 0)
    P = model.C.copy()
    for tau in range(1, tau_cap + 1):
        A_new, b_new = J @ P, J @ ((P - np.eye(n)) @ eq.x)
        start = _phase1(poly.A, poly.b)
        if all(_implied(start, A_new[i], float(b_new[i])) for i in range(n)):
            return poly, tau - 1
        poly = Polyhedron(A=np.vstack([poly.A, A_new]), b=np.concatenate([poly.b, b_new]),
                          row_power=np.concatenate([poly.row_power, [tau] * n]))
        P = P @ model.C


def weak_holding_network(seed=3, n=6):
    """Drift a fraction of each node's exposure C beta: many orthants hold an equilibrium."""
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(C, 0.0)
    C *= rng.uniform(0.3, 0.6, size=n) / C.sum(axis=0)
    beta = rng.uniform(1.0, 2.0, size=n)
    return ShiftedModel.from_parts(C=C, r=rng.uniform(0.15, 0.55, size=n) * (C @ beta), beta=beta)


many_equilibria = pytest.mark.parametrize(
    "model", [ShiftedModel.from_network(fixtures.two_bank()),
              ShiftedModel.from_network(fixtures.ring4()),
              ShiftedModel.from_network(fixtures.complete10()), weak_holding_network()],
    ids=["two_bank", "ring4", "complete10", "weak_holding6"])


@many_equilibria
def test_anchored_stable_region_matches_phase1_path(model):
    recs = enumerate_equilibria(model)
    assert len(recs) > 1
    for rec in recs:
        poly, tau = stable_region(model, rec)
        ref, ref_tau = phase1_stable_region(model, rec)
        assert tau == ref_tau
        assert poly.A.tobytes() == ref.A.tobytes() and poly.b.tobytes() == ref.b.tobytes()


@many_equilibria
def test_warm_stable_region_horizon_matches_highs(model):
    # HiGHS on the matrix-power rows: the returned blocks 0..tau imply block tau + 1, and
    # block tau (tau >= 1) is not implied by the blocks before it, so no shorter horizon holds
    n, taus = model.n, set()
    for rec in enumerate_equilibria(model):
        poly, tau = stable_region(model, rec)
        A, b = oracle_rows(model, rec, tau + 1)
        every = np.arange(poly.n_rows)
        assert all(highs_implied(poly, every, A[(tau + 1) * n + i], b[(tau + 1) * n + i], OPT_TOL)
                   for i in range(n))
        before = np.arange(tau * n)
        assert tau == 0 or not all(highs_implied(poly, before, poly.A[tau * n + i],
                                                 poly.b[tau * n + i], OPT_TOL) for i in range(n))
        taus.add(tau)
    assert taus - {0}


def test_warm_stable_region_takes_fewer_pivots_than_phase1(monkeypatch):
    # complete10's mixed equilibria, all at tau = 1: from each horizon's slack basis at x_k
    # alone this took more pivots than a phase 1 per horizon (2,838 against 2,664; warm: 1,335)
    model = ShiftedModel.from_network(fixtures.complete10())
    mixed = [rec for rec in enumerate_equilibria(model) if 0 < rec.k < 2 ** model.n - 1]
    pivot, counts = numerics._pivot, []
    for region in (stable_region, phase1_stable_region):
        calls = []
        monkeypatch.setattr(numerics, "_pivot", lambda *args: calls.append(1) or pivot(*args))
        assert {region(model, rec)[1] for rec in mixed} == {1}
        counts.append(len(calls))
    assert len(mixed) == 39 and counts[0] < counts[1]


def test_dantzig_pricing_gives_blands_regions_in_fewer_pivots(monkeypatch):
    # _vertex prices by Dantzig's rule; with _simplex held to Bland's rule the regions and
    # horizons must be bitwise the same, as _implied reads only the optimal value
    model = ShiftedModel.from_network(fixtures.complete10())
    mixed = [rec for rec in enumerate_equilibria(model) if 0 < rec.k < 2 ** model.n - 1]
    simplex, pivot, runs = numerics._simplex, numerics._pivot, []
    for bland in (False, True):
        calls = []
        monkeypatch.setattr(numerics, "_pivot", lambda *args: calls.append(1) or pivot(*args))
        if bland:
            monkeypatch.setattr(numerics, "_simplex",
                                lambda T, basis, cost, **_: simplex(T, basis, cost))
        runs.append(([stable_region(model, rec) for rec in mixed], len(calls)))
    (ours, ours_pivots), (bland, bland_pivots) = runs
    assert len(mixed) == 39 and ours_pivots < bland_pivots
    for (poly, tau), (ref, ref_tau) in zip(ours, bland):
        assert tau == ref_tau and all(getattr(poly, f).tobytes() == getattr(ref, f).tobytes()
                                      for f in ("A", "b", "row_power"))


def test_fixed_point_property_tau_vs_tau_plus_one():
    for make in (fixtures.two_bank, fixtures.ring4):
        model = ShiftedModel.from_network(make())
        for k in (0, 2 ** model.C.shape[0] - 1):
            eq = candidate_equilibrium(model, k)
            tau = finite_determination_index(model, k)
            assert polyhedra_equivalent(region_of_attraction(model, eq, tau),
                                        region_of_attraction(model, eq, tau + 1))


def test_invariance_report_bundles_everything():
    model = ShiftedModel.from_network(fixtures.two_bank())
    rep = invariance_report(model)
    assert rep.healthy_orthant_invariant and rep.failed_orthant_invariant
    assert set(rep.regions) == {"healthy", "failed"}
    for region in rep.regions.values():
        assert region.certified and region.row_power.max() == 1
    assert [v.k for v in rep.intermediates] == [1, 2]


def test_invariance_report_names_a_missing_region():
    # p = (1, 1) puts the healthy candidate of two_bank outside orthant 0
    net = fixtures.two_bank()
    net = FinancialNetwork(C=net.C, D=net.D, p=np.ones(2), beta=net.beta,
                           threshold=net.threshold)
    rep = invariance_report(ShiftedModel.from_network(net))
    assert rep.regions["healthy"] == "orthant 0 has no consistent equilibrium"
    assert isinstance(rep.regions["failed"], Polyhedron)


def test_non_finite_drift_fails_fast():
    # a NaN drift would pass as consistent and run the truncation search to its cap; it is
    # refused where the model is built, before any region or truncation search
    model = ShiftedModel.from_network(fixtures.two_bank())
    with pytest.raises(ValueError, match="^model data C, r or beta contains non-finite entries$"):
        ShiftedModel.from_parts(model.C, [np.nan, 1.0], model.beta)
