"""Single-observer sequential testing: finite tables and the stationary limit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import decseq
from decseq import (Channel, Costs, brute_force_wald, count_stop_rules,
                    load_problem_spec, solve_wald_finite, solve_wald_infinite,
                    terminal_cost, wald_cost)
from decseq.errors import ProblemSpecError
from decseq.wald import stop_or_sample

from conftest import load_instance
from designer_reference import GRID, grid_crossings, knot_reader


def make_channel(eps):
    return Channel(observer=2, tables=((((1.0 - eps, eps), (eps, 1.0 - eps)),)))


ZERO_ONE = ((0.0, 1.0), (1.0, 0.0))


@pytest.fixture(scope="module")
def costs():
    return Costs(c1=0.1, c2=0.05, loss=ZERO_ONE)


def test_horizon_zero_is_declaration_only(costs):
    sol = solve_wald_finite(make_channel(0.2), costs, 0)
    # no sampling allowed: cost is the smaller declaration loss
    assert wald_cost(sol, 0.3, 0) == pytest.approx(0.3)
    assert wald_cost(sol, 0.5, 0) == pytest.approx(0.5)
    assert wald_cost(sol, 0.85, 0) == pytest.approx(0.15)


def test_one_observation_hand_value(costs):
    # at 0.5 with a 0.8/0.2 channel: sample once (0.05) then declare with
    # posterior 0.2 either way, total 0.05 + 0.2 = 0.25; declaring now costs 0.5
    sol = solve_wald_finite(make_channel(0.2), costs, 1)
    assert wald_cost(sol, 0.5, 1) == pytest.approx(0.25)
    # near the ends sampling is not worth 0.05
    assert wald_cost(sol, 0.02, 1) == pytest.approx(0.02)


def test_values_monotone_in_horizon(costs):
    ch = make_channel(0.2)
    sols = {t: solve_wald_finite(ch, costs, t) for t in range(4)}
    for b in np.linspace(0.0, 1.0, 41):
        prev = None
        for t in range(4):
            v = wald_cost(sols[t], float(b), t)
            if prev is not None:
                assert v <= prev + 1e-12
            prev = v


def test_values_concave(costs):
    sol = solve_wald_finite(make_channel(0.2), costs, 3)
    grid = np.linspace(0.0, 1.0, 201)
    vals = [wald_cost(sol, float(b), 3) for b in grid]
    for i in range(1, len(grid) - 1):
        chord = 0.5 * (vals[i - 1] + vals[i + 1])
        assert vals[i] >= chord - 1e-9


def test_count_stop_rules_values():
    assert count_stop_rules(0, 2) == 2
    assert count_stop_rules(1, 2) == 6
    assert count_stop_rules(2, 2) == 38
    assert count_stop_rules(3, 2) == 1446
    assert count_stop_rules(2, 3) == 1002


def test_finite_solver_matches_brute_force(costs):
    ch = make_channel(0.2)
    for prior in (0.3, 0.5, 0.85):
        res = brute_force_wald(ch, costs, 3, prior)
        sol = solve_wald_finite(ch, costs, 3)
        assert res.count == 1446
        assert wald_cost(sol, prior, 3) == pytest.approx(res.cost, abs=1e-9)


def test_brute_force_cap():
    ch = make_channel(0.2)
    costs = Costs(c1=0.1, c2=0.05, loss=ZERO_ONE)
    with pytest.raises(decseq.CapacityError):
        brute_force_wald(ch, costs, 3, 0.5, cap=1000)


def test_thresholds_nested_in_horizon(costs):
    # more remaining time widens the continue region
    sol = solve_wald_finite(make_channel(0.2), costs, 3)
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = sol.crossings
    assert a3 <= a2 <= a1 <= a0
    assert b3 >= b2 >= b1 >= b0
    assert (a0, b0) == (0.5, 0.5)


def test_thresholds_at_explicit_points(costs):
    # repeats, order and the sentinels at 0 and 1 do not matter; with no
    # point inside (0, 1) every entry collapses onto the declaration boundary
    sol = solve_wald_finite(make_channel(0.2), costs, 2)
    pts = (0.7, 0.1, 0.3, 0.5, 0.3, 0.9)
    got = sol.thresholds_at(pts)
    assert got == sol.thresholds_at(sorted(set(pts))) == sol.thresholds_at(pts + (0.0, 1.0))
    assert len(got) == 3 and got[-1] == (0.5, 0.5)
    assert sol.thresholds_at(()) == ((0.5, 0.5),) * 3
    with pytest.raises(ProblemSpecError):
        sol.thresholds_at((0.2, 1.5))


def test_stationary_limit(costs):
    inf = solve_wald_infinite(make_channel(0.2), costs)
    assert inf.converged
    assert inf.max_increase <= 0.0
    assert inf.w1 == pytest.approx(0.1345, abs=1e-9)
    assert inf.w2 == pytest.approx(0.8655, abs=1e-9)
    # the stationary value is below every finite-horizon value
    fin = solve_wald_finite(make_channel(0.2), costs, 6)
    for b in np.linspace(0.0, 1.0, 21):
        v_inf = float(np.interp(b, inf.grid, inf.values))
        assert v_inf <= wald_cost(fin, float(b), 6) + 1e-6


def test_asymmetric_losses_shift_thresholds():
    skew = Costs(c1=0.1, c2=0.05, loss=((0.0, 1.2), (0.9, 0.0)))
    inf = solve_wald_infinite(make_channel(0.2), skew)
    sym = solve_wald_infinite(make_channel(0.2), Costs(c1=0.1, c2=0.05, loss=ZERO_ONE))
    assert inf.w1 != pytest.approx(sym.w1, abs=1e-4)


def reference_recursion(channel, costs, horizon):
    """Pointwise memoized backward recursion, the oracle for the knot tables.

    Returns (value, action) with the solver's conventions: ``remaining``
    observations left, ties toward stopping and then toward declaring 0.
    """
    memo = {}

    def backup(b, r):
        tc0 = terminal_cost(0, b, costs)
        tc1 = terminal_cost(1, b, costs)
        u, stop = (0, tc0) if tc0 <= tc1 else (1, tc1)
        if r <= 0:
            return u, stop, None
        row0, row1 = channel.row_pair(horizon - r + 1)
        cont = costs.c2
        for y in range(len(row0)):
            prob = b * row0[y] + (1.0 - b) * row1[y]
            if prob > 0.0:
                cont += prob * value(b * row0[y] / prob, r - 1)
        return u, stop, cont

    def value(b, r):
        key = (r, round(b, 13))
        if key not in memo:
            _, stop, cont = backup(b, r)
            memo[key] = stop if cont is None or stop <= cont else cont
        return memo[key]

    def action(b, r):
        u, stop, cont = backup(b, r)
        return u if cont is None or stop <= cont else None

    return value, action


@st.composite
def wald_instances(draw):
    n_sym = draw(st.sampled_from((2, 3)))
    horizon = draw(st.integers(0, 8))
    entry = st.one_of(st.just(0.0), st.floats(0.05, 1.0))

    def row():
        w = draw(st.lists(entry, min_size=n_sym, max_size=n_sym))
        if sum(w) == 0.0:
            w[0] = 1.0
        return tuple(x / sum(w) for x in w)

    n_tables = 1 if draw(st.booleans()) else max(horizon, 1)
    channel = Channel(observer=2, tables=tuple((row(), row()) for _ in range(n_tables)))
    j00, j11 = draw(st.floats(0.0, 0.3)), draw(st.floats(0.0, 0.3))
    loss = ((j00, j11 + draw(st.floats(0.2, 2.0))),
            (j00 + draw(st.floats(0.2, 2.0)), j11))
    costs = Costs(c1=0.1, c2=draw(st.floats(0.002, 0.2)), loss=loss)
    beliefs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    return channel, costs, horizon, beliefs


@given(wald_instances())
@settings(max_examples=150, deadline=None)
def test_knot_tables_match_reference_recursion(instance):
    channel, costs, horizon, beliefs = instance
    sol = solve_wald_finite(channel, costs, horizon)
    points = sorted(set(beliefs))
    value, action = reference_recursion(channel, costs, horizon)
    for r in range(horizon + 1):
        for b in beliefs:
            assert abs(wald_cost(sol, b, r) - value(b, r)) <= 1e-12
        assert [x.hex() for x in sol.reader(r)(np.array(points)).tolist()] \
            == [wald_cost(sol, p, r).hex() for p in points]
        cont = sol.continuation(points, r).tolist() if r > 0 else None
        labels, _, _ = stop_or_sample(points, cont, costs)
        assert labels == [action(p, r) for p in points]


@given(wald_instances())
@settings(max_examples=100, deadline=None)
def test_reader_matches_scalar_knot_reader(instance):
    # bit for bit on random beliefs, on every knot (the exact hit) and at
    # both ends, over an array and one belief at a time
    channel, costs, horizon, beliefs = instance
    sol = solve_wald_finite(channel, costs, horizon)
    for r in range(horizon + 1):
        points = np.concatenate((beliefs, sol.knots[r][0], [0.0, 1.0])).tolist()
        read = knot_reader(sol, r)
        want = [read(b).hex() for b in points]
        assert [x.hex() for x in sol.reader(r)(np.array(points)).tolist()] == want
        assert [wald_cost(sol, b, r).hex() for b in points] == want
    for remaining in (-1, horizon + 1):
        with pytest.raises(ProblemSpecError):
            sol.reader(remaining)


# a sampling run strictly between grid points 0.182 and 0.183 at r = 1: the
# grid labelling samples nowhere and places both thresholds at the
# declaration boundary 0.18283..., 0.0008 from the exact crossing 0.18202...
_RUN_BETWEEN_GRID_POINTS = (
    Channel(observer=2, tables=(((0.05560463449932337, 0.05472121351150274, 0.8896741519891739),
                                 (0.056179775280898875, 0.0449438202247191, 0.898876404494382)),)),
    Costs(c1=0.1, c2=0.002, loss=((0.0, 0.2578125), (1.15234375, 0.0))), 1, [0.5])


@given(wald_instances())
@example(_RUN_BETWEEN_GRID_POINTS)
@settings(max_examples=100, deadline=None)
def test_crossings_bracket_one_sampling_run(instance):
    # the knots where sampling is strictly cheaper than declaring form one
    # run; its crossings are the knots just outside it (an end of [0, 1]
    # where the run reaches it).  A grid point lies strictly between the
    # crossings exactly when the grid labelling samples there (ties within
    # 1e-12 of a crossing aside); only when some grid point samples is each
    # crossing within half a grid step of the labelling's threshold
    channel, costs, horizon, _ = instance
    sol = solve_wald_finite(channel, costs, horizon)
    boundary = costs.declare_boundary
    assert len(sol.crossings) == horizon + 1 and sol.crossings[0] == (boundary, boundary)
    for r, ((xs, ys), (w1, w2), (labels, grid)) in enumerate(zip(sol.knots, sol.crossings,
                                                                  grid_crossings(sol))):
        go = np.flatnonzero(ys < np.minimum(terminal_cost(0, xs, costs),
                                            terminal_cost(1, xs, costs)))
        if go.size:
            assert go[-1] - go[0] == go.size - 1
            assert w1 == (xs[go[0] - 1] if go[0] else 0.0)
            assert w2 == (xs[go[-1] + 1] if go[-1] + 1 < xs.size else 1.0)
        else:
            assert (w1, w2) == (boundary, boundary)
        for g, label in zip(GRID, labels):
            if min(abs(g - w1), abs(g - w2)) > 1e-12:
                assert (w1 < g < w2) == (label is None)
        if None in labels:
            assert abs(w1 - grid[0]) <= 0.0005 + 1e-12 and abs(w2 - grid[1]) <= 0.0005 + 1e-12


def test_knot_count_stays_small_on_long_horizons():
    # dropping knots inside the stopping runs keeps the tables near 250
    # knots at T=40; without it they pass 75,000
    problem = load_problem_spec(load_instance("sym02_p1"))
    sol = solve_wald_finite(problem.channel2, problem.costs, 40)
    assert max(len(xs) for xs, _ in sol.knots) < 1000
