"""Deadline-removal limits and epsilon-optimal pair construction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decseq
from decseq import (BLANK, CapacityError, CertificationError, ProblemSpecError,
                    epsilon_optimal_pair, o2_best_response, seq_decomp, solve_wald_infinite,
                    stationary_anchor, truncation_bound, value_iterate_o1, value_iterate_o2)

from conftest import ASYM, make_spec


def test_truncation_bound_formulas(asym_p2):
    costs = asym_p2.costs
    for p in (0.0, 0.01, 0.3):
        o2 = truncation_bound("o2", p, costs)
        assert o2.epsilon == costs.max_loss * p
        assert o2.formula == "L*P"
        o1 = truncation_bound("o1", p, costs, t2=7)
        assert o1.epsilon == (costs.c2 * 7 + costs.max_loss) * p
        assert o1.formula == "(c2*T2+L)*P"


def test_truncation_bound_validation(asym_p2):
    with pytest.raises(ProblemSpecError):
        truncation_bound("o1", 0.1, asym_p2.costs)          # t2 missing
    with pytest.raises(ProblemSpecError):
        truncation_bound("o3", 0.1, asym_p2.costs)
    with pytest.raises(ProblemSpecError):
        truncation_bound("o2", 1.5, asym_p2.costs)


def test_receiver_limit_monotone_and_converged(sym02_p1, sym02_p2):
    for prob in (sym02_p1, sym02_p2):
        solver = decseq.solve_p1 if prob.variant == "P1" else decseq.solve_p2
        sol = solver(prob)
        lim = value_iterate_o2(sol.o1, prob)
        assert lim.wald.converged
        assert lim.wald.max_increase <= 0.0
        # wait-then-sample: no pre-message decision stages
        if prob.variant == "P1":
            assert lim.blank_thresholds == {}
        else:
            assert set(lim.blank_thresholds) == set(range(1, prob.t1))


def test_receiver_limit_matches_pure_stationary_tail(sym02_p1):
    # the post-message problem is the plain one-observer stationary one
    sol = decseq.solve_p1(sym02_p1)
    lim = value_iterate_o2(sol.o1, sym02_p1)
    pure = solve_wald_infinite(sym02_p1.channel2, sym02_p1.costs)
    assert (lim.wald.w1, lim.wald.w2) == (pure.w1, pure.w2)
    assert np.array_equal(lim.wald.values, pure.values)


@st.composite
def _stationary_p2_pairs(draw):
    """A stationary P2 problem, a sender repeating one stage rule, and a
    value-iteration grid size."""
    t1 = draw(st.integers(2, 3))
    accuracy = st.floats(0.55, 0.95)

    def channel():
        a, b = draw(accuracy), draw(accuracy)
        return [[a, 1.0 - a], [1.0 - b, b]]

    problem = decseq.load_problem_spec(make_spec(
        prior=draw(st.floats(0.2, 0.8)), ch1=channel(), ch2=channel(),
        c1=draw(st.floats(0.005, 0.1)), c2=draw(st.floats(0.005, 0.1)),
        loss=[[0.0, draw(st.floats(0.8, 1.5))], [draw(st.floats(0.8, 1.5)), 0.0]],
        t1=t1, t2=draw(st.integers(t1, t1 + 4)), variant="P2"))
    rule = decseq.StageRule(send=((draw(st.floats(0.5, 1.0)), 1.0),
                                  (0.0, draw(st.floats(0.0, 0.5)))))
    o1 = decseq.O1Policy(stages=(rule,) * (t1 - 1),
                         terminal=decseq.TerminalRule(cuts=(draw(st.floats(0.2, 0.8)),)))
    return problem, o1, draw(st.sampled_from((51, 201, 1001)))


@given(_stationary_p2_pairs())
@settings(max_examples=40, deadline=None)
def test_receiver_limit_blank_values_never_above_finite(case):
    # removing the receiver's deadline can only help: on the finite best
    # response's own blank atoms the limit's values are no larger
    problem, o1, grid = case
    lim = value_iterate_o2(o1, problem, grid_size=grid)
    finite = {t.kind[1]: t for t in o2_best_response(o1, problem).tables
              if t.kind[0] == "blank"}
    assert set(lim.blank_tables) == set(finite) == set(range(1, problem.t1))
    for s, table in lim.blank_tables.items():
        assert table.atoms == finite[s].atoms
        for got, bound in zip(table.values, finite[s].values):
            assert got <= bound + 1e-12


def test_receiver_limit_blank_rule_on_unreachable_branch(sym02_p2):
    # sym02's sender always speaks at stage 1, so the blank branch has
    # probability 0: no atoms, and the rule collapses onto the declaration
    # boundary exactly as the finite designer's does
    sol = decseq.solve_p2(sym02_p2)
    lim = value_iterate_o2(sol.o1, sym02_p2)
    assert lim.blank_tables[1].atoms == ()
    assert sol.o2.blank_rules == ((0.5, 0.5),)
    assert lim.blank_thresholds == {1: (0.5, 0.5)}


def test_receiver_limit_rejects_nonstationary_sender(sym02_p2):
    stages = (decseq.StageRule(send=((0.6, 1.0), (0.0, 0.4))),)
    term = decseq.TerminalRule(cuts=(0.5,))
    o1 = decseq.O1Policy(stages=stages, terminal=term, n_messages=2)
    short = dataclasses.replace(sym02_p2, t1=3, t2=3)
    with pytest.raises(ProblemSpecError):
        value_iterate_o2(o1, short)  # horizon mismatch
    mixed = decseq.O1Policy(
        stages=(decseq.StageRule(send=((0.6, 1.0), (0.0, 0.4))),
                decseq.StageRule(send=((0.7, 1.0), (0.0, 0.3)))),
        terminal=term, n_messages=2)
    with pytest.raises(ProblemSpecError):
        value_iterate_o2(mixed, short)


def designer_anchor(problem):
    """stationary_anchor of the designer's receiver."""
    return stationary_anchor(decseq.solve_p1(problem).o2, problem)


def test_stationary_anchor(sym02_p1):
    o2 = decseq.solve_p1(sym02_p1).o2
    anchor = stationary_anchor(o2, sym02_p1)
    assert anchor.message_model == (o2.message_model[0],) * sym02_p1.t1
    assert (anchor.wald_rules, anchor.blank_rules) == (o2.wald_rules, o2.blank_rules)
    assert stationary_anchor(anchor, sym02_p1) == anchor
    # an empty model reads as uninformative, as message_factor reads it
    empty = dataclasses.replace(o2, message_model=())
    assert stationary_anchor(empty, sym02_p1).message_model == ({},) * sym02_p1.t1
    skew = dataclasses.replace(o2, message_model=({BLANK: (0.2, 0.1)},))
    assert stationary_anchor(skew, sym02_p1) is None


def test_sender_limit_converges(sym02_p1):
    lim = value_iterate_o1(designer_anchor(sym02_p1), sym02_p1)
    assert lim.converged
    assert lim.max_increase <= 0.0
    a, b, c, d = lim.four_thresholds
    assert a <= b <= c <= d
    # removing the deadline can only improve on sending immediately
    send_now = min(sym02_p1.prior * aa + (1 - sym02_p1.prior) * bb
                   for aa, bb in lim.affines)
    at_prior = float(np.interp(sym02_p1.prior, lim.grid, lim.values))
    assert at_prior <= send_now + 1e-12


def test_sender_limit_validation(sym02_p1, sym02_p2, asym_p1):
    anchor = designer_anchor(sym02_p1)
    with pytest.raises(ProblemSpecError):
        value_iterate_o1(anchor, sym02_p2)          # interleaved variant
    sol = decseq.solve_p1(sym02_p1)
    with pytest.raises(ProblemSpecError):
        value_iterate_o1(sol.o2, sym02_p1)          # time-varying arrival model
    with pytest.raises(ProblemSpecError, match="force a declaration"):
        dataclasses.replace(anchor, wald_rules=anchor.wald_rules[:-1] + ((0.1, 0.9),))
    with pytest.raises(ProblemSpecError, match="receiver horizon 0 != T2 2"):
        value_iterate_o1(dataclasses.replace(anchor, wald_rules=anchor.wald_rules[-1:]),
                         sym02_p1)
    with pytest.raises(ProblemSpecError, match="policy uses 3 symbols"):
        value_iterate_o1(dataclasses.replace(anchor, n_messages=3), sym02_p1)
    lim2 = value_iterate_o2(decseq.solve_p1(asym_p1).o1, asym_p1)
    with pytest.raises(ProblemSpecError):
        value_iterate_o1(lim2, asym_p1)             # no bounded stopping time


def test_value_iteration_rejects_grid_without_interior(sym02_p1):
    sol = decseq.solve_p1(sym02_p1)
    with pytest.raises(ProblemSpecError):
        solve_wald_infinite(sym02_p1.channel2, sym02_p1.costs, grid_size=2)
    with pytest.raises(ProblemSpecError):
        value_iterate_o2(sol.o1, sym02_p1, grid_size=2)
    with pytest.raises(ProblemSpecError):
        value_iterate_o1(designer_anchor(sym02_p1), sym02_p1, grid_size=2)


def test_sender_limit_rejects_informative_blank(sym02_p1):
    anchor = designer_anchor(sym02_p1)
    first = dict(anchor.message_model[0])
    first[BLANK] = (0.2, 0.1)
    skew = dataclasses.replace(
        anchor, message_model=tuple(first for _ in range(sym02_p1.t1)))
    with pytest.raises(ProblemSpecError):
        value_iterate_o1(skew, sym02_p1)


def test_epsilon_pair_succeeds_with_zero_tail(sym02_p1):
    pair = epsilon_optimal_pair(sym02_p1, 0.5)
    assert pair.epsilon <= 0.5
    for cert in pair.certificates:
        assert cert.epsilon <= 0.25
    # the certified pair really evaluates to its reported cost
    finite = dataclasses.replace(sym02_p1, t1=pair.horizon, t2=pair.horizon)
    assert decseq.exact_cost((pair.o1, pair.o2), finite).total == pytest.approx(
        pair.cost, abs=1e-9)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: --epsilon certifies the truncation "
                   "loss of the horizon it stops at, not optimality over all horizons")
def test_epsilon_pair_is_within_epsilon_of_a_longer_deadline(sym02_p1):
    # a deadline-6 pair is feasible with no deadline, so an epsilon-optimal
    # pair may cost at most its cost plus epsilon; today the pair of horizon
    # 3 costs 0.27 against 0.257328 + 0.01
    pair = epsilon_optimal_pair(sym02_p1, 0.01)
    longer = decseq.solve_p1(dataclasses.replace(sym02_p1, t1=6, t2=6))
    assert pair.cost <= longer.total + 0.01


def test_epsilon_pair_fails_cleanly():
    spec = make_spec(variant="P1", c2=0.002)
    prob = decseq.load_problem_spec(spec)
    with pytest.raises(CertificationError) as exc:
        epsilon_optimal_pair(prob, 0.001, max_horizon=2)
    best = exc.value.best
    assert best.horizon == 2
    assert best.epsilon > 0.001


def test_epsilon_pair_keeps_its_best_at_the_node_cap(monkeypatch, sym02_p1):
    # sym02 P1 solves horizons 1, 2 and 3 in 1, 4 and 13 nodes and first
    # certifies epsilon = 0.05 at horizon 3; a cap of 4 stops the search there
    monkeypatch.setattr(seq_decomp, "DESIGNER_NODE_CAP", 4)
    with pytest.raises(CertificationError, match="designer search nodes 5 exceeds cap 4") \
            as exc:
        epsilon_optimal_pair(sym02_p1, 0.05, max_horizon=4)
    best = exc.value.best
    assert best.horizon == 2
    assert best.epsilon == pytest.approx(0.32, abs=1e-12)
    # with nothing solved there is no best pair, so the cap error stands
    monkeypatch.setattr(seq_decomp, "DESIGNER_NODE_CAP", 0)
    with pytest.raises(CapacityError):
        epsilon_optimal_pair(sym02_p1, 0.05, max_horizon=4)


def test_epsilon_pair_rejects_bad_epsilon(sym02_p1):
    with pytest.raises(ProblemSpecError):
        epsilon_optimal_pair(sym02_p1, 0.0)
    with pytest.raises(ProblemSpecError):
        epsilon_optimal_pair(sym02_p1, float("nan"))
    with pytest.raises(ProblemSpecError):
        epsilon_optimal_pair(sym02_p1, 0.5, max_horizon=0)
