"""Merged-atom policy evaluation against the path-enumeration oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decseq
from decseq import (BLANK, Channel, Costs, O2Policy, Problem, evaluate_o2_policy,
                    exact_cost, immediate_sender_policy, o1_best_response,
                    o2_best_response, pbpo_iteration)
from decseq.best_response import _scripted_charges

from conftest import make_spec
from path_oracle import ScriptedSender, exact_cost_by_paths, walk

TOL = 1e-12


def assert_same_breakdown(got, want, tol=TOL):
    for name in ("total", "obs1_cost", "obs2_cost", "loss_cost"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), abs=tol), name
    for g, w in zip(got.per_h, want.per_h):
        for name in ("mass", "e_tau1", "e_tau2", "e_loss"):
            assert getattr(g, name) == pytest.approx(getattr(w, name), abs=tol), name
        for name in ("tau1_pmf", "tau2_pmf", "declare"):
            gd, wd = getattr(g, name), getattr(w, name)
            for k in set(gd) | set(wd):
                assert gd.get(k, 0.0) == pytest.approx(wd.get(k, 0.0), abs=tol), (name, k)


@st.composite
def _channel(draw, observer, horizon, n_sym):
    # some rows put zero mass on a symbol
    entry = st.one_of(st.just(0.0), st.floats(0.05, 1.0))

    def row():
        w = draw(st.lists(entry, min_size=n_sym, max_size=n_sym)
                 .filter(lambda w: sum(w) > 0.0))
        return tuple(x / sum(w) for x in w)

    n_tables = 1 if draw(st.booleans()) else max(horizon, 1)
    return Channel(observer=observer, tables=tuple((row(), row()) for _ in range(n_tables)))


@st.composite
def _problems(draw):
    variant = draw(st.sampled_from(("P1", "P2")))
    t1 = draw(st.integers(1, 3))
    t2 = draw(st.integers(t1 if variant == "P2" else 0, 3))
    return Problem(
        prior=draw(st.one_of(st.just(0.5), st.floats(0.05, 0.95))),
        channel1=draw(_channel(1, t1, draw(st.sampled_from((2, 3))))),
        channel2=draw(_channel(2, t2, draw(st.sampled_from((2, 3))))),
        costs=Costs(c1=draw(st.floats(0.01, 0.2)), c2=draw(st.floats(0.01, 0.2)),
                    loss=((0.0, draw(st.floats(0.5, 2.0))),
                          (draw(st.floats(0.5, 2.0)), 0.0))),
        t1=t1, t2=t2, variant=variant, n_messages=draw(st.sampled_from((2, 3))))


def _pairs(problem):
    """Designer (small instances only), PBPO and mismatched pairs."""
    immediate = immediate_sender_policy(problem)
    pbpo = pbpo_iteration(problem, max_rounds=2)
    pairs = [(pbpo.o1, pbpo.o2),
             # the receiver modelled another sender than the one that runs
             (immediate, pbpo.o2),
             (pbpo.o1, o2_best_response(immediate, problem).policy)]
    if problem.t1 <= 2 and problem.n_messages == 2:
        solve = decseq.solve_p1 if problem.variant == "P1" else decseq.solve_p2
        sol = solve(problem)
        pairs += [(sol.o1, sol.o2), (immediate, sol.o2)]
    return pairs


@given(_problems())
@settings(max_examples=60, deadline=None)
def test_exact_cost_matches_path_oracle(problem):
    try:
        pairs = _pairs(problem)
    except decseq.StructureViolation:
        # a best response ranked the symbols against the receiver's order
        # (ROADMAP item 6); nothing to evaluate
        return
    for pair in pairs:
        assert_same_breakdown(exact_cost(pair, problem), exact_cost_by_paths(pair, problem))


def _open_blank_receiver(problem):
    sol = decseq.solve_p2(problem)
    return O2Policy(blank_rules=((0.0, 1.0),) * (problem.t1 - 1),
                    wald_rules=sol.o2.wald_rules, message_model=sol.o2.message_model)


def test_evaluate_o2_policy_splits_the_scripted_receiver_cost(
        solved_battery_p1, solved_battery_p2, asym_p2):
    receivers = [(prob, sol.o2) for prob, sol in solved_battery_p1 + solved_battery_p2]
    receivers.append((asym_p2, _open_blank_receiver(asym_p2)))
    receivers += [(prob, pbpo_iteration(prob).o2) for prob, _ in solved_battery_p2]
    for prob, o2 in receivers:
        # the per-stage charges o1_best_response uses while messages stay blank
        blank_charges = (_scripted_charges(o2, prob, prob.t1, 0)[1:prob.t1]
                         if prob.variant == "P2" else [])
        for t in range(1, prob.t1 + 1):
            for z in range(prob.n_messages):
                after = evaluate_o2_policy(o2, (BLANK,) * (t - 1), z, prob)
                for h in (0, 1):
                    acc = walk(ScriptedSender(t, z), o2, prob, h)
                    want = prob.costs.c2 * acc.e_tau2 + acc.e_loss
                    got = sum(g[h] for g in blank_charges[:t - 1]) + after[h]
                    assert got == pytest.approx(want, abs=TOL)


@pytest.mark.parametrize("variant", ["P1", "P2"])
def test_long_horizon_best_responses_price_exactly(variant):
    # path enumeration would need on the order of 1e3 s here
    rows = [[0.875, 0.125], [0.125, 0.875]]
    problem = decseq.load_problem_spec(make_spec(
        ch1=rows, ch2=rows, c1=0.001, c2=0.001, t1=30, t2=30, variant=variant))
    sender = immediate_sender_policy(problem)
    r2 = o2_best_response(sender, problem)
    assert exact_cost((sender, r2.policy), problem).total == pytest.approx(r2.total, abs=1e-9)
    r1 = o1_best_response(r2.policy, problem)
    assert exact_cost((r1.policy, r2.policy), problem).total == pytest.approx(
        r1.total, abs=1e-9)


def test_exact_cost_solves_certain_prior():
    # prior 1 and a symbol H=0 never emits, and the prior-0 mirror image:
    # the hypothesis with no prior mass starts at weight 0, so send_law
    # never pushes it.  Observer 1 takes one observation and the receiver,
    # certain of H, declares at once without loss: the cost is c1.
    for prior, ch1 in ((1.0, [[1.0, 0.0], [0.5, 0.5]]), (0.0, [[0.5, 0.5], [0.0, 1.0]])):
        spec = make_spec(prior=prior, ch1=ch1)
        problem = decseq.load_problem_spec(spec)
        other = decseq.load_problem_spec(dict(spec, prior=0.5))
        o2 = o2_best_response(immediate_sender_policy(other), other).policy
        cost = exact_cost((immediate_sender_policy(problem), o2), problem).total
        assert cost == pytest.approx(problem.costs.c1, abs=1e-12)
        assert decseq.solve_p1(problem).total == pytest.approx(cost, abs=1e-12)


def test_receiver_must_declare_by_its_last_rule(asym_p1):
    # a receiver that never declares would run out of stopping rules, so it
    # cannot be built; nor can one with no stopping rule at all
    o2 = o2_best_response(immediate_sender_policy(asym_p1), asym_p1).policy
    for wald_rules in (((0.0, 1.0),) * len(o2.wald_rules), ()):
        with pytest.raises(decseq.ProblemSpecError, match="force a declaration"):
            O2Policy(blank_rules=(), wald_rules=wald_rules, message_model=o2.message_model)
