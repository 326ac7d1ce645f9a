"""Exact evaluation and the Monte Carlo path."""

import dataclasses

import pytest

import decseq
from decseq import estimate_cost, exact_cost, simulate_once
from decseq.simulate import episode_rng


@pytest.fixture(scope="module")
def p2_pair(sym02_p2):
    sol = decseq.solve_p2(sym02_p2)
    return (sol.o1, sol.o2)


def test_exact_breakdown_components(sym02_p2, p2_pair):
    bd = exact_cost(p2_pair, sym02_p2)
    assert bd.total == pytest.approx(
        bd.obs1_cost + bd.obs2_cost + bd.loss_cost, abs=1e-12)
    assert bd.total == pytest.approx(0.27, abs=1e-9)


def test_tau_pmfs_are_distributions(sym02_p2, p2_pair):
    bd = exact_cost(p2_pair, sym02_p2)
    for _, acc in bd._weighted():
        assert sum(acc.tau1_pmf.values()) == pytest.approx(1.0, abs=1e-10)
        assert sum(acc.tau2_pmf.values()) == pytest.approx(1.0, abs=1e-10)
    assert bd.tau1_tail(1) == pytest.approx(1.0, abs=1e-12)
    assert bd.tau1_tail(sym02_p2.t1 + 1) == 0.0


def test_symmetric_instance_balanced_error(sym02_p2, p2_pair):
    # prior one half and mirror-image channels: both hypotheses misread
    # equally often
    bd = exact_cost(p2_pair, sym02_p2)
    per0, per1 = bd.per_h
    assert per0.e_loss == pytest.approx(per1.e_loss, abs=1e-10)
    assert per0.e_tau2 == pytest.approx(per1.e_tau2, abs=1e-10)


def test_estimate_deterministic_and_unbiased(sym02_p2, p2_pair):
    s1, eps = estimate_cost(p2_pair, sym02_p2, 50000, 11, collect=True)
    s2, _ = estimate_cost(p2_pair, sym02_p2, 50000, 11)
    assert s1.mean_cost == s2.mean_cost
    assert s1.error_rate == s2.error_rate
    assert len(eps) == 50000
    exact = exact_cost(p2_pair, sym02_p2).total
    assert abs(s1.mean_cost - exact) < 4.0 * s1.stderr


def test_episode_stream_is_counter_based(sym02_p2, p2_pair):
    _, eps = estimate_cost(p2_pair, sym02_p2, 64, 3, collect=True)
    # episode i only touches its own stream, so a fresh generator for the
    # same (seed, i) reproduces the record regardless of batch size
    for i in (0, 17, 63):
        solo = simulate_once(p2_pair, sym02_p2, episode_rng(3, i))
        ep = eps[i]
        assert (solo.h, solo.tau1, solo.tau2, solo.message, solo.decision,
                solo.cost) == (ep.h, ep.tau1, ep.tau2, ep.message, ep.decision,
                               ep.cost)


def test_different_seeds_differ(sym02_p2, p2_pair):
    a, _ = estimate_cost(p2_pair, sym02_p2, 5000, 1)
    b, _ = estimate_cost(p2_pair, sym02_p2, 5000, 2)
    assert a.mean_cost != b.mean_cost


def test_episode_costs_match_components(sym02_p1):
    sol = decseq.solve_p1(sym02_p1)
    prob = sym02_p1
    _, eps = estimate_cost((sol.o1, sol.o2), prob, 500, 5, collect=True)
    for ep in eps[:100]:
        rebuilt = (prob.costs.c1 * ep.tau1 + prob.costs.c2 * ep.tau2
                   + prob.costs.loss[ep.decision][ep.h])
        assert rebuilt == pytest.approx(ep.cost, abs=1e-12)


def test_estimate_rejects_empty_run(sym02_p2, p2_pair):
    with pytest.raises(decseq.ProblemSpecError):
        estimate_cost(p2_pair, sym02_p2, 0, 1)


def test_exact_cost_rejects_leaking_path_mass(sym02_p2, p2_pair):
    # rows that sum to 0.9 lose a tenth of the mass at every observation
    leaky = decseq.Channel(observer=2, tables=(((0.7, 0.2), (0.2, 0.7)),))
    problem = dataclasses.replace(sym02_p2, channel2=leaky, raw=None)
    with pytest.raises(decseq.CertificationError):
        exact_cost(p2_pair, problem)


def test_exact_cost_checks_pair_compatibility(sym02_p1, sym02_p2):
    sol1 = decseq.solve_p1(sym02_p1)
    with pytest.raises(decseq.ProblemSpecError):
        # a wait-then-sample receiver lacks the blank rules P2 needs
        exact_cost((sol1.o1, sol1.o2), sym02_p2)
