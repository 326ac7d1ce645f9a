"""Brute-force enumerations: counts, capacity guards, and a micro cross-check."""

import itertools

import pytest

import decseq
from decseq import (CapacityError, brute_force_wald, enumerate_policies_p1,
                    enumerate_policies_p2, solve_p1, update_observer1)

from conftest import ASYM, make_spec


@pytest.fixture(scope="module")
def tiny_p1():
    return decseq.load_problem_spec(make_spec(variant="P1", t1=1, t2=1, **ASYM))


def micro_oracle_p1(problem):
    """Independent re-enumeration for T1 = 1, T2 = 1, binary everything.

    The sender picks one of the monotone cuts over its two reachable
    posteriors; the receiver picks one of the 6 depth-1 stop rules per
    message class.  Written against the raw probabilities on purpose.
    """
    assert problem.t1 == 1 and problem.t2 == 1
    p = problem.prior
    rows1 = problem.channel1.row_pair(1)
    rows2 = problem.channel2.row_pair(1)
    loss = problem.costs.loss
    post = [update_observer1(p, y, rows1) for y in range(2)]

    def stop_rule_costs(m0, m1, lik):
        """min over the 6 stop rules; masses are per-hypothesis, lik is the
        message likelihood pair entering the receiver's posterior."""
        best = None
        for rule in itertools.chain(((u,) for u in (0, 1)),
                                    itertools.product((0, 1), repeat=2)):
            if len(rule) == 1:
                u = rule[0]
                c = m0 * loss[u][0] + m1 * loss[u][1]
            else:
                c = problem.costs.c2 * (m0 + m1)
                for y in range(2):
                    u = rule[y]
                    c += m0 * rows2[0][y] * loss[u][0] + m1 * rows2[1][y] * loss[u][1]
            best = c if best is None else min(best, c)
        return best

    best_total = None
    # all 4 literal assignments of the sender's two observation branches
    # to symbols; relabelings repartition nothing, so they tie
    for assign in itertools.product((0, 1), repeat=2):
        total = problem.costs.c1
        for z in (0, 1):
            m0 = sum(p * rows1[0][y] for y in range(2) if assign[y] == z)
            m1 = sum((1 - p) * rows1[1][y] for y in range(2) if assign[y] == z)
            if m0 + m1 == 0.0:
                continue
            total += stop_rule_costs(m0, m1, None)
        best_total = total if best_total is None else min(best_total, total)
    return best_total


def test_micro_oracle_agrees(tiny_p1):
    res = enumerate_policies_p1(tiny_p1)
    assert res.cost == pytest.approx(micro_oracle_p1(tiny_p1), abs=1e-12)
    assert res.cost == pytest.approx(solve_p1(tiny_p1).total, abs=1e-9)


def test_oracle_reports_pair_count(tiny_p1):
    res = enumerate_policies_p1(tiny_p1)
    # 4 literal sender maps; the two separating ones carry two message
    # classes at 6 stop rules each, the two pooling ones a single class
    assert res.count == 2 * 6 ** 2 + 2 * 6


def test_oracle_tables_describe_winner(sym02_p1):
    res = enumerate_policies_p1(sym02_p1)
    assert res.o1_table
    assert res.o2_table
    d = res.to_dict()
    assert set(d) >= {"cost", "count", "o1_table", "o2_table"}
    # deterministic across calls
    res2 = enumerate_policies_p1(sym02_p1)
    assert res2.cost == res.cost and res2.o1_table == res.o1_table


def test_capacity_error_carries_sizes():
    spec = make_spec(variant="P2", t1=2, t2=3, **ASYM)
    prob = decseq.load_problem_spec(spec)
    with pytest.raises(CapacityError) as exc:
        enumerate_policies_p2(prob)
    assert exc.value.count > exc.value.cap


def test_capacity_cap_is_adjustable(tiny_p1):
    with pytest.raises(CapacityError):
        enumerate_policies_p1(tiny_p1, cap=10)


def test_wald_brute_force_structure(tiny_p1):
    res = brute_force_wald(tiny_p1.channel2, tiny_p1.costs, 2, 0.4)
    assert res.count == 38
    assert res.o1_table is None
    assert res.o2_table
