"""Brute-force enumerations: counts, capacity guards, and a micro cross-check."""

import itertools

import pytest

import decseq
from decseq import (CapacityError, ProblemSpecError, brute_force_wald,
                    enumerate_policies_p1, enumerate_policies_p2, solve_p1,
                    update_observer1)

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


def test_oracle_repeats_cost_and_count(sym02_p1, sym02_p2):
    for prob, enumerate_policies in ((sym02_p1, enumerate_policies_p1),
                                     (sym02_p2, enumerate_policies_p2)):
        first = enumerate_policies(prob)
        again = enumerate_policies(prob)
        assert (again.cost.hex(), again.count) == (first.cost.hex(), first.count)


def test_capacity_error_carries_sizes():
    spec = make_spec(variant="P2", t1=2, t2=3, **ASYM)
    prob = decseq.load_problem_spec(spec)
    with pytest.raises(CapacityError) as exc:
        enumerate_policies_p2(prob, cap=1000)
    # 36 sender maps times 1 + 6 + 16 + 32 receiver decision nodes
    assert (exc.value.count, exc.value.cap) == (36 * 55, 1000)
    assert enumerate_policies_p2(prob, cap=36 * 55).count > 0


@pytest.mark.parametrize("n_symbols", [2, 20])
def test_capacity_error_past_float_range(n_symbols):
    # (10**300)**n_symbols sender maps: a float format of the bound
    # overflows, and str() refuses its 6,300 digits at 20 symbols (the bound
    # is about 2 * 10**6300, between 2**20929 and 2**20930)
    m = 10 ** 300
    row = [1.0 / n_symbols] * n_symbols
    prob = decseq.load_problem_spec(make_spec(variant="P2", t1=1, t2=1, m=m, ch1=[row, row]))
    with pytest.raises(CapacityError) as exc:
        enumerate_policies_p2(prob)
    # the receiver's node sum stops at 1 + 2 * m, past the cap
    assert exc.value.count == m ** n_symbols * (1 + 2 * m)
    shown = str(2 * m ** 3 + m ** 2) if n_symbols == 2 else "2**20929 or more"
    assert str(exc.value) == (f"oracle work bound {shown} exceeds cap "
                              f"{decseq.ORACLE_CAP_DEFAULT}")


@pytest.mark.parametrize("variant", ["P1", "P2"])
def test_work_bound_is_checked_before_enumeration(monkeypatch, variant):
    def refuse(problem):
        raise AssertionError("sender maps enumerated past the cap")

    monkeypatch.setattr(decseq.oracle, "_o1_maps", refuse)
    prob = decseq.load_problem_spec(make_spec(variant=variant, t1=2, t2=3))
    enumerate_policies = enumerate_policies_p1 if variant == "P1" else enumerate_policies_p2
    with pytest.raises(CapacityError):
        enumerate_policies(prob, cap=100)


def test_capacity_cap_is_adjustable(tiny_p1):
    with pytest.raises(CapacityError):
        enumerate_policies_p1(tiny_p1, cap=10)


def test_a_negative_cap_is_a_spec_error(monkeypatch, tiny_p1):
    # a malformed cap, refused before any work bound is computed; a cap of
    # 0 is a cap, exceeded by any work
    def refuse(*args):
        raise AssertionError("work bound computed for a negative cap")

    monkeypatch.setattr(decseq.oracle, "_rule_sizes", refuse)
    monkeypatch.setattr(decseq.oracle, "_count_o1_maps", refuse)
    p2 = decseq.load_problem_spec(make_spec(variant="P2"))
    for run in (lambda cap: enumerate_policies_p1(tiny_p1, cap=cap),
                lambda cap: enumerate_policies_p2(p2, cap=cap),
                lambda cap: brute_force_wald(tiny_p1.channel2, tiny_p1.costs, 2, 0.4, cap=cap)):
        with pytest.raises(ProblemSpecError, match="cap"):
            run(-5)
    monkeypatch.undo()
    with pytest.raises(CapacityError):
        enumerate_policies_p1(tiny_p1, cap=0)


def test_wald_brute_force_structure(tiny_p1):
    res = brute_force_wald(tiny_p1.channel2, tiny_p1.costs, 2, 0.4)
    assert res.count == 38
