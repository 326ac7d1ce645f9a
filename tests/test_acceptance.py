"""Acceptance gate: nine numbered criteria, one verdict line each.

Every criterion prints CRITERION n: PASS or FAIL in the terminal summary
(see conftest).  Tolerances are part of the contract and are not to be
loosened.
"""

import contextlib
import itertools
import time

import numpy as np
import pytest

import decseq
from decseq import (BLANK, Channel, Costs, brute_force_wald,
                    enumerate_policies_p1, enumerate_policies_p2, exact_cost,
                    estimate_cost, o1_best_response, o2_best_response,
                    pbpo_iteration, solve_p1, solve_p2, solve_wald_finite,
                    terminal_cost, truncation_bound, wald_cost)
from decseq.belief import push_atoms
from decseq.wald import grid_continuation

from conftest import battery, record_criterion


@contextlib.contextmanager
def criterion(number):
    try:
        yield
    except BaseException:
        record_criterion(number, False)
        raise
    record_criterion(number, True)


ZERO_ONE = ((0.0, 1.0), (1.0, 0.0))


def test_criterion_01_wald_oracle_equivalence():
    with criterion(1):
        start = time.perf_counter()
        for p0, eps, c2 in itertools.product((0.3, 0.5), (0.1, 0.2),
                                             (0.02, 0.05)):
            ch = Channel(observer=2,
                         tables=((((1.0 - eps, eps), (eps, 1.0 - eps)),)))
            costs = Costs(c1=0.1, c2=c2, loss=ZERO_ONE)
            oracle = brute_force_wald(ch, costs, 3, p0)
            sol = solve_wald_finite(ch, costs, 3)
            assert abs(wald_cost(sol, p0, 3) - oracle.cost) <= 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_02_designer_oracle_equivalence():
    with criterion(2):
        start = time.perf_counter()
        for prob in battery("P1"):
            assert abs(solve_p1(prob).total
                       - enumerate_policies_p1(prob).cost) <= 1e-9
        for prob in battery("P2"):
            assert abs(solve_p2(prob).total
                       - enumerate_policies_p2(prob).cost) <= 1e-9
        assert time.perf_counter() - start < 120.0


def label_transitions(classify, lo=0.0, hi=1.0, n=2001):
    grid = np.linspace(lo, hi, n)
    labels = [classify(float(b)) for b in grid]
    return sum(1 for a, b in zip(labels, labels[1:]) if a != b)


def test_criterion_03_threshold_structure(solved_battery_p1,
                                          solved_battery_p2, mary3_p1):
    with criterion(3):
        batches = list(solved_battery_p1) + list(solved_battery_p2)
        batches.append((mary3_p1, solve_p1(mary3_p1)))
        for prob, sol in batches:
            limit = 4 if prob.n_messages == 2 else 2 * prob.n_messages
            for t in range(1, prob.t1 + 1):
                assert label_transitions(sol.o1.rule_at(t).classify) <= limit
            # receiver: every rule is one continue interval, and the
            # best-response tables confirm it on the reachable atoms
            r2 = o2_best_response(sol.o1, prob)
            for table in r2.tables:
                cont = [i for i, lab in enumerate(table.labels) if lab is None]
                if cont:
                    assert cont == list(range(cont[0], cont[-1] + 1))
            # sender side re-derived from its own value tables: the
            # extraction itself raises on any structure violation
            r1 = o1_best_response(sol.o2, prob)
            for table in r1.tables:
                labeled = list(zip(table.atoms, table.labels))
                decseq.extract_thresholds(labeled, prob.n_messages,
                                          terminal=False)


def check_concave(table):
    atoms, values = table.atoms, table.values
    for i in range(len(atoms) - 2):
        a, b, c = atoms[i], atoms[i + 1], atoms[i + 2]
        if c - a <= 0.0:
            continue
        chord = ((c - b) * values[i] + (b - a) * values[i + 2]) / (c - a)
        assert values[i + 1] >= chord - 1e-9


def check_affine_branches(table, prob, o2):
    """Stop and send branch values must lie exactly on their affine, point
    by point (same expression the solver used, so equality is bitwise)."""
    loss = prob.costs.loss
    for u in (0, 1):
        branch = table.branches.get(f"declare{u}")
        if branch is None:
            continue
        for b, v in zip(table.atoms, branch):
            assert v == b * loss[u][0] + (1.0 - b) * loss[u][1]
    if table.kind[0] == "sender":
        t = table.kind[1]
        for z in range(prob.n_messages):
            a0, a1 = decseq.evaluate_o2_policy(o2, (BLANK,) * (t - 1), z, prob)
            for b, v in zip(table.atoms, table.branches[("send", z)]):
                assert v == b * a0 + (1.0 - b) * a1


def test_criterion_04_concavity_and_affinity(solved_battery_p1,
                                             solved_battery_p2):
    with criterion(4):
        n_seen = 0
        for prob, sol in list(solved_battery_p1) + list(solved_battery_p2):
            for table in o2_best_response(sol.o1, prob).tables:
                check_concave(table)
                check_affine_branches(table, prob, sol.o2)
                n_seen += 1
            r1 = o1_best_response(sol.o2, prob)
            for table in r1.tables:
                check_concave(table)
                check_affine_branches(table, prob, sol.o2)
                n_seen += 1
        assert n_seen > 0


def test_criterion_05_value_iteration_monotone(sym02_p1, sym02_p2):
    with criterion(5):
        for prob in (sym02_p1, sym02_p2):
            solver = solve_p1 if prob.variant == "P1" else solve_p2
            sol = solver(prob)
            lim = decseq.value_iterate_o2(sol.o1, prob)
            assert lim.wald.converged
            assert lim.wald.max_increase <= 0.0
            # raw iterates from the stop-only function, pairwise, all grid
            # nodes; the 40th is the reference
            grid = lim.wald.grid
            cont = grid_continuation(prob.channel2.row_pair(1), prob.costs.c2, grid)
            stop = np.minimum(*(terminal_cost(u, grid, prob.costs) for u in (0, 1)))
            w = stop
            for _ in range(39):
                prev, w = w, np.minimum(stop, cont(w))
                assert float((w - prev).max()) <= 0.0
            assert float(np.abs(lim.wald.values - w).max()) < 1e-6


def test_criterion_06_truncation_certificates(sym02_p1):
    with criterion(6):
        costs = sym02_p1.costs
        for p in (0.0, 0.004, 0.17, 1.0):
            cert = truncation_bound("o2", p, costs)
            assert cert.epsilon == costs.max_loss * p
            for t2 in (1, 6, 40):
                cert1 = truncation_bound("o1", p, costs, t2=t2)
                assert cert1.epsilon == (costs.c2 * t2 + costs.max_loss) * p
        pair = decseq.epsilon_optimal_pair(sym02_p1, 0.5)
        assert all(c.epsilon <= 0.25 for c in pair.certificates)
        tight = decseq.load_problem_spec(
            dict(sym02_p1.to_dict(),
                 costs={"c1": 0.1, "c2": 0.002, "J": [[0.0, 1.0], [1.0, 0.0]]}))
        with pytest.raises(decseq.CertificationError):
            decseq.epsilon_optimal_pair(tight, 1e-4, max_horizon=2)


def test_criterion_07_monte_carlo_agreement(sym02_p1):
    with criterion(7):
        sol = solve_p1(sym02_p1)
        exact = exact_cost((sol.o1, sol.o2), sym02_p1).total
        assert abs(exact - sol.total) <= 1e-9
        summary, _ = estimate_cost((sol.o1, sol.o2), sym02_p1, 100000, 7)
        assert abs(summary.mean_cost - exact) < 3.0 * summary.stderr


def test_criterion_08_martingale_and_mass():
    with criterion(8):
        rng = np.random.default_rng(20260822)
        for _ in range(1000):
            prior = float(rng.uniform(0.02, 0.98))
            n_sym = int(rng.integers(2, 4))
            rows = tuple(tuple(r / r.sum())
                         for r in rng.uniform(0.05, 1.0, size=(2, n_sym)))
            total = 0.0
            for y in range(n_sym):
                py = prior * rows[0][y] + (1.0 - prior) * rows[1][y]
                total += py * decseq.update_observer1(prior, y, rows)
            assert abs(total - prior) <= 1e-10
            # one advance step conserves per-hypothesis mass
            state = ((prior, 0.6, 0.3), (0.5 * prior, 0.4, 0.7))
            pushed = tuple(push_atoms(state, rows))
            assert abs(sum(m0 for _, m0, _ in pushed) - 1.0) <= 1e-10
            assert abs(sum(m1 for _, _, m1 in pushed) - 1.0) <= 1e-10


def test_criterion_09_pbpo_monotone(sym02_p1, sym02_p2, asym_p1, asym_p2):
    with criterion(9):
        for prob in (sym02_p1, sym02_p2, asym_p1, asym_p2):
            solver = solve_p1 if prob.variant == "P1" else solve_p2
            opt = solver(prob).total
            res = pbpo_iteration(prob)
            for a, b in zip(res.trace, res.trace[1:]):
                assert b <= a + 1e-12
            assert res.converged
            assert res.trace[-1] >= opt - 1e-9
