"""Best responses, their value tables, and the alternating improvement loop."""

import itertools

import numpy as np
import pytest

import decseq
from decseq import (BLANK, O1Policy, O2Policy, StageRule, evaluate_o2_policy,
                    exact_cost, extract_thresholds, immediate_sender_policy,
                    o1_best_response, o2_best_response, pbpo_iteration)
from decseq.belief import push_atoms, start_atom


def enumerate_sender_policies(problem):
    """Every structured sender policy on the reachable atoms (binary only)."""
    levels = [[start_atom(problem.prior)]]
    for t in range(1, problem.t1 + 1):
        levels.append(push_atoms(levels[-1], problem.channel1.row_pair(t)))
    atoms_by_t = [[b for b, _, _ in level] for level in levels]
    stage_atoms = atoms_by_t[1:problem.t1]
    term_atoms = atoms_by_t[problem.t1]
    stage_choices = []
    for atoms in stage_atoms:
        options = []
        for labels in itertools.product([1, BLANK, 0], repeat=len(atoms)):
            try:
                options.append(extract_thresholds(list(zip(atoms, labels)), 2))
            except decseq.StructureViolation:
                continue
        stage_choices.append(options)
    terminals = []
    for labels in itertools.product([1, 0], repeat=len(term_atoms)):
        try:
            terminals.append(extract_thresholds(list(zip(term_atoms, labels)), 2,
                                                terminal=True))
        except decseq.StructureViolation:
            continue
    for stages in itertools.product(*stage_choices):
        for term in terminals:
            yield O1Policy(stages=tuple(stages), terminal=term, n_messages=2)


@pytest.fixture(scope="module")
def asym_p2_fixed_receiver(asym_p2):
    # a deliberately suboptimal receiver to respond against
    return o2_best_response(immediate_sender_policy(asym_p2), asym_p2).policy


def test_o1_best_response_matches_enumeration(asym_p2, asym_p2_fixed_receiver):
    o2 = asym_p2_fixed_receiver
    res = o1_best_response(o2, asym_p2)
    assert exact_cost((res.policy, o2), asym_p2).total == pytest.approx(
        res.total, abs=1e-12)
    best = min(exact_cost((cand, o2), asym_p2).total
               for cand in enumerate_sender_policies(asym_p2))
    assert res.total == pytest.approx(best, abs=1e-9)


def test_o1_best_response_open_blank_receiver(asym_p2):
    # receiver that keeps sampling through blanks exercises the survival
    # accounting on the silent branch
    sol = decseq.solve_p2(asym_p2)
    o2 = O2Policy(blank_rules=((0.0, 1.0),), wald_rules=sol.o2.wald_rules,
                  message_model=sol.o2.message_model, n_messages=2)
    res = o1_best_response(o2, asym_p2)
    best = min(exact_cost((cand, o2), asym_p2).total
               for cand in enumerate_sender_policies(asym_p2))
    assert res.total == pytest.approx(best, abs=1e-9)


def test_o2_best_response_matches_blank_rule_sweep(asym_p2):
    sol = decseq.solve_p2(asym_p2)
    res = o2_best_response(sol.o1, asym_p2)
    assert exact_cost((sol.o1, res.policy), asym_p2).total == pytest.approx(
        res.total, abs=1e-12)
    # sweep every blank interval over the decision atoms, keeping the
    # responder's own post-message rules
    atoms = [t for t in res.tables if t.kind[0] == "blank"][0].atoms
    cuts = [0.0] + [0.5 * (a + b) for a, b in zip(atoms, atoms[1:])] + [1.0]
    sweep = min(
        exact_cost((sol.o1, O2Policy(blank_rules=((cuts[i], cuts[j]),),
                                     wald_rules=res.policy.wald_rules,
                                     message_model=res.policy.message_model,
                                     n_messages=2)), asym_p2).total
        for i in range(len(cuts)) for j in range(i, len(cuts)))
    assert res.total <= sweep + 1e-12


def test_best_responses_fix_designer_optimum(solved_battery_p1, solved_battery_p2):
    for prob, sol in solved_battery_p1 + solved_battery_p2:
        r1 = o1_best_response(sol.o2, prob)
        r2 = o2_best_response(sol.o1, prob)
        assert r1.total >= sol.total - 1e-9
        assert r2.total >= sol.total - 1e-9
        assert r1.total == pytest.approx(sol.total, abs=1e-9)
        assert r2.total == pytest.approx(sol.total, abs=1e-9)


def test_evaluate_o2_policy_validates_history(sym02_p2):
    sol = decseq.solve_p2(sym02_p2)
    with pytest.raises(decseq.ProblemSpecError):
        evaluate_o2_policy(sol.o2, [0], 1, sym02_p2)   # history must be blanks
    with pytest.raises(decseq.ProblemSpecError):
        evaluate_o2_policy(sol.o2, [BLANK] * 5, 1, sym02_p2)
    with pytest.raises(decseq.ProblemSpecError):
        evaluate_o2_policy(sol.o2, [], BLANK, sym02_p2)  # final symbol only


def test_evaluate_o2_policy_takes_integer_symbols(sym02_p1):
    # symbols are integers as estimate_cost takes them: numpy ones price as
    # the Python int, and a bool is not a symbol
    o2 = decseq.solve_p1(sym02_p1).o2
    want = evaluate_o2_policy(o2, (), 1, sym02_p1)
    got = evaluate_o2_policy(o2, (), np.int64(1), sym02_p1)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    for bad in (True, False, np.int64(2), 1.0):
        with pytest.raises(decseq.ProblemSpecError, match="not a symbol"):
            evaluate_o2_policy(o2, (), bad, sym02_p1)


def test_evaluate_o2_policy_affine_in_hypothesis_mix(sym02_p2):
    sol = decseq.solve_p2(sym02_p2)
    a, b = evaluate_o2_policy(sol.o2, [], 1, sym02_p2)
    assert a >= 0.0 and b >= 0.0
    # the pair prices (cost | H=0) and (cost | H=1); mixing is linear by
    # construction, so just pin the one-sided values against exact_cost on
    # a sender that always sends that symbol
    assert a != pytest.approx(b)


def test_pbpo_monotone_and_reaches_designer(sym02_p1, sym02_p2, asym_p2):
    for prob in (sym02_p1, sym02_p2, asym_p2):
        solver = decseq.solve_p1 if prob.variant == "P1" else decseq.solve_p2
        opt = solver(prob).total
        res = pbpo_iteration(prob)
        for a, b in zip(res.trace, res.trace[1:]):
            assert b <= a + 1e-12
        assert res.converged
        assert res.trace[-1] >= opt - 1e-9


def test_pbpo_from_custom_start(asym_p1):
    # PBPO has one start, the response to the immediate sender
    res = pbpo_iteration(asym_p1)
    assert res.converged
    assert exact_cost((res.o1, res.o2), asym_p1).total == pytest.approx(
        res.trace[-1], abs=1e-12)


def test_p2_receiver_steps_each_blank_atom_once(monkeypatch):
    # a sender that waits leaves the receiver blank atoms past stage 1; one
    # forward walk works out each (stage, atom)'s outcomes once.  The
    # post-message support takes the same step with the unit message factor
    from conftest import make_spec
    from decseq import best_response
    problem = decseq.load_problem_spec(make_spec(variant="P2", t1=3, t2=3, c1=0.01, c2=0.02))
    o1 = decseq.solve_p2(problem).o1
    steps, support = [], []
    real = best_response._receiver_step
    monkeypatch.setattr(best_response, "_receiver_step",
                        lambda b, factors, rows: (support if factors == {BLANK: (1.0, 1.0)}
                                                  else steps).append(b) or real(b, factors, rows))
    res = o2_best_response(o1, problem)
    atoms = [1] + [len(t.atoms) for t in res.tables if t.kind[0] == "blank"]
    assert atoms == [1, 2, 3]
    assert len(steps) == sum(atoms)
    # the first messages arrive at stage 2 and leave five merged beliefs,
    # each pushed once to T2 = 3; the stage-3 ones are not pushed
    assert len(set(support)) == len(support) == 5


def test_one_knot_table_per_designer_solve_and_pbpo_run(monkeypatch, sym02_p1, sym02_p2):
    # a solve prices its runs and answers its walked sender with one table,
    # and PBPO answers every round's sender with the one it builds first
    from decseq import wald
    builds = []
    real = wald._knot_tables
    monkeypatch.setattr(wald, "_knot_tables", lambda *args: builds.append(args) or real(*args))
    for solve, prob in ((decseq.solve_p1, sym02_p1), (decseq.solve_p2, sym02_p2)):
        builds.clear()
        solve(prob)
        assert len(builds) == 1
    for prob in (sym02_p1, sym02_p2):
        builds.clear()
        res = pbpo_iteration(prob)
        assert res.rounds >= 2
        assert len(builds) == 1
