"""Designer decomposition: state transformations and the two solvers."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import decseq
from decseq import (CapacityError, UnreachableBranchError, enumerate_policies_p1,
                    enumerate_policies_p2, exact_cost, q1_p1, q2_p1,
                    reachable_beliefs, solve_p1, solve_p2)
from decseq.seq_decomp import (_P1Solver, _P2Solver, _cluster_positions,
                                _labels_from_cuts, _labels_from_runs, _partition_table,
                                _run_pricer, state_belief)
from decseq.wald import wald_cost

from conftest import ASYM, make_spec
from path_oracle import blank_phase_paths


def start_state(problem):
    return ((problem.prior, 1.0, 1.0),)


def test_q2_advances_and_conserves(asym_p1):
    state = q2_p1(start_state(asym_p1), asym_p1.channel1.row_pair(1))
    assert sum(m0 for _, m0, _ in state) == pytest.approx(1.0, abs=1e-12)
    assert sum(m1 for _, _, m1 in state) == pytest.approx(1.0, abs=1e-12)
    beliefs = [b for b, _, _ in state]
    assert beliefs == sorted(beliefs)


def test_q1_conditions_and_normalizes(asym_p1):
    state = q2_p1(start_state(asym_p1), asym_p1.channel1.row_pair(1))
    rule = decseq.StageRule(send=((0.5, 1.0), (0.0, 0.5)))
    low = q1_p1(state, rule, 1)
    # conditioning reweights to unit total mass across hypotheses
    assert sum(m0 + m1 for _, m0, m1 in low) == pytest.approx(1.0, abs=1e-12)
    assert all(b < 0.5 for b, _, _ in low)


def test_q1_unreachable_branch_raises(asym_p1):
    state = q2_p1(start_state(asym_p1), asym_p1.channel1.row_pair(1))
    never = decseq.StageRule(send=((0.999, 1.0), (0.0, 0.001)))
    with pytest.raises(UnreachableBranchError):
        q1_p1(state, never, 0)


def test_state_belief_recovers_prior(asym_p1):
    # before any conditioning the state belief is the prior itself
    st = tuple((b, asym_p1.prior * u0, (1 - asym_p1.prior) * u1)
               for b, u0, u1 in
               zip(*[(lv.atoms, lv.w0, lv.w1)
                     for lv in [reachable_beliefs(asym_p1.prior,
                                                  asym_p1.channel1, 1).level(1)]][0]))
    assert state_belief(st) == pytest.approx(asym_p1.prior, abs=1e-12)


def test_designer_matches_exact_evaluation(solved_battery_p1, solved_battery_p2):
    for prob, sol in solved_battery_p1 + solved_battery_p2:
        check = exact_cost((sol.o1, sol.o2), prob).total
        assert check == pytest.approx(sol.total, abs=1e-9)


def test_designer_beats_or_ties_immediate_heuristic(solved_battery_p2):
    for prob, sol in solved_battery_p2:
        o1 = decseq.immediate_sender_policy(prob)
        o2 = decseq.o2_best_response(o1, prob).policy
        heuristic = exact_cost((o1, o2), prob).total
        assert sol.total <= heuristic + 1e-9


def test_one_stage_variants_hand_values():
    # T1 = T2 = 1.  The wait-then-sample receiver may decide on the message
    # alone; the interleaved receiver's single observation is part of the
    # step that delivers the message.  Both values check out by hand.
    p1 = decseq.load_problem_spec(make_spec(variant="P1", t1=1, t2=1, **ASYM))
    p2 = decseq.load_problem_spec(make_spec(variant="P2", t1=1, t2=1, **ASYM))
    v1 = solve_p1(p1).total
    v2 = solve_p2(p2).total
    assert v1 == pytest.approx(0.2527, abs=1e-9)
    assert v2 == pytest.approx(0.2698, abs=1e-9)
    # the optional observation can only help
    assert v1 <= v2 + 1e-12


def test_variants_differ_on_longer_horizons(asym_p1, asym_p2):
    # interleaving has observer 2 pay for early observations; on this
    # instance the two communication patterns price differently
    v1 = solve_p1(asym_p1).total
    v2 = solve_p2(asym_p2).total
    assert abs(v1 - v2) > 1e-6


def test_send_flow_rejects_state_outside_message_law(sym02_p2):
    solver = _P2Solver(sym02_p2)
    price = _run_pricer(((0.5, 0.0, 1, 0.5, 0.5),), sym02_p2.channel2.row_pair(1),
                        solver.wald.reader(sym02_p2.t2 - 1))
    # belief2 = 0 cannot absorb a message that H=1 never sends
    with pytest.raises(decseq.ImpossibleUpdateError):
        price(0, 1, (1.0, 0.0))


def test_solver_rejects_wrong_variant(sym02_p1, sym02_p2):
    with pytest.raises(decseq.ProblemSpecError):
        solve_p2(sym02_p1)
    with pytest.raises(decseq.ProblemSpecError):
        solve_p1(sym02_p2)


def test_sym02_known_optimum(sym02_p1, sym02_p2):
    # hand-checkable: send after one observation, then the receiver samples
    assert solve_p1(sym02_p1).total == pytest.approx(0.27, abs=1e-9)
    assert solve_p2(sym02_p2).total == pytest.approx(0.27, abs=1e-9)


def test_solution_reports_search_size(sym02_p2):
    sol = solve_p2(sym02_p2)
    assert sol.nodes > 0
    assert sol.partitions_tried >= sol.nodes


def post_message_beliefs(o2, prob, t, z):
    """Modelled receiver beliefs after message z at stage t, at every later
    observation count, written out from the policy's message model."""
    factor = o2.message_factor(t, z)
    if prob.variant == "P1":
        sb = prob.prior
        for s in range(1, t):
            sb = decseq.subjective_update(sb, None, None, o2.message_factor(s, decseq.BLANK))
        cur, first = {decseq.subjective_update(sb, None, None, factor)}, 1
    else:
        nodes = blank_phase_paths(o2, prob, t)
        rows = prob.channel2.row_pair(t)
        cur = {decseq.subjective_update(sb, y, rows, factor) for sb, w0, w1 in nodes
               for y in range(len(rows[0])) if w0 * rows[0][y] + w1 * rows[1][y] > 0.0}
        first = t + 1
    out = set(cur)
    for k in range(first, prob.t2 + 1):
        rows = prob.channel2.row_pair(k)
        cur = {b * rows[0][y] / (b * rows[0][y] + (1.0 - b) * rows[1][y])
               for b in cur for y in range(len(rows[0]))
               if b * rows[0][y] + (1.0 - b) * rows[1][y] > 0.0}
        out |= cur
    return out


def test_receiver_table_covers_post_message_beliefs(solved_battery_p1, solved_battery_p2):
    # the stopping table is tabulated on every belief the receiver can hold
    # once a message has arrived, so its thresholds are exact there
    for prob, sol in solved_battery_p1 + solved_battery_p2:
        pts = sol.wald.eval_points
        for t in range(1, prob.t1 + 1):
            for z, lik in sol.o2.message_model[t - 1].items():
                if z == decseq.BLANK or max(lik) <= 0.0:
                    continue
                for b in post_message_beliefs(sol.o2, prob, t, z):
                    assert min(abs(b - p) for p in pts) <= 1e-9


@pytest.mark.parametrize("variant, horizon, nodes, partitions",
                         [("P1", 6, 1981, 23367), ("P2", 4, 1980, 10307)])
def test_sym02_anchor_search_sizes(variant, horizon, nodes, partitions):
    # sym02 with T1 = T2 raised: the search visits exactly these many memo
    # nodes and partitions; a change to the search shows here first
    prob = decseq.load_problem_spec(make_spec(variant=variant, t1=horizon, t2=horizon))
    sol = (solve_p1 if variant == "P1" else solve_p2)(prob)
    assert (sol.nodes, sol.partitions_tried) == (nodes, partitions)


@pytest.mark.parametrize("variant, horizon, memo_hits",
                         [("P1", 6, 3657), ("P2", 4, 2158)])
def test_sym02_anchor_memo_hits(variant, horizon, memo_hits):
    # lookups answered from the memo on the same anchors; the P2 blank
    # phase prices the empty continue run once, not once per split point
    prob = decseq.load_problem_spec(make_spec(variant=variant, t1=horizon, t2=horizon))
    sol = (solve_p1 if variant == "P1" else solve_p2)(prob)
    assert sol.memo_hits == memo_hits
    assert sol.search_s >= 0.0 and sol.extract_s >= 0.0


TINY_ORACLE_CAP = 200000


@st.composite
def tiny_specs(draw, max_t=2):
    """Both variants, T1, T2 <= max_t, alphabets <= 3, M <= 3, stationary or
    time-varying channels; rows may hold zeros."""
    variant = draw(st.sampled_from(["P1", "P2"]))
    t1 = draw(st.integers(1, max_t))
    t2 = draw(st.integers(t1 if variant == "P2" else 1, max_t))

    def row(k):
        weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
        return [w / sum(weights) for w in weights]

    def channel(horizon):
        k = draw(st.integers(2, 3))
        n_tables = draw(st.sampled_from(sorted({1, horizon})))
        return [[row(k), row(k)] for _ in range(n_tables)]

    spec = make_spec(prior=draw(st.integers(1, 9)) / 10,
                     c1=draw(st.integers(1, 15)) / 100, c2=draw(st.integers(1, 15)) / 100,
                     loss=[[0.0, draw(st.integers(5, 20)) / 10],
                           [draw(st.integers(5, 20)) / 10, 0.0]],
                     t1=t1, t2=t2, variant=variant, m=draw(st.integers(2, 3)))
    spec["channels"][0]["tables"] = channel(t1)
    spec["channels"][1]["tables"] = channel(t2)
    return spec


@settings(max_examples=60, deadline=None)
@given(spec=tiny_specs())
def test_designer_matches_oracle_on_tiny_instances(spec):
    prob = decseq.load_problem_spec(spec)
    solve, enumerate_policies = ((solve_p1, enumerate_policies_p1) if prob.variant == "P1"
                                 else (solve_p2, enumerate_policies_p2))
    try:
        oracle = enumerate_policies(prob, cap=TINY_ORACLE_CAP)
    except CapacityError:
        assume(False)
    sol = solve(prob)
    assert sol.total == pytest.approx(oracle.cost, abs=1e-9)
    assert exact_cost((sol.o1, sol.o2), prob).total == pytest.approx(sol.total, abs=1e-9)


# ---------------------------------------------------------------------------
# fast paths against the per-node references they replaced


def reference_partitions(n, m, terminal):
    """Per-node partition enumeration: every cut or run position, kept the
    first time its labelling shows up; empty symbol runs dropped."""
    combos = itertools.combinations_with_replacement
    if terminal:
        cands = ((_labels_from_cuts(n, cuts, m), (0, *cuts, n))
                 for cuts in combos(range(n + 1), m - 1))
        spans = [(i, i + 1) for i in range(m)]
    else:
        cands = ((_labels_from_runs(n, pos, m), pos)
                 for pos in combos(range(n + 1), 2 * m))
        spans = [(2 * i, 2 * i + 1) for i in range(m)]
    seen = set()
    out = []
    for labels, edges in cands:
        if labels in seen:
            continue
        seen.add(labels)
        runs = tuple((edges[a], edges[b]) for a, b in spans if edges[a] < edges[b])
        blank = None if terminal else tuple(
            g for g, lab in enumerate(labels) if lab == decseq.BLANK)
        out.append((labels, runs, blank))
    return out


def reference_send_flow(solver, t, region, msg_lik):
    """Expected stopping cost of a P2 message branch, unnormalized, by one
    wald_cost call per posterior."""
    rows = solver.pb.channel2.row_pair(t)
    mz0, mz1 = msg_lik
    remaining = solver.pb.t2 - t
    flow = 0.0
    for b1, b2, d, m0, m1 in region:
        if d == 0:
            continue
        for y in range(len(rows[0])):
            w = m0 * rows[0][y] + m1 * rows[1][y]
            if w <= 0.0:
                continue
            num = b2 * rows[0][y] * mz0
            den = num + (1.0 - b2) * rows[1][y] * mz1
            if den <= 0.0:
                raise decseq.ImpossibleUpdateError(
                    "designer state inconsistent with its message law")
            flow += w * wald_cost(solver.wald, num / den, remaining)
    return flow


def reference_send(solver, t, state):
    """send(lo, hi) over a state's belief1 groups, priced per posterior."""
    if solver.variant == "P1":
        pre0 = [0.0]
        pre1 = [0.0]
        for _, m0, m1 in state:
            pre0.append(pre0[-1] + m0)
            pre1.append(pre1[-1] + m1)

        def send(lo, hi):
            rm0 = pre0[hi] - pre0[lo]
            rm1 = pre1[hi] - pre1[lo]
            mass = rm0 + rm1
            return 0.0 if mass <= 0.0 else \
                mass * wald_cost(solver.wald, rm0 / mass, solver.pb.t2)
        return len(state), send
    atoms = sorted(state)
    groups = _cluster_positions([a[0] for a in atoms])
    tot0 = sum(m0 for *_, m0, _ in atoms)
    tot1 = sum(m1 for *_, _, m1 in atoms)

    def send(lo, hi):
        sel = atoms[groups[lo][0]:groups[hi - 1][1]]
        r0 = sum(m0 for *_, m0, _ in sel)
        r1 = sum(m1 for *_, _, m1 in sel)
        lik = (r0 / tot0 if tot0 > 0.0 else 0.0, r1 / tot1 if tot1 > 0.0 else 0.0)
        return reference_send_flow(solver, t, sel, lik) if r0 + r1 > 0.0 else 0.0
    return len(groups), send


def outcome(fn, *args):
    try:
        return fn(*args)
    except decseq.DecseqError as exc:
        return type(exc)


@pytest.mark.parametrize("terminal", [True, False])
@pytest.mark.parametrize("m", [2, 3])
def test_partition_table_matches_per_node_enumeration(m, terminal):
    for n in range(9):
        assert _partition_table(n, m, terminal) == reference_partitions(n, m, terminal)


@settings(max_examples=40, deadline=None)
@given(spec=tiny_specs(max_t=3))
def test_run_pricer_and_partition_tables_match_references(spec):
    # at every memo state, every message run prices exactly as the
    # per-posterior wald_cost loop, and the per-solve partition tables
    # equal the per-node enumeration
    prob = decseq.load_problem_spec(spec)
    solver = (_P1Solver if prob.variant == "P1" else _P2Solver)(prob)
    stage = solver._stage
    states = []

    def checked_stage(t, state):
        n, send, blank = stage(t, state)
        n_ref, send_ref = reference_send(solver, t, state)
        assert n == n_ref
        for lo in range(n):
            for hi in range(lo + 1, n + 1):
                assert outcome(send, lo, hi) == outcome(send_ref, lo, hi)
        states.append(t)
        return n, send, blank

    solver._stage = checked_stage
    try:
        sol = solver.solve()
    except decseq.DecseqError:
        assume(False)
    assert len(states) == sol.nodes
    for (n, terminal), table in solver.partition_tables.items():
        assert table == reference_partitions(n, prob.n_messages, terminal)
