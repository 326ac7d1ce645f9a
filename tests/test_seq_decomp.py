"""Designer decomposition: state transformations and the two solvers."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import decseq
from decseq import (CapacityError, enumerate_policies_p1, enumerate_policies_p2,
                    exact_cost, seq_decomp, solve_p1, solve_p2)
from decseq.belief import push_atoms
from decseq.policies import pair_to_dict
from decseq.seq_decomp import _P1Solver, _P2Solver, _key_ints

import designer_reference
from designer_reference import _cluster_positions, knot_reader, left_sum, table_entries
from conftest import ANCHOR_HORIZONS, ASYM, anchor_spec, make_spec, read_golden
from path_oracle import blank_phase_paths


def start_state(problem):
    return ((problem.prior, 1.0, 1.0),)


def test_q2_advances_and_conserves(asym_p1):
    state = tuple(push_atoms(start_state(asym_p1), asym_p1.channel1.row_pair(1)))
    assert sum(m0 for _, m0, _ in state) == pytest.approx(1.0, abs=1e-12)
    assert sum(m1 for _, _, m1 in state) == pytest.approx(1.0, abs=1e-12)
    beliefs = [b for b, _, _ in state]
    assert beliefs == sorted(beliefs)


def test_designer_matches_exact_evaluation(solved_battery_p1, solved_battery_p2):
    for prob, sol in solved_battery_p1 + solved_battery_p2:
        check = exact_cost((sol.o1, sol.o2), prob).total
        assert check == pytest.approx(sol.total, abs=1e-9)


def test_designer_receiver_is_the_senders_best_response(solved_battery_p1,
                                                        solved_battery_p2, mary3_p1):
    for prob, sol in solved_battery_p1 + solved_battery_p2 + [(mary3_p1, solve_p1(mary3_p1))]:
        assert sol.o2 == decseq.o2_best_response(sol.o1, prob).policy


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


def value_terminal(solver, state):
    """The batch value of one last-stage node and its argmin's labels."""
    counts = np.array([len(state)])
    rows, starts = solver._groups(np.array(state, dtype=float), counts)
    values, best, ns = solver._value_nodes(solver.pb.t1, rows, starts, counts)
    return values[0], table_entries(int(ns[0]), solver.pb.n_messages, True)[best[0]][0]


def test_send_flow_rejects_state_outside_message_law(sym02_p2):
    # the run of the first belief1 group sends a message that H=1 never
    # sends, and its atom's belief2 = 0 cannot absorb it
    state = ((0.3, 0.0, 0.5, 0.0), (0.7, 0.5, 0.0, 0.5))
    with pytest.raises(decseq.ImpossibleUpdateError):
        value_terminal(_P2Solver(sym02_p2), state)


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
    # the valuation's work at sym02 P2 T=4: every node's message runs, and
    # in them the fresh observations of still-sampling atoms
    sol = solve_p2(decseq.load_problem_spec(make_spec(variant="P2", t1=4, t2=4)))
    assert (sol.priced_runs, sol.priced_terms) == (11826, 116846)


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
        tables = decseq.o2_best_response(sol.o1, prob).tables
        pts = {p for table in tables if table.kind[0] == "after" for p in table.atoms}
        for t in range(1, prob.t1 + 1):
            for z, lik in sol.o2.message_model[t - 1].items():
                if z == decseq.BLANK or max(lik) <= 0.0:
                    continue
                for b in post_message_beliefs(sol.o2, prob, t, z):
                    assert min(abs(b - p) for p in pts) <= 1e-9


@pytest.mark.parametrize("variant", sorted(ANCHOR_HORIZONS))
def test_sym02_anchor_search_sizes(variant):
    # sym02 with T1 = T2 raised: the search visits exactly the memo nodes
    # and partitions that the golden file pins; a change to the search
    # shows here first
    name, spec = anchor_spec(variant)
    want = read_golden()[name]
    sol = (solve_p1 if variant == "P1" else solve_p2)(decseq.load_problem_spec(spec))
    assert (sol.nodes, sol.partitions_tried) == (want["nodes"], want["partitions_tried"])


# observer 2 can see a symbol that H=0 never sends, so still-sampling
# atoms reach belief2 = 0.0 exactly: they must stay sampling, apart from
# the declared atoms at belief2 = -1.0
BOUNDARY = dict(ch2=[[1.0, 0.0], [0.3, 0.7]], c1=0.05, c2=0.02, variant="P2")


def test_p2_declared_and_sampling_atoms_stay_apart_at_belief2_zero():
    deep = decseq.load_problem_spec(make_spec(t1=3, t2=3, **BOUNDARY))
    sol = solve_p2(deep)
    assert sol.total.hex() == "0x1.b035bd512ec6dp-4"
    assert (sol.nodes, sol.partitions_tried, sol.memo_hits) == (82, 407, 74)
    # from T1 = 3 the oracle's receiver tree continues through a still-blank
    # stage (0.10552)
    assert enumerate_policies_p2(deep).cost == pytest.approx(sol.total, abs=1e-9)
    prob = decseq.load_problem_spec(make_spec(t1=2, t2=2, **BOUNDARY))
    oracle = enumerate_policies_p2(prob).cost
    assert oracle == pytest.approx(0.128, abs=1e-12)
    assert solve_p2(prob).total == pytest.approx(oracle, abs=1e-9)


def test_p2_designer_reaches_the_oracle_when_a_split_declares():
    # the optimum has observer 2 declare 1 below a belief2 split and 0 above
    # it with nobody sampling on (0.041667; pricing only "everyone declares
    # 0" for the empty continue run gave 0.0425)
    prob = decseq.load_problem_spec(spec_with(
        [[[0.0, 0.5, 0.5], [0.25, 0.75, 0.0]]], [[[0.0, 1.0], [2 / 3, 1 / 3]]], prior=0.6,
        c1=0.01, c2=0.01, loss=[[0.0, 0.5], [0.5, 0.0]], variant="P2"))
    assert solve_p2(prob).total == pytest.approx(enumerate_policies_p2(prob).cost, abs=1e-9)


@pytest.mark.parametrize("variant", sorted(ANCHOR_HORIZONS))
def test_sym02_anchor_memo_hits(variant):
    # lookups answered from the memo on the same anchors, as the golden
    # file pins them; the P2 blank phase prices the empty continue run
    # once, not once per split point
    name, spec = anchor_spec(variant)
    sol = (solve_p1 if variant == "P1" else solve_p2)(decseq.load_problem_spec(spec))
    assert sol.memo_hits == read_golden()[name]["memo_hits"]
    assert sol.search_s >= 0.0 and sol.extract_s >= 0.0
    assert sol.enumerate_s >= 0.0 and sol.value_s >= 0.0
    assert sol.search_s == sol.enumerate_s + sol.value_s


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


SUMMANDS = st.one_of(st.floats(min_value=1e-300, max_value=1e16),
                     st.floats(min_value=-1e16, max_value=-1e-300),
                     st.sampled_from([0.0, -0.0, 1.0, 1e16]))


@st.composite
def segment_sums(draw):
    """Floats and (start, length) pairs into them: empty, overlapping and
    zero-length segments all come up."""
    values = draw(st.lists(SUMMANDS, max_size=20))
    pairs = draw(st.lists(st.integers(0, len(values)).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(0, len(values) - s))), max_size=8))
    return values, pairs


@settings(max_examples=100, deadline=None)
@given(case=segment_sums())
# a pairwise sum gives 1.0000000000000014e16 for segment (0, 16), and a
# cumsum difference 0.0 for (1, 15)
@example(case=([1e16] + [1.0] * 15, [(0, 16), (1, 15)]))
@example(case=([], []))
@example(case=([-0.0, 1e-300], [(0, 0), (0, 1), (0, 2), (1, 0)]))
def test_seq_sums_add_left_to_right(case):
    values, pairs = case
    start, length = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    seg, idx = seq_decomp._segments(start, length)
    got = seq_decomp._seg_sums(seg, np.array(values, dtype=float)[idx], len(start))
    assert got.dtype == np.float64
    assert [x.hex() for x in got.tolist()] == [left_sum(values[s:s + n]).hex() for s, n in pairs]


def _labels_from_cuts(n_groups, cuts, n_messages):
    """Terminal partition: cut positions -> symbol per group, symbol M-1
    below the first cut down to symbol 0 above the last."""
    labels, lo = (), 0
    for z, hi in zip(range(n_messages - 1, -1, -1), (*cuts, n_groups)):
        labels += (z,) * (hi - lo)
        lo = hi
    return labels


def _labels_from_runs(n_groups, pos, n_messages):
    """Stage partition: 2M nondecreasing positions -> symbol/BLANK per group.

    Runs alternate blank, symbol M-1, blank, symbol M-2, ..., symbol 0,
    blank; pos[2i] opens symbol M-1-i's run and pos[2i+1] closes it.
    """
    edges = (*pos, n_groups)
    labels = (decseq.BLANK,) * edges[0]
    for i in range(n_messages):
        labels += ((n_messages - 1 - i,) * (edges[2 * i + 1] - edges[2 * i])
                   + (decseq.BLANK,) * (edges[2 * i + 2] - edges[2 * i + 1]))
    return labels


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


def reference_cost(solver, remaining):
    """``wald_cost`` at ``remaining`` observations left, one belief at a time
    through the scalar knot reader: belief -> cost, ProblemSpecError outside
    [0, 1]."""
    read = knot_reader(solver.wald, remaining)

    def cost(belief):
        if not 0.0 <= belief <= 1.0:
            raise decseq.ProblemSpecError("belief", f"{belief} outside [0, 1]")
        return read(belief)
    return cost


def reference_send_flow(solver, t, region, msg_lik):
    """Expected stopping cost of a P2 message branch, unnormalized, by one
    scalar read per posterior."""
    rows = solver.pb.channel2.row_pair(t)
    mz0, mz1 = msg_lik
    cost = reference_cost(solver, solver.pb.t2 - t)
    flow = 0.0
    for b1, b2, m0, m1 in region:
        if b2 < 0.0:
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
            flow += w * cost(num / den)
    return flow


def reference_send(solver, t, state):
    """send(lo, hi) over a state's belief1 groups, priced per posterior."""
    if solver.variant == "P1":
        cost = reference_cost(solver, solver.pb.t2)
        pre0 = [0.0]
        pre1 = [0.0]
        for _, m0, m1 in state:
            pre0.append(pre0[-1] + m0)
            pre1.append(pre1[-1] + m1)

        def send(lo, hi):
            rm0 = pre0[hi] - pre0[lo]
            rm1 = pre1[hi] - pre1[lo]
            mass = rm0 + rm1
            return 0.0 if mass <= 0.0 else mass * cost(rm0 / mass)
        return len(state), send
    atoms = sorted(state)
    groups = _cluster_positions([a[0] for a in atoms])
    tot0 = left_sum(m0 for *_, m0, _ in atoms)
    tot1 = left_sum(m1 for *_, _, m1 in atoms)

    def send(lo, hi):
        sel = atoms[groups[lo][0]:groups[hi - 1][1]]
        r0 = left_sum(m0 for *_, m0, _ in sel)
        r1 = left_sum(m1 for *_, _, m1 in sel)
        lik = (r0 / tot0 if tot0 > 0.0 else 0.0, r1 / tot1 if tot1 > 0.0 else 0.0)
        return reference_send_flow(solver, t, sel, lik) if r0 + r1 > 0.0 else 0.0
    return len(groups), send


def outcome(fn, *args):
    try:
        return fn(*args)
    except decseq.DecseqError as exc:
        return type(exc)


def check_partition_table(n, m, terminal):
    """``_partition_table(n, m, terminal)`` against the per-node enumeration:
    its entries; its runs and blank sets as the entries' distinct ones in
    first-use order; each entry's slots, padded with r past its last run."""
    want = reference_partitions(n, m, terminal)
    assert table_entries(n, m, terminal) == want
    _, runs, slots, blanks, blank_of = seq_decomp._partition_table(n, m, terminal)
    ids = {r: i for i, r in enumerate(dict.fromkeys(r for _, rs, _ in want for r in rs))}
    assert runs.tolist() == [list(r) for r in ids]
    assert slots.tolist() == [[ids[r] for r in rs] + [len(ids)] * (m - len(rs))
                              for _, rs, _ in want]
    if not terminal:
        assert list(blanks) == list(dict.fromkeys(b for *_, b in want))
    assert not any(a.flags.writeable for a in (runs, slots, blank_of))


@pytest.mark.parametrize("terminal", [True, False])
@pytest.mark.parametrize("m", [2, 3])
def test_partition_table_matches_per_node_enumeration(m, terminal):
    for n in range(9):
        check_partition_table(n, m, terminal)


@settings(max_examples=40, deadline=None)
@given(spec=tiny_specs(max_t=3))
def test_run_pricer_and_partition_tables_match_references(spec):
    # at every memo state, every message run prices exactly as the
    # per-posterior scalar loop, or fails with the error that loop meets
    # first, and every partition table the solve reads equals the per-node
    # enumeration
    prob = decseq.load_problem_spec(spec)
    solver = (_P1Solver if prob.variant == "P1" else _P2Solver)(prob)
    pricer = solver._pricer
    states = []
    table = seq_decomp._partition_table
    used = set()

    def recording_table(n, m, terminal):
        used.add((n, terminal))
        return table(n, m, terminal)

    def checked_pricer(t, rows, starts, off):
        price = pricer(t, rows, starts, off)

        def checked(ks, at, lo, hi):
            # every run of groups lo..hi-1 of each node, not only the table's
            want, every = [], []
            for j, k in enumerate(ks.tolist()):
                state = tuple(map(tuple, rows[off[k]:off[k + 1]].tolist()))
                n, send_ref = reference_send(solver, t, state)
                assert int(starts[off[k]:off[k + 1]].sum()) == n
                # the solve's runs are runs of the node's groups
                assert max(hi[at == j].tolist(), default=n) <= n
                pairs = [(a, b) for a in range(n) for b in range(a + 1, n + 1)]
                want += [outcome(send_ref, a, b) for a, b in pairs]
                every += [(j, a, b) for a, b in pairs]
            try:
                got = price(ks, *(np.array(x, dtype=np.intp) for x in zip(*every)))
            except decseq.DecseqError as exc:
                # the batch raises the error of its first failing run
                errors = [c for c in want if isinstance(c, type)]
                assert errors and type(exc) is errors[0]
                raise
            assert got.tolist() == want
            states.extend([t] * len(ks))
            return price(ks, at, lo, hi)
        return checked

    solver._pricer = checked_pricer
    seq_decomp._partition_table = recording_table
    try:
        sol = solver.solve()
        assert len(states) == sol.nodes and used
    except decseq.DecseqError:
        # a pricing error was compared where it arose
        pass
    finally:
        seq_decomp._partition_table = table
    for n, terminal in used:
        check_partition_table(n, prob.n_messages, terminal)


# ---------------------------------------------------------------------------
# per-stage search statistics and the node cap


@pytest.mark.parametrize("variant, horizon", [("P1", 6), ("P2", 4)])
def test_stage_stats_add_up_to_search_counts(variant, horizon):
    prob = decseq.load_problem_spec(make_spec(variant=variant, t1=horizon, t2=horizon))
    solver = (_P1Solver if variant == "P1" else _P2Solver)(prob)
    value_nodes = solver._value_nodes
    atoms = {}

    def counting(t, rows, starts, counts, blanks=None):
        atoms.setdefault(t, []).extend(counts.tolist())
        return value_nodes(t, rows, starts, counts, blanks)

    solver._value_nodes = counting
    sol = solver.solve()
    stats = sol.stage_stats
    assert [s["t"] for s in stats] == list(range(1, horizon + 1))
    assert sum(s["nodes"] for s in stats) == sol.nodes
    assert sum(s["memo_hits"] for s in stats) == sol.memo_hits
    for s in stats:
        seen = atoms.get(s["t"], [])
        assert s["lookups"] == s["nodes"] + s["memo_hits"]
        assert s["nodes"] == len(seen)
        assert s["mean_atoms"] == pytest.approx(sum(seen) / len(seen) if seen else 0.0)
    if variant == "P2":
        # almost all memo traffic is at the last stage
        assert (stats[-1]["nodes"], stats[-1]["lookups"]) == (1868, 3917)


def test_designer_node_cap(monkeypatch, sym02_p1, sym02_p2):
    full = solve_p2(sym02_p2).nodes
    monkeypatch.setattr(seq_decomp, "DESIGNER_NODE_CAP", full)
    assert solve_p2(sym02_p2).nodes == full
    monkeypatch.setattr(seq_decomp, "DESIGNER_NODE_CAP", full - 1)
    with pytest.raises(CapacityError, match="designer search nodes") as exc:
        solve_p2(sym02_p2)
    assert (exc.value.count, exc.value.cap) == (full, full - 1)
    monkeypatch.setattr(seq_decomp, "DESIGNER_NODE_CAP", 1)
    with pytest.raises(CapacityError):
        solve_p1(sym02_p1)


# ---------------------------------------------------------------------------
# exact integer memo keys against the rounded-float keys they replaced


def reference_canon(variant, state):
    """The memo key of a state as round-tuples: each atom's coordinates
    rounded to ROUND_DIGITS places, atoms sorted."""
    r = seq_decomp.ROUND_DIGITS
    if variant == "P1":
        return tuple(sorted((round(b, r), round(m0, r), round(m1, r)) for b, m0, m1 in state))
    return tuple(sorted((round(b1, r), round(b2, r), round(m0, r), round(m1, r))
                        for b1, b2, m0, m1 in state))


def near_ulps(x, steps):
    """The double ``steps`` ulps away from x."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def near_half(k, steps):
    """The double ``steps`` ulps away from (k + 0.5) / 1e10, whose product
    with 1e10 sits next to a half-integer."""
    return near_ulps((k + 0.5) / 1e10, steps)


KEY_RANGE = st.floats(-1.7, 1.7, exclude_min=True, exclude_max=True)
NEAR_HALF = st.builds(near_half, st.integers(-17 * 10**9, 17 * 10**9 - 1),
                      st.integers(-3, 3)).filter(lambda x: abs(x) < 1.7)


@settings(max_examples=400, deadline=None)
@given(x=st.one_of(KEY_RANGE, NEAR_HALF), data=st.data())
def test_key_ints_are_exact_rounding(x, data):
    # k is round(x, 10) scaled to an integer, and two floats share a k
    # exactly when they share round(x, 10)
    y = data.draw(st.one_of(KEY_RANGE, NEAR_HALF,
                            st.integers(-4, 4).map(lambda n: near_ulps(x, n))
                            .filter(lambda y: abs(y) < 1.7)))
    kx, ky = _key_ints([x, y]).tolist()
    assert kx == round(Fraction(x) * 10**10)
    assert int(kx) / 10**10 == round(x, 10)
    assert (kx == ky) == (round(x, 10) == round(y, 10))


def test_key_ints_fraction_branch_runs(monkeypatch):
    calls = []
    exact_round = seq_decomp._exact_round

    def spy(x):
        calls.append(x)
        return exact_round(x)

    monkeypatch.setattr(seq_decomp, "_exact_round", spy)
    half = 1 / 2048  # times 1e10 this is 4882812.5 exactly
    xs = [half, math.nextafter(half, 1.0), math.nextafter(half, 0.0), 0.25, near_half(7, 1)]
    assert _key_ints(xs).tolist() == [round(Fraction(x) * 10**10) for x in xs]
    assert calls == [xs[0], xs[1], xs[2], xs[4]]


@pytest.mark.parametrize("bad", [1.7, -1.7, 2.0, math.inf, math.nan])
def test_key_ints_reject_values_outside_the_key_range(bad):
    with pytest.raises(decseq.ProblemSpecError):
        _key_ints([0.5, bad])


# coordinates on a coarse lattice, next to rounding boundaries, or anywhere
COORD = st.one_of(st.integers(0, 16).map(lambda i: i / 16),
                  st.builds(near_half, st.integers(0, 10**10 - 1), st.integers(-3, 3)),
                  st.floats(0.0, 1.0))


@st.composite
def state_pairs(draw, variant):
    """A random state and a copy with a few coordinates moved by a few ulps
    or by 1e-11 (a declared belief2 of -1.0 stays as it is)."""
    atoms = []
    for _ in range(draw(st.integers(1, 6))):
        if variant == "P1":
            atoms.append([draw(COORD), draw(COORD), draw(COORD)])
        else:
            b2 = draw(COORD) if draw(st.booleans()) else -1.0
            atoms.append([draw(COORD), b2, draw(COORD), draw(COORD)])
    moved = [list(a) for a in atoms]
    for _ in range(draw(st.integers(0, 3))):
        a = moved[draw(st.integers(0, len(moved) - 1))]
        c = draw(st.integers(0, len(a) - 1))
        if variant == "P2" and c == 1 and a[1] == -1.0:
            continue
        if draw(st.booleans()):
            a[c] = near_ulps(a[c], draw(st.integers(-3, 3)))
        else:
            a[c] += draw(st.sampled_from([1e-11, -1e-11]))
    shuffled = draw(st.permutations(moved))
    return tuple(map(tuple, atoms)), tuple(map(tuple, shuffled))


def state_key(solver, state):
    return seq_decomp._state_keys(np.array(state, dtype=float), np.array([len(state)]))[0]


@pytest.fixture(scope="module")
def key_solvers(sym02_p1, sym02_p2):
    return ("P1", _P1Solver(sym02_p1)), ("P2", _P2Solver(sym02_p2))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_state_keys_match_rounded_reference(data, key_solvers):
    for variant, solver in key_solvers:
        state, moved = data.draw(state_pairs(variant))
        same = state_key(solver, state) == state_key(solver, moved)
        assert same == (reference_canon(variant, state) == reference_canon(variant, moved))


# ---------------------------------------------------------------------------
# the level-synchronous search against the depth-first recursion it replaced


def search_record(sol):
    return (sol.total.hex(), sol.nodes, sol.partitions_tried, sol.memo_hits,
            sol.stage_stats, json.dumps(pair_to_dict(sol.o1, sol.o2), sort_keys=True))


def designer_outcome(solve, prob):
    try:
        return search_record(solve(prob))
    except decseq.DecseqError as exc:
        return type(exc)


def spec_with(ch1, ch2, **kw):
    spec = make_spec(**kw)
    spec["channels"][0]["tables"] = ch1
    spec["channels"][1]["tables"] = ch2
    return spec


TERNARY = [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]
BINARY = [[0.8, 0.2], [0.25, 0.75]]


def small_search(spec):
    # P2 with M = 3 at T1 = 3 reaches 10,000 nodes, seconds for the reference
    return not (spec["variant"] == "P2" and spec["M"] == 3 and spec["horizons"]["T1"] == 3)


@settings(max_examples=60, deadline=None)
@given(spec=tiny_specs(max_t=3).filter(small_search))
@example(spec=spec_with([TERNARY], [BINARY], t1=3, t2=3, m=3, c1=0.02, c2=0.02))
@example(spec=spec_with([TERNARY, [[0.4, 0.4, 0.2], [0.1, 0.3, 0.6]]], [BINARY], t1=2, t2=3,
                        variant="P2", m=3))
@example(spec=spec_with([BINARY, [[0.6, 0.4], [0.1, 0.9]]], [TERNARY], t1=2, t2=3,
                        variant="P2", c1=0.03, c2=0.01))
@example(spec=spec_with([BINARY, BINARY, [[0.9, 0.1], [0.3, 0.7]]], [BINARY], t1=3, t2=2))
def test_search_matches_depth_first_reference(spec):
    # random tiny instances (M = 2 or 3, binary or ternary alphabets,
    # stationary or time-varying channels, T2 >= T1 and, in P1, T2 < T1):
    # the same total to the bit, search counts, per-stage figures and policies
    prob = decseq.load_problem_spec(spec)
    solve = solve_p1 if prob.variant == "P1" else solve_p2
    assert designer_outcome(solve, prob) == designer_outcome(
        designer_reference.reference_solve, prob)


COORD_ANY = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.25, 1.5]),
                      st.floats(-0.5, 1.5))


@st.composite
def terminal_nodes(draw):
    """A tiny problem and one last-stage state of its variant, consistent
    or not: beliefs and masses may vanish or leave [0, 1], so pricing a
    run can raise ImpossibleUpdateError or ProblemSpecError."""
    prob = decseq.load_problem_spec(draw(tiny_specs(max_t=3)))
    atoms = []
    for _ in range(draw(st.integers(1, 5))):
        if prob.variant == "P1":
            atoms.append((draw(COORD_ANY), draw(COORD_ANY), draw(COORD_ANY)))
        else:
            # a negative belief2 marks a declared atom
            b2 = abs(draw(COORD_ANY)) if draw(st.booleans()) else -1.0
            atoms.append((draw(COORD_ANY), b2, draw(COORD_ANY), draw(COORD_ANY)))
    return prob, tuple(atoms)


@settings(max_examples=300, deadline=None)
@given(node=terminal_nodes())
def test_batch_node_value_matches_scalar_recursion(node):
    # one last-stage node valued by the numpy batch and by the scalar
    # recursion: the same value and argmin, or the same error first
    prob, state = node
    new = (_P1Solver if prob.variant == "P1" else _P2Solver)(prob)
    ref = (designer_reference._P1Solver if prob.variant == "P1"
           else designer_reference._P2Solver)(prob)
    try:
        value = ref.value(prob.t1, state, None)
        want = (value, ref.memo[prob.t1][None][1][0])
    except decseq.DecseqError as exc:
        want = type(exc)
    got = outcome(value_terminal, new, state)
    assert got == want


@pytest.fixture(scope="module")
def last_stage_nodes():
    """Per variant, sym02 at T1 = T2 = 3 and the atom rows of every node
    its search values at the last stage."""
    out = {}
    for variant in ("P1", "P2"):
        prob = decseq.load_problem_spec(make_spec(variant=variant, t1=3, t2=3))
        solver, nodes = (_P1Solver if variant == "P1" else _P2Solver)(prob), []
        value_nodes = solver._value_nodes

        def recording(t, rows, starts, counts, blanks=None, value_nodes=value_nodes, nodes=nodes):
            if blanks is None:
                nodes.extend(np.split(rows, np.cumsum(counts)[:-1]))
            return value_nodes(t, rows, starts, counts, blanks)

        solver._value_nodes = recording
        solver.solve()
        out[variant] = prob, nodes
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mixed_batch_values_match_single_nodes(data, last_stage_nodes):
    # 2-6 last-stage nodes of different group counts valued in one batch
    # (pieces of several counts sharing pricing calls, or one run per call)
    # get the value, to the bit, and the first cheapest partition that
    # valuing each alone gives
    prob, nodes = last_stage_nodes[data.draw(st.sampled_from(["P1", "P2"]))]
    picks = data.draw(st.lists(st.integers(0, len(nodes) - 1), min_size=2, max_size=6))
    solver = (_P1Solver if prob.variant == "P1" else _P2Solver)(prob)
    priced = seq_decomp._PRICED

    def value(states):
        counts = np.array([len(s) for s in states])
        rows, starts = solver._groups(np.concatenate(states), counts)
        return solver._value_nodes(prob.t1, rows, starts, counts)

    seq_decomp._PRICED = data.draw(st.sampled_from([1, 64, priced]))
    try:
        values, best, ns = value([nodes[i] for i in picks])
        assume(len(set(ns.tolist())) > 1)
        alone = [value([nodes[i]]) for i in picks]
    finally:
        seq_decomp._PRICED = priced
    assert [(v.hex(), b, n) for v, b, n in zip(values.tolist(), best.tolist(), ns.tolist())] == \
        [(v[0].hex(), b[0], n[0]) for v, b, n in ((x.tolist() for x in a) for a in alone)]


# ---------------------------------------------------------------------------
# the numpy stage builders against the scalar child builders they replaced


def reference_children(solver, t, state):
    """One stage-t node's children by the scalar builders, in lookup order:
    per blank set its number of lookups (P1: 0 or 1, P2: continue runs) and
    per lookup its normalized atoms and blank mass, and in P2 observer 2's
    charges; as lists of floats."""
    pb = solver.pb
    rows1 = pb.channel1.row_pair(t + 1)
    looks, kids, masses, charges = [], [], [], []
    if pb.variant == "P1":
        child = designer_reference._p1_children(state, rows1)
        for blank in seq_decomp._partition_table(len(state), pb.n_messages, False)[3]:
            got = child(blank)
            looks.append(0 if got is None else 1)
            masses.append(0.0 if got is None else got[1])
            kids += [] if got is None else [got[0]]
        return looks, kids, masses, charges
    atoms = sorted(state)
    groups = _cluster_positions([a[0] for a in atoms])
    region = designer_reference._regions(atoms, groups)
    loss, c2 = pb.costs.loss, pb.costs.c2
    for blank in seq_decomp._partition_table(len(groups), pb.n_messages, False)[3]:
        sel, mass_b, lik = region(blank)
        if mass_b <= 0.0:
            looks.append(0)
            continue
        phi = designer_reference._observe_p2(sel, lik, pb.channel2.row_pair(t))
        active, g2 = designer_reference._receiver_groups(phi)
        child = designer_reference._p2_children(phi, active, rows1)
        spans = [(0, 0)] + [(g2[i][0], g2[j - 1][1])
                            for i, j in itertools.combinations(range(len(g2) + 1), 2)]
        looks.append(len(spans))
        pd1, pd0, pcm = [0.0], [0.0], [0.0]
        for _, (_, _, m0, m1) in active:
            pd1.append(pd1[-1] + m0 * loss[1][0] + m1 * loss[1][1])
            pd0.append(pd0[-1] + m0 * loss[0][0] + m1 * loss[0][1])
            pcm.append(pcm[-1] + m0 + m1)
        charges.append(designer_reference.empty_run_charge(pd1, pd0, g2))
        for alo, ahi in spans:
            kids.append([(b1, b2, m0 / mass_b, m1 / mass_b) for b1, b2, m0, m1 in child(alo, ahi)])
            masses.append(mass_b)
        charges += [(pd1[alo] - pd1[0]) + (pd0[len(active)] - pd0[ahi])
                    + c2 * (pcm[ahi] - pcm[alo]) for alo, ahi in spans[1:]]
    return looks, kids, masses, charges


def batch_children(solver, t, states):
    """The same for several nodes at once, by ``_build``."""
    rows, starts = solver._groups(np.array([a for s in states for a in s], dtype=float),
                                  np.array([len(s) for s in states]))
    batches = []
    rec = solver._build(t, rows, starts, np.array([len(s) for s in states]),
                        lambda *kid: batches.append(kid))
    rows, counts = (np.concatenate(x) for x in zip(*batches))
    kids = np.split(rows, np.cumsum(counts)[:-1]) if len(counts) else []
    if solver.variant == "P1":
        return (rec.mass != 0.0).astype(int).tolist(), kids, rec.mass.tolist(), []
    return (rec.runs.tolist(), kids, np.repeat(rec.mass, rec.runs).tolist(),
            rec.charges.tolist())


def float_bits(xs):
    return np.array(xs, dtype=float).tobytes()


def builder_outcome(build, *args):
    try:
        looks, kids, masses, charges = build(*args)
    except decseq.DecseqError as exc:
        return type(exc), str(exc)
    return (looks, [float_bits(k) for k in kids], [len(k) for k in kids],
            float_bits(masses), float_bits(charges))


# posteriors equal beliefs through this channel (b * 1 / (b + (1 - b)) is b)
SAME = [[1.0, 0.0], [1.0, 0.0]]
COORD_NODE = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-12]), st.floats(0.0, 1.0))
MASS = st.one_of(st.sampled_from([0.0, 0.125, 0.5]), st.floats(0.0, 1.0))


@st.composite
def stage_nodes(draw):
    """A small problem (T1 = 2 or 3, channels with zeros or the identity
    SAME) and one to three nodes of a stage t < T1, atoms drawn freely:
    repeated and near-repeated beliefs, declared atoms, zero masses."""
    spec = draw(tiny_specs(max_t=3).filter(lambda s: s["horizons"]["T1"] >= 2))
    for c in (0, 1):
        if draw(st.booleans()):
            spec["channels"][c]["tables"] = [SAME]
    prob = decseq.load_problem_spec(spec)
    nodes = []
    for _ in range(draw(st.integers(1, 3))):
        atoms = []
        for _ in range(draw(st.integers(1, 4 if prob.n_messages == 2 else 3))):
            b1 = draw(st.sampled_from([a[0] for a in atoms]) if atoms and draw(st.booleans())
                      else COORD_NODE)
            b2 = [] if prob.variant == "P1" else [
                -1.0 if draw(st.booleans()) else draw(COORD_NODE)]
            atoms.append((b1, *b2, draw(MASS), draw(MASS)))
        nodes.append(tuple(atoms))
    return prob, draw(st.integers(1, prob.t1 - 1)), nodes, draw(st.booleans())


def node_spec(variant, ch1, ch2, m=2):
    return decseq.load_problem_spec(spec_with([ch1], [ch2], t1=2, t2=2, variant=variant, m=m))


TOL = 1e-12
# MERGE_TOL, an ulp either side, inside the sure-split margin (belief1) and
# about twice MERGE_TOL (belief2's sure split)
GAPS = [TOL, math.nextafter(TOL, 0.0), math.nextafter(TOL, 1.0), TOL + 5e-14, 2 * TOL,
        2 * TOL + 1e-13]


@settings(max_examples=80, deadline=None)
@given(node=stage_nodes())
# two atoms GAPS apart in belief1 (P1, P2) or in belief2 (P2)
@example(node=(node_spec("P1", SAME, BINARY), 1, [((0.0, 0.25, 0.125), (g, 0.5, 0.125))
                                                  for g in GAPS], False))
@example(node=(node_spec("P2", SAME, SAME), 1, [((0.0, -1.0, 0.25, 0.125), (g, -1.0, 0.5, 0.125))
                                                for g in GAPS], True))
@example(node=(node_spec("P2", SAME, SAME), 1, [((0.5, 0.0, 0.25, 0.125), (0.5, g, 0.5, 0.125))
                                                for g in GAPS], False))
# equal belief1, different belief2; declared next to sampling at belief2 = 0
@example(node=(node_spec("P2", BINARY, BINARY), 1,
               [((0.4, 0.2, 0.1, 0.2), (0.4, 0.7, 0.3, 0.1), (0.4, -1.0, 0.2, 0.1),
                 (0.4, 0.0, 0.05, 0.05))], False))
# three pushes of one posterior in a child, out of mass order: sorted by
# m0 (first node) and by m1 at equal m0 (second), their merged sums round
# differently from sums in atom order
@example(node=(node_spec("P1", SAME, BINARY), 1,
               [((0.5, 0.3, 0.3), (0.5, 0.1, 0.1), (0.5, 0.2, 0.2)),
                ((0.5, 0.1, 0.1), (0.5, 0.1, 0.7), (0.5, 0.1, 0.3))], False))
# zero-mass atoms, and a node of no mass at all
@example(node=(node_spec("P1", TERNARY, BINARY, m=3), 1,
               [((0.2, 0.0, 0.0), (0.6, 0.5, 0.5)), ((0.3, 0.0, 0.0),)], True))
@example(node=(node_spec("P2", TERNARY, BINARY), 1,
               [((0.2, 0.5, 0.0, 0.0), (0.6, -1.0, 0.5, 0.5))], False))
# a symbol of probability 0 at the atom's belief (push), and a fresh
# observation that a sampling atom's belief2 cannot absorb (observer 2)
@example(node=(node_spec("P1", [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]], BINARY), 1,
               [((0.5, 0.25, 0.25),), ((1.0, 0.3, 0.2),)], True))
@example(node=(node_spec("P2", [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]], BINARY), 1,
               [((1.0, 0.5, 0.3, 0.2),)], False))
@example(node=(node_spec("P2", BINARY, [[1.0, 0.0], [0.5, 0.5]]), 1,
               [((0.3, 1.0, 0.2, 0.2), (0.6, 0.5, 0.3, 0.3))], False))
def test_stage_builders_match_scalar_children(node):
    # node by node, the scalar builders' children (atoms to the bit, atom
    # counts, blank masses, lookup order and, in P2, observer 2's charges)
    # or the error they raise first, against one _build call on all nodes,
    # in chunks of one node when ``tiny``
    prob, t, nodes, tiny = node
    solver = (_P1Solver if prob.variant == "P1" else _P2Solver)(prob)
    if tiny:
        solver.chunk = 1
    got = builder_outcome(batch_children, solver, t, nodes)
    want = [builder_outcome(reference_children, solver, t, s) for s in nodes]
    errors = [w for w in want if isinstance(w[0], type)]
    if errors:
        assert got == errors[0]
    else:
        assert got == (sum((w[0] for w in want), []), sum((w[1] for w in want), []),
                       sum((w[2] for w in want), []),
                       b"".join(w[3] for w in want), b"".join(w[4] for w in want))


@st.composite
def valuation_specs(draw):
    """Both variants, T1 = T2 <= 3, M = 2 or 3, priors near 0 and 1 and
    channel rows with zeros: searches whose valuations hold several group
    counts, and partitions that tie (at M = 3 a run costs the same under
    either of two symbols)."""
    variant = draw(st.sampled_from(["P1", "P2"]))
    t = draw(st.integers(1, 3))

    def row(k):
        weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
        return [w / sum(weights) for w in weights]

    spec = make_spec(prior=draw(st.sampled_from([1e-9, 0.01, 0.3, 0.5, 0.8, 0.99, 1.0 - 1e-9])),
                     c1=draw(st.integers(1, 15)) / 100, c2=draw(st.integers(1, 15)) / 100,
                     loss=[[0.0, draw(st.integers(5, 20)) / 10],
                           [draw(st.integers(5, 20)) / 10, 0.0]],
                     t1=t, t2=t, variant=variant, m=draw(st.integers(2, 3)))
    k = draw(st.integers(2, 3))
    spec["channels"][0]["tables"] = [[row(k), row(k)]]
    spec["channels"][1]["tables"] = [[row(2), row(2)]]
    return spec


def hexed(got):
    """A valuation's (values, argmin entries, group counts), values by .hex()."""
    values, best, ns = got
    return [x.hex() for x in values.tolist()], best.tolist(), ns.tolist()


@pytest.mark.parametrize("priced", [1, 64, seq_decomp._PRICED])
@settings(max_examples=40, deadline=None)
@given(spec=valuation_specs())
def test_valuation_and_scalar_root_match_the_numpy_references(priced, spec):
    # the scalar-pushed root against the numpy push it replaced, and every
    # valuation of a search (one pricing call per batch, whatever its group
    # counts) against the parent's pieces and calls per group count, bit for
    # bit, with batches of any size
    prob = decseq.load_problem_spec(spec)
    solver = (_P1Solver if prob.variant == "P1" else _P2Solver)(prob)
    want, got = outcome(designer_reference.numpy_root, solver), outcome(solver._root)
    if isinstance(want, type):
        assert got is want
        return
    assert [x.hex() for x in got[0].ravel().tolist()] == \
        [x.hex() for x in want[0].ravel().tolist()]
    assert got[1].tolist() == want[1].tolist()
    value_nodes = solver._value_nodes

    def checked(t, *args):
        copies = [tuple(b.copy() for b in a) if isinstance(a, tuple) else a.copy() for a in args]
        want = outcome(designer_reference.group_count_values, solver, t, *copies)
        got = outcome(value_nodes, t, *args)
        if isinstance(want, type) or isinstance(got, type):
            assert got is want
            return value_nodes(t, *args)  # raises as the reference does
        assert hexed(got) == hexed(want)
        return got

    solver._value_nodes = checked
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seq_decomp, "_PRICED", priced)
        mp.setattr(seq_decomp, "DESIGNER_NODE_CAP", 3000)
        try:
            solver.solve()
        except CapacityError:
            assume(False)
        except decseq.DecseqError:
            pass  # compared where it arose


@pytest.mark.parametrize("variant, horizon", [("P1", 5), ("P2", 3)])
def test_search_is_the_same_in_chunks_of_one(monkeypatch, variant, horizon):
    # every node its own chunk, then also every valuation batch one node:
    # the same search, to the bit, as the default chunks
    prob = decseq.load_problem_spec(make_spec(variant=variant, t1=horizon, t2=horizon))
    want = search_record((solve_p1 if variant == "P1" else solve_p2)(prob))
    solver = (_P1Solver if variant == "P1" else _P2Solver)
    with monkeypatch.context() as mp:
        mp.setattr(solver, "chunk", 1)
        assert search_record(solver(prob).solve()) == want
        mp.setattr(seq_decomp, "_PRICED", 1)
        assert search_record(solver(prob).solve()) == want
    # each build chunk's children one lookup batch, at the default chunks
    # and with every node its own chunk; the last stage values each lookup
    # batch once, the earlier stages are valued once each
    for chunk in (solver.chunk, 1):
        monkeypatch.setattr(solver, "chunk", chunk)
        big, chunks, searched = solver(prob), [], []
        children = big._children
        big._children = lambda t, *args: chunks.append(t) or children(t, *args)

        def search():
            # the build chunks of the search, not of the policy walk after it
            out = solver._search(big)
            searched.extend(chunks)
            return out

        big._search = search
        sol = big.solve()
        assert search_record(sol) == want
        batches = [s["batches"] for s in sol.stage_seconds]
        assert batches == [1, *(searched.count(t) for t in range(1, horizon))]
        assert [s["valuations"] for s in sol.stage_seconds] == [1] * (horizon - 1) + batches[-1:]


def lexsort_columns(draw, n):
    """1-5 float, int64 or bool columns of n rows, with -0.0, 0.0, -1.0,
    1.0, nextafter neighbours, repeated values and negative integers."""
    floats = st.sampled_from([-0.0, 0.0, -1.0, 1.0, 0.5, math.nextafter(0.5, 0.0),
                              math.nextafter(0.5, 1.0), math.nextafter(0.0, 1.0),
                              -math.nextafter(0.0, 1.0), 1e-300, -2.5, math.inf, -math.inf]) | \
        st.floats(allow_nan=False)
    cols = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["f", "i", "b"]))
        if kind == "f":
            cols.append(np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=float))
        elif kind == "i":
            cols.append(np.array(draw(st.lists(st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1),
                                               min_size=n, max_size=n)), dtype=np.int64))
        else:
            cols.append(np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool))
    return cols


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sort_order_is_lexsort(data):
    # the byte-key order of rows, given column by column or as 2-d blocks
    # of like columns, is np.lexsort's permutation (the last key primary)
    n = data.draw(st.integers(0, 40))
    cols = lexsort_columns(data.draw, n)
    # rows repeat: draw some rows as copies of earlier ones
    copies = data.draw(st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=10))
    for i, j in copies:
        if i < n and j < n:
            for c in cols:
                c[i] = c[j]
    want = np.lexsort(cols[::-1]) if n else np.arange(0)
    assert seq_decomp._sort_order(*cols).tolist() == want.tolist()
    blocks, run = [], [cols[0]]
    for c in cols[1:]:
        if c.dtype == run[-1].dtype:
            run.append(c)
        else:
            blocks.append(np.column_stack(run))
            run = [c]
    blocks.append(np.column_stack(run))
    assert seq_decomp._sort_order(*blocks).tolist() == want.tolist()
