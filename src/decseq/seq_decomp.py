"""Exact designer-level solvers for both communication variants.

The designer picks both policies at once.  Conditioned on the public message
history, the joint law of (hypothesis, observer beliefs) is supported on
finitely many atoms; that conditional law is the designer's state.  Both
variants share one sequential decomposition (``_Designer``):

* **search** -- ``value(t, state)`` tries every achievable threshold
  partition of the state's atoms (the optimal policies are interval-shaped
  in the beliefs, so partition search over sorted atoms is exhaustive),
  prices each message run and recurses on the all-blank branch, with
  memoization on a rounded canonical form of the state.  The partitions
  of n atom groups depend only on n, M and whether the stage is the last,
  so each solve builds that table once (``_partition_table``) and every
  node with n groups walks it; a node prices each distinct run and each
  distinct blank set once;
* **extraction** -- ``solve()`` walks the stored argmins along the
  all-blank branch, turns them into threshold rules, and tabulates the
  receiver's stopping rule on every belief it can reach.

Each variant supplies its state shape and two hooks: ``_stage(t, state)``
gives the number of atom groups, the stopping cost of a run of groups that
sends one message, and the cost of the blank branch; ``_advance`` turns one
stored argmin into that stage's rule and the next state.  Runs are priced
through ``WaldSolution.reader``, one knot-table reader per remaining
observation count, fetched once per node.  In variant P2 ``_run_pricer``
first lists each sampling atom's terms (weight and the two likelihood
products of each fresh observation), so a run costs one Bayes update and
one read per term.

``DesignerSolution`` reports the search size (``nodes``,
``partitions_tried``, ``memo_hits``) and the seconds spent in the search and
in extraction (``search_s``, ``extract_s``).

States are plain tuples so tests can build them directly:

* variant P1: ((belief1, m0, m1), ...) where m_h = P(belief1 = atom, H = h |
  blanks so far); the entries of one state sum to 1 over atoms and both h.
  The blank branch advances it with q2_p1.
* variant P2: ((belief1, belief2, d, m0, m1), ...) with d = 1 while
  observer 2 is still sampling, d = 0 once it has declared (the push that
  declares an atom sets its belief2 to -1.0, so declared atoms merge on
  belief1 alone).  The blank branch also chooses observer 2's continue
  interval for the stage.

Totals reported include the sunk first observations: c1 for observer 1 (and
c2 for observer 2 in the interleaved variant), so the value is the full
expected cost of the objective, directly comparable with exact_cost and the
brute-force oracles.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .belief import MERGE_TOL, push_atoms, receiver_atoms
from .errors import ImpossibleUpdateError, ProblemSpecError
from .policies import (BLANK, O1Policy, O2Policy, StageRule, TerminalRule,
                       build_message_model, extract_thresholds)
from .wald import solve_wald_finite

ROUND_DIGITS = 10


# ---------------------------------------------------------------------------
# variant P1 state transformations


def q2_p1(state, channel_rows):
    """Advance a P1 state one step: observer 1 takes one more observation."""
    return tuple(push_atoms(state, channel_rows))


# ---------------------------------------------------------------------------
# variant P2 state transformations


def _merge_p2(entries):
    """Sort and merge 5-tuples whose coordinates agree within MERGE_TOL.

    Only neighbours in sort order are compared: two close atoms with a
    third sorting between them stay apart.  The sym02 anchor search counts
    rest on this.
    """
    entries = sorted(entries)
    out = []
    for e in entries:
        b1, b2, d, m0, m1 = e
        if out:
            p1, p2, pd, q0, q1 = out[-1]
            if pd == d and abs(b1 - p1) <= MERGE_TOL and abs(b2 - p2) <= MERGE_TOL:
                tot_old = q0 + q1
                tot_new = m0 + m1
                if tot_old + tot_new > 0.0:
                    b1 = (p1 * tot_old + b1 * tot_new) / (tot_old + tot_new)
                    b2 = (p2 * tot_old + b2 * tot_new) / (tot_old + tot_new)
                out[-1] = (b1, b2, pd, q0 + m0, q1 + m1)
                continue
        out.append(e)
    return out


def _observe_p2(kept, msg_lik, channel_rows):
    """Observer 2's step within a message branch: belief2 absorbs the
    message likelihood and one fresh observation; stopped atoms pass
    through unchanged.  Masses stay unnormalized."""
    row0, row1 = channel_rows
    mz0, mz1 = msg_lik
    raw = []
    for b1, b2, d, m0, m1 in kept:
        if d == 0:
            raw.append((b1, -1.0, 0, m0, m1))
            continue
        for y in range(len(row0)):
            w0 = m0 * row0[y]
            w1 = m1 * row1[y]
            if w0 == 0.0 and w1 == 0.0:
                continue
            num = b2 * row0[y] * mz0
            den = num + (1.0 - b2) * row1[y] * mz1
            if den <= 0.0:
                raise ImpossibleUpdateError(
                    f"belief2={b2} cannot absorb (y2={y}, msg_lik={msg_lik}); "
                    "state is inconsistent with its own message law")
            raw.append((b1, num / den, 1, w0, w1))
    return _merge_p2(raw)


def _stop_labels_from_rule(atoms, o2_rule):
    a, b = o2_rule
    labels = []
    for _, b2, d, _, _ in atoms:
        if d == 0:
            labels.append(None)
        elif b2 >= b:
            labels.append(0)
        elif b2 <= a:
            labels.append(1)
        else:
            labels.append(None)
    return labels


def _apply_stop_and_push(atoms, stop_labels, channel1_rows):
    """Flip d for stopping atoms, then advance belief1 for every atom."""
    row0, row1 = channel1_rows
    raw = []
    for (b1, b2, d, m0, m1), lab in zip(atoms, stop_labels):
        nd = 0 if (d == 1 and lab is not None) else d
        nb2 = b2 if nd == 1 else -1.0
        for y in range(len(row0)):
            w0 = m0 * row0[y]
            w1 = m1 * row1[y]
            if w0 == 0.0 and w1 == 0.0:
                continue
            den = b1 * row0[y] + (1.0 - b1) * row1[y]
            raw.append((b1 * row0[y] / den, nb2, nd, w0, w1))
    return _merge_p2(raw)


# ---------------------------------------------------------------------------
# shared solver plumbing


def _cluster_positions(values):
    """Group boundaries over sorted values: [(start, end), ...] slices."""
    groups = []
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > MERGE_TOL:
            groups.append((start, i))
            start = i
    if values:
        groups.append((start, len(values)))
    return groups


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
    labels = (BLANK,) * edges[0]
    for i in range(n_messages):
        labels += ((n_messages - 1 - i,) * (edges[2 * i + 1] - edges[2 * i])
                   + (BLANK,) * (edges[2 * i + 2] - edges[2 * i + 1]))
    return labels


def _partition_table(n_groups, n_messages, terminal):
    """Every distinct threshold partition of n_groups sorted atom groups.

    Entries are (labels, symbol runs, blank groups) in the order the cut
    (terminal) or run (stage) positions first produce each labelling.  A
    symbol run is a (lo, hi) slice of groups sending that symbol; empty runs
    cost nothing and are left out.  Blank groups is None at the terminal
    stage, where every group sends.
    """
    combos = itertools.combinations_with_replacement
    m = n_messages
    # each candidate: (labels, edges); symbol runs span edges[a]..edges[b]
    if terminal:
        cands = ((_labels_from_cuts(n_groups, cuts, m), (0, *cuts, n_groups))
                 for cuts in combos(range(n_groups + 1), m - 1))
        spans = [(i, i + 1) for i in range(m)]
    else:
        cands = ((_labels_from_runs(n_groups, pos, m), pos)
                 for pos in combos(range(n_groups + 1), 2 * m))
        spans = [(2 * i, 2 * i + 1) for i in range(m)]
    table = {}
    for labels, edges in cands:
        if labels not in table:
            runs = tuple((edges[a], edges[b]) for a, b in spans if edges[a] < edges[b])
            blank = None if terminal else tuple(
                g for g, lab in enumerate(labels) if lab == BLANK)
            table[labels] = (labels, runs, blank)
    return list(table.values())


def _filler_stage(n_messages, boundary):
    send = [None] * n_messages
    send[n_messages - 1] = (0.0, boundary)
    send[0] = (boundary, 1.0)
    return StageRule(send=tuple(send))


@dataclass
class DesignerSolution:
    """Output of solve_p1 / solve_p2."""

    problem: object
    total: float
    o1: O1Policy
    o2: O2Policy
    wald: object
    nodes: int
    partitions_tried: int
    memo_hits: int
    search_s: float
    extract_s: float

    @property
    def variant(self):
        return self.problem.variant


class _Designer:
    """Memoized partition search and policy walk shared by both variants.

    Subclasses set ``variant`` and provide ``initial_state``, ``_canon``,
    ``_stage`` and ``_advance`` (see the module docstring).
    """

    variant = None

    def __init__(self, problem):
        if problem.variant != self.variant:
            raise ProblemSpecError(
                "variant", f"solve_{self.variant.lower()} got a {problem.variant} problem")
        self.pb = problem
        self.memo = {}
        self.memo_hits = 0
        self.partitions = 0
        self.partition_tables = {}
        # values only; the policy's own stopping table is rebuilt later on
        # the reachable atoms
        self.wald = solve_wald_finite(problem.channel2, problem.costs, problem.t2,
                                      eval_points=(problem.prior,))

    def value(self, t, state):
        """Optimal expected cost from stage t on, given the state."""
        key = (t, self._canon(state))
        hit = self.memo.get(key)
        if hit is not None:
            self.memo_hits += 1
            return hit[0]
        n, send, blank = self._stage(t, state)
        terminal = t == self.pb.t1
        table = self.partition_tables.get((n, terminal))
        if table is None:
            table = self.partition_tables[n, terminal] = _partition_table(
                n, self.pb.n_messages, terminal)
        self.partitions += len(table)
        flows = {}
        blanks = {}
        best = None
        best_dec = None
        for labels, runs, blank_groups in table:
            cost = 0.0
            for run in runs:
                got = flows.get(run)
                if got is None:
                    got = flows[run] = send(*run)
                cost += got
            choice = None
            if not terminal:
                got = blanks.get(blank_groups)
                if got is None:
                    got = blanks[blank_groups] = blank(blank_groups)
                cost += got[0]
                choice = got[1]
            if best is None or cost < best:
                best, best_dec = cost, (labels, choice)
        self.memo[key] = (best, best_dec)
        return best

    def solve(self):
        """Optimal pair, by the search and a walk of its stored argmins."""
        pb = self.pb
        m = pb.n_messages
        boundary = pb.costs.declare_boundary
        interleaved = self.variant == "P2"
        start = time.perf_counter()
        state = self.initial_state()
        inner = self.value(1, state)
        searched = time.perf_counter()
        total = (pb.costs.c1 + pb.costs.c2 if interleaved else pb.costs.c1) + inner

        stages = []
        blank_rules = []
        # (receiver observation count, receiver belief) on message branches;
        # the interleaved receiver's prior joins as is, not propagated
        seeds = [(pb.t2, pb.prior)] if interleaved else []
        for t in range(1, pb.t1 + 1):
            rule = blank_rule = None
            if state is not None:
                _, (labels, choice) = self.memo[(t, self._canon(state))]
                rule, state, blank_rule = self._advance(t, state, labels, choice, seeds)
            # once the all-blank branch dies, later rules are never used
            if t == pb.t1:
                terminal = rule if rule is not None else \
                    TerminalRule(cuts=(boundary,) * (m - 1))
            else:
                stages.append(rule if rule is not None else _filler_stage(m, boundary))
                blank_rules.append(blank_rule if blank_rule is not None
                                   else (boundary, boundary))

        table = solve_wald_finite(pb.channel2, pb.costs, pb.t2,
                                  eval_points=receiver_atoms(pb.channel2, pb.t2, seeds))
        o1 = O1Policy(stages=tuple(stages), terminal=terminal, n_messages=m)
        o2 = O2Policy(blank_rules=tuple(blank_rules) if interleaved else (),
                      wald_rules=table.thresholds,
                      message_model=build_message_model(o1, pb), n_messages=m)
        return DesignerSolution(problem=pb, total=total, o1=o1, o2=o2, wald=table,
                                nodes=len(self.memo), partitions_tried=self.partitions,
                                memo_hits=self.memo_hits, search_s=searched - start,
                                extract_s=time.perf_counter() - searched)


# ---------------------------------------------------------------------------
# variant P1 solver


class _P1Solver(_Designer):
    variant = "P1"

    def initial_state(self):
        base = ((float(self.pb.prior), float(self.pb.prior), 1.0 - float(self.pb.prior)),)
        return q2_p1(base, self.pb.channel1.row_pair(1))

    def _canon(self, state):
        return tuple(sorted((round(b, ROUND_DIGITS), round(m0, ROUND_DIGITS),
                             round(m1, ROUND_DIGITS)) for b, m0, m1 in state))

    def _blank_next(self, t, blank):
        """Mass of the blank atoms and the state they advance to (None when
        the blank branch has no mass)."""
        mass_b = sum(m0 + m1 for _, m0, m1 in blank)
        if mass_b <= 0.0:
            return mass_b, None
        return mass_b, q2_p1(tuple((b, m0 / mass_b, m1 / mass_b) for b, m0, m1 in blank),
                             self.pb.channel1.row_pair(t + 1))

    def _stage(self, t, state):
        pre0 = [0.0]
        pre1 = [0.0]
        for _, m0, m1 in state:
            pre0.append(pre0[-1] + m0)
            pre1.append(pre1[-1] + m1)
        read = self.wald.reader(self.pb.t2)

        def send(lo, hi):
            rm0 = pre0[hi] - pre0[lo]
            rm1 = pre1[hi] - pre1[lo]
            mass = rm0 + rm1
            if mass <= 0.0:
                return 0.0
            belief = rm0 / mass
            if not 0.0 <= belief <= 1.0:
                raise ProblemSpecError("belief", f"{belief} outside [0, 1]")
            return mass * read(belief)

        def blank(blank_groups):
            mass_b, nxt = self._blank_next(t, [state[i] for i in blank_groups])
            if nxt is None:
                return 0.0, None
            return mass_b * (self.pb.costs.c1 + self.value(t + 1, nxt)), None

        return len(state), send, blank

    def _advance(self, t, state, labels, choice, seeds):
        rule = extract_thresholds([(b, lab) for (b, _, _), lab in zip(state, labels)],
                                  self.pb.n_messages, terminal=(t == self.pb.t1))
        for z in range(self.pb.n_messages):
            sel = [a for a, lab in zip(state, labels) if lab == z]
            sm = sum(m0 + m1 for _, m0, m1 in sel)
            if sm > 0.0:
                seeds.append((0, sum(m0 for _, m0, _ in sel) / sm))
        if t == self.pb.t1:
            return rule, None, None
        _, nxt = self._blank_next(t, [a for a, lab in zip(state, labels) if lab == BLANK])
        return rule, nxt, None


def solve_p1(problem):
    """Optimal pair for the wait-then-sample variant, by exact recursion."""
    return _P1Solver(problem).solve()


# ---------------------------------------------------------------------------
# variant P2 solver


def _run_pricer(atoms, channel_rows, read):
    """Stopping-cost flow of message runs over a P2 state's sorted atoms.

    Returns ``price(lo, hi, msg_lik)``: the unnormalized expected stopping
    cost when the atoms ``atoms[lo:hi]`` send a message with likelihood pair
    msg_lik, the still-sampling ones absorb it with one fresh observation
    and ``read`` prices each posterior.  Each sampling atom's live terms
    (w, b2 * row0[y], (1 - b2) * row1[y]) are computed once here, so a run
    costs one multiply-add pair and one read per term.
    """
    row0, row1 = channel_rows
    terms = []
    starts = [0]  # atoms[a]'s terms are terms[starts[a]:starts[a + 1]]
    for _, b2, d, m0, m1 in atoms:
        if d == 1:
            for y in range(len(row0)):
                w = m0 * row0[y] + m1 * row1[y]
                if w > 0.0:
                    terms.append((w, b2 * row0[y], (1.0 - b2) * row1[y]))
        starts.append(len(terms))

    def price(lo, hi, msg_lik):
        mz0, mz1 = msg_lik
        flow = 0.0
        for w, u0, u1 in terms[starts[lo]:starts[hi]]:
            num = u0 * mz0
            den = num + u1 * mz1
            if den <= 0.0:
                raise ImpossibleUpdateError(
                    "designer state inconsistent with its message law")
            belief = num / den
            if not 0.0 <= belief <= 1.0:
                raise ProblemSpecError("belief", f"{belief} outside [0, 1]")
            flow += w * read(belief)
        return flow

    return price


def _receiver_groups(phi):
    """Still-sampling atoms of phi in belief2 order, as (index, atom), and
    their belief2 clusters."""
    active = sorted(((i, a) for i, a in enumerate(phi) if a[2] == 1),
                    key=lambda ia: ia[1][1])
    return active, _cluster_positions([a[1] for _, a in active])


class _P2Solver(_Designer):
    variant = "P2"

    def initial_state(self):
        p = float(self.pb.prior)
        return tuple(_apply_stop_and_push(((p, p, 1, p, 1.0 - p),), [None],
                                          self.pb.channel1.row_pair(1)))

    def _canon(self, state):
        return tuple(sorted((round(b1, ROUND_DIGITS), round(b2, ROUND_DIGITS), d,
                             round(m0, ROUND_DIGITS), round(m1, ROUND_DIGITS))
                            for b1, b2, d, m0, m1 in state))

    def _split(self, state):
        """Atoms sorted and grouped by belief1, plus ``run(lo, hi)`` giving
        (mass, message likelihood pair) of the atoms ``atoms[lo:hi]`` and
        ``region(group_ids)`` giving (their atoms, mass, message likelihood
        pair) of any set of groups."""
        atoms = sorted(state)
        groups = _cluster_positions([a[0] for a in atoms])
        m0s = [a[3] for a in atoms]
        m1s = [a[4] for a in atoms]
        tot0 = sum(m0s)
        tot1 = sum(m1s)

        def masses(r0, r1):
            return r0 + r1, (r0 / tot0 if tot0 > 0.0 else 0.0,
                             r1 / tot1 if tot1 > 0.0 else 0.0)

        def run(lo, hi):
            return masses(sum(m0s[lo:hi]), sum(m1s[lo:hi]))

        def region(group_ids):
            sel = [a for g in group_ids for a in atoms[groups[g][0]:groups[g][1]]]
            return (sel, *masses(sum(a[3] for a in sel), sum(a[4] for a in sel)))

        return atoms, groups, run, region

    def _next_state(self, t, phi, stop_labels, mass_b):
        nxt = _apply_stop_and_push(phi, stop_labels, self.pb.channel1.row_pair(t + 1))
        return tuple((b1, b2, d, m0 / mass_b, m1 / mass_b) for b1, b2, d, m0, m1 in nxt)

    def _stage(self, t, state):
        atoms, groups, run, region = self._split(state)
        price = _run_pricer(atoms, self.pb.channel2.row_pair(t),
                            self.wald.reader(self.pb.t2 - t))

        def send(lo, hi):
            lo, hi = groups[lo][0], groups[hi - 1][1]
            mass, lik = run(lo, hi)
            return price(lo, hi, lik) if mass > 0.0 else 0.0

        def blank(blank_groups):
            return self._blank_part(t, *region(blank_groups))

        return len(groups), send, blank

    def _blank_part(self, t, blank, mass_b, lik):
        """Cost of the blank branch at stage t, plus the chosen stop rule.

        Charges: c1 for observer 1's next observation, observer 2's stop
        losses or c2 continue charges at this stage, and the recursion on
        the advanced state.
        """
        if mass_b <= 0.0:
            return 0.0, None
        phi = _observe_p2(blank, lik, self.pb.channel2.row_pair(t))
        act_sorted, g2 = _receiver_groups(phi)
        loss = self.pb.costs.loss

        # prefix sums of declare-1 / declare-0 losses and continue mass over
        # the active atoms in belief2 order
        pd1 = [0.0]
        pd0 = [0.0]
        pcm = [0.0]
        for _, (b1, b2, d, m0, m1) in act_sorted:
            pd1.append(pd1[-1] + m0 * loss[1][0] + m1 * loss[1][1])
            pd0.append(pd0[-1] + m0 * loss[0][0] + m1 * loss[0][1])
            pcm.append(pcm[-1] + m0 + m1)

        best = None
        best_choice = None
        c1 = self.pb.costs.c1
        c2 = self.pb.costs.c2
        for i, j in itertools.combinations_with_replacement(range(len(g2) + 1), 2):
            # groups i..j-1 continue; an empty run stops every atom with 0,
            # so every (i, i) gives (0, 0)'s child and only (0, 0) is priced
            if i == j:
                if i > 0:
                    continue
                alo = ahi = 0
            else:
                alo, ahi = g2[i][0], g2[j - 1][1]
            charges = (pd1[alo] - pd1[0]) \
                + (pd0[len(act_sorted)] - pd0[ahi]) \
                + c2 * (pcm[ahi] - pcm[alo])
            stops = {}
            for idx in range(0, alo):
                stops[act_sorted[idx][0]] = 1
            for idx in range(ahi, len(act_sorted)):
                stops[act_sorted[idx][0]] = 0
            labels = [stops.get(ix) if a[2] == 1 else None
                      for ix, a in enumerate(phi)]
            nxt = self._next_state(t, phi, labels, mass_b)
            val = c1 * mass_b + charges + mass_b * self.value(t + 1, nxt)
            if best is None or val < best:
                best = val
                best_choice = (i, j)
        return best, best_choice

    def _advance(self, t, state, labels, choice, seeds):
        atoms, groups, _, region = self._split(state)
        rule = extract_thresholds([(atoms[lo][0], lab) for (lo, _), lab in zip(groups, labels)],
                                  self.pb.n_messages, terminal=(t == self.pb.t1))
        # receiver beliefs on every message branch, for the stopping table
        rows2 = self.pb.channel2.row_pair(t)
        for z in range(self.pb.n_messages):
            sel, mass, lik = region([g for g, lab in enumerate(labels) if lab == z])
            if mass > 0.0:
                seeds.extend((t, b2) for _, b2, d, _, _ in _observe_p2(sel, lik, rows2)
                             if d == 1)
        if t == self.pb.t1:
            return rule, None, None
        blank, mass_b, lik = region([g for g, lab in enumerate(labels) if lab == BLANK])
        if mass_b <= 0.0 or choice is None:
            return rule, None, None
        phi = _observe_p2(blank, lik, rows2)
        active, g2 = _receiver_groups(phi)
        vals = [a[1] for _, a in active]
        i, j = choice
        if i == j:
            # (0, 0), the only empty continue run searched: everyone declares
            # 0.  A search over other empty runs would need their split point.
            a_thr = b_thr = 0.0
        else:
            alo, ahi = g2[i][0], g2[j - 1][1]
            a_thr = 0.0 if alo == 0 else 0.5 * (vals[alo - 1] + vals[alo])
            b_thr = 1.0 if ahi == len(vals) else 0.5 * (vals[ahi - 1] + vals[ahi])
        nxt = self._next_state(t, phi, _stop_labels_from_rule(phi, (a_thr, b_thr)), mass_b)
        return rule, nxt, (a_thr, b_thr)


def solve_p2(problem):
    """Optimal pair for the interleaved variant, by exact recursion."""
    return _P2Solver(problem).solve()
