"""Exact designer-level solvers for both communication variants.

The designer picks both policies at once.  Conditioned on the public message
history, the joint law of (hypothesis, observer beliefs) is supported on
finitely many atoms; that conditional law is the designer's state.  Each
solver enumerates every achievable threshold partition of the current atoms
(the optimal policies are interval-shaped in the beliefs, so partition
search over sorted atoms is exhaustive), recursing on the all-blank branch,
with memoization on a rounded canonical form of the state.

States are plain tuples so tests can build them directly:

* variant P1: ((belief1, m0, m1), ...) where m_h = P(belief1 = atom, H = h |
  blanks so far); the entries of one state sum to 1 over atoms and both h.
* variant P2: ((belief1, belief2, d, m0, m1), ...) with d = 1 while
  observer 2 is still sampling, d = 0 once it has declared (its belief slot
  is then frozen and irrelevant; canonicalization blanks it out).

The P1 one-step state transformations q1_p1 (condition on a message) and
q2_p1 (advance one time step) are public; the P1 solver runs on them.

Totals reported include the sunk first observations: c1 for observer 1 (and
c2 for observer 2 in the interleaved variant), so the value is the full
expected cost of the objective, directly comparable with exact_cost and the
brute-force oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .belief import _classify_with, merge_atoms
from .errors import ImpossibleUpdateError, ProblemSpecError, UnreachableBranchError
from .policies import (BLANK, O1Policy, O2Policy, StageRule, TerminalRule,
                       build_message_model, extract_thresholds)
from .wald import solve_wald_finite, wald_cost

DEDUP_TOL = 1e-12
ROUND_DIGITS = 10


# ---------------------------------------------------------------------------
# variant P1 state transformations


def q1_p1(state, o1_rule, z):
    """Condition a P1 state on observer 1 announcing z (symbol or BLANK)."""
    kept = [(b, m0, m1) for b, m0, m1 in state if _classify_with(o1_rule, b) == z]
    mass = sum(m0 + m1 for _, m0, m1 in kept)
    if mass <= 0.0:
        raise UnreachableBranchError(f"message {z!r} has probability zero here")
    return tuple((b, m0 / mass, m1 / mass) for b, m0, m1 in kept)


def q2_p1(state, channel_rows):
    """Advance a P1 state one step: observer 1 takes one more observation."""
    row0, row1 = channel_rows
    raw = []
    for b, m0, m1 in state:
        for y in range(len(row0)):
            n0 = m0 * row0[y]
            n1 = m1 * row1[y]
            if n0 == 0.0 and n1 == 0.0:
                continue
            den = b * row0[y] + (1.0 - b) * row1[y]
            raw.append((b * row0[y] / den, n0, n1))
    return tuple(merge_atoms(raw, DEDUP_TOL))


def state_belief(state):
    """P(H=0) implied by a P1 state (or by a message-conditioned branch)."""
    tot0 = sum(m0 for _, m0, _ in state)
    tot1 = sum(m1 for _, _, m1 in state)
    return tot0 / (tot0 + tot1)


# ---------------------------------------------------------------------------
# variant P2 state transformations


def _merge_p2(entries, tol=DEDUP_TOL):
    """Sort and merge 5-tuples whose coordinates agree within tol."""
    entries = sorted(entries)
    out = []
    for e in entries:
        b1, b2, d, m0, m1 = e
        if out:
            p1, p2, pd, q0, q1 = out[-1]
            if pd == d and abs(b1 - p1) <= tol and abs(b2 - p2) <= tol:
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


def _cluster_positions(values, tol=DEDUP_TOL):
    """Group boundaries over sorted values: [(start, end), ...] slices."""
    groups = []
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol:
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


def _filler_stage(n_messages, boundary):
    send = [None] * n_messages
    send[n_messages - 1] = (0.0, boundary)
    send[0] = (boundary, 1.0)
    return StageRule(send=tuple(send))


def _filler_terminal(n_messages, boundary):
    return TerminalRule(cuts=tuple([boundary] * (n_messages - 1)))


def _filler_blank_rule(boundary):
    return (boundary, boundary)


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

    @property
    def variant(self):
        return self.problem.variant


# ---------------------------------------------------------------------------
# variant P1 solver


class _P1Solver:
    def __init__(self, problem):
        self.pb = problem
        self.memo = {}
        self.partitions = 0
        # values only; the policy's own stopping table is rebuilt later on
        # the reachable atoms
        self.wald = solve_wald_finite(problem.channel2, problem.costs, problem.t2,
                                      eval_points=(problem.prior,))

    def initial_state(self):
        base = ((float(self.pb.prior), float(self.pb.prior), 1.0 - float(self.pb.prior)),)
        return q2_p1(base, self.pb.channel1.row_pair(1))

    def _canon(self, state):
        return tuple(sorted((round(b, ROUND_DIGITS), round(m0, ROUND_DIGITS),
                             round(m1, ROUND_DIGITS)) for b, m0, m1 in state))

    def value(self, t, state):
        key = (t, self._canon(state))
        hit = self.memo.get(key)
        if hit is not None:
            return hit[0]
        atoms = list(state)
        n = len(atoms)
        pre0 = [0.0] * (n + 1)
        pre1 = [0.0] * (n + 1)
        for i, (_, m0, m1) in enumerate(atoms):
            pre0[i + 1] = pre0[i] + m0
            pre1[i + 1] = pre1[i] + m1

        flow_cache = {}

        def send_flow(lo, hi):
            got = flow_cache.get((lo, hi))
            if got is None:
                rm0 = pre0[hi] - pre0[lo]
                rm1 = pre1[hi] - pre1[lo]
                mass = rm0 + rm1
                got = 0.0 if mass <= 0.0 else mass * wald_cost(self.wald, rm0 / mass,
                                                               self.pb.t2)
                flow_cache[(lo, hi)] = got
            return got

        blank_cache = {}

        def blank_part(labels):
            key_b = tuple(i for i in range(n) if labels[i] == BLANK)
            got = blank_cache.get(key_b)
            if got is not None:
                return got
            blank = [atoms[i] for i in key_b]
            mass_b = sum(m0 + m1 for _, m0, m1 in blank)
            if mass_b <= 0.0:
                out = 0.0
            else:
                nxt = tuple((b, m0 / mass_b, m1 / mass_b) for b, m0, m1 in blank)
                nxt = q2_p1(nxt, self.pb.channel1.row_pair(t + 1))
                out = mass_b * (self.pb.costs.c1 + self.value(t + 1, nxt))
            blank_cache[key_b] = out
            return out

        m = self.pb.n_messages
        best = None
        best_labels = None
        seen = set()
        if t == self.pb.t1:
            for cuts in itertools.combinations_with_replacement(range(n + 1), m - 1):
                labels = _labels_from_cuts(n, cuts, m)
                if labels in seen:
                    continue
                seen.add(labels)
                self.partitions += 1
                edges = (0,) + cuts + (n,)
                cost = sum(send_flow(edges[i], edges[i + 1]) for i in range(m))
                if best is None or cost < best:
                    best, best_labels = cost, labels
        else:
            for pos in itertools.combinations_with_replacement(range(n + 1), 2 * m):
                labels = _labels_from_runs(n, pos, m)
                if labels in seen:
                    continue
                seen.add(labels)
                self.partitions += 1
                cost = sum(send_flow(pos[2 * i], pos[2 * i + 1]) for i in range(m))
                cost += blank_part(labels)
                if best is None or cost < best:
                    best, best_labels = cost, labels
        self.memo[key] = (best, best_labels)
        return best

    def extract(self, state0):
        """Walk the stored argmins along the all-blank branch."""
        stages = []
        terminal = None
        posteriors = []  # (send time, symbol, receiver prior after the message)
        boundary = self.pb.costs.declare_boundary
        state = state0
        alive = True
        for t in range(1, self.pb.t1 + 1):
            if not alive:
                if t < self.pb.t1:
                    stages.append(_filler_stage(self.pb.n_messages, boundary))
                else:
                    terminal = _filler_terminal(self.pb.n_messages, boundary)
                continue
            _, labels = self.memo[(t, self._canon(state))]
            pairs = [(b, lab) for (b, _, _), lab in zip(state, labels)]
            rule = extract_thresholds(pairs, self.pb.n_messages, terminal=(t == self.pb.t1))
            for z in range(self.pb.n_messages):
                sel = [(b, m0, m1) for (b, m0, m1), lab in zip(state, labels) if lab == z]
                sm = sum(m0 + m1 for _, m0, m1 in sel)
                if sm > 0.0:
                    posteriors.append((t, z, sum(m0 for _, m0, _ in sel) / sm))
            if t < self.pb.t1:
                stages.append(rule)
                blank = [(b, m0, m1) for (b, m0, m1), lab in zip(state, labels)
                         if lab == BLANK]
                mass_b = sum(m0 + m1 for _, m0, m1 in blank)
                if mass_b > 0.0:
                    state = q2_p1(tuple((b, m0 / mass_b, m1 / mass_b)
                                        for b, m0, m1 in blank),
                                  self.pb.channel1.row_pair(t + 1))
                else:
                    alive = False
            else:
                terminal = rule
        o1 = O1Policy(stages=tuple(stages), terminal=terminal,
                      n_messages=self.pb.n_messages)
        return o1, posteriors


def _receiver_atoms_p1(problem, posteriors):
    """Every modelled belief observer 2 can hold, by observation count."""
    seeds = sorted(set(round(p, 13) for _, _, p in posteriors))
    relevant = set(seeds)
    cur = set(seeds)
    for k in range(1, problem.t2 + 1):
        rows = problem.channel2.row_pair(k)
        nxt = set()
        for b in cur:
            for y in range(len(rows[0])):
                den = b * rows[0][y] + (1.0 - b) * rows[1][y]
                if den > 0.0:
                    nxt.add(round(b * rows[0][y] / den, 13))
        relevant |= nxt
        cur = nxt
    return sorted(relevant)


def solve_p1(problem):
    """Optimal pair for the wait-then-sample variant, by exact recursion."""
    if problem.variant != "P1":
        raise ProblemSpecError("variant", f"solve_p1 got a {problem.variant} problem")
    solver = _P1Solver(problem)
    state0 = solver.initial_state()
    inner = solver.value(1, state0)
    total = problem.costs.c1 + inner
    o1, posteriors = solver.extract(state0)

    eval_pts = _receiver_atoms_p1(problem, posteriors)
    table = solve_wald_finite(problem.channel2, problem.costs, problem.t2,
                              eval_points=eval_pts)
    o2 = O2Policy(blank_rules=(), wald_rules=table.thresholds,
                  message_model=build_message_model(o1, problem),
                  n_messages=problem.n_messages)
    return DesignerSolution(problem=problem, total=total, o1=o1, o2=o2,
                            wald=table, nodes=len(solver.memo),
                            partitions_tried=solver.partitions)


# ---------------------------------------------------------------------------
# variant P2 solver


class _P2Solver:
    def __init__(self, problem):
        self.pb = problem
        self.memo = {}
        self.partitions = 0
        self.wald = solve_wald_finite(problem.channel2, problem.costs, problem.t2,
                                      eval_points=(problem.prior,))

    def initial_state(self):
        p = float(self.pb.prior)
        rows = self.pb.channel1.row_pair(1)
        raw = []
        for y in range(len(rows[0])):
            w0 = p * rows[0][y]
            w1 = (1.0 - p) * rows[1][y]
            if w0 == 0.0 and w1 == 0.0:
                continue
            den = p * rows[0][y] + (1.0 - p) * rows[1][y]
            raw.append((p * rows[0][y] / den, p, 1, w0, w1))
        return tuple(_merge_p2(raw))

    def _canon(self, state):
        return tuple(sorted((round(b1, ROUND_DIGITS), round(b2, ROUND_DIGITS), d,
                             round(m0, ROUND_DIGITS), round(m1, ROUND_DIGITS))
                            for b1, b2, d, m0, m1 in state))

    def _send_flow(self, t, region, msg_lik):
        """Expected stopping cost of a message branch, unnormalized."""
        rows = self.pb.channel2.row_pair(t)
        mz0, mz1 = msg_lik
        remaining = self.pb.t2 - t
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
                    raise ImpossibleUpdateError(
                        "designer state inconsistent with its message law")
                flow += w * wald_cost(self.wald, num / den, remaining)
        return flow

    def value(self, t, state):
        key = (t, self._canon(state))
        hit = self.memo.get(key)
        if hit is not None:
            return hit[0]
        atoms = sorted(state)
        n_atoms = len(atoms)
        groups = _cluster_positions([a[0] for a in atoms])
        n = len(groups)
        tot0 = sum(m0 for *_, m0, _ in atoms)
        tot1 = sum(m1 for *_, _, m1 in atoms)

        flow_cache = {}

        def region_cost(glo, ghi):
            if glo == ghi:
                return 0.0, 0.0
            got = flow_cache.get((glo, ghi))
            if got is not None:
                return got
            alo, ahi = groups[glo][0], groups[ghi - 1][1]
            region = atoms[alo:ahi]
            r0 = sum(m0 for *_, m0, _ in region)
            r1 = sum(m1 for *_, _, m1 in region)
            mass = r0 + r1
            if mass <= 0.0:
                out = (0.0, 0.0)
            else:
                lik = (r0 / tot0 if tot0 > 0.0 else 0.0,
                       r1 / tot1 if tot1 > 0.0 else 0.0)
                out = (self._send_flow(t, region, lik), mass)
            flow_cache[(glo, ghi)] = out
            return out

        m = self.pb.n_messages
        best = None
        best_dec = None
        seen = set()
        if t == self.pb.t1:
            for cuts in itertools.combinations_with_replacement(range(n + 1), m - 1):
                labels = _labels_from_cuts(n, cuts, m)
                if labels in seen:
                    continue
                seen.add(labels)
                self.partitions += 1
                edges = (0,) + cuts + (n,)
                cost = sum(region_cost(edges[i], edges[i + 1])[0] for i in range(m))
                if best is None or cost < best:
                    best, best_dec = cost, (labels, None)
        else:
            blank_cache = {}
            for pos in itertools.combinations_with_replacement(range(n + 1), 2 * m):
                labels = _labels_from_runs(n, pos, m)
                if labels in seen:
                    continue
                seen.add(labels)
                self.partitions += 1
                cost = 0.0
                for i in range(m):
                    cost += region_cost(pos[2 * i], pos[2 * i + 1])[0]
                blank_groups = tuple(g for g, lab in enumerate(labels) if lab == BLANK)
                got = blank_cache.get(blank_groups)
                if got is None:
                    got = self._blank_part(t, atoms, groups, blank_groups, tot0, tot1)
                    blank_cache[blank_groups] = got
                bcost, g_choice = got
                cost += bcost
                if best is None or cost < best:
                    best, best_dec = cost, (labels, g_choice)
        self.memo[key] = (best, best_dec)
        return best

    def _blank_atoms(self, atoms, groups, blank_groups):
        out = []
        for g in blank_groups:
            lo, hi = groups[g]
            out.extend(atoms[lo:hi])
        return out

    def _blank_part(self, t, atoms, groups, blank_groups, tot0, tot1):
        """Cost of the blank branch at stage t, plus the chosen stop rule.

        Charges: c1 for observer 1's next observation, observer 2's stop
        losses or c2 continue charges at this stage, and the recursion on
        the advanced state.
        """
        blank = self._blank_atoms(atoms, groups, blank_groups)
        r0 = sum(m0 for *_, m0, _ in blank)
        r1 = sum(m1 for *_, _, m1 in blank)
        mass_b = r0 + r1
        if mass_b <= 0.0:
            return 0.0, None
        lik = (r0 / tot0 if tot0 > 0.0 else 0.0,
               r1 / tot1 if tot1 > 0.0 else 0.0)
        phi = _observe_p2(blank, lik, self.pb.channel2.row_pair(t))
        active = [(i, a) for i, a in enumerate(phi) if a[2] == 1]
        act_sorted = sorted(active, key=lambda ia: ia[1][1])
        vals = [a[1] for _, a in act_sorted]
        g2 = _cluster_positions(vals)
        n2 = len(g2)
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

        def atom_span(glo, ghi):
            if glo == ghi:
                return (0, 0)
            return (g2[glo][0], g2[ghi - 1][1])

        best = None
        best_choice = None
        c1 = self.pb.costs.c1
        c2 = self.pb.costs.c2
        rows1_next = self.pb.channel1.row_pair(t + 1)
        for i, j in itertools.combinations_with_replacement(range(n2 + 1), 2):
            alo, ahi = atom_span(i, j)
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
            nxt = _apply_stop_and_push(phi, labels, rows1_next)
            nxt = tuple((b1, b2, d, m0 / mass_b, m1 / mass_b)
                        for b1, b2, d, m0, m1 in nxt)
            val = c1 * mass_b + charges + mass_b * self.value(t + 1, nxt)
            if best is None or val < best:
                best = val
                best_choice = (i, j)
        return best, best_choice

    def extract(self, state0):
        stages = []
        blank_rules = []
        terminal = None
        seeds = []  # (absolute time, receiver belief) on message branches
        boundary = self.pb.costs.declare_boundary
        state = state0
        alive = True
        for t in range(1, self.pb.t1 + 1):
            if not alive:
                if t < self.pb.t1:
                    stages.append(_filler_stage(self.pb.n_messages, boundary))
                    blank_rules.append(_filler_blank_rule(boundary))
                else:
                    terminal = _filler_terminal(self.pb.n_messages, boundary)
                continue
            atoms = sorted(state)
            groups = _cluster_positions([a[0] for a in atoms])
            tot0 = sum(m0 for *_, m0, _ in atoms)
            tot1 = sum(m1 for *_, _, m1 in atoms)
            _, (labels, g_choice) = self.memo[(t, self._canon(state))]
            glabel_pairs = [(atoms[groups[g][0]][0], labels[g]) for g in range(len(groups))]
            rule = extract_thresholds(glabel_pairs, self.pb.n_messages,
                                      terminal=(t == self.pb.t1))
            # collect receiver beliefs on every message branch for the
            # stopping-table evaluation set
            for z in range(self.pb.n_messages):
                zgroups = [g for g, lab in enumerate(labels) if lab == z]
                region = self._blank_atoms(atoms, groups, zgroups)
                r0 = sum(m0 for *_, m0, _ in region)
                r1 = sum(m1 for *_, _, m1 in region)
                if r0 + r1 <= 0.0:
                    continue
                lik = (r0 / tot0 if tot0 > 0.0 else 0.0,
                       r1 / tot1 if tot1 > 0.0 else 0.0)
                for _, b2, d, m0, m1 in _observe_p2(region, lik,
                                                    self.pb.channel2.row_pair(t)):
                    if d == 1:
                        seeds.append((t, b2))
            if t == self.pb.t1:
                terminal = rule
                break
            stages.append(rule)
            blank_groups = [g for g, lab in enumerate(labels) if lab == BLANK]
            blank = self._blank_atoms(atoms, groups, blank_groups)
            r0 = sum(m0 for *_, m0, _ in blank)
            r1 = sum(m1 for *_, _, m1 in blank)
            mass_b = r0 + r1
            if mass_b <= 0.0 or g_choice is None:
                blank_rules.append(_filler_blank_rule(boundary))
                alive = False
                continue
            lik = (r0 / tot0 if tot0 > 0.0 else 0.0,
                   r1 / tot1 if tot1 > 0.0 else 0.0)
            phi = _observe_p2(blank, lik, self.pb.channel2.row_pair(t))
            active = sorted((a for a in phi if a[2] == 1), key=lambda a: a[1])
            vals = [a[1] for a in active]
            g2 = _cluster_positions(vals)
            i, j = g_choice
            if i == j:
                split = 0.0 if i == 0 else (
                    1.0 if i == len(g2) else 0.5 * (vals[g2[i - 1][1] - 1] + vals[g2[i][0]]))
                a_thr = b_thr = split
            else:
                alo, ahi = g2[i][0], g2[j - 1][1]
                a_thr = 0.0 if alo == 0 else 0.5 * (vals[alo - 1] + vals[alo])
                b_thr = 1.0 if ahi == len(vals) else 0.5 * (vals[ahi - 1] + vals[ahi])
            blank_rules.append((a_thr, b_thr))
            labels2 = _stop_labels_from_rule(phi, (a_thr, b_thr))
            nxt = _apply_stop_and_push(phi, labels2, self.pb.channel1.row_pair(t + 1))
            state = tuple((b1, b2, d, m0 / mass_b, m1 / mass_b)
                          for b1, b2, d, m0, m1 in nxt)
        o1 = O1Policy(stages=tuple(stages), terminal=terminal,
                      n_messages=self.pb.n_messages)
        return o1, blank_rules, seeds


def _receiver_atoms_p2(problem, seeds, blank_rules, state0_chain):
    """Modelled receiver beliefs: blank-phase atoms plus message-branch
    beliefs propagated to the horizon."""
    relevant = set()
    by_time = {}
    for t, b in seeds:
        by_time.setdefault(t, set()).add(round(b, 13))
        relevant.add(round(b, 13))
    for t in sorted(by_time):
        cur = by_time[t]
        for k in range(t + 1, problem.t2 + 1):
            rows = problem.channel2.row_pair(k)
            nxt = set()
            for b in cur:
                for y in range(len(rows[0])):
                    den = b * rows[0][y] + (1.0 - b) * rows[1][y]
                    if den > 0.0:
                        nxt.add(round(b * rows[0][y] / den, 13))
            relevant |= nxt
            cur = nxt
    relevant |= set(round(b, 13) for b in state0_chain)
    return sorted(relevant)


def solve_p2(problem):
    """Optimal pair for the interleaved variant, by exact recursion."""
    if problem.variant != "P2":
        raise ProblemSpecError("variant", f"solve_p2 got a {problem.variant} problem")
    solver = _P2Solver(problem)
    state0 = solver.initial_state()
    inner = solver.value(1, state0)
    total = problem.costs.c1 + problem.costs.c2 + inner
    o1, blank_rules, seeds = solver.extract(state0)

    eval_pts = _receiver_atoms_p2(problem, seeds, blank_rules, [problem.prior])
    table = solve_wald_finite(problem.channel2, problem.costs, problem.t2,
                              eval_points=eval_pts)
    o2 = O2Policy(blank_rules=tuple(blank_rules), wald_rules=table.thresholds,
                  message_model=build_message_model(o1, problem),
                  n_messages=problem.n_messages)
    return DesignerSolution(problem=problem, total=total, o1=o1, o2=o2,
                            wald=table, nodes=len(solver.memo),
                            partitions_tried=solver.partitions)
