"""Depth-first designer recursion, one node at a time (test-only reference).

The recursive ``_Designer.value`` path that ``seq_decomp``'s level-synchronous
search replaced: a node is keyed by a tuple of exact integers (held in
floats), looked up on the spot, and on a miss searched at once; each message
run is priced through the scalar knot reader ``knot_reader``, one belief at
a time.  Its children are built one Python tuple at a time by the scalar
state transformations (``_p1_children``, ``_p2_children``, ``_observe_p2``,
``_merge_p2``) that ``seq_decomp``'s numpy stage builders replaced.  It
shares the partition tables with ``seq_decomp``.  ``reference_solve(problem)``
returns the totals, search counts and policy pair that
``solve_p1``/``solve_p2`` must reproduce bit for bit.  ``grid_crossings`` is
the grid labelling that ``WaldSolution.crossings`` replaced.  ``numpy_root``
and ``group_count_values`` are the numpy stage-1 state and the valuation
loop over group counts that ``_Designer._root`` (a scalar push) and
``_Designer._value_nodes`` (one pricing call per batch) replaced.
"""

import itertools
from bisect import bisect_left
from types import SimpleNamespace

import numpy as np

from decseq import seq_decomp
from decseq.belief import MERGE_TOL, merge_atoms, merge_rows, push_atom, push_error, push_rows
from decseq.best_response import o2_best_response
from decseq.errors import CapacityError, ImpossibleUpdateError, ProblemSpecError
from decseq.policies import BLANK, O1Policy, TerminalRule, boundary_stage, extract_thresholds
from decseq.seq_decomp import _KEY_LIMIT, ROUND_DIGITS, _exact_round, _partition_table
from decseq.wald import solve_wald_finite, stop_or_sample, thresholds_from_labels

_FLOAT_SCALE = float(10 ** ROUND_DIGITS)
_BAND = 2.0 ** -19
# adding 1.5 * 2**52 to a float y with |y| < 2**51 gives 1.5 * 2**52 +
# round(y): the sum lies where the doubles are the integers, so float
# addition rounds y to the nearest integer, ties to even, as round() does
_ROUNDER = 1.5 * 2.0 ** 52


def key_ints(xs):
    """For each float x of xs, ``_ROUNDER + k`` with round(x, 10) == k / 1e10."""
    if xs and (max(xs) >= _KEY_LIMIT or min(xs) <= -_KEY_LIMIT):
        raise ProblemSpecError(
            "state", f"coordinate {max(xs, key=abs)} outside the memo key range (-1.7, 1.7)")
    up = [(x * _FLOAT_SCALE + _BAND) + _ROUNDER for x in xs]
    down = [(x * _FLOAT_SCALE - _BAND) + _ROUNDER for x in xs]
    if up != down:
        up = [u if u == d else _ROUNDER + _exact_round(x) for x, u, d in zip(xs, up, down)]
    return up


def left_sum(xs):
    """The floats xs added left to right, as ``seq_decomp`` adds run masses
    and node totals (from Python 3.12 the builtin sum() compensates)."""
    total = 0.0
    for x in xs:
        total += x
    return total


# ---------------------------------------------------------------------------
# the scalar state transformations, one child at a time, that
# ``seq_decomp``'s stage builders replaced


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


def _p1_children(state, channel_rows):
    """Children of a P1 node, each atom pushed through observer 1's next
    observation once.

    Returns ``child(atoms)`` for a list of atom indices: None when they have
    no mass, else (merged next atoms, their mass), the atoms' masses divided
    by that mass before the push, as ``belief.push_atoms`` would push them.
    """
    pushes = [push_atom(b, m0, m1, channel_rows) for b, m0, m1 in state]
    masses = [m0 + m1 for _, m0, m1 in state]

    def child(atoms):
        mass = left_sum(masses[i] for i in atoms)
        if mass <= 0.0:
            return None
        raw = []
        for i in atoms:
            _, m0, m1 = state[i]
            u0 = m0 / mass
            u1 = m1 / mass
            for _, post, r0, r1 in pushes[i]:
                n0 = u0 * r0
                n1 = u1 * r1
                if n0 != 0.0 or n1 != 0.0:
                    raw.append((post, n0, n1))
        return merge_atoms(raw), mass

    return child


def _merge_p2(entries):
    """Sort and merge P2 atoms whose coordinates agree within MERGE_TOL.

    Only neighbours in sort order are compared: two close atoms with a
    third sorting between them stay apart.  The sym02 anchor search counts
    rest on this.
    """
    out = []
    p1 = p2 = q0 = q1 = None  # the last atom of out
    for e in sorted(entries):
        b1, b2, m0, m1 = e
        if out and abs(b1 - p1) <= MERGE_TOL and abs(b2 - p2) <= MERGE_TOL:
            tot_old = q0 + q1
            tot_new = m0 + m1
            if tot_old + tot_new > 0.0:
                b1 = (p1 * tot_old + b1 * tot_new) / (tot_old + tot_new)
                b2 = (p2 * tot_old + b2 * tot_new) / (tot_old + tot_new)
            p1, p2, q0, q1 = b1, b2, q0 + m0, q1 + m1
            out[-1] = (p1, p2, q0, q1)
        else:
            out.append(e)
            p1, p2, q0, q1 = e
    return out


def _observe_p2(kept, msg_lik, channel_rows):
    """Observer 2's step within a message branch: belief2 absorbs the
    message likelihood and one fresh observation; stopped atoms pass
    through unchanged.  Masses stay unnormalized."""
    row0, row1 = channel_rows
    mz0, mz1 = msg_lik
    raw = []
    for b1, b2, m0, m1 in kept:
        if b2 < 0.0:
            raw.append((b1, b2, m0, m1))
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
            raw.append((b1, num / den, w0, w1))
    return _merge_p2(raw)


def _p2_children(phi, active, channel_rows):
    """Children of a P2 blank branch, each atom of phi pushed through
    observer 1's next observation once.

    ``active`` lists phi's still-sampling atoms as (index, atom).  Declared
    atoms are pushed as they are, active ones both as declaring (belief2
    -1.0) and as sampling on.  Returns ``child(lo, hi)``: the merged,
    unnormalized next atoms when active[lo:hi] keep sampling and every other
    atom declares.
    """
    declared = [(b, -1.0, m0 * r0, m1 * r1) for b1, b2, m0, m1 in phi if b2 < 0.0
                for _, b, r0, r1 in push_atom(b1, m0, m1, channel_rows)]
    stop = []
    cont = []
    at = [0]  # active[a]'s pushes are stop/cont[at[a]:at[a + 1]]
    for _, (b1, b2, m0, m1) in active:
        pushed = [(b, m0 * r0, m1 * r1) for _, b, r0, r1 in push_atom(b1, m0, m1, channel_rows)]
        stop += [(b, -1.0, w0, w1) for b, w0, w1 in pushed]
        cont += [(b, b2, w0, w1) for b, w0, w1 in pushed]
        at.append(len(stop))

    def child(lo, hi):
        return _merge_p2(declared + stop[:at[lo]] + cont[at[lo]:at[hi]] + stop[at[hi]:])

    return child


def _receiver_groups(phi):
    """Still-sampling atoms of phi in belief2 order, as (index, atom), and
    their belief2 clusters."""
    active = sorted(((i, a) for i, a in enumerate(phi) if a[1] >= 0.0),
                    key=lambda ia: ia[1][1])
    return active, _cluster_positions([a[1] for _, a in active])


def _regions(atoms, groups):
    """``region(group_ids)`` over a P2 node's sorted atoms and belief1
    groups: the groups' atoms, their mass and the message likelihood pair
    (each hypothesis's share of the node's mass, added left to right)."""
    tot0 = left_sum(a[2] for a in atoms)
    tot1 = left_sum(a[3] for a in atoms)

    def region(group_ids):
        sel = [a for g in group_ids for a in atoms[groups[g][0]:groups[g][1]]]
        r0 = left_sum(a[2] for a in sel)
        r1 = left_sum(a[3] for a in sel)
        return sel, r0 + r1, (r0 / tot0 if tot0 > 0.0 else 0.0,
                              r1 / tot1 if tot1 > 0.0 else 0.0)

    return region


def knot_reader(wald, remaining):
    """The scalar reader of ``wald``'s knot table with ``remaining``
    observations left, one belief at a time: the cheaper declaration when
    none is left, else bisect, the exact knot hit, or linear interpolation."""
    if remaining == 0:
        (l00, l01), (l10, l11) = wald.costs.loss

        def read(belief):
            # terminal_cost of declaring 0 and of declaring 1
            tc0 = belief * l00 + (1.0 - belief) * l01
            tc1 = belief * l10 + (1.0 - belief) * l11
            return tc0 if tc0 <= tc1 else tc1
        return read
    xs, ys = (a.tolist() for a in wald.knots[remaining])

    def read(belief):
        i = bisect_left(xs, belief)
        if xs[i] == belief:
            return ys[i]
        x0 = xs[i - 1]
        y0 = ys[i - 1]
        return y0 + (ys[i] - y0) * ((belief - x0) / (xs[i] - x0))
    return read


GRID = np.linspace(0.0, 1.0, 1001).tolist()


def grid_crossings(wald):
    """Per remaining count r = 0..horizon of ``wald``, the labels
    ``stop_or_sample`` gives the uniform 1001-point ``GRID`` on the
    continuation (None: sample; r = 0 declares everywhere) and the
    threshold pair placed from them: midpoints between grid points of
    different labels, or the declaration boundary twice where no grid point
    samples."""
    out = []
    for r in range(wald.horizon + 1):
        cont = wald.continuation(GRID, r).tolist() if r else None
        labels, _, _ = stop_or_sample(GRID, cont, wald.costs)
        out.append((labels, thresholds_from_labels(GRID, labels, wald.costs.declare_boundary)))
    return out


def table_entries(n, m, terminal):
    """``_partition_table(n, m, terminal)`` as a list of (labels, symbol runs,
    blank groups) entries: a symbol or BLANK per group, the non-empty runs
    symbol M-1 first, and blank groups None at the terminal stage."""
    parts, _, _, blanks, blank_of = _partition_table(n, m, terminal)
    out = []
    for part, b in zip(parts, blank_of.tolist()):
        labels = [BLANK] * n
        for z, run in zip(range(m - 1, -1, -1), part):
            if run is not None:
                labels[run[0]:run[1]] = [z] * (run[1] - run[0])
        out.append((tuple(labels), tuple(run for run in part if run is not None),
                    None if terminal else blanks[b]))
    return out


def _continue_span(g2, i, j):
    """Active-atom span of the continue run of belief2 groups i..j-1; every
    empty run (i, i) stops every atom and gives (0, 0)."""
    return (0, 0) if i == j else (g2[i][0], g2[j - 1][1])


def empty_run_charge(pd1, pd0, g2):
    """Observer 2's charge when nobody continues, given the prefix sums pd1
    and pd0 of the sampling atoms' declare-1 and declare-0 losses and their
    belief2 clusters g2: everyone declares, 1 below a cluster split and 0
    above, at the first cheapest split (from "everyone declares 0")."""
    return min((pd1[a] - pd1[0]) + (pd0[-1] - pd0[a]) for a in [0] + [hi for _, hi in g2])


def state_key(xs, width):
    """The atoms' ``key_ints``, ``width`` per atom, sorted atom by atom, in one tuple."""
    ks = iter(key_ints(xs))
    atoms = sorted(zip(*[ks] * width))
    return tuple(itertools.chain.from_iterable(atoms))


class _Designer:
    variant = None
    width = None

    def __init__(self, problem):
        self.pb = problem
        self.memo = [{} for _ in range(problem.t1 + 1)]
        self.lookups = [0] * (problem.t1 + 1)
        self.nodes = 0
        self.partitions = 0
        self.partition_tables = {}
        self.wald = solve_wald_finite(problem.channel2, problem.costs, problem.t2)

    def _child_value(self, t, merged, mass):
        key = self._key(merged, mass)
        self.lookups[t] += 1
        hit = self.memo[t].get(key)
        if hit is not None:
            return hit[0]
        return self.value(t, self._state(merged, mass), key)

    def value(self, t, state, key):
        self.nodes += 1
        cap = seq_decomp.DESIGNER_NODE_CAP
        if self.nodes > cap:
            raise CapacityError(self.nodes, cap, "designer search nodes")
        n, send, blank = self._stage(t, state)
        terminal = t == self.pb.t1
        table = self.partition_tables.get((n, terminal))
        if table is None:
            table = self.partition_tables[n, terminal] = table_entries(
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
        self.memo[t][key] = (best, best_dec)
        return best

    def solve(self):
        pb = self.pb
        m = pb.n_messages
        boundary = pb.costs.declare_boundary
        child = self._root()
        inner = self._child_value(1, *child)
        total = (pb.costs.c1 + pb.costs.c2 if self.variant == "P2" else pb.costs.c1) + inner
        stages = []
        for t in range(1, pb.t1 + 1):
            rule = None
            if child is not None:
                _, (labels, choice) = self.memo[t][self._key(*child)]
                rule, child = self._advance(t, self._state(*child), labels, choice)
            if t == pb.t1:
                terminal = rule if rule is not None else \
                    TerminalRule(cuts=(boundary,) * (m - 1))
            else:
                stages.append(rule if rule is not None else boundary_stage(m, boundary))
        o1 = O1Policy(stages=tuple(stages), terminal=terminal, n_messages=m)
        stats = []
        for t in range(1, pb.t1 + 1):
            memo = self.memo[t]
            atoms = sum(map(len, memo)) // self.width
            stats.append({"t": t, "nodes": len(memo), "lookups": self.lookups[t],
                          "memo_hits": self.lookups[t] - len(memo),
                          "mean_atoms": atoms / len(memo) if memo else 0.0})
        return SimpleNamespace(total=total, o1=o1, o2=o2_best_response(o1, pb).policy,
                               nodes=self.nodes, partitions_tried=self.partitions,
                               memo_hits=sum(s["memo_hits"] for s in stats),
                               stage_stats=tuple(stats))


class _P1Solver(_Designer):
    variant = "P1"
    width = 3

    def _root(self):
        p = float(self.pb.prior)
        return _p1_children(((p, p, 1.0 - p),), self.pb.channel1.row_pair(1))([0])

    def _key(self, merged, mass):
        return state_key(list(itertools.chain.from_iterable(merged)), self.width)

    def _state(self, merged, mass):
        return tuple(merged)

    def _stage(self, t, state):
        pre0 = [0.0]
        pre1 = [0.0]
        for _, m0, m1 in state:
            pre0.append(pre0[-1] + m0)
            pre1.append(pre1[-1] + m1)
        read = knot_reader(self.wald, self.pb.t2)

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

        if t == self.pb.t1:
            return len(state), send, None
        child = _p1_children(state, self.pb.channel1.row_pair(t + 1))
        c1 = self.pb.costs.c1

        def blank(blank_groups):
            got = child(blank_groups)
            if got is None:
                return 0.0, None
            return got[1] * (c1 + self._child_value(t + 1, *got)), None

        return len(state), send, blank

    def _advance(self, t, state, labels, choice):
        rule = extract_thresholds([(b, lab) for (b, _, _), lab in zip(state, labels)],
                                  self.pb.n_messages, terminal=(t == self.pb.t1))
        if t == self.pb.t1:
            return rule, None
        child = _p1_children(state, self.pb.channel1.row_pair(t + 1))
        return rule, child([i for i, lab in enumerate(labels) if lab == BLANK])


def run_pricer(atoms, channel_rows, read):
    """``price(lo, hi, msg_lik)``: the stopping-cost flow of the message run
    atoms[lo:hi] of a P2 state's sorted atoms, one scalar read per term."""
    row0, row1 = channel_rows
    terms = []
    starts = [0]
    for _, b2, m0, m1 in atoms:
        if b2 >= 0.0:
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


class _P2Solver(_Designer):
    variant = "P2"
    width = 4

    def _root(self):
        p = float(self.pb.prior)
        phi = ((p, p, p, 1.0 - p),)
        child = _p2_children(phi, list(enumerate(phi)), self.pb.channel1.row_pair(1))
        return child(0, 1), 1.0

    def _key(self, merged, mass):
        return state_key([x for b1, b2, m0, m1 in merged
                          for x in (b1, b2, m0 / mass, m1 / mass)], self.width)

    def _state(self, merged, mass):
        return tuple((b1, b2, m0 / mass, m1 / mass) for b1, b2, m0, m1 in merged)

    def _split(self, state):
        atoms = sorted(state)
        groups = _cluster_positions([a[0] for a in atoms])
        m0s = [a[2] for a in atoms]
        m1s = [a[3] for a in atoms]
        tot0 = left_sum(m0s)
        tot1 = left_sum(m1s)

        def masses(r0, r1):
            return r0 + r1, (r0 / tot0 if tot0 > 0.0 else 0.0,
                             r1 / tot1 if tot1 > 0.0 else 0.0)

        def run(lo, hi):
            return masses(left_sum(m0s[lo:hi]), left_sum(m1s[lo:hi]))

        def region(group_ids):
            sel = [a for g in group_ids for a in atoms[groups[g][0]:groups[g][1]]]
            return (sel, *masses(left_sum(a[2] for a in sel), left_sum(a[3] for a in sel)))

        return atoms, groups, run, region

    def _blank_phase(self, t, blank, lik):
        phi = _observe_p2(blank, lik, self.pb.channel2.row_pair(t))
        active, g2 = _receiver_groups(phi)
        return active, g2, _p2_children(phi, active, self.pb.channel1.row_pair(t + 1))

    def _stage(self, t, state):
        atoms, groups, run, region = self._split(state)
        price = run_pricer(atoms, self.pb.channel2.row_pair(t),
                           knot_reader(self.wald, self.pb.t2 - t))

        def send(lo, hi):
            lo, hi = groups[lo][0], groups[hi - 1][1]
            mass, lik = run(lo, hi)
            return price(lo, hi, lik) if mass > 0.0 else 0.0

        def blank(blank_groups):
            return self._blank_part(t, *region(blank_groups))

        return len(groups), send, blank

    def _blank_part(self, t, blank, mass_b, lik):
        if mass_b <= 0.0:
            return 0.0, None
        act_sorted, g2, child = self._blank_phase(t, blank, lik)
        loss = self.pb.costs.loss
        pd1 = [0.0]
        pd0 = [0.0]
        pcm = [0.0]
        for _, (b1, b2, m0, m1) in act_sorted:
            pd1.append(pd1[-1] + m0 * loss[1][0] + m1 * loss[1][1])
            pd0.append(pd0[-1] + m0 * loss[0][0] + m1 * loss[0][1])
            pcm.append(pcm[-1] + m0 + m1)
        best = None
        best_choice = None
        c1 = self.pb.costs.c1
        c2 = self.pb.costs.c2
        for i, j in itertools.combinations_with_replacement(range(len(g2) + 1), 2):
            # groups i..j-1 continue; only (0, 0) of the empty runs is priced
            if i == j and i > 0:
                continue
            alo, ahi = _continue_span(g2, i, j)
            if i == j:
                charges = empty_run_charge(pd1, pd0, g2)
            else:
                charges = (pd1[alo] - pd1[0]) \
                    + (pd0[len(act_sorted)] - pd0[ahi]) \
                    + c2 * (pcm[ahi] - pcm[alo])
            val = c1 * mass_b + charges \
                + mass_b * self._child_value(t + 1, child(alo, ahi), mass_b)
            if best is None or val < best:
                best = val
                best_choice = (i, j)
        return best, best_choice

    def _advance(self, t, state, labels, choice):
        atoms, groups, _, region = self._split(state)
        rule = extract_thresholds([(atoms[lo][0], lab) for (lo, _), lab in zip(groups, labels)],
                                  self.pb.n_messages, terminal=(t == self.pb.t1))
        if t == self.pb.t1:
            return rule, None
        blank, mass_b, lik = region([g for g, lab in enumerate(labels) if lab == BLANK])
        if mass_b <= 0.0 or choice is None:
            return rule, None
        _, g2, child = self._blank_phase(t, blank, lik)
        return rule, (child(*_continue_span(g2, *choice)), mass_b)


def reference_solve(problem):
    """The depth-first designer optimum of ``problem`` (either variant)."""
    return (_P1Solver if problem.variant == "P1" else _P2Solver)(problem).solve()


# ---------------------------------------------------------------------------
# the numpy stage-1 state and the valuation loop over group counts that
# ``_Designer._root`` and ``_Designer._value_nodes`` replaced


def numpy_root(solver):
    """The child of the prior, pushed by ``push_rows``, sorted and merged as
    rows: (atom rows, [count])."""
    p = np.array([float(solver.pb.prior)])
    post, seen, bad, r0, r1 = push_rows(p, p, 1.0 - p, solver.pb.channel1.row_pair(1))
    if bad.any():
        raise push_error(p, bad)
    rows = np.column_stack((post[0], *[np.repeat(p, len(r0))] * (solver.width - 3),
                            p * r0, (1.0 - p) * r1))[seen[0]]
    rows = merge_rows(rows.take(seq_decomp._sort_order(rows), axis=0),
                      np.arange(len(rows)) == 0, solver.width - 2)[0]
    return rows, np.array([len(rows)])


def group_count_values(solver, t, rows, starts, counts, blanks=None):
    """(values, argmin table entries, group counts) of stage-t nodes, as
    ``_value_nodes`` took them: the nodes of each group count in pieces of
    about ``_PRICED`` entries, consecutive pieces of about that many entries
    sharing a pricing call (the solver's pricer, given the pieces' runs),
    each partition's runs added slot by slot, then its blank branch, and
    each node's first cheapest by ``argmin``."""
    priced = seq_decomp._PRICED
    off = np.concatenate(([0], np.cumsum(counts)))
    ns = np.bincount(np.repeat(np.arange(len(counts)), counts)[starts], minlength=len(counts))
    m, terminal = solver.pb.n_messages, blanks is None
    price = solver._pricer(t, rows, starts, off)
    pieces = []
    for n in sorted(set(ns.tolist())):
        _, runs, slots, _, bidx = seq_decomp._partition_table(n, m, terminal)
        nodes = np.flatnonzero(ns == n)
        size = max(len(slots), len(runs) + 1)
        step = max(1, priced // size)
        pieces += [(nodes[a:a + step], runs, slots, bidx, size * len(nodes[a:a + step]))
                   for a in range(0, len(nodes), step)]
    values, best = np.zeros(len(counts)), np.zeros(len(counts), dtype=np.intp)
    size = np.cumsum([0] + [piece[-1] for piece in pieces])[:-1] // priced
    calls = np.split(np.arange(len(pieces)), np.flatnonzero(np.diff(size)) + 1)
    for call in calls[:len(pieces)]:
        # the call's runs as (node, first group, end group), node by node
        ks = np.concatenate([pieces[i][0] for i in call])
        at = np.repeat(np.arange(len(ks)), np.concatenate(
            [np.full(len(pieces[i][0]), len(pieces[i][1])) for i in call]))
        lo, hi = (np.concatenate([np.tile(pieces[i][1][:, c], len(pieces[i][0])) for i in call])
                  for c in (0, 1))
        run_cost = price(ks, at, lo, hi)
        for i in call.tolist():
            ks, runs, slots, bidx, _ = pieces[i]
            costs = np.concatenate((run_cost[:len(ks) * len(runs)].reshape(len(ks), -1),
                                    np.zeros((len(ks), 1))), 1)
            run_cost = run_cost[len(ks) * len(runs):]
            cost = np.zeros((len(ks), len(slots)))
            for slot in slots.T:
                cost += costs[:, slot]
            if blanks is not None:
                cost += blanks[1][blanks[0][ks, None] + bidx]
            best[ks] = cost.argmin(axis=1)
            values[ks] = cost[np.arange(len(ks)), best[ks]]
    return values, best, ns
