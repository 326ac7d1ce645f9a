"""Exact designer-level solvers for both communication variants.

The designer picks both policies at once.  Conditioned on the public message
history, the joint law of (hypothesis, observer beliefs) is supported on
finitely many atoms; that conditional law is the designer's state.  Both
variants share one sequential decomposition (``_Designer``):

* **search** -- level-synchronous.  Forward, the nodes of stages 1, ...,
  T1 - 1 are expanded in the order they were first reached; each child is
  looked up in the next stage's memo (``_Level``), and a new key makes a
  node there, so the nodes, and the state standing for each key, are those
  a depth-first recursion stores.  Nodes are valued in numpy batches
  (``_value_nodes``): every achievable threshold partition of a node's atom
  groups (the optimal policies are interval-shaped in the beliefs, so this
  is exhaustive) costs its message runs plus, before the last stage, its
  blank branch, and the first cheapest wins.  The last stage, which holds
  most nodes, is valued batch by batch, the earlier stages backward.  The
  table of partitions of n groups, a pure function of n, M and whether the
  stage is the last, is built once per process (``_partition_table``);
* **children** -- a node pushes each of its atoms through observer 1's next
  observation once (``belief.push_atom``) and merges the child of every
  blank set (in variant P2, of every continue interval of observer 2) from
  those pushes;
* **keys** -- each coordinate x of a state's atoms becomes the k with
  round(x, ROUND_DIGITS) == k / 10**ROUND_DIGITS (``_key_ints``), and a
  state's key is its atoms' integers, sorted atom by atom, as int64 bytes;
* **prices** -- message runs are priced through ``WaldSolution.reader``,
  every sum added left to right (``_seq_sums``, ``_left_sum``: numpy's
  pairwise sums, and the builtin sum() from Python 3.12, round
  differently);
* **extraction** -- ``solve()`` walks the stored argmins along the
  all-blank branch into the sender's threshold rules, following the
  lookups the search recorded and rebuilding each child on the path with
  the same ``_expand``; the receiver is ``best_response.o2_best_response``
  of that sender.

Each variant supplies the hooks ``_root``, ``_coords``, ``_groups``,
``_expand``, ``_blank_costs`` and ``_pricer``.  A search that would store
more than ``DESIGNER_NODE_CAP`` nodes raises ``CapacityError``.

A state is a tuple of atoms, held in the search as numpy rows:

* variant P1: (belief1, m0, m1) with m_h = P(belief1 = atom, H = h | blanks
  so far), summing to 1 over atoms and both h.  A blank set's masses are
  normalized, then pushed.
* variant P2: (belief1, belief2, m0, m1), belief2 being -1.0 once
  observer 2 has declared (a merge of such atoms keeps -1.0 exactly, and a
  still-sampling belief2 is at least 0, so declared atoms merge on belief1
  alone).  The blank branch also chooses observer 2's continue interval.
  A child is pushed, merged, normalized.

Totals include the sunk first observations (c1, and c2 in the interleaved
variant), so they compare directly with exact_cost and the brute-force
oracles.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from array import array
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .belief import MERGE_TOL, merge_atoms, push_atom
from .best_response import o2_best_response
from .errors import CapacityError, ImpossibleUpdateError, ProblemSpecError
from .policies import BLANK, O1Policy, O2Policy, TerminalRule, boundary_stage, extract_thresholds
from .wald import solve_wald_finite

ROUND_DIGITS = 10
# the most memo nodes one designer search may store
DESIGNER_NODE_CAP = 500_000
# batch size: about this many atoms per keying batch, and partition costs
# per valuation batch
_BATCH = 1 << 12

_SCALE = 10 ** ROUND_DIGITS
_FLOAT_SCALE = float(_SCALE)
# keyed coordinates must satisfy |x| < 1.7, so |x * 1e10| < 1.7e10 < 2**34:
# the float product is then within 2**-20 of the exact one, and the product
# plus or minus 2**-19, each rounded by at most 2**-20, still bracket it
_KEY_LIMIT = 1.7
_BAND = 2.0 ** -19


# ---------------------------------------------------------------------------
# memo keys


def _key_ints(xs):
    """For each float x of the 1-d array xs, the integer k (int64) with
    round(x, ROUND_DIGITS) == k / 10**ROUND_DIGITS.

    k is rounded (``np.rint``: ties to even, as round() does) from x * 1e10
    plus 2**-19 and from x * 1e10 minus 2**-19, which bracket the exact
    product: where the two agree, so does the exact product, and where a
    half-integer lies between them the exact ``_exact_round`` decides.
    """
    xs = np.asarray(xs, dtype=float)
    bad = ~(np.abs(xs) < _KEY_LIMIT)
    if bad.any():
        raise ProblemSpecError(
            "state", f"coordinate {xs[bad][0]} outside the memo key range (-1.7, 1.7)")
    scaled = xs * _FLOAT_SCALE
    up = np.rint(scaled + _BAND)
    ks = up.astype(np.int64)
    for i in np.flatnonzero(up != np.rint(scaled - _BAND)).tolist():
        ks[i] = _exact_round(float(xs[i]))
    return ks


def _exact_round(x):
    """round(Fraction(x) * 10**ROUND_DIGITS), half to even, without
    importing fractions (about 0.6 MB)."""
    num, den = x.as_integer_ratio()
    q, r = divmod(num * _SCALE, den)
    return q + (2 * r > den or (2 * r == den and q % 2 == 1))


def _state_keys(coords, counts):
    """Memo keys of the states whose atoms' coordinates are the rows of
    ``coords``, counts[i] rows for state i in turn: each state's
    ``_key_ints`` rows, sorted, as int64 bytes."""
    width = coords.shape[1]
    ks = _key_ints(coords.ravel()).reshape(-1, width)
    owner = np.repeat(np.arange(len(counts)), counts)
    order = np.lexsort([ks[:, c] for c in range(width - 1, -1, -1)] + [owner])
    data = ks[order].tobytes()
    ends = (np.cumsum(counts) * (8 * width)).tolist()
    return [data[a:b] for a, b in zip([0] + ends, ends)]


# ---------------------------------------------------------------------------
# variant P1 state transformations


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
        mass = _left_sum(masses[i] for i in atoms)
        if mass <= 0.0:
            return None
        raw = []
        for i in atoms:
            _, m0, m1 = state[i]
            u0 = m0 / mass
            u1 = m1 / mass
            for post, r0, r1 in pushes[i]:
                n0 = u0 * r0
                n1 = u1 * r1
                if n0 != 0.0 or n1 != 0.0:
                    raw.append((post, n0, n1))
        return merge_atoms(raw), mass

    return child


# ---------------------------------------------------------------------------
# variant P2 state transformations


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
                for b, r0, r1 in push_atom(b1, m0, m1, channel_rows)]
    stop = []
    cont = []
    at = [0]  # active[a]'s pushes are stop/cont[at[a]:at[a + 1]]
    for _, (b1, b2, m0, m1) in active:
        pushed = [(b, m0 * r0, m1 * r1) for b, r0, r1 in push_atom(b1, m0, m1, channel_rows)]
        stop += [(b, -1.0, w0, w1) for b, w0, w1 in pushed]
        cont += [(b, b2, w0, w1) for b, w0, w1 in pushed]
        at.append(len(stop))

    def child(lo, hi):
        return _merge_p2(declared + stop[:at[lo]] + cont[at[lo]:at[hi]] + stop[at[hi]:])

    return child


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


def _nodes(rows, starts, counts):
    """Each node's atoms (lists) and groups ((lo, hi) slices of them) from
    grouped atom rows (``_groups``), counts[i] rows for node i in turn."""
    ends = np.cumsum(counts).tolist()
    for a, b in zip([0] + ends, ends):
        cuts = np.flatnonzero(starts[a:b]).tolist() + [b - a]
        yield rows[a:b].tolist(), list(zip(cuts, cuts[1:]))


@functools.lru_cache(maxsize=None)
def _partition_table(n_groups, n_messages, terminal, cap=DESIGNER_NODE_CAP):
    """Every distinct threshold partition of n_groups sorted atom groups, as
    (parts, runs, slots, blanks, blank_of); built once per process, a pure
    function of its arguments, so every part of it is read-only.  More than
    ``cap`` cut or run position tuples raise ``CapacityError`` before any is
    built; ``cap`` is bound at import, so lowering DESIGNER_NODE_CAP later
    bounds the search nodes only.

    ``parts[a]`` holds partition a's (lo, hi) group slice per symbol, symbol
    M-1 first, None for an unused symbol; groups no slice covers are blank
    (there are none at the terminal stage).  Partitions come in the order
    the cut (terminal) or run (stage) positions first produce each.
    ``runs`` holds the distinct slices ((r, 2) group bounds), ``slots[a]``
    partition a's slices as indices into them (r past its last), ``blanks``
    the distinct blank group sets in first-use order and ``blank_of[a]``
    partition a's index into them.
    """
    k = n_messages - 1 if terminal else 2 * n_messages
    if (size := math.comb(n_groups + k, k)) > cap:
        raise CapacityError(size, cap, "designer partition table")
    combos = itertools.combinations_with_replacement(range(n_groups + 1), k)
    # symbol M-1-i spans (0, *c, n_groups)[i:i + 2] at the terminal stage, else c[2i:2i + 2]
    cands = (zip((0, *c), (*c, n_groups)) if terminal else zip(c[::2], c[1::2]) for c in combos)
    parts = tuple(dict.fromkeys(tuple(s if s[0] < s[1] else None for s in cand)
                                for cand in cands))
    used = [[s for s in part if s is not None] for part in parts]
    runs = {r: i for i, r in enumerate(dict.fromkeys(itertools.chain.from_iterable(used)))}
    blank_sets = [tuple(g for g in range(n_groups) if not any(lo <= g < hi for lo, hi in u))
                  for u in used]
    blanks = {b: i for i, b in enumerate(dict.fromkeys(blank_sets))}
    arrays = (np.array(list(runs), dtype=np.intp).reshape(-1, 2),
              np.array([[runs[r] for r in u] + [len(runs)] * (n_messages - len(u)) for u in used],
                       dtype=np.intp).reshape(-1, n_messages),
              np.array([blanks[b] for b in blank_sets], dtype=np.intp))
    for a in arrays:
        a.setflags(write=False)
    return parts, arrays[0], arrays[1], tuple(blanks), arrays[2]


def _left_sum(xs):
    """The floats xs added left to right, as the builtin sum() adds them
    before Python 3.12 (from 3.12 it compensates)."""
    return functools.reduce(operator.add, xs, 0.0)


def _seq_sums(values, start, length):
    """sum(values[s:s + n]) for each pair (s, n) of the arrays start and
    length, added left to right as a scalar loop adds."""
    out = np.zeros(len(start))
    for j in range(int(length.max(initial=0))):
        live = np.flatnonzero(length > j)
        out[live] += values[start[live] + j]
    return out


def _record():
    """An empty expansion record: per node its first blank entry (``start``)
    and its children's first lookup (``first``); the rest is the variant's.
    Typed arrays: a stage can hold millions of entries."""
    return SimpleNamespace(start=array("q"), first=array("q"), mass=array("d"),
                           pos=array("q"), charges=array("d"), runs=array("q"))


def _ratio(num, den):
    """num / den, and 0.0 where den is not positive."""
    return np.divide(num, den, out=np.zeros(len(num)), where=den > 0.0)


def _posteriors(num, den):
    """num / den, checked as the scalar loops check one posterior at a
    time: the first that fails raises ImpossibleUpdateError if its den is
    not positive, else ProblemSpecError (outside [0, 1])."""
    out = _ratio(num, den)
    wrong = ~(den > 0.0) | ~((out >= 0.0) & (out <= 1.0))
    if wrong.any():
        i = int(np.argmax(wrong))
        if den[i] <= 0.0:
            raise ImpossibleUpdateError("designer state inconsistent with its message law")
        raise ProblemSpecError("belief", f"{float(num[i]) / float(den[i])} outside [0, 1]")
    return out


@dataclass
class DesignerSolution:
    """Output of solve_p1 / solve_p2.

    ``o2`` is ``o2_best_response(o1, problem).policy``.  ``stage_stats``
    holds one dict per stage t = 1..T1: memo ``nodes`` stored at t, memo
    ``lookups`` of stage-t states, the ``memo_hits`` among them, and the
    ``mean_atoms`` per node.  ``search_s`` is ``enumerate_s`` (building and
    keying nodes) plus ``value_s`` (pricing them).
    """

    problem: object
    total: float
    o1: O1Policy
    o2: O2Policy
    nodes: int
    partitions_tried: int
    memo_hits: int
    stage_stats: tuple
    search_s: float
    enumerate_s: float
    value_s: float
    extract_s: float


class _Level:
    """The memo lookups of stage t, keyed and deduplicated in batches in
    the order they are made.  A new key makes a node, kept as grouped atom
    rows (``_groups``) until it is valued: at the last stage with its batch,
    before it backward.  ``index`` holds the node of every lookup."""

    def __init__(self, solver, t):
        self.solver, self.t = solver, t
        self.pending, self.size, self.made = [], 0, 0
        self.index, self.rows, self.valued = [], [], []

    def add(self, merged, mass):
        """Look up a child (merged atoms, mass); returns the lookup's place."""
        self.pending.append((merged, mass))
        self.size += len(merged)
        self.made += 1
        if self.size >= _BATCH:
            self.flush()
        return self.made - 1

    def flush(self):
        s, memo = self.solver, self.solver.memo[self.t]
        rows, counts = s._coords(self.pending)
        index, fresh = [], []
        for i, key in enumerate(_state_keys(rows, counts)):
            node = memo.get(key)
            if node is None:
                s.nodes += 1
                if s.nodes > DESIGNER_NODE_CAP:
                    raise CapacityError(s.nodes, DESIGNER_NODE_CAP, "designer search nodes")
                node = memo[key] = len(memo)
                fresh.append(i)
            index.append(node)
        s.lookups[self.t] += len(index)
        self.index.append(np.array(index, dtype=np.intp))
        new = np.isin(np.arange(len(counts)), fresh)
        rows, counts = rows[np.repeat(new, counts)], counts[new]
        nodes = (*s._groups(rows, counts), counts)
        if self.t < s.pb.t1:
            self.rows.append(nodes)
        else:
            start = time.perf_counter()
            self.valued.append(s._value_nodes(self.t, *nodes))
            s.value_s += time.perf_counter() - start
        self.pending, self.size = [], 0

    def finish(self):
        """Flush the last batch and join the batches."""
        if self.pending:
            self.flush()
        self.index = np.concatenate(self.index)
        if self.valued:
            self.values, self.best, self.ns = map(np.concatenate, zip(*self.valued))
        else:
            self.rows = tuple(map(np.concatenate, zip(*self.rows)))


class _Designer:
    """Level-synchronous partition search and policy walk shared by both
    variants.  Subclasses set ``variant`` and ``width`` (coordinates per
    atom, all of them keyed) and provide the hooks named in the module
    docstring."""

    variant = None
    width = None

    def __init__(self, problem):
        if problem.variant != self.variant:
            raise ProblemSpecError(
                "variant", f"solve_{self.variant.lower()} got a {problem.variant} problem")
        self.pb = problem
        # memo[t] maps a stage-t state key to the node's index in its stage
        self.memo = [{} for _ in range(problem.t1 + 1)]
        self.lookups = [0] * (problem.t1 + 1)
        self.nodes = 0
        self.partitions = 0
        self.value_s = 0.0
        # values only; the receiver's stopping table is its best response's
        self.wald = solve_wald_finite(problem.channel2, problem.costs, problem.t2,
                                      eval_points=(problem.prior,))

    def _coords(self, lookups):
        """The atom rows of a batch of children (merged atoms, mass) and
        their counts."""
        counts = np.array([len(merged) for merged, _ in lookups], dtype=np.intp)
        rows = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(
            merged for merged, _ in lookups)), float)
        rows = rows.reshape(int(counts.sum()), -1)
        return rows, counts

    def _search(self):
        """Every reachable node, stage by stage, then their values; returns
        the levels of stages 1..T1 (at 1..T1).  The solver keeps no level:
        a level refers to the solver, and no cycle keeps a search alive."""
        level = _Level(self, 1)
        level.add(*self._root())
        level.finish()
        levels = [None, level]
        for t in range(1, self.pb.t1):
            nxt = _Level(self, t + 1)
            level.rec = _record()
            for atoms, groups in _nodes(*level.rows):
                level.rec.first.append(nxt.made)
                self._expand(t, atoms, groups, level.rec, nxt.add)
            nxt.finish()
            levels.append(nxt)
            level = nxt
        start = time.perf_counter()
        for t in range(self.pb.t1 - 1, 0, -1):
            level, child = levels[t], levels[t + 1]
            cost, level.choices = self._blank_costs(level.rec, child.values[child.index])
            level.values, level.best, level.ns = self._value_nodes(
                t, *level.rows, (np.array(level.rec.start, dtype=np.intp), cost))
        self.value_s += time.perf_counter() - start
        return levels

    def _value_nodes(self, t, rows, starts, counts, blanks=None):
        """Values of stage-t nodes given as grouped atom rows (``_groups``),
        counts[i] for node i in turn.  Before the last stage ``blanks`` holds
        each node's first blank entry and every entry's cost.  Returns
        (values, argmin table entries, group counts)."""
        off = np.concatenate(([0], np.cumsum(counts)))
        ns = np.bincount(np.repeat(np.arange(len(counts)), counts)[starts],
                         minlength=len(counts))
        gpos = np.flatnonzero(starts)
        first = np.cumsum(ns) - ns  # node k's groups start at atoms gpos[first[k]:]
        price = self._pricer(t, rows, off)
        values, best = np.zeros(len(counts)), np.zeros(len(counts), dtype=np.intp)
        for n in sorted(set(ns.tolist())):
            _, runs, slots, _, bidx = _partition_table(n, self.pb.n_messages, blanks is None)
            nodes = np.flatnonzero(ns == n)
            self.partitions += len(slots) * len(nodes)
            step = max(1, _BATCH // max(len(slots), len(runs) * (n + 1)))
            for ks in np.split(nodes, range(step, len(nodes), step)):
                # node k's group g spans atoms bounds[k, g]:bounds[k, g + 1]
                bounds = np.concatenate((gpos[first[ks, None] + np.arange(n)],
                                         off[ks + 1, None]), axis=1)
                run_cost = np.concatenate((price(ks, bounds, runs), np.zeros((len(ks), 1))), 1)
                # each partition's runs, then its blank branch, added in turn
                cost = np.zeros((len(ks), len(slots)))
                for slot in slots.T:
                    cost += run_cost[:, slot]
                if blanks is not None:
                    cost += blanks[1][blanks[0][ks, None] + bidx]
                best[ks] = cost.argmin(axis=1)
                values[ks] = cost[np.arange(len(ks)), best[ks]]
        return values, best, ns

    def _stage_stats(self):
        out = []
        for t in range(1, self.pb.t1 + 1):
            memo = self.memo[t]
            atoms = sum(map(len, memo)) // (8 * self.width)
            out.append({"t": t, "nodes": len(memo), "lookups": self.lookups[t],
                        "memo_hits": self.lookups[t] - len(memo),
                        "mean_atoms": atoms / len(memo) if memo else 0.0})
        return tuple(out)

    def solve(self):
        """Optimal pair: the sender by the search and a walk of its stored
        argmins, the receiver as that sender's best response."""
        pb = self.pb
        m = pb.n_messages
        boundary = pb.costs.declare_boundary
        start = time.perf_counter()
        levels = self._search()
        searched = time.perf_counter()
        inner = float(levels[1].values[levels[1].index[0]])
        total = (pb.costs.c1 + pb.costs.c2 if self.variant == "P2" else pb.costs.c1) + inner

        # the all-blank path: stage t's node i, and child, the state that the
        # path's stage t - 1 node expands to (node i holds the first state of
        # its key, which can differ from it by roundoff)
        i, child = int(levels[1].index[0]), self._root()
        stages = []
        for t in range(1, pb.t1 + 1):
            rule = None
            if child is not None:
                level = levels[t]
                rows, counts = self._coords([child])
                atoms, groups = next(_nodes(*self._groups(rows, counts), counts))
                n, a = int(level.ns[i]), int(level.best[i])
                parts, *_, blank_of = _partition_table(n, m, t == pb.t1)
                labels = [BLANK] * n
                for z, part in zip(range(m - 1, -1, -1), parts[a]):
                    if part is not None:
                        labels[part[0]:part[1]] = [z] * (part[1] - part[0])
                rule = extract_thresholds([(atoms[lo][0], lab) for (lo, _), lab in
                                           zip(groups, labels)], m, terminal=(t == pb.t1))
                child = None
                pos = -1 if t == pb.t1 else \
                    int(level.choices[level.rec.start[i] + blank_of[a]])
                if pos >= 0:
                    kids = []  # each add returns its place, as _Level.add does
                    self._expand(t, atoms, groups, _record(),
                                 lambda *kid: kids.append(kid) or len(kids) - 1)
                    child = kids[pos - level.rec.first[i]]
                    i = int(levels[t + 1].index[pos])
            # once the all-blank branch dies, later rules are never used
            if t == pb.t1:
                terminal = rule if rule is not None else \
                    TerminalRule(cuts=(boundary,) * (m - 1))
            else:
                stages.append(rule if rule is not None else boundary_stage(m, boundary))
        o1 = O1Policy(stages=tuple(stages), terminal=terminal, n_messages=m)
        o2 = o2_best_response(o1, pb).policy
        stage_stats = self._stage_stats()
        enumerate_s = searched - start - self.value_s
        return DesignerSolution(problem=pb, total=total, o1=o1, o2=o2,
                                nodes=self.nodes, partitions_tried=self.partitions,
                                memo_hits=sum(s["memo_hits"] for s in stage_stats),
                                stage_stats=stage_stats, search_s=enumerate_s + self.value_s,
                                enumerate_s=enumerate_s, value_s=self.value_s,
                                extract_s=time.perf_counter() - searched)


# ---------------------------------------------------------------------------
# variant P1 solver


class _P1Solver(_Designer):
    variant = "P1"
    width = 3

    def _root(self):
        p = float(self.pb.prior)
        # the prior's masses sum to exactly 1.0, so they push unchanged
        return _p1_children(((p, p, 1.0 - p),), self.pb.channel1.row_pair(1))([0])

    def _expand(self, t, atoms, groups, rec, add):
        child = _p1_children(atoms, self.pb.channel1.row_pair(t + 1))
        rec.start.append(len(rec.pos))
        for blank_groups in _partition_table(len(atoms), self.pb.n_messages, False)[3]:
            got = child(blank_groups)
            rec.mass.append(0.0 if got is None else got[1])
            rec.pos.append(-1 if got is None else add(*got))

    def _blank_costs(self, rec, child_values):
        """Each blank set's cost, its mass times c1 plus its child's value,
        and its child's lookup (-1: no mass)."""
        pos = np.array(rec.pos, dtype=np.intp)
        cost = np.array(rec.mass) * (self.pb.costs.c1 + child_values[pos])
        return np.where(pos >= 0, cost, 0.0), pos

    def _groups(self, rows, counts):
        # every atom of a P1 state is a group of its own
        return rows, np.ones(len(rows), dtype=bool)

    def _pricer(self, t, rows, off):
        read = self.wald.reader(self.pb.t2)

        def price(ks, bounds, runs):
            # each node's prefix sums of m0 and m1 over its atoms
            pre = np.zeros((2, len(ks), bounds.shape[1]))
            pre[:, :, 1:] = np.cumsum(rows[bounds[:, :-1], 1:].transpose(2, 0, 1), axis=2)
            rm0, rm1 = pre[:, :, runs[:, 1]] - pre[:, :, runs[:, 0]]
            mass = rm0 + rm1
            live = ~(mass <= 0.0)
            out = np.zeros(mass.shape)
            out[live] = mass[live] * read(_posteriors(rm0[live], mass[live]))
            return out

        return price


def solve_p1(problem):
    """Optimal pair for the wait-then-sample variant, by exact recursion."""
    return _P1Solver(problem).solve()


# ---------------------------------------------------------------------------
# variant P2 solver


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
    tot0 = _left_sum(a[2] for a in atoms)
    tot1 = _left_sum(a[3] for a in atoms)

    def region(group_ids):
        sel = [a for g in group_ids for a in atoms[groups[g][0]:groups[g][1]]]
        r0 = _left_sum(a[2] for a in sel)
        r1 = _left_sum(a[3] for a in sel)
        return sel, r0 + r1, (r0 / tot0 if tot0 > 0.0 else 0.0,
                              r1 / tot1 if tot1 > 0.0 else 0.0)

    return region


class _P2Solver(_Designer):
    variant = "P2"
    width = 4

    def _root(self):
        p = float(self.pb.prior)
        phi = ((p, p, p, 1.0 - p),)
        child = _p2_children(phi, list(enumerate(phi)), self.pb.channel1.row_pair(1))
        # the prior's masses sum to 1.0, so normalizing leaves them unchanged
        return child(0, 1), 1.0

    def _coords(self, lookups):
        rows, counts = super()._coords(lookups)
        mass = np.repeat(np.array([mass for _, mass in lookups], dtype=float), counts)
        rows[:, 2:] /= mass[:, None]
        return rows, counts

    def _expand(self, t, atoms, groups, rec, add):
        """Looks up the child of every blank set and continue run; records
        per blank set its number of continue runs (0: no mass), per continue
        run the blank mass, observer 2's stop losses or c2 continue charges
        at this stage, and the child's lookup."""
        region = _regions(atoms, groups)
        loss = self.pb.costs.loss
        c2 = self.pb.costs.c2
        rec.start.append(len(rec.runs))
        for blank_groups in _partition_table(len(groups), self.pb.n_messages, False)[3]:
            blank, mass_b, lik = region(blank_groups)
            if mass_b <= 0.0:
                rec.runs.append(0)
                continue
            # observer 2's step, then the children of phi
            phi = _observe_p2(blank, lik, self.pb.channel2.row_pair(t))
            act_sorted, g2 = _receiver_groups(phi)
            child = _p2_children(phi, act_sorted, self.pb.channel1.row_pair(t + 1))
            # groups i..j-1 continue; of the empty runs only (0, 0) is priced
            spans = [(0, 0)] + [(g2[i][0], g2[j - 1][1])
                                for i, j in itertools.combinations(range(len(g2) + 1), 2)]
            rec.runs.append(len(spans))
            # prefix sums of declare-1 / declare-0 losses and continue mass
            # over the active atoms in belief2 order
            pd1, pd0, pcm = [0.0], [0.0], [0.0]
            for _, (b1, b2, m0, m1) in act_sorted:
                pd1.append(pd1[-1] + m0 * loss[1][0] + m1 * loss[1][1])
                pd0.append(pd0[-1] + m0 * loss[0][0] + m1 * loss[0][1])
                pcm.append(pcm[-1] + m0 + m1)
            for alo, ahi in spans:
                rec.charges.append((pd1[alo] - pd1[0]) + (pd0[len(act_sorted)] - pd0[ahi])
                                   + c2 * (pcm[ahi] - pcm[alo]))
                rec.mass.append(mass_b)
                rec.pos.append(add(child(alo, ahi), mass_b))

    def _blank_costs(self, rec, child_values):
        """Each blank set's cost, c1 plus the stage's charges plus the
        child's value times the blank mass at its first cheapest continue
        run, and that run's child's lookup (-1: no mass)."""
        mass = np.array(rec.mass)
        pos = np.array(rec.pos, dtype=np.intp)
        val = self.pb.costs.c1 * mass + np.array(rec.charges) + mass * child_values[pos]
        runs = np.array(rec.runs, dtype=np.intp)
        low, arg = np.zeros(len(runs)), np.full(len(runs), -1)
        live = np.flatnonzero(runs > 0)
        starts = (np.cumsum(runs) - runs)[live]
        hits = np.flatnonzero(val == np.repeat(np.minimum.reduceat(val, starts), runs[live]))
        first = hits[np.searchsorted(hits, starts)]
        low[live], arg[live] = val[first], pos[first]
        return low, arg

    def _groups(self, rows, counts):
        """Each node's atoms sorted as sorted(state) sorts them, and flags
        on the first atom of each belief1 group (``_cluster_positions``)."""
        owner = np.repeat(np.arange(len(counts)), counts)
        rows = rows[np.lexsort((*rows.T[::-1], owner))]
        starts = np.ones(len(rows), dtype=bool)
        starts[1:] = (rows[1:, 0] - rows[:-1, 0] > MERGE_TOL) | (owner[1:] != owner[:-1])
        return rows, starts

    def _pricer(self, t, rows, off):
        """Stopping-cost flows of message runs: a run's atoms send a message
        whose likelihood pair is the run's share of each hypothesis's mass,
        the still-sampling ones absorb it with one fresh observation, and
        the knot reader prices each posterior."""
        read = self.wald.reader(self.pb.t2 - t)
        row0, row1 = (np.array(r, dtype=float) for r in self.pb.channel2.row_pair(t))
        _, b2, m0, m1 = rows.T
        # each sampling atom's terms (w, b2 * row0[y], (1 - b2) * row1[y]),
        # one per fresh observation y of weight w > 0; atom a's are
        # terms[at[a]:at[a + 1]]
        w = m0[:, None] * row0 + m1[:, None] * row1
        live = (b2 >= 0.0)[:, None] & (w > 0.0)
        tw, tu0, tu1 = w[live], (b2[:, None] * row0)[live], ((1.0 - b2)[:, None] * row1)[live]
        at = np.concatenate(([0], np.cumsum(live.sum(axis=1))))
        tot0, tot1 = (_seq_sums(m, off[:-1], np.diff(off)) for m in (m0, m1))

        def price(ks, bounds, runs):
            lo = bounds[:, runs[:, 0]].ravel()
            hi = bounds[:, runs[:, 1]].ravel()
            r0, r1 = (_seq_sums(m, lo, hi - lo) for m in (m0, m1))
            node = np.repeat(ks, len(runs))
            go = np.flatnonzero(r0 + r1 > 0.0)
            mz0, mz1 = _ratio(r0[go], tot0[node[go]]), _ratio(r1[go], tot1[node[go]])
            # run s has cnt[s] terms, pairs begin[s]:begin[s] + cnt[s]
            cnt = at[hi[go]] - at[lo[go]]
            begin = np.cumsum(cnt) - cnt
            seg = np.repeat(np.arange(len(go)), cnt)
            term = np.arange(len(seg)) + np.repeat(at[lo[go]] - begin, cnt)
            num = tu0[term] * mz0[seg]
            belief = _posteriors(num, num + tu1[term] * mz1[seg])
            out = np.zeros(len(lo))
            out[go] = _seq_sums(tw[term] * read(belief), begin, cnt)
            return out.reshape(len(ks), len(runs))

        return price


def solve_p2(problem):
    """Optimal pair for the interleaved variant, by exact recursion."""
    return _P2Solver(problem).solve()
