"""Exact designer-level solvers for both communication variants.

The designer picks both policies at once.  Conditioned on the public message
history, the joint law of (hypothesis, observer beliefs) is supported on
finitely many atoms; that conditional law is the designer's state.  Both
variants share one sequential decomposition (``_Designer``):

* **search** -- level-synchronous.  Forward, the nodes of stages 1, ...,
  T1 - 1 are expanded in the order they were first reached; each child is
  looked up in the memo of the next stage's record (``_Level``), and a new
  key makes a node there, so the nodes, and the state standing for each
  key, are those a depth-first recursion stores.  Nodes are valued in
  numpy batches (``_value_nodes``): every achievable threshold partition
  of a node's atom groups (the optimal policies are interval-shaped in
  the beliefs, so this is exhaustive) costs its message runs plus, before
  the last stage, its blank branch, and the first cheapest wins.  The
  last stage, which holds most nodes, is valued a lookup batch (a build
  chunk's children) at a time, the earlier stages backward, one valuation
  each; a valuation takes its nodes by group count in batches of about
  ``_PRICED`` runs and partitions, one pricing call per batch, and adds
  each group count's partition costs as one array.  The table of
  partitions of n groups, a pure function of n, M and whether the stage
  is the last, is built once per process (``_partition_table``);
* **children** -- the stage-1 state, the prior's scalar push
  (``belief.push_atom``), is built once per solve, later ones a stage at
  a time, a chunk of nodes at a time, in numpy arrays (``_build``): every
  node's atoms pass observer 1's next observation once
  (``belief.push_rows``), and each blank set's child (in variant P2, after
  observer 2's step, each continue interval's) is a subset of those
  pushes, sorted once before the subsets are taken, as sorted() sorts
  tuples (``_sort_order``: one stable argsort of each row's
  order-preserving byte key), and merged as ``belief.merge_atoms`` merges
  (``belief.merge_rows``), with no Python object per child; rows are
  gathered with ``ndarray.take``, which copies rows far faster than fancy
  indexing does.  A chunk's children are merged and looked up in one
  batch (in P2 split only past ``_CHILDREN`` candidate atoms, which only
  unusually wide nodes reach), since a batch pays a fixed number of numpy
  calls whatever its size: ``merge_rows`` takes one lockstep step per row
  of its longest merge chain;
* **keys** -- each coordinate x of a state's atoms becomes the k with
  round(x, ROUND_DIGITS) == k / 10**ROUND_DIGITS (``_key_ints``: x * 1e10
  rounded once, the exact rational rounding only next to a half-integer),
  and a state's key is its atoms' integers, sorted atom by atom
  (``_sort_order``, skipped when one pass finds every state's rows in
  order), as int64 bytes, looked up in the memo a batch at a time; only
  the new nodes' atoms are then sorted as sorted() sorts them and grouped
  (``_groups``);
* **prices** -- message runs are priced through ``WaldSolution.reader``,
  every sum added left to right: prefix sums a row of nodes at a time, sums
  over runs and their terms by ``np.bincount``, one C pass that adds each
  weight into its segment's bin in input order (``_seg_sums``).  Pairwise
  sums (``ndarray.sum``; ``np.add.reduceat``'s order is not documented),
  differences of ``np.cumsum`` and the builtin sum() from Python 3.12 round
  differently, so none of them is used.  In P2 a valuation lists its
  atoms' fresh-observation terms once, by flat ``take``, prices the runs
  of a call in batches of about ``_PRICED`` atoms and terms, and checks
  each batch's posteriors with three reductions; arrays indexed by
  observation run along the atoms, since numpy pays per inner loop when
  a short axis of two or three symbols is innermost;
* **extraction** -- ``solve()`` walks the stored argmins along the
  all-blank branch into the sender's threshold rules, following the
  lookups the search recorded and rebuilding each child on the path with
  the same ``_build``; the receiver is that sender's best response
  (``best_response._o2_response``) against the search's own knot table.

Each variant supplies the hooks ``_groups``, ``_children``,
``_blank_costs`` and ``_pricer``.  A search that would store
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
import time
from array import array
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .belief import MERGE_TOL, merge_rows, push_atom, push_error, push_rows
from .best_response import _o2_response, immediate_sender_policy
from .errors import CapacityError, ImpossibleUpdateError, ProblemSpecError
from .policies import BLANK, O1Policy, O2Policy, extract_thresholds
from .wald import solve_wald_finite

ROUND_DIGITS = 10
# the most memo nodes one designer search may store
DESIGNER_NODE_CAP = 500_000
# P2: at most about this many candidate atoms per lookup batch of children;
# a build chunk's candidates pass it only for unusually wide nodes
_CHILDREN = 1 << 16
# a valuation batch's arrays hold about this many entries
_PRICED = 1 << 14

_SCALE = 10 ** ROUND_DIGITS
_FLOAT_SCALE = float(_SCALE)
# keyed coordinates must satisfy |x| < 1.7, so |x * 1e10| < 1.7e10 < 2**34:
# the float product is then within 2**-20 of the exact one, and the product
# plus or minus 2**-19, each rounded by at most 2**-20, still bracket it
_KEY_LIMIT = 1.7
_BAND = 2.0 ** -19


# ---------------------------------------------------------------------------
# row order

_SIGN = np.int64(-1 << 63)


def _sort_order(*keys):
    """The stable order of rows by their columns, as sorted() sorts the row
    tuples with their indices as the last key.  ``keys`` holds the columns
    in turn, each a 1-d array or a 2-d block of them: float (no NaN, -0.0
    ranking equal to 0.0), integer or bool.

    Each column becomes 64-bit codes whose unsigned order is its order (a
    float's bits, after x + 0.0 turns -0.0 into 0.0, with the sign bit set,
    or all bits inverted where it is negative; an integer with its sign bit
    flipped), stored big-endian, so each row reads as one byte string whose
    byte order is the row order, and one stable argsort sorts those.
    """
    blocks = [k[:, None] if k.ndim == 1 else k for k in keys]
    key = np.empty((len(blocks[0]), sum(b.shape[1] for b in blocks)), dtype=">i8")
    at = 0
    for b in blocks:
        # codes are made in the block's own layout, then stored big-endian
        if b.dtype.kind == "f":
            code = (b + 0.0).view(np.int64)
            code ^= (code >> 63) | _SIGN
        else:
            code = np.bitwise_xor(b, _SIGN, dtype=np.int64)
        key[:, at:at + b.shape[1]] = code
        at += b.shape[1]
    return np.argsort(key.view(f"V{8 * at}").ravel(), kind="stable")


# ---------------------------------------------------------------------------
# memo keys


def _key_ints(xs):
    """For each float x of the 1-d array xs, the integer k (int64) with
    round(x, ROUND_DIGITS) == k / 10**ROUND_DIGITS.

    k is x * 1e10 rounded (``np.rint``: ties to even, as round() does).
    That float product is within 2**-20 of the exact one, so the two round
    alike unless it lies within 2**-19 of a half-integer; there the exact
    ``_exact_round`` decides.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.abs(xs).max(initial=0.0) < _KEY_LIMIT:
        bad = ~(np.abs(xs) < _KEY_LIMIT)
        raise ProblemSpecError(
            "state", f"coordinate {xs[bad][0]} outside the memo key range (-1.7, 1.7)")
    scaled = xs * _FLOAT_SCALE
    near = np.rint(scaled)
    ks = near.astype(np.int64)
    np.subtract(scaled, near, out=near)
    for i in np.flatnonzero(np.abs(near, out=near) >= 0.5 - _BAND).tolist():
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
    ends = counts.cumsum()
    # the children's builders often give every state's rows in order (the
    # first column in which a row differs from the row before never
    # falls; a state's first row may fall), and then the sort is skipped
    falls = np.sign(ks[1:] - ks[:-1]) @ (1 << np.arange(width - 1, -1, -1)) < 0
    falls[ends[:-1] - 1] = False
    if falls.any():
        ks = ks.take(_sort_order(np.arange(len(counts)).repeat(counts), ks), axis=0)
    data = ks.tobytes()
    ends = (ends * (8 * width)).tolist()
    return [data[a:b] for a, b in zip([0] + ends, ends)]


# ---------------------------------------------------------------------------
# children, built a stage at a time


@functools.lru_cache(maxsize=None)
def _blank_bits(n_groups, n_messages):
    """The blank group sets of ``_partition_table(n_groups, n_messages,
    False)`` as int64 bit masks (n_groups < 63: larger tables pass the cap)."""
    return np.array([sum(1 << g for g in b) for b in
                     _partition_table(n_groups, n_messages, False)[3]], dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _span_pairs(n_groups):
    """Continue runs (i, j), receiver groups i..j-1 continuing: (0, 0), the
    one empty run priced, then combinations(range(n_groups + 1), 2); those
    with j <= G, in this order, are the runs over G <= n_groups groups."""
    return np.array([(0, 0), *itertools.combinations(range(n_groups + 1), 2)], dtype=np.intp)


# ---------------------------------------------------------------------------
# shared solver plumbing


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


def _segments(start, length):
    """(seg, idx): the elements of values[s:s + n] for each pair (s, n) of
    the arrays start and length in turn, each as its pair's place seg and
    its index idx into values."""
    seg = np.arange(len(start)).repeat(length)
    begin = length.cumsum() - length
    return seg, np.arange(len(seg)) + (start - begin).repeat(length)


def _spans(sizes, cap):
    """Index ranges (a, b) over ``sizes``, cut where their sum passes k * cap."""
    q = sizes.cumsum() // cap
    cut = [0, *((q[1:] != q[:-1]).nonzero()[0] + 1).tolist(), len(sizes)]
    return list(zip(cut[:-1], cut[1:]))


def _seg_sums(seg, weights, n):
    """The sums of weights by seg = 0..n-1, each added left to right as a
    scalar loop adds: np.bincount adds each weight into its bin in input
    order, from 0.0.  ndarray.sum adds pairwise, np.add.reduceat's order is
    not documented and differences of np.cumsum round differently, so none
    of them stands in."""
    # given an empty weights array, bincount returns int64 zeros
    return np.bincount(seg, weights=weights, minlength=n).astype(float, copy=False)


def _ratio(num, den):
    """num / den, and 0.0 where den is not positive."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den > 0.0)


def _posteriors(num, den):
    """num / den, checked as the scalar loops check one posterior at a
    time: the first that fails raises ImpossibleUpdateError if its den is
    not positive, else ProblemSpecError (outside [0, 1])."""
    if den.min(initial=1.0) > 0.0:
        out = num / den
        if out.min(initial=0.0) >= 0.0 and out.max(initial=0.0) <= 1.0:
            return out
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
    ``mean_atoms`` per node.  ``priced_runs`` counts the message runs priced
    (a node's runs, once per node) and ``priced_terms`` the fresh
    observations of still-sampling atoms priced in them (0 in variant P1).
    ``search_s`` is ``enumerate_s`` plus ``value_s`` (pricing nodes), and
    ``enumerate_s`` is ``build_s`` (building children) plus ``key_s``
    (keying and deduplicating them, and grouping the new nodes' atoms).
    ``stage_seconds`` holds them per stage t = 1..T1 (``t``, ``build_s``
    building the stage-t states, ``key_s``, ``value_s``) with the stage's
    ``batches`` (memo lookup batches, ``_Level.add`` calls) and
    ``valuations`` (``_value_nodes`` calls: one per batch at the last stage,
    one before it), apart from ``stage_stats``, whose counts a depth-first
    search reproduces.
    """

    total: float
    o1: O1Policy
    o2: O2Policy
    nodes: int
    partitions_tried: int
    memo_hits: int
    stage_stats: tuple
    priced_runs: int
    priced_terms: int
    search_s: float
    enumerate_s: float
    build_s: float
    key_s: float
    value_s: float
    extract_s: float
    stage_seconds: tuple


class _Level:
    """Stage t of the search.  Its lookups are keyed and deduplicated in
    ``memo`` (a state key to its node's index in the stage) batch by batch
    in the order they are made; a new key makes a node, kept as grouped
    atom rows (``_groups``) until it is valued: at the last stage in the
    batch that makes it, before it backward.  ``index`` holds the node of
    every lookup; ``build_s``, ``key_s`` and ``value_s`` the seconds spent
    building, keying and valuing the stage, ``batches`` and ``valuations``
    its ``add`` and ``_value_nodes`` calls."""

    def __init__(self, solver, t):
        self.solver, self.t = solver, t
        self.memo, self.lookups = {}, 0
        self.index, self.rows, self.valued = [], [], []
        self.build_s = self.key_s = self.value_s = 0.0
        self.batches = self.valuations = 0

    def add(self, rows, counts):
        """Look up a batch of children given as atom rows, counts[i] rows
        for child i in turn; at the last stage, value the new nodes."""
        s, memo = self.solver, self.memo
        start = time.perf_counter()
        self.batches += 1
        keys = _state_keys(rows, counts)
        index = list(map(memo.get, keys))
        # a miss may repeat an earlier miss of the same batch; the new
        # nodes are numbered in the order of their first lookups
        new = np.zeros(len(counts), dtype=bool)
        for i, node in enumerate(index):
            if node is None:
                made = len(memo)
                index[i] = memo.setdefault(keys[i], made)
                new[i] = index[i] == made
        s.nodes += int(np.count_nonzero(new))
        if s.nodes > DESIGNER_NODE_CAP:
            raise CapacityError(DESIGNER_NODE_CAP + 1, DESIGNER_NODE_CAP, "designer search nodes")
        self.lookups += len(index)
        self.index.append(np.array(index, dtype=np.intp))
        rows = rows.compress(new.repeat(counts), axis=0)
        nodes = (*s._groups(rows, counts[new]), counts[new])
        del keys, index, rows  # before a valuation
        self.key_s += time.perf_counter() - start
        if self.t < s.pb.t1:
            self.rows.append(nodes)
            return
        start = time.perf_counter()
        self.valued.append(s._value_nodes(self.t, *nodes))
        self.valuations += 1
        self.value_s += time.perf_counter() - start

    def finish(self):
        """Join the batches."""
        self.index = np.concatenate(self.index)
        if self.t < self.solver.pb.t1:
            self.rows = tuple(map(np.concatenate, zip(*self.rows)))
        else:
            self.values, self.best, self.ns = map(np.concatenate, zip(*self.valued))

    def stats(self):
        """The stage's ``stage_stats`` entry."""
        nodes, atoms = len(self.memo), sum(map(len, self.memo)) // (8 * self.solver.width)
        return {"t": self.t, "nodes": nodes, "lookups": self.lookups,
                "memo_hits": self.lookups - nodes, "mean_atoms": atoms / nodes if nodes else 0.0}


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
        self.nodes = 0
        self.partitions = 0
        self.priced_runs = self.priced_terms = 0
        # prices the message runs and answers the walked sender
        self.wald = solve_wald_finite(problem.channel2, problem.costs, problem.t2)

    def _root(self):
        """The child of the prior (masses summing to exactly 1.0): observer
        1's first observation by the scalar ``belief.push_atom``, in P2 with
        observer 2 sampling on from the prior, merged as any child is."""
        p, rows = float(self.pb.prior), self.pb.channel1.row_pair(1)
        rows = np.array(sorted((post, *[p] * (self.width - 3), p * r0, (1.0 - p) * r1)
                               for _, post, r0, r1 in push_atom(p, p, 1.0 - p, rows)))
        rows = merge_rows(rows, np.arange(len(rows)) == 0, self.width - 2)[0]
        return rows, np.array([len(rows)])

    def _build(self, t, rows, starts, counts, add):
        """The children of stage-t nodes given as grouped atom rows
        (``_groups``), counts[i] rows for node i in turn.  ``_children``
        builds them a chunk of nodes at a time and hands them to ``add`` as
        (atom rows, counts) in lookup order: node by node, blank set by blank
        set, in P2 continue run by continue run.  Returns the expansion
        record: per node its first blank entry (``start``) and its children's
        first lookup (``first``), and the arrays ``_children`` returns."""
        m = self.pb.n_messages
        owner = np.arange(len(counts)).repeat(counts)
        ns = np.bincount(owner.compress(starts), minlength=len(counts))
        # each atom's group within its node, and each node's blank sets
        group = starts.cumsum() - 1 - (ns.cumsum() - ns).take(owner)
        # blank sets built in node order, as a cap error names
        bits = {n: _blank_bits(n, m) for n in dict.fromkeys(ns.tolist())}
        nb = np.array([len(bits.get(n, ())) for n in range(int(ns.max()) + 1)]).take(ns)
        off, rec, first, made = counts.cumsum() - counts, {}, [], 0
        for a, z in _spans(nb * counts, self.chunk):
            width = np.arange(int(counts[a:z].max()))
            live = width < counts[a:z, None]
            at = np.where(live, off[a:z, None] + width, 0)
            enode = np.arange(z - a).repeat(nb[a:z])
            masks = np.concatenate([bits[n] for n in ns[a:z].tolist()])
            member = (masks[:, None] >> np.where(live, group.take(at), 63).take(enode, axis=0)) & 1
            part, looks = self._children(t, rows.take(at, axis=0), live, member.astype(bool),
                                         enode, add)
            # typed arrays grow in place: a stage's record is never copied whole
            for k, v in part.items():
                rec.setdefault(k, array(v.dtype.char)).frombytes(v.tobytes())
            first.append(made + (looks.cumsum() - looks).take(nb[a:z].cumsum() - nb[a:z]))
            made += int(looks.sum())
        rec = SimpleNamespace(**{k: np.frombuffer(a, dtype=a.typecode) for k, a in rec.items()})
        rec.start, rec.first = nb.cumsum() - nb, np.concatenate(first)
        return rec

    def _search(self):
        """Every reachable node, stage by stage, then their values; returns
        the stage-1 state (``_root``) and the levels of stages 1..T1 (at
        1..T1).  The solver keeps no level: a level refers to the solver,
        and no cycle keeps a search alive."""
        start = time.perf_counter()
        root, level = self._root(), _Level(self, 1)
        level.build_s = time.perf_counter() - start
        level.add(*root)
        level.finish()
        levels = [None, level]
        for t in range(1, self.pb.t1):
            nxt = _Level(self, t + 1)
            start = time.perf_counter()
            level.rec = self._build(t, *level.rows, nxt.add)
            nxt.finish()
            nxt.build_s = time.perf_counter() - start - nxt.key_s - nxt.value_s
            levels.append(nxt)
            level = nxt
        for t in range(self.pb.t1 - 1, 0, -1):
            start = time.perf_counter()
            level, child = levels[t], levels[t + 1]
            cost, level.choices = self._blank_costs(level.rec, child.values[child.index])
            level.values, level.best, level.ns = self._value_nodes(
                t, *level.rows, (level.rec.start, cost))
            level.valuations += 1
            level.value_s = time.perf_counter() - start
        return root, levels

    def _value_nodes(self, t, rows, starts, counts, blanks=None):
        """Values of stage-t nodes given as grouped atom rows (``_groups``),
        counts[i] for node i in turn.  Before the last stage ``blanks`` holds
        each node's first blank entry and every entry's cost.  Returns
        (values, argmin table entries, group counts).  Each partition adds
        its runs slot by slot, then its blank branch; the first cheapest wins."""
        m, terminal = self.pb.n_messages, blanks is None
        off = np.concatenate(([0], counts.cumsum()))
        ns = np.add.reduceat(starts, off[:-1], dtype=np.intp)  # integers: exact in any order
        tables = {n: _partition_table(n, m, terminal) for n in sorted(set(ns.tolist()))}
        size = np.zeros(max(tables, default=0) + 1, dtype=np.intp)  # runs plus partitions
        size[list(tables)] = [len(tb[1]) + len(tb[2]) for tb in tables.values()]
        order = np.argsort(ns, kind="stable")
        price = self._pricer(t, rows, starts, off)
        values, best = np.zeros(len(counts)), np.zeros(len(counts), dtype=np.intp)
        for a, z in _spans(size.take(ns.take(order)), _PRICED)[:len(ns)]:  # none for no nodes
            ks = order[a:z]
            cut = [0, *((ns[ks[1:]] != ns[ks[:-1]]).nonzero()[0] + 1).tolist(), len(ks)]
            blocks = [(c, ks[c:d], tables[int(ns[ks[c]])]) for c, d in zip(cut[:-1], cut[1:])]
            # every run of the batch: its node's place in ks, first and end group
            at, bounds = (np.concatenate(x, axis=-1) for x in zip(*(
                (np.arange(c, c + len(kk)).repeat(len(tb[1])), np.tile(tb[1].T, len(kk)))
                for c, kk, tb in blocks)))
            run_cost = price(ks, at, *bounds)
            self.priced_runs += len(run_cost)
            for _, kk, (_, kruns, slots, _, bidx) in blocks:
                self.partitions += len(slots) * len(kk)
                # each node's run costs, then 0.0 for a symbol no run uses
                costs = np.concatenate((run_cost[:len(kk) * len(kruns)].reshape(len(kk), -1),
                                        np.zeros((len(kk), 1))), 1)
                run_cost = run_cost[len(kk) * len(kruns):]
                cost = np.zeros((len(kk), len(slots)))
                for slot in slots.T:
                    cost += costs[:, slot]
                if blanks is not None:
                    cost += blanks[1][blanks[0][kk, None] + bidx]
                best[kk] = cost.argmin(axis=1)
                values[kk] = cost[np.arange(len(kk)), best[kk]]
        return values, best, ns

    def solve(self):
        """Optimal pair: the sender by the search and a walk of its stored
        argmins, the receiver as that sender's best response."""
        pb = self.pb
        m = pb.n_messages
        start = time.perf_counter()
        root, levels = self._search()
        searched = time.perf_counter()
        inner = float(levels[1].values[levels[1].index[0]])
        total = (pb.costs.c1 + pb.costs.c2 if self.variant == "P2" else pb.costs.c1) + inner

        # the all-blank path: stage t's node i, and child, the state (atom
        # rows, [count]) that the path's stage t - 1 node expands to (node i
        # holds the first state of its key, which can differ by roundoff)
        i, child = int(levels[1].index[0]), root
        rules = []
        for t in range(1, pb.t1 + 1):
            rule = None
            if child is not None:
                level = levels[t]
                rows, starts = self._groups(*child)
                n, a = int(level.ns[i]), int(level.best[i])
                parts, *_, blank_of = _partition_table(n, m, t == pb.t1)
                labels = [BLANK] * n
                for z, part in zip(range(m - 1, -1, -1), parts[a]):
                    if part is not None:
                        labels[part[0]:part[1]] = [z] * (part[1] - part[0])
                rule = extract_thresholds(list(zip(rows[starts, 0].tolist(), labels)), m,
                                          terminal=(t == pb.t1))
                pos = -1 if t == pb.t1 else \
                    int(level.choices[level.rec.start[i] + blank_of[a]])
                if pos >= 0:
                    kids = []
                    self._build(t, rows, starts, child[1], lambda *kid: kids.append(kid))
                    rows, counts = (np.concatenate(x) for x in zip(*kids))
                    j = pos - int(level.rec.first[i])
                    child = rows[counts[:j].sum():][:counts[j]], counts[j:j + 1]
                    i = int(levels[t + 1].index[pos])
                else:
                    child = None
            rules.append(rule)
        # once the all-blank branch dies, later rules are never used; the
        # immediate sender's fill them
        filler = immediate_sender_policy(pb)
        rules = [f if r is None else r for r, f in zip(rules, (*filler.stages, filler.terminal))]
        o1 = O1Policy(stages=tuple(rules[:-1]), terminal=rules[-1], n_messages=m)
        o2 = _o2_response(o1, pb, self.wald).policy
        stage_stats = tuple(level.stats() for level in levels[1:])
        seconds = tuple({"t": t, "build_s": lv.build_s, "key_s": lv.key_s, "value_s": lv.value_s,
                         "batches": lv.batches, "valuations": lv.valuations}
                        for t, lv in enumerate(levels[1:], start=1))
        key_s, value_s = (sum(s[k] for s in seconds) for k in ("key_s", "value_s"))
        build_s = searched - start - value_s - key_s
        enumerate_s = build_s + key_s
        return DesignerSolution(total=total, o1=o1, o2=o2,
                                nodes=self.nodes, partitions_tried=self.partitions,
                                memo_hits=sum(s["memo_hits"] for s in stage_stats),
                                stage_stats=stage_stats, priced_runs=self.priced_runs,
                                priced_terms=self.priced_terms,
                                search_s=enumerate_s + value_s,
                                enumerate_s=enumerate_s, build_s=build_s, key_s=key_s,
                                value_s=value_s, extract_s=time.perf_counter() - searched,
                                stage_seconds=seconds)


# ---------------------------------------------------------------------------
# variant P1 solver


class _P1Solver(_Designer):
    variant = "P1"
    width = 3
    # atoms of blank sets per child-building chunk: about 2 MB of arrays;
    # a last-stage chunk's new nodes are valued together
    chunk = 1 << 13

    def _children(self, t, atoms, live, member, enode, add):
        """Each blank set's child, none where the set has no mass: its atoms'
        masses divided by the set's, pushed (each node's atoms once, their
        pushes sorted by posterior) and merged.  Per blank set, its mass
        (0.0: no child) and its number of lookups."""
        b, m0, m1 = atoms.transpose(2, 0, 1)
        mass = np.where(member, (m0 + m1).take(enode, axis=0), 0.0).cumsum(axis=1)[:, -1]
        # a padding atom pushed with no mass is seen nowhere
        post, seen, bad, r0, r1 = push_rows(b.ravel(), (m0 * live).ravel(), (m1 * live).ravel(),
                                            self.pb.channel1.row_pair(t + 1))
        if bad.any():
            raise push_error(b.ravel(), bad)
        # each node's pushes by posterior, as flat (atom, symbol) positions
        order = np.argsort(np.where(seen, post, np.inf).reshape(len(b), -1), axis=1, kind="stable")
        order += np.arange(0, order.size, order.shape[1])[:, None]
        looks = (~(mass <= 0.0)).astype(np.intp)
        ent = looks.nonzero()[0]
        ko = order.take(enode.take(ent), axis=0)
        e, slot = np.nonzero(seen.take(ko) & member[ent[:, None], ko // len(r0) % b.shape[1]])
        pos = ko[e, slot]
        atom, y = np.divmod(pos, len(r0))
        share = mass.take(ent.take(e))
        n0, n1 = m0.take(atom) / share * r0.take(y), m1.take(atom) / share * r1.take(y)
        keep = (n0 != 0.0) | (n1 != 0.0)
        raw, e = np.column_stack((post.take(pos), n0, n1)).compress(keep, axis=0), e[keep]
        first = e != np.concatenate(([-1], e[:-1]))
        # pushes of one posterior within a child sort by their masses
        tie = (raw[1:, 0] == raw[:-1, 0]) & ~first[1:]
        if tie.any():
            at = (np.concatenate((tie, [False])) | np.concatenate(([False], tie))).nonzero()[0]
            run = np.concatenate(([True], ~tie)).cumsum().take(at)
            raw[at] = raw[at[_sort_order(run, raw[at, 1:])]]
        merged, heads = merge_rows(raw, first, 1)
        add(merged, np.bincount(e[heads], minlength=len(ent)))
        return {"mass": np.where(looks, mass, 0.0)}, looks

    def _blank_costs(self, rec, child_values):
        """Each blank set's cost, its mass times c1 plus its child's value,
        and its child's lookup (-1: no mass)."""
        live = rec.mass != 0.0
        pos = np.where(live, np.cumsum(live) - 1, -1)
        return np.where(live, rec.mass * (self.pb.costs.c1 + child_values[pos]), 0.0), pos

    def _groups(self, rows, counts):
        # every atom of a P1 state is a group of its own
        return rows, np.ones(len(rows), dtype=bool)

    def _pricer(self, t, rows, starts, off):
        read = self.wald.reader(self.pb.t2)

        def price(ks, at, lo, hi):
            # pre[c, i, j]: node ks[j]'s m0 (c = 0) or m1 (c = 1) over its
            # first i atoms (its groups), added left to right a row of nodes
            # at a time; past a node's last atom pre is never read
            width = int(hi.max(initial=0))
            masses = rows[:, 1:].T.take(np.minimum(off.take(ks) + np.arange(width)[:, None],
                                                   len(rows) - 1), axis=1)
            pre = np.zeros((2, width + 1, len(ks)))
            for r in range(width):
                np.add(pre[:, r], masses[:, r], out=pre[:, r + 1])
            pre, out, step = pre.reshape(2, -1), np.zeros(len(lo)), max(1, _PRICED // 12)
            # pricing a run holds about a dozen arrays: slices of runs whose
            # arrays hold about _PRICED entries
            for s in (slice(a, a + step) for a in range(0, len(lo), step)):
                rm = pre.take(hi[s] * len(ks) + at[s], axis=1)
                rm -= pre.take(lo[s] * len(ks) + at[s], axis=1)
                mass = rm[0] + rm[1]
                live = ~(mass <= 0.0)
                out[s][live] = mass[live] * read(_posteriors(rm[0][live], mass[live]))
            return out

        return price


def solve_p1(problem):
    """Optimal pair for the wait-then-sample variant, by exact recursion."""
    return _P1Solver(problem).solve()


# ---------------------------------------------------------------------------
# variant P2 solver


class _P2Solver(_Designer):
    variant = "P2"
    width = 4
    chunk = 1 << 11

    def _children(self, t, atoms, live, member, enode, add):
        """Each blank set's region, observer 2's step on it (phi, merged),
        then the child of each continue run over phi's sampling atoms: phi
        pushed once, declared atoms as they are and sampling ones both as
        declaring (belief2 -1.0) and as sampling on, sorted once, and each
        child (a subset of that) merged and normalized.  Per blank set, its
        mass and number of continue runs (0: no mass), which is its number of
        lookups; per continue run, observer 2's stop losses or c2 continue
        charges at this stage."""
        pb, loss = self.pb, self.pb.costs.loss
        _, _, m0, m1 = atoms.transpose(2, 0, 1)
        tot0, tot1 = (np.where(live, x, 0.0).cumsum(axis=1)[:, -1] for x in (m0, m1))
        r0, r1 = (np.where(member, x.take(enode, axis=0), 0.0).cumsum(axis=1)[:, -1]
                  for x in (m0, m1))
        mass = r0 + r1
        ent = (~(mass <= 0.0)).nonzero()[0]
        mz0, mz1 = _ratio(r0[ent], tot0[enode[ent]]), _ratio(r1[ent], tot1[enode[ent]])
        # observer 2's step: a declared atom passes as it is, a sampling one
        # absorbs the message and each observation y it can see; arrays are
        # indexed [y, atom entry], the rows sorted below
        e, j = np.nonzero(member.take(ent, axis=0))
        x1, x2, x0m, x1m = atoms.reshape(-1, 4).take(
            enode.take(ent.take(e)) * atoms.shape[1] + j, axis=0).T
        row0, row1 = (np.array(r, dtype=float) for r in pb.channel2.row_pair(t))
        w0, w1, dec = np.multiply.outer(row0, x0m), np.multiply.outer(row1, x1m), x2 < 0.0
        num = np.multiply.outer(row0, x2) * mz0[e]
        den = num + np.multiply.outer(row1, 1.0 - x2) * mz1[e]
        keep = np.where(dec, (np.arange(len(row0)) == 0)[:, None], (w0 != 0.0) | (w1 != 0.0))
        errs, bad = [], keep & ~dec & ~(den > 0.0)
        if bad.any():
            a = int(np.argmax(bad.any(axis=0)))
            errs.append((e[a], 0, ImpossibleUpdateError(
                f"belief2={float(x2[a])} cannot absorb (y2={int(np.argmax(bad[:, a]))}, msg_lik="
                f"{(float(mz0[e[a]]), float(mz1[e[a]]))}); "
                "state is inconsistent with its own message law")))
        obs = np.stack(np.broadcast_arrays(x1, np.where(dec, x2, _ratio(num, den)),
                                           np.where(dec, x0m, w0), np.where(dec, x1m, w1)), -1)
        obs = obs.reshape(-1, 4).compress(keep.ravel(), axis=0)
        oe = np.broadcast_to(e, keep.shape).compress(keep.ravel())
        order = _sort_order(oe, obs)
        phi, heads = merge_rows(obs.take(order, axis=0), np.diff(oe[order], prepend=-1) != 0, 2)
        pe = oe[order][heads]
        # push order: declared atoms, then sampling ones by belief2 (stable)
        act = phi[:, 1] >= 0.0
        order = _sort_order(pe, act, np.where(act, phi[:, 1], 0.0))
        phi, pe, act = phi.take(order, axis=0), pe[order], act[order]
        nact = np.bincount(pe[act], minlength=len(ent))
        ai = act.cumsum() - 1 - (nact.cumsum() - nact)[pe]
        # receiver groups (belief2 clusters): group g of entry s spans the
        # sampling atoms bound[s, g]:bound[s, g + 1]
        ae, aphi = pe[act], phi.compress(act, axis=0)
        brk = (np.diff(aphi[:, 1], prepend=-np.inf) > MERGE_TOL) | (np.diff(ae, prepend=-1) != 0)
        ng = np.bincount(ae[brk], minlength=len(ent))
        bound = np.zeros((len(ent), int(ng.max(initial=0)) + 1), dtype=np.intp)
        bound[ae[brk], (brk.cumsum() - 1 - (ng.cumsum() - ng)[ae])[brk]] = ai[act][brk]
        bound[np.arange(len(ent)), ng] = nact
        ce, q = np.nonzero(_span_pairs(bound.shape[1] - 1)[:, 1] <= ng[:, None])
        gi, gj = _span_pairs(bound.shape[1] - 1)[q].T
        alo, ahi = np.where(gi < gj, bound[ce, gi], 0), np.where(gi < gj, bound[ce, gj], 0)
        # prefix sums of declare-1 / declare-0 losses and continue mass over
        # the sampling atoms, each atom's two terms added in turn
        pre = np.zeros((3, len(ent), 2 * int(nact.max(initial=0)) + 1))
        am0, am1 = aphi[:, 2], aphi[:, 3]
        pre[:, ae, 2 * ai[act] + 1] = am0 * loss[1][0], am0 * loss[0][0], am0
        pre[:, ae, 2 * ai[act] + 2] = am1 * loss[1][1], am1 * loss[0][1], am1
        # entry s's prefix sum after i sampling atoms is at s * width + i
        width = 1 + int(nact.max(initial=0))
        pd1, pd0, pcm = pre.cumsum(axis=2)[:, :, ::2].reshape(3, -1)
        row = ce * width
        charges = (pd1.take(row + alo) - pd1.take(row)) \
            + (pd0.take(row + nact[ce]) - pd0.take(row + ahi)) \
            + pb.costs.c2 * (pcm.take(row + ahi) - pcm.take(row + alo))
        # the empty run's one child has every sampling atom declare: charge
        # the cheapest split, 1 below group s and 0 above (the zero padding
        # of bound past ng repeats s = 0, everyone declaring 0)
        row = np.arange(len(ent))[:, None] * width
        split = (pd1.take(row + bound) - pd1.take(row)) \
            + (pd0.take(row + nact[:, None]) - pd0.take(row + bound))
        charges = np.where(gi < gj, charges, split.min(axis=1)[ce])
        # phi pushed through observer 1's next observation: declared (kind
        # 0), declaring (1) and sampling on (2), sorted per blank set
        post, seen, bad, q0, q1 = push_rows(phi[:, 0], phi[:, 2], phi[:, 3],
                                            pb.channel1.row_pair(t + 1))
        if bad.any():
            errs.append((pe[int(np.argmax(bad)) // bad.shape[1]], 1, push_error(phi[:, 0], bad)))
        if errs:
            raise min(errs, key=lambda err: err[:2])[2]
        ry = seen.ravel().nonzero()[0]
        r, y = np.divmod(ry, seen.shape[1])
        on = act.take(r)
        urows = np.column_stack((post.take(ry), np.full(len(r), -1.0),
                                 phi[:, 2].take(r) * q0.take(y), phi[:, 3].take(r) * q1.take(y)))
        urows = np.concatenate((urows, urows.compress(on, axis=0)))
        urows[len(r):, 1] = phi[:, 1].take(r.compress(on))
        ukind = np.concatenate((on.astype(np.int8), np.full(int(on.sum()), 2, np.int8)))
        uact, ue = (np.concatenate((x[r], x[r][on])) for x in (ai, pe))
        order = _sort_order(ue, urows)
        # a union row is kept where its act lies inside the child's continue
        # run exactly when it samples on: declared rows (kind 0) carry act
        # -1, inside no run, and are kept as declaring rows are
        urows, uact = urows.take(order, axis=0), np.where(ukind == 0, -1, uact).take(order)
        usample = (ukind == 2).take(order)
        ulen = np.bincount(ue, minlength=len(ent))
        ustart, lens = ulen.cumsum() - ulen, ulen[ce]
        # free the step's arrays before the children are built and keyed
        del obs, oe, w0, w1, num, den, keep, pre, pd1, pd0, pcm, post, seen, ry, r, y, ue
        del x1, x2, x0m, x1m, phi, aphi, am0, am1, ai, act, pe, ae, on, ukind
        # child c takes, of its blank set's sorted union, the declared rows
        # and each sampling atom's row as sampling on inside its continue
        # run and as declaring outside it.  The chunk's children are merged
        # and looked up in one batch, which costs a fixed number of numpy
        # calls whatever its size, split only past _CHILDREN candidates
        emass, span = mass[ent], (ahi - alo).view(np.uintp)
        for a, z in _spans(lens, _CHILDREN):
            cid, idx = _segments(ustart[ce[a:z]], lens[a:z])
            sel = ((uact.take(idx) - alo[a:z].take(cid)).view(np.uintp)
                   < span[a:z].take(cid)) == usample.take(idx)
            idx, cid = idx.compress(sel), cid.compress(sel)
            kids, first = urows.take(idx, axis=0), np.diff(cid, prepend=-1) != 0
            del sel, idx  # the candidates go before the merge and the lookup
            kids, heads = merge_rows(kids, first, 2)
            counts = np.bincount(cid.take(heads), minlength=z - a)
            share = emass[ce[a:z]].repeat(counts)
            kids[:, 2] /= share
            kids[:, 3] /= share
            del cid, first, heads, share
            add(kids, counts)
        runs = np.zeros(len(mass), dtype=np.intp)
        runs[ent] = np.bincount(ce, minlength=len(ent))
        return {"runs": runs, "mass": mass, "charges": charges}, runs

    def _blank_costs(self, rec, child_values):
        """Each blank set's cost, c1 plus the stage's charges plus the
        child's value times the blank mass at its first cheapest continue
        run, and that run's child's lookup (-1: no mass); the continue runs
        are the stage's lookups in turn."""
        runs = rec.runs
        mass = np.repeat(rec.mass, runs)
        val = self.pb.costs.c1 * mass + rec.charges + mass * child_values
        low, arg = np.zeros(len(runs)), np.full(len(runs), -1)
        live = np.flatnonzero(runs > 0)
        starts = (np.cumsum(runs) - runs)[live]
        hits = np.flatnonzero(val == np.repeat(np.minimum.reduceat(val, starts), runs[live]))
        first = hits[np.searchsorted(hits, starts)]
        low[live], arg[live] = val[first], first
        return low, arg

    def _groups(self, rows, counts):
        """Each node's atoms sorted as sorted(state) sorts them, and flags
        on the first atom of each belief1 group (where belief1 rises by
        more than MERGE_TOL)."""
        owner = np.repeat(np.arange(len(counts)), counts)
        rows = rows.take(_sort_order(owner, rows), axis=0)
        starts = np.ones(len(rows), dtype=bool)
        starts[1:] = (rows[1:, 0] - rows[:-1, 0] > MERGE_TOL) | (owner[1:] != owner[:-1])
        return rows, starts

    def _pricer(self, t, rows, starts, off):
        """Stopping-cost flows of message runs: a run's atoms send a message
        whose likelihood pair is the run's share of each hypothesis's mass,
        the still-sampling ones absorb it with one fresh observation, and
        the knot reader prices each posterior."""
        read = self.wald.reader(self.pb.t2 - t)
        row0, row1 = (np.array(r, dtype=float) for r in self.pb.channel2.row_pair(t))
        b2, m0, m1 = (rows[:, c].copy() for c in (1, 2, 3))
        # each sampling atom's terms b2 * row0[y], (1 - b2) * row1[y] and w,
        # one per fresh observation y of weight w > 0; atom a's are
        # terms[at[a]:at[a + 1]]
        w = np.multiply.outer(row0, m0) + np.multiply.outer(row1, m1)
        atom, y = np.divmod(np.flatnonzero(((w > 0.0) & (b2 >= 0.0)).T), len(row0))
        tw = w.take(y * len(rows) + atom)
        tu0, tu1 = b2.take(atom) * row0.take(y), (1.0 - b2.take(atom)) * row1.take(y)
        at = np.concatenate(([0], np.cumsum(np.bincount(atom, minlength=len(rows)))))
        # a run's arrays hold an entry per atom and per term
        entries = np.arange(len(rows) + 1) + at
        owner = np.repeat(np.arange(len(off) - 1), np.diff(off))
        tot0, tot1 = (_seg_sums(owner, m, len(off) - 1) for m in (m0, m1))

        # node k's group g spans atoms edge[first[k] + g]:edge[first[k] + g + 1]
        edge = np.concatenate((starts.nonzero()[0], off[-1:]))
        first = starts.cumsum().take(off[:-1]) - 1

        def price(ks, at, lo, hi):
            # the runs (node, first atom, end atom) in batches of about
            # _PRICED entries
            node = ks.take(at)
            lo, hi = edge.take(first.take(node) + lo), edge.take(first.take(node) + hi)
            return np.concatenate([flows(node[a:z], lo[a:z], hi[a:z]) for a, z in
                                   _spans(1 + entries.take(hi) - entries.take(lo), _PRICED)])

        def flows(node, lo, hi):
            seg, idx = _segments(lo, hi - lo)
            r0, r1 = (_seg_sums(seg, m.take(idx), len(lo)) for m in (m0, m1))
            go = (r0 + r1 > 0.0).nonzero()[0]
            k = node.take(go)
            mz0, mz1 = _ratio(r0.take(go), tot0.take(k)), _ratio(r1.take(go), tot1.take(k))
            # run s's terms are terms[at[lo[s]]:at[hi[s]]]
            start = at.take(lo.take(go))
            seg, term = _segments(start, at.take(hi.take(go)) - start)
            self.priced_terms += len(term)
            num = tu0.take(term) * mz0.take(seg)
            belief = _posteriors(num, num + tu1.take(term) * mz1.take(seg))
            out = np.zeros(len(lo))
            out[go] = _seg_sums(seg, tw.take(term) * read(belief), len(go))
            return out

        return price


def solve_p2(problem):
    """Optimal pair for the interleaved variant, by exact recursion."""
    return _P2Solver(problem).solve()
