"""Exact designer-level solvers for both communication variants.

The designer picks both policies at once.  Conditioned on the public message
history, the joint law of (hypothesis, observer beliefs) is supported on
finitely many atoms; that conditional law is the designer's state.  Both
variants share one sequential decomposition (``_Designer``):

* **search** -- ``value(t, state, key)`` tries every achievable threshold
  partition of the state's atoms (the optimal policies are interval-shaped
  in the beliefs, so partition search over sorted atoms is exhaustive),
  prices each message run and recurses on the all-blank branch.  The
  partitions of n atom groups depend only on n, M and whether the stage is
  the last, so each solve builds that table once (``_partition_table``) and
  every node with n groups walks it; a node prices each distinct run and
  each distinct blank set once;
* **children** -- a node pushes each of its atoms through observer 1's next
  observation once, and builds the child of every blank set (in variant P2,
  of every continue interval of observer 2) from those pushes.  The merged
  child is keyed and looked up in its stage's memo first; its state tuple
  is built, and searched, only on a miss (``_Designer._child_value``).  The
  root and the policy walk use the same child code;
* **keys** -- a memo key is exact integers, not rounded floats: each keyed
  coordinate x becomes the k with round(x, ROUND_DIGITS) == k / 10**ROUND_DIGITS
  (``_key_ints``), and a state's key is its atoms' integers, sorted atom by
  atom, in one flat tuple (``_state_key``).  Two states share a key exactly
  when their coordinates agree once rounded to ROUND_DIGITS places, as the
  round-tuple keys they replace did;
* **extraction** -- ``solve()`` walks the stored argmins along the
  all-blank branch into the sender's threshold rules.  With the sender
  fixed, the receiver's problem is a single-agent stopping problem, so its
  policy is ``best_response.o2_best_response`` of that sender.

Each variant supplies its state shape and these hooks: ``_root`` gives the
stage-1 child, ``_key`` and ``_state`` key a merged child and build its
state, ``_stage(t, state)`` gives the number of atom groups, the stopping
cost of a run of groups that sends one message, and the cost of the blank
branch; ``_advance`` turns one stored argmin into that stage's sender rule
and the next child.  Runs are priced through ``WaldSolution.reader``, one
knot-table reader per remaining observation count, fetched once per node.
In variant P2 ``_run_pricer`` first lists each sampling atom's terms (weight
and the two likelihood products of each fresh observation), so a run costs
one Bayes update and one read per term.

A search that would store more than ``DESIGNER_NODE_CAP`` nodes raises
``CapacityError``.  ``DesignerSolution`` reports the search size (``nodes``,
``partitions_tried``, ``memo_hits``), per-stage figures (``stage_stats``)
and the seconds spent in the search and in extraction (``search_s``,
``extract_s``).

States are plain tuples so tests can build them directly:

* variant P1: ((belief1, m0, m1), ...) where m_h = P(belief1 = atom, H = h |
  blanks so far); the entries of one state sum to 1 over atoms and both h.
  A blank set's masses are normalized, then pushed.
* variant P2: ((belief1, belief2, d, m0, m1), ...) with d = 1 while
  observer 2 is still sampling, d = 0 once it has declared (the push that
  declares an atom sets its belief2 to -1.0, so declared atoms merge on
  belief1 alone).  The blank branch also chooses observer 2's continue
  interval for the stage.  A child is pushed and merged, then normalized.

Totals reported include the sunk first observations: c1 for observer 1 (and
c2 for observer 2 in the interleaved variant), so the value is the full
expected cost of the objective, directly comparable with exact_cost and the
brute-force oracles.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .belief import MERGE_TOL, merge_atoms
from .best_response import o2_best_response
from .errors import CapacityError, ImpossibleUpdateError, ProblemSpecError
from .policies import BLANK, O1Policy, O2Policy, TerminalRule, boundary_stage, extract_thresholds
from .wald import solve_wald_finite

ROUND_DIGITS = 10
# the most memo nodes one designer search may store
DESIGNER_NODE_CAP = 500_000

_SCALE = 10 ** ROUND_DIGITS
_FLOAT_SCALE = float(_SCALE)
# keyed coordinates must satisfy |x| < 1.7, so |x * 1e10| < 1.7e10 < 2**34:
# the float product is then within 2**-20 of the exact one, and the product
# plus or minus 2**-19, each rounded by at most 2**-20, still bracket it
_KEY_LIMIT = 1.7
_BAND = 2.0 ** -19
# adding 1.5 * 2**52 to a float y with |y| < 2**51 gives 1.5 * 2**52 +
# round(y): the sum lies where the doubles are the integers, so float
# addition rounds y to the nearest integer, ties to even, as round() does
_ROUNDER = 1.5 * 2.0 ** 52


# ---------------------------------------------------------------------------
# memo keys


def _key_ints(xs):
    """For each float x of xs, the integer k with round(x, ROUND_DIGITS) ==
    k / 10**ROUND_DIGITS, held exactly in a float as ``_ROUNDER + k``.

    k is rounded twice, from x * 1e10 plus 2**-19 and from x * 1e10 minus
    2**-19.  These bracket the exact product, so when the two roundings
    agree the exact product rounds the same way.  They differ only when a
    half-integer lies within about 2**-19 of the product; there the exact
    ``_exact_round`` decides.
    """
    if xs and (max(xs) >= _KEY_LIMIT or min(xs) <= -_KEY_LIMIT):
        raise ProblemSpecError(
            "state", f"coordinate {max(xs, key=abs)} outside the memo key range (-1.7, 1.7)")
    up = [(x * _FLOAT_SCALE + _BAND) + _ROUNDER for x in xs]
    down = [(x * _FLOAT_SCALE - _BAND) + _ROUNDER for x in xs]
    if up != down:
        up = [u if u == d else _ROUNDER + _exact_round(x) for x, u, d in zip(xs, up, down)]
    return up


def _exact_round(x):
    """round(x * 10**ROUND_DIGITS), half to even, in exact arithmetic: what
    ``round(Fraction(x) * 10**ROUND_DIGITS)`` gives, without importing
    fractions (about 0.6 MB)."""
    num, den = x.as_integer_ratio()
    q, r = divmod(num * _SCALE, den)
    return q + (2 * r > den or (2 * r == den and q % 2 == 1))


def _state_key(xs, width):
    """Memo key of a state given as its atoms' keyed coordinates, ``width``
    per atom, atom after atom: their ``_key_ints``, sorted atom by atom, in
    one flat tuple."""
    ks = iter(_key_ints(xs))
    atoms = list(zip(*[ks] * width))
    atoms.sort()
    return tuple(itertools.chain.from_iterable(atoms))


# ---------------------------------------------------------------------------
# variant P1 state transformations


def _p1_children(state, channel_rows):
    """Children of a P1 node, each atom pushed through observer 1's next
    observation once.

    Returns ``child(atoms)`` for a list of atom indices: None when they have
    no mass, else (merged next atoms, their mass), the atoms' masses divided
    by that mass before the push, as ``belief.push_atoms`` would push them.
    """
    row0, row1 = channel_rows
    pushes = []  # per atom: (posterior, row0[y], row1[y]) for each y it can see
    for b, m0, m1 in state:
        out = []
        for y, (r0, r1) in enumerate(zip(row0, row1)):
            if m0 * r0 == 0.0 and m1 * r1 == 0.0:
                continue
            den = b * r0 + (1.0 - b) * r1
            if den <= 0.0:
                raise ImpossibleUpdateError(
                    f"observation {y} has zero probability at belief {b}")
            out.append((b * r0 / den, r0, r1))
        pushes.append(out)
    masses = [m0 + m1 for _, m0, m1 in state]

    def child(atoms):
        mass = sum([masses[i] for i in atoms])
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
    """Sort and merge 5-tuples whose coordinates agree within MERGE_TOL.

    Only neighbours in sort order are compared: two close atoms with a
    third sorting between them stay apart.  The sym02 anchor search counts
    rest on this.
    """
    out = []
    p1 = p2 = pd = q0 = q1 = None  # the last atom of out
    for e in sorted(entries):
        b1, b2, d, m0, m1 = e
        if d == pd and abs(b1 - p1) <= MERGE_TOL and abs(b2 - p2) <= MERGE_TOL:
            tot_old = q0 + q1
            tot_new = m0 + m1
            if tot_old + tot_new > 0.0:
                b1 = (p1 * tot_old + b1 * tot_new) / (tot_old + tot_new)
                b2 = (p2 * tot_old + b2 * tot_new) / (tot_old + tot_new)
            p1, p2, q0, q1 = b1, b2, q0 + m0, q1 + m1
            out[-1] = (p1, p2, pd, q0, q1)
        else:
            out.append(e)
            p1, p2, pd, q0, q1 = e
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


def _p2_children(phi, active, channel_rows):
    """Children of a P2 blank branch, each atom of phi pushed through
    observer 1's next observation once.

    ``active`` lists phi's still-sampling atoms as (index, atom).  Declared
    atoms are pushed as they are, active ones both as declaring (d = 0,
    belief2 -1.0) and as sampling on.  Returns ``child(lo, hi)``: the merged,
    unnormalized next atoms when active[lo:hi] keep sampling and every other
    atom declares.
    """
    row0, row1 = channel_rows

    def push(b1, m0, m1):
        out = []
        for r0, r1 in zip(row0, row1):
            w0 = m0 * r0
            w1 = m1 * r1
            if w0 != 0.0 or w1 != 0.0:
                out.append((b1 * r0 / (b1 * r0 + (1.0 - b1) * r1), w0, w1))
        return out

    declared = [(b, -1.0, 0, w0, w1) for b1, _, d, m0, m1 in phi if d == 0
                for b, w0, w1 in push(b1, m0, m1)]
    stop = []
    cont = []
    at = [0]  # active[a]'s pushes are stop/cont[at[a]:at[a + 1]]
    for _, (b1, b2, _, m0, m1) in active:
        pushed = push(b1, m0, m1)
        stop += [(b, -1.0, 0, w0, w1) for b, w0, w1 in pushed]
        cont += [(b, b2, 1, w0, w1) for b, w0, w1 in pushed]
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


@dataclass
class DesignerSolution:
    """Output of solve_p1 / solve_p2.

    ``o2`` is ``o2_best_response(o1, problem).policy``.  ``stage_stats``
    holds one dict per stage t = 1..T1: memo ``nodes``
    stored at t, memo ``lookups`` of stage-t states, the ``memo_hits``
    among them, and ``mean_atoms``, the mean number of atoms per node.
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
    extract_s: float

    @property
    def variant(self):
        return self.problem.variant


class _Designer:
    """Memoized partition search and policy walk shared by both variants.

    Subclasses set ``variant`` and ``width`` (keyed coordinates per atom)
    and provide ``_root``, ``_key``, ``_state``, ``_stage`` and ``_advance``
    (see the module docstring).
    """

    variant = None
    width = None

    def __init__(self, problem):
        if problem.variant != self.variant:
            raise ProblemSpecError(
                "variant", f"solve_{self.variant.lower()} got a {problem.variant} problem")
        self.pb = problem
        # memo[t] maps a stage-t state key to (value, (labels, choice))
        self.memo = [{} for _ in range(problem.t1 + 1)]
        self.lookups = [0] * (problem.t1 + 1)
        self.nodes = 0
        self.partitions = 0
        self.partition_tables = {}
        # values only; the receiver's own stopping table is its best
        # response's
        self.wald = solve_wald_finite(problem.channel2, problem.costs, problem.t2,
                                      eval_points=(problem.prior,))

    def _child_value(self, t, merged, mass):
        """Optimal expected cost from stage t on, from the child ``merged``
        of total mass ``mass``: read from the memo, or on a miss searched
        from its newly built state."""
        key = self._key(merged, mass)
        self.lookups[t] += 1
        hit = self.memo[t].get(key)
        if hit is not None:
            return hit[0]
        return self.value(t, self._state(merged, mass), key)

    def value(self, t, state, key):
        """Optimal expected cost from stage t on, given the state; stored in
        the memo under ``key``."""
        self.nodes += 1
        if self.nodes > DESIGNER_NODE_CAP:
            raise CapacityError(self.nodes, DESIGNER_NODE_CAP, "designer search nodes")
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
        self.memo[t][key] = (best, best_dec)
        return best

    def _stage_stats(self):
        out = []
        for t in range(1, self.pb.t1 + 1):
            memo = self.memo[t]
            atoms = sum(map(len, memo)) // self.width
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
        child = self._root()
        inner = self._child_value(1, *child)
        searched = time.perf_counter()
        total = (pb.costs.c1 + pb.costs.c2 if self.variant == "P2" else pb.costs.c1) + inner

        stages = []
        for t in range(1, pb.t1 + 1):
            rule = None
            if child is not None:
                _, (labels, choice) = self.memo[t][self._key(*child)]
                rule, child = self._advance(t, self._state(*child), labels, choice)
            # once the all-blank branch dies, later rules are never used
            if t == pb.t1:
                terminal = rule if rule is not None else \
                    TerminalRule(cuts=(boundary,) * (m - 1))
            else:
                stages.append(rule if rule is not None else boundary_stage(m, boundary))
        o1 = O1Policy(stages=tuple(stages), terminal=terminal, n_messages=m)
        o2 = o2_best_response(o1, pb).policy
        stage_stats = self._stage_stats()
        return DesignerSolution(problem=pb, total=total, o1=o1, o2=o2,
                                nodes=self.nodes, partitions_tried=self.partitions,
                                memo_hits=sum(s["memo_hits"] for s in stage_stats),
                                stage_stats=stage_stats, search_s=searched - start,
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

    def _key(self, merged, mass):
        # P1 children are normalized before the push, so mass plays no part
        return _state_key(list(itertools.chain.from_iterable(merged)), self.width)

    def _state(self, merged, mass):
        return tuple(merged)

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


def _continue_span(g2, i, j):
    """Active-atom span of the continue run of belief2 groups i..j-1.  An
    empty run stops every atom with 0, so every (i, i) gives (0, 0)."""
    return (0, 0) if i == j else (g2[i][0], g2[j - 1][1])


class _P2Solver(_Designer):
    variant = "P2"
    # belief1, belief2, m0, m1; d is left out of the key because it is 0
    # exactly when belief2 is -1.0
    width = 4

    def _root(self):
        p = float(self.pb.prior)
        phi = ((p, p, 1, p, 1.0 - p),)
        child = _p2_children(phi, list(enumerate(phi)), self.pb.channel1.row_pair(1))
        # the prior's masses sum to 1.0, so normalizing leaves them unchanged
        return child(0, 1), 1.0

    def _key(self, merged, mass):
        return _state_key([x for b1, b2, _, m0, m1 in merged
                           for x in (b1, b2, m0 / mass, m1 / mass)], self.width)

    def _state(self, merged, mass):
        return tuple((b1, b2, d, m0 / mass, m1 / mass) for b1, b2, d, m0, m1 in merged)

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

    def _blank_phase(self, t, blank, lik):
        """Observer 2's step on a blank branch's atoms (phi), its active atoms
        in belief2 order with their belief2 groups, and phi's children
        (``_p2_children``)."""
        phi = _observe_p2(blank, lik, self.pb.channel2.row_pair(t))
        active, g2 = _receiver_groups(phi)
        return active, g2, _p2_children(phi, active, self.pb.channel1.row_pair(t + 1))

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
        act_sorted, g2, child = self._blank_phase(t, blank, lik)
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
            # groups i..j-1 continue; only (0, 0) of the empty runs is priced
            if i == j and i > 0:
                continue
            alo, ahi = _continue_span(g2, i, j)
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


def solve_p2(problem):
    """Optimal pair for the interleaved variant, by exact recursion."""
    return _P2Solver(problem).solve()
