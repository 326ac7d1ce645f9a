"""Running a policy pair: exact evaluation and Monte Carlo.

Exact evaluation rests on one fact: given the hypothesis, observer 1's
observations are independent of observer 2's, and observer 1 never sees
observer 2.  So the sender's law of (tau1, symbol) (policies.send_law) and
the receiver's own observations fix every path, and forward_pass pushes
the receiver's path mass over its merged modelled-belief atoms, stage by
stage in one loop: during the blank phase (interleaved variant), weighted
by the chance the sender is still silent, then after the message, where
atoms from every send stage and symbol merge, since the stopping problem
from there depends only on (observation count, belief).  Messages arrive
before the first observation, or from the blank atoms with their stage's
observation (interleaved).  tau1 is recorded when the message is sent,
tau2 and the loss when the receiver declares.  Beliefs closer than
belief.MERGE_TOL are one atom; otherwise the result is exact up to float
arithmetic.  exact_cost runs it on a sender's send law, evaluate_o2_policy
on a sender scripted to send one symbol at one stage.

estimate_cost samples the same dynamics for n episodes in lockstep.
Episode i draws its uniforms from its own counter-based stream, the one
Generator(Philox(key=(seed << 64) | i)) gives, so each episode's record is
a pure function of (seed, i).  philox4x64 computes the blocks of every
episode that needs one at once and matches numpy bit for bit, each round
a fixed sequence of in-place ufuncs on one block of words; _PhiloxStreams
keeps them slot-major and takes each uniform with one gather.  A stage's
running episodes hold few distinct beliefs, so each walks an integer state
over a table of them.  One stage walker (_walk) fills each (belief, class,
symbol) entry that some episode reaches by the policies' own rules, the
calls exact evaluation makes: update_observer1 and O1Policy.message for the
sender, subjective_update and O2Policy.decide_wald or decide_blank for the
receiver.  More than EPISODE_CAP episodes are refused before anything is
allocated.

Observer 2 acts on its modelled belief (through the policy's message
model): identical to the true posterior when the pair is consistent, still
a well-defined map when it is not.  Every receiver step here is its own
rule, subjective_update, which keeps the belief on an outcome the model
calls impossible, where the best responses' walks skip such outcomes.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .belief import merge_atoms, update_observer1
from .errors import (CapacityError, CertificationError, ImpossibleUpdateError,
                     ProblemSpecError)
from .policies import BLANK, send_law, subjective_update

# estimate_cost refuses more episodes than this before allocating anything:
# sampling peaks at about 140 (P1) to 170 (P2) bytes per episode: 1.7 GB
EPISODE_CAP = 10_000_000


def check_sender(o1, problem):
    """Fit a sender policy to a problem: its horizon is T1 and its alphabet
    the problem's M.  O1Policy checks its own shape."""
    if o1.horizon != problem.t1:
        raise ProblemSpecError("o1", f"sender horizon {o1.horizon} != T1 {problem.t1}")
    if o1.n_messages != problem.n_messages:
        raise ProblemSpecError("o1", f"policy uses {o1.n_messages} symbols, problem has "
                                     f"{problem.n_messages}")


def check_receiver(o2, problem):
    """Fit a receiver policy to a problem: its horizon is T2, its alphabet
    the problem's M, and in the interleaved variant it has a blank-phase
    rule for each of stages 1..T1-1.  O2Policy checks its own shape."""
    if o2.max_observations != problem.t2:
        raise ProblemSpecError("o2", f"receiver horizon {o2.max_observations} != T2 {problem.t2}")
    if o2.n_messages != problem.n_messages:
        raise ProblemSpecError("o2", f"policy uses {o2.n_messages} symbols, problem has "
                                     f"{problem.n_messages}")
    want_blank = problem.t1 - 1 if problem.variant == "P2" else 0
    if len(o2.blank_rules) < want_blank:
        raise ProblemSpecError("o2", f"variant {problem.variant} needs {want_blank} "
                                     f"blank-phase rules, policy has {len(o2.blank_rules)}")


def check_pair(o1, o2, problem):
    """Fit a policy pair to a problem: check_sender and check_receiver."""
    check_sender(o1, problem)
    check_receiver(o2, problem)


@dataclass
class _HypAccum:
    """Expectations conditional on one hypothesis; ``mass`` is the
    probability of the episodes that ended (the receiver declared)."""

    mass: float = 0.0
    e_tau1: float = 0.0
    e_tau2: float = 0.0
    e_loss: float = 0.0
    tau1_pmf: dict = field(default_factory=dict)
    tau2_pmf: dict = field(default_factory=dict)
    declare: dict = field(default_factory=lambda: {0: 0.0, 1: 0.0})

    def sent(self, p, tau1):
        if p > 0.0:
            self.e_tau1 += p * tau1
            self.tau1_pmf[tau1] = self.tau1_pmf.get(tau1, 0.0) + p

    def declared(self, p, tau2, u2, loss):
        if p > 0.0:
            self.mass += p
            self.e_tau2 += p * tau2
            self.e_loss += p * loss
            self.tau2_pmf[tau2] = self.tau2_pmf.get(tau2, 0.0) + p
            self.declare[u2] += p


@dataclass
class CostBreakdown:
    """Exact expected costs of a policy pair."""

    prior: float
    total: float
    obs1_cost: float
    obs2_cost: float
    loss_cost: float
    per_h: tuple

    def _weighted(self):
        return ((self.prior, self.per_h[0]), (1.0 - self.prior, self.per_h[1]))

    def _tail(self, pmf, t):
        """P(tau >= t), unconditional, for the tau whose per-hypothesis pmf
        is the attribute ``pmf``.  Clamped at 1: the float sum for a
        certain event can round past it."""
        return min(1.0, sum(w * sum(p for tau, p in getattr(acc, pmf).items() if tau >= t)
                            for w, acc in self._weighted()))

    def tau1_tail(self, t):
        """P(tau1 >= t), unconditional."""
        return self._tail("tau1_pmf", t)

    def tau2_tail(self, t):
        """P(tau2 >= t), unconditional."""
        return self._tail("tau2_pmf", t)


def _observe_receiver(atoms, rows, factor):
    """Receiver (belief, w0, w1) atoms after one more observation and, when
    factor is not None, a message likelihood pair; not yet merged."""
    out = []
    for sb, w0, w1 in atoms:
        for y in range(len(rows[0])):
            n0 = w0 * rows[0][y]
            n1 = w1 * rows[1][y]
            if n0 != 0.0 or n1 != 0.0:
                out.append((subjective_update(sb, y, rows, factor), n0, n1))
    return out


def forward_pass(o2, problem, sends):
    """Run receiver policy o2 against a sender's law, both hypotheses at once.

    ``sends[t-1]`` maps each symbol z to (P(tau1 = t, z_t = z | H=0), same
    under H=1); the last stage of ``sends`` must carry all the mass left.
    Returns (accs, charges): accs[h] is the _HypAccum of H=h, and
    charges[s] is the pair (E[c2 * 1{tau2 >= s >= 1} + loss * 1{tau2 = s}
    | H=h]) for s = 0..T2, so the charges sum to the receiver's expected
    cost c2 * tau2 + loss.
    """
    costs = problem.costs
    last, deadline = o2.max_observations, len(sends)
    accs = (_HypAccum(), _HypAccum())
    loss_at = [[0.0, 0.0] for _ in range(last + 1)]
    for t, law in enumerate(sends, start=1):
        for ws in law.values():
            for acc, p in zip(accs, ws):
                acc.sent(p, t)

    def settle(k, atoms, decide, scale=(1.0, 1.0)):
        """Book the declarations at step k, weighted by scale; returns the
        atoms that keep sampling."""
        going = []
        for sb, w0, w1 in atoms:
            u = decide(k, sb)
            if u is None:
                going.append((sb, w0, w1))
                continue
            for h, w in ((0, w0 * scale[0]), (1, w1 * scale[1])):
                accs[h].declared(w, k, u, costs.loss[u][h])
                loss_at[k][h] += w * costs.loss[u][h]
        return going

    # silent[s-1] = P(tau1 > s | H=h), the weight of the blank phase at s
    silent = [(0.0, 0.0)] * deadline
    for s in range(deadline - 1, 0, -1):
        silent[s - 1] = tuple(silent[s][h] + sum(ws[h] for ws in sends[s].values())
                              for h in (0, 1))
    # the stages whose messages arrive at each observation count: all at 0
    # in P1 (the idle receiver moves only with them), stage s's at s in P2
    arrivals = ({0: range(1, deadline + 1)} if problem.variant == "P1"
                else {s: (s,) for s in range(1, deadline + 1)})
    blank = [(float(problem.prior), 1.0, 1.0)]   # P(receiver path, still sampling | H)
    post = []
    for k in range(min(arrivals), last + 1):
        if not (post or blank):
            break
        # before the first observation, a message comes with a sure symbol
        rows = problem.channel2.row_pair(k) if k else ((1.0,), (1.0,))
        entries = _observe_receiver(post, rows, None)
        for t in arrivals.get(k, ()):
            for z, (p0, p1) in sends[t - 1].items():
                sent = [(b, w0 * p0, w1 * p1) for b, w0, w1 in blank]
                entries += _observe_receiver(sent, rows, o2.message_factor(t, z))
            # the sender speaks by its deadline
            blank = _observe_receiver(blank, rows, o2.message_factor(t, BLANK)) \
                if t < deadline else []
        post = settle(k, merge_atoms(entries), o2.decide_wald)
        if blank:
            # the interleaved receiver declares or samples on its blank atoms
            blank = settle(k, merge_atoms(blank), o2.decide_blank, silent[k - 1])
    charges = []
    at_least = [0.0, 0.0]   # P(tau2 >= s | H=h)
    for s in range(last, -1, -1):
        for h, acc in enumerate(accs):
            at_least[h] += acc.tau2_pmf.get(s, 0.0)
        charges.append(tuple(loss_at[s][h] + (costs.c2 * at_least[h] if s else 0.0)
                             for h in (0, 1)))
    return accs, charges[::-1]


def exact_cost(policies, problem):
    """Exact expected total cost of (o1, o2), by forward_pass on o1's send law."""
    o1, o2 = policies
    check_pair(o1, o2, problem)
    sends = [{z: ws for z, ws in law.items() if z != BLANK}
             for law, _ in send_law(o1, problem)]
    accs, _ = forward_pass(o2, problem, sends)
    w = (problem.prior, 1.0 - problem.prior)
    for h, acc in enumerate(accs):
        # send_law gives a hypothesis with no prior mass no paths at all
        if abs(acc.mass - (1.0 if w[h] > 0.0 else 0.0)) > 1e-9:
            raise CertificationError(f"path probabilities sum to {acc.mass} under H={h}")
    c = problem.costs
    obs1 = c.c1 * sum(w[h] * accs[h].e_tau1 for h in (0, 1))
    obs2 = c.c2 * sum(w[h] * accs[h].e_tau2 for h in (0, 1))
    loss = sum(w[h] * accs[h].e_loss for h in (0, 1))
    return CostBreakdown(prior=problem.prior, total=obs1 + obs2 + loss,
                         obs1_cost=obs1, obs2_cost=obs2, loss_cost=loss,
                         per_h=tuple(accs))


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True, eq=False)
class Episodes:
    """Sampled episodes as numpy columns, row i holding episode i."""

    h: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    message: np.ndarray
    decision: np.ndarray
    cost: np.ndarray

    def __len__(self):
        return len(self.cost)


# each multiplier whole, then its low and high 32-bit halves
_M_PARTS = tuple((np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
                 for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32, _U32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_PHILOX_LANES = 1 << 15  # lanes per kernel call: its ten rows fit a 2 MB L2 cache


def _mulhi(a, m_lo, m_hi, out, t, a_lo, a_hi):
    """out = the high 64-bit word of a * m, m = m_hi * 2**32 + m_lo, from
    32-bit halves; t, a_lo and a_hi are scratch.  The middle sum
    a_hi * m_lo + (a_lo * m_lo >> 32) + (a_lo * m_hi & 0xFFFFFFFF) is at
    most 2**64 - 2, so it cannot wrap."""
    np.bitwise_and(a, _LOW32, out=a_lo)
    np.right_shift(a, _U32, out=a_hi)
    np.multiply(a_lo, m_lo, out=t)
    np.right_shift(t, _U32, out=t)
    np.multiply(a_hi, m_lo, out=out)
    np.add(out, t, out=out)
    np.multiply(a_lo, m_hi, out=a_lo)
    np.bitwise_and(a_lo, _LOW32, out=t)
    np.add(out, t, out=out)
    np.right_shift(out, _U32, out=out)
    np.right_shift(a_lo, _U32, out=a_lo)
    np.add(out, a_lo, out=out)
    np.multiply(a_hi, m_hi, out=a_hi)
    np.add(out, a_hi, out=out)


def philox4x64(counter, key0, key1):
    """Philox4x64-10 blocks (Salmon et al., SC'11), one row per lane.

    key0 holds the low key word, a 1-D integer array with entries in
    [0, 2**64); counter, the low counter word (the other three are zero),
    and key1, the high key word, are each an array like key0 or one such
    int shared by every lane.  Every round runs in place on one
    preallocated block of words.
    """
    (m0, m0_lo, m0_hi), (m1, m1_lo, m1_hi) = _M_PARTS
    w0, w1 = _PHILOX_W
    words = np.empty((10, len(key0)), dtype=np.uint64)
    c0, c1, c2, c3, k0, h0, h1, t, a_lo, a_hi = words
    c0[:], k0[:], words[1:4] = counter, key0, 0
    # a shared key1 is a 0-d array: in-place adds wrap silently, where
    # numpy scalars would warn
    k1 = np.array(key1, dtype=np.uint64)
    for r in range(10):
        if r:
            np.add(k0, w0, out=k0)
            np.add(k1, w1, out=k1)
        _mulhi(c0, m0_lo, m0_hi, h0, t, a_lo, a_hi)
        _mulhi(c2, m1_lo, m1_hi, h1, t, a_lo, a_hi)
        np.multiply(c0, m0, out=c0)
        np.multiply(c2, m1, out=c2)
        np.bitwise_xor(h1, c1, out=h1)
        np.bitwise_xor(h1, k0, out=h1)
        np.bitwise_xor(h0, c3, out=h0)
        np.bitwise_xor(h0, k1, out=h0)
        # (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0); c1 and c3 are free
        c0, c1, c2, c3, h0, h1 = h1, c2, h0, c0, c1, c3
    return np.stack((c0, c1, c2, c3), axis=1)


class _PhiloxStreams:
    """Called with episode indices idx and draw indices j (one int, or one
    per episode), returns uniform j of each: episode i's (j+1)-th
    Generator(Philox(key=(seed << 64) | i)).random().

    numpy's Philox increments its counter, from 0, before each block, and a
    double is the top 53 bits of one word: uniform j is word j & 3 of block
    (j >> 2) + 1.  A block is computed at j & 3 == 0, at most _PHILOX_LANES
    per kernel call, and kept in column i of the slot-major (4, n) ``words``
    until used; ``blocks`` counts them."""

    def __init__(self, seed, n):
        self.seed, self.blocks = seed, 0
        self.words = np.empty((4, n), dtype=np.uint64)

    def __call__(self, idx, j):
        slot, each = j & 3, np.ndim(j)
        lanes = idx.compress(slot == 0) if each else idx[:idx.size * (slot == 0)]
        counter = ((j.compress(slot == 0) if each else j) >> 2) + 1
        for lo in range(0, lanes.size, _PHILOX_LANES):
            part = lanes[lo:lo + _PHILOX_LANES]
            block = philox4x64(counter[lo:lo + part.size] if each else counter, part, self.seed)
            for words, row in zip(self.words, block.T):
                words[part] = row  # row by row: about twice as fast as one 2-D scatter
        self.blocks += lanes.size
        word = (self.words.ravel().take(slot * self.words.shape[1] + idx) if each
                else self.words[slot].take(idx))
        return np.right_shift(word, np.uint64(11), out=word) * 2.0 ** -53


def _pairs(st, base, n_beliefs, width, rows, r):
    """Pair indices st + base + y of episodes in states st = (2b + h) * width
    (belief b of the stage's table), class base = k * |Y| and symbol y drawn
    from rows[h] with uniforms r; and which (b, k * |Y| + y) pairs occur."""
    p = st + base
    for col in zip(*(itertools.accumulate(row[:-1]) for row in rows)):
        p += np.repeat(np.array(col * n_beliefs), width).take(st) <= r
    return p, np.bincount(p, minlength=2 * n_beliefs * width).reshape(n_beliefs, 2, -1).any(1)


def _advance(on, p, nb, out, reached, t, when, what):
    """End a stage: out gives each (belief, k, y) pair's outcome, -1 to go
    on to the next table's belief nb (deduped by exact equality).  Returns
    the episodes that go on, their states and the next table, and records
    and returns those that end (t in when, out in what)."""
    go, index, ids = reached & (out < 0), {}, np.zeros(nb.shape, dtype=np.int64)
    ids[go] = [index.setdefault(b, len(index)) for b in nb[go].tolist()]
    h = (np.arange(2 * len(nb)) & 1)[:, None]
    code = np.where(np.repeat(go, 2, axis=0), (2 * np.repeat(ids, 2, axis=0) + h) * nb[0].size,
                    -1 - np.repeat(out, 2, axis=0)).ravel().take(p)
    ended, out, keep = on[:0], code[:0], code >= 0
    if not keep.all():
        stop = np.flatnonzero(~keep)
        ended, out = on.take(stop), -1 - code.take(stop)
        when[ended], what[ended] = t, out
        on, code = on.compress(keep), code.compress(keep)
    return on, code, np.array(list(index)), ended, out


def _walk(on, st, bel, base, classes, rows, r, update, rule, t, when, what):
    """One observer's stage t, by _pairs and _advance, in ``classes``
    classes of len(rows[0]) symbols.  update(b, k, y) gives the next
    belief after symbol y of belief b in class k, and rule(k, belief) the
    outcome (None or BLANK: go on); each runs once per (b, k, y) that some
    episode reaches.  An ImpossibleUpdateError of update is raised only if
    some episode reaches its entry: the first such episode's."""
    ny, beliefs = len(rows[0]), bel.tolist()
    width = classes * ny
    p, reached = _pairs(st, base, len(bel), width, rows, r)
    nb, out, failed = np.zeros(reached.shape), np.full(reached.shape, -1), {}
    for e in np.flatnonzero(reached).tolist():
        k, y = divmod(e % width, ny)
        try:
            nb.flat[e] = post = update(beliefs[e // width], k, y)
        except ImpossibleUpdateError as err:
            failed[e] = err
            continue
        u = rule(k, post)
        if u is not None and u != BLANK:
            out.flat[e] = u
    if failed:
        e = p // (2 * width) * width + p % width
        raise failed[e[np.isin(e, list(failed))][0]]
    return _advance(on, p, nb, out, reached, t, when, what)


def _sample(o1, o2, problem, n, draws):
    """Run n episodes in lockstep; draws(idx, j) gives uniform j of each
    episode in idx from that episode's own stream.  Each episode draws in
    the order it would alone: h, observer 1's observations, then observer
    2's (in P2, observer 1's before observer 2's within a stage).  Returns
    the Episodes and the largest stage table's size."""
    m, prior = problem.n_messages, float(problem.prior)
    everyone = np.arange(n)
    h = (draws(everyone, 0) >= prior).astype(np.intp)
    # a stopping time not yet reached stays above every stage (P2 draw indices)
    tau1, tau2, message, decision = (np.full(n, v) for v in (2 ** 62, 2 ** 62, 0, 0))
    on1, st1, bel1, most, t = everyone, h * problem.channel1.n_symbols, np.array([prior]), 1, 0

    def send(t, j):
        # observer 1's Bayes step on its t-th observation (draw j), then its message
        rows = problem.channel1.row_pair(t)
        return _walk(on1, st1, bel1, 0, 1, rows, draws(on1, j),
                     lambda b, _, y: update_observer1(b, y, rows),
                     lambda _, b: o1.message(t, b), t, tau1, message)

    if problem.variant == "P1":
        # the idle receiver's belief moves only with the messages: one
        # belief per stage and symbol sent, and the blank path's
        sb, sent = prior, []
        while on1.size:
            t += 1
            on1, st1, bel1 = send(t, t)[:3]
            sent += [subjective_update(sb, None, None, o2.message_factor(t, z)) for z in range(m)]
            sb = subjective_update(sb, None, None, o2.message_factor(t, BLANK))
            most = max(most, len(bel1))
        # the (stage, symbol) classes as a table of one belief and one sure symbol
        on2, st2, bel2 = _walk(everyone, h * len(sent), np.array([prior]),
                               (tau1 - 1) * m + message, len(sent), ((1.0,), (1.0,)), None,
                               lambda b, k, y: sent[k], lambda _, b: o2.decide_wald(0, b), 0,
                               tau2, decision)[:3]
        st2, k = st2 // len(sent) * problem.channel2.n_symbols, 0
        while on2.size:  # ends by the last rule, which O2Policy makes declare
            most, k = max(most, len(bel2)), k + 1
            rows = problem.channel2.row_pair(k)
            on2, st2, bel2 = _walk(on2, st2, bel2, 0, 1, rows, draws(on2, tau1.take(on2) + k),
                                   lambda b, _, y: subjective_update(b, y, rows, None),
                                   lambda _, b: o2.decide_wald(k, b), k, tau2, decision)[:3]
    else:
        # a receiver's class k is the symbol sent at this stage, m for a
        # blank, or m + 1 once the sender has sent; zc holds k * |Y|
        y2 = problem.channel2.n_symbols
        on2, st2, bel2, zc = everyone, h * (m + 2) * y2, np.array([prior]), np.full(n, m * y2)
        while on1.size or on2.size:
            t += 1
            ended = on1[:0]
            if on1.size:
                on1, st1, bel1, ended, z = send(t, t + np.minimum(tau2.take(on1), t - 1))
                zc[ended] = z * y2
            if on2.size:
                rows = problem.channel2.row_pair(t)
                factors = [o2.message_factor(t, z) for z in (*range(m), BLANK)] + [None]
                on2, st2, bel2 = _walk(
                    on2, st2, bel2, zc.take(on2), m + 2, rows,
                    draws(on2, t + np.minimum(tau1.take(on2), t)),
                    lambda b, k, y: subjective_update(b, y, rows, factors[k]),
                    lambda k, b: (o2.decide_blank if k == m else o2.decide_wald)(t, b),
                    t, tau2, decision)[:3]
            zc[ended] = (m + 1) * y2
            most = max(most, len(bel1), len(bel2))
    c = problem.costs
    cost = c.c1 * tau1 + c.c2 * tau2 + np.array(c.loss)[decision, h]
    return Episodes(h=h, tau1=tau1, tau2=tau2, message=message,
                    decision=decision, cost=cost), most


def episode_rng(seed, episode):
    """Counter-based stream for one episode: a pure function of (seed, i)."""
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | episode))


@dataclass
class EstimateSummary:
    n: int
    seed: int
    mean_cost: float
    stderr: float
    mean_tau1: float
    mean_tau2: float
    error_rate: float
    philox_blocks: int = 0  # Philox blocks computed
    max_states: int = 0     # the largest per-stage belief table


def estimate_cost(policies, problem, n, seed):
    """Monte Carlo estimate over n episodes.

    Deterministic: episode i draws only from the stream episode_rng(seed, i)
    would give it, so its record does not depend on n.  n and the seed are
    integers (Python or numpy, not bool), the seed in [0, 2**64).  More
    than ``EPISODE_CAP`` episodes raise ``CapacityError`` before any is
    sampled.  Returns (summary, episodes), episodes being the Episodes
    columns the summary was taken over.
    """
    o1, o2 = policies
    check_pair(o1, o2, problem)
    for name, value in (("n", n), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ProblemSpecError(name, f"expected an integer, got {value!r}")
    if n <= 0:
        raise ProblemSpecError("n", "need at least one episode")
    if n > EPISODE_CAP:
        raise CapacityError(n, EPISODE_CAP, "episodes")
    if not 0 <= seed < 2 ** 64:
        raise ProblemSpecError("seed", f"must lie in [0, 2**64), got {seed}")
    draws = _PhiloxStreams(seed, n)
    eps, most = _sample(o1, o2, problem, n, draws)
    stderr = float(eps.cost.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    wrong = np.array(problem.costs.loss)[eps.decision, eps.h] > 0.0
    summary = EstimateSummary(
        n=n, seed=seed, mean_cost=float(eps.cost.mean()), stderr=stderr,
        mean_tau1=float(np.mean(eps.tau1)), mean_tau2=float(np.mean(eps.tau2)),
        error_rate=float(np.mean(wrong)), philox_blocks=draws.blocks, max_states=most)
    return summary, eps
