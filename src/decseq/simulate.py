"""Running a policy pair: exact evaluation and Monte Carlo.

exact_cost enumerates every positive-probability observation path under each
hypothesis (alphabets and horizons are finite, and stopped observers stop
branching), so it is exact up to float arithmetic.  simulate_once and
estimate_cost sample the same dynamics; estimate_cost gives every episode
its own counter-based random stream derived from (seed, episode index), so
results are reproducible and independent of how work is chunked over
threads.

Observer 2 acts on its modelled belief (through the policy's message
model): identical to the true posterior when the pair is consistent, still
a well-defined map when it is not.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, field

import numpy as np

from .belief import update_observer1
from .errors import CertificationError, ProblemSpecError
from .policies import BLANK, subjective_update

THREADS_ENV = "DECSEQ_THREADS"


def thread_count():
    """Worker count from the environment, default 1, floor 1."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ProblemSpecError(THREADS_ENV, f"not an integer: {raw!r}")


def check_pair(o1, o2, problem):
    """Validate a policy pair against a problem's horizons and variant."""
    if o1.horizon != problem.t1:
        raise ProblemSpecError("o1", f"sender horizon {o1.horizon} != T1 {problem.t1}")
    if o1.n_messages != problem.n_messages:
        raise ProblemSpecError("o1", f"policy uses {o1.n_messages} symbols, problem has "
                                     f"{problem.n_messages}")
    if o2.max_observations != problem.t2:
        raise ProblemSpecError("o2", f"receiver horizon {o2.max_observations} != T2 {problem.t2}")
    want_blank = problem.t1 - 1 if problem.variant == "P2" else 0
    if len(o2.blank_rules) < want_blank:
        raise ProblemSpecError("o2", f"variant {problem.variant} needs {want_blank} "
                                     f"blank-phase rules, policy has {len(o2.blank_rules)}")
    w1, w2 = o2.wald_rules[-1]
    if w1 < w2:
        raise ProblemSpecError("o2", "last stopping rule must force a declaration (w1 >= w2)")


@dataclass
class _HypAccum:
    """Expectations conditional on one hypothesis."""

    mass: float = 0.0
    e_tau1: float = 0.0
    e_tau2: float = 0.0
    e_loss: float = 0.0
    tau1_pmf: dict = field(default_factory=dict)
    tau2_pmf: dict = field(default_factory=dict)
    declare: dict = field(default_factory=lambda: {0: 0.0, 1: 0.0})

    def add(self, p, tau1, tau2, u2, loss):
        self.mass += p
        self.e_tau1 += p * tau1
        self.e_tau2 += p * tau2
        self.e_loss += p * loss
        self.tau1_pmf[tau1] = self.tau1_pmf.get(tau1, 0.0) + p
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

    def tau1_tail(self, t):
        """P(tau1 >= t), unconditional."""
        return sum(w * sum(p for tau, p in acc.tau1_pmf.items() if tau >= t)
                   for w, acc in self._weighted())

    def tau2_tail(self, t):
        return sum(w * sum(p for tau, p in acc.tau2_pmf.items() if tau >= t)
                   for w, acc in self._weighted())


def _branch(rows, h):
    row = rows[h]
    return [(y, row[y]) for y in range(len(row)) if row[y] > 0.0]


def _walk_p1(o1, o2, problem, h, acc):
    """Wait-then-sample variant: observer 2 idles until the one message."""
    costs = problem.costs

    def wald_phase(p, sb, k, tau1):
        u = o2.decide_wald(k, sb)
        if u is not None:
            acc.add(p, tau1, k, u, costs.loss[u][h])
            return
        rows = problem.channel2.row_pair(k + 1)
        for y2, q in _branch(rows, h):
            wald_phase(p * q, subjective_update(sb, y2, rows, None), k + 1, tau1)

    def sender_phase(t, p, b1, sb_blank):
        rows = problem.channel1.row_pair(t)
        for y1, q in _branch(rows, h):
            nb1 = update_observer1(b1, y1, rows)
            z = o1.message(t, nb1)
            if z == BLANK:
                nsb = subjective_update(sb_blank, None, None, o2.message_factor(t, BLANK))
                sender_phase(t + 1, p * q, nb1, nsb)
            else:
                sb0 = subjective_update(sb_blank, None, None, o2.message_factor(t, z))
                wald_phase(p * q, sb0, 0, t)

    sender_phase(1, 1.0, float(problem.prior), float(problem.prior))


def _walk_p2(o1, o2, problem, h, acc):
    """Interleaved variant.

    State: sent_at is None while observer 1 is still active, else
    (tau1, symbol); sb is observer 2's modelled belief, or None once it has
    declared, in which case done2 holds (tau2, decision).  An observer that
    stopped does not branch; the other one runs on alone.
    """
    costs = problem.costs

    def o2_step(t, p, b1, sent_at, z, sb, done2):
        if sb is None:
            tau2, u2 = done2
            if sent_at is not None:
                acc.add(p, sent_at[0], tau2, u2, costs.loss[u2][h])
            else:
                sender_step(t + 1, p, b1, done2)
            return
        rows2 = problem.channel2.row_pair(t)
        factor = None if z is None else o2.message_factor(t, z)
        for y2, q2 in _branch(rows2, h):
            nsb = subjective_update(sb, y2, rows2, factor)
            u = o2.decide_wald(t, nsb) if sent_at is not None else o2.decide_blank(t, nsb)
            pq = p * q2
            if u is None:
                step(t + 1, pq, b1, sent_at, nsb, None)
            elif sent_at is not None:
                acc.add(pq, sent_at[0], t, u, costs.loss[u][h])
            else:
                sender_step(t + 1, pq, b1, (t, u))

    def sender_step(t, p, b1, done2):
        # observer 2 has stopped; observer 1 finishes its own stopping problem
        rows1 = problem.channel1.row_pair(t)
        tau2, u2 = done2
        for y1, q1 in _branch(rows1, h):
            nb1 = update_observer1(b1, y1, rows1)
            z = o1.message(t, nb1)
            if z == BLANK:
                sender_step(t + 1, p * q1, nb1, done2)
            else:
                acc.add(p * q1, t, tau2, u2, costs.loss[u2][h])

    def step(t, p, b1, sent_at, sb, done2):
        if sent_at is None:
            rows1 = problem.channel1.row_pair(t)
            for y1, q1 in _branch(rows1, h):
                nb1 = update_observer1(b1, y1, rows1)
                z = o1.message(t, nb1)
                n_sent = None if z == BLANK else (t, z)
                o2_step(t, p * q1, nb1, n_sent, z, sb, done2)
        else:
            o2_step(t, p, b1, sent_at, None, sb, done2)

    step(1, 1.0, float(problem.prior), None, float(problem.prior), None)


def exact_cost(policies, problem):
    """Exact expected total cost of (o1, o2) by path enumeration."""
    o1, o2 = policies
    check_pair(o1, o2, problem)
    accs = []
    for h in (0, 1):
        acc = _HypAccum()
        if problem.variant == "P1":
            _walk_p1(o1, o2, problem, h, acc)
        else:
            _walk_p2(o1, o2, problem, h, acc)
        if abs(acc.mass - 1.0) > 1e-9:
            raise CertificationError(f"path probabilities sum to {acc.mass} under H={h}")
        accs.append(acc)
    c = problem.costs
    w = (problem.prior, 1.0 - problem.prior)
    obs1 = c.c1 * sum(w[h] * accs[h].e_tau1 for h in (0, 1))
    obs2 = c.c2 * sum(w[h] * accs[h].e_tau2 for h in (0, 1))
    loss = sum(w[h] * accs[h].e_loss for h in (0, 1))
    return CostBreakdown(prior=problem.prior, total=obs1 + obs2 + loss,
                         obs1_cost=obs1, obs2_cost=obs2, loss_cost=loss,
                         per_h=tuple(accs))


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class EpisodeResult:
    episode: int
    h: int
    tau1: int
    tau2: int
    message: int
    decision: int
    cost: float


def _draw(rng, row):
    r = rng.random()
    acc = 0.0
    for y, p in enumerate(row):
        acc += p
        if r < acc:
            return y
    return len(row) - 1


def _sample_episode(o1, o2, problem, rng):
    h = 0 if rng.random() < problem.prior else 1
    costs = problem.costs
    if problem.variant == "P1":
        b1 = sb = float(problem.prior)
        t = 0
        while True:
            t += 1
            rows = problem.channel1.row_pair(t)
            b1 = update_observer1(b1, _draw(rng, rows[h]), rows)
            z = o1.message(t, b1)
            if z != BLANK:
                break
            sb = subjective_update(sb, None, None, o2.message_factor(t, BLANK))
        tau1 = t
        sb = subjective_update(sb, None, None, o2.message_factor(tau1, z))
        k = 0
        while True:
            u = o2.decide_wald(k, sb)
            if u is not None:
                break
            rows2 = problem.channel2.row_pair(k + 1)
            sb = subjective_update(sb, _draw(rng, rows2[h]), rows2, None)
            k += 1
        tau2 = k
    else:
        b1 = sb = float(problem.prior)
        tau1 = tau2 = None
        z_final = u = None
        t = 0
        while tau1 is None or tau2 is None:
            t += 1
            z = None
            if tau1 is None:
                rows = problem.channel1.row_pair(t)
                b1 = update_observer1(b1, _draw(rng, rows[h]), rows)
                z = o1.message(t, b1)
                if z != BLANK:
                    tau1, z_final = t, z
            if tau2 is None:
                rows2 = problem.channel2.row_pair(t)
                factor = None if z is None else o2.message_factor(t, z)
                sb = subjective_update(sb, _draw(rng, rows2[h]), rows2, factor)
                du = o2.decide_wald(t, sb) if tau1 is not None else o2.decide_blank(t, sb)
                if du is not None:
                    tau2, u = t, du
        z = z_final
    cost = costs.c1 * tau1 + costs.c2 * tau2 + costs.loss[u][h]
    return h, tau1, tau2, z, u, cost


def simulate_once(policies, problem, rng_stream):
    """One sampled episode using the supplied numpy Generator."""
    o1, o2 = policies
    check_pair(o1, o2, problem)
    h, tau1, tau2, z, u, cost = _sample_episode(o1, o2, problem, rng_stream)
    return EpisodeResult(episode=-1, h=h, tau1=tau1, tau2=tau2,
                         message=z, decision=u, cost=cost)


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
    threads: int


def estimate_cost(policies, problem, n, seed, collect=False):
    """Monte Carlo estimate over n episodes.

    Deterministic for fixed (seed, n): episode i draws only from its own
    stream, and chunk results are reduced in index order whatever
    DECSEQ_THREADS says.  Returns (summary, episodes) with episodes None
    unless collect is set.
    """
    o1, o2 = policies
    check_pair(o1, o2, problem)
    if n <= 0:
        raise ProblemSpecError("n", "need at least one episode")
    workers = thread_count()

    def run_chunk(bounds):
        lo, hi = bounds
        rows = []
        for i in range(lo, hi):
            h, tau1, tau2, z, u, cost = _sample_episode(o1, o2, problem, episode_rng(seed, i))
            rows.append(EpisodeResult(episode=i, h=h, tau1=tau1, tau2=tau2,
                                      message=z, decision=u, cost=cost))
        return rows

    chunk = max(1, (n + workers - 1) // workers)
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if workers == 1 or len(bounds) == 1:
        chunks = [run_chunk(b) for b in bounds]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_chunk, bounds))

    episodes = [e for ch in chunks for e in ch]
    cost = np.array([e.cost for e in episodes])
    mean = float(cost.mean())
    stderr = float(cost.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    summary = EstimateSummary(
        n=n, seed=seed, mean_cost=mean, stderr=stderr,
        mean_tau1=float(np.mean([e.tau1 for e in episodes])),
        mean_tau2=float(np.mean([e.tau2 for e in episodes])),
        error_rate=float(np.mean([problem.costs.loss[e.decision][e.h] > 0.0
                                  for e in episodes])),
        threads=workers)
    return summary, (episodes if collect else None)
