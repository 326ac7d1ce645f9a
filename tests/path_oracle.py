"""Path-enumeration reference for exact policy evaluation (test-only).

Walks every positive-probability observation path of a policy pair under
each hypothesis and books each finished path's (tau1, tau2, decision,
loss).  Exponential in the horizon, so it only serves as the oracle that
simulate.forward_pass is checked against on small instances.  Also keeps
``receiver_atoms``, the scalar reference for the receiver's post-message
support (best_response._after_atoms).
"""

from dataclasses import dataclass

from decseq.belief import bayes, merge_atoms, update_observer1
from decseq.errors import CertificationError
from decseq.policies import BLANK, subjective_update
from decseq.simulate import CostBreakdown, _HypAccum, check_pair


@dataclass
class PathAccum(_HypAccum):
    """_HypAccum fed one finished path at a time."""

    def add(self, p, tau1, tau2, u2, loss):
        self.mass += p
        self.e_tau1 += p * tau1
        self.e_tau2 += p * tau2
        self.e_loss += p * loss
        self.tau1_pmf[tau1] = self.tau1_pmf.get(tau1, 0.0) + p
        self.tau2_pmf[tau2] = self.tau2_pmf.get(tau2, 0.0) + p
        self.declare[u2] += p


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


def walk(o1, o2, problem, h):
    """PathAccum of every path under H=h."""
    acc = PathAccum()
    (_walk_p1 if problem.variant == "P1" else _walk_p2)(o1, o2, problem, h, acc)
    return acc


def exact_cost_by_paths(policies, problem):
    """The exact_cost of a pair, by path enumeration."""
    o1, o2 = policies
    check_pair(o1, o2, problem)
    accs = []
    for h in (0, 1):
        acc = walk(o1, o2, problem, h)
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


class ScriptedSender:
    """Sender that stays blank before stage t and sends z at t, whatever it
    observes."""

    def __init__(self, t, z):
        self.t, self.z = t, z

    def message(self, t, belief):
        return self.z if t == self.t else BLANK


def blank_phase_paths(o2, problem, upto):
    """The interleaved receiver's modelled beliefs entering stage ``upto``
    while messages stay blank and it keeps sampling: one (belief,
    P(path | H=0), P(path | H=1)) per observation path."""
    nodes = [(float(problem.prior), 1.0, 1.0)]
    for s in range(1, upto):
        rows = problem.channel2.row_pair(s)
        factor = o2.message_factor(s, BLANK)
        nxt = []
        for sb, w0, w1 in nodes:
            for y in range(len(rows[0])):
                nw0, nw1 = w0 * rows[0][y], w1 * rows[1][y]
                if nw0 == 0.0 and nw1 == 0.0:
                    continue
                nsb = subjective_update(sb, y, rows, factor)
                if o2.decide_blank(s, nsb) is None:
                    nxt.append((nsb, nw0, nw1))
        nodes = nxt
    return nodes


def merged_support(beliefs):
    """Sorted distinct beliefs, those closer than MERGE_TOL merged (merge_atoms)."""
    return [b for b, _, _ in merge_atoms([(b, 1.0, 0.0) for b in beliefs])]


def receiver_atoms(channel, horizon, seeds):
    """Every belief the receiver can reach from the given seed beliefs.

    ``seeds`` holds (observation count, belief) pairs.  Each seed is pushed
    through ``channel`` one observation at a time until the receiver has
    ``horizon`` observations.  Returns the merged_support of the seeds and
    of every belief they reach.
    """
    by_count = {}
    for k, b in seeds:
        by_count.setdefault(k, []).append(b)
    out = []
    cur = []
    for k in range(min(by_count, default=horizon), horizon + 1):
        nxt = list(by_count.get(k, ()))
        if cur:
            rows = channel.row_pair(k)
            for b in cur:
                for f0, f1 in zip(*rows):
                    _, post = bayes(b, f0, f1)
                    if post is not None:
                        nxt.append(post)
        cur = merged_support(nxt)
        out += cur
    return merged_support(out)
