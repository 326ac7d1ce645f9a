"""Single-observer best responses and their fixed-point iteration.

Observer 1's best response against a fixed receiver policy: conditional on
the hypothesis, the receiver's behaviour after any message prefix does not
depend on observer 1's belief, so every send branch is affine in that
belief and the blank branch adds (in the interleaved variant) an affine
per-stage charge for the receiver's concurrent sampling.  Backward
induction over observer 1's reachable belief atoms is therefore exact; each
posterior's value is read at the atom its push merged into
(``belief.push_linked``), and each stage's action comes from
``policies.sender_choice``.

Observer 2's best response against a fixed sender policy: condition on the
message history.  While messages are blank (interleaved variant) the
modelled belief lives on finitely many atoms per stage, which one forward
walk builds with each outcome's atom index, and the decision is a
stop-or-sample dynamic program whose continuation runs over the sender's
message likelihoods; after the final message it is the plain stopping
problem, on the beliefs a message leaves and those they reach.  Also
exact; both phases label their atoms with ``wald.stop_or_sample``, and
every Bayes step is ``belief.bayes``.

Alternating the two (pbpo_iteration) produces a non-increasing sequence of
exact pair costs: each response is optimal among all decision maps against
the other policy held fixed as a map, and the previous policy is one such
map.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .belief import bayes, merge_atoms, merge_linked, push_linked, start_atom
from .errors import CapacityError, ProblemSpecError
from .policies import (BLANK, O1Policy, O2Policy, TerminalRule, _message_model,
                       boundary_stage, extract_thresholds, send_law, sender_choice)
from .simulate import check_receiver, check_sender, exact_cost, forward_pass
from .wald import solve_wald_finite, stop_or_sample, thresholds_from_labels

# the most sender symbol slots (T1 stage rules of M symbols each) that one
# PBPO run may build
PBPO_SLOT_CAP = 500_000

__all__ = [
    "evaluate_o2_policy", "o1_best_response", "o2_best_response",
    "pbpo_iteration", "ValueTable",
    "BestResponseResult", "PBPOResult", "immediate_sender_policy",
]

PBPO_STOP = 1e-12


@dataclass
class ValueTable:
    """Optimal values on one information class's belief atoms.

    ``branches`` maps a branch name to per-atom values; the table value is
    their pointwise minimum.  ``kind`` identifies the class, e.g.
    ("sender", t), ("blank", s) or ("after", k).
    """

    kind: tuple
    atoms: tuple
    values: tuple
    branches: dict
    labels: tuple


@dataclass
class BestResponseResult:
    """A best response, its exact pair cost and, on first access, its value
    tables (``build_tables()``; PBPO never reads them)."""

    policy: object
    total: float
    build_tables: object = field(repr=False)

    @cached_property
    def tables(self):
        return self.build_tables()


@dataclass
class PBPOResult:
    o1: O1Policy
    o2: O2Policy
    trace: list
    rounds: int
    converged: bool


# ---------------------------------------------------------------------------
# receiver costs against a scripted sender (simulate.forward_pass), shared by
# evaluate_o2_policy and the sender's best response


def _scripted_charges(o2, problem, t, z):
    """forward_pass charges of o2 against a sender that stays blank before
    stage t and sends z at t."""
    return forward_pass(o2, problem, [{}] * (t - 1) + [{z: (1.0, 1.0)}])[1]


def evaluate_o2_policy(o2, history, final_z, problem):
    """Per-hypothesis expected receiver cost after a final message.

    ``history`` is the message sequence before the final one and must be
    all blanks; the final message ``final_z`` arrives at stage
    len(history)+1.  Returns (cost under H=0, cost under H=1), counting c2
    for every receiver observation from the message stage on (interleaved
    variant) or from its first observation (wait-then-sample variant),
    plus the declaration loss.  The expectation weighs receiver paths that
    already stopped as zero (they contribute no further cost).
    """
    check_receiver(o2, problem)
    for m in history:
        if m != BLANK:
            raise ProblemSpecError("history", f"pre-final message {m!r} is not blank")
    t = len(history) + 1
    if t > problem.t1:
        raise ProblemSpecError("history", f"final message at stage {t} is past the "
                                          f"deadline {problem.t1}")
    # an integer (Python or numpy, not bool), as estimate_cost takes them
    if isinstance(final_z, bool) or not isinstance(final_z, numbers.Integral) \
            or not 0 <= final_z < o2.n_messages:
        raise ProblemSpecError("final_z", f"not a symbol: {final_z!r}")
    charges = _scripted_charges(o2, problem, t, int(final_z))
    first = t if problem.variant == "P2" else 0
    return tuple(sum(g[h] for g in charges[first:]) for h in (0, 1))


def o1_best_response(o2, problem):
    """Exact best sender policy against a fixed receiver policy."""
    check_receiver(o2, problem)
    costs = problem.costs
    m = problem.n_messages

    # affine send branches: affines[t][z] = (value under H=0, under H=1)
    affines = [[evaluate_o2_policy(o2, (BLANK,) * (t - 1), z, problem) for z in range(m)]
               for t in range(1, problem.t1 + 1)]
    if problem.variant == "P2":
        # the receiver's per-stage charges while messages stay blank
        concurrent = _scripted_charges(o2, problem, problem.t1, 0)[1:problem.t1]
    else:
        concurrent = [(0.0, 0.0)] * (problem.t1 - 1)

    # levels[t]: the sender's atoms after t observations; links[t][a]: the
    # pushes of levels[t - 1][a] into levels[t]
    levels, links = [[start_atom(problem.prior)]], [None]
    for t in range(1, problem.t1 + 1):
        level, link = push_linked(levels[-1], problem.channel1.row_pair(t))
        levels.append(level)
        links.append(link)
    tables, rules = [], []

    def wait(t, a, b):
        # c1 for the next observation, the receiver's concurrent charge, then
        # the optimal value at each posterior's atom in level t + 1's tables[0]
        g0, g1 = concurrent[t - 1]
        cont = costs.c1 + b * g0 + (1.0 - b) * g1
        for p, j in links[t + 1][a]:
            cont += p * tables[0].values[j]
        return cont

    for t in range(problem.t1, 0, -1):
        atoms = [b for b, _, _ in levels[t]]
        branches = {("send", z): tuple(b * a0 + (1.0 - b) * a1 for b in atoms)
                    for z, (a0, a1) in enumerate(affines[t - 1])}
        if t < problem.t1:
            branches["blank"] = tuple(wait(t, a, b) for a, b in enumerate(atoms))
        labels, values = sender_choice([branches[("send", z)] for z in range(m)],
                                       branches.get("blank"))
        rules.insert(0, extract_thresholds(list(zip(atoms, labels)), m,
                                           terminal=(t == problem.t1)))
        tables.insert(0, ValueTable(kind=("sender", t), atoms=tuple(atoms),
                                    values=tuple(values), branches=branches,
                                    labels=tuple(labels)))

    o1 = O1Policy(stages=tuple(rules[:-1]), terminal=rules[-1], n_messages=m)
    total = costs.c1
    for (_, w0, w1), value in zip(levels[1], tables[0].values):
        total += (problem.prior * w0 + (1.0 - problem.prior) * w1) * value
    return BestResponseResult(policy=o1, total=total, build_tables=lambda: tables)


# ---------------------------------------------------------------------------
# receiver best response


def _wald_tables(wald, atoms, problem, first_used):
    """ValueTables for the post-message classes on the sorted beliefs
    ``atoms``, with branch values."""
    out = []
    for k in range(first_used, problem.t2 + 1):
        r = problem.t2 - k
        cont = wald.continuation(atoms, r).tolist() if r > 0 else None
        labels, _, branches = stop_or_sample(atoms, cont, problem.costs)
        values = tuple(wald.reader(r)(np.array(atoms)).tolist())
        out.append(ValueTable(kind=("after", k), atoms=atoms, values=values,
                              branches=branches, labels=tuple(labels)))
    return out


def o2_best_response(o1, problem):
    """Exact best receiver policy against a fixed sender policy.

    The returned policy's message model is this sender's, so the pair is
    consistent and the modelled beliefs are true posteriors.
    """
    check_sender(o1, problem)
    return _o2_response(o1, problem,
                        solve_wald_finite(problem.channel2, problem.costs, problem.t2))


def _o2_response(o1, problem, wald):
    """``o2_best_response`` against ``wald``, the problem's own stopping
    table (``solve_wald_finite`` on channel2, the costs and T2), for
    callers that answer many senders of one problem."""
    laws = send_law(o1, problem)
    model = _message_model(laws, o1.n_messages)
    costs = problem.costs

    # sender-side expected sampling cost, from the sender's send law
    e_c1 = 0.0
    posteriors = []  # (stage, symbol, receiver prior, unconditional prob)
    for t, (law, _) in enumerate(laws, start=1):
        for z, (r0, r1) in sorted((z, ws) for z, ws in law.items() if z != BLANK):
            p, post = bayes(problem.prior, r0, r1)
            if post is not None:
                e_c1 += costs.c1 * t * p
                posteriors.append((t, z, post, p))

    if problem.variant == "P1":
        seeds = [[post for *_, post, _ in posteriors] or [problem.prior]]
        values = wald.reader(problem.t2)(np.array([post for *_, post, _ in posteriors]))
        # added left to right: the builtin sum() compensates from Python 3.12
        inner = 0.0
        for (*_, p), value in zip(posteriors, values.tolist()):
            inner += p * value
        blank_tables, rules, first_used = [], {}, 0
    else:
        # interleaved variant: the blank-phase program, each message priced
        # by the stopping table
        walk = _blank_walk(model, problem)
        seeds = [[]] + walk[2]   # a message at stage k comes with observation k
        tables, rules, inner = _blank_phase(problem, walk,
                                            lambda t, b: wald.reader(problem.t2 - t)(b))
        blank_tables, first_used = list(tables.values()), 1
    # thresholds between every belief the receiver can hold after a message
    atoms = tuple(_after_atoms(problem.channel2, problem.t2, seeds)) or (float(problem.prior),)
    o2 = O2Policy(blank_rules=tuple(rules.values()), wald_rules=wald.thresholds_at(atoms),
                  message_model=model, n_messages=problem.n_messages)
    return BestResponseResult(
        policy=o2, total=e_c1 + inner,
        build_tables=lambda: blank_tables + _wald_tables(wald, atoms, problem, first_used))


# ---------------------------------------------------------------------------
# the receiver's walks: its blank phase (interleaved variant), shared with
# the no-deadline receiver limit, and the beliefs a message leaves


def _receiver_step(b, factors, rows):
    """Yields (symbol, probability, posterior) for each message-and-
    observation outcome of one receiver stage from modelled belief b;
    ``factors`` is that stage's message model entry, ``rows`` its channel
    row pair."""
    for z, (f0z, f1z) in factors.items():
        for r0, r1 in zip(*rows):
            p, post = bayes(b, f0z * r0, f1z * r1)
            if post is not None:
                yield z, p, post


def _after_atoms(channel, horizon, seeds):
    """Every belief the receiver can hold after a message, sorted: the
    beliefs ``seeds[k]`` that messages leave after k observations and their
    pushes by the unit-factor step to ``horizon`` observations, merged
    (``merge_atoms``) count by count and then all together."""
    out, cur = [], []
    for k in range(horizon + 1):
        level = list(seeds[k]) if k < len(seeds) else []
        if cur:
            # read only once an atom is pushed: there is no table 0
            rows = channel.row_pair(k)
            level += [nb for b in cur for _, _, nb in _receiver_step(b, {BLANK: (1.0, 1.0)}, rows)]
        cur = [b for b, _, _ in merge_atoms([(b, 1.0, 0.0) for b in level])]
        out += cur
    return [b for b, _, _ in merge_atoms([(b, 1.0, 0.0) for b in out])]


def _blank_walk(model, problem):
    """One forward walk over the receiver's stages while messages are blank:
    (atoms, links, sent), atoms[s] the modelled beliefs after s blank stages
    (atoms[0] is the prior), sent[s] the beliefs a message arriving at stage
    s+1 leaves, and links[s][a] the (probability, index) of each outcome of
    stage s+1 from atoms[s][a], indexing atoms[s+1], then sent[s].  The
    sender speaks by T1, so stage T1 has no blank outcome."""
    atoms, links, sent = [[float(problem.prior)]], [], []
    for s in range(problem.t1):
        rows = problem.channel2.row_pair(s + 1)
        steps = [list(_receiver_step(b, model[s], rows)) for b in atoms[s]]
        merged, where = merge_linked([(nb, 1.0, 0.0) for step in steps
                                      for z, _, nb in step if z == BLANK])
        atoms.append([b for b, _, _ in merged])
        sent.append([nb for step in steps for z, _, nb in step if z != BLANK])
        blank, message = iter(where), iter(range(len(merged), len(merged) + len(sent[s])))
        links.append([[(p, next(blank if z == BLANK else message)) for z, p, _ in step]
                      for step in steps])
    return atoms, links, sent


def _blank_phase(problem, walk, after):
    """Stop-or-sample program over the blank stages s = 1..T1-1 of the
    ``_blank_walk`` ``walk``.

    At stage s and belief b the receiver declares, or pays c2 and draws
    stage s+1's message and observation; the beliefs a message arriving at
    stage t leaves are worth ``after(t, beliefs)``, read once per stage on
    an array.  Returns the ("blank", s) ValueTables and threshold rules by
    stage, and the value before the first observation.
    """
    atoms, links, sent = walk
    costs = problem.costs
    tables, rules, values = {}, {}, []
    for s in range(problem.t1 - 1, -1, -1):
        # stage s+1's values: its blank atoms', then its message beliefs'
        reads = values + after(s + 1, np.array(sent[s])).tolist()
        cont = []
        for link in links[s]:
            c = costs.c2
            for p, j in link:
                c += p * reads[j]
            cont.append(c)
        if s == 0:
            break
        labels, values, branches = stop_or_sample(atoms[s], cont, costs)
        rules[s] = thresholds_from_labels(atoms[s], labels, costs.declare_boundary)
        tables[s] = ValueTable(kind=("blank", s), atoms=tuple(atoms[s]),
                               values=tuple(values), branches=branches,
                               labels=tuple(labels))
    return dict(sorted(tables.items())), dict(sorted(rules.items())), cont[0]


# ---------------------------------------------------------------------------
# alternating best responses


def immediate_sender_policy(problem):
    """Sender that always announces at stage 1, split at the declaration
    boundary; used as the default starting partner."""
    boundary = problem.costs.declare_boundary
    m = problem.n_messages
    stages = (boundary_stage(m, boundary),) * (problem.t1 - 1)
    terminal = TerminalRule(cuts=(boundary,) * (m - 1))
    return O1Policy(stages=stages, terminal=terminal, n_messages=m)


def pbpo_iteration(problem, max_rounds=50):
    """Alternate exact best responses until the pair cost stops improving.

    Starts from the best response to an immediate sender.  The trace holds
    the exact pair cost after every half-round; it is non-increasing.
    Stops when a full round improves by less than 1e-12.  More than
    ``PBPO_SLOT_CAP`` sender symbol slots raise ``CapacityError`` before
    any policy is built.
    """
    if max_rounds < 1:
        raise ProblemSpecError("max_rounds", f"need at least one round, got {max_rounds}")
    if (slots := problem.t1 * problem.n_messages) > PBPO_SLOT_CAP:
        raise CapacityError(slots, PBPO_SLOT_CAP, "sender symbol slots (T1 times M)")
    wald = solve_wald_finite(problem.channel2, problem.costs, problem.t2)
    o2 = _o2_response(immediate_sender_policy(problem), problem, wald).policy
    trace = []
    prev = None
    converged = False
    rounds = 0
    o1 = None
    for _ in range(max_rounds):
        rounds += 1
        o1 = o1_best_response(o2, problem).policy
        trace.append(exact_cost((o1, o2), problem).total)
        o2 = _o2_response(o1, problem, wald).policy
        trace.append(exact_cost((o1, o2), problem).total)
        if prev is not None and prev - trace[-1] < PBPO_STOP:
            converged = True
            break
        prev = trace[-1]
    return PBPOResult(o1=o1, o2=o2, trace=trace, rounds=rounds, converged=converged)
