"""Single-observer best responses and their fixed-point iteration.

Observer 1's best response against a fixed receiver policy: conditional on
the hypothesis, the receiver's behaviour after any message prefix does not
depend on observer 1's belief, so every send branch is affine in that
belief and the blank branch adds (in the interleaved variant) an affine
per-stage charge for the receiver's concurrent sampling.  Backward
induction over observer 1's reachable belief atoms is therefore exact.

Observer 2's best response against a fixed sender policy: condition on the
message history.  While messages are blank (interleaved variant) the
modelled belief lives on finitely many atoms per stage and the decision is
a stop-or-sample dynamic program whose continuation runs over the sender's
message likelihoods; after the final message it is the plain stopping
problem.  Also exact.

Alternating the two (pbpo_iteration) produces a non-increasing sequence of
exact pair costs: each response is optimal among all decision maps against
the other policy held fixed as a map, and the previous policy is one such
map.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

from .belief import merged_support, reachable_beliefs, receiver_atoms, update_observer1
from .errors import CertificationError, ProblemSpecError
from .policies import (BLANK, O1Policy, O2Policy, StageRule, TerminalRule,
                       _message_model, extract_thresholds, send_law)
from .simulate import exact_cost, forward_pass
from .wald import solve_wald_finite, thresholds_from_labels, wald_cost

__all__ = [
    "evaluate_o2_policy", "o1_best_response", "o2_best_response",
    "pbpo_iteration", "extract_thresholds", "ValueTable",
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


def _lookup(atoms, values, belief, tol=1e-9):
    """Value at a belief that must be (close to) one of the atoms."""
    i = bisect_left(atoms, belief)
    best = None
    for j in (i - 1, i, i + 1):
        if 0 <= j < len(atoms):
            d = abs(atoms[j] - belief)
            if best is None or d < best[0]:
                best = (d, j)
    if best is None or best[0] > tol:
        raise CertificationError(f"belief {belief} not among expected atoms")
    return values[best[1]]


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
    for m in history:
        if m != BLANK:
            raise ProblemSpecError("history", f"pre-final message {m!r} is not blank")
    t = len(history) + 1
    if t > problem.t1:
        raise ProblemSpecError("history", f"final message at stage {t} is past the "
                                          f"deadline {problem.t1}")
    if final_z == BLANK or not isinstance(final_z, int) \
            or not 0 <= final_z < o2.n_messages:
        raise ProblemSpecError("final_z", f"not a symbol: {final_z!r}")
    charges = _scripted_charges(o2, problem, t, final_z)
    first = t if problem.variant == "P2" else 0
    return tuple(sum(g[h] for g in charges[first:]) for h in (0, 1))


def o1_best_response(o2, problem):
    """Exact best sender policy against a fixed receiver policy."""
    if problem.variant == "P2" and len(o2.blank_rules) < problem.t1 - 1:
        raise ProblemSpecError("o2", "receiver policy lacks blank-phase rules for P2")
    if o2.max_observations != problem.t2:
        raise ProblemSpecError("o2", f"receiver horizon {o2.max_observations} != {problem.t2}")
    costs = problem.costs
    m = problem.n_messages

    # affine send branches: affines[t][z] = (value under H=0, under H=1)
    affines = []
    for t in range(1, problem.t1 + 1):
        affines.append([evaluate_o2_policy(o2, (BLANK,) * (t - 1), z, problem)
                        for z in range(m)])
    if problem.variant == "P2":
        # the receiver's per-stage charges while messages stay blank
        concurrent = _scripted_charges(o2, problem, problem.t1, 0)[1:problem.t1]
    else:
        concurrent = [(0.0, 0.0)] * (problem.t1 - 1)

    levels = reachable_beliefs(problem.prior, problem.channel1, problem.t1)
    tables = []
    next_atoms = None
    next_values = None
    stages = []
    terminal = None
    for t in range(problem.t1, 0, -1):
        level = levels.level(t)
        atoms = level.atoms
        branches = {("send", z): [] for z in range(m)}
        if t < problem.t1:
            branches["blank"] = []
        values = []
        labels = []
        for b in atoms:
            cands = []
            for z in range(m):
                a0, a1 = affines[t - 1][z]
                cands.append((b * a0 + (1.0 - b) * a1, (0, -z), z))
                branches[("send", z)].append(cands[-1][0])
            if t < problem.t1:
                g0, g1 = concurrent[t - 1]
                rows = problem.channel1.row_pair(t + 1)
                cont = costs.c1 + b * g0 + (1.0 - b) * g1
                for y in range(len(rows[0])):
                    p = b * rows[0][y] + (1.0 - b) * rows[1][y]
                    if p <= 0.0:
                        continue
                    cont += p * _lookup(next_atoms, next_values,
                                        update_observer1(b, y, rows))
                cands.append((cont, (1, 0), BLANK))
                branches["blank"].append(cont)
            val, _, lab = min(cands, key=lambda c: (c[0], c[1]))
            values.append(val)
            labels.append(lab)
        rule = extract_thresholds(list(zip(atoms, labels)), m,
                                  terminal=(t == problem.t1))
        if t == problem.t1:
            terminal = rule
        else:
            stages.insert(0, rule)
        tables.insert(0, ValueTable(kind=("sender", t), atoms=tuple(atoms),
                                    values=tuple(values),
                                    branches={k: tuple(v) for k, v in branches.items()},
                                    labels=tuple(labels)))
        next_atoms, next_values = atoms, values

    o1 = O1Policy(stages=tuple(stages), terminal=terminal, n_messages=m)
    level1 = levels.level(1)
    total = costs.c1
    for b, w0, w1 in level1.items():
        total += (problem.prior * w0 + (1.0 - problem.prior) * w1) \
            * _lookup(level1.atoms, tables[0].values, b)
    return BestResponseResult(policy=o1, total=total, build_tables=lambda: tables)


# ---------------------------------------------------------------------------
# receiver best response


def _wald_tables(wald, problem, first_used=0):
    """ValueTables for the post-message classes, with branch values."""
    out = []
    for k in range(first_used, problem.t2 + 1):
        r = problem.t2 - k
        atoms = wald.eval_points
        tc0 = [b * problem.costs.loss[0][0] + (1.0 - b) * problem.costs.loss[0][1]
               for b in atoms]
        tc1 = [b * problem.costs.loss[1][0] + (1.0 - b) * problem.costs.loss[1][1]
               for b in atoms]
        branches = {"declare0": tuple(tc0), "declare1": tuple(tc1)}
        values = list(wald.values[r])
        labels = []
        if r > 0:
            branches["continue"] = tuple(wald.continuation(b, r) for b in atoms)
        for i, b in enumerate(atoms):
            cands = [(tc0[i], 0, 0), (tc1[i], 1, 1)]
            if r > 0:
                cands.append((branches["continue"][i], 2, None))
            _, _, lab = min(cands, key=lambda c: (c[0], c[1]))
            labels.append(lab)
        out.append(ValueTable(kind=("after", k), atoms=tuple(atoms),
                              values=tuple(values), branches=branches,
                              labels=tuple(labels)))
    return out


def o2_best_response(o1, problem):
    """Exact best receiver policy against a fixed sender policy.

    The returned policy's message model is this sender's, so the pair is
    consistent and the modelled beliefs are true posteriors.
    """
    if o1.horizon != problem.t1:
        raise ProblemSpecError("o1", f"sender horizon {o1.horizon} != T1 {problem.t1}")
    laws = send_law(o1, problem)
    model = _message_model(laws, o1.n_messages)
    costs = problem.costs

    # sender-side expected sampling cost, from the sender's send law
    e_c1 = 0.0
    posteriors = []  # (stage, symbol, receiver prior, unconditional prob)
    for t, (law, _) in enumerate(laws, start=1):
        for z, (r0, r1) in sorted((z, ws) for z, ws in law.items() if z != BLANK):
            p = problem.prior * r0 + (1.0 - problem.prior) * r1
            if p <= 0.0:
                continue
            e_c1 += costs.c1 * t * p
            n0 = problem.prior * r0
            posteriors.append((t, z, n0 / p, p))

    if problem.variant == "P1":
        seeds = [(0, post) for _, _, post, _ in posteriors] or [(0, problem.prior)]
        eval_pts = receiver_atoms(problem.channel2, problem.t2, seeds)
        wald = solve_wald_finite(problem.channel2, costs, problem.t2,
                                 eval_points=eval_pts)
        o2 = O2Policy(blank_rules=(), wald_rules=wald.thresholds,
                      message_model=model, n_messages=problem.n_messages)
        total = e_c1 + sum(p * wald_cost(wald, post, problem.t2)
                           for _, _, post, p in posteriors)
        return BestResponseResult(policy=o2, total=total,
                                  build_tables=lambda: _wald_tables(wald, problem))

    # interleaved variant: blank-phase dynamic program on modelled beliefs
    entering = {1: [float(problem.prior)]}   # beliefs entering stage s
    decision = {}                            # beliefs at the stage-s decision
    for s in range(1, problem.t1):
        rows = problem.channel2.row_pair(s)
        mb = model[s - 1].get(BLANK, (0.0, 0.0))
        cur = []
        for b in entering[s]:
            if mb[0] <= 0.0 and mb[1] <= 0.0:
                continue
            for y in range(len(rows[0])):
                f0 = mb[0] * rows[0][y]
                f1 = mb[1] * rows[1][y]
                den = b * f0 + (1.0 - b) * f1
                if den > 0.0:
                    cur.append(b * f0 / den)
        decision[s] = merged_support(cur)
        entering[s + 1] = decision[s]

    # stopping table on every post-message modelled belief
    seeds = []
    for t in range(1, problem.t1 + 1):
        rows = problem.channel2.row_pair(t)
        for z in range(problem.n_messages):
            mz = model[t - 1].get(z, (0.0, 0.0))
            if mz[0] <= 0.0 and mz[1] <= 0.0:
                continue
            for b in entering.get(t, []):
                for y in range(len(rows[0])):
                    f0 = mz[0] * rows[0][y]
                    f1 = mz[1] * rows[1][y]
                    den = b * f0 + (1.0 - b) * f1
                    if den > 0.0:
                        seeds.append((t, b * f0 / den))
    eval_pts = receiver_atoms(problem.channel2, problem.t2, seeds) or [float(problem.prior)]
    wald = solve_wald_finite(problem.channel2, costs, problem.t2,
                             eval_points=eval_pts)

    tables = []
    blank_rules = [None] * (problem.t1 - 1)
    next_table = None
    for s in range(problem.t1 - 1, 0, -1):
        atoms = decision[s]
        rows_n = problem.channel2.row_pair(s + 1)
        tc0 = [b * costs.loss[0][0] + (1.0 - b) * costs.loss[0][1] for b in atoms]
        tc1 = [b * costs.loss[1][0] + (1.0 - b) * costs.loss[1][1] for b in atoms]
        cont = []
        for b in atoms:
            c = costs.c2
            for z, (f0z, f1z) in model[s].items():
                for y in range(len(rows_n[0])):
                    f0 = f0z * rows_n[0][y]
                    f1 = f1z * rows_n[1][y]
                    p = b * f0 + (1.0 - b) * f1
                    if p <= 0.0:
                        continue
                    nb = b * f0 / p
                    if z == BLANK:
                        c += p * _lookup(next_table.atoms, next_table.values, nb) \
                            if next_table is not None else 0.0
                    else:
                        c += p * wald_cost(wald, nb, problem.t2 - (s + 1))
            cont.append(c)
        values = []
        labels = []
        for i in range(len(atoms)):
            cands = [(tc0[i], 0, 0), (tc1[i], 1, 1), (cont[i], 2, None)]
            v, _, lab = min(cands, key=lambda c: (c[0], c[1]))
            values.append(v)
            labels.append(lab)
        blank_rules[s - 1] = thresholds_from_labels(atoms, labels, costs.declare_boundary)
        table = ValueTable(kind=("blank", s), atoms=tuple(atoms),
                           values=tuple(values),
                           branches={"declare0": tuple(tc0), "declare1": tuple(tc1),
                                     "continue": tuple(cont)},
                           labels=tuple(labels))
        tables.insert(0, table)
        next_table = table

    o2 = O2Policy(blank_rules=tuple(blank_rules), wald_rules=wald.thresholds,
                  message_model=model, n_messages=problem.n_messages)

    # receiver-side value from the start, then add the sender's sampling
    rows1 = problem.channel2.row_pair(1)
    start = costs.c2
    b = float(problem.prior)
    for z, (f0z, f1z) in model[0].items():
        for y in range(len(rows1[0])):
            f0 = f0z * rows1[0][y]
            f1 = f1z * rows1[1][y]
            p = b * f0 + (1.0 - b) * f1
            if p <= 0.0:
                continue
            nb = b * f0 / p
            if z == BLANK:
                start += p * _lookup(tables[0].atoms, tables[0].values, nb)
            else:
                start += p * wald_cost(wald, nb, problem.t2 - 1)
    total = e_c1 + start
    return BestResponseResult(
        policy=o2, total=total,
        build_tables=lambda: tables + _wald_tables(wald, problem, first_used=1))


# ---------------------------------------------------------------------------
# alternating best responses


def immediate_sender_policy(problem):
    """Sender that always announces at stage 1, split at the declaration
    boundary; used as the default starting partner."""
    boundary = problem.costs.declare_boundary
    m = problem.n_messages
    send = [None] * m
    send[m - 1] = (0.0, boundary)
    send[0] = (boundary, 1.0)
    stages = tuple(StageRule(send=tuple(send)) for _ in range(problem.t1 - 1))
    terminal = TerminalRule(cuts=tuple([boundary] * (m - 1)))
    return O1Policy(stages=stages, terminal=terminal, n_messages=m)


def pbpo_iteration(problem, init=None, max_rounds=50):
    """Alternate exact best responses until the pair cost stops improving.

    Starts from ``init`` (an O2Policy) or from the best response to an
    immediate sender.  The trace holds the exact pair cost after every
    half-round; it is non-increasing.  Stops when a full round improves
    by less than 1e-12.
    """
    if max_rounds < 1:
        raise ProblemSpecError("max_rounds", f"need at least one round, got {max_rounds}")
    if init is None:
        o2 = o2_best_response(immediate_sender_policy(problem), problem).policy
    else:
        o2 = init
    trace = []
    prev = None
    converged = False
    rounds = 0
    o1 = None
    for _ in range(max_rounds):
        rounds += 1
        o1 = o1_best_response(o2, problem).policy
        trace.append(exact_cost((o1, o2), problem).total)
        o2 = o2_best_response(o1, problem).policy
        trace.append(exact_cost((o1, o2), problem).total)
        if prev is not None and prev - trace[-1] < PBPO_STOP:
            converged = True
            break
        prev = trace[-1]
    return PBPOResult(o1=o1, o2=o2, trace=trace, rounds=rounds, converged=converged)
