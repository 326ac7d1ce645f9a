"""Brute-force ground truth on tiny instances.

Everything here works on raw observation histories, never on beliefs or
thresholds, so agreement with the solvers is a genuine cross-check rather
than the same algorithm twice.

Policy spaces are counted on the reachable tree: choices at nodes a policy
cannot reach (below its own stop, or on zero-probability branches) do not
produce distinct behaviours and are not counted.  Sender maps are
enumerated literally, once each.  The receiver side uses exact
minimization per information node — per message class via the rule
affines for the wait-then-sample variant, by backward induction over the
raw message-and-observation tree for the interleaved variant.  Both are
exhaustive minima over the full receiver policy space; the reported count
is the number of policy pairs the search covers.

``cap`` bounds the work, not the count.  Before anything is enumerated, a
closed-form upper bound on the work is compared with it and
``CapacityError`` is raised if the bound is larger; a ``cap`` below 0 is
a ``ProblemSpecError``, raised before any bound is computed.  The bound
is, for P1, the stopping-rule tree nodes built and priced plus sender
maps times stopping rules; for P2, sender maps times the receiver's
decision nodes; for ``brute_force_wald``, the stopping rules.  One unit
took 0.3-1.8 µs on a 2-core Xeon VM, so the default cap is at most about a
minute of work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product

from .errors import CapacityError, ProblemSpecError

__all__ = ["OracleResult", "brute_force_wald", "enumerate_policies_p1",
           "enumerate_policies_p2", "count_stop_rules", "ORACLE_CAP_DEFAULT"]

ORACLE_CAP_DEFAULT = 3 * 10 ** 7


@dataclass
class OracleResult:
    """Global optimum ``cost`` and ``count``, the number of policy pairs
    covered."""

    cost: float
    count: int


def _check_cap(cap):
    if cap < 0:
        raise ProblemSpecError("cap", f"must be at least 0, got {cap}")


def _check_work(work, cap):
    if work > cap:
        raise CapacityError(work, cap, "oracle work bound")


# ---------------------------------------------------------------------------
# stopping rules on a single observation tree


def _rule_sizes(horizon, n_symbols, cap):
    """(number, total tree nodes) of the stopping rules over ``horizon``
    observations.  Each level raises the last count to the power
    ``n_symbols``, so once the count passes ``cap`` both stop growing and
    are then lower bounds above the cap."""
    n = size = 2
    for _ in range(horizon):
        if n > cap:
            break
        # a new rule is a stop, or continue with one child rule per symbol
        n, size = (2 + n ** n_symbols,
                   2 + n ** n_symbols + n_symbols * n ** (n_symbols - 1) * size)
    return n, size


def count_stop_rules(horizon, n_symbols):
    """Number of deterministic history-indexed stopping rules; the forced
    declaration at the horizon still picks 0 or 1."""
    return _rule_sizes(horizon, n_symbols, math.inf)[0]


def _stop_rules(depth, horizon, n_symbols):
    """Rules from a decision node reached after ``depth`` observations.
    A rule is 0, 1, or ("c", children) with one child per symbol."""
    yield 0
    yield 1
    if depth == horizon:
        return
    kids = tuple(_stop_rules(depth + 1, horizon, n_symbols))
    for combo in product(kids, repeat=n_symbols):
        yield ("c", combo)


def _rule_cost(rule, depth, m0, m1, rows_for, costs):
    if rule == 0 or rule == 1:
        return m0 * costs.loss[rule][0] + m1 * costs.loss[rule][1]
    out = (m0 + m1) * costs.c2
    rows = rows_for(depth + 1)
    for y, kid in enumerate(rule[1]):
        out += _rule_cost(kid, depth + 1, m0 * rows[0][y], m1 * rows[1][y],
                          rows_for, costs)
    return out


def brute_force_wald(channel, costs, horizon, prior, cap=ORACLE_CAP_DEFAULT):
    """Exhaustive minimum over all stopping rules for the single-observer
    sampling problem started at ``prior``; ``cap`` bounds the number of
    rules."""
    _check_cap(cap)
    count = _rule_sizes(horizon, channel.n_symbols, cap)[0]
    _check_work(count, cap)
    best = min(_rule_cost(rule, 0, prior, 1.0 - prior, channel.row_pair, costs)
               for rule in _stop_rules(0, horizon, channel.n_symbols))
    return OracleResult(cost=best, count=count)


# ---------------------------------------------------------------------------
# sender maps


def _count_o1_maps(problem, cap):
    """Sender maps on the full observation tree, an upper bound on those
    enumerated; stops growing, as a lower bound, once past ``cap``."""
    n = problem.n_messages
    for _ in range(problem.t1 - 1):
        if n > cap:
            break
        n = problem.n_messages + n ** problem.channel1.n_symbols
    return n ** problem.channel1.n_symbols


def _o1_subpolicies(problem, t, m0, m1):
    """All sender sub-policies at a node where observation t was just
    taken, each as its tuple of (send time, symbol, mass0, mass1) leaves.
    Zero-probability nodes collapse to one canonical choice so the policy
    count stays on the reachable tree."""
    if m0 == 0.0 and m1 == 0.0:
        return [()]
    out = [((t, z, m0, m1),) for z in range(problem.n_messages)]
    if t < problem.t1:
        rows = problem.channel1.row_pair(t + 1)
        kids = [_o1_subpolicies(problem, t + 1, m0 * rows[0][y], m1 * rows[1][y])
                for y in range(len(rows[0]))]
        out.extend(tuple(chain.from_iterable(combo)) for combo in product(*kids))
    return out


def _o1_maps(problem):
    """Each sender map once, as its tuple of leaves."""
    rows = problem.channel1.row_pair(1)
    roots = [_o1_subpolicies(problem, 1, problem.prior * rows[0][y],
                             (1.0 - problem.prior) * rows[1][y])
             for y in range(len(rows[0]))]
    for combo in product(*roots):
        yield tuple(chain.from_iterable(combo))


def _sender_cost(problem, branches):
    return problem.costs.c1 * sum(t * (m0 + m1) for t, _, m0, m1 in branches)


def _pool_classes(branches):
    """Pool sender leaves by the (time, symbol) class the receiver sees;
    zero-mass leaves are dropped."""
    classes = {}
    for t, z, m0, m1 in branches:
        if m0 == 0.0 and m1 == 0.0:
            continue
        acc = classes.setdefault((t, z), [0.0, 0.0])
        acc[0] += m0
        acc[1] += m1
    return classes


# ---------------------------------------------------------------------------
# wait-then-sample variant


def enumerate_policies_p1(problem, cap=ORACLE_CAP_DEFAULT):
    if problem.variant != "P1":
        raise ProblemSpecError("variant", "enumerate_policies_p1 needs a P1 instance")
    _check_cap(cap)
    # work: every stopping-rule tree node built and priced, plus every rule
    # priced against every sender map
    n_rules, rule_nodes = _rule_sizes(problem.t2, problem.channel2.n_symbols, cap)
    _check_work(rule_nodes + _count_o1_maps(problem, cap) * n_rules, cap)

    # per-rule cost is linear in the class masses; precompute unit costs
    rows_for, costs = problem.channel2.row_pair, problem.costs
    aff = [(_rule_cost(r, 0, 1.0, 0.0, rows_for, costs),
            _rule_cost(r, 0, 0.0, 1.0, rows_for, costs))
           for r in _stop_rules(0, problem.t2, problem.channel2.n_symbols)]

    best = None
    total = 0
    for branches in _o1_maps(problem):
        classes = _pool_classes(branches)
        total += n_rules ** len(classes)
        cost = _sender_cost(problem, branches)
        for key in sorted(classes):
            m0, m1 = classes[key]
            cost += min(m0 * a + m1 * b for a, b in aff)
        if best is None or cost < best:
            best = cost
    return OracleResult(cost=best, count=total)


# ---------------------------------------------------------------------------
# interleaved variant


def _p2_class_masses(problem, branches):
    """blank[t] = mass still blank after stage t; sent[(t, z)] = mass of
    that message class; both per hypothesis, prior included."""
    sent = _pool_classes(branches)
    blank = {t: [0.0, 0.0] for t in range(problem.t1 + 1)}
    for (t, z), (m0, m1) in sent.items():
        for s in range(t):
            blank[s][0] += m0
            blank[s][1] += m1
    return blank, sent


def _p2_receiver(problem, blank, sent):
    """Backward induction over the receiver's raw (messages, observations)
    tree for one sender map.  Returns (value, policy count)."""
    costs = problem.costs
    rows_for = problem.channel2.row_pair

    def node(t, y0, y1, cls, blank_mode):
        """Entered holding message class ``cls`` (still blank in
        ``blank_mode``) after t observations of likelihoods y0, y1.  The
        root, t = 0, must continue and counts no declare option."""
        m0 = cls[0] * y0
        m1 = cls[1] * y1
        declare = min(m0 * costs.loss[u][0] + m1 * costs.loss[u][1] for u in (0, 1))
        if t == problem.t2:
            return declare, 2
        # message classes reachable entering stage t+1
        if blank_mode:
            nxt = []
            if t + 1 < problem.t1 and (blank[t + 1][0] > 0.0 or blank[t + 1][1] > 0.0):
                nxt.append((blank[t + 1], True))
            nxt += [(sent[(t + 1, z)], False) for z in range(problem.n_messages)
                    if (t + 1, z) in sent]
        else:
            nxt = [(cls, False)]
        cont = costs.c2 * (m0 + m1)
        count = 1
        rows = rows_for(t + 1)
        for ncls, nblank in nxt:
            for y in range(len(rows[0])):
                ny0 = y0 * rows[0][y]
                ny1 = y1 * rows[1][y]
                if ncls[0] * ny0 == 0.0 and ncls[1] * ny1 == 0.0:
                    continue
                cv, cc = node(t + 1, ny0, ny1, ncls, nblank)
                cont += cv
                count *= cc
        if t == 0:
            return cont, count
        return min(declare, cont), 2 + count

    return node(0, 1.0, 1.0, blank[0], True)


def _receiver_nodes(problem, cap):
    """Upper bound on the receiver's decision nodes for one sender map: at
    stage t, (t < T1) + M·min(t, T1) message histories times Y**t
    observation histories.  Stops summing, as a lower bound, once past
    ``cap``."""
    nodes = 0
    for t in range(problem.t2 + 1):
        nodes += (((t < problem.t1) + problem.n_messages * min(t, problem.t1))
                  * problem.channel2.n_symbols ** t)
        if nodes > cap:
            break
    return nodes


def enumerate_policies_p2(problem, cap=ORACLE_CAP_DEFAULT):
    if problem.variant != "P2":
        raise ProblemSpecError("variant", "enumerate_policies_p2 needs a P2 instance")
    _check_cap(cap)
    _check_work(_count_o1_maps(problem, cap) * _receiver_nodes(problem, cap), cap)

    best = None
    total = 0
    for branches in _o1_maps(problem):
        value, count = _p2_receiver(problem, *_p2_class_masses(problem, branches))
        total += count
        cost = _sender_cost(problem, branches) + value
        if best is None or cost < best:
            best = cost
    return OracleResult(cost=best, count=total)
