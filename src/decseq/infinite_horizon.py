"""Infinite-horizon limits and epsilon-optimal pairs.

The receiver limit removes the receiver's deadline: its post-message
problem becomes the stationary sampling problem (``solve_wald_infinite``)
and the finitely many pre-message stages are the finite best response's
blank-phase program, solved once on its atoms against that stationary
value.  The sender limit removes the sender's deadline against a receiver
with a bounded stopping time, which keeps the send branches time-invariant
affine curves; it runs the same grid value iteration as the stationary
stopping problem and picks its actions with the finite best response's
rule on arrays (``sender_codes``).  Epsilon-optimal pairs come from solving growing finite
horizons until exact tail probabilities certify the truncation bounds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .best_response import _blank_phase, _blank_walk, evaluate_o2_policy
from .errors import CapacityError, CertificationError, ProblemSpecError
from .policies import BLANK, O2Policy, build_message_model, extract_thresholds, sender_codes
from .seq_decomp import solve_p1, solve_p2
from .simulate import check_receiver, check_sender, exact_cost
from .wald import (GRID_SIZE_DEFAULT, StationaryWald, belief_grid, grid_continuation,
                   grid_value_iteration, solve_wald_infinite)

__all__ = ["TruncationCertificate", "O2InfiniteSolution", "O1InfiniteSolution",
           "EpsilonPair", "value_iterate_o2", "value_iterate_o1", "stationary_anchor",
           "truncation_bound", "epsilon_optimal_pair"]


@dataclass
class TruncationCertificate:
    role: str                 # "O1" or "O2"
    horizon: int | None       # truncation horizon the tail was measured at
    tail_prob: float
    epsilon: float
    formula: str              # "L*P" or "(c2*T2+L)*P"

    def to_dict(self):
        return {"role": self.role, "horizon": self.horizon,
                "tail_prob": self.tail_prob, "epsilon": self.epsilon,
                "formula": self.formula}


def truncation_bound(policy_role, tail_prob, costs, t2=None, horizon=None):
    """Cost a policy can lose to truncation, from its tail stopping mass."""
    role = str(policy_role).upper()
    if role not in ("O1", "O2"):
        raise ProblemSpecError("policy_role", f"unknown role {policy_role!r}")
    if not 0.0 <= tail_prob <= 1.0:
        raise ProblemSpecError("tail_prob", f"{tail_prob} outside [0, 1]")
    if role == "O2":
        eps = costs.max_loss * tail_prob
        formula = "L*P"
    else:
        if t2 is None or t2 < 0:
            raise ProblemSpecError("t2", "the sender bound needs the receiver horizon")
        eps = (costs.c2 * t2 + costs.max_loss) * tail_prob
        formula = "(c2*T2+L)*P"
    return TruncationCertificate(role=role, horizon=horizon,
                                 tail_prob=tail_prob, epsilon=eps,
                                 formula=formula)


# ---------------------------------------------------------------------------
# receiver limit


@dataclass
class O2InfiniteSolution:
    """Converged receiver values with no deadline of its own.

    ``wald`` is the stationary post-message solution and holds the grid,
    the thresholds and the iteration record; ``blank_tables`` and
    ``blank_thresholds`` cover the pre-message stages by stage (empty for
    the wait-then-sample variant).  The policy has no bounded stopping
    time.
    """

    wald: StationaryWald
    blank_tables: dict
    blank_thresholds: dict
    message_model: tuple

    @property
    def n_iter(self):
        # perfbench/tracer.py reads the iteration count off this result
        return self.wald.n_iter


def _require_stationary(problem):
    if not problem.channel1.stationary or not problem.channel2.stationary:
        raise ProblemSpecError("channels", "infinite-horizon limits need "
                                           "stationary channels")


def value_iterate_o2(o1, problem, grid_size=GRID_SIZE_DEFAULT):
    """Receiver limit with the deadline removed.

    The sender keeps its finite deadline.  After the message the receiver
    faces the stationary stopping problem (``solve_wald_infinite``); before
    it, the finite best response's blank-phase program runs on the same
    atoms against that stationary value.  Each blank value is monotone and
    1-Lipschitz in the post-message value (the message factors times the
    channel rows sum to 1), so it inherits the stationary iteration's
    monotone convergence and needs no iteration of its own.
    """
    _require_stationary(problem)
    check_sender(o1, problem)
    if len(set(o1.stages)) > 1:
        raise ProblemSpecError("o1", "sender stage rules must be stationary")
    model = build_message_model(o1, problem)
    wald = solve_wald_infinite(problem.channel2, problem.costs, grid_size=grid_size)
    tables, rules = {}, {}
    if problem.variant == "P2":
        tables, rules, _ = _blank_phase(problem, _blank_walk(model, problem),
                                        lambda t, b: np.interp(b, wald.grid, wald.values))
    return O2InfiniteSolution(wald=wald, blank_tables=tables, blank_thresholds=rules,
                              message_model=model)


# ---------------------------------------------------------------------------
# sender limit


@dataclass
class O1InfiniteSolution:
    grid: np.ndarray
    values: np.ndarray
    stage_rule: object
    affines: tuple
    n_iter: int
    deltas: list
    max_increase: float
    converged: bool

    @property
    def four_thresholds(self):
        """Binary-message view (alpha, beta, delta, theta); empty send
        regions collapse at the matching edge."""
        send = self.stage_rule.send
        low = send[len(send) - 1] if send[len(send) - 1] is not None else (0.0, 0.0)
        high = send[0] if send[0] is not None else (1.0, 1.0)
        return (low[0], low[1], high[0], high[1])


def stationary_anchor(o2, problem):
    """Receiver ``o2`` with its first-stage message model repeated over all
    T1 stages, the stage-free arrival factors the sender limit needs; None
    when that stage's blank factor is informative, which makes them vary
    with the stage.  An empty model reads as uninformative, as
    ``O2Policy.message_factor`` reads a missing stage."""
    first = dict(o2.message_model[0]) if o2.message_model else {}
    mb = first.get(BLANK, (0.0, 0.0))
    if mb[0] != mb[1]:
        return None
    return dataclasses.replace(o2, message_model=(first,) * problem.t1)


def _run_ends(codes):
    """Indices of the first and last entry of each run of equal codes:
    ``extract_thresholds`` reads a run only at those points and their
    neighbours, so its rule from those (point, action) pairs alone is the
    rule from all of them."""
    change = codes[1:] != codes[:-1]
    return np.flatnonzero(np.append(True, change) | np.append(change, True))


def value_iterate_o1(o2, problem, grid_size=GRID_SIZE_DEFAULT):
    """Sender value iteration with its deadline removed.

    Needs a finite receiver (``O2Policy``: its last rule forces a
    declaration, so its stopping time is bounded) that is its own
    ``stationary_anchor``, so the send branches are fixed affine curves;
    then the sender recursion is a contraction toward the no-deadline value.
    """
    if not isinstance(o2, O2Policy):
        raise ProblemSpecError("o2", f"not a finite receiver policy: {type(o2).__name__}")
    if problem.variant != "P1":
        raise ProblemSpecError("variant", "the sender limit is implemented for "
                                          "the wait-then-sample variant; finite "
                                          "interleaved horizons are covered by "
                                          "the designer solvers")
    if not problem.channel1.stationary:
        raise ProblemSpecError("channels", "infinite-horizon limits need "
                                           "stationary channels")
    check_receiver(o2, problem)
    if o2 != stationary_anchor(o2, problem):
        raise ProblemSpecError("o2", "receiver is not its own stationary_anchor: one "
                                     "message model stage, blank uninformative, T1 times")
    m = problem.n_messages
    affines = [evaluate_o2_policy(o2, (), z, problem) for z in range(m)]

    grid = belief_grid(grid_size)

    def send_curves():
        return [grid * a + (1.0 - grid) * b for a, b in affines]

    cont = grid_continuation(problem.channel1.row_pair(1), problem.costs.c1, grid)
    values, record = grid_value_iteration(cont, np.minimum.reduce(send_curves()))
    # the curves are built again once the continuation's tables are freed,
    # which keeps a large grid's peak at the value iteration's
    wait = cont(values)
    del cont
    codes, _ = sender_codes(send_curves(), wait)
    ends = _run_ends(codes)
    rule = extract_thresholds(zip(grid[ends].tolist(),
                                  [BLANK if z < 0 else z for z in codes[ends].tolist()]),
                              m, terminal=False)
    return O1InfiniteSolution(grid=grid, values=values, stage_rule=rule,
                              affines=tuple(affines), **record)


# ---------------------------------------------------------------------------
# epsilon-optimal construction


@dataclass
class EpsilonPair:
    o1: object
    o2: object
    certificates: tuple
    horizon: int
    cost: float

    @property
    def epsilon(self):
        return self.certificates[0].epsilon + self.certificates[1].epsilon


def epsilon_optimal_pair(problem, epsilon, max_horizon=6):
    """Solve horizons 1, 2, ... until the exact tail masses certify total
    truncation loss ≤ epsilon (half per observer).

    Raises ``CertificationError``, with the best pair so far as ``best``,
    when no horizon up to ``max_horizon`` certifies or when a horizon after
    the first exceeds the designer's node cap; a cap hit at horizon 1
    stays a ``CapacityError``.
    """
    if not 0.0 < epsilon < float("inf"):
        raise ProblemSpecError("epsilon", f"{epsilon} is not a finite number > 0")
    if max_horizon < 1:
        raise ProblemSpecError("max_horizon", f"{max_horizon} is below the first horizon 1")
    _require_stationary(problem)
    solver = solve_p1 if problem.variant == "P1" else solve_p2
    best = None
    failure = f"no horizon up to {max_horizon} certifies epsilon={epsilon}"
    for t in range(1, max_horizon + 1):
        finite = dataclasses.replace(problem, t1=t, t2=t)
        try:
            sol = solver(finite)
        except CapacityError as exc:
            if best is None:
                raise
            failure = (f"horizon {t} stopped at the designer search cap ({exc}) before "
                       f"certifying epsilon={epsilon}")
            break
        bd = exact_cost((sol.o1, sol.o2), finite)
        cert1 = truncation_bound("O1", bd.tau1_tail(t), problem.costs,
                                 t2=t, horizon=t)
        cert2 = truncation_bound("O2", bd.tau2_tail(t), problem.costs,
                                 horizon=t)
        pair = EpsilonPair(o1=sol.o1, o2=sol.o2, certificates=(cert1, cert2),
                           horizon=t, cost=sol.total)
        if best is None or pair.epsilon < best.epsilon:
            best = pair
        if cert1.epsilon <= epsilon / 2.0 and cert2.epsilon <= epsilon / 2.0:
            return pair
    raise CertificationError(
        f"{failure}; best achieved {best.epsilon} at horizon {best.horizon}", best=best)
