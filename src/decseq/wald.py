"""Observer 2's stopping problem once no further messages are coming.

After the final message the receiver faces a classical sequential test: pay
c2 per fresh observation, or declare and pay the terminal loss.  With a
finite number of observations left the cost-to-go is the minimum of finitely
many affine functions of the belief (Smallwood & Sondik, Operations Research
1973), so the finite solver holds it exactly as knot arrays, built by one
backup per remaining observation and read by one interpolation over arrays
of beliefs (``WaldSolution.reader``, which ``wald_cost``, ``continuation``
and the designer's run pricing share); each backup also finds the exact ends
of its sampling run, the receiver's thresholds (``WaldSolution.crossings``).
The table depends only on the channel, the costs and the horizon, so a
designer solve or a PBPO run builds it once.  The stationary solver is value
iteration on a grid with linear interpolation (``grid_value_iteration``,
which the sender's no-deadline limit shares).  It stays on the grid because
iterating the knot backup to a tolerance is not monotone in floating point:
consecutive knot iterates rise by ~1e-16, which breaks the exact
``max_increase <= 0`` record that the grid iterates keep.

Every receiver program (the two solvers here, and the best responses'
post-message tables and blank phase) labels its beliefs with one rule,
``stop_or_sample``; every numpy Bayes step goes through ``belief.outcomes``,
the numpy twin of ``belief.bayes``.

Threshold convention everywhere: declare 1 for beliefs at or below the lower
threshold, declare 0 at or above the upper one, keep sampling strictly in
between.  Remember beliefs are P(H=0 | info), so low belief means H=1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .belief import outcomes
from .errors import CapacityError, ProblemSpecError, StructureViolation
from .model import Channel, terminal_cost

GRID_SIZE_DEFAULT = 1001
# belief_grid refuses finer grids: at 10**6 points solve-infinite peaks at
# about 290 MB on sym02_p1 and 120 MB on sym02_p2 (Python 3.11, numpy 2.4)
GRID_CAP = 1_000_000
# solve_wald_finite refuses longer horizons: a step holds 276 knots (4.4 KB)
# on sym02's channel and 1,444 (23 KB) on mary3's, so at most about 2.3 GB
WALD_HORIZON_CAP = 100_000
VI_TOL_DEFAULT = 1e-9
VI_MAX_ITER_DEFAULT = 10000


def _choose(b, cont, costs):
    """``stop_or_sample``'s rule on an array of beliefs b and continuation
    costs ``cont`` (or None): labels 0.0, 1.0 or NaN (keep sampling), the
    cost of each choice, and the two declaration costs, all arrays."""
    tc0, tc1 = (terminal_cost(u, b, costs) for u in (0, 1))
    one = ~(tc0 <= tc1)
    values = np.where(one, tc1, tc0)
    labels = one.astype(float)
    if cont is not None:
        go = cont < values
        values = np.where(go, cont, values)
        labels[go] = np.nan
    return labels, values, tc0, tc1


def stop_or_sample(points, cont, costs):
    """The receiver's choice at each belief of ``points``: declare 0,
    declare 1 (each at its ``terminal_cost``, taken on the whole array) or
    keep sampling at expected cost ``cont[i]`` (``cont`` None: it must
    declare).  Ties go to stopping, then to declaring 0.

    Returns (labels, values, branches): labels[i] is 0, 1 or None (keep
    sampling), values[i] the cost of that choice, and branches maps
    "declare0", "declare1" and, given ``cont``, "continue" to the
    per-point costs.
    """
    labels, values, tc0, tc1 = _choose(np.asarray(points, dtype=float), cont, costs)
    branches = {"declare0": tuple(tc0.tolist()), "declare1": tuple(tc1.tolist())}
    if cont is not None:
        branches["continue"] = tuple(cont)
    return ([None if math.isnan(x) else int(x) for x in labels.tolist()], values.tolist(),
            branches)


def thresholds_from_labels(points, labels, declare_boundary):
    """Threshold pair from per-point optimal actions.

    labels[i] is 1 (declare 1), 0 (declare 0) or None or NaN (keep
    sampling) at points[i], points ascending.  The only admissible pattern
    is a run of 1s, then samples, then 0s, any run possibly empty.
    Thresholds go at midpoints between adjacent points with different
    labels; an empty sampling run collapses both thresholds onto the
    declaration boundary.
    """
    lab = np.asarray(labels, dtype=float)
    ones, go = lab == 1.0, np.isnan(lab)
    i = int(ones.sum())
    j = i + int(go.sum())
    if not (ones[:i].all() and go[i:j].all() and (lab[j:] == 0.0).all()):
        raise StructureViolation(
            f"stopping actions are not threshold-shaped: labels {labels} at {points}")
    if i == j:
        return (declare_boundary, declare_boundary)
    w1 = 0.0 if i == 0 else 0.5 * (points[i - 1] + points[i])
    w2 = 1.0 if j == lab.size else 0.5 * (points[j - 1] + points[j])
    return (w1, w2)


@dataclass(eq=False)
class WaldSolution:
    """Finite-horizon stopping solution: the receiver's knot table.

    ``knots[r]`` is a pair ``(xs, ys)`` of equal-length arrays holding the
    cost-to-go with r observations left at ascending beliefs xs, from 0 to
    1.  That cost-to-go is the minimum of finitely many affine functions of
    the belief, and xs holds all of its breakpoints, so the linear
    interpolation that ``reader`` performs is exact up to roundoff.
    ``crossings[r]`` is the exact threshold pair with r observations left.
    """

    channel: Channel
    costs: object
    horizon: int
    knots: tuple = field(repr=False)
    crossings: tuple

    def reader(self, remaining):
        """The function beliefs -> optimal expected cost-to-go with
        ``remaining`` observations left, on a belief or an array of beliefs
        in [0, 1]: the cheaper declaration when none is left, else the knot
        table's value at a knot and linear interpolation between knots."""
        if not 0 <= remaining <= self.horizon:
            raise ProblemSpecError("remaining", f"{remaining} outside 0..{self.horizon}")
        if remaining == 0:
            return lambda beliefs: _stop_cost(beliefs, self.costs)
        xs, ys = self.knots[remaining]

        def read(beliefs):
            i = np.searchsorted(xs, beliefs)
            # i = 0 only at belief 0.0, a knot; there the wrapped i - 1 is unused
            x0, y0, x1, y1 = xs[i - 1], ys[i - 1], xs[i], ys[i]
            return np.where(x1 == beliefs, y1, y0 + (y1 - y0) * ((beliefs - x0) / (x1 - x0)))
        return read

    def continuation(self, beliefs, remaining):
        """Expected cost of one more observation, then optimal play, at an
        array of beliefs."""
        beliefs = np.asarray(beliefs, dtype=float)
        read = self.reader(remaining - 1)
        cont = np.full(beliefs.shape, self.costs.c2)
        # with r observations left, the next draw is observation number
        # horizon - r + 1; a symbol of probability 0 adds 0.0
        for prob, post in zip(*(a.T for a in outcomes(
                beliefs, self.channel.row_pair(self.horizon - remaining + 1)))):
            cont += prob * read(post)
        return cont

    def thresholds_at(self, points):
        """Threshold pairs at midpoints between ``points``, beliefs in [0, 1],
        from the dynamic program's own label at each point, ties included
        (a problem's reachable atoms are classified exactly as it classifies
        them).  Entry k applies after k observations; the entry at the
        horizon has both components equal, forcing a declaration."""
        pts = sorted(set(float(p) for p in points))
        for p in pts:
            if not 0.0 <= p <= 1.0:
                raise ProblemSpecError("points", f"belief {p} outside [0, 1]")
        # sentinels at 0 and 1 give the label runs well-defined ends
        if not pts or pts[0] > 0.0:
            pts.insert(0, 0.0)
        if pts[-1] < 1.0:
            pts.append(1.0)
        boundary = self.costs.declare_boundary
        thresholds = []
        for r in range(self.horizon, 0, -1):
            labels = _choose(np.array(pts), self.continuation(pts, r), self.costs)[0]
            thresholds.append(thresholds_from_labels(pts, labels, boundary))
        thresholds.append((boundary, boundary))
        return tuple(thresholds)


def _stop_cost(b, costs):
    return np.minimum(terminal_cost(0, b, costs), terminal_cost(1, b, costs))


def _backup(xs, ys, rows, costs):
    """Knots of min(stop, c2 + E[V(next belief)]) given the knots of V.

    Every breakpoint of the continuation is the preimage of a knot of V
    under some symbol's Bayes map; a symbol with a zero entry in either row
    sends every belief to an endpoint, so its term is affine and adds none.
    Stop and continuation are then both affine between consecutive
    candidates, and each crossing between them is inserted exactly.
    Knots strictly inside a stopping run on one side of the declaration
    boundary are dropped: there the value is one affine declaration cost.
    Also returns the sampling run's ends: the knots just outside it (or its
    own end at 0.0 or 1.0), or the boundary twice when nothing samples.
    """
    boundary = costs.declare_boundary
    row0, row1 = (np.asarray(r, dtype=float) for r in rows)
    both = (row0 > 0.0) & (row1 > 0.0)
    num = np.multiply.outer(row1[both], xs)
    cand = num / (num + np.multiply.outer(row0[both], 1.0 - xs))
    # sort and drop repeats by hand: np.unique imports numpy.ma on first use
    b = np.sort(np.concatenate(([0.0, boundary, 1.0], cand.ravel())))
    b = b[np.concatenate(([True], b[1:] != b[:-1]))]
    cont = np.full_like(b, costs.c2)
    prob, post = outcomes(b, rows)
    for p, v in zip(prob.T, np.interp(post.T, xs, ys)):
        cont += p * v
    gap = cont - _stop_cost(b, costs)
    flip = np.flatnonzero(np.sign(gap[:-1]) * np.sign(gap[1:]) < 0.0)
    cross = b[flip] + (b[flip + 1] - b[flip]) * (gap[flip] / (gap[flip] - gap[flip + 1]))
    # each crossing goes after its left candidate, its cont +inf: it stops
    order = np.argsort(np.concatenate((np.arange(b.size), flip)), kind="stable")
    b = np.concatenate((b, cross))[order]
    cont = np.concatenate((cont, np.full(flip.size, np.inf)))[order]
    stop = _stop_cost(b, costs)
    val, stopping = np.minimum(stop, cont), cont >= stop
    go = (~stopping).nonzero()[0]
    # b[0] is 0.0 and b[-1] is 1.0, so clipping reads an end the run reaches
    ends = ((float(b[max(go[0] - 1, 0)]), float(b[min(go[-1] + 1, b.size - 1)])) if go.size
            else (boundary, boundary))
    inner = stopping[1:-1] & stopping[:-2] & stopping[2:] & (b[1:-1] != boundary)
    keep = np.concatenate(([True], ~inner, [True]))
    return (b[keep], val[keep]), ends


def _knot_tables(channel, costs, horizon):
    """(xs, ys) knot arrays for the cost-to-go with 0..horizon observations
    left, and the sampling-run ends of each (the boundary twice at 0)."""
    xs = np.array(sorted({0.0, costs.declare_boundary, 1.0}))
    steps = [((xs, _stop_cost(xs, costs)), (costs.declare_boundary,) * 2)]
    for r in range(1, horizon + 1):
        steps.append(_backup(*steps[-1][0], channel.row_pair(horizon - r + 1), costs))
    return tuple(zip(*steps))


def solve_wald_finite(channel, costs, horizon):
    """The receiver's finite-horizon knot table and thresholds; channel is
    observer 2's Channel (its t-th table feeds the t-th observation).  A
    horizon above ``WALD_HORIZON_CAP`` raises ``CapacityError``."""
    if horizon < 0:
        raise ProblemSpecError("horizon", "must be >= 0")
    if horizon > WALD_HORIZON_CAP:
        raise CapacityError(horizon, WALD_HORIZON_CAP, "receiver horizon")
    if not channel.stationary and len(channel.tables) < horizon:
        raise ProblemSpecError("channels", f"channel covers {len(channel.tables)} "
                                           f"observations, horizon {horizon} needed")
    return WaldSolution(channel, costs, horizon, *_knot_tables(channel, costs, horizon))


def wald_cost(solution, belief, remaining):
    """Exact optimal cost-to-go with ``remaining`` observations left."""
    if not 0.0 <= belief <= 1.0:
        raise ProblemSpecError("belief", f"{belief} outside [0, 1]")
    return float(solution.reader(remaining)(belief))


def belief_grid(grid_size):
    """Uniform value-iteration grid on [0, 1]; needs an interior point.  A
    grid above ``GRID_CAP`` points raises ``CapacityError``."""
    if grid_size < 3:
        raise ProblemSpecError("grid_size", f"need at least 3 grid points, got {grid_size}")
    if grid_size > GRID_CAP:
        raise CapacityError(grid_size, GRID_CAP, "grid points")
    return np.linspace(0.0, 1.0, grid_size)


def grid_continuation(rows, charge, grid):
    """The map V -> charge + E[V(next belief)] on ``grid``, for one
    observation drawn from the row pair ``rows`` and V read by linear
    interpolation."""
    g = np.asarray(grid, dtype=float)
    branches = list(zip(*(a.T for a in outcomes(g, rows))))

    def cont(values):
        out = np.full_like(g, charge)
        for prob, post in branches:
            out += prob * np.interp(post, g, values)
        return out
    return cont


def grid_value_iteration(cont, floor):
    """Run V -> min(floor, cont(V)) from V = floor until the sup change
    falls below VI_TOL_DEFAULT or VI_MAX_ITER_DEFAULT backups are done.

    Returns the last iterate and its record: ``n_iter`` backups, their sup
    ``deltas``, the largest pointwise increase between consecutive iterates
    (``max_increase``, <= 0 when the iterates are monotone) and whether
    they ``converged``.
    """
    values = floor
    deltas = []
    max_increase = -np.inf
    converged = False
    while len(deltas) < VI_MAX_ITER_DEFAULT and not converged:
        new = np.minimum(floor, cont(values))
        deltas.append(float(np.max(np.abs(new - values))))
        max_increase = max(max_increase, float(np.max(new - values)))
        values = new
        converged = deltas[-1] < VI_TOL_DEFAULT
    return values, {"n_iter": len(deltas), "deltas": deltas,
                    "max_increase": max_increase, "converged": converged}


@dataclass(eq=False)
class StationaryWald:
    """Converged stationary stopping solution on a grid."""

    grid: np.ndarray
    values: np.ndarray
    w1: float
    w2: float
    n_iter: int
    deltas: list
    max_increase: float
    converged: bool


def solve_wald_infinite(channel, costs, grid_size=GRID_SIZE_DEFAULT):
    """Stationary stopping solution by value iteration.

    channel is a stationary Channel.  Records the per-iteration sup deltas
    and the largest pointwise increase seen between consecutive iterates
    (should be <= 0 up to roundoff).
    """
    if not channel.stationary:
        raise ProblemSpecError("channels", "stationary solve needs a stationary channel")
    grid = belief_grid(grid_size)
    values, record = grid_value_iteration(grid_continuation(channel.tables[0], costs.c2, grid),
                                          _stop_cost(grid, costs))
    # the last iterate is min(stop, continuation): it lies below the
    # stopping cost exactly where sampling was strictly cheaper
    w1, w2 = thresholds_from_labels(grid, _choose(grid, values, costs)[0],
                                    costs.declare_boundary)
    return StationaryWald(grid=grid, values=values, w1=w1, w2=w2, **record)
