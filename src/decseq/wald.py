"""Observer 2's stopping problem once no further messages are coming.

After the final message the receiver faces a classical sequential test: pay
c2 per fresh observation, or declare and pay the terminal loss.  With a
finite number of observations left the cost-to-go is the minimum of finitely
many affine functions of the belief (Smallwood & Sondik, Operations Research
1973), so the finite solver holds it exactly as knot arrays, built by one
backup per remaining observation and read by one interpolation
(``WaldSolution.reader``).  The stationary solver is value iteration on a
grid with linear interpolation.

Threshold convention everywhere: declare 1 for beliefs at or below the lower
threshold, declare 0 at or above the upper one, keep sampling strictly in
between.  Remember beliefs are P(H=0 | info), so low belief means H=1.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import ProblemSpecError, StructureViolation
from .model import Channel, terminal_cost

GRID_SIZE_DEFAULT = 1001
VI_TOL_DEFAULT = 1e-9
VI_MAX_ITER_DEFAULT = 10000


def _as_eval_points(eval_points):
    if eval_points is None:
        eval_points = np.linspace(0.0, 1.0, GRID_SIZE_DEFAULT)
    elif isinstance(eval_points, int):
        eval_points = np.linspace(0.0, 1.0, eval_points)
    pts = sorted(set(float(p) for p in eval_points))
    for p in pts:
        if not 0.0 <= p <= 1.0:
            raise ProblemSpecError("eval_points", f"belief {p} outside [0, 1]")
    return tuple(pts)


def thresholds_from_labels(points, labels, declare_boundary):
    """Threshold pair from per-point optimal actions.

    labels[i] is 1 (declare 1), 0 (declare 0) or None (keep sampling) at
    points[i], points ascending.  The only admissible pattern is a run of
    1s, then Nones, then 0s, any run possibly empty.  Thresholds go at
    midpoints between adjacent points with different labels; an empty
    sampling run collapses both thresholds onto the declaration boundary.
    """
    n = len(points)
    i = 0
    while i < n and labels[i] == 1:
        i += 1
    j = i
    while j < n and labels[j] is None:
        j += 1
    k = j
    while k < n and labels[k] == 0:
        k += 1
    if k != n:
        raise StructureViolation(
            f"stopping actions are not threshold-shaped: labels {labels} at {points}")
    if i == j:
        return (declare_boundary, declare_boundary)
    w1 = 0.0 if i == 0 else 0.5 * (points[i - 1] + points[i])
    w2 = 1.0 if j == n else 0.5 * (points[j - 1] + points[j])
    return (w1, w2)


@dataclass(eq=False)
class WaldSolution:
    """Finite-horizon stopping solution.

    ``thresholds[k]`` applies after k observations (so k also indexes
    absolute time when the receiver samples every step); the entry at the
    horizon has both components equal, forcing a declaration.  ``values[r]``
    is the optimal cost-to-go with r observations left, evaluated on
    ``eval_points``.

    ``knots[r]`` is a pair ``(xs, ys)`` of equal-length lists holding the
    cost-to-go with r observations left at ascending beliefs xs, from 0 to
    1.  That cost-to-go is the minimum of finitely many affine functions of
    the belief, and xs holds all of its breakpoints, so the linear
    interpolation that ``value`` performs is exact up to roundoff.
    """

    channel: Channel
    costs: object
    horizon: int
    eval_points: tuple
    thresholds: tuple = ()
    values: tuple = ()
    knots: tuple = field(default=(), repr=False)
    _readers: dict = field(default_factory=dict, init=False, repr=False)

    def value(self, belief, remaining):
        """Optimal expected cost-to-go, read off the knot table."""
        return self.reader(remaining)(belief)

    def reader(self, remaining):
        """The function belief -> ``value(belief, remaining)``.

        One reader per remaining count, built once: callers that price many
        beliefs at one count (the designer's message runs) skip the lookup
        of the knot lists on every call.
        """
        got = self._readers.get(remaining)
        if got is None:
            if remaining > self.horizon:
                raise ProblemSpecError("remaining",
                                       f"{remaining} exceeds horizon {self.horizon}")
            got = self._readers[remaining] = _knot_reader(
                self.knots[remaining] if remaining > 0 else None, self.costs)
        return got

    def continuation(self, belief, remaining):
        """Expected cost of one more observation, then optimal play."""
        # with r observations left, the next draw is observation number
        # horizon - r + 1
        row0, row1 = self.channel.row_pair(self.horizon - remaining + 1)
        cont = self.costs.c2
        for y in range(len(row0)):
            prob = belief * row0[y] + (1.0 - belief) * row1[y]
            if prob > 0.0:
                cont += prob * self.value(belief * row0[y] / prob, remaining - 1)
        return cont

    def action(self, belief, remaining):
        """DP-optimal action: 0, 1, or None (keep sampling).

        Ties break toward stopping, and between declarations toward 0.
        """
        tc0 = terminal_cost(0, belief, self.costs)
        tc1 = terminal_cost(1, belief, self.costs)
        u, stop = (0, tc0) if tc0 <= tc1 else (1, tc1)
        if remaining <= 0:
            return u
        return u if stop <= self.continuation(belief, remaining) else None

    def decide(self, belief, k):
        """Action prescribed by the stored thresholds after k observations."""
        w1, w2 = self.thresholds[k]
        if belief >= w2:
            return 0
        if belief <= w1:
            return 1
        return None


def _knot_reader(knots, costs):
    """Reader of one knot table (None: no observation left, so the cheaper
    declaration): bisect, exact knot hit, else linear interpolation."""
    if knots is None:
        (l00, l01), (l10, l11) = costs.loss

        def read(belief):
            # terminal_cost of declaring 0 and of declaring 1
            tc0 = belief * l00 + (1.0 - belief) * l01
            tc1 = belief * l10 + (1.0 - belief) * l11
            return tc0 if tc0 <= tc1 else tc1
        return read
    xs, ys = knots

    def read(belief):
        i = bisect_left(xs, belief)
        if xs[i] == belief:
            return ys[i]
        x0 = xs[i - 1]
        y0 = ys[i - 1]
        return y0 + (ys[i] - y0) * ((belief - x0) / (xs[i] - x0))
    return read


def _stop_cost(b, costs):
    (l00, l01), (l10, l11) = costs.loss
    return np.minimum(b * l00 + (1.0 - b) * l01, b * l10 + (1.0 - b) * l11)


def _backup(xs, ys, rows, costs):
    """Knots of min(stop, c2 + E[V(next belief)]) given the knots of V.

    Every breakpoint of the continuation is the preimage of a knot of V
    under some symbol's Bayes map; a symbol with a zero entry in either row
    sends every belief to an endpoint, so its term is affine and adds none.
    Stop and continuation are then both affine between consecutive
    candidates, and each crossing between them is inserted exactly.
    Knots strictly inside a stopping run on one side of the declaration
    boundary are dropped: there the value is one affine declaration cost.
    """
    boundary = costs.declare_boundary
    row0, row1 = rows
    cand = [np.array([0.0, boundary, 1.0])]
    for r0, r1 in zip(row0, row1):
        if r0 > 0.0 and r1 > 0.0:
            cand.append(xs * r1 / (xs * r1 + (1.0 - xs) * r0))
    # sort and drop repeats by hand: np.unique imports numpy.ma on first use
    b = np.sort(np.concatenate(cand))
    b = b[np.concatenate(([True], b[1:] != b[:-1]))]
    cont = np.full_like(b, costs.c2)
    for r0, r1 in zip(row0, row1):
        prob = b * r0 + (1.0 - b) * r1
        with np.errstate(divide="ignore", invalid="ignore"):
            post = np.where(prob > 0.0, b * r0 / prob, 0.0)
        cont += prob * np.interp(post, xs, ys)
    stop = _stop_cost(b, costs)
    gap = cont - stop
    flip = np.flatnonzero(np.sign(gap[:-1]) * np.sign(gap[1:]) < 0.0)
    cross = b[flip] + (b[flip + 1] - b[flip]) * (gap[flip] / (gap[flip] - gap[flip + 1]))
    b = np.insert(b, flip + 1, cross)
    val = np.insert(np.minimum(stop, cont), flip + 1, _stop_cost(cross, costs))
    stopping = np.insert(gap >= 0.0, flip + 1, True)
    inner = stopping[1:-1] & stopping[:-2] & stopping[2:] & (b[1:-1] != boundary)
    keep = np.concatenate(([True], ~inner, [True]))
    return b[keep], val[keep]


def _knot_tables(channel, costs, horizon):
    """(xs, ys) knot lists for the cost-to-go with 0..horizon observations left."""
    xs = np.array(sorted({0.0, costs.declare_boundary, 1.0}))
    ys = _stop_cost(xs, costs)
    tables = [(xs.tolist(), ys.tolist())]
    for r in range(1, horizon + 1):
        xs, ys = _backup(xs, ys, channel.row_pair(horizon - r + 1), costs)
        tables.append((xs.tolist(), ys.tolist()))
    return tuple(tables)


def solve_wald_finite(channel, costs, horizon, eval_points=None):
    """Solve the receiver's finite-horizon stopping problem.

    channel is observer 2's Channel (its t-th table feeds the t-th
    observation).  eval_points selects where values are tabulated and
    between which points thresholds are placed: None for a default uniform
    grid, an int for a grid of that size, or an explicit collection of
    beliefs (e.g. the reachable atoms of a specific problem, which makes
    the threshold classification of those atoms agree exactly with the
    dynamic program).
    """
    if horizon < 0:
        raise ProblemSpecError("horizon", "must be >= 0")
    if not channel.stationary and len(channel.tables) < horizon:
        raise ProblemSpecError("channels", f"channel covers {len(channel.tables)} "
                                           f"observations, horizon {horizon} needed")
    pts = _as_eval_points(eval_points)
    sol = WaldSolution(channel=channel, costs=costs, horizon=horizon, eval_points=pts,
                       knots=_knot_tables(channel, costs, horizon))

    values = []
    for r in range(horizon + 1):
        values.append(tuple(sol.value(p, r) for p in pts))
    sol.values = tuple(values)

    boundary = costs.declare_boundary
    # sentinels at 0 and 1 give the label runs well-defined ends without
    # polluting the stored evaluation set
    aug = pts
    if not aug or aug[0] > 0.0:
        aug = (0.0,) + aug
    if aug[-1] < 1.0:
        aug = aug + (1.0,)
    thresholds = []
    for k in range(horizon):
        labels = [sol.action(p, horizon - k) for p in aug]
        thresholds.append(thresholds_from_labels(aug, labels, boundary))
    thresholds.append((boundary, boundary))
    sol.thresholds = tuple(thresholds)
    return sol


def wald_cost(solution, belief, remaining):
    """Exact optimal cost-to-go with ``remaining`` observations left."""
    if not 0.0 <= belief <= 1.0:
        raise ProblemSpecError("belief", f"{belief} outside [0, 1]")
    return solution.reader(remaining)(belief)


def belief_grid(grid_size):
    """Uniform value-iteration grid on [0, 1]; needs an interior point."""
    if grid_size < 3:
        raise ProblemSpecError("grid_size", f"need at least 3 grid points, got {grid_size}")
    return np.linspace(0.0, 1.0, grid_size)


def wald_vi_iterates(rows, costs, grid):
    """Generator of stationary value-iteration iterates on a belief grid.

    Yields (values, delta) starting from the stop-only function; iterates
    are pointwise non-increasing because adding one more sampling
    opportunity can only help.
    """
    row0 = np.asarray(rows[0], dtype=float)
    row1 = np.asarray(rows[1], dtype=float)
    g = np.asarray(grid, dtype=float)
    stop = _stop_cost(g, costs)
    probs = []
    posts = []
    for y in range(len(row0)):
        prob = g * row0[y] + (1.0 - g) * row1[y]
        with np.errstate(divide="ignore", invalid="ignore"):
            post = np.where(prob > 0.0, g * row0[y] / np.maximum(prob, 1e-300), 0.0)
        probs.append(prob)
        posts.append(post)
    values = stop.copy()
    yield values, np.inf
    while True:
        cont = np.full_like(g, costs.c2)
        for prob, post in zip(probs, posts):
            cont += prob * np.interp(post, g, values)
        new = np.minimum(stop, cont)
        delta = float(np.max(np.abs(new - values)))
        values = new
        yield values, delta


@dataclass(eq=False)
class StationaryWald:
    """Converged stationary stopping solution on a grid."""

    rows: tuple
    costs: object
    grid: np.ndarray
    values: np.ndarray
    w1: float
    w2: float
    n_iter: int
    deltas: list
    max_increase: float
    converged: bool

    def value(self, belief):
        return float(np.interp(belief, self.grid, self.values))

    def decide(self, belief):
        if belief >= self.w2:
            return 0
        if belief <= self.w1:
            return 1
        return None


def solve_wald_infinite(channel, costs, grid_size=GRID_SIZE_DEFAULT,
                        tol=VI_TOL_DEFAULT, max_iter=VI_MAX_ITER_DEFAULT):
    """Stationary stopping solution by value iteration.

    channel may be a stationary Channel or a bare (row_h0, row_h1) pair.
    Records the per-iteration sup deltas and the largest pointwise increase
    seen between consecutive iterates (should be <= 0 up to roundoff).
    """
    if isinstance(channel, Channel):
        if not channel.stationary:
            raise ProblemSpecError("channels", "stationary solve needs a stationary channel")
        rows = channel.tables[0]
    else:
        rows = tuple(channel)
    grid = belief_grid(grid_size)
    it = wald_vi_iterates(rows, costs, grid)
    prev, _ = next(it)
    deltas = []
    max_increase = -np.inf
    converged = False
    n = 0
    for values, delta in it:
        n += 1
        deltas.append(delta)
        max_increase = max(max_increase, float(np.max(values - prev)))
        prev = values
        if delta < tol:
            converged = True
            break
        if n >= max_iter:
            break

    stop = _stop_cost(grid, costs)
    declare = np.where(grid * (costs.loss[1][0] - costs.loss[0][0])
                       < (1.0 - grid) * (costs.loss[0][1] - costs.loss[1][1]), 1, 0)
    labels = [None if prev[i] < stop[i] else int(declare[i]) for i in range(len(grid))]
    w1, w2 = thresholds_from_labels(tuple(grid), labels, costs.declare_boundary)
    return StationaryWald(rows=rows, costs=costs, grid=grid, values=prev,
                          w1=w1, w2=w2, n_iter=n, deltas=deltas,
                          max_increase=max_increase, converged=converged)
