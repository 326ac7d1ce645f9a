"""Problem description for two-observer sequential binary hypothesis testing.

A problem instance bundles: a prior on the two hypotheses, one discrete
memoryless (possibly time-varying) observation channel per observer, the
sampling and declaration costs, the horizons of both observers, which
communication variant is in force, and the message alphabet size.

Variant "P1": observer 2 sits idle until observer 1 commits to its single
message, then starts taking its own observations.  Variant "P2": both
observers sample from the first step, observer 1's message (blank or final)
arrives before observer 2's same-step observation.

Beliefs are plain floats in [0, 1] and always denote P(H = 0 | information).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ProblemSpecError

VARIANTS = ("P1", "P2")


@dataclass(frozen=True)
class Channel:
    """Observation channel of one observer.

    ``tables[t]`` holds a pair of rows ``(row_h0, row_h1)``: the distribution
    of the observation at step t+1 under each hypothesis.  A single table
    means the channel is stationary.
    """

    observer: int
    tables: tuple

    @property
    def n_symbols(self):
        return len(self.tables[0][0])

    @property
    def stationary(self):
        return len(self.tables) == 1

    def row_pair(self, t):
        """Rows (under H=0, under H=1) of the t-th observation, t >= 1."""
        if self.stationary:
            return self.tables[0]
        if not 1 <= t <= len(self.tables):
            raise ProblemSpecError(
                f"channels[observer={self.observer}]",
                f"no table for observation {t}")
        return self.tables[t - 1]


@dataclass(frozen=True)
class Costs:
    """Per-observation charges and the terminal declaration loss.

    ``loss[u][h]`` is the loss when observer 2 declares u and the truth is h.
    """

    c1: float
    c2: float
    loss: tuple

    @property
    def max_loss(self):
        return max(max(row) for row in self.loss)

    @property
    def declare_boundary(self):
        """Belief where both declarations cost the same.

        Below it declaring 1 is cheaper, above it declaring 0 is.  Falls back
        to 0.5 when the loss matrix makes every declaration equivalent.
        """
        d01 = self.loss[0][1] - self.loss[1][1]
        d10 = self.loss[1][0] - self.loss[0][0]
        if d01 + d10 <= 0.0:
            return 0.5
        return d01 / (d01 + d10)


def terminal_cost(u, belief, costs):
    """Expected loss of declaring u at the given belief in H=0."""
    return belief * costs.loss[u][0] + (1.0 - belief) * costs.loss[u][1]


@dataclass(frozen=True)
class Problem:
    prior: float
    channel1: Channel
    channel2: Channel
    costs: Costs
    t1: int
    t2: int
    variant: str
    n_messages: int = 2

    def to_dict(self):
        return {
            "prior": self.prior,
            "channels": [
                {"observer": c.observer, "tables": [list(map(list, tb)) for tb in c.tables]}
                for c in (self.channel1, self.channel2)
            ],
            "costs": {"c1": self.costs.c1, "c2": self.costs.c2,
                      "J": [list(r) for r in self.costs.loss]},
            "horizons": {"T1": self.t1, "T2": self.t2},
            "variant": self.variant,
            "M": self.n_messages,
        }


def _check_number(value, field_name, lo=None, hi=None, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemSpecError(field_name, f"expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ProblemSpecError(field_name, f"expected a finite number, got {value!r}")
    if integer and int(value) != value:
        raise ProblemSpecError(field_name, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ProblemSpecError(field_name, f"value {value} below minimum {lo}")
    if hi is not None and value > hi:
        raise ProblemSpecError(field_name, f"value {value} above maximum {hi}")
    return value


def _parse_channel(entry, idx, needed_horizon):
    where = f"channels[{idx}]"
    if not isinstance(entry, dict):
        raise ProblemSpecError(where, "expected an object")
    observer = entry.get("observer")
    if isinstance(observer, bool) or observer not in (1, 2):
        raise ProblemSpecError(f"{where}.observer", f"must be 1 or 2, got {observer!r}")
    tables = entry.get("tables")
    if not isinstance(tables, list) or not tables:
        raise ProblemSpecError(f"{where}.tables", "expected a non-empty list")
    parsed = []
    width = None
    for t, table in enumerate(tables):
        twhere = f"{where}.tables[{t}]"
        if not (isinstance(table, list) and len(table) == 2):
            raise ProblemSpecError(twhere, "expected [row_h0, row_h1]")
        rows = []
        for h, row in enumerate(table):
            rwhere = f"{twhere}[{h}]"
            if not isinstance(row, list) or len(row) < 2:
                raise ProblemSpecError(rwhere, "need at least two observation symbols")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ProblemSpecError(rwhere, "alphabet size differs within channel")
            for p in row:
                _check_number(p, rwhere, lo=0.0)
            total = sum(row)
            if abs(total - 1.0) > 1e-12:
                raise ProblemSpecError(rwhere, f"row sums to {total!r}, not 1")
            rows.append(tuple(float(p) for p in row))
        parsed.append(tuple(rows))
    if len(parsed) > 1 and len(parsed) < needed_horizon:
        raise ProblemSpecError(
            f"{where}.tables",
            f"time-varying channel covers {len(parsed)} steps but horizon needs {needed_horizon}")
    return Channel(observer=observer, tables=tuple(parsed))


def load_problem_spec(text):
    """Parse and validate a JSON problem description.

    Accepts either the JSON text or an already-decoded dict.  Raises
    ProblemSpecError (with a field path) on anything malformed; malformed
    JSON syntax raises json.JSONDecodeError for the caller to map.
    """
    if isinstance(text, dict):
        data = text
    else:
        data = json.loads(text)
    if not isinstance(data, dict):
        raise ProblemSpecError("$", "top level must be an object")

    for key in ("prior", "channels", "costs", "horizons", "variant"):
        if key not in data:
            raise ProblemSpecError(key, "missing required field")

    prior = float(_check_number(data["prior"], "prior", lo=0.0, hi=1.0))

    variant = data["variant"]
    if not isinstance(variant, str) or variant.upper() not in VARIANTS:
        raise ProblemSpecError("variant", f"must be one of {VARIANTS}, got {variant!r}")
    variant = variant.upper()

    horizons = data["horizons"]
    if not isinstance(horizons, dict):
        raise ProblemSpecError("horizons", "expected an object")
    t1 = int(_check_number(horizons.get("T1"), "horizons.T1", lo=1, integer=True))
    t2 = int(_check_number(horizons.get("T2"), "horizons.T2", lo=0, integer=True))
    if variant == "P2" and t2 < t1:
        raise ProblemSpecError("horizons.T2", f"variant P2 needs T2 >= T1, got {t2} < {t1}")

    n_messages = data.get("M", 2)
    n_messages = int(_check_number(n_messages, "M", lo=2, integer=True))

    channels = data["channels"]
    if not isinstance(channels, list) or len(channels) != 2:
        raise ProblemSpecError("channels", "expected exactly two channel entries")
    by_observer = {}
    for idx, entry in enumerate(channels):
        needed = t1 if isinstance(entry, dict) and entry.get("observer") == 1 else t2
        ch = _parse_channel(entry, idx, needed)
        if ch.observer in by_observer:
            raise ProblemSpecError(f"channels[{idx}].observer", f"duplicate observer {ch.observer}")
        by_observer[ch.observer] = ch
    if set(by_observer) != {1, 2}:
        raise ProblemSpecError("channels", "need one entry for each observer")

    costs_raw = data["costs"]
    if not isinstance(costs_raw, dict):
        raise ProblemSpecError("costs", "expected an object")
    c1 = float(_check_number(costs_raw.get("c1"), "costs.c1", lo=0.0))
    c2 = float(_check_number(costs_raw.get("c2"), "costs.c2", lo=0.0))
    if c1 <= 0.0:
        raise ProblemSpecError("costs.c1", "observation cost must be positive")
    if c2 <= 0.0:
        raise ProblemSpecError("costs.c2", "observation cost must be positive")
    loss_raw = costs_raw.get("J")
    if not (isinstance(loss_raw, list) and len(loss_raw) == 2
            and all(isinstance(r, list) and len(r) == 2 for r in loss_raw)):
        raise ProblemSpecError("costs.J", "expected a 2x2 matrix [[J00,J01],[J10,J11]]")
    loss = tuple(tuple(float(_check_number(v, f"costs.J[{u}][{h}]", lo=0.0))
                       for h, v in enumerate(row))
                 for u, row in enumerate(loss_raw))
    if loss[0][1] < loss[1][1]:
        raise ProblemSpecError("costs.J", "declaring 0 under H=1 must cost at least declaring 1")
    if loss[1][0] < loss[0][0]:
        raise ProblemSpecError("costs.J", "declaring 1 under H=0 must cost at least declaring 0")
    costs = Costs(c1=c1, c2=c2, loss=loss)

    return Problem(prior=prior, channel1=by_observer[1], channel2=by_observer[2],
                   costs=costs, t1=t1, t2=t2, variant=variant,
                   n_messages=n_messages)
