"""Threshold policies for both observers, plus extraction and (de)serialization.

Observer 1 policy: at each stage before its deadline, the belief line splits
into up to M send intervals with blank gaps around them; higher message
symbols sit on lower beliefs (symbol M-1 lowest, symbol 0 highest).  At the
deadline a message is forced, so the line is cut into M regions by M-1 cuts.

Observer 2 policy: while messages are still blank (interleaved variant only)
a continue interval (a, b) per stage; once the final message has arrived, a
stopping-threshold table indexed by how many observations observer 2 has
taken.  The policy also carries a ``message_model``: the per-stage message
likelihoods of the observer-1 policy it was built against.  That model is
what turns the thresholds into an actual decision map, because observer 2's
belief depends on the statistics of the partner's messages.  When the pair
being run is the one the policy was built for, the modelled belief is the
true posterior; against any other partner the policy is still a fixed,
well-defined map, which is exactly what a best response needs.

Boundary conventions, used consistently by solvers, oracles and the
simulators (exact evaluation and the Monte Carlo sampler, which applies
``O1Policy.message`` and ``O2Policy.decide_wald``/``decide_blank`` itself):
send regions are closed intervals and higher symbols are checked first;
declaration checks test "declare 0" before "declare 1"; a subjectively
impossible event (zero probability under the message model for both
hypotheses) leaves observer 2's belief unchanged.  Every sender program
outside the designer search (the finite best response and the no-deadline
limit) picks its actions with ``sender_codes`` (on arrays; ``sender_choice``
is its list view), and the receiver programs with ``wald.stop_or_sample``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief import bayes, push_atoms, start_atom
from .errors import ProblemSpecError, StructureViolation
from .model import _check_number

BLANK = "b"


@dataclass(frozen=True)
class StageRule:
    """One pre-deadline stage of observer 1: send intervals by symbol.

    ``send[z]`` is a closed (lo, hi) interval or None when symbol z is not
    used at this stage.  Beliefs outside every interval mean a blank.
    """

    send: tuple

    def __post_init__(self):
        # walking up in symbol means walking down in belief: each interval
        # must end at or below the start of the previous (lower) symbol's
        prev_lo = None
        for z, iv in enumerate(self.send):
            if iv is None:
                continue
            lo, hi = iv
            if not (0.0 <= lo <= hi <= 1.0):
                raise ProblemSpecError("o1.send", f"bad interval {iv} for symbol {z}")
            if prev_lo is not None and hi > prev_lo:
                raise ProblemSpecError(
                    "o1.send", f"symbol {z} interval {iv} overlaps a lower symbol's")
            prev_lo = lo

    @property
    def n_messages(self):
        return len(self.send)

    def classify(self, belief):
        for z in range(len(self.send) - 1, -1, -1):
            iv = self.send[z]
            if iv is not None and iv[0] <= belief <= iv[1]:
                return z
        return BLANK


def boundary_stage(n_messages, boundary):
    """Stage rule that always sends: symbol M-1 at or below ``boundary``,
    symbol 0 above it."""
    send = [None] * n_messages
    send[n_messages - 1] = (0.0, boundary)
    send[0] = (boundary, 1.0)
    return StageRule(send=tuple(send))


@dataclass(frozen=True)
class TerminalRule:
    """Forced-send stage: M-1 ascending cuts, higher symbols below.

    A cut of -1.0 (or 1.0) marks an empty region at the low (high) end.
    The belief exactly at a cut goes to the higher symbol.
    """

    cuts: tuple

    def __post_init__(self):
        prev = -1.0
        for c in self.cuts:
            if not (-1.0 <= c <= 1.0):
                raise ProblemSpecError("o1.terminal", f"cut {c} outside [-1, 1]")
            if c < prev:
                raise ProblemSpecError("o1.terminal", f"cuts {self.cuts} not ascending")
            prev = c

    @property
    def n_messages(self):
        return len(self.cuts) + 1

    def classify(self, belief):
        below = sum(1 for c in self.cuts if c < belief)
        return len(self.cuts) - below


@dataclass(frozen=True)
class O1Policy:
    """Observer 1's full policy: stage rules for t = 1..T1-1, then the cut."""

    stages: tuple
    terminal: TerminalRule
    n_messages: int = 2

    def __post_init__(self):
        if self.terminal.n_messages != self.n_messages:
            raise ProblemSpecError("o1", "terminal cut count does not match M")
        for s in self.stages:
            if s.n_messages != self.n_messages:
                raise ProblemSpecError("o1", "stage symbol count does not match M")

    @property
    def horizon(self):
        return len(self.stages) + 1

    def message(self, t, belief):
        """Message sent at stage t (1-based) at the given true belief."""
        if t < self.horizon:
            return self.stages[t - 1].classify(belief)
        if t == self.horizon:
            return self.terminal.classify(belief)
        raise ProblemSpecError("t", f"stage {t} beyond sender horizon {self.horizon}")

    def rule_at(self, t):
        return self.stages[t - 1] if t < self.horizon else self.terminal


@dataclass(frozen=True)
class O2Policy:
    """Observer 2's full policy.

    ``blank_rules[t-1]`` = (a, b) used at stage t while messages are blank
    (interleaved variant; empty for the wait-then-sample variant).
    ``wald_rules[k]`` = (w1, w2) used once the final message is in, indexed
    by observer 2's own observation count; there is at least one, and the
    last forces a declaration (w1 >= w2), so every receiver stops by its
    horizon.  ``message_model[t-1]`` maps each symbol (and BLANK) to its
    likelihood pair at stage t under the partner policy this was built for.
    Construction checks this shape; ``simulate.check_receiver`` checks the
    fit to a problem.
    """

    blank_rules: tuple
    wald_rules: tuple
    message_model: tuple
    n_messages: int = 2

    def __post_init__(self):
        # a NaN threshold compares false both ways, so that rule would never
        # declare; reject it instead of running a silently different policy
        for name in ("blank_rules", "wald_rules"):
            for i, rule in enumerate(getattr(self, name)):
                if not all(math.isfinite(v) for v in rule):
                    raise ProblemSpecError(f"o2.{name}[{i}]",
                                           f"non-finite threshold in {rule}")
        if not self.wald_rules or self.wald_rules[-1][0] < self.wald_rules[-1][1]:
            raise ProblemSpecError("o2.wald_rules",
                                   "last stopping rule must force a declaration (w1 >= w2)")
        for t, stage in enumerate(self.message_model):
            for z, pair in stage.items():
                if not all(0.0 <= p <= 1.0 for p in pair):
                    raise ProblemSpecError(f"o2.message_model[{t}][{z}]",
                                           f"likelihoods {pair} not in [0, 1]")

    @property
    def max_observations(self):
        return len(self.wald_rules) - 1

    def decide_blank(self, t, belief):
        return _declaration(self.blank_rules[t - 1], belief)

    def decide_wald(self, k, belief):
        return _declaration(self.wald_rules[k], belief)

    def message_factor(self, t, z):
        """Likelihood pair of message z at stage t under the built-against
        partner; (1, 1) when the stage or symbol is subjectively impossible,
        so the belief update becomes a no-op."""
        if not 1 <= t <= len(self.message_model):
            return (1.0, 1.0)
        pair = self.message_model[t - 1].get(z)
        if pair is None or (pair[0] <= 0.0 and pair[1] <= 0.0):
            return (1.0, 1.0)
        return pair


def _declaration(rule, belief):
    """Decision under a (lo, hi) rule: 0 at or above hi, else 1 at or below
    lo, else None (keep sampling)."""
    lo, hi = rule
    if belief >= hi:
        return 0
    if belief <= lo:
        return 1
    return None


def subjective_update(belief, y2, channel_rows, factor):
    """Observer 2's modelled-belief step, total by convention.

    The belief absorbs observation y2 (None: no fresh observation) and the
    message likelihood pair ``factor`` (None: no message).  A
    zero-probability joint event keeps the belief unchanged instead of
    raising: the modelled belief must be defined on every realizable path
    even when the partner deviates from the modelled policy.
    """
    f0, f1 = (1.0, 1.0) if factor is None else factor
    if y2 is not None:
        row0, row1 = channel_rows
        f0 *= row0[y2]
        f1 *= row1[y2]
    _, post = bayes(belief, f0, f1)
    return belief if post is None else post


def sender_codes(sends, wait):
    """Observer 1's choice at each of an array of beliefs: (codes, values),
    the symbol chosen at belief i, or -1 for BLANK, and its cost, as arrays.

    ``sends[z][i]`` is the cost of sending symbol z at belief i and
    ``wait[i]`` that of staying blank (``wait`` None: a message is forced).
    Ties go to sending, and between sends to the higher symbol.
    """
    m = len(sends)
    values = np.array(sends[m - 1], dtype=float)
    codes = np.full(values.shape, m - 1, dtype=np.min_scalar_type(-m))
    # each lower symbol in turn, then BLANK (-1) at ``wait``
    for z, send in [*zip(range(m - 2, -1, -1), sends[-2::-1]), (-1, wait)]:
        if send is not None:
            lower = np.asarray(send, dtype=float) < values
            codes[lower] = z
            np.copyto(values, send, where=lower)
    return codes, values


def sender_choice(sends, wait):
    """``sender_codes`` as lists: the symbol or BLANK chosen at belief i,
    and its cost."""
    codes, values = sender_codes(sends, wait)
    return [BLANK if z < 0 else z for z in codes.tolist()], values.tolist()


def extract_thresholds(action_per_atom, n_messages, terminal=False):
    """Turn per-atom optimal actions into a threshold rule.

    action_per_atom: (belief, action) pairs, beliefs ascending; actions are
    message symbols, or BLANK on non-terminal sender stages.  Verifies the
    labelling is threshold-shaped (symbols in strictly descending runs,
    blanks only between or around them) and raises StructureViolation
    otherwise.  Thresholds go at midpoints between adjacent atoms with
    different actions; a run touching the end of the atom list extends to
    the corresponding end of [0, 1].
    """
    pairs = list(action_per_atom)
    for i in range(1, len(pairs)):
        if pairs[i][0] < pairs[i - 1][0]:
            raise ProblemSpecError("action_per_atom", "beliefs must be ascending")

    runs = []  # (action, first_idx, last_idx)
    for i, (_, act) in enumerate(pairs):
        if runs and runs[-1][0] == act:
            runs[-1][2] = i
        else:
            runs.append([act, i, i])

    atoms = [b for b, _ in pairs]

    def lo_edge(first):
        return 0.0 if first == 0 else 0.5 * (atoms[first - 1] + atoms[first])

    def hi_edge(last):
        return 1.0 if last == len(atoms) - 1 else 0.5 * (atoms[last] + atoms[last + 1])

    symbol_runs = [r for r in runs if r[0] != BLANK]
    seen = [r[0] for r in symbol_runs]
    if len(set(seen)) != len(seen):
        raise StructureViolation(f"symbol repeats in non-adjacent runs: {pairs}")
    if any(not isinstance(z, int) or not 0 <= z < n_messages for z in seen):
        raise StructureViolation(f"action outside symbol range 0..{n_messages - 1}: {seen}")
    if seen != sorted(seen, reverse=True):
        raise StructureViolation(
            f"symbols must decrease left to right (higher symbol = lower belief), got {seen}")

    if not terminal:
        send = [None] * n_messages
        for act, first, last in symbol_runs:
            send[act] = (lo_edge(first), hi_edge(last))
        return StageRule(send=tuple(send))

    if any(r[0] == BLANK for r in runs):
        raise StructureViolation("blank action on a forced-send stage")
    if not runs:
        raise StructureViolation("no atoms to extract a terminal cut from")
    # cuts[i], i = 0..M-2, is the upper edge of symbol (M-1-i)'s region; a
    # symbol with no run gets an empty region at the previous cut
    last_of = {act: last for act, _, last in symbol_runs}
    cuts = []
    cut = -1.0 if atoms[0] <= 0.0 else 0.0
    for z in range(n_messages - 1, 0, -1):
        if z in last_of:
            cut = hi_edge(last_of[z])
        cuts.append(cut)
    return TerminalRule(cuts=tuple(cuts))


def send_law(o1, problem):
    """When and what observer 1 sends.

    Entry t-1 is (law, alive) for stage t: law maps each symbol sent at t,
    and BLANK before the deadline, to [P(tau1 = t, z_t = z | H=0), same
    under H=1] (for BLANK: still silent after t), and alive is
    (P(tau1 >= t | H=0), same under H=1).  Both come from observer 1's
    belief atoms on the all-blank branch, pushed one observation per stage
    with unnormalized weights P(belief = atom, all messages before t blank
    | H = h), starting from ``start_atom``: a symbol that only a hypothesis
    with no prior mass could emit never arises.
    """
    out = []
    level = [start_atom(problem.prior)]
    for t in range(1, o1.horizon + 1):
        level = push_atoms(level, problem.channel1.row_pair(t))
        rule = o1.rule_at(t)
        law = {BLANK: [0.0, 0.0]} if t < o1.horizon else {}
        kept = []
        for b, u0, u1 in level:
            z = rule.classify(b)
            acc = law.setdefault(z, [0.0, 0.0])
            acc[0] += u0
            acc[1] += u1
            if z == BLANK:
                kept.append((b, u0, u1))
        out.append((law, (sum(u0 for _, u0, _ in level), sum(u1 for _, _, u1 in level))))
        level = kept
    return out


def _message_model(laws, n_messages):
    """build_message_model from a send_law."""
    model = []
    for law, alive in laws:
        keys = ([BLANK] if BLANK in law else []) + list(range(n_messages))
        model.append({z: tuple(v / tot if tot > 0.0 else 0.0
                               for v, tot in zip(law.get(z, (0.0, 0.0)), alive))
                      for z in keys})
    return tuple(model)


def build_message_model(o1, problem):
    """Per-stage message likelihoods of an observer-1 policy.

    Entry t-1 maps each symbol (plus BLANK before the deadline) to
    (P(z_t = z | blanks before t, H=0), same under H=1).  A hypothesis
    whose blank-survival probability is zero gets zeros across the board
    for that stage.
    """
    return _message_model(send_law(o1, problem), o1.n_messages)


# ---------------------------------------------------------------------------
# JSON round-tripping


def _interval_to_json(iv):
    return None if iv is None else [iv[0], iv[1]]


def o1_to_dict(o1):
    return {
        "M": o1.n_messages,
        "stages": [{"send": [_interval_to_json(iv) for iv in s.send]} for s in o1.stages],
        "terminal": {"cuts": list(o1.terminal.cuts)},
    }


def _pair(pair, where):
    """A policy file's pair of JSON numbers (model._check_number: finite, not
    a bool or a string) as floats."""
    a, b = pair
    return float(_check_number(a, where)), float(_check_number(b, where))


def o1_from_dict(data):
    try:
        m = int(_check_number(data["M"], "o1.M", integer=True))
        stages = tuple(
            StageRule(send=tuple(None if iv is None else _pair(iv, f"o1.stages[{t}].send")
                                 for iv in s["send"]))
            for t, s in enumerate(data["stages"]))
        terminal = TerminalRule(cuts=tuple(float(_check_number(c, "o1.terminal.cuts"))
                                           for c in data["terminal"]["cuts"]))
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise ProblemSpecError("o1", f"malformed policy: {e}")
    return O1Policy(stages=stages, terminal=terminal, n_messages=m)


def _model_to_json(model):
    out = []
    for stage in model:
        out.append({str(z): [pair[0], pair[1]] for z, pair in stage.items()})
    return out


def _symbol(key, where):
    """A message-model key: BLANK, or a symbol written as str() writes it."""
    if key != BLANK and not (key.isascii() and key.isdigit() and str(int(key)) == key):
        raise ProblemSpecError(where, f"key {key!r} is neither {BLANK!r} nor a symbol")
    return key if key == BLANK else int(key)


def _model_from_json(data):
    return tuple({_symbol(key, f"o2.message_model[{t}]"): _pair(pair, f"o2.message_model[{t}]")
                  for key, pair in stage.items()} for t, stage in enumerate(data))


def o2_to_dict(o2):
    return {
        "M": o2.n_messages,
        "blank_rules": [[a, b] for a, b in o2.blank_rules],
        "wald_rules": [[w1, w2] for w1, w2 in o2.wald_rules],
        "message_model": _model_to_json(o2.message_model),
    }


def o2_from_dict(data):
    try:
        return O2Policy(
            blank_rules=tuple(_pair(r, "o2.blank_rules") for r in data["blank_rules"]),
            wald_rules=tuple(_pair(r, "o2.wald_rules") for r in data["wald_rules"]),
            message_model=_model_from_json(data["message_model"]),
            n_messages=int(_check_number(data.get("M", 2), "o2.M", integer=True)))
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise ProblemSpecError("o2", f"malformed policy: {e}")


def pair_to_dict(o1, o2):
    return {"o1": o1_to_dict(o1), "o2": o2_to_dict(o2)}


def pair_from_dict(data):
    if not isinstance(data, dict) or "o1" not in data or "o2" not in data:
        raise ProblemSpecError("policies", "expected an object with 'o1' and 'o2'")
    return o1_from_dict(data["o1"]), o2_from_dict(data["o2"])
