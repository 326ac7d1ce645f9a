"""Bayes updates and reachable belief sets.

Beliefs are P(H = 0 | information).  With finite observation alphabets the
belief of each observer lives on a finite, enumerable set of atoms at every
time; everything downstream (threshold search, exact policy evaluation,
brute-force checks) runs on those atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ImpossibleUpdateError, ProblemSpecError

MERGE_TOL = 1e-12


def update_observer1(belief, y, channel_rows):
    """Posterior of observer 1 after seeing symbol y.

    channel_rows is the pair (row under H=0, row under H=1) for this step.
    """
    row0, row1 = channel_rows
    num = belief * row0[y]
    den = num + (1.0 - belief) * row1[y]
    if den <= 0.0:
        raise ImpossibleUpdateError(
            f"observation {y} has zero probability at belief {belief}")
    return num / den


def update_observer2(belief, y2, channel_rows, msg_lik):
    """Posterior of observer 2 after its own symbol and/or a message.

    Either part may be absent: pass y2=None when no fresh observation was
    taken (e.g. a message arriving while observer 2 is still idle), and
    msg_lik=None on steps without a message.  msg_lik is the pair
    (P(message | H=0), P(message | H=1)) under the sender's policy.
    """
    f0 = f1 = 1.0
    if y2 is not None:
        row0, row1 = channel_rows
        f0 *= row0[y2]
        f1 *= row1[y2]
    if msg_lik is not None:
        f0 *= msg_lik[0]
        f1 *= msg_lik[1]
    num = belief * f0
    den = num + (1.0 - belief) * f1
    if den <= 0.0:
        raise ImpossibleUpdateError(
            f"joint event (y2={y2}, msg_lik={msg_lik}) has zero probability "
            f"at belief {belief}")
    return num / den


@dataclass(frozen=True)
class AtomLevel:
    """Finite support of a belief at one time, with per-hypothesis weights.

    ``w0[i]`` is P(belief = atoms[i] | H=0) and likewise ``w1``.  Atoms are
    sorted ascending and unique up to MERGE_TOL.
    """

    atoms: tuple
    w0: tuple
    w1: tuple

    def __len__(self):
        return len(self.atoms)

    def items(self):
        return zip(self.atoms, self.w0, self.w1)


@dataclass(frozen=True)
class AtomSet:
    """Reachable belief atoms per time, level(0) being the prior itself."""

    levels: tuple

    def level(self, t):
        return self.levels[t]

    @property
    def horizon(self):
        return len(self.levels) - 1


def merge_atoms(entries, tol=MERGE_TOL):
    """Sort (belief, w0, w1) triples and merge beliefs closer than tol.

    The merged belief is the mass-weighted mean of the group, which keeps
    exact duplicates exact.
    """
    entries = sorted(entries)
    out = []
    for b, u0, u1 in entries:
        if out and b - out[-1][0] <= tol:
            pb, p0, p1 = out[-1]
            tot_old = p0 + p1
            tot_new = u0 + u1
            if tot_old + tot_new > 0.0:
                b = (pb * tot_old + b * tot_new) / (tot_old + tot_new)
            out[-1] = (b, p0 + u0, p1 + u1)
        else:
            out.append((b, u0, u1))
    return out


def merged_support(beliefs):
    """Sorted distinct beliefs, those closer than MERGE_TOL merged (merge_atoms)."""
    return [b for b, _, _ in merge_atoms([(b, 1.0, 0.0) for b in beliefs])]


def push_atoms(entries, channel_rows, tol=MERGE_TOL):
    """One observation step on (belief, w0, w1) triples: push each through
    a channel row pair, then merge them (merge_atoms)."""
    row0, row1 = channel_rows
    raw = []
    for b, u0, u1 in entries:
        for y in range(len(row0)):
            n0 = u0 * row0[y]
            n1 = u1 * row1[y]
            if n0 == 0.0 and n1 == 0.0:
                continue
            den = b * row0[y] + (1.0 - b) * row1[y]
            if den <= 0.0:
                raise ImpossibleUpdateError(
                    f"observation {y} has zero probability at belief {b}")
            raw.append((b * row0[y] / den, n0, n1))
    return merge_atoms(raw, tol)


def push_level(level, channel_rows, tol=MERGE_TOL):
    """One observation step: push an AtomLevel through a channel row pair."""
    merged = push_atoms(level.items(), channel_rows, tol)
    atoms, w0, w1 = zip(*merged) if merged else ((), (), ())
    return AtomLevel(atoms=atoms, w0=w0, w1=w1)


def reachable_beliefs(prior, channel, horizon):
    """All belief atoms observer ``channel.observer`` can reach by each time.

    Returns an AtomSet whose level t is the conditional law of the belief
    after t observations, given each hypothesis, before any communication
    is taken into account.
    """
    if not 0.0 <= prior <= 1.0:
        raise ProblemSpecError("prior", f"belief {prior} outside [0, 1]")
    levels = [AtomLevel(atoms=(float(prior),), w0=(1.0,), w1=(1.0,))]
    for t in range(1, horizon + 1):
        levels.append(push_level(levels[-1], channel.row_pair(t)))
    return AtomSet(levels=tuple(levels))


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
            row0, row1 = channel.row_pair(k)
            for b in cur:
                for p0, p1 in zip(row0, row1):
                    den = b * p0 + (1.0 - b) * p1
                    if den > 0.0:
                        nxt.append(b * p0 / den)
        cur = merged_support(nxt)
        out += cur
    return merged_support(out)


def _classify_with(rule, belief):
    if hasattr(rule, "classify"):
        return rule.classify(belief)
    return rule(belief)


def message_likelihood(state_marginal, o1_rule):
    """Distribution of observer 1's message under each hypothesis.

    state_marginal is an AtomLevel (or (atoms, w0, w1) triple) for observer
    1's belief at the sending time, conditioned on every earlier message
    having been blank.  o1_rule maps a belief to a message symbol (an int)
    or to the blank marker; any object with a .classify method or any
    callable works.

    Returns {symbol: (P(symbol | H=0), P(symbol | H=1))} over the symbols
    that actually receive positive mass plus every symbol the rule can emit.
    """
    if isinstance(state_marginal, AtomLevel):
        atoms, w0, w1 = state_marginal.atoms, state_marginal.w0, state_marginal.w1
    else:
        atoms, w0, w1 = state_marginal
    tot0 = sum(w0)
    tot1 = sum(w1)
    if tot0 <= 0.0 and tot1 <= 0.0:
        raise ImpossibleUpdateError("state marginal carries no mass under either hypothesis")
    out = {}
    for b, u0, u1 in zip(atoms, w0, w1):
        z = _classify_with(o1_rule, b)
        acc = out.setdefault(z, [0.0, 0.0])
        acc[0] += u0
        acc[1] += u1
    return {z: (v[0] / tot0 if tot0 > 0.0 else 0.0,
                v[1] / tot1 if tot1 > 0.0 else 0.0)
            for z, v in out.items()}
