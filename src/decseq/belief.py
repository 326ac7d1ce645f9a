"""Bayes updates, and the pushes and merges of belief atoms.

Beliefs are P(H = 0 | information).  ``bayes`` is the one scalar Bayes step
that every program uses but the designer's observer-2 steps, and
``outcomes`` its one numpy twin, behind the receiver's knot backup, the
grid value iteration and ``push_rows``; ``push_atom`` is the one push of an
atom through an observation step, behind ``push_atoms``; the designer's
children push and merge numpy rows through their array twins (``push_rows``,
``merge_rows``).  With finite observation alphabets the belief of each
observer lives on a finite, enumerable set of atoms at every time;
everything downstream (threshold search, exact policy evaluation,
brute-force checks) runs on those atoms.  A belief law is a list of
(belief, w0, w1) triples, w_h being the atom's mass under H = h, sorted by
belief with beliefs closer than MERGE_TOL merged (``merge_atoms``).  The
one merge loop (``merge_linked``) also reports the atom each entry joins,
so a program reads a pushed belief's value there (``push_linked``).
"""

from __future__ import annotations

import numpy as np

from .errors import ImpossibleUpdateError

MERGE_TOL = 1e-12


def bayes(belief, f0, f1):
    """One Bayes step on an event of likelihood f0 under H=0 and f1 under
    H=1: (p, posterior), p = belief * f0 + (1 - belief) * f1 being the
    event's probability; the posterior is None when p <= 0."""
    num = belief * f0
    p = num + (1.0 - belief) * f1
    return p, (num / p if p > 0.0 else None)


def update_observer1(belief, y, channel_rows):
    """Posterior of observer 1 after seeing symbol y.

    channel_rows is the pair (row under H=0, row under H=1) for this step.
    """
    row0, row1 = channel_rows
    _, post = bayes(belief, row0[y], row1[y])
    if post is None:
        raise ImpossibleUpdateError(
            f"observation {y} has zero probability at belief {belief}")
    return post


def start_atom(prior):
    """The prior as a (belief, w0, w1) triple with per-hypothesis weights
    1, except 0 for a hypothesis with no prior mass, whose pushes
    (``push_atoms``) are then skipped."""
    prior = float(prior)
    return (prior, 1.0 if prior > 0.0 else 0.0, 1.0 if prior < 1.0 else 0.0)


def merge_atoms(entries):
    """Sort (belief, w0, w1) triples and merge beliefs closer than MERGE_TOL
    to the last merged atom: each joining entry moves that atom's belief to
    the mass-weighted mean (b * old + b' * new) / (old + new) of the two
    (their w0 + w1 totals), rounded at every step as this scalar loop
    rounds, so even exact duplicates can merge to a belief an ulp away."""
    return merge_linked(entries)[0]


def merge_linked(entries):
    """``merge_atoms``, and where[i]: the index of the merged atom that
    entries[i] joins."""
    out = []
    where = [0] * len(entries)
    for i in sorted(range(len(entries)), key=entries.__getitem__):
        b, u0, u1 = entries[i]
        if out and b - out[-1][0] <= MERGE_TOL:
            pb, p0, p1 = out[-1]
            tot_old = p0 + p1
            tot_new = u0 + u1
            if tot_old + tot_new > 0.0:
                b = (pb * tot_old + b * tot_new) / (tot_old + tot_new)
            out[-1] = (b, p0 + u0, p1 + u1)
        else:
            out.append((b, u0, u1))
        where[i] = len(out) - 1
    return out, where


# a raw row whose belief1 exceeds its sort predecessor's by more than
# MERGE_TOL + _SLACK, or (two beliefs) whose belief2 differs from it by more
# than twice that, starts a merged atom of its own: the merged atom that the
# predecessor ends lies within MERGE_TOL (and roundoff) of it
_SLACK = 1e-13


def merge_rows(rows, first, beliefs):
    """``merge_atoms`` on numpy rows (beliefs=1: (b, m0, m1)), or with two
    beliefs (beliefs=2: (b1, b2, m0, m1), both within MERGE_TOL of the last
    merged atom, as the designer merges P2 atoms), of rows sorted law by law
    as sorted() sorts tuples, first[i] flagging each law's first row.

    Only chains of rows that no sure split parts run the scalar arithmetic,
    in lockstep, the longest chains first: step j takes row j of every chain
    still running, all of them in a handful of whole-array operations, each
    writing the merged atom a row leaves into that row's copy.  Returns the
    merged rows and the raw row each begins at; ``rows`` is overwritten.
    """
    new = first.copy()
    new[1:] |= rows[1:, 0] - rows[:-1, 0] > MERGE_TOL + _SLACK
    if beliefs == 2:
        new[1:] |= np.abs(rows[1:, 1] - rows[:-1, 1]) > 2.0 * (MERGE_TOL + _SLACK)
    heads = new.nonzero()[0]
    size = np.concatenate((heads[1:], [len(rows)])) - heads
    chain = (size > 1).nonzero()[0]
    chain = chain[np.argsort(-size[chain], kind="stable")]
    heads, size = heads[chain], size[chain]
    # step j's rows, heads[:n[j]] + j, are flat[o[j]:o[j + 1]]; cols holds
    # their copies column by column, and tot their mass totals
    n = (-size).searchsorted(-np.arange(size.max(initial=1)))
    o = np.concatenate(([0], n.cumsum()))
    flat = heads[np.arange(o[-1]) - o[:-1].repeat(n)] + np.arange(len(n)).repeat(n)
    cols = np.array(rows.take(flat, axis=0).T, order="C")
    tot = cols[-2] + cols[-1]
    join = np.zeros(len(flat), dtype=bool)
    o = o.tolist()
    for j in range(1, len(n)):
        # the merged atoms the chains' rows j - 1 left, and their rows j
        last, e = cols[:, o[j - 1]:o[j - 1] + o[j + 1] - o[j]], cols[:, o[j]:o[j + 1]]
        ok, gap = join[o[j]:o[j + 1]], e[:beliefs] - last[:beliefs]
        if beliefs == 2:
            # both beliefs within MERGE_TOL (belief1 never falls: the rows
            # are sorted and a merged mean stays among its rows)
            np.abs(gap, out=gap)
            np.maximum(gap[0], gap[1], out=gap[0])
        np.less_equal(gap[0], MERGE_TOL, out=ok)
        old, add = last[-2] + last[-1], tot[o[j]:o[j + 1]]
        both = old + add
        np.divide(last[:beliefs] * old + e[:beliefs] * add, both, out=e[:beliefs],
                  where=ok & (both > 0.0))
        np.add(last[-2:], e[-2:], out=e[-2:], where=ok)
    new[flat[o[1]:]] = ~join[o[1]:]
    starts = new.nonzero()[0]
    # each merged atom is the copy its last raw row left
    rows[flat] = cols.T
    return rows.take(np.concatenate((starts[1:], [len(rows)]))[:len(starts)] - 1, axis=0), starts


def push_atom(belief, w0, w1, channel_rows):
    """One atom of belief ``belief`` and per-hypothesis masses (w0, w1)
    pushed through a channel row pair: (probability, posterior, row0[y],
    row1[y]) for each symbol y the atom can see, w0 * row0[y] or
    w1 * row1[y] nonzero."""
    out = []
    for y, (r0, r1) in enumerate(zip(*channel_rows)):
        if w0 * r0 == 0.0 and w1 * r1 == 0.0:
            continue
        p, post = bayes(belief, r0, r1)
        if post is None:
            raise ImpossibleUpdateError(
                f"observation {y} has zero probability at belief {belief}")
        out.append((p, post, r0, r1))
    return out


def outcomes(b, rows):
    """``bayes`` on an array of beliefs b, a column per symbol of the row
    pair ``rows``: (probabilities, posteriors), the posterior 0.0 where the
    probability is 0."""
    r0, r1 = (np.asarray(r, dtype=float) for r in rows)
    # built symbol-major, so that every pass runs along the beliefs
    num = np.multiply.outer(r0, b)
    p = num + np.multiply.outer(r1, 1.0 - b)
    return p.T, np.divide(num, p, out=np.zeros(num.shape), where=p > 0.0).T


def push_rows(b, w0, w1, channel_rows):
    """``push_atom`` on numpy arrays of atoms (b, w0, w1), a column per
    symbol y: the posteriors (``outcomes``), which pushes each atom sees
    (w0 * row0[y] or w1 * row1[y] nonzero), the seen ones of probability 0
    (``push_error`` names the first), and the channel rows as arrays."""
    r0, r1 = (np.array(r, dtype=float) for r in channel_rows)
    p, post = outcomes(b, (r0, r1))
    seen = ((np.multiply.outer(r0, w0) != 0.0) | (np.multiply.outer(r1, w1) != 0.0)).T
    return post, seen, seen & ~(p > 0.0), r0, r1


def push_error(b, bad):
    """push_atom's error for the first (atom, symbol) of ``bad``."""
    a, y = divmod(int(np.argmax(bad)), bad.shape[1])
    return ImpossibleUpdateError(f"observation {y} has zero probability at belief {float(b[a])}")


def push_atoms(entries, channel_rows):
    """One observation step on (belief, w0, w1) triples: push each through
    a channel row pair (push_atom), then merge them (merge_atoms)."""
    return push_linked(entries, channel_rows)[0]


def push_linked(entries, channel_rows):
    """``push_atoms``, and links[a]: (probability, index of the merged atom
    it joins) for each push of entries[a], by symbol, from the one merge
    (``merge_linked``)."""
    pushes = [push_atom(b, u0, u1, channel_rows) for b, u0, u1 in entries]
    merged, where = merge_linked([(post, u0 * r0, u1 * r1)
                                  for (_, u0, u1), out in zip(entries, pushes)
                                  for _, post, r0, r1 in out])
    joins = iter(where)
    return merged, [[(p, next(joins)) for p, *_ in out] for out in pushes]

