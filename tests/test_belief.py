"""Bayes updates, atom levels, and conservation laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decseq import Channel, ImpossibleUpdateError, merge_atoms, update_observer1
from decseq.belief import (MERGE_TOL, bayes, outcomes, push_atom, push_atoms, push_linked,
                           push_rows, start_atom)
from decseq.best_response import _after_atoms
from path_oracle import receiver_atoms


def reachable_levels(prior, channel, horizon):
    """The (belief, w0, w1) atoms after t = 0..horizon observations, each
    level the last one pushed and merged (``push_atoms``)."""
    levels = [[start_atom(prior)]]
    for t in range(1, horizon + 1):
        levels.append(push_atoms(levels[-1], channel.row_pair(t)))
    return levels


def rows_from(eps):
    return ((1.0 - eps, eps), (eps, 1.0 - eps))


def test_update_observer1_hand_value():
    # 0.5 prior, 0.8/0.2 channel, low symbol supports H=0
    assert update_observer1(0.5, 0, rows_from(0.2)) == pytest.approx(0.8)
    assert update_observer1(0.5, 1, rows_from(0.2)) == pytest.approx(0.2)


def test_update_degenerate_endpoints():
    assert update_observer1(1.0, 0, rows_from(0.2)) == 1.0
    assert update_observer1(0.0, 1, rows_from(0.2)) == 0.0


def test_impossible_update_raises():
    rows = ((1.0, 0.0), (1.0, 0.0))
    with pytest.raises(ImpossibleUpdateError):
        update_observer1(0.5, 1, rows)


_ENDS = st.sampled_from((0.0, 1.0))


@st.composite
def _row_pairs(draw):
    n = draw(st.integers(1, 4))
    entry = st.one_of(_ENDS, st.floats(0.0, 1.0))
    return tuple(tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(2))


@given(st.lists(st.one_of(_ENDS, st.floats(0.0, 1.0)), min_size=1, max_size=6), _row_pairs())
@settings(max_examples=300, deadline=None)
def test_outcomes_is_bayes_on_arrays(beliefs, rows):
    b = np.array(beliefs)
    prob, post = outcomes(b, rows)
    assert prob.shape == post.shape == (len(beliefs), len(rows[0]))
    for i, belief in enumerate(beliefs):
        for y, (f0, f1) in enumerate(zip(*rows)):
            p, q = bayes(belief, f0, f1)
            assert float(prob[i, y]).hex() == p.hex()
            assert float(post[i, y]).hex() == (0.0 if q is None else q).hex()
    ones = np.ones(len(beliefs))
    assert push_rows(b, ones, ones, rows)[0].tobytes() == post.tobytes()


def tagged_merge(entries):
    """merge_atoms' loop on (belief, w0, w1, tag) entries: the merged atoms
    and, by tag, the index of the atom each entry joins."""
    out, joins = [], {}
    for b, u0, u1, tag in sorted(entries):
        if out and b - out[-1][0] <= MERGE_TOL:
            pb, p0, p1 = out[-1]
            tot_old, tot_new = p0 + p1, u0 + u1
            if tot_old + tot_new > 0.0:
                b = (pb * tot_old + b * tot_new) / (tot_old + tot_new)
            out[-1] = (b, p0 + u0, p1 + u1)
        else:
            out.append((b, u0, u1))
        joins[tag] = len(out) - 1
    return out, joins


@st.composite
def _atoms(draw):
    """(belief, w0, w1) triples, beliefs 0.0 and 1.0 among them (with no
    mass on the hypothesis they rule out) and some within 2 MERGE_TOL of
    another, so their posteriors land near each other too."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        if out and draw(st.booleans()):
            b = min(1.0, out[-1][0] + draw(st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0))) * MERGE_TOL)
        else:
            b = draw(st.one_of(_ENDS, st.floats(0.0, 1.0, allow_subnormal=False)))
        mass = st.one_of(st.just(1.0), st.floats(0.01, 1.0))
        out.append((b, 0.0 if b == 0.0 else draw(mass), 0.0 if b == 1.0 else draw(mass)))
    return out


@st.composite
def _seen_rows(draw):
    """Row pairs with zero entries, the others at least 0.01: a push an
    atom can see has a probability that does not underflow to 0."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    return tuple(tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(2))


@given(_atoms(), _seen_rows())
@settings(max_examples=300, deadline=None)
def test_push_links_point_to_the_atoms_pushes_merge_into(entries, rows):
    merged, links = push_linked(entries, rows)
    pushes = [(a, k, p, post, u0 * r0, u1 * r1) for a, (b, u0, u1) in enumerate(entries)
              for k, (p, post, r0, r1) in enumerate(push_atom(b, u0, u1, rows))]
    want, joins = tagged_merge([(post, m0, m1, (a, k)) for a, k, _, post, m0, m1 in pushes])

    def hexed(atoms):
        return [tuple(x.hex() for x in atom) for atom in atoms]
    assert hexed(merged) == hexed(want) == hexed(merge_atoms([e[3:] for e in pushes]))
    assert links == [[(p, joins[(a, k)]) for a2, k, p, *_ in pushes if a2 == a]
                     for a in range(len(entries))]
    for (b, _, _), link, out in zip(entries, links, (push_atom(*e, rows) for e in entries)):
        assert [p.hex() for p, _ in link] == [bayes(b, r0, r1)[0].hex() for *_, r0, r1 in out]


@given(st.floats(0.01, 0.99), st.floats(0.05, 0.45))
@settings(max_examples=200, deadline=None)
def test_martingale_property(prior, eps):
    rows = rows_from(eps)
    total = 0.0
    for y in range(2):
        py = prior * rows[0][y] + (1.0 - prior) * rows[1][y]
        total += py * update_observer1(prior, y, rows)
    assert total == pytest.approx(prior, abs=1e-12)


def test_merge_atoms_merges_near_duplicates():
    merged = merge_atoms([(0.5, 0.1, 0.2), (0.5 + 1e-14, 0.3, 0.1),
                          (0.7, 0.2, 0.2)])
    assert len(merged) == 2
    b, w0, w1 = merged[0]
    assert b == pytest.approx(0.5)
    assert w0 == pytest.approx(0.4) and w1 == pytest.approx(0.3)


def test_merge_atoms_keeps_separated_atoms():
    merged = merge_atoms([(0.2, 0.5, 0.5), (0.20001, 0.5, 0.5)])
    assert len(merged) == 2


def test_reachable_beliefs_structure(sym02_p1):
    levels = reachable_levels(sym02_p1.prior, sym02_p1.channel1, 2)
    atoms = [[b for b, _, _ in level] for level in levels]
    assert atoms[0] == [0.5]
    assert atoms[1] == [0.2, 0.8]
    # level 2: 0.2 and 0.8 each split, middle values coincide at 0.5
    assert atoms[2] == pytest.approx([1.0 / 17.0, 0.5, 16.0 / 17.0])


def test_level_masses_sum_to_one(asym_p1):
    levels = reachable_levels(asym_p1.prior, asym_p1.channel1, 3)
    for level in levels:
        assert sum(w0 for _, w0, _ in level) == pytest.approx(1.0, abs=1e-10)
        assert sum(w1 for _, _, w1 in level) == pytest.approx(1.0, abs=1e-10)


def test_push_level_conserves_mass(asym_p1):
    # one level pushed through the next observation keeps its mass
    lv = reachable_levels(asym_p1.prior, asym_p1.channel1, 1)[1]
    nxt = push_atoms(lv, asym_p1.channel1.row_pair(2))
    for h in (1, 2):
        assert sum(e[h] for e in nxt) == pytest.approx(sum(e[h] for e in lv), abs=1e-12)


def test_atoms_consistent_with_weights(asym_p1):
    # each atom value equals the belief implied by its own weight pair
    # once the prior odds are divided out
    levels = reachable_levels(asym_p1.prior, asym_p1.channel1, 3)
    p = asym_p1.prior
    for t in range(1, 4):
        for b, u0, u1 in levels[t]:
            implied = p * u0 / (p * u0 + (1.0 - p) * u1)
            assert implied == pytest.approx(b, abs=1e-10)


def test_receiver_atoms_matches_reachable_levels(asym_p1):
    # a seed at count 0 reaches exactly the atoms of the pushed levels, one
    # point per belief; a seed already at the horizon is kept but not pushed
    ch = asym_p1.channel2

    def same_points(got, want):
        want = merge_atoms([(w, 1.0, 0.0) for w in want])
        return len(got) == len(want) and \
            all(abs(g - w) <= 1e-12 for g, (w, _, _) in zip(got, want))

    levels = reachable_levels(0.3, ch, 3)
    want = [b for level in levels for b, _, _ in level]
    assert same_points(_after_atoms(ch, 3, [[0.3]]), want)
    assert same_points(_after_atoms(ch, 3, [[0.3], [], [], [0.55]]), want + [0.55])
    later = reachable_levels(0.55, ch, 1)
    assert same_points(_after_atoms(ch, 3, [[], [], [0.55]]),
                       [b for level in later for b, _, _ in level])
    assert _after_atoms(ch, 3, []) == []


@st.composite
def _receiver_seeds(draw):
    """A receiver channel (stationary, or one table per observation with
    rows of zero entries among them), a horizon of 0..3 observations and
    (count, belief) seeds at counts 0..horizon, at the horizon more often,
    some within 2 MERGE_TOL of the one before; or no seeds at all.  The
    seeds are also given count by count, as the support takes them, with
    empty trailing counts kept or dropped."""
    horizon = draw(st.integers(0, 3))
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))

    def rows():
        return tuple(tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(2))

    tables = tuple(rows() for _ in range(1 if draw(st.booleans()) else max(horizon, 1)))
    seeds = []
    for _ in range(draw(st.integers(0, 5))):
        k = draw(st.one_of(st.just(horizon), st.integers(0, horizon)))
        if seeds and draw(st.booleans()):
            b = min(1.0, seeds[-1][1] + draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))) * MERGE_TOL)
        else:
            b = draw(st.one_of(_ENDS, st.floats(0.0, 1.0)))
        seeds.append((k, b))
    by_count = [[b for k2, b in seeds if k2 == k] for k in range(horizon + 1)]
    while by_count and not by_count[-1] and draw(st.booleans()):
        by_count.pop()
    return Channel(observer=2, tables=tables), horizon, seeds, by_count


@given(_receiver_seeds())
@settings(max_examples=200, deadline=None)
def test_after_atoms_match_the_scalar_reference(case):
    # the best response's support, pushed by its own receiver step, is the
    # reference's to the bit; a time-varying channel has no table 0 to read
    channel, horizon, seeds, by_count = case
    assert [b.hex() for b in _after_atoms(channel, horizon, by_count)] == \
        [b.hex() for b in receiver_atoms(channel, horizon, seeds)]
