"""The shared Bayes step and the two choice rules, on the exact ties that
random instances never hit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decseq import (BLANK, Costs, ImpossibleUpdateError, StructureViolation, extract_thresholds,
                    subjective_update, terminal_cost, update_observer1)
from decseq.belief import bayes
from decseq.infinite_horizon import _run_ends
from decseq.policies import sender_choice, sender_codes
from decseq.wald import stop_or_sample

ZERO_ONE = Costs(c1=0.1, c2=0.05, loss=((0.0, 1.0), (1.0, 0.0)))

# at belief 0.5 both declarations cost exactly 0.5; at 0.25 declaring 1
# costs 0.25 and declaring 0 costs 0.75
RECEIVER = [
    # (beliefs, continuation costs, labels)
    ([0.5], None, [0]),                      # declare 0 beats declare 1
    ([0.25], None, [1]),
    ([0.5], [0.5], [0]),                     # stop beats continue
    ([0.5], [0.4999], [None]),
    ([0.25, 0.5], [0.25, 0.6], [1, 0]),
]
SENDER = [
    # (send costs by symbol, wait costs, labels)
    ([[1.0], [1.0]], [1.0], [1]),            # send beats wait, higher symbol wins
    ([[1.0], [2.0]], [1.0], [0]),
    ([[1.0], [1.0]], [0.5], [BLANK]),
    ([[1.0], [1.0], [2.0]], None, [1]),
    ([[2.0], [1.0], [1.0]], None, [2]),
    ([[0.3, 0.9], [0.3, 0.8]], [0.4, 0.7], [1, BLANK]),
]


def test_tie_rules_and_impossible_events():
    for beliefs, cont, want in RECEIVER:
        labels, values, branches = stop_or_sample(beliefs, cont, ZERO_ONE)
        assert labels == want, (beliefs, cont)
        assert values == [min(c) for c in zip(*branches.values())]
        assert ("continue" in branches) == (cont is not None)
        for u in (0, 1):
            assert branches[f"declare{u}"] == tuple(terminal_cost(u, b, ZERO_ONE) for b in beliefs)
    for sends, wait, want in SENDER:
        labels, values = sender_choice(sends, wait)
        assert labels == want, (sends, wait)
        costs = sends + ([wait] if wait is not None else [])
        assert values == [min(c) for c in zip(*costs)]

    # an event of probability 0 has no posterior
    assert bayes(0.3, 0.0, 0.0) == (0.0, None)
    assert bayes(1.0, 0.0, 0.7) == (0.0, None)
    assert bayes(0.5, 0.8, 0.2) == (0.5, 0.8)
    rows = ((0.0, 1.0), (0.5, 0.5))
    with pytest.raises(ImpossibleUpdateError):
        update_observer1(1.0, 0, rows)
    # observer 2's modelled belief is total: it stays where it was
    assert subjective_update(1.0, 0, rows, None) == 1.0
    assert subjective_update(0.3, 1, rows, (0.0, 0.0)) == 0.3


def scalar_sender_choice(sends, wait):
    """The sender rule one belief at a time: the cheapest send, the higher
    symbol on ties, unless waiting costs strictly less."""
    labels, values = [], []
    for i in range(len(sends[0])):
        z = min(range(len(sends) - 1, -1, -1), key=lambda z: sends[z][i])
        v = sends[z][i]
        if wait is not None and wait[i] < v:
            z, v = BLANK, wait[i]
        labels.append(z)
        values.append(v)
    return labels, values


COST = st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nextafter(0.5, 1.0)]) | \
    st.floats(-2.0, 2.0) | st.just(math.nan)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sender_codes_match_the_scalar_rule(data):
    # on arrays, with exact ties and NaNs: the same choices, and each cost
    # the very float the scalar rule picks
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 8))
    sends = [data.draw(st.lists(COST, min_size=n, max_size=n)) for _ in range(m)]
    wait = data.draw(st.none() | st.lists(COST, min_size=n, max_size=n))
    labels, values = sender_choice(sends, wait)
    want_labels, want_values = scalar_sender_choice(sends, wait)
    assert labels == want_labels
    assert [v.hex() for v in values] == [v.hex() for v in want_values]
    codes, arr = sender_codes([np.array(s) for s in sends],
                              None if wait is None else np.array(wait))
    assert [BLANK if z < 0 else z for z in codes.tolist()] == labels
    assert [v.hex() for v in arr.tolist()] == [v.hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_run_ends_keep_the_threshold_rule(data):
    # the rule from each run's end points alone is the rule from every
    # point, or both fail with the same error
    m = data.draw(st.integers(2, 3))
    points = sorted(set(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))))
    codes = np.array(data.draw(st.lists(st.integers(-1, m - 1), min_size=len(points),
                                        max_size=len(points))), dtype=np.int8)
    labels = [BLANK if z < 0 else z for z in codes.tolist()]
    ends = _run_ends(codes)

    def rule(pairs):
        try:
            return extract_thresholds(pairs, m)
        except StructureViolation:
            return StructureViolation

    assert rule([(points[i], labels[i]) for i in ends.tolist()]) == rule(list(zip(points, labels)))
