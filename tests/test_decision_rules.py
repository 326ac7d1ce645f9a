"""The shared Bayes step and the two choice rules, on the exact ties that
random instances never hit."""

import pytest

from decseq import (BLANK, Costs, ImpossibleUpdateError, subjective_update, terminal_cost,
                    update_observer1)
from decseq.belief import bayes
from decseq.policies import sender_choice
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
