"""Shared fixtures: instance files plus a few synthetic problem builders."""

import copy
import json
import os

import pytest

import decseq

HERE = os.path.dirname(os.path.abspath(__file__))
INSTANCES = os.path.join(HERE, os.pardir, "instances")
# designer outputs pinned bit for bit (tests/test_golden.py), the one source
# of the anchors' search counts in the suite
GOLDEN = os.path.join(HERE, "golden", "designer.json")
# the search-size anchors: sym02 with T1 = T2 raised to these horizons
ANCHOR_HORIZONS = {"P1": 6, "P2": 4}

_ACCEPTANCE_LINES = {}


def record_criterion(number, passed):
    _ACCEPTANCE_LINES[number] = passed


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_LINES):
        verdict = "PASS" if _ACCEPTANCE_LINES[number] else "FAIL"
        terminalreporter.write_line(f"CRITERION {number}: {verdict}")


def load_instance(name):
    with open(os.path.join(INSTANCES, name + ".json")) as fh:
        return json.load(fh)


def make_spec(prior=0.5, ch1=None, ch2=None, c1=0.1, c2=0.05, loss=None,
              t1=2, t2=2, variant="P1", m=2):
    if ch1 is None:
        ch1 = [[0.8, 0.2], [0.2, 0.8]]
    if ch2 is None:
        ch2 = [[0.8, 0.2], [0.2, 0.8]]
    if loss is None:
        loss = [[0.0, 1.0], [1.0, 0.0]]
    return {
        "prior": prior,
        "channels": [
            {"observer": 1, "tables": [ch1]},
            {"observer": 2, "tables": [ch2]},
        ],
        "costs": {"c1": c1, "c2": c2, "J": loss},
        "horizons": {"T1": t1, "T2": t2},
        "variant": variant,
        "M": m,
    }


def anchor_spec(variant):
    """The sym02 anchor of ``variant``: (its name in GOLDEN, its spec)."""
    t = ANCHOR_HORIZONS[variant]
    return f"sym02_{variant.lower()}_T{t}", make_spec(variant=variant, t1=t, t2=t)


def read_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


ASYM = dict(prior=0.4, ch1=[[0.7, 0.3], [0.25, 0.75]],
            ch2=[[0.85, 0.15], [0.3, 0.7]], c1=0.04, c2=0.03,
            loss=[[0.0, 1.2], [0.9, 0.0]])


@pytest.fixture(scope="session")
def sym02_p1():
    return decseq.load_problem_spec(load_instance("sym02_p1"))


@pytest.fixture(scope="session")
def sym02_p2():
    return decseq.load_problem_spec(load_instance("sym02_p2"))


@pytest.fixture(scope="session")
def mary3_p1():
    return decseq.load_problem_spec(load_instance("mary3_p1"))


@pytest.fixture(scope="session")
def asym_p1():
    return decseq.load_problem_spec(make_spec(variant="P1", **ASYM))


@pytest.fixture(scope="session")
def asym_p2():
    return decseq.load_problem_spec(make_spec(variant="P2", **ASYM))


def battery(variant):
    """Six small binary instances per variant, all within oracle reach."""
    base = [
        make_spec(variant=variant),
        make_spec(variant=variant, **ASYM),
        make_spec(variant=variant, prior=0.35, c1=0.06, c2=0.04),
        make_spec(variant=variant, prior=0.65, ch1=[[0.75, 0.25], [0.3, 0.7]],
                  loss=[[0.0, 0.8], [1.1, 0.0]]),
        make_spec(variant=variant, t1=1, t2=2, **{k: v for k, v in ASYM.items()
                                                  if k != "prior"}, prior=0.55),
        make_spec(variant=variant, t1=1, t2=1, c1=0.02, c2=0.02),
    ]
    return [decseq.load_problem_spec(copy.deepcopy(s)) for s in base]


@pytest.fixture(scope="session")
def battery_p1():
    return battery("P1")


@pytest.fixture(scope="session")
def battery_p2():
    return battery("P2")


@pytest.fixture(scope="session")
def solved_battery_p1(battery_p1):
    return [(p, decseq.solve_p1(p)) for p in battery_p1]


@pytest.fixture(scope="session")
def solved_battery_p2(battery_p2):
    return [(p, decseq.solve_p2(p)) for p in battery_p2]
