"""Seeded request generator for the decseq benchmark.

``generate(workload, seed, work_dir, n)`` writes problem files (and, where
a workload needs them, policy pairs) under ``work_dir`` and returns ``n``
rounds, each a shuffled list of ``Request``.  The program only ever sees
those files through its command line.

Every round of a workload holds the same request classes in the same
numbers.  The seed draws the parameters inside each class (prior, channel
accuracies, costs, simulation seeds) from a narrow band around the class's
centre.  The work of a designer or PBPO request moves with its parameters
by a factor of two or more over wide bands; over narrow ones each class
costs about the same for every seed, so medians and percentiles compare
from seed to seed.  Fresh draws in every round, rather than the same
requests repeated, average what variation is left.

The class counts are chosen so that the median and the tail percentile
(the 11th-largest sample, run.py) fall inside a block of similar requests,
not on the gap between a cheap and a dear block, where a small change of
one request's time would move them by the whole gap.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("designer", "long-horizon", "montecarlo")

# Seconds one round took at the seed commit on a 2-core Xeon VM.  A run of
# ``--seconds`` runs round(seconds / ROUND_SECONDS) whole rounds, at least
# one: the same requests on every run and on every version of the program,
# so counts, medians and the tail percentile compare like with like.
ROUND_SECONDS = {"designer": 12.5, "long-horizon": 13.0, "montecarlo": 9.0}

MC_EPISODES = 20000

# sym02: the ROADMAP anchor instance (instances/sym02_p1.json and
# sym02_p2.json) with T1 = T2 raised to 6 (P1) and 4 (P2).  Its search counts
# are exact and repeat run to run.
SYM02 = {"prior": 0.5, "accuracy": 0.8, "c1": 0.1, "c2": 0.05}
ANCHORS = {
    "P1": {"horizon": 6, "nodes": 1981, "partitions": 23367},
    "P2": {"horizon": 4, "nodes": 1980, "partitions": 10307},
}


@dataclass
class Request:
    """One CLI request.  ``argv`` omits ``--out``, which the runner adds."""

    cls: str
    argv: list
    spec: str
    check: dict = field(default_factory=dict)

    @property
    def command(self):
        return self.argv[0]


def binary_tables(a0, a1):
    """Stationary binary channel: P(y=0 | H=0) = a0, P(y=1 | H=1) = a1."""
    return [[[a0, round(1.0 - a0, 6)], [round(1.0 - a1, 6), a1]]]


def ternary_tables(p0, p1):
    """Stationary ternary channel with a monotone likelihood ratio."""
    row = [p0, p1, round(1.0 - p0 - p1, 6)]
    return [[row, row[::-1]]]


def problem_doc(prior, tables1, tables2, c1, c2, t1, t2, variant, m=2):
    return {
        "prior": prior,
        "channels": [{"observer": 1, "tables": tables1},
                     {"observer": 2, "tables": tables2}],
        "costs": {"c1": c1, "c2": c2, "J": [[0.0, 1.0], [1.0, 0.0]]},
        "horizons": {"T1": t1, "T2": t2},
        "variant": variant,
        "M": m,
    }


def sym02(variant, horizon):
    a = SYM02["accuracy"]
    tables = binary_tables(a, a)
    return problem_doc(SYM02["prior"], tables, tables, SYM02["c1"],
                       SYM02["c2"], horizon, horizon, variant)


class SpecWriter:
    """Writes problem and policy files under one directory."""

    def __init__(self, work_dir):
        self.dir = Path(work_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, doc, stem="spec"):
        self.count += 1
        path = self.dir / f"{stem}{self.count:04d}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        return str(path)


def _near(rng, centre, spread, digits=4):
    """``centre`` moved by at most ``spread``, uniformly."""
    return round(rng.uniform(centre - spread, centre + spread), digits)


def _binary(rng, centre=0.8, spread=0.02):
    return binary_tables(_near(rng, centre, spread), _near(rng, centre, spread))


def _designer_doc(rng, kind, horizon, variant="P1", m=2):
    """sym02-centred instance: prior 0.5 +- 0.05, costs +- 10%, channel
    accuracies +- 0.02 (time-varying ones +- 0.05)."""
    prior = _near(rng, 0.5, 0.05)
    c1, c2 = _near(rng, 0.1, 0.01), _near(rng, 0.05, 0.005)
    if kind == "bin":
        tables1 = _binary(rng)
    elif kind == "ter":
        tables1 = ternary_tables(_near(rng, 0.52, 0.02), _near(rng, 0.26, 0.02))
    else:  # time-varying binary, one table per step
        tables1 = [_binary(rng, 0.775, 0.05)[0] for _ in range(horizon)]
    return problem_doc(prior, tables1, _binary(rng), c1, c2,
                       horizon, horizon, variant, m)


# designer round of 42, cheapest block first (times at the seed commit):
#   8 under 0.06 s, 20 binary P1 T=5 and time-varying T=4 of 0.05-0.15 s,
#   13 binary P2 T=4, binary P1 T=6 and ternary T=4 of 0.5-1.0 s, 1 M=3
#   T=4 of 2-2.7 s.  In three rounds (126 samples) the median is 39th of
#   the 60 in the 0.05-0.15 s block and the tail 8th from the top of the 39
#   in the 0.5-1.0 s block.
# Time-varying channels stop at T=4: T=5 jumps to 21,499 nodes and 23 s.
DESIGNER = (
    # (class, command, kind, horizon, variant, M, copies)
    ("oracle-p1-T2", "oracle-check", "bin", 2, "P1", 2, 1),
    ("oracle-p2-T2", "oracle-check", "bin", 2, "P2", 2, 1),
    ("p1-ter-M2-T3", "solve-p1", "ter", 3, "P1", 2, 2),
    ("p2-bin-T3", "solve-p2", "bin", 3, "P2", 2, 2),
    ("mary-ter-M3-T3", "mary", "ter", 3, "P1", 3, 2),
    ("p1-bin-T5", "solve-p1", "bin", 5, "P1", 2, 10),
    ("p1-tv-T4", "solve-p1", "tv", 4, "P1", 2, 10),
    ("p2-bin-T4", "solve-p2", "bin", 4, "P2", 2, 5),
    ("p1-bin-T6", "solve-p1", "bin", 6, "P1", 2, 3),
    ("p1-ter-M2-T4", "solve-p1", "ter", 4, "P1", 2, 3),
    ("mary-ter-M3-T4", "mary", "ter", 4, "P1", 3, 1),
)


def _designer_round(rng, w):
    reqs = []
    for cls, command, kind, horizon, variant, m, copies in DESIGNER:
        check = {} if command == "oracle-check" else {"pbpo_bound": True}
        for _ in range(copies):
            spec = w.write(_designer_doc(rng, kind, horizon, variant, m))
            reqs.append(Request(cls, [command, "--spec", spec], spec,
                                dict(check)))
    for variant, anchor in ANCHORS.items():
        spec = w.write(sym02(variant, anchor["horizon"]))
        reqs.append(Request(
            f"anchor-{variant.lower()}-T{anchor['horizon']}",
            [f"solve-{variant.lower()}", "--spec", spec], spec,
            {"pbpo_bound": True, "nodes": anchor["nodes"],
             "partitions": anchor["partitions"]}))
    rng.shuffle(reqs)
    return reqs


def _sym02_style(rng, t1, t2, variant, cost):
    """sym02 shape (symmetric binary channels of accuracy 0.875 +- 0.005)
    with drawn prior (0.5 +- 0.02) and one shared per-observation cost,
    +- 2%."""
    a, b = _near(rng, 0.875, 0.005), _near(rng, 0.875, 0.005)
    c = _near(rng, cost, 0.02 * cost, 6)
    return problem_doc(_near(rng, 0.5, 0.02), binary_tables(a, a),
                       binary_tables(b, b), c, c, t1, t2, variant)


# long-horizon round of 24, cheapest block first (times at the seed commit):
#   3 solve-infinite of 0.01-0.02 s, 4 PBPO T=12 of 0.15-0.25 s, 6 PBPO
#   T=14 and 2 solve-wald H=10 of 0.25-0.5 s, 7 PBPO T=16 of 0.5-0.95 s,
#   PBPO T=18 of 1.1-2 s and solve-wald H=30 of 2.2-2.7 s.  In two rounds
#   (48 samples) the median is 10th of the 16 in the 0.25-0.5 s block and
#   the tail 8th of the 14 PBPO T=16 samples (in three rounds, 16th of 24
#   and 17th of 21), so a slow stretch of the host that lifts some T=14
#   requests past the cheapest T=16 ones moves neither out of its block.
#   PBPO time doubles every two steps of horizon; asymmetric 0.75-0.85
#   channels took 5-43 s at T=16-20.  This workload is not in
#   BENCHMARK.json (see README.md); run it by name.
PBPO = ((12, 4), (14, 6), (16, 7), (18, 1))
PBPO_COST = 0.0075
WALD_HORIZONS = ((10, 30), (10,))


def _long_horizon_round(rng, w, policies):
    reqs = []
    for t, copies in PBPO:
        for _ in range(copies):
            pv = rng.choice(("P1", "P2"))
            spec = w.write(_sym02_style(rng, t, t, pv, PBPO_COST))
            reqs.append(Request(f"pbpo-{pv.lower()}-T{t}",
                                ["best-response", "--pbpo", "--spec", spec],
                                spec, {"pbpo_trace": True}))
    for horizons in WALD_HORIZONS:
        spec = w.write(_sym02_style(rng, 2, 2, "P1", PBPO_COST))
        for horizon in horizons:
            reqs.append(Request(f"wald-H{horizon}",
                                ["solve-wald", "--horizon", str(horizon),
                                 "--spec", spec],
                                spec, {"wald_group": spec, "horizon": horizon}))
    for variant, (spec, pol) in zip(("P1", "P2", "P1"), policies):
        reqs.append(Request(f"infinite-{variant.lower()}",
                            ["solve-infinite", "--spec", spec, "--policies",
                             pol], spec, {"converged": True}))
    rng.shuffle(reqs)
    return reqs


def designer_pair(w, doc):
    """Write a problem and its designer-optimal policy pair."""
    import decseq

    spec = w.write(doc)
    problem = decseq.load_problem_spec(doc)
    solve = decseq.solve_p1 if problem.variant == "P1" else decseq.solve_p2
    sol = solve(problem)
    pol = w.write(decseq.pair_to_dict(sol.o1, sol.o2), stem="policies")
    return spec, pol


# montecarlo pairs: (class, variant, horizon, c1, c2, pairs, requests per
# pair and round).  The sender waits where c1=0.01, c2=0.02 (E[tau1] about
# 4 for P1) and the receiver samples where c1=0.05, c2=0.01 (E[tau2] about
# 2.7 for P1).  P1 sender-waits, the dearest class, holds 9 of the 13
# requests of a round, so in four rounds (52 samples) the median is 10th
# and the tail 26th of its 36 whatever order the cheaper classes take.
# Every request is one 4-standard-error test (checks.py), so a round keeps
# few, large requests: 52 tests make a chance failure about one run in 300.  The pairs are
# built once in set-up; each round draws fresh simulation seeds.  T=5 (P1)
# and T=3 (P2) keep set-up short; T=6 and T=4 cost 2 s a pair.
MC_PAIRS = (
    ("sim-p1-wait", "P1", 5, 0.01, 0.02, 3, 3),
    ("sim-p1-sample", "P1", 5, 0.05, 0.01, 1, 2),
    ("sim-p2-wait", "P2", 3, 0.01, 0.02, 1, 1),
    ("sim-p2-sample", "P2", 3, 0.05, 0.01, 1, 1),
)


def _mc_pairs(rng, w):
    """[(class, spec, policies, requests per round)] for MC_PAIRS."""
    out = []
    for cls, variant, horizon, c1, c2, pairs, per_round in MC_PAIRS:
        for _ in range(pairs):
            doc = problem_doc(_near(rng, 0.5, 0.05), _binary(rng),
                              _binary(rng), _near(rng, c1, 0.03 * c1, 5),
                              _near(rng, c2, 0.03 * c2, 5),
                              horizon, horizon, variant)
            out.append((cls,) + designer_pair(w, doc) + (per_round,))
    return out


def _montecarlo_round(rng, pairs):
    reqs = []
    for cls, spec, pol, per_round in pairs:
        for _ in range(per_round):
            reqs.append(Request(cls, [
                "simulate", "--spec", spec, "--policies", pol, "--n",
                str(MC_EPISODES), "--seed", str(rng.randrange(2 ** 31))],
                spec, {"mc_agrees": True}))
    rng.shuffle(reqs)
    return reqs


def coverage_round(work_dir):
    """One small request per CLI command, the same for every workload and
    seed.

    The traced run appends it to the workload's round, so every layer has
    spans on every workload and no per-layer time is a constant 0.
    """
    w = SpecWriter(work_dir)
    b = binary_tables(0.8, 0.8)
    p1 = w.write(problem_doc(0.5, b, b, 0.1, 0.05, 2, 2, "P1"))
    p2 = w.write(problem_doc(0.5, b, b, 0.1, 0.05, 2, 2, "P2"))
    mary = w.write(problem_doc(0.5, ternary_tables(0.5, 0.3), b, 0.02, 0.02,
                               2, 2, "P1", m=3))
    pbpo = w.write(problem_doc(0.5, b, b, 0.05, 0.05, 4, 4, "P2"))
    spec, pol = designer_pair(w, problem_doc(0.5, b, b, 0.1, 0.05, 2, 2, "P1"))

    def req(args, path, **check):
        return Request(f"coverage-{args[0]}",
                       [args[0], "--spec", path] + args[1:], path, check)

    return [
        req(["solve-p1"], p1, pbpo_bound=True),
        req(["solve-p2"], p2, pbpo_bound=True),
        req(["mary"], mary, pbpo_bound=True),
        req(["oracle-check"], p1),
        req(["best-response", "--pbpo"], pbpo, pbpo_trace=True),
        req(["solve-wald", "--horizon", "3"], p1, wald_group=p1, horizon=3),
        req(["solve-wald", "--horizon", "5"], p1, wald_group=p1, horizon=5),
        req(["solve-infinite", "--policies", pol, "--grid", "201"], spec,
            converged=True),
        req(["simulate", "--policies", pol, "--n", "300", "--seed", "3"],
            spec, mc_agrees=True),
    ]


def round_count(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def generate(workload, seed, work_dir, n):
    """Write the inputs of ``n`` rounds of ``workload`` for ``seed``; return
    the rounds."""
    rng = random.Random(f"decseq-bench-{workload}-{seed}")
    w = SpecWriter(work_dir)
    if workload == "designer":
        return [_designer_round(rng, w) for _ in range(n)]
    if workload == "long-horizon":
        # solve-infinite gets a stationary sender (T1 = 2 has one stage
        # rule), so the timed requests skip the designer recursion
        policies = [designer_pair(w, _sym02_style(rng, 2, t2, v, cost))
                    for v, t2, cost in (("P1", 2, 0.01), ("P2", 4, 0.005),
                                        ("P1", 4, 0.005))]
        return [_long_horizon_round(rng, w, policies) for _ in range(n)]
    if workload == "montecarlo":
        pairs = _mc_pairs(rng, w)
        return [_montecarlo_round(rng, pairs) for _ in range(n)]
    raise ValueError(f"unknown workload {workload!r}")

