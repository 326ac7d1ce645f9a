"""Answer checks for the decseq benchmark.

Run after the timed loop, since some cost as much as the request they
check.  ``check_outcomes`` returns {outcome index: reason} for every request
whose answer is wrong; a nonzero exit or an exception is already a failure
and gets no further checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import decseq

TOL = 1e-9           # solver-vs-certificate tolerance used by the CLI itself
MONOTONE_TOL = 1e-12  # slack for "does not increase" between exact costs
MC_SIGMAS = 4.0


def _report(outcome):
    return json.loads((Path(outcome.out) / "report.json").read_text())


def _problem(path):
    return decseq.load_problem_spec(json.loads(Path(path).read_text()))


def _memo(cache, key, compute):
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _pbpo_cost(spec):
    """PBPO cost of a problem, or the StructureViolation PBPO raised.

    With three or more symbols the sender's best response need not be
    threshold-shaped, and ``pbpo_iteration`` then raises; the designer
    answer has no PBPO bound to meet.
    """
    try:
        return decseq.pbpo_iteration(_problem(spec)).trace[-1]
    except decseq.StructureViolation as exc:
        return exc


def _check_one(req, rep, out_dir, cache, skipped):
    """Reason the answer of one finished request is wrong, or None.

    ``cache`` keeps PBPO and exact costs, so a request repeated over several
    rounds is priced once.  A check that cannot be made is appended to
    ``skipped`` as (class, reason).
    """
    chk = req.check
    if chk.get("pbpo_bound"):
        bound = _memo(cache, ("pbpo", req.spec), lambda: _pbpo_cost(req.spec))
        if isinstance(bound, Exception):
            note = (req.cls, f"no PBPO bound for {req.spec}: "
                             f"pbpo_iteration raised {bound!r}")
            if note not in skipped:
                skipped.append(note)
        elif rep["cost"] > bound + TOL:
            return f"designer cost {rep['cost']!r} above PBPO cost {bound!r}"
    for key, field in (("nodes", "nodes"), ("partitions", "partitions_tried")):
        if key in chk and rep.get(field) != chk[key]:
            return f"anchor {key} {rep.get(field)!r}, expected {chk[key]}"
    if req.command == "oracle-check" and not rep["abs_diff"] <= TOL:
        return f"oracle disagrees by {rep['abs_diff']!r}"
    if chk.get("pbpo_trace"):
        trace = rep["trace"]
        if any(b > a + MONOTONE_TOL for a, b in zip(trace, trace[1:])):
            return f"PBPO trace increases: {trace}"
        text = (Path(out_dir) / "policies.json").read_text()
        exact = _memo(cache, ("exact", req.spec, text), lambda: decseq.exact_cost(
            decseq.pair_from_dict(json.loads(text)), _problem(req.spec)).total)
        if abs(exact - trace[-1]) > TOL:
            return f"PBPO trace ends at {trace[-1]!r}, exact cost {exact!r}"
    if chk.get("converged"):
        for key in ("stationary_wald", "receiver_limit", "sender_limit"):
            if rep.get(key, {}).get("converged") is False:
                return f"{key} did not converge"
    if chk.get("mc_agrees"):
        diff = abs(rep["mean_cost"] - rep["exact_cost"])
        if diff > MC_SIGMAS * rep["stderr"] + TOL:
            return (f"Monte Carlo mean {rep['mean_cost']!r} is {diff!r} from "
                    f"exact {rep['exact_cost']!r} (stderr {rep['stderr']!r})")
    return None


def check_outcomes(outcomes):
    """Check every successful outcome.  Returns ({index: reason}, [(class,
    reason)] for checks that could not be made)."""
    bad = {}
    skipped = []
    cache = {}
    wald = {}
    for i, oc in enumerate(outcomes):
        if not oc.ok:
            continue
        try:
            rep = _report(oc)
            reason = _check_one(oc.request, rep, oc.out, cache, skipped)
        except (OSError, KeyError, TypeError, ValueError,
                decseq.DecseqError) as exc:
            reason = f"check could not run: {exc!r}"
        if reason is not None:
            bad[i] = reason
        elif "wald_group" in oc.request.check:
            group = wald.setdefault(oc.request.check["wald_group"], [])
            group.append((oc.request.check["horizon"], rep["cost_at_prior"], i))
    # a longer deadline can only lower the optimal cost at the prior
    for runs in wald.values():
        best = {}
        for horizon, cost, i in runs:
            best.setdefault(horizon, []).append((cost, i))
        horizons = sorted(best)
        for shorter, longer in zip(horizons, horizons[1:]):
            ceiling = min(c for c, _ in best[shorter])
            for cost, i in best[longer]:
                if cost > ceiling + MONOTONE_TOL:
                    bad[i] = (f"solve-wald cost {cost!r} at horizon {longer} "
                              f"above {ceiling!r} at horizon {shorter}")
    return bad, skipped
