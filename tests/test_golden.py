"""Designer outputs pinned bit for bit.

``tests/golden/designer.json`` holds, for every file in ``instances/`` and
for both sym02 search-size anchors, the designer's total (as ``float.hex``),
its search counts, the policy pair as ``policies.json`` writes it and the
``wald_thresholds.csv`` rows.  A speed-up of the designer must leave all of
them unchanged.  Regenerate (only for a deliberate change of answers) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import glob
import json
import os
import sys
import tempfile

import decseq
from decseq.cli import _write_wald_csv
from decseq.policies import pair_to_dict

from conftest import INSTANCES, make_spec

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "designer.json")

# sym02 with T1 = T2 raised, as in test_sym02_anchor_search_sizes
ANCHOR_HORIZONS = {"P1": 6, "P2": 4}


def golden_specs():
    specs = {}
    for path in sorted(glob.glob(os.path.join(INSTANCES, "*.json"))):
        with open(path) as fh:
            specs[os.path.basename(path)] = json.load(fh)
    for variant, horizon in ANCHOR_HORIZONS.items():
        specs[f"sym02_{variant.lower()}_T{horizon}"] = make_spec(
            variant=variant, t1=horizon, t2=horizon)
    return specs


def designer_record(spec):
    prob = decseq.load_problem_spec(spec)
    sol = (decseq.solve_p1 if prob.variant == "P1" else decseq.solve_p2)(prob)
    with tempfile.TemporaryDirectory() as tmp:
        with open(_write_wald_csv(tmp, sol.o2.wald_rules), encoding="utf-8") as fh:
            rows = fh.read().splitlines()
    return {"total": sol.total.hex(), "nodes": sol.nodes,
            "partitions_tried": sol.partitions_tried,
            # through JSON, so tuples compare equal to the stored lists
            "policies": json.loads(json.dumps(pair_to_dict(sol.o1, sol.o2))),
            "wald_thresholds_csv": rows}


def test_designer_outputs_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    specs = golden_specs()
    assert sorted(golden) == sorted(specs)
    for name, spec in specs.items():
        assert designer_record(spec) == golden[name], name


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({name: designer_record(spec) for name, spec in golden_specs().items()},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
