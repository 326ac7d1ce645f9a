"""Designer outputs pinned bit for bit.

``tests/golden/designer.json`` holds, for every file in ``instances/`` and
for both sym02 search-size anchors, the designer's total (as ``float.hex``),
its search counts (nodes, partitions, memo hits), the policy pair as
``policies.json`` writes it and the ``wald_thresholds.csv`` rows.  A
speed-up of the designer must leave all of them unchanged; the anchor tests
in ``test_seq_decomp.py`` read their counts from it.  Regenerate (only for
a deliberate change of answers) with ``PYTHONPATH=src python
tests/test_golden.py``.
"""

import glob
import json
import os
import sys
import tempfile

import decseq
from decseq.cli import _write_wald_csv
from decseq.policies import pair_to_dict

from conftest import ANCHOR_HORIZONS, GOLDEN, INSTANCES, anchor_spec, read_golden


def golden_specs():
    specs = {}
    for path in sorted(glob.glob(os.path.join(INSTANCES, "*.json"))):
        with open(path) as fh:
            specs[os.path.basename(path)] = json.load(fh)
    specs.update(map(anchor_spec, ANCHOR_HORIZONS))
    return specs


def designer_record(spec):
    prob = decseq.load_problem_spec(spec)
    sol = (decseq.solve_p1 if prob.variant == "P1" else decseq.solve_p2)(prob)
    with tempfile.TemporaryDirectory() as tmp:
        with open(_write_wald_csv(tmp, sol.o2.wald_rules), encoding="utf-8") as fh:
            rows = fh.read().splitlines()
    return {"total": sol.total.hex(), "nodes": sol.nodes,
            "partitions_tried": sol.partitions_tried, "memo_hits": sol.memo_hits,
            # through JSON, so tuples compare equal to the stored lists
            "policies": json.loads(json.dumps(pair_to_dict(sol.o1, sol.o2))),
            "wald_thresholds_csv": rows}


def test_designer_outputs_match_golden():
    golden = read_golden()
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
