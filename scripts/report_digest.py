#!/usr/bin/env python3
"""Print every report the pipeline produces on the benchmark instances, as
one JSON document with sorted keys.

The document holds `classify(...).to_dict()` for each instance of
bench/workloads.json (with its stored subset cap) and the full-evidence
reports of five reference instances.  Two checkouts produce the same reports
iff their outputs are byte-identical:

    python scripts/report_digest.py > before.json   # in one checkout
    python scripts/report_digest.py > after.json    # in the other
    cmp before.json after.json

The package is imported from the `src/` directory next to this script, so
each checkout reports its own code.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from svtangent.classify import classify  # noqa: E402
from svtangent.model import SVParams  # noqa: E402

FULL_EVIDENCE = [
    ([1, 2], [1, 3]),
    ([2, 2], [1, 2]),
    ([1, 2], [1, 1]),
    ([3], [1]),
    ([1, 2], [1, 2]),
]


def main() -> int:
    workloads = json.loads((ROOT / "bench" / "workloads.json").read_text())
    instances = [
        {
            "workload": name,
            "report": classify(
                SVParams.of(i["a"], i["b"]), subset_cap=i["subset_cap"]
            ).to_dict(),
        }
        for name, items in workloads.items()
        for i in items
    ]
    evidence = [
        classify(SVParams.of(a, b), full_evidence=True).to_dict()
        for a, b in FULL_EVIDENCE
    ]
    doc = {"instances": instances, "full_evidence": evidence}
    print(json.dumps(doc, sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
