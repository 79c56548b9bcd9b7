"""Record the output digest of every pool instance and of each CLI command.

From the repository root::

    PYTHONPATH=src python3 perfbench/record.py

Rewrites perfbench/digests.json.  Every later run compares its outputs with
these digests, so record again only when an output change is intended.  An
instance whose output fails its independent check is not recorded: the
script stops instead.  Instances that raise a library error are recorded as
``!<exception name>``.
"""

from __future__ import annotations

import json
import os
import sys

import redcycle

import worker
import workloads


def main() -> int:
    src = os.path.dirname(os.path.dirname(os.path.abspath(redcycle.__file__)))
    doc: dict[str, dict] = {"cli": {}, "jobs": {}}
    for name in workloads.WORKLOADS:
        kinds: dict[str, list[str]] = {}
        for job in workloads.Workload(name, 0).all_jobs():
            outcome = worker.run_job(job, {}, redcycle.RedcycleError)
            if outcome["status"] == "wrong":
                print(outcome["problem"], file=sys.stderr)
                return 1
            kinds.setdefault(job.kind, []).append(outcome["label"])
        doc["jobs"][name] = kinds
        elapsed, status, out_digest = worker.run_cli(name, src)
        if status != 0:
            print(f"{name}: CLI exit status {status}", file=sys.stderr)
            return 1
        doc["cli"][name] = out_digest
        print(name, {kind: len(labels) for kind, labels in kinds.items()})
    with open(os.path.join(worker.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
