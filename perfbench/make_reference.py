"""Regenerate reference.json, the known answers of the plan and CNF instances.

    python3 perfbench/make_reference.py

For every instance of the plan and CNF workloads (their lists do not depend
on the workload seed) it stores the update size, the verify verdict and the
digest of the records without `time ` lines.  The committed file was made
once from the program the benchmark was introduced with; regenerate it only
when a change is meant to alter answers or records, and say so.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.load_program()
    import workloads

    reference: dict[str, dict] = {}
    for name in ("plan-hitting", "plan-extract", "cnf-reconcile"):
        for instance in workloads.WORKLOADS[name](0):
            outcome = instance.run()
            if any(outcome.codes) or outcome.verify_ok is not True:
                print(f"{instance.key}: exit {outcome.codes}, "
                      f"verify {outcome.verify_ok}", file=sys.stderr)
                return 1
            reference[instance.key] = {
                "update_size": outcome.update_size,
                "verify_ok": outcome.verify_ok,
                "digest": workloads.records_digest(outcome.records),
            }
            print(instance.key, reference[instance.key]["update_size"], flush=True)
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
