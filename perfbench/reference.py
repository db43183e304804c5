"""Write reference.json: the answers of every orbit a workload may draw.

    python3 perfbench/reference.py

Runs each workload's whole population once, unmeasured, and stores each
call's answer as a short hash under the orbit's key: the canonical `str`
of each formula route's polynomial, the `zelevinsky` JSON, and the
per-check verdicts of each `verify` report.  Every benchmark run then
fails a call whose answer differs, also when both routes of a theory
drift together.  Run it only on a program whose answers are known good,
and only when the populations or the answers are meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from checkout import OUT, use_checkout_sources


def main():
    use_checkout_sources()
    import workloads

    reference = {}
    for workload in workloads.WORKLOADS.values():
        instances = workloads.generate(workload, 0)
        OUT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            workloads.write_inputs(instances, Path(tmp))
            done = workloads.run_pass(workload, instances, Path(tmp))
        if done.failures:
            print("reference: %s fails: %s" % (workload.name, done.failures[:3]), file=sys.stderr)
            return 1
        reference[workload.name] = done.answers
        print("%s: %d orbits" % (workload.name, len(done.answers)))
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
