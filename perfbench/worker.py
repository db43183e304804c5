"""One measured pass over a workload's instances, in a fresh process.

    python3 perfbench/worker.py --workload NAME --dir DIR --trace 0|1 --result PATH

Reads DIR/instances.jsonl, runs the pass, and writes a JSON summary to
PATH.  With --trace 1 every public qloci function is wrapped for the
pass and DIR receives spans.tsv and layers.tsv.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path

from checkout import use_checkout_sources


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    use_checkout_sources()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    instances = workloads.read_instances(args.dir)
    # Leave the objects of the imports out of every later collection: a
    # full collection over them took 12 to 22 ms and fell on whichever
    # call the allocation count picked, so the seed's order moved it.
    gc.freeze()
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        done = workloads.run_pass(workload, instances, args.dir, tracer,
                                  workloads.load_reference(workload))
    finally:
        if tracer is not None:
            tracer.uninstall()
    summary = done.summary()
    summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write_spans(args.dir / "spans.tsv")
        tracer.write_table(args.dir / "layers.tsv")
        summary["layers"] = tracer.layer_metrics()
        summary["spans"] = len(tracer.spans) + tracer.dropped
    args.result.write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
