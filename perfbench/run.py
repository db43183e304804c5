"""The qloci benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the seeded instances at least SETUP_REPEATS times and
until SETUP_SECONDS have gone (the median is `setup_s`), then measures
whole passes over them, each in a fresh worker process, until S seconds
of passes and at least MIN_PASSES passes have accumulated.  Each public call (a formula route, or one `qloci.cli.main`
invocation) and each orbit is timed once a pass, and a fixed probe is
timed around it; the timing metrics take each time scaled by the probe
to a reference host speed, at its median over the passes (README.md).
Every output is checked after its pass.  With --trace 0 the last
stdout line carries the end-to-end metrics, with --trace 1 the per-layer
metrics of two traced passes, alternated with two untraced passes for
the tracing overhead.  The metric names, units and bounds are those of
BENCHMARK.json.

Everything the run writes goes to perfbench/out/<workload>-<seed>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from checkout import OUT, ROOT, MissingSources, use_checkout_sources

SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MIN_PASSES = 3
TRACE_PAIRS = 2  # untraced then traced pass, repeated
DEADLINE_S = 170  # a run must end within 180 s


def definitions():
    """BENCHMARK.json: the workloads and the metrics with their units."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def tail_percentile(calls_per_pass):
    """Highest integer percentile, at most 99, with 10 calls of a pass beyond it.

    Fixed by the instance count alone, so it does not move when a faster
    program fits more passes into the run.
    """
    for p in range(99, 0, -1):
        if calls_per_pass - -(-p * calls_per_pass // 100) >= 10:
            return p
    return 50


def nearest_rank(sorted_values, p):
    return sorted_values[max(-(-p * len(sorted_values) // 100) - 1, 0)]


def environment():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def setup(workload, seed, directory):
    """Generate and write the instances.

    Returns the seconds as measured, the seconds at the reference speed
    (scaled by the mean of a probe just before and one just after), and
    the instance file's bytes.
    """
    import workloads

    before = workloads.probe_ns()
    start = time.perf_counter()
    instances = workloads.generate(workload, seed)
    workloads.write_inputs(instances, directory)
    elapsed = time.perf_counter() - start
    after = workloads.probe_ns()
    scaled = elapsed * workloads.PROBE_REFERENCE_NS / ((before + after) / 2)
    return elapsed, scaled, (directory / "instances.jsonl").read_bytes()


def run_worker(name, seed, directory, trace, index, deadline):
    result = directory / ("pass-%d.json" % index)
    # qloci's searches visit sets in hash order: with the hash seed taken
    # from --seed, one orbit's pipe route took 4 ms on one seed and 26 ms
    # on another.  The hash seed is fixed so every seed does the same work.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", name,
         "--dir", str(directory), "--trace", str(trace), "--result", str(result)],
        env=env,
        timeout=max(deadline - time.monotonic(), 1),
    )
    if proc.returncode != 0:
        raise RuntimeError("worker for pass %d exited %d" % (index, proc.returncode))
    return json.loads(result.read_text())


def scaled_times(passes, key, probe_key):
    """Each call's (or orbit's) time at the reference speed, in seconds.

    Every pass makes the same calls in the same order, so entry i of each
    pass is one call measured once per pass.  A sample t taken while the
    probe took p becomes t * PROBE_REFERENCE_NS / p; a call's figure is
    the median over its passes.
    """
    from workloads import PROBE_REFERENCE_NS

    samples = zip(zip(*(p[key] for p in passes)), zip(*(p[probe_key] for p in passes)))
    return [statistics.median(t * PROBE_REFERENCE_NS / q for t, q in zip(times, probes)) / 1e9
            for times, probes in samples]


def pass_metrics(passes, p_tail, scaled=True):
    """Timing metrics at the reference speed, or (scaled False) as measured.

    The host switches, within a second, between a fast state and one up
    to twice as slow, and whole stretches of 20 s and more stay slow, so
    the share of slow time differs from run to run.  The probe slows
    down with the calls, so scaled times keep little of it.  Pooled raw
    samples, or each call's best or median raw time over the passes,
    all kept the share of slow time (each was tried), and so did scaling
    to each run's own fastest probe, which itself moved by 7% from run
    to run.
    """
    if scaled:
        calls = scaled_times(passes, "latencies_ns", "call_probe_ns")
        orbits = scaled_times(passes, "orbit_ns", "orbit_probe_ns")
    else:
        calls = [t / 1e9 for p in passes for t in p["latencies_ns"]]
        orbits = [t / 1e9 for p in passes for t in p["orbit_ns"]]
    latencies = sorted(t * 1e3 for t in calls)
    return {
        "orbits_per_s": len(orbits) / sum(orbits),
        "call_p50_ms": statistics.median(latencies),
        "call_tail_ms": nearest_rank(latencies, p_tail),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024,
    }


def tally(passes, calls_per_pass):
    """(attempted, failed) calls; a call fails once however many checks it fails."""
    failed = {(i, f[0], f[1]) for i, p in enumerate(passes) for f in p["failures"]}
    return calls_per_pass * len(passes), len(failed)


def layer_metrics(traced, untraced, per_layer):
    """Each per-layer metric, averaged over the traced passes."""
    names = set().union(*(p["layers"] for p in traced))
    raw = {n: statistics.fmean(p["layers"].get(n, 0) for p in traced) for n in names}

    def ratio(num, den):
        return raw.get(num, 0) / raw[den] if raw.get(den) else 0.0

    calls = raw.get("formulas.schubert.calls", 0) + raw.get("formulas.grothendieck.calls", 0)
    raw["formulas.factor_reuse_ratio"] = (
        raw["formulas.factor_args_distinct"] / calls if calls else 0.0
    )
    raw["pipedreams.enum_pipes_by_subsets.hit_ratio"] = ratio(
        "pipedreams.enum_pipes_by_subsets.dreams", "pipedreams.enum_pipes_by_subsets.subsets")
    raw["factorization.x_omega_by_factorization.hit_ratio"] = ratio(
        "factorization.x_omega_by_factorization.hits",
        "factorization.x_omega_by_factorization.tuples_checked")
    raw["lacing.kw_over_w"] = ratio("lacing.enum_KW.diagrams", "lacing.enum_KW.w_seeds")
    raw["cli.report_bytes"] = traced[0]["report_bytes"]
    from workloads import PROBE_REFERENCE_NS

    def scaled_total(p):
        return sum(t * PROBE_REFERENCE_NS / q for t, q in zip(p["orbit_ns"], p["orbit_probe_ns"]))

    raw["trace.overhead_frac"] = (
        statistics.median(map(scaled_total, traced))
        / statistics.median(map(scaled_total, untraced)) - 1
    )
    return {m["name"]: {"value": raw.get(m["name"], 0), "unit": m["unit"]} for m in per_layer}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        use_checkout_sources()
    except MissingSources as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 2
    import workloads

    bench = definitions()
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    directory = OUT / ("%s-%d" % (workload.name, args.seed))
    directory.mkdir(parents=True, exist_ok=True)

    setups = []
    while len(setups) < SETUP_REPEATS or sum(s for s, _, _ in setups) < SETUP_SECONDS:
        setups.append(setup(workload, args.seed, directory))
    setup_stable = len({data for _, _, data in setups}) == 1
    n_instances = setups[0][2].count(b"\n")

    passes = []
    if args.trace:
        for _ in range(TRACE_PAIRS):
            for trace in (0, 1):
                passes.append(run_worker(workload.name, args.seed, directory, trace,
                                         len(passes), deadline))
    else:
        measured = 0.0
        while len(passes) < MIN_PASSES or measured < seconds:
            passes.append(run_worker(workload.name, args.seed, directory, 0, len(passes), deadline))
            measured += passes[-1]["wall_s"]
            if time.monotonic() + passes[-1]["wall_s"] * 1.5 > deadline:
                break
    # a run the deadline cut short measured too little to stand for the program
    enough_passes = len(passes) >= MIN_PASSES

    calls_per_pass = n_instances * workloads.calls_per_orbit(workload)
    attempted, failed = tally(passes, calls_per_pass)
    failures = [f for p in passes for f in p["failures"]]
    digests = {p["digest"] for p in passes}
    correct = failed == 0 and setup_stable and len(digests) == 1 and enough_passes
    p_tail = tail_percentile(calls_per_pass)

    if args.trace:
        metrics = layer_metrics([p for p in passes if "layers" in p],
                                [p for p in passes if "layers" not in p], bench["per_layer"])
    else:
        values = pass_metrics(passes, p_tail)
        values["setup_s"] = statistics.median(s for _, s, _ in setups)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "instances": n_instances,
        "passes": len(passes),
        "enough_passes": enough_passes,
        "result_digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "call_tail_percentile": p_tail,
        "call_samples_per_pass": calls_per_pass,
        "setup_repeats_identical": setup_stable,
        "environment": environment(),
        "metrics": metrics,
        # the probe's median time over its reference: how much slower the host ran
        "host_slowdown": statistics.median(
            q / workloads.PROBE_REFERENCE_NS for p in passes for q in p["call_probe_ns"]),
        "timing_as_measured": None if args.trace else dict(
            pass_metrics(passes, p_tail, False), setup_s=statistics.median(s for s, _, _ in setups)),
    }
    (directory / ("result-trace%d.json" % args.trace)).write_text(json.dumps(record, indent=2))

    print("workload %s  seed %d  instances %d  passes %d  digest %s"
          % (workload.name, args.seed, n_instances, len(passes), record["result_digest"]))
    print("failed_frac %.6f (%d of %d calls)  call_tail_ms is p%d of %d calls a pass"
          % (record["failed_frac"], failed, attempted, p_tail, calls_per_pass))
    if not enough_passes:
        print("only %d passes before the deadline; at least %d are needed"
              % (len(passes), MIN_PASSES))
    for f in failures[:5]:
        print("failure: %s" % (f,))
    for name, m in metrics.items():
        print("%-56s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
