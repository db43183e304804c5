"""Workload definitions, the seeded instance generator, and one measured pass.

A workload is a population of orbits fixed by input properties (the
quivers, a codimension range, for the CLI a window-tuple cap).  The
generator takes the whole population and shuffles it from the seed.
Drawing a part of it instead moved the tail latency by 5 to 15% from
seed to seed, a large share of the end-to-end bounds, so every seed
measures the same orbits and the seed sets only their order.

`run_pass` feeds the instances to the library routes or to
`qloci.cli.main`, timing each public call, and checks every output only
after the timed loop, also against the reference answers of REFERENCE.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import statistics
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from qloci import cli, formulas, lacing, quiver

# The paper's running example: quiver (1,3,2),(2,3), laces y2-y0, y2-y1, x2-x1.
RUNNING_EXAMPLE = ((1, 3, 2), (2, 3), (("x2", "x1", 1), ("y2", "y0", 1), ("y2", "y1", 1)))
# Its multidegree at the point of `_probe_value`, as both routes computed it
# when this benchmark was written.
RUNNING_EXAMPLE_PROBE = Fraction(-46)

SMALL_QUIVERS = tuple(
    (dy, dx)
    for n in (1, 2)
    for dy in itertools.product((1, 2), repeat=n + 1)
    for dx in itertools.product((1, 2), repeat=n)
)

THEORIES = (
    ("multidegree_pipe", "multidegree_component"),
    ("kpoly_pipe", "kpoly_component"),
)

CLI_CALLS = (
    ("zelevinsky", "--format", "json", "--jobs", "1"),
    ("verify", "--suite", "pipe", "--jobs", "1"),
    ("verify", "--suite", "bijections", "--jobs", "1"),
)


@dataclass(frozen=True)
class Workload:
    """One workload; why it was chosen is in BENCHMARK.json."""

    name: str
    quivers: tuple
    codim_min: int
    codim_cap: int
    routes: tuple = ()  # formula routes per orbit; empty means the CLI calls
    # Keep only quivers whose brute factorization filter checks at most
    # this many window tuples (and whose free cells fit the subset
    # oracle); 0 keeps every quiver.
    window_cap: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="invariants_small",
            quivers=SMALL_QUIVERS,
            codim_min=0,
            codim_cap=2,
            routes=THEORIES[0] + THEORIES[1],
        ),
        Workload(
            name="invariants_large",
            quivers=(RUNNING_EXAMPLE[:2],),
            codim_min=2,
            codim_cap=4,
            routes=THEORIES[0],
        ),
        Workload(
            name="verify_cli",
            quivers=SMALL_QUIVERS,
            codim_min=1,
            codim_cap=1,
            window_cap=432,
        ),
    )
}

# `verify` refuses, for capacity, a brute factorization filter over more
# window tuples than factorization.TUPLE_LIMIT (5000) and a subset oracle
# over more free cells than pipedreams.DEFAULT_CAPACITY.  window_cap and
# FREE_CELL_BUDGET are written out, not read from the library, so that a
# library that lowers its budgets meets refusals, which fail the run,
# instead of a smaller population.
FREE_CELL_BUDGET = 26

# Seed for claims; never used while a change is written or tuned.
HELD_OUT_SEED = 20250312

# Every orbit's answers, hashed, as the program computed them when the
# benchmark was written; `python3 perfbench/reference.py` rewrites it.
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _orbit_key(orbit):
    return tuple(sorted(orbit.laces.items()))


def _input_json(q, orbit):
    """The CLI input schema for one orbit."""
    return {
        "n": q.n,
        "dy": list(q.dy),
        "dx": list(q.dx),
        "orbit": {
            "multiplicities": {"%s,%s" % pair: m for pair, m in _orbit_key(orbit)}
        },
    }


def window_tuples(q):
    """How many window tuples the brute factorization filter checks."""
    total = 1
    for k in range(1, q.n + 1):
        x = q.dim("x%d" % k)
        total *= math.factorial(q.dim("y%d" % k) + x) * math.factorial(q.dim("y%d" % (k - 1)) + x)
    return total


def free_cells(q):
    """Cells of the d_y x d_x corner outside P_*, the subset oracle's 2^free."""
    return q.d_y * q.d_x - len(quiver.block_layout(q).p_star)


def within_window_cap(q, cap):
    return window_tuples(q) <= cap and free_cells(q) <= FREE_CELL_BUDGET


def population(workload):
    """Every orbit of the workload, as (quiver, codim, orbit), in a fixed order."""
    members = []
    for dy, dx in workload.quivers:
        q = quiver.BipartiteQuiver(dy, dx)
        if workload.window_cap and not within_window_cap(q, workload.window_cap):
            continue
        for orbit in lacing.all_orbits(q):
            c = quiver.codim(q, orbit)
            if workload.codim_min <= c <= workload.codim_cap:
                members.append((q, c, orbit))
    return members


def generate(workload, seed):
    """The seeded instance list: dicts with id, codim and the CLI input."""
    chosen = population(workload)
    random.Random("%s:%d" % (workload.name, seed)).shuffle(chosen)
    return [{"id": "%04d" % i, "codim": c, "input": _input_json(q, o)}
            for i, (q, c, o) in enumerate(chosen)]


def write_inputs(instances, directory):
    """instances.jsonl plus one CLI input file per instance."""
    (directory / "inputs").mkdir(parents=True, exist_ok=True)
    with open(directory / "instances.jsonl", "w") as fh:
        for inst in instances:
            fh.write(json.dumps(inst, sort_keys=True) + "\n")
    for inst in instances:
        with open(directory / "inputs" / ("%s.json" % inst["id"]), "w") as fh:
            json.dump(inst["input"], fh, sort_keys=True)


def read_instances(directory):
    with open(directory / "instances.jsonl") as fh:
        return [json.loads(line) for line in fh]


# --- one measured pass ------------------------------------------------


def orbit_key(inst):
    """A short name of an instance's orbit, such as '1,2/2/y1,x1=1;y1,y0=1'."""
    got = inst["input"]
    laces = ";".join("%s=%d" % item for item in sorted(got["orbit"]["multiplicities"].items()))
    return "%s/%s/%s" % (",".join(map(str, got["dy"])), ",".join(map(str, got["dx"])), laces)


def answer_hash(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_reference(workload):
    """{orbit key: answer hashes} of the workload, from REFERENCE."""
    with open(REFERENCE) as fh:
        return json.load(fh)[workload.name]


PROBE_STEPS = 2500
# The probe's time at the reference speed: its fastest time on the host the
# benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11), taken over
# 30 s of back-to-back probes.  Timings are given at this speed.
PROBE_REFERENCE_NS = 330_000


def probe_ns():
    """Time of a fixed piece of pure-Python work: how fast the host runs now.

    It allocates no tracked containers but its one dict, so it does not
    move the point at which the garbage collector runs in the program.
    """
    start = time.perf_counter_ns()
    table = {}
    for i in range(PROBE_STEPS):
        key = i % 13 * 7 + i % 7
        table[key] = table.get(key, 0) + i * 3
    return time.perf_counter_ns() - start


class Pass:
    """What one pass over the instances did: latencies, failures, digest.

    Around every public call the pass times the probe, outside the call's
    own time: `call_probe_ns` is the mean of the probes just before and
    just after each call, `orbit_probe_ns` the mean of an orbit's probes.
    """

    def __init__(self, reference=None):
        self.latencies_ns = []  # one per public call, in call order
        self.call_probe_ns = []  # one per public call
        self.orbit_ns = []  # one per instance: its calls and input parsing
        self.orbit_probe_ns = []  # one per instance
        self._probes = []
        self._spent = 0
        self.failures = []  # (instance id, call, reason)
        self.wall_s = 0.0
        self.report_bytes = 0
        self.digest = hashlib.sha256()
        self.reference = reference  # None: answers are not compared
        self.answers = {}  # orbit key -> answer hashes, space separated

    def fail(self, inst, call, reason):
        self.failures.append((inst["id"], call, reason))

    def start_orbit(self):
        self._probes = [probe_ns()]
        self._spent = 0

    def call_done(self, elapsed_ns):
        """Record one public call's latency, then time the probe after it."""
        self.latencies_ns.append(elapsed_ns)
        self._spent += elapsed_ns
        self._probes.append(probe_ns())
        self.call_probe_ns.append((self._probes[-2] + self._probes[-1]) / 2)

    def end_orbit(self, parse_ns=0):
        self.orbit_ns.append(self._spent + parse_ns)
        self.orbit_probe_ns.append(statistics.fmean(self._probes))

    def answer(self, inst, calls, texts):
        """Record one orbit's answers; calls[i] fails if texts[i] differs from the reference."""
        key = orbit_key(inst)
        hashes = [answer_hash(t) for t in texts]
        self.answers[key] = " ".join(hashes)
        if self.reference is None:
            return
        expected = self.reference.get(key, "").split()
        for i, (call, h) in enumerate(zip(calls, hashes)):
            if len(expected) != len(hashes):
                self.fail(inst, call, "no reference answer for %s" % key)
            elif h != expected[i]:
                self.fail(inst, call, "answer differs from the reference")

    def summary(self):
        """The JSON-able record a worker hands back."""
        return {
            "wall_s": self.wall_s,
            "latencies_ns": self.latencies_ns,
            "call_probe_ns": self.call_probe_ns,
            "orbit_ns": self.orbit_ns,
            "orbit_probe_ns": self.orbit_probe_ns,
            "failures": self.failures,
            "digest": self.digest.hexdigest(),
            "report_bytes": self.report_bytes,
        }


def _probe_value(poly):
    """The polynomial at t^k_i = 3 + 7k + i and s^k_j = 1 + 5k + 2j."""
    point = {}
    for var in poly.variables():
        k, slot = var.k, var.slot
        point[var] = 3 + 7 * k + slot if var.family == "t" else 1 + 5 * k + 2 * slot
    return poly.eval(point)


def _is_running_example(inst):
    dy, dx, laces = RUNNING_EXAMPLE
    got = inst["input"]
    return (tuple(got["dy"]), tuple(got["dx"])) == (dy, dx) and got["orbit"][
        "multiplicities"
    ] == {"%s,%s" % (a, b): m for a, b, m in laces}


def _run_routes(workload, instances, tracer, out):
    results = []
    op = 0
    t0 = time.perf_counter()
    for inst in instances:
        if tracer is not None:
            tracer.op = op
        out.start_orbit()
        start = time.perf_counter_ns()
        try:
            q, orbit = quiver.quiver_from_json(inst["input"])
        except Exception:
            for route in workload.routes:
                out.fail(inst, route, traceback.format_exc(limit=1))
            results.append(None)
            out.end_orbit(time.perf_counter_ns() - start)
            op += len(workload.routes)
            continue
        parse_ns = time.perf_counter_ns() - start
        values = {}
        for route in workload.routes:
            if tracer is not None:
                tracer.op = op
            op += 1
            start = time.perf_counter_ns()
            try:
                values[route] = getattr(formulas, route)(q, orbit)
            except Exception:
                values[route] = None
                out.fail(inst, route, traceback.format_exc(limit=1))
            out.call_done(time.perf_counter_ns() - start)
        results.append(values)
        out.end_orbit(parse_ns)
    out.wall_s = time.perf_counter() - t0
    for inst, values in zip(instances, results):
        if values is not None:
            _check_routes(workload, inst, values, out)


def _check_routes(workload, inst, values, out):
    for route in workload.routes:
        out.digest.update(("%s\t%s\t%s\n" % (inst["id"], route, values[route])).encode())
    # both routes of a theory answer against the one reference answer
    out.answer(inst, workload.routes, [str(values[r]) for r in workload.routes])
    for pipe, component in THEORIES:
        if pipe not in workload.routes or values[pipe] is None or values[component] is None:
            continue
        if values[pipe] != values[component]:
            out.fail(inst, pipe, "pipe and component routes disagree")
            out.fail(inst, component, "pipe and component routes disagree")
    degree = values.get("multidegree_pipe")
    if degree is not None:
        codim = inst["codim"]
        if not degree or degree.homogeneous_part(codim) != degree:
            out.fail(inst, "multidegree_pipe", "not homogeneous of degree %d" % codim)
        if _is_running_example(inst) and _probe_value(degree) != RUNNING_EXAMPLE_PROBE:
            out.fail(inst, "multidegree_pipe", "running example multidegree changed")


def _run_cli(instances, directory, tracer, out):
    outputs = []
    op = 0
    t0 = time.perf_counter()
    for inst in instances:
        path = str(directory / "inputs" / ("%s.json" % inst["id"]))
        runs = []
        out.start_orbit()
        for call in CLI_CALLS:
            if tracer is not None:
                tracer.op = op
            op += 1
            stdout, stderr = io.StringIO(), io.StringIO()
            start = time.perf_counter_ns()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(list(call) + ["--input", path])
            except BaseException as err:  # argparse exits through SystemExit
                if isinstance(err, KeyboardInterrupt):
                    raise
                code = "raised %r" % err
            out.call_done(time.perf_counter_ns() - start)
            runs.append((call, code, stdout.getvalue(), stderr.getvalue()))
        outputs.append(runs)
        out.end_orbit()
    out.wall_s = time.perf_counter() - t0
    for inst, runs in zip(instances, outputs):
        answers = []
        for call, code, text, err in runs:
            out.report_bytes += len(text.encode())
            out.digest.update(("%s\t%s\t%s\n%s" % (inst["id"], " ".join(call), code, text)).encode())
            answers.append(_check_cli(inst, call, code, text, err, out))
        out.answer(inst, [" ".join(call) for call, _, _, _ in runs], answers)


def _check_cli(inst, call, code, text, err, out):
    """Check one CLI call; returns its answer in a canonical form."""
    name = " ".join(call)
    if code != 0:
        out.fail(inst, name, "exit %s: %s" % (code, err.strip()[:200]))
        return "exit %s" % code
    try:
        report = json.loads(text)
    except ValueError:
        out.fail(inst, name, "stdout is not JSON")
        return text
    if call[0] == "zelevinsky":
        d = sum(inst["input"]["dy"]) + sum(inst["input"]["dx"])
        if report.get("codim") != inst["codim"] or sorted(report.get("v", [])) != list(range(1, d + 1)):
            out.fail(inst, name, "wrong permutation or codimension")
        return json.dumps(report, sort_keys=True)
    checks = [row.get("checks", {}) for row in report.get("instances", [])]
    if report.get("ok") is not True or report.get("counts", {}).get("fail") != 0:
        out.fail(inst, name, 'report has "ok": false')
    elif not checks or any("skipped" in value for c in checks for value in c.values()):
        # a capacity refusal reads "pass (... skipped: capacity)" or "skipped: ..."
        out.fail(inst, name, "a check was skipped for capacity")
    return json.dumps(checks, sort_keys=True)


def run_pass(workload, instances, directory, tracer=None, reference=None):
    out = Pass(reference)
    if workload.routes:
        _run_routes(workload, instances, tracer, out)
    else:
        _run_cli(instances, directory, tracer, out)
    return out


def calls_per_orbit(workload):
    return len(workload.routes) or len(CLI_CALLS)
