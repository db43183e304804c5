"""Tests of the benchmark itself: generator, tracing, metric names, failure count.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from checkout import ROOT
from qloci import cli, factorization, formulas, pipedreams, quiver
from qloci.perms import Perm
from qloci.poly import LaurentPoly

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _few(name, count, seed=3):
    return workloads.generate(workloads.WORKLOADS[name], seed)[:count]


@pytest.mark.parametrize("name", ["verify_cli", "invariants_small"])
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    w = workloads.WORKLOADS[name]
    first, second = workloads.generate(w, 7), workloads.generate(w, 7)
    assert first == second
    workloads.write_inputs(first, tmp_path / "a")
    workloads.write_inputs(second, tmp_path / "b")
    assert (tmp_path / "a" / "instances.jsonl").read_bytes() == (
        tmp_path / "b" / "instances.jsonl"
    ).read_bytes()
    other = workloads.generate(w, 8)
    assert other != first
    # every seed measures the same orbits, in its own order
    assert sorted(map(workloads.orbit_key, other)) == sorted(map(workloads.orbit_key, first))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_benchmark_json_states_each_instance_count_and_codim_cap(name):
    w = workloads.WORKLOADS[name]
    why = {x["name"]: x["why"] for x in run.definitions()["workloads"]}[name]
    assert "%d orbits" % len(workloads.generate(w, 0)) in why
    assert "codim" in why and str(w.codim_cap) in why


def test_cli_population_stays_within_the_verify_budgets():
    w = workloads.WORKLOADS["verify_cli"]
    quivers = {(q.dy, q.dx) for q, _, _ in workloads.population(w)}
    assert quivers
    assert ((2, 2, 2), (2, 2)) not in quivers  # 331776 window tuples
    for dy, dx in quivers:
        q = quiver.BipartiteQuiver(dy, dx)
        assert workloads.window_tuples(q) <= factorization.TUPLE_LIMIT
        assert workloads.free_cells(q) <= pipedreams.DEFAULT_CAPACITY


def test_large_sample_always_holds_the_running_example():
    w = workloads.WORKLOADS["invariants_large"]
    for seed in (1, 2):
        assert sum(workloads._is_running_example(i) for i in workloads.generate(w, seed)) == 1


def _outputs():
    q = quiver.BipartiteQuiver((1, 3, 2), (2, 3))
    orbit = quiver.OrbitData(q, {("y2", "y0"): 1, ("y2", "y1"): 1, ("x2", "x1"): 1})
    small = quiver.BipartiteQuiver((1, 2), (2,))
    dense = quiver.OrbitData(small, {("y1", "y0"): 1, ("y1", "x1"): 1})
    return [
        str(formulas.multidegree_pipe(q, orbit)),
        str(formulas.multidegree_component(q, orbit)),
        str(formulas.kpoly_pipe(small, dense)),
        str(formulas.kpoly_component(small, dense)),
    ]


def _cli_report(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"n": 1, "dy": [1, 2], "dx": [2],
                                "orbit": {"multiplicities": {"y1,y0": 1, "y1,x1": 1}}}))
    assert cli.main(["verify", "--suite", "bijections", "--input", str(path)]) == 0
    return capsys.readouterr().out


def test_wrapping_leaves_results_unchanged_and_is_undone(tmp_path, capsys):
    originals = {
        "formulas.enum_rpipes": formulas.enum_rpipes,
        "pipedreams.enum_rpipes": pipedreams.enum_rpipes,
        "quiver.zelevinsky": quiver.zelevinsky,
        "cli.main": cli.main,
        "mul": vars(LaurentPoly)["__mul__"],
        "rmul": vars(LaurentPoly)["__rmul__"],
        "sum": vars(LaurentPoly)["sum"],
        "from_word": vars(Perm)["from_word"],
    }
    before, report = _outputs(), _cli_report(tmp_path, capsys)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert formulas.enum_rpipes is not originals["formulas.enum_rpipes"]
        assert vars(LaurentPoly)["__mul__"] is vars(LaurentPoly)["__rmul__"]
        during, traced_report = _outputs(), _cli_report(tmp_path, capsys)
    finally:
        tracer.uninstall()
    assert during == before and traced_report == report
    assert {
        "formulas.enum_rpipes": formulas.enum_rpipes,
        "pipedreams.enum_rpipes": pipedreams.enum_rpipes,
        "quiver.zelevinsky": quiver.zelevinsky,
        "cli.main": cli.main,
        "mul": vars(LaurentPoly)["__mul__"],
        "rmul": vars(LaurentPoly)["__rmul__"],
        "sum": vars(LaurentPoly)["sum"],
        "from_word": vars(Perm)["from_word"],
    } == originals
    modules = {name.split(".")[0] for name in tracer.stats if tracer.stats[name][0]}
    assert modules == set(tracing.MODULES)
    # self times add up to the time spent under the outermost spans
    roots = sum(e - s for _, _, s, e, parent, _ in tracer.spans if parent == 0)
    assert tracer.dropped == 0
    assert sum(s[1] for s in tracer.stats.values()) == roots


def test_every_metric_is_named_with_a_unit():
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    for m in data["end_to_end"] + data["per_layer"]:
        assert NAME.match(m["name"]) and len(m["name"]) <= 64, m
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in data["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in data["end_to_end"])} in data["end_to_end"]
    assert [w["name"] for w in data["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in data["workloads"])


def test_layer_metrics_fill_every_per_layer_name():
    per_layer = run.definitions()["per_layer"]
    def timed(total_ns, slowdown=1):
        return {"orbit_ns": [total_ns], "orbit_probe_ns": [slowdown * workloads.PROBE_REFERENCE_NS]}

    traced = [dict(timed(t), layers={"poly.mul.calls": 4}, report_bytes=10) for t in (2, 4)]
    # untraced passes: 1 and 2 units, the second measured while the host ran at half speed
    untraced = [timed(1), timed(4, slowdown=2)]
    out = run.layer_metrics(traced, untraced, per_layer)
    assert list(out) == [m["name"] for m in per_layer]
    assert out["trace.overhead_frac"]["value"] == 1.0
    assert out["poly.mul.calls"]["value"] == 4


def test_host_correction_takes_out_the_host_speed():
    ref = workloads.PROBE_REFERENCE_NS
    fast = {"latencies_ns": [10, 30], "call_probe_ns": [ref, ref],
            "orbit_ns": [40], "orbit_probe_ns": [ref], "peak_rss_kb": 1024}
    slow = {"latencies_ns": [20, 60], "call_probe_ns": [2 * ref, 2 * ref],
            "orbit_ns": [80], "orbit_probe_ns": [2 * ref], "peak_rss_kb": 1024}
    passes = [fast, slow, slow]
    assert run.scaled_times(passes, "latencies_ns", "call_probe_ns") == pytest.approx([1e-8, 3e-8])
    assert run.pass_metrics(passes, 50)["orbits_per_s"] == pytest.approx(1e9 / 40)
    as_measured = run.pass_metrics(passes, 50, scaled=False)
    assert as_measured["orbits_per_s"] == pytest.approx(3e9 / 200)


def test_the_probe_runs_around_every_call(tmp_path):
    w, instances, reference = _reference_pass("invariants_large", 2, tmp_path)
    done = workloads.run_pass(w, instances, tmp_path, reference=reference).summary()
    assert len(done["call_probe_ns"]) == len(done["latencies_ns"]) == 4
    assert len(done["orbit_probe_ns"]) == len(done["orbit_ns"]) == 2
    assert min(done["call_probe_ns"]) > 0
    # an orbit's time is its calls and its parsing, without the probes
    assert done["orbit_ns"][0] >= sum(done["latencies_ns"][:2])


def _reference_pass(name, count, tmp_path):
    w = workloads.WORKLOADS[name]
    instances = [i for i in _few(name, 40) if i["codim"] >= 1][:count]
    workloads.write_inputs(instances, tmp_path)
    return w, instances, workloads.load_reference(w)


def test_a_wrong_route_result_is_a_failed_call(tmp_path, monkeypatch):
    w, instances, reference = _reference_pass("invariants_small", 3, tmp_path)
    honest = workloads.run_pass(w, instances, tmp_path, reference=reference).summary()
    assert run.tally([honest], 4 * len(instances)) == (4 * len(instances), 0)

    real = formulas.kpoly_component
    monkeypatch.setattr(formulas, "kpoly_component",
                        lambda q, o: real(q, o) + LaurentPoly.one())
    wrong = workloads.run_pass(w, instances, tmp_path, reference=reference).summary()
    attempted, failed = run.tally([wrong], 4 * len(instances))
    assert failed / attempted > 0
    assert failed == 2 * len(instances)
    assert wrong["digest"] != honest["digest"]


def test_routes_that_drift_together_fail_against_the_reference(tmp_path, monkeypatch):
    w, instances, reference = _reference_pass("invariants_small", 3, tmp_path)
    for route in ("kpoly_pipe", "kpoly_component"):
        real = getattr(formulas, route)
        monkeypatch.setattr(formulas, route,
                            lambda q, o, real=real: real(q, o) + LaurentPoly.one())
    drifted = workloads.run_pass(w, instances, tmp_path, reference=reference).summary()
    assert run.tally([drifted], 4 * len(instances))[1] == 2 * len(instances)
    assert {reason for _, _, reason in drifted["failures"]} == {"answer differs from the reference"}


def test_an_orbit_without_a_reference_answer_fails(tmp_path):
    w, instances, reference = _reference_pass("invariants_large", 1, tmp_path)
    del reference[workloads.orbit_key(instances[0])]
    done = workloads.run_pass(w, instances, tmp_path, reference=reference).summary()
    assert run.tally([done], 2) == (2, 2)


def test_a_failing_cli_call_is_a_failed_call(tmp_path, monkeypatch):
    w, instances, reference = _reference_pass("verify_cli", 2, tmp_path)
    honest = workloads.run_pass(w, instances, tmp_path, reference=reference).summary()
    assert honest["failures"] == []
    monkeypatch.setitem(cli._CHECKS, "pipe", lambda q, o: "fail: injected")
    done = workloads.run_pass(w, instances, tmp_path, reference=reference).summary()
    assert run.tally([done], 3 * len(instances)) == (3 * len(instances), len(instances))
    assert all(call == "verify --suite pipe --jobs 1" for _, call, _ in done["failures"])


def _refuse(*args, **kwargs):
    raise pipedreams.CapacityError("refused")


@pytest.mark.parametrize("suite, patch", [
    ("pipe", ("env", pipedreams.CAPACITY_ENV, "0")),
    ("bijections", ("attr", cli, "x_omega_by_factorization", _refuse)),
])
def test_a_capacity_refusal_is_a_failed_call(suite, patch, tmp_path, monkeypatch):
    w, instances, _ = _reference_pass("verify_cli", 2, tmp_path)
    if patch[0] == "env":
        monkeypatch.setenv(*patch[1:])
    else:
        monkeypatch.setattr(*patch[1:])
    done = workloads.run_pass(w, instances, tmp_path).summary()
    assert run.tally([done], 3 * len(instances)) == (3 * len(instances), len(instances))
    assert {(call, reason) for _, call, reason in done["failures"]} == {
        ("verify --suite %s --jobs 1" % suite, "a check was skipped for capacity")}


@pytest.mark.parametrize("calls", [60, 122, 117, 1872, 5000])
def test_tail_percentile_leaves_ten_calls_beyond(calls):
    p = run.tail_percentile(calls)
    assert calls - -(-p * calls // 100) >= 10


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
