"""Front end: output contracts, exit codes, determinism."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import P_STAR_CELLS, RUN_W_MIN
import pytest

import qloci
from qloci import cli, pipedreams
from qloci.cli import main

RUN_INPUT = {
    "n": 2,
    "dy": [1, 3, 2],
    "dx": [2, 3],
    "orbit": {"multiplicities": {"y2,y0": 1, "y2,y1": 1, "x2,x1": 1}},
}
RUN_DENSE_INPUT = {
    "n": 2,
    "dy": [1, 3, 2],
    "dx": [2, 3],
    "orbit": {"multiplicities": {"y2,x1": 1, "y2,y0": 1, "x2,y1": 1}},
}
TINY_LACING_INPUT = {
    "n": 1,
    "dy": [1, 1],
    "dx": [1],
    "orbit": {"lacing": [[[1]], [[0]]]},
}

RUN_LINE = "(4,1,2,3,6,7,5,10,11,8,9), len=9, codim=2"


def _write(tmp_path, obj, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


# --- zelevinsky --------------------------------------------------------


def test_zelevinsky_running_example(tmp_path, capsys):
    code, out = _run(capsys, ["zelevinsky", "--input", _write(tmp_path, RUN_INPUT)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == RUN_LINE
    assert lines[1] == "v_* = (4,1,2,3,5,6,7,10,11,8,9), len=7"
    matrix = lines[2:]
    assert sum(row.count("1") for row in matrix) == 11


def test_zelevinsky_json(tmp_path, capsys):
    code, out = _run(
        capsys,
        ["zelevinsky", "--input", _write(tmp_path, RUN_INPUT), "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["v"] == [4, 1, 2, 3, 6, 7, 5, 10, 11, 8, 9]
    assert data["length"] == 9
    assert data["length_star"] == 7
    assert data["codim"] == 2


def test_zelevinsky_dense_orbit_has_codim_zero(tmp_path, capsys):
    code, out = _run(
        capsys, ["zelevinsky", "--input", _write(tmp_path, RUN_DENSE_INPUT)]
    )
    assert code == 0
    assert out.splitlines()[0].endswith("codim=0")


# --- invariant ---------------------------------------------------------


def test_invariant_both_routes_agree(tmp_path, capsys):
    path = _write(tmp_path, RUN_INPUT)
    for kind in ("multidegree", "kpolynomial"):
        code, out = _run(capsys, ["invariant", "--input", path, "--type", kind])
        assert code == 0
        assert out.splitlines()[-1] == "EQUAL"


def test_invariant_dense_orbit_is_one(tmp_path, capsys):
    code, out = _run(
        capsys,
        [
            "invariant",
            "--input",
            _write(tmp_path, RUN_DENSE_INPUT),
            "--type",
            "multidegree",
            "--method",
            "pipe",
        ],
    )
    assert code == 0
    assert out.strip() == "1"


def test_invariant_json_fields(tmp_path, capsys):
    code, out = _run(
        capsys,
        [
            "invariant",
            "--input",
            _write(tmp_path, RUN_INPUT),
            "--type",
            "multidegree",
            "--format",
            "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["pipe"] == data["component"]
    assert "t0_1" in data["pipe"]


# --- enumerate ---------------------------------------------------------


def test_enumerate_counts_and_membership(tmp_path, capsys):
    path = _write(tmp_path, RUN_INPUT)
    counts = {}
    items = {}
    for which in ("rpipes", "pipes", "wmin", "kw", "xomega"):
        code, out = _run(
            capsys,
            ["enumerate", "--input", path, "--set", which, "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        counts[which] = data["count"]
        items[which] = data["items"]
        assert len(data["items"]) == data["count"]
    assert counts["rpipes"] == 15
    assert counts["pipes"] == 129
    assert counts["xomega"] == counts["kw"]
    min_diagram = [[list(row) for row in u.matrix] for u in RUN_W_MIN]
    assert min_diagram in items["wmin"]
    assert all(row in items["kw"] for row in items["wmin"])


def test_enumerate_text_listing_is_sorted(tmp_path, capsys):
    code, out = _run(
        capsys,
        [
            "enumerate",
            "--input",
            _write(tmp_path, RUN_INPUT),
            "--set",
            "rpipes",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count: 15"
    assert len(lines) == 16
    assert lines[1:] == sorted(lines[1:], key=json.loads)


def test_enumerate_pipes_of_dense_orbit_is_forced_dream_only(tmp_path, capsys):
    code, out = _run(
        capsys,
        [
            "enumerate",
            "--input",
            _write(tmp_path, RUN_DENSE_INPUT),
            "--set",
            "pipes",
            "--format",
            "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["items"] == [[list(cell) for cell in sorted(P_STAR_CELLS)]]


# --- verify ------------------------------------------------------------


def test_verify_running_example_all_suites(tmp_path, capsys):
    code, out = _run(
        capsys, ["verify", "--input", _write(tmp_path, RUN_INPUT), "--suite", "all"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    # the pipe check passes whole; the factorization filter and the ratio
    # certificate are refused for capacity
    assert report["counts"] == {"pass": 3, "fail": 0, "skipped": 2}
    checks = report["instances"][0]["checks"]
    assert checks["codim"] == "pass"
    assert checks["component"] == "pass"
    assert checks["ratio"] == "skipped: capacity"


def test_verify_sweep_of_one_dimensional_quivers(capsys):
    code, out = _run(
        capsys, ["verify", "--max-n", "1", "--max-dim", "1", "--suite", "all"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["counts"]["skipped"] == 0
    assert len(report["instances"]) == 4
    for row in report["instances"]:
        assert set(row["checks"].values()) == {"pass"}


def test_verify_reports_are_identical_across_jobs(capsys):
    argv = ["verify", "--max-n", "1", "--max-dim", "1"]
    code1, out1 = _run(capsys, argv + ["--jobs", "1"])
    code2, out2 = _run(capsys, argv + ["--jobs", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


FORK_INPUT = {
    "n": 1,
    "dy": [1, 2],
    "dx": [2],
    "orbit": {"multiplicities": {"y1,y0": 1, "y1,x1": 1}},
}


def _one_more_dream(u, rows, cols, **kw):
    return [None] + pipedreams.enum_pipes(u, rows, cols, **kw)


@pytest.mark.parametrize(
    "name, fake, reason",
    [
        ("enum_W", lambda q, o: frozenset(), "reduced fibers miss some minimal diagrams"),
        ("enum_pipes", _one_more_dream, "window counting identity is off"),
        ("enum_KW", lambda q, o: frozenset(),
         "truncation is not a bijection onto the K-diagrams"),
        ("truncate", lambda q, tup: tup, "truncation is not a bijection onto the K-diagrams"),
        ("seqperm_closure", lambda q, seeds: frozenset(),
         "move closure misses part of the window set"),
        ("x_omega_by_factorization", lambda q, o: frozenset(),
         "factorization filter disagrees"),
    ],
    ids=["fibers", "window-count", "kw", "truncate", "move-closure", "brute-filter"],
)
def test_every_bijection_comparison_can_fail(tmp_path, capsys, monkeypatch, name, fake, reason):
    argv = ["verify", "--suite", "bijections", "--input", _write(tmp_path, FORK_INPUT)]
    code, out = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["instances"][0]["checks"] == {"bijections": "pass"}
    monkeypatch.setattr(cli, name, fake)
    code, out = _run(capsys, argv)
    assert code == 4
    assert json.loads(out)["instances"][0]["checks"] == {"bijections": "fail: " + reason}


# --- render ------------------------------------------------------------


def test_render_forced_dream_when_no_lacing_given(tmp_path, capsys):
    code, out = _run(capsys, ["render", "--input", _write(tmp_path, RUN_INPUT)])
    assert code == 0
    assert out == "+++..\n.....\n.....\n.....\n...++\n...++\n"


def test_render_given_lacing_diagram(tmp_path, capsys):
    path = _write(tmp_path, TINY_LACING_INPUT)
    code, out = _run(capsys, ["render", "--input", path])
    assert code == 0
    assert "o" in out and "y1" in out and "x1" in out
    code, out = _run(capsys, ["render", "--input", path, "--format", "svg"])
    assert code == 0
    assert out.startswith("<svg")
    code, out = _run(capsys, ["render", "--input", path, "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"lacing": [[[1]], [[0]]]}


# --- input validation and exit codes ----------------------------------


def test_orbit_given_both_ways_must_agree(tmp_path, capsys):
    agreeing = dict(TINY_LACING_INPUT)
    agreeing["orbit"] = {
        "lacing": [[[1]], [[0]]],
        "multiplicities": {"y1,x1": 1, "y0,y0": 1},
    }
    code, _ = _run(capsys, ["zelevinsky", "--input", _write(tmp_path, agreeing)])
    assert code == 0
    clashing = dict(TINY_LACING_INPUT)
    clashing["orbit"] = {
        "lacing": [[[1]], [[0]]],
        "multiplicities": {"y1,y0": 1},
    }
    code, _ = _run(
        capsys, ["zelevinsky", "--input", _write(tmp_path, clashing, "c.json")]
    )
    assert code == 2


def test_invalid_inputs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["zelevinsky", "--input", str(bad)]) == 2
    capsys.readouterr()
    missing = dict(RUN_INPUT)
    del missing["orbit"]
    assert main(["zelevinsky", "--input", _write(tmp_path, missing)]) == 2
    capsys.readouterr()
    short = dict(RUN_INPUT, dx=[2])
    assert main(["zelevinsky", "--input", _write(tmp_path, short, "s.json")]) == 2
    capsys.readouterr()


def _tiny(**orbit):
    return dict(TINY_LACING_INPUT, orbit=orbit)


@pytest.mark.parametrize("command", ["zelevinsky", "render"])
@pytest.mark.parametrize(
    "bad",
    [
        _tiny(multiplicities={"y1": 1}),
        _tiny(lacing=5),
        _tiny(lacing=[5, [[0]]]),
        _tiny(multiplicities=[1]),
        _tiny(multiplicities={"q1,y0": 1}),
        _tiny(multiplicities={"q1,q0": 1}),
        _tiny(multiplicities={"y1,x0": 1}),
        dict(TINY_LACING_INPUT, dy="11"),
        _tiny(multiplicities={"y1,y0": 1.7}),
        dict(TINY_LACING_INPUT, n=1.5),
        dict(TINY_LACING_INPUT, n=True),
        dict(TINY_LACING_INPUT, dy=[1.9, 1]),
        dict(TINY_LACING_INPUT, dx=[1.0]),
    ],
    ids=["no-comma", "lacing-int", "matrix-int", "multiplicities-list",
         "family-q", "families-q", "vertex-x0", "dy-string",
         "multiplicity-float", "n-float", "n-true", "dy-float", "dx-float"],
)
def test_malformed_input_exits_2(tmp_path, capsys, command, bad):
    code = main([command, "--input", _write(tmp_path, bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid input" in err and "Traceback" not in err


def test_unsaturated_orbit_exits_2(tmp_path, capsys):
    undersized = dict(RUN_INPUT)
    undersized["orbit"] = {"multiplicities": {"y2,y0": 1}}
    code, _ = _run(
        capsys, ["zelevinsky", "--input", _write(tmp_path, undersized)]
    )
    assert code == 2


def test_capacity_flag_contract(tmp_path, capsys):
    path = _write(tmp_path, RUN_INPUT)
    base = ["enumerate", "--input", path, "--set", "rpipes"]
    assert main(base + ["--capacity", "5"]) == 3
    capsys.readouterr()
    assert main(base + ["--capacity", "40"]) == 2
    capsys.readouterr()
    assert main(base + ["--capacity", "40", "--unsafe-capacity"]) == 0
    capsys.readouterr()


def test_svg_is_for_render_only(tmp_path, capsys):
    path = _write(tmp_path, RUN_INPUT)
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--input", path, "--set", "rpipes", "--format", "svg"])
    assert err.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "first, second",
    [
        (["verify", "--suite", "pipe"], ["verify", "--suite", "codim"]),
        (["enumerate", "--set", "rpipes", "--capacity", "5"], ["enumerate", "--set", "rpipes"]),
        (["zelevinsky", "--format", "json"], ["zelevinsky"]),
    ],
    ids=["suite", "capacity", "format"],
)
def test_the_kept_parser_carries_nothing_between_calls(
    tmp_path, capsys, monkeypatch, first, second
):
    monkeypatch.delenv(pipedreams.CAPACITY_ENV, raising=False)
    path = _write(tmp_path, RUN_INPUT)
    calls = [argv + ["--input", path] for argv in (first, second)]
    alone = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        alone.append(_run(capsys, argv))
    monkeypatch.setattr(cli, "_parser", None)
    in_turn = [_run(capsys, argv) for argv in calls]
    assert in_turn == alone
    assert pipedreams.CAPACITY_ENV not in os.environ
    if "--capacity" in first:
        assert [code for code, _ in in_turn] == [3, 0]


def test_a_warm_call_leaves_no_argparse_objects_to_the_collector(tmp_path, capsys):
    argvs = [
        ["zelevinsky", "--format", "json"],
        ["verify", "--suite", "pipe"],
        ["verify", "--suite", "bijections"],
    ]
    path = _write(tmp_path, FORK_INPUT)
    for argv in argvs:
        main(argv + ["--input", path])
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in argvs:
            main(argv + ["--input", path])
        gc.collect()
        left = [o for o in gc.garbage if "argparse" in (
            type(o).__module__, getattr(o, "__module__", None))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert left == []


def _child_env():
    """This process's environment, with the imported qloci's src first on PYTHONPATH.

    pytest's `pythonpath` setting reaches only its own process, not a child.
    """
    src = str(Path(qloci.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def test_console_entry_point_subprocess(tmp_path):
    path = _write(tmp_path, RUN_INPUT)
    proc = subprocess.run(
        [sys.executable, "-m", "qloci.cli", "zelevinsky", "--input", path],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == RUN_LINE
    piped = subprocess.run(
        [sys.executable, "-m", "qloci.cli", "zelevinsky", "--input", "-"],
        input=json.dumps(RUN_INPUT),
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert piped.returncode == 0
    assert piped.stdout.splitlines()[0] == RUN_LINE


def test_import_loads_no_numpy_and_no_process_pool():
    # the process pool is imported only for `verify --jobs` above 1
    probe = (
        "import qloci.cli, sys; "
        "print(sorted({'numpy', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
