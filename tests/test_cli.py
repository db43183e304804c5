"""Front end: output contracts, exit codes, determinism."""

import json
import subprocess
import sys

from conftest import P_STAR_CELLS, RUN_W_MIN
import pytest

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


def test_console_entry_point_subprocess(tmp_path):
    path = _write(tmp_path, RUN_INPUT)
    proc = subprocess.run(
        [sys.executable, "-m", "qloci.cli", "zelevinsky", "--input", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == RUN_LINE
    piped = subprocess.run(
        [sys.executable, "-m", "qloci.cli", "zelevinsky", "--input", "-"],
        input=json.dumps(RUN_INPUT),
        capture_output=True,
        text=True,
    )
    assert piped.returncode == 0
    assert piped.stdout.splitlines()[0] == RUN_LINE
