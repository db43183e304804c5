"""Quiver layer: block layout, orbits, Zelevinsky permutations."""

import doctest
import itertools

import pytest

from qloci import quiver as quiver_mod
from qloci.factorization import window_grids
from qloci.perms import PartialPermutation, Perm
from qloci.pipedreams import PipeDream, enum_pipes, enum_rpipes
from qloci.poly import s_var, t_var
from qloci.quiver import (
    BipartiteQuiver,
    OrbitData,
    OrbitError,
    block_layout,
    codim,
    orbit_from_lacing,
    p_star_dream,
    quiver_from_json,
    v_star,
    zelevinsky,
)

from conftest import (
    P_STAR,
    P_STAR_CELLS,
    RUN_DX,
    RUN_DY,
    RUN_LACES,
    RUN_V_OMEGA,
    RUN_V_STAR,
    RUN_W_K3,
    RUN_W_K5,
    RUN_W_MIN,
    SNAKE_CELLS,
)

TINY = BipartiteQuiver((1, 1), (1,))
SMALL_QUIVERS = [
    BipartiteQuiver(dy, dx)
    for n in (1, 2)
    for dy in itertools.product((1, 2), repeat=n + 1)
    for dx in itertools.product((1, 2), repeat=n)
]


def test_doctests():
    failed, _ = doctest.testmod(quiver_mod)
    assert failed == 0


def test_quiver_validation():
    with pytest.raises(ValueError):
        BipartiteQuiver((1, 1), ())
    with pytest.raises(ValueError):
        BipartiteQuiver((1,), (1,))
    with pytest.raises(ValueError):
        BipartiteQuiver((1, -1), (1,))


def test_drawing_order(run_quiver):
    assert run_quiver.vertices() == ("y2", "x2", "y1", "x1", "y0")
    assert [run_quiver.position(z) for z in run_quiver.vertices()] == [0, 1, 2, 3, 4]
    assert run_quiver.dim("y1") == 3
    assert run_quiver.dim("x2") == 3


# --- block layout ------------------------------------------------------


def test_block_layout_running_example(run_quiver):
    L = block_layout(run_quiver)
    assert run_quiver.d == 11
    assert L.rows == {
        "y0": (1, 1), "y1": (2, 4), "y2": (5, 6), "x2": (7, 9), "x1": (10, 11)
    }
    assert L.cols == {
        "x2": (1, 3), "x1": (4, 5), "y0": (6, 6), "y1": (7, 9), "y2": (10, 11)
    }
    assert L.snake == SNAKE_CELLS
    assert L.p_star == P_STAR_CELLS
    # beta_2, alpha_2, beta_1, alpha_1
    assert L.windows == (
        ((5, 6), (1, 2, 3)),
        ((2, 3, 4), (1, 2, 3)),
        ((2, 3, 4), (4, 5)),
        ((1,), (4, 5)),
    )


def test_block_layout_tiny():
    L = block_layout(TINY)
    assert sorted(L.snake) == [(1, 1), (2, 1)]
    assert L.p_star == frozenset()


def test_block_layout_zero_dim():
    Q = BipartiteQuiver((0, 1), (1,))
    L = block_layout(Q)
    assert L.rows["y0"] == (1, 0)
    assert sorted(L.snake) == [(1, 1)]


def test_variable_labels(run_quiver):
    L = block_layout(run_quiver)
    assert L.row_var(1) == t_var(0, 1)
    assert L.row_var(2) == t_var(1, 1)
    assert L.row_var(4) == t_var(1, 3)
    assert L.row_var(7) == s_var(2, 1)
    assert L.row_var(10) == s_var(1, 1)
    assert L.col_var(1) == s_var(2, 1)
    assert L.col_var(4) == s_var(1, 1)
    assert L.col_var(6) == t_var(0, 1)
    assert L.col_var(11) == t_var(2, 2)
    with pytest.raises(ValueError):
        L.row_var(12)
    with pytest.raises(ValueError):
        L.col_var(0)


def _scanned_var(order, blocks, i):
    """The variable of row or column i, found by scanning the blocks in order."""
    for z in order:
        lo, hi = blocks[z]
        if lo <= i <= hi:
            return (t_var if z[0] == "y" else s_var)(int(z[1:]), i - lo + 1)
    raise AssertionError("%d is off the grid" % i)


def test_layout_is_built_once_and_matches_a_block_scan(run_quiver):
    for quiver in SMALL_QUIVERS + [run_quiver]:
        L = block_layout(quiver)
        assert block_layout(quiver) is L
        span = range(1, quiver.d + 1)
        assert L.row_vars == tuple(_scanned_var(L.row_order, L.rows, r) for r in span)
        assert L.col_vars == tuple(_scanned_var(L.col_order, L.cols, c) for c in span)
        blocks, grids = [], []
        for k in range(quiver.n, 0, -1):
            for source in ("y%d" % k, "y%d" % (k - 1)):
                (rlo, rhi), (clo, chi) = L.rows[source], L.cols["x%d" % k]
                blocks.append((tuple(range(rlo, rhi + 1)), tuple(range(clo, chi + 1))))
                grids.append((quiver.dim(source), quiver.dim("x%d" % k)))
        assert L.windows == tuple(blocks)
        assert window_grids(quiver) == grids
        assert L.p_star_dream == PipeDream(quiver.d_y, quiver.d_x, L.p_star)
        assert L.v_star == L.p_star_dream.demazure() == v_star(quiver)


# --- orbits ------------------------------------------------------------


def relabeled_min_diagram():
    # renumber the first two y_1 dots; the laces are untouched
    w2, a2, w1, a1 = RUN_W_MIN
    swap = lambda m: PartialPermutation([m.matrix[1], m.matrix[0], m.matrix[2]])
    return (w2, swap(a2), swap(w1), a1)


def test_orbit_from_lacing_running_example(run_quiver):
    orbit = orbit_from_lacing(run_quiver, RUN_W_MIN)
    assert orbit.laces == RUN_LACES
    assert orbit_from_lacing(run_quiver, relabeled_min_diagram()) == orbit
    # the crossing-enriched diagrams tie their dots into different laces
    alt = {("y2", "x1"): 1, ("y2", "y1"): 1, ("x2", "y0"): 1}
    assert orbit_from_lacing(run_quiver, RUN_W_K3).laces == alt
    assert orbit_from_lacing(run_quiver, RUN_W_K5).laces == alt


def test_orbit_from_zero_diagram(run_quiver):
    mats = []
    for k in (2, 1):
        mats.append(PartialPermutation.zero(RUN_DY[k], RUN_DX[k - 1]))
        mats.append(PartialPermutation.zero(RUN_DY[k - 1], RUN_DX[k - 1]))
    orbit = orbit_from_lacing(run_quiver, mats)
    assert orbit.laces == {
        ("y0", "y0"): 1, ("y1", "y1"): 3, ("y2", "y2"): 2,
        ("x1", "x1"): 2, ("x2", "x2"): 3,
    }


def test_orbit_validation(run_quiver):
    with pytest.raises(OrbitError):
        OrbitData(run_quiver, {("y2", "y0"): 1})
    with pytest.raises(OrbitError):
        OrbitData(run_quiver, {**RUN_LACES, ("x1", "x2"): 1})
    with pytest.raises(OrbitError):
        OrbitData(run_quiver, {("y2", "y0"): -1})
    with pytest.raises(ValueError):
        orbit_from_lacing(run_quiver, RUN_W_MIN[:2])


# --- Zelevinsky permutations -------------------------------------------


def test_zelevinsky_running_example(run_quiver, run_orbit):
    assert zelevinsky(run_quiver, run_orbit) == RUN_V_OMEGA
    assert RUN_V_OMEGA.length() == 9
    assert codim(run_quiver, run_orbit) == 2


def test_zelevinsky_same_for_all_diagrams_in_orbit(run_quiver, run_orbit):
    for w in (RUN_W_MIN, relabeled_min_diagram()):
        assert zelevinsky(run_quiver, orbit_from_lacing(run_quiver, w)) == RUN_V_OMEGA


def test_v_star_running_example(run_quiver):
    v = v_star(run_quiver)
    assert v == RUN_V_STAR
    assert v.length() == 7
    assert p_star_dream(run_quiver) == P_STAR


def test_tiny_quiver_orbits():
    dense = OrbitData(TINY, {("y1", "y0"): 1})
    assert zelevinsky(TINY, dense) == Perm.identity()
    assert v_star(TINY) == Perm.identity()
    assert codim(TINY, dense) == 0
    zero = OrbitData(TINY, {("y1", "y1"): 1, ("x1", "x1"): 1, ("y0", "y0"): 1})
    twin = OrbitData(TINY, dict(zero.laces))
    before = hash(zero)
    v = zelevinsky(TINY, zero)
    assert v == Perm((2, 3, 1))
    assert codim(TINY, zero) == 2
    # the orbit keeps v; an equal quiver object reads it, another quiver may not
    assert zelevinsky(BipartiteQuiver((1, 1), (1,)), zero) is v
    assert hash(zero) == before == hash(twin) and zero == twin
    with pytest.raises(OrbitError):
        zelevinsky(BipartiteQuiver((1, 1), (2,)), zero)


def test_dense_orbit_dream_is_unique(run_quiver):
    # the only northwest dream with product v_* is the snake complement
    L = block_layout(run_quiver)
    dreams = enum_pipes(RUN_V_STAR, 6, 5)
    assert dreams == [P_STAR]
    assert L.p_star == P_STAR.crosses


def test_every_northwest_dream_contains_p_star(run_quiver):
    unforced = enum_rpipes(RUN_V_OMEGA, 6, 5)
    forced = enum_rpipes(RUN_V_OMEGA, 6, 5, forced=P_STAR_CELLS)
    assert unforced == forced
    assert all(P_STAR_CELLS <= P.crosses for P in unforced)
    unforced_p = enum_pipes(RUN_V_OMEGA, 6, 5)
    forced_p = enum_pipes(RUN_V_OMEGA, 6, 5, forced=P_STAR_CELLS)
    assert unforced_p == forced_p
    assert len(unforced) == 15
    assert len(unforced_p) == 129


# --- JSON input --------------------------------------------------------


def test_json_multiplicities(run_quiver, run_orbit):
    obj = {
        "n": 2, "dy": [1, 3, 2], "dx": [2, 3],
        "orbit": {"multiplicities": {"y2,y0": 1, "y2, y1": 1, "x2,x1": 1}},
    }
    Q, orbit = quiver_from_json(obj)
    assert Q == run_quiver
    assert orbit == run_orbit


def test_json_lacing(run_quiver, run_orbit):
    obj = {
        "n": 2, "dy": [1, 3, 2], "dx": [2, 3],
        "orbit": {"lacing": [[list(row) for row in w.matrix] for w in RUN_W_MIN]},
    }
    Q, orbit = quiver_from_json(obj)
    assert (Q, orbit) == (run_quiver, run_orbit)


def test_json_errors():
    with pytest.raises(ValueError):
        quiver_from_json({"n": 1, "dy": [1, 1], "dx": [1]})
    with pytest.raises(ValueError):
        quiver_from_json({"n": 2, "dy": [1, 1], "dx": [1]})
    with pytest.raises(ValueError):
        quiver_from_json({"n": "x", "dy": [1, 1], "dx": [1], "orbit": {}})
    with pytest.raises(ValueError):
        quiver_from_json(
            {"n": 1, "dy": [1, 1], "dx": [1], "orbit": {"wrong": 1}}
        )
