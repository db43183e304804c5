"""Lacing diagrams: completion, crossings, minimality, moves, W and KW."""

import doctest
import itertools
import logging

from conftest import (
    P_NONREDUCED,
    P_REDUCED,
    P_STAR,
    RUN_CODIM,
    RUN_V_OMEGA,
    RUN_V_STAR,
    RUN_W_K3,
    RUN_W_K5,
    RUN_W_MIN,
    diagram,
)
import pytest

from qloci import lacing as lacing_mod
from qloci.lacing import (
    all_diagrams,
    all_orbits,
    crossings,
    enum_KW,
    enum_W,
    enum_W_by_filter,
    extend,
    is_minimal,
    mini_dreams,
    pi,
    pipes_to_laces,
    render_ascii,
    render_svg,
    seqperm_neighbors,
    truncate,
)
from qloci.perms import PartialPermutation, Perm, all_perms
from qloci.pipedreams import PipeDream, enum_rpipes
from qloci.quiver import (
    BipartiteQuiver,
    OrbitData,
    OrbitError,
    block_layout,
    orbit_from_lacing,
    zelevinsky,
)

TINY = BipartiteQuiver((1, 1), (1,))
FORK = BipartiteQuiver((1, 2), (2,))          # one part-1 move site
BRIDGE = BipartiteQuiver((1, 2, 1), (1, 1))   # one part-2 move site

# the reduced partner of RUN_W_MIN and the two half-K diagrams between
# RUN_W_K3 and RUN_W_K5
RUN_W_MIN2 = diagram(
    [[1, 0, 0], [0, 1, 0]],
    [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 1], [1, 0], [0, 0]],
    [[0, 1]],
)
RUN_W_INT_A = (RUN_W_K5[0], RUN_W_MIN[1], RUN_W_K3[2], RUN_W_MIN[3])
RUN_W_INT_B = (RUN_W_MIN[0], RUN_W_MIN[1], RUN_W_K5[2], RUN_W_MIN[3])

ID4 = (Perm.identity(),) * 4


def test_doctests():
    failed, _ = doctest.testmod(lacing_mod)
    assert failed == 0


# --- extend / truncate -------------------------------------------------


def test_extend_frozen_values():
    assert extend(RUN_W_MIN) == (
        Perm.identity(), Perm((2, 1, 3)), Perm.identity(), Perm((2, 1)),
    )
    assert extend(RUN_W_K3) == (
        Perm.identity(), Perm((2, 1, 3)), Perm((2, 1, 3)), Perm((2, 1)),
    )
    assert extend(RUN_W_K5) == (
        Perm((1, 3, 2)), Perm((2, 1, 3)), Perm((2, 3, 1)), Perm((2, 1)),
    )


def test_extend_of_all_zero_pair_gives_long_cycles():
    w = (PartialPermutation([[0], [0]]), PartialPermutation([[0, 0]]))
    # 2x1 zero block completes to the 3-cycle pushing both rows past the column
    assert extend(w) == (Perm((2, 3, 1)), Perm((3, 1, 2)))


def test_truncate_inverts_extend_on_frozen_diagrams(run_quiver):
    for w in (RUN_W_MIN, RUN_W_MIN2, RUN_W_K3, RUN_W_K5):
        assert truncate(run_quiver, extend(w)) == w


def test_truncate_inverts_extend_exhaustively():
    for quiver in (TINY, FORK, BRIDGE):
        for w in all_diagrams(quiver):
            assert truncate(quiver, extend(w)) == w


def test_truncate_of_identities_is_the_dense_diagram(run_quiver):
    dense = truncate(run_quiver, ID4)
    assert dense == (
        PartialPermutation([[1, 0, 0], [0, 1, 0]]),
        PartialPermutation([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        PartialPermutation([[1, 0], [0, 1], [0, 0]]),
        PartialPermutation([[0, 1]]),
    )
    assert extend(dense) == ID4
    assert zelevinsky(run_quiver, orbit_from_lacing(run_quiver, dense)) == RUN_V_STAR


def test_truncate_rejects_bad_input(run_quiver):
    with pytest.raises(ValueError):
        truncate(run_quiver, (Perm.identity(),) * 3)
    with pytest.raises(ValueError):
        truncate(TINY, (Perm.tau(2), Perm.identity()))


# --- crossings ---------------------------------------------------------


def test_crossings_frozen_values(run_quiver):
    assert crossings(truncate(run_quiver, ID4)) == 0
    assert crossings(RUN_W_MIN) == 2
    assert crossings(RUN_W_MIN2) == 2
    assert crossings(RUN_W_K3) == 3
    assert crossings(RUN_W_INT_A) == 4
    assert crossings(RUN_W_INT_B) == 4
    assert crossings(RUN_W_K5) == 5


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _cross_properly(s, t):
    (p1, p2), (q1, q2) = s, t
    d1, d2 = _orient(q1, q2, p1), _orient(q1, q2, p2)
    d3, d4 = _orient(p1, p2, q1), _orient(p1, p2, q2)
    return d1 * d2 < 0 and d3 * d4 < 0


def _crossings_by_geometry(w):
    """Count proper segment intersections of the drawn edges."""
    segments = []
    for g, mat in enumerate(w):
        m = mat.rows + mat.cols - mat.rank
        if g % 2 == 0:
            u = mat.complete()
            segments += [((g, p), (g + 1, u(p))) for p in range(1, m + 1)]
        else:
            u = mat.rot().complete()
            segments += [
                ((g, mat.cols + 1 - u(p)), (g + 1, mat.rows + 1 - p))
                for p in range(1, m + 1)
            ]
    return sum(
        _cross_properly(s, t) for s, t in itertools.combinations(segments, 2)
    )


def test_crossings_match_plane_geometry(run_quiver):
    for w in (RUN_W_MIN, RUN_W_MIN2, RUN_W_K3, RUN_W_K5,
              RUN_W_INT_A, RUN_W_INT_B, truncate(run_quiver, ID4)):
        assert crossings(w) == _crossings_by_geometry(w)
    for quiver in (FORK, BRIDGE):
        for w in all_diagrams(quiver):
            assert crossings(w) == _crossings_by_geometry(w)


# --- minimality --------------------------------------------------------


def test_is_minimal_frozen_values(run_quiver):
    assert is_minimal(RUN_W_MIN)
    assert is_minimal(RUN_W_MIN2)
    assert is_minimal(truncate(run_quiver, ID4))
    assert not is_minimal(RUN_W_K3)
    assert not is_minimal(RUN_W_K5)
    assert not is_minimal(RUN_W_INT_A)
    assert not is_minimal(RUN_W_INT_B)


def _assert_minimality_matches_orbit_minimum(quiver):
    groups = {}
    for w in all_diagrams(quiver):
        key = tuple(sorted(orbit_from_lacing(quiver, w).laces.items()))
        groups.setdefault(key, []).append(w)
    for group in groups.values():
        best = min(crossings(w) for w in group)
        for w in group:
            assert is_minimal(w) == (crossings(w) == best), w


def test_is_minimal_equals_orbit_minimum_small():
    _assert_minimality_matches_orbit_minimum(TINY)
    _assert_minimality_matches_orbit_minimum(FORK)
    _assert_minimality_matches_orbit_minimum(BRIDGE)


def test_is_minimal_equals_orbit_minimum_running(run_quiver):
    _assert_minimality_matches_orbit_minimum(run_quiver)


# --- pipe dreams to diagrams ------------------------------------------


def test_mini_dreams_frozen_cells(run_quiver):
    minis = mini_dreams(run_quiver, P_REDUCED)
    assert [sorted(m.crosses) for m in minis] == [[], [(3, 3)], [], [(1, 2)]]
    minis = mini_dreams(run_quiver, P_NONREDUCED)
    assert [sorted(m.crosses) for m in minis] == [
        [(1, 2)], [(3, 3)], [(1, 1), (2, 1)], [(1, 2)],
    ]


def test_mini_dreams_shapes(run_quiver):
    shapes = [(m.rows, m.cols) for m in mini_dreams(run_quiver, P_STAR)]
    assert shapes == [(2, 3), (3, 3), (3, 2), (1, 2)]


def test_mini_dreams_rejects_bad_dreams(run_quiver):
    with pytest.raises(ValueError):
        mini_dreams(run_quiver, PipeDream(5, 5, []))
    with pytest.raises(ValueError):
        mini_dreams(run_quiver, PipeDream(6, 5, []))  # dense cells missing


def test_pipes_to_laces_frozen(run_quiver):
    assert pipes_to_laces(run_quiver, P_REDUCED) == RUN_W_MIN
    assert pipes_to_laces(run_quiver, P_NONREDUCED) == RUN_W_K5
    assert pipes_to_laces(run_quiver, P_STAR) == truncate(run_quiver, ID4)


def test_pi_frozen(run_quiver):
    assert pi(run_quiver, P_REDUCED) == extend(RUN_W_MIN)
    assert pi(run_quiver, P_NONREDUCED) == extend(RUN_W_K5)
    assert pi(run_quiver, P_STAR) == ID4


def test_pi_extends_laces_on_reduced_dreams(run_quiver):
    layout = block_layout(run_quiver)
    dreams = enum_rpipes(
        RUN_V_OMEGA, run_quiver.d_y, run_quiver.d_x, forced=layout.p_star
    )
    assert len(dreams) == 15
    for P in dreams:
        assert pi(run_quiver, P) == extend(pipes_to_laces(run_quiver, P))


# --- moves -------------------------------------------------------------


def test_reduced_neighbors_of_the_minimal_diagram(run_quiver):
    nbrs = seqperm_neighbors(run_quiver, extend(RUN_W_MIN), ktheory=False)
    assert extend(RUN_W_MIN2) in nbrs
    assert extend(RUN_W_K3) not in nbrs


def test_k_neighbors_follow_the_chain(run_quiver):
    up = seqperm_neighbors(run_quiver, extend(RUN_W_MIN))
    assert extend(RUN_W_K3) in up
    assert extend(RUN_W_INT_A) in seqperm_neighbors(run_quiver, extend(RUN_W_K3))
    assert extend(RUN_W_K5) in seqperm_neighbors(run_quiver, extend(RUN_W_INT_A))
    # and back down from the top
    down = seqperm_neighbors(run_quiver, extend(RUN_W_K5))
    assert extend(RUN_W_INT_B) in down


def test_identities_admit_no_moves(run_quiver):
    assert seqperm_neighbors(run_quiver, ID4) == set()
    assert seqperm_neighbors(run_quiver, ID4, ktheory=False) == set()


def test_one_line_completion_test_matches_truncate_and_complete():
    for R, C in itertools.product(range(4), repeat=2):
        for u in all_perms(R + C):
            assert lacing_mod._is_completed(u, (R, C)) == (u.nw_partial(R, C).complete() == u)


_VIRTUAL = "move at site %r dropped: every outer dot is virtual"
_INCOMPLETE = "move at site %r dropped: result is not a completed diagram"


def _round_trip_step(quiver, w, ktheory, drops):
    """One diagram step by the round trip: truncate each moved tuple, extend it, compare."""
    out = set()
    for site, ok, moved in lacing_mod._moves(quiver, extend(w), ktheory):
        if not ok:
            drops.append(_VIRTUAL % ((site,),))
            continue
        w2 = truncate(quiver, moved)
        if extend(w2) != moved:
            drops.append(_INCOMPLETE % ((site,),))
            continue
        out.add(w2)
    return out


def _round_trip_closure(quiver, seed, ktheory, drops):
    seen, queue = {seed}, [seed]
    while queue:
        for w2 in _round_trip_step(quiver, queue.pop(), ktheory, drops):
            if w2 not in seen:
                seen.add(w2)
                queue.append(w2)
    return seen


def test_move_closure_matches_the_round_trip_and_logs_its_drops(caplog, monkeypatch):
    caplog.set_level(logging.WARNING, logger=lacing_mod.__name__)
    every_drop = []
    for quiver in (TINY, FORK, BRIDGE):
        for w in all_diagrams(quiver):
            for ktheory in (False, True):
                drops = []
                expected = _round_trip_closure(quiver, w, ktheory, drops)
                caplog.clear()
                got = lacing_mod._move_closure(quiver, {extend(w)}, ktheory, diagrams=True)
                assert {truncate(quiver, v) for v in got} == expected
                assert sorted(r.getMessage() for r in caplog.records) == sorted(drops)
                every_drop.extend(drops)
    # these seeds drop moves, each for a virtual outer dot
    assert every_drop and all(m.endswith("virtual") for m in every_drop)
    # a move that keeps a real outer dot never leaves the completed tuples,
    # so a stand-in move shows the second drop
    seed = extend((PartialPermutation([[0]]), PartialPermutation([[0]])))
    stray = (Perm((1, 3, 2)), seed[1])
    monkeypatch.setattr(lacing_mod, "_moves", lambda q, v, k: [((1, 1, 1), True, stray)])
    caplog.clear()
    assert lacing_mod._move_closure(TINY, {seed}, True, diagrams=True) == {seed}
    assert [r.getMessage() for r in caplog.records] == [_INCOMPLETE % (((1, 1, 1),),)]
    assert lacing_mod._move_closure(TINY, {seed}, True, diagrams=False) == {seed, stray}


# --- W and KW ----------------------------------------------------------


def test_enum_W_running_example(run_quiver, run_orbit):
    W = enum_W(run_quiver, run_orbit)
    assert W == enum_W_by_filter(run_quiver, run_orbit)
    assert RUN_W_MIN in W and RUN_W_MIN2 in W
    for w in W:
        assert crossings(w) == RUN_CODIM
        assert orbit_from_lacing(run_quiver, w) == run_orbit
        assert is_minimal(w)


def test_W_is_the_image_of_the_reduced_dreams(run_quiver, run_orbit):
    layout = block_layout(run_quiver)
    dreams = enum_rpipes(
        RUN_V_OMEGA, run_quiver.d_y, run_quiver.d_x, forced=layout.p_star
    )
    assert {pipes_to_laces(run_quiver, P) for P in dreams} == set(
        enum_W(run_quiver, run_orbit)
    )


def test_enum_W_dense_orbit(run_quiver):
    dense = truncate(run_quiver, ID4)
    orbit = orbit_from_lacing(run_quiver, dense)
    assert enum_W(run_quiver, orbit) == frozenset({dense})
    assert enum_W_by_filter(run_quiver, orbit) == frozenset({dense})
    assert enum_KW(run_quiver, orbit) == frozenset({dense})


def test_enum_W_zero_orbit_of_the_smallest_quiver():
    orbit = OrbitData(TINY, {("y1", "y1"): 1, ("x1", "x1"): 1, ("y0", "y0"): 1})
    bare = (PartialPermutation([[0]]), PartialPermutation([[0]]))
    before = hash(orbit)
    W = enum_W(TINY, orbit)
    assert W == frozenset({bare})
    # the orbit keeps W, and keeping it changes neither hash nor ==
    assert enum_W(TINY, orbit) is W
    assert hash(orbit) == before and orbit == OrbitData(TINY, dict(orbit.laces))
    with pytest.raises(OrbitError):
        enum_W(FORK, orbit)
    assert enum_W_by_filter(TINY, orbit) == frozenset({bare})
    # no move sites at all when every dimension is 1
    assert enum_KW(TINY, orbit) == frozenset({bare})
    # the orbit keeps KW as it keeps W
    assert enum_KW(TINY, orbit) is enum_KW(TINY, orbit)
    with pytest.raises(OrbitError):
        enum_KW(FORK, orbit)


def test_enum_W_matches_filter_on_every_small_orbit():
    for quiver in (TINY, FORK, BRIDGE):
        layout = block_layout(quiver)
        for orbit in all_orbits(quiver):
            W = enum_W(quiver, orbit)
            assert W == enum_W_by_filter(quiver, orbit)
            assert enum_KW(quiver, orbit) >= W
            dreams = enum_rpipes(
                zelevinsky(quiver, orbit), quiver.d_y, quiver.d_x,
                forced=layout.p_star,
            )
            assert {pipes_to_laces(quiver, P) for P in dreams} == set(W)
            for P in dreams:
                assert pi(quiver, P) == extend(pipes_to_laces(quiver, P))


def test_enum_KW_running_example(run_quiver, run_orbit):
    KW = enum_KW(run_quiver, run_orbit)
    W = enum_W(run_quiver, run_orbit)
    assert KW >= W
    assert {RUN_W_K3, RUN_W_INT_A, RUN_W_INT_B, RUN_W_K5} <= KW
    assert min(crossings(w) for w in KW) == RUN_CODIM


def test_k_diagrams_can_leave_the_orbit(run_quiver, run_orbit):
    other = orbit_from_lacing(run_quiver, RUN_W_K3)
    assert other != run_orbit
    assert other.laces == {("y2", "x1"): 1, ("y2", "y1"): 1, ("x2", "y0"): 1}
    assert zelevinsky(run_quiver, other) == Perm((4, 1, 2, 3, 5, 7, 6, 10, 11, 8, 9))


# --- enumeration helpers ----------------------------------------------


def test_all_diagrams_counts():
    assert sum(1 for _ in all_diagrams(TINY)) == 4
    assert sum(1 for _ in all_diagrams(FORK)) == 21
    assert sum(1 for _ in all_diagrams(BRIDGE)) == 36


def test_all_orbits_tiny():
    orbits = all_orbits(TINY)
    assert len(orbits) == 4
    assert any(o.laces == {("y1", "y0"): 1} for o in orbits)


# --- rendering ---------------------------------------------------------


def test_render_ascii_smoke(run_quiver):
    text = render_ascii(run_quiver, RUN_W_MIN)
    assert text.splitlines()[0].startswith("y2")
    assert "o" in text and "*" in text
    assert "x1" in text.splitlines()[0]


def test_render_svg_smoke(run_quiver):
    markup = render_svg(run_quiver, RUN_W_K5)
    assert markup.startswith("<svg ")
    assert markup.count("<circle") >= 8
    assert 'fill="red"' in markup and markup.rstrip().endswith("</svg>")
