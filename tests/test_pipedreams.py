"""Pipe dream engine: folds, tracing, enumeration, capacity."""

import doctest
import itertools
import random

import pytest

from qloci import pipedreams
from qloci.perms import PartialPermutation, Perm, all_perms, prefix_ceilings, row_leq
from qloci.pipedreams import (
    CapacityError,
    PipeDream,
    dream_sum,
    enum_pipes,
    enum_pipes_by_subsets,
    enum_rpipes,
    enum_rpipes_by_subsets,
    nw_restricted,
    render_ascii,
    render_svg,
)
from qloci.poly import LaurentPoly, cross_weight, s_var, t_var

from conftest import (
    P_NONREDUCED,
    P_REDUCED,
    P_STAR,
    RUN_V_OMEGA,
    RUN_V_STAR,
    SNAKE_CELLS,
)


def all_dreams(rows, cols):
    cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    for k in range(len(cells) + 1):
        for sub in itertools.combinations(cells, k):
            yield PipeDream(rows, cols, sub)


def all_partial_perms(rows, cols):
    for k in range(min(rows, cols) + 1):
        for rset in itertools.combinations(range(1, rows + 1), k):
            for cperm in itertools.permutations(range(1, cols + 1), k):
                yield PartialPermutation.from_pairs(rows, cols, list(zip(rset, cperm)))


def test_doctests():
    failed, _ = doctest.testmod(pipedreams)
    assert failed == 0


# --- Demazure products -------------------------------------------------


def test_demazure_examples():
    assert PipeDream(3, 2, []).demazure() == Perm.identity()
    assert PipeDream(2, 2, [(1, 1)]).demazure() == Perm.tau(1)
    assert P_STAR.reading_word() == [3, 2, 1, 9, 8, 10, 9]
    assert P_STAR.demazure() == RUN_V_STAR
    assert RUN_V_STAR.length() == 7
    assert RUN_V_OMEGA.length() - RUN_V_STAR.length() == 2


def test_row_and_column_reading_agree_small():
    for P in all_dreams(3, 3):
        assert P.demazure_by_columns() == P.demazure()
    for P in all_dreams(2, 4):
        assert P.demazure_by_columns() == P.demazure()


def test_row_and_column_reading_agree_random_larger():
    rng = random.Random(23)
    cells = [(r, c) for r in range(1, 6) for c in range(1, 7)]
    for _ in range(100):
        P = PipeDream(5, 6, rng.sample(cells, rng.randint(0, 18)))
        assert P.demazure_by_columns() == P.demazure()
    assert P_STAR.demazure_by_columns() == P_STAR.demazure()


def test_length_bound_and_reducedness():
    for P in all_dreams(2, 3):
        assert len(P) >= P.demazure().length()
        assert P.is_reduced() == (len(P) == P.demazure().length())


def test_running_example_dreams():
    assert PipeDream(6, 5, []).is_reduced()
    assert P_REDUCED.demazure() == RUN_V_OMEGA
    assert P_REDUCED.is_reduced()
    assert P_NONREDUCED.demazure() == RUN_V_OMEGA
    assert not P_NONREDUCED.is_reduced()


# --- pipe tracing ------------------------------------------------------


def test_trace_examples():
    assert PipeDream(2, 3, []).trace_pipes() == PartialPermutation(
        [[1, 0, 0], [0, 1, 0]]
    )
    assert PipeDream(1, 1, [(1, 1)]).trace_pipes() == PartialPermutation([[0]])
    # the 1x2 alpha-block dream of the reduced running-example dream
    mini = PipeDream(1, 2, [(1, 2)])
    assert mini.rotated().trace_pipes() == PartialPermutation([[0, 1]])


def test_trace_matches_demazure_on_reduced_squares():
    # west-wall recovery: on a reduced m x m dream the traced matrix is delta
    for m in (2, 3):
        for P in all_dreams(m, m):
            if not P.is_reduced():
                continue
            v = P.demazure()
            traced = P.trace_pipes()
            expected = PartialPermutation.from_pairs(
                m, m, [(i, v(i)) for i in range(1, m + 1) if v(i) <= m]
            )
            assert traced == expected


def test_trace_deletes_double_crossings():
    # two pipes crossing twice come out uncrossed
    P = PipeDream(2, 2, [(1, 2), (2, 1)])
    assert P.demazure() == Perm.tau(2)
    assert not P.is_reduced()
    assert P.trace_pipes() == PartialPermutation([[1, 0], [0, 0]])
    # a fully crossed row is reduced: the west pipe leaves by the east wall
    Q = PipeDream(1, 3, [(1, 1), (1, 2), (1, 3)])
    assert Q.is_reduced()
    assert Q.trace_pipes() == PartialPermutation([[0, 0, 0]])


def test_west_wall_recovery_on_running_example():
    assert P_STAR.trace_pipes() == RUN_V_STAR.nw_partial(6, 5)
    assert P_REDUCED.trace_pipes() == RUN_V_OMEGA.nw_partial(6, 5)


# --- enumeration -------------------------------------------------------


def test_enum_examples():
    assert enum_rpipes(Perm.identity(), 2, 2) == [PipeDream(2, 2, [])]
    assert enum_rpipes(Perm.tau(1), 2, 2) == [PipeDream(2, 2, [(1, 1)])]
    assert enum_rpipes_by_subsets(Perm.tau(1), 2, 2) == [PipeDream(2, 2, [(1, 1)])]
    assert enum_pipes(Perm.identity(), 1, 1) == [PipeDream(1, 1, [])]
    assert enum_pipes(Perm.tau(1), 2, 2) == [PipeDream(2, 2, [(1, 1)])]


def test_generator_matches_subsets_small():
    for v in all_perms(3):
        for rows, cols in ((2, 2), (3, 2), (2, 3)):
            assert enum_rpipes(v, rows, cols) == enum_rpipes_by_subsets(v, rows, cols)
            assert enum_pipes(v, rows, cols) == enum_pipes_by_subsets(v, rows, cols)


def test_generator_matches_subsets_partial_inputs():
    for w in all_partial_perms(2, 2):
        assert enum_rpipes(w, 2, 2) == enum_rpipes_by_subsets(w, 2, 2)
        assert enum_pipes(w, 2, 2) == enum_pipes_by_subsets(w, 2, 2)


def test_extension_via_elbows():
    # dreams of w on k x l carry over unchanged to dreams of c(w) on m x m
    for rows in (1, 2):
        for cols in (1, 2):
            for w in all_partial_perms(rows, cols):
                m = rows + cols - w.rank
                small_r = {P.crosses for P in enum_rpipes(w, rows, cols)}
                big_r = {P.crosses for P in enum_rpipes(w.complete(), m, m)}
                assert small_r == big_r
                small_p = {P.crosses for P in enum_pipes(w, rows, cols)}
                big_p = {P.crosses for P in enum_pipes(w.complete(), m, m)}
                assert small_p == big_p


def test_running_example_enumeration():
    rdreams = enum_rpipes(
        RUN_V_OMEGA, 6, 5, cells=SNAKE_CELLS, forced=P_STAR.crosses
    )
    assert P_REDUCED in rdreams
    assert all(len(P) == 9 for P in rdreams)
    # the subset oracles search the whole 6x5 grid
    oracle = enum_rpipes_by_subsets(RUN_V_OMEGA, 6, 5, forced=P_STAR.crosses)
    assert rdreams == oracle
    dreams = enum_pipes(RUN_V_OMEGA, 6, 5, cells=SNAKE_CELLS, forced=P_STAR.crosses)
    assert P_NONREDUCED in dreams
    assert set(rdreams) <= set(dreams)
    oracle = enum_pipes_by_subsets(RUN_V_OMEGA, 6, 5, forced=P_STAR.crosses)
    assert dreams == oracle
    for ktheory in (False, True):
        weight = _grid_weight(ktheory)
        assert dream_sum(
            RUN_V_OMEGA, 6, 5, weight, ktheory, forced=P_STAR.crosses
        ) == _oracle_sum(oracle, weight, ktheory, 9, P_STAR.crosses)


# --- dream sums against the subset oracle ------------------------------


def _grid_weight(ktheory):
    mode = "ktheory" if ktheory else "cohomology"
    return lambda r, c: cross_weight(t_var(0, r), s_var(1, c), mode)


def _oracle_sum(dreams, weight, ktheory, goal, forced=frozenset()):
    """Dream by dream: weights of the optional crosses, sign per extra cross."""
    return LaurentPoly.sum(
        (-1) ** (len(P) - goal)
        * LaurentPoly.prod(weight(r, c) for r, c in sorted(P.crosses - forced))
        for P in dreams
        if ktheory or len(P) == goal
    )


def test_dream_sum_matches_the_subset_oracle():
    cases = [(v, v.size - 1, v.size - 1) for m in range(1, 5) for v in all_perms(m)]
    cases += [
        (w, rows, cols)
        for rows in (1, 2)
        for cols in (1, 2, 3)
        for w in all_partial_perms(rows, cols)
    ]
    for v, rows, cols in cases:
        goal = v.complete().length() if isinstance(v, PartialPermutation) else v.length()
        dreams = enum_pipes_by_subsets(v, rows, cols)
        for ktheory in (False, True):
            weight = _grid_weight(ktheory)
            assert dream_sum(v, rows, cols, weight, ktheory) == _oracle_sum(
                dreams, weight, ktheory, goal
            ), (v, rows, cols, ktheory)


def test_one_row_bruhat_check_exhaustive_s5():
    perms5 = list(all_perms(5))
    for w in perms5:
        ceilings = prefix_ceilings(w.one_line(5))
        for u in perms5:
            if not u.bruhat_leq(w):
                continue
            for j in range(1, 5):
                if u.ascent_at(j):
                    up = u.times_tau(j)
                    assert row_leq(up.one_line(5), j, ceilings) == up.bruhat_leq(w)


def test_capacity_guard(monkeypatch):
    with pytest.raises(CapacityError):
        enum_pipes_by_subsets(RUN_V_OMEGA, 6, 5)
    monkeypatch.setenv("QLOCI_CAPACITY_CELLS", "3")
    with pytest.raises(CapacityError):
        enum_pipes_by_subsets(Perm.tau(1), 2, 2)
    monkeypatch.setenv("QLOCI_CAPACITY_CELLS", "30")
    assert enum_pipes_by_subsets(Perm.tau(1), 2, 2) == [PipeDream(2, 2, [(1, 1)])]


# --- embeddings and rendering ------------------------------------------


def test_nw_restricted_roundtrips():
    empty = PipeDream(2, 2, [])
    assert nw_restricted(empty, 5, 5) == PipeDream(5, 5, [])
    big = nw_restricted(P_STAR, 11, 11)
    assert nw_restricted(big, 6, 5) == P_STAR
    assert nw_restricted(nw_restricted(P_REDUCED, 11, 11), 6, 5) == P_REDUCED
    with pytest.raises(ValueError):
        nw_restricted(P_STAR, 5, 5)


def test_render_ascii():
    P = PipeDream(2, 3, [(1, 1), (2, 3)])
    assert render_ascii(P) == "+..\n..+"
    assert render_ascii(PipeDream(1, 1, [])) == "."


def test_render_svg():
    P = PipeDream(2, 2, [(1, 1)])
    svg = render_svg(P)
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>")
    assert svg.count("<path") == 4
