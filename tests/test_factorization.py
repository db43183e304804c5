"""Snake factorizations, the sets X, and the pipe dream fibers."""

import doctest
import itertools
import math

from conftest import (
    P_STAR,
    RUN_CODIM,
    RUN_V_OMEGA,
    RUN_V_STAR,
    RUN_W_K3,
    RUN_W_K5,
    RUN_W_MIN,
)
import pytest

from qloci import factorization as factorization_mod
from qloci.factorization import (
    TUPLE_LIMIT,
    factorization_col,
    factorization_row,
    pipe_fibers,
    seqperm_closure,
    window_grids,
    x_omega,
    x_omega_by_factorization,
    x_omega_red,
)
from qloci.lacing import (
    all_orbits,
    enum_KW,
    enum_W,
    extend,
    mini_dreams,
    pi,
    truncate,
)
from qloci.perms import Perm, all_perms
from qloci.pipedreams import CapacityError, PipeDream, enum_pipes
from qloci.quiver import BipartiteQuiver, block_layout, zelevinsky

from test_lacing import ID4, RUN_W_INT_A, RUN_W_INT_B, RUN_W_MIN2

TINY = BipartiteQuiver((1, 1), (1,))
FORK = BipartiteQuiver((1, 2), (2,))
BRIDGE = BipartiteQuiver((1, 2, 1), (1, 1))
WIDE = BipartiteQuiver((2, 1), (1,))   # two-dimensional rightmost source
HOLLOW = BipartiteQuiver((1, 0, 1), (2, 1))   # empty middle source: empty windows

SMALL = (TINY, FORK, BRIDGE, WIDE, HOLLOW)


def test_doctests():
    failed, _ = doctest.testmod(factorization_mod)
    assert failed == 0


def test_frozen_diagrams_factor_to_the_orbit_permutation(run_quiver):
    for w in (RUN_W_MIN, RUN_W_MIN2, RUN_W_K3, RUN_W_INT_A, RUN_W_INT_B, RUN_W_K5):
        v = extend(w)
        assert factorization_row(run_quiver, v) == RUN_V_OMEGA
        assert factorization_col(run_quiver, v) == RUN_V_OMEGA


def test_identity_tuple_factors_to_v_star(run_quiver):
    assert factorization_row(run_quiver, ID4) == RUN_V_STAR
    assert factorization_col(run_quiver, ID4) == RUN_V_STAR


def _window_tuples(quiver):
    return itertools.product(
        *[tuple(all_perms(rows + cols)) for rows, cols in window_grids(quiver)]
    )


def test_row_equals_col_on_every_window_tuple():
    for quiver in SMALL:
        for v in _window_tuples(quiver):
            assert factorization_row(quiver, v) == factorization_col(quiver, v)


def _dense(quiver, ys, xs):
    """Demazure product of a d x d dream crossed on rows y_i, i in ys, and columns x_k, k in xs.

    Rows y_0..y_n run top to bottom and columns x_n..x_1 left to right;
    the spans come from the dimensions alone, not from the block layout.
    """
    dy, dx = quiver.dy, quiver.dx
    cells = [
        (r, c)
        for i in ys
        for k in xs
        for r in range(sum(dy[:i]) + 1, sum(dy[:i + 1]) + 1)
        for c in range(sum(dx[k:]) + 1, sum(dx[k - 1:]) + 1)
    ]
    return PipeDream(quiver.d, quiver.d, cells).demazure()


def _shifted(v, m):
    """1^m x v: fixes 1..m and sends m+i to v(i)+m."""
    return Perm(tuple(range(1, m + 1)) + tuple(x + m for x in v.window))


def _rotated(v, m):
    """w0 v w0 inside S_m: the matrix of v turned half a revolution."""
    return Perm(tuple(m + 1 - v(m + 1 - p) for p in range(1, m + 1)))


def _hecke_reference(quiver, v):
    """Row and column products folded factor by factor with Perm.hecke, each dense region whole."""
    n = quiver.n
    row = col = Perm.identity()
    for k in range(1, n + 1):
        # alpha_k's window starts past a rows and columns, beta_k's past b
        tail = sum(quiver.dx[k:])
        a, b = tail + sum(quiver.dy[:k - 1]), tail + sum(quiver.dy[:k])
        m = quiver.dim("y%d" % (k - 1)) + quiver.dim("x%d" % k)
        alpha = _shifted(_rotated(v[2 * (n - k) + 1].inverse(), m), a)
        beta = _shifted(v[2 * (n - k)], b)
        for factor in (
            _dense(quiver, range(k - 1), [k]),
            alpha,
            beta,
            _dense(quiver, range(k + 1, n + 1), [k]),
        ):
            row = row.hecke(factor)
        for factor in (
            alpha,
            _dense(quiver, [k - 1], range(n, k, -1)),
            _dense(quiver, [k], range(k - 1, 0, -1)),
            beta,
        ):
            col = col.hecke(factor)
    return row, col


def test_row_and_col_match_the_hecke_reference():
    # row == col alone would pass a fault shared by both orders, such as
    # an alpha word left unreversed or unmirrored
    for quiver in SMALL:
        for v in _window_tuples(quiver):
            row, col = _hecke_reference(quiver, v)
            assert factorization_row(quiver, v) == row
            assert factorization_col(quiver, v) == col


def test_x_omega_matches_the_brute_filter():
    for quiver in SMALL:
        for orbit in all_orbits(quiver):
            assert x_omega(quiver, orbit) == x_omega_by_factorization(quiver, orbit)


def _quivers_within_the_tuple_limit():
    for n in (1, 2):
        for dy in itertools.product((1, 2), repeat=n + 1):
            for dx in itertools.product((1, 2), repeat=n):
                quiver = BipartiteQuiver(dy, dx)
                tuples = math.prod(math.factorial(sum(g)) for g in window_grids(quiver))
                if tuples <= TUPLE_LIMIT:
                    yield quiver


def _filter_by_whole_words(quiver):
    """The brute filter by its definition, as {product: tuples}.

    Each window tuple's pushed words go after the dense regions' words in
    snake order, and one Perm.from_word folds the whole word.
    """
    factors = factorization_mod._snake_factors(quiver, by_rows=True)
    pushed = [
        factorization_mod._pushed_words(quiver, g, all_perms(sum(grid)))
        for g, grid in enumerate(window_grids(quiver))
    ]
    out = {}
    for v in itertools.product(*pushed):
        word = [i for f in factors for i in (pushed[f][v[f]] if isinstance(f, int) else f)]
        out.setdefault(Perm.from_word(word), set()).add(v)
    return out


def test_prefix_shared_filter_matches_the_whole_word_filter():
    quivers = list(_quivers_within_the_tuple_limit())
    assert len(quivers) == 27
    for quiver in quivers:
        by_product = _filter_by_whole_words(quiver)
        for orbit in all_orbits(quiver):
            found = x_omega_by_factorization(quiver, orbit)
            assert found
            assert found == by_product[zelevinsky(quiver, orbit)]


def test_brute_filter_refuses_the_running_example(run_quiver, run_orbit, monkeypatch):
    def no_work(*args):
        raise AssertionError("a pool was built or folded before the refusal")

    monkeypatch.setattr(factorization_mod, "_pushed_words", no_work)
    monkeypatch.setattr(factorization_mod, "_fold", no_work)
    with pytest.raises(CapacityError):
        x_omega_by_factorization(run_quiver, run_orbit)


def test_x_omega_running_example(run_quiver, run_orbit):
    X = x_omega(run_quiver, run_orbit)
    for w in (RUN_W_MIN, RUN_W_MIN2, RUN_W_K3, RUN_W_INT_A, RUN_W_INT_B, RUN_W_K5):
        assert extend(w) in X
    for v in X:
        assert factorization_row(run_quiver, v) == RUN_V_OMEGA
        assert factorization_col(run_quiver, v) == RUN_V_OMEGA


def test_truncation_is_a_bijection_onto_KW(run_quiver, run_orbit):
    X = x_omega(run_quiver, run_orbit)
    diagrams = {truncate(run_quiver, v) for v in X}
    assert diagrams == set(enum_KW(run_quiver, run_orbit))
    assert len(diagrams) == len(X)
    for v in X:
        assert extend(truncate(run_quiver, v)) == v


def test_truncation_bijection_on_every_small_orbit():
    for quiver in SMALL:
        for orbit in all_orbits(quiver):
            X = x_omega(quiver, orbit)
            diagrams = {truncate(quiver, v) for v in X}
            assert diagrams == set(enum_KW(quiver, orbit))
            assert len(diagrams) == len(X)
            for v in X:
                assert extend(truncate(quiver, v)) == v


def test_reduced_tuples_and_their_move_closure(run_quiver, run_orbit):
    red = x_omega_red(run_quiver, run_orbit)
    assert red == {extend(w) for w in enum_W(run_quiver, run_orbit)}
    assert seqperm_closure(run_quiver, red) == x_omega(run_quiver, run_orbit)


def test_move_closure_on_every_small_orbit():
    for quiver in SMALL:
        for orbit in all_orbits(quiver):
            red = x_omega_red(quiver, orbit)
            assert seqperm_closure(quiver, red) == x_omega(quiver, orbit)


def test_reduced_dreams_fiber_over_W(run_quiver, run_orbit):
    fibers = pipe_fibers(run_quiver, run_orbit, reduced=True)
    assert set(fibers) == set(enum_W(run_quiver, run_orbit))
    assert sum(len(ps) for ps in fibers.values()) == 15
    for w, dreams in fibers.items():
        assert dreams
        for P in dreams:
            assert all(len(m) == m.demazure().length() for m in mini_dreams(run_quiver, P))
            assert pi(run_quiver, P) == extend(w)


def test_all_dreams_fiber_over_KW(run_quiver, run_orbit):
    fibers = pipe_fibers(run_quiver, run_orbit)
    assert sum(len(ps) for ps in fibers.values()) == 129
    assert set(fibers) == set(enum_KW(run_quiver, run_orbit))
    for w, dreams in fibers.items():
        for P in dreams:
            assert pi(run_quiver, P) == extend(w)


def test_counting_identity(run_quiver, run_orbit):
    total = 0
    for v in x_omega(run_quiver, run_orbit):
        grids = [(2, 3), (3, 3), (3, 2), (1, 2)]
        count = 1
        for comp, (rows, cols) in zip(v, grids):
            count *= len(enum_pipes(comp, rows, cols))
        total += count
    assert total == 129


def test_counting_identity_small_orbits():
    for quiver in SMALL:
        layout = block_layout(quiver)
        grids = window_grids(quiver)
        for orbit in all_orbits(quiver):
            dreams = enum_pipes(
                zelevinsky(quiver, orbit), quiver.d_y, quiver.d_x,
                forced=layout.p_star,
            )
            total = 0
            for v in x_omega(quiver, orbit):
                count = 1
                for comp, (rows, cols) in zip(v, grids):
                    count *= len(enum_pipes(comp, rows, cols))
                total += count
            assert total == len(dreams)


def test_boundary_monotonicity():
    # rightmost beta component rises on source slots, leftmost alpha
    # component rises on the rotated source slots
    for quiver in SMALL + (BipartiteQuiver((2, 2), (1,)),):
        dy_top = quiver.dim("y%d" % quiver.n)
        dx_low = quiver.dim("x1")
        dy_low = quiver.dim("y0")
        for orbit in all_orbits(quiver):
            for v in x_omega(quiver, orbit):
                for j in range(1, dy_top):
                    assert v[0](j) < v[0](j + 1)
                rot = _rotated(v[-1], dy_low + dx_low)
                for j in range(dx_low + 1, dx_low + dy_low):
                    assert rot(j) < rot(j + 1)


def test_dense_orbit_x_is_the_identity_tuple(run_quiver):
    dense = orbit_of_dense(run_quiver)
    assert x_omega(run_quiver, dense) == frozenset({ID4})


def orbit_of_dense(quiver):
    from qloci.quiver import orbit_from_lacing

    ids = tuple(Perm.identity() for _ in range(2 * quiver.n))
    return orbit_from_lacing(quiver, truncate(quiver, ids))
