"""Factoring an orbit's permutation along the snake, as one 0-Hecke word.

Each dense region off the snake gives a reduced word of its Demazure
product, and each tuple component a reduced word pushed to its window
inside 1..d.  The 0-Hecke monoid is associative, so one Perm.from_word
fold of the concatenated words is the product of the factors.  Read
block row by block row or block column by block column, it recovers the
orbit permutation exactly for the tuples of the set X of the orbit.
"""

from __future__ import annotations

import itertools
import math
from functools import partial

from .lacing import _closure, pi, pipes_to_laces, seqperm_neighbors
from .perms import Perm, all_perms
from .pipedreams import CapacityError, PipeDream, enum_pipes, enum_rpipes
from .quiver import block_layout, zelevinsky

__all__ = [
    "TUPLE_LIMIT",
    "eps_north",
    "eps_south",
    "factorization_col",
    "factorization_row",
    "pipe_fibers",
    "seqperm_closure",
    "shift_constants",
    "theta_east",
    "theta_west",
    "window_grids",
    "x_omega",
    "x_omega_by_factorization",
    "x_omega_red",
]

TUPLE_LIMIT = 5000


def shift_constants(quiver):
    """Window offsets (a_k, b_k) keyed by k.

    >>> from .quiver import BipartiteQuiver
    >>> shift_constants(BipartiteQuiver((1, 1), (1,)))
    {1: (0, 1)}
    """
    out = {}
    for k in range(1, quiver.n + 1):
        tail = sum(quiver.dx[k:])
        out[k] = (tail + sum(quiver.dy[: k - 1]), tail + sum(quiver.dy[:k]))
    return out


def window_grids(quiver):
    """Window shapes (rows, cols) of the arrows, in diagram order w_n, w^n, ..., w^1.

    >>> from .quiver import BipartiteQuiver
    >>> window_grids(BipartiteQuiver((1, 3, 2), (2, 3)))
    [(2, 3), (3, 3), (3, 2), (1, 2)]
    """
    grids = []
    for k in range(quiver.n, 0, -1):
        grids.append((quiver.dim("y%d" % k), quiver.dim("x%d" % k)))
        grids.append((quiver.dim("y%d" % (k - 1)), quiver.dim("x%d" % k)))
    return grids


def _delta(quiver, row_names, col_names):
    layout = block_layout(quiver)
    cells = []
    for zr in row_names:
        lo, hi = layout.rows[zr]
        for zc in col_names:
            clo, chi = layout.cols[zc]
            cells += [
                (r, c)
                for r in range(lo, hi + 1)
                for c in range(clo, chi + 1)
            ]
    return PipeDream(quiver.d, quiver.d, cells).demazure()


def eps_north(quiver, k):
    """Dense region above the snake in block column x_k: rows y_0..y_{k-2}."""
    return _delta(quiver, ["y%d" % i for i in range(k - 1)], ["x%d" % k])


def eps_south(quiver, k):
    """Dense region below the snake in block column x_k: rows y_{k+1}..y_n."""
    return _delta(
        quiver, ["y%d" % i for i in range(k + 1, quiver.n + 1)], ["x%d" % k]
    )


def theta_west(quiver, k):
    """Dense region left of the snake in block row y_{k-1}: columns x_n..x_{k+1}."""
    return _delta(
        quiver, ["y%d" % (k - 1)], ["x%d" % i for i in range(quiver.n, k, -1)]
    )


def theta_east(quiver, k):
    """Dense region right of the snake in block row y_k: columns x_{k-1}..x_1."""
    return _delta(quiver, ["y%d" % k], ["x%d" % i for i in range(k - 1, 0, -1)])


def _snake_factors(quiver, by_rows):
    """Factors in product order: a dense region's reduced word, or component index g."""
    n = quiver.n
    factors = []
    for k in range(1, n + 1):
        alpha, beta = 2 * (n - k) + 1, 2 * (n - k)
        if by_rows:
            factors += [eps_north(quiver, k), alpha, beta, eps_south(quiver, k)]
        else:
            factors += [alpha, theta_west(quiver, k), theta_east(quiver, k), beta]
    return [f if isinstance(f, int) else f.reduced_word() for f in factors]


def _pushed_word(quiver, g, u):
    """A reduced word of component g, pushed to its window inside 1..d.

    beta_k: each letter shifted past b_k.  alpha_k: inverted, rotated in
    its window of size m and shifted past a_k, so reversed, i -> m - i + a_k.
    """
    k = quiver.n - g // 2
    a, b = shift_constants(quiver)[k]
    word = u.reduced_word()
    if g % 2 == 0:
        return [i + b for i in word]
    m = sum(window_grids(quiver)[g])
    return [m - i + a for i in reversed(word)]


def _fold(factors, words):
    """0-Hecke product of the factors, component g read as words[g]."""
    return Perm.from_word(
        i for f in factors for i in (words[f] if isinstance(f, int) else f)
    )


def _product(quiver, v, by_rows):
    words = [_pushed_word(quiver, g, u) for g, u in enumerate(v)]
    return _fold(_snake_factors(quiver, by_rows), words)


def factorization_row(quiver, v):
    """0-Hecke product sweeping the snake one block row at a time."""
    return _product(quiver, v, by_rows=True)


def factorization_col(quiver, v):
    """The same product grouped by block columns; always agrees with the rows."""
    return _product(quiver, v, by_rows=False)


# --- the set X of an orbit --------------------------------------------


def _nw_dreams(quiver, orbit, reduced):
    """The orbit's northwest dreams, all of them or the reduced ones only."""
    enum = enum_rpipes if reduced else enum_pipes
    forced = block_layout(quiver).p_star
    return enum(zelevinsky(quiver, orbit), quiver.d_y, quiver.d_x, forced=forced)


def x_omega(quiver, orbit):
    """Completed tuples of every northwest dream of the orbit."""
    return frozenset(pi(quiver, P) for P in _nw_dreams(quiver, orbit, reduced=False))


def x_omega_red(quiver, orbit):
    """Completed tuples of the reduced dreams only."""
    return frozenset(pi(quiver, P) for P in _nw_dreams(quiver, orbit, reduced=True))


def x_omega_by_factorization(quiver, orbit, limit=TUPLE_LIMIT):
    """Brute filter of all window tuples by the row product; the oracle."""
    grids = window_grids(quiver)
    total = math.prod(math.factorial(sum(grid)) for grid in grids)
    if total > limit:
        raise CapacityError(
            "%d window tuples exceed the brute budget of %d" % (total, limit)
        )
    target = zelevinsky(quiver, orbit)
    factors = _snake_factors(quiver, by_rows=True)
    pools = [
        {u: _pushed_word(quiver, g, u) for u in all_perms(sum(grid))}
        for g, grid in enumerate(grids)
    ]
    return frozenset(
        v for v in itertools.product(*pools)
        if _fold(factors, [pool[u] for pool, u in zip(pools, v)]) == target
    )


def seqperm_closure(quiver, seeds):
    """Closure of a set of completed tuples under the pattern exchanges."""
    return _closure(seeds, partial(seqperm_neighbors, quiver, ktheory=True))


def pipe_fibers(quiver, orbit, reduced=False):
    """The orbit's dreams grouped by traced diagram, as {diagram: dreams}."""
    fibers = {}
    for P in _nw_dreams(quiver, orbit, reduced):
        fibers.setdefault(pipes_to_laces(quiver, P), []).append(P)
    return fibers
