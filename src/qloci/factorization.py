"""Factoring an orbit's permutation along the snake, as one 0-Hecke word.

Each dense block of the quiver's layout off the snake gives its reading
word, and each tuple component a reduced word pushed to its window
inside 1..d.  The 0-Hecke monoid is associative, so folding the words
in one after another gives the product of the factors.  Read
block row by block row or block column by block column, it recovers the
orbit permutation exactly for the tuples of the set X of the orbit.
"""

from __future__ import annotations

import math

from .lacing import _move_closure, pi, pipes_to_laces
from .perms import Perm, all_perms
from .pipedreams import CapacityError, enum_pipes, enum_rpipes
from .quiver import block_layout, zelevinsky

__all__ = [
    "TUPLE_LIMIT",
    "factorization_col",
    "factorization_row",
    "nw_dreams",
    "pipe_fibers",
    "seqperm_closure",
    "window_grids",
    "x_omega",
    "x_omega_by_factorization",
    "x_omega_red",
]

TUPLE_LIMIT = 5000


def window_grids(quiver):
    """Window shapes (rows, cols) of the arrows, in diagram order w_n, w^n, ..., w^1.

    >>> from .quiver import BipartiteQuiver
    >>> window_grids(BipartiteQuiver((1, 3, 2), (2, 3)))
    [(2, 3), (3, 3), (3, 2), (1, 2)]
    """
    return [(len(rows), len(cols)) for rows, cols in block_layout(quiver).windows]


def _snake_factors(quiver, by_rows):
    """Factors in product order: a dense block's reading word, or component index g.

    The blocks (y_i, x_k) of the northwest corner come block column x_1,
    x_2, ... each top to bottom, or block row y_0, y_1, ... each right to
    left.  Block (y_k, x_k) is the window of beta_k, g = 2(n-k), and
    (y_{k-1}, x_k) that of alpha_k, g = 2(n-k)+1; either way the
    components come in the order 2n-1, ..., 1, 0.
    """
    n, layout = quiver.n, block_layout(quiver)
    if by_rows:
        blocks = [(i, k) for k in range(1, n + 1) for i in range(n + 1)]
    else:
        blocks = [(i, k) for i in range(n + 1) for k in range(1, n + 1)]
    factors = []
    for i, k in blocks:
        if i == k:
            factors.append(2 * (n - k))
        elif i == k - 1:
            factors.append(2 * (n - k) + 1)
        else:
            (r0, r1), (c0, c1) = layout.rows["y%d" % i], layout.cols["x%d" % k]
            factors.append([r + c - 1 for r in range(r0, r1 + 1) for c in range(c1, c0 - 1, -1)])
    return factors


def _pushed_words(quiver, g, perms):
    """{u: a reduced word of u pushed to window g inside 1..d} for each u in perms.

    The window's block spans rows r0..r1 and columns c0..c1 of the layout.
    beta_k: each letter i -> i + r0 + c0 - 2.  alpha_k: inverted and
    rotated in its window, so the word reversed and i -> r1 + c1 - i.
    """
    k = quiver.n - g // 2
    layout = block_layout(quiver)
    (r0, r1), (c0, c1) = layout.rows["y%d" % (k - g % 2)], layout.cols["x%d" % k]
    if g % 2 == 0:
        return {u: [i + r0 + c0 - 2 for i in u.reduced_word()] for u in perms}
    return {u: [r1 + c1 - i for i in reversed(u.reduced_word())] for u in perms}


def _apply(line, word):
    """The one-line window `line` with the generators of `word` folded in on the right."""
    line = list(line)
    for i in word:
        if line[i - 1] < line[i]:
            line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


def _fold(quiver, by_rows, pools):
    """0-Hecke products of the snake factors over every choice of components.

    pools[g] maps each choice u of component g to its pushed word.  The
    result maps each product, as a one-line window of size d, to the
    tuples (u_0, ..., u_{2n-1}) whose product it is.  The fold takes one
    factor at a time and keeps each distinct line that a prefix of the
    factors reaches, with the partial tuples that reach it, so tuples
    that share a prefix fold it once.
    """
    lines = {tuple(range(1, quiver.d + 1)): [()]}
    for f in _snake_factors(quiver, by_rows):
        reached = {}
        for line, parts in lines.items():
            if not isinstance(f, int):
                reached.setdefault(_apply(line, f), []).extend(parts)
                continue
            # components come last to first, so each one goes in front
            for u, word in pools[f].items():
                reached.setdefault(_apply(line, word), []).extend((u,) + p for p in parts)
        lines = reached
    return lines


def _product(quiver, v, by_rows):
    pools = [_pushed_words(quiver, g, [u]) for g, u in enumerate(v)]
    (line,) = _fold(quiver, by_rows, pools)
    return Perm(line)


def factorization_row(quiver, v):
    """0-Hecke product sweeping the snake one block row at a time."""
    return _product(quiver, v, by_rows=True)


def factorization_col(quiver, v):
    """The same product grouped by block columns; always agrees with the rows."""
    return _product(quiver, v, by_rows=False)


# --- the set X of an orbit --------------------------------------------


def nw_dreams(quiver, orbit, reduced=False):
    """The orbit's northwest dreams, all of them or the reduced ones only.

    The orbit keeps each list from the first call on.
    """
    enum = enum_rpipes if reduced else enum_pipes
    return orbit.derived(quiver, "_rdreams" if reduced else "_dreams", lambda q, o: tuple(
        enum(zelevinsky(q, o), q.d_y, q.d_x, forced=block_layout(q).p_star)))


def x_omega(quiver, orbit):
    """Completed tuples of every northwest dream of the orbit."""
    return frozenset(pi(quiver, P) for P in nw_dreams(quiver, orbit))


def x_omega_red(quiver, orbit):
    """Completed tuples of the reduced dreams only."""
    return frozenset(pi(quiver, P) for P in nw_dreams(quiver, orbit, reduced=True))


def x_omega_by_factorization(quiver, orbit, limit=TUPLE_LIMIT):
    """Brute filter of all window tuples by the row product; the oracle.

    Every window tuple is tried, with no pruning; tuples that share a
    prefix of factors share its fold.
    """
    grids = window_grids(quiver)
    total = math.prod(math.factorial(sum(grid)) for grid in grids)
    if total > limit:
        raise CapacityError(
            "%d window tuples exceed the brute budget of %d" % (total, limit)
        )
    pools = [_pushed_words(quiver, g, all_perms(sum(grid))) for g, grid in enumerate(grids)]
    target = zelevinsky(quiver, orbit).one_line(quiver.d)
    return frozenset(_fold(quiver, True, pools).get(target, ()))


def seqperm_closure(quiver, seeds):
    """Closure of a set of completed tuples under the pattern exchanges."""
    return _move_closure(quiver, seeds, ktheory=True, diagrams=False)


def pipe_fibers(quiver, orbit, reduced=False):
    """The orbit's dreams grouped by traced diagram, as {diagram: dreams}."""
    fibers = {}
    for P in nw_dreams(quiver, orbit, reduced):
        fibers.setdefault(pipes_to_laces(quiver, P), []).append(P)
    return fibers
