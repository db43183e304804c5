"""Multidegrees and K-polynomials of orbit closures, three ways.

The pipe route sums cell weights over the orbit's northwest dreams; the
component route multiplies one small polynomial per arrow of a minimal
(or K-theoretic) diagram and sums over diagrams; the ratio route divides
two full-grid polynomials.  All three agree, and the test suite checks
the agreements rather than assuming them.

Every dream sum here, the pipe route and each Schubert or Grothendieck
factor alike, is one call to `pipedreams.dream_sum`: a memoized
recursion over (reading position, 0-Hecke prefix) states that multiplies
in a cell's weight when the cell is crossed, so no dream is listed.

Weights: a crossing in cell (r, c) contributes (row label - column
label) in cohomology and (1 - row/column) in K-theory; in K-theory each
crossing beyond the length also flips the sign.
"""

from __future__ import annotations

import math

from .lacing import crossings, enum_KW, enum_W
from .perms import PartialPermutation, Perm
# perfbench's tracer tests rebind formulas.enum_rpipes, so the name stays
from .pipedreams import CapacityError, dream_sum, enum_rpipes  # noqa: F401
from .poly import LaurentPoly, cross_weight, s_var, t_var
from .quiver import block_layout, codim, v_star, zelevinsky

__all__ = [
    "grothendieck",
    "grothendieck_lacing",
    "k_lowest_part",
    "kpoly_component",
    "kpoly_pipe",
    "multidegree_component",
    "multidegree_pipe",
    "ratio_check",
    "s_alphabet",
    "schubert",
    "schubert_lacing",
    "t_alphabet",
]


def _grid_of(w):
    if isinstance(w, PartialPermutation):
        return w.rows, w.cols
    m = w.size
    return max(m - 1, 0), max(m - 1, 0)


def _factor(w, row_vars, col_vars, mode):
    rows, cols = _grid_of(w)
    return dream_sum(
        w, rows, cols,
        lambda r, c: cross_weight(row_vars[r - 1], col_vars[c - 1], mode),
        ktheory=mode == "ktheory",
    )


def schubert(w, row_vars, col_vars):
    """Double Schubert polynomial of w in the given alphabets.

    A permutation spreads over the square grid one short of its window; a
    partial permutation spreads over its own grid, targeting its
    completion.

    >>> print(schubert(Perm.tau(1), [t_var(0, 1)], [s_var(1, 1)]))
    -1*s1_1 + 1*t0_1
    >>> schubert(Perm.identity(), [], []) == LaurentPoly.one()
    True
    """
    return _factor(w, row_vars, col_vars, "cohomology")


def grothendieck(w, row_vars, col_vars):
    """Double Grothendieck polynomial, signs alternating above the length.

    >>> g = grothendieck(Perm.tau(1), [t_var(0, 1)], [s_var(1, 1)])
    >>> g == cross_weight(t_var(0, 1), s_var(1, 1), "ktheory")
    True
    """
    return _factor(w, row_vars, col_vars, "ktheory")


def t_alphabet(quiver, k):
    """Variables of the source block y_k, slots ascending."""
    return [t_var(k, i) for i in range(1, quiver.dim("y%d" % k) + 1)]


def s_alphabet(quiver, k):
    return [s_var(k, i) for i in range(1, quiver.dim("x%d" % k) + 1)]


def _lacing_product(quiver, w, factor):
    w = tuple(w)
    parts = []
    for j, k in enumerate(range(quiver.n, 0, -1)):
        parts.append(factor(w[2 * j], t_alphabet(quiver, k), s_alphabet(quiver, k)))
        parts.append(
            factor(
                w[2 * j + 1].rot(),
                t_alphabet(quiver, k - 1)[::-1],
                s_alphabet(quiver, k)[::-1],
            )
        )
    return LaurentPoly.prod(parts)


def schubert_lacing(quiver, w):
    """Product of one Schubert factor per arrow of the diagram.

    Alpha factors take their matrices turned half around and read both
    alphabets backwards; the two reversals cancel, so every crossing
    still weighs (row label - column label) of its cell in the block
    grid.
    """
    return _lacing_product(quiver, w, schubert)


def grothendieck_lacing(quiver, w):
    return _lacing_product(quiver, w, grothendieck)


# --- the three routes --------------------------------------------------


def _pipe_sum(quiver, orbit, mode):
    layout = block_layout(quiver)
    return dream_sum(
        zelevinsky(quiver, orbit), quiver.d_y, quiver.d_x,
        lambda r, c: cross_weight(layout.row_var(r), layout.col_var(c), mode),
        ktheory=mode == "ktheory",
        forced=layout.p_star,
    )


def multidegree_pipe(quiver, orbit):
    """Sum of cohomology weights over the orbit's reduced dreams."""
    return _pipe_sum(quiver, orbit, "cohomology")


def kpoly_pipe(quiver, orbit):
    """Signed sum of K-theory weights over all of the orbit's dreams."""
    return _pipe_sum(quiver, orbit, "ktheory")


def multidegree_component(quiver, orbit):
    """Sum of lacing products over the minimal diagrams."""
    return LaurentPoly.sum(
        schubert_lacing(quiver, w) for w in sorted(enum_W(quiver, orbit))
    )


def kpoly_component(quiver, orbit):
    cd = codim(quiver, orbit)
    parts = []
    for w in sorted(enum_KW(quiver, orbit)):
        sign = -1 if (crossings(w) - cd) % 2 else 1
        parts.append(sign * grothendieck_lacing(quiver, w))
    return LaurentPoly.sum(parts)


# --- the ratio route ---------------------------------------------------


def ratio_check(quiver, orbit):
    """Cross-multiplied ratio identities on the full d x d alphabets.

    Checks degree and K-theory at once; only one-dimensional quivers with
    n <= 2 fit the exhaustive full-grid enumerations.  Returns a pair of
    booleans (cohomology, ktheory).
    """
    if quiver.n > 2 or quiver.d > 5 or any(a > 1 for a in quiver.dy + quiver.dx):
        raise CapacityError(
            "ratio certificates need every dimension 1 and n <= 2"
        )
    layout = block_layout(quiver)
    rows = [layout.row_var(r) for r in range(1, quiver.d + 1)]
    cols = [layout.col_var(c) for c in range(1, quiver.d + 1)]
    v_om = zelevinsky(quiver, orbit)
    dense = v_star(quiver)
    co = schubert(dense, rows, cols) * multidegree_pipe(quiver, orbit) == schubert(
        v_om, rows, cols
    )
    kk = grothendieck(dense, rows, cols) * kpoly_pipe(quiver, orbit) == grothendieck(
        v_om, rows, cols
    )
    return co, kk


# --- comparing the two theories ---------------------------------------


def k_lowest_part(poly, degree):
    """Bottom graded piece after substituting each variable v -> 1 - v.

    Negative powers expand as geometric series, cut past `degree`; the
    variable names are reused for the shifted variables.  The lowest
    part of a K-polynomial at the orbit codimension is its multidegree.
    """
    total = LaurentPoly.zero()
    for mono, coef in poly.terms.items():
        term = LaurentPoly.const(coef)
        for var, exp in mono:
            x = LaurentPoly.variable(var)
            if exp >= 0:
                factor = (LaurentPoly.one() - x) ** exp
            else:
                factor = LaurentPoly.sum(
                    math.comb(-exp - 1 + j, j) * x ** j for j in range(degree + 1)
                )
            term = (term * factor).truncate(degree)
        total = total + term
    return total.homogeneous_part(degree)
