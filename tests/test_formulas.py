"""Formula families: micro examples, lemma-level sums, main identities."""

import doctest
import functools
import itertools

from conftest import RUN_CODIM, RUN_W_MIN
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from qloci import formulas as formulas_mod
from qloci.factorization import pipe_fibers
from qloci.formulas import (
    grothendieck,
    grothendieck_lacing,
    k_lowest_part,
    kpoly_component,
    kpoly_pipe,
    multidegree_component,
    multidegree_pipe,
    ratio_check,
    schubert,
    schubert_lacing,
)
from qloci.lacing import all_orbits, enum_KW, enum_W
from qloci.perms import PartialPermutation, Perm
from qloci.pipedreams import CapacityError, enum_pipes_by_subsets
from qloci.poly import LaurentPoly, cross_weight, s_var, t_var
from qloci.quiver import BipartiteQuiver, block_layout, codim, zelevinsky

from test_factorization import SMALL, TINY, orbit_of_dense


def _v(var):
    return LaurentPoly.variable(var)


def test_doctests():
    failed, _ = doctest.testmod(formulas_mod)
    assert failed == 0


# --- single factors ----------------------------------------------------


def test_schubert_identity_is_one():
    assert schubert(Perm.identity(), [], []) == LaurentPoly.one()
    assert grothendieck(Perm.identity(), [], []) == LaurentPoly.one()


def test_schubert_simple_transposition():
    a, b = t_var(0, 1), s_var(1, 1)
    assert schubert(Perm.tau(1), [a], [b]) == _v(a) - _v(b)


def test_schubert_of_partial_matches_completion():
    a = t_var(1, 1)
    b1, b2 = s_var(1, 1), s_var(1, 2)
    w = PartialPermutation([[0, 1]])
    assert w.complete() == Perm((2, 1))
    assert schubert(w, [a], [b1, b2]) == _v(a) - _v(b1)
    assert schubert(w, [a], [b1, b2]) == schubert(w.complete(), [a], [b1])


def test_grothendieck_longest_is_a_plain_product():
    rows = [t_var(1, 1), t_var(1, 2)]
    cols = [s_var(1, 1), s_var(1, 2)]
    expected = LaurentPoly.prod(
        cross_weight(rows[r - 1], cols[c - 1], "ktheory")
        for r, c in [(1, 1), (1, 2), (2, 1)]
    )
    assert grothendieck(Perm((3, 2, 1)), rows, cols) == expected


def test_grothendieck_inclusion_exclusion():
    # tau_2 in a 2x2 grid has two reduced dreams and one doubled one
    rows = [t_var(1, 1), t_var(1, 2)]
    cols = [s_var(1, 1), s_var(1, 2)]
    w12 = cross_weight(rows[0], cols[1], "ktheory")
    w21 = cross_weight(rows[1], cols[0], "ktheory")
    assert grothendieck(Perm((1, 3, 2)), rows, cols) == w12 + w21 - w12 * w21


# --- lacing products ---------------------------------------------------


def test_schubert_lacing_of_the_minimal_diagram(run_quiver):
    got = schubert_lacing(run_quiver, RUN_W_MIN)
    expected = (_v(t_var(1, 3)) - _v(s_var(2, 3))) * (
        _v(t_var(0, 1)) - _v(s_var(1, 2))
    )
    assert got == expected


def test_lacing_product_of_the_dense_diagram(run_quiver):
    from qloci.lacing import truncate

    ids = tuple(Perm.identity() for _ in range(2 * run_quiver.n))
    dense = truncate(run_quiver, ids)
    assert schubert_lacing(run_quiver, dense) == LaurentPoly.one()
    assert grothendieck_lacing(run_quiver, dense) == LaurentPoly.one()


# --- lemma: dreams sum to lacing factors, fiber by fiber ---------------


def test_reduced_fibers_sum_to_schubert_products(run_quiver, run_orbit):
    from qloci.quiver import block_layout

    layout = block_layout(run_quiver)
    fibers = pipe_fibers(run_quiver, run_orbit, reduced=True)
    assert set(fibers) == enum_W(run_quiver, run_orbit)
    for w, dreams in fibers.items():
        total = LaurentPoly.sum(
            LaurentPoly.prod(
                cross_weight(layout.row_var(r), layout.col_var(c), "cohomology")
                for r, c in sorted(P.crosses - layout.p_star)
            )
            for P in dreams
        )
        assert total == schubert_lacing(run_quiver, w)


def test_all_fibers_sum_to_grothendieck_products(run_quiver, run_orbit):
    from qloci.lacing import crossings
    from qloci.quiver import block_layout

    layout = block_layout(run_quiver)
    cd = codim(run_quiver, run_orbit)
    fibers = pipe_fibers(run_quiver, run_orbit, reduced=False)
    assert set(fibers) == enum_KW(run_quiver, run_orbit)
    for w, dreams in fibers.items():
        parts = []
        for P in dreams:
            extra = P.crosses - layout.p_star
            sign = -1 if (len(extra) - cd) % 2 else 1
            parts.append(
                sign
                * LaurentPoly.prod(
                    cross_weight(layout.row_var(r), layout.col_var(c), "ktheory")
                    for r, c in sorted(extra)
                )
            )
        lhs = LaurentPoly.sum(parts)
        sign = -1 if (crossings(w) - cd) % 2 else 1
        assert lhs == sign * grothendieck_lacing(run_quiver, w)


# --- main identities ---------------------------------------------------


def test_multidegree_routes_agree_on_the_running_example(run_quiver, run_orbit):
    pipe = multidegree_pipe(run_quiver, run_orbit)
    comp = multidegree_component(run_quiver, run_orbit)
    assert pipe == comp
    assert pipe
    assert pipe.homogeneous_part(RUN_CODIM) == pipe


def test_kpolynomial_routes_agree_on_the_running_example(run_quiver, run_orbit):
    pipe = kpoly_pipe(run_quiver, run_orbit)
    comp = kpoly_component(run_quiver, run_orbit)
    assert pipe == comp
    # every crossing weight 1 - t/s dies at the all-ones point
    assert pipe.eval({v: 1 for v in pipe.variables()}) == 0


def test_k_lowest_part_micro():
    a, b = t_var(1, 1), s_var(1, 1)
    kw = cross_weight(a, b, "ktheory")
    assert k_lowest_part(kw, 1) == cross_weight(a, b, "cohomology")
    assert k_lowest_part(LaurentPoly.one(), 0) == LaurentPoly.one()
    assert k_lowest_part(LaurentPoly.one(), 1) == LaurentPoly.zero()


def test_k_lowest_part_of_the_running_kpolynomial(run_quiver, run_orbit):
    kp = kpoly_pipe(run_quiver, run_orbit)
    assert k_lowest_part(kp, RUN_CODIM) == multidegree_pipe(run_quiver, run_orbit)


def test_identities_across_all_small_orbits():
    for quiver in SMALL:
        for orbit in all_orbits(quiver):
            cd = codim(quiver, orbit)
            md = multidegree_pipe(quiver, orbit)
            assert md == multidegree_component(quiver, orbit), orbit.laces
            kp = kpoly_pipe(quiver, orbit)
            assert kp == kpoly_component(quiver, orbit), orbit.laces
            assert md.homogeneous_part(cd) == md
            assert k_lowest_part(kp, cd) == md, orbit.laces


SWEEP = tuple(
    BipartiteQuiver(dims[: n + 1], dims[n + 1 :])
    for n in (1, 2)
    for dims in itertools.product((1, 2), repeat=2 * n + 1)
)


@functools.lru_cache(maxsize=None)
def _orbits(quiver):
    return all_orbits(quiver)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SWEEP), st.data())
def test_pipe_routes_match_the_subset_oracle(quiver, data):
    # every northwest grid of the sweep has at most 16 snake cells
    orbit = data.draw(st.sampled_from(_orbits(quiver)))
    layout = block_layout(quiver)
    cd = codim(quiver, orbit)
    dreams = enum_pipes_by_subsets(
        zelevinsky(quiver, orbit), quiver.d_y, quiver.d_x, forced=layout.p_star
    )
    sums = {}
    for mode in ("cohomology", "ktheory"):
        parts = []
        for P in dreams:
            extra = P.crosses - layout.p_star
            if mode == "cohomology" and len(extra) != cd:
                continue
            weight = LaurentPoly.prod(
                cross_weight(layout.row_var(r), layout.col_var(c), mode)
                for r, c in sorted(extra)
            )
            parts.append((-1) ** (len(extra) - cd) * weight)
        sums[mode] = LaurentPoly.sum(parts)
    assert multidegree_pipe(quiver, orbit) == sums["cohomology"]
    assert kpoly_pipe(quiver, orbit) == sums["ktheory"]


def test_dense_orbit_invariants_are_one():
    for quiver in SMALL:
        orbit = orbit_of_dense(quiver)
        assert multidegree_pipe(quiver, orbit) == LaurentPoly.one()
        assert kpoly_pipe(quiver, orbit) == LaurentPoly.one()
        assert multidegree_component(quiver, orbit) == LaurentPoly.one()
        assert kpoly_component(quiver, orbit) == LaurentPoly.one()


# --- the ratio route ---------------------------------------------------


def test_ratio_identities_on_one_dimensional_quivers():
    chain = BipartiteQuiver((1, 1, 1), (1, 1))
    for quiver in (TINY, chain):
        for orbit in all_orbits(quiver):
            assert ratio_check(quiver, orbit) == (True, True), orbit.laces


def test_ratio_check_refuses_fat_dimensions(run_quiver, run_orbit):
    with pytest.raises(CapacityError):
        ratio_check(run_quiver, run_orbit)
    fork = BipartiteQuiver((1, 2), (2,))
    orbit = orbit_of_dense(fork)
    with pytest.raises(CapacityError):
        ratio_check(fork, orbit)
