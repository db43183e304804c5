"""The seven acceptance gates, one printed verdict line each.

Every test prints `[PASS] criterion k: ...` or `[FAIL] ...` with its
runtime against the budget, then asserts both exactness and the budget.
The sweep is every orbit of every bipartite quiver with n <= 2 and all
dimensions <= 2.
"""

import itertools
import math
import time

from qloci.factorization import (
    pipe_fibers,
    seqperm_closure,
    window_grids,
    x_omega,
    x_omega_by_factorization,
    x_omega_red,
)
from qloci.formulas import (
    kpoly_component,
    kpoly_pipe,
    multidegree_component,
    multidegree_pipe,
    ratio_check,
)
from qloci.lacing import all_orbits, crossings, enum_KW, enum_W, truncate
from qloci.pipedreams import (
    CapacityError,
    enum_pipes,
    enum_pipes_by_subsets,
    enum_rpipes,
    enum_rpipes_by_subsets,
)
from qloci.quiver import (
    BipartiteQuiver,
    OrbitData,
    block_layout,
    codim,
    v_star,
    zelevinsky,
)

from test_pipedreams import all_dreams, all_partial_perms

RUN_QUIVER = BipartiteQuiver((1, 3, 2), (2, 3))
RUN_LACES = {("y2", "y0"): 1, ("y2", "y1"): 1, ("x2", "x1"): 1}


def _sweep():
    for n in (1, 2):
        for dy in itertools.product((1, 2), repeat=n + 1):
            for dx in itertools.product((1, 2), repeat=n):
                quiver = BipartiteQuiver(dy, dx)
                for orbit in all_orbits(quiver):
                    yield quiver, orbit


def _verdict(capsys, started, budget, label, ok):
    elapsed = time.time() - started
    ok = ok and elapsed < budget
    with capsys.disabled():
        print(
            "\n[%s] %s (%.1fs of %ds)"
            % ("PASS" if ok else "FAIL", label, elapsed, budget)
        )
    return ok


def test_criterion_1_running_example_reproduction(capsys):
    t0 = time.time()
    orbit = OrbitData(RUN_QUIVER, RUN_LACES)
    v = zelevinsky(RUN_QUIVER, orbit)
    ok = (
        v.one_line(11) == (4, 1, 2, 3, 6, 7, 5, 10, 11, 8, 9)
        and v.length() == 9
        and v_star(RUN_QUIVER).length() == 7
        and codim(RUN_QUIVER, orbit) == 2
    )
    assert _verdict(
        capsys, t0, 1, "criterion 1: running-example reproduction", ok
    )


def test_criterion_2_codimension_formula(capsys):
    t0 = time.time()
    ok = True
    for quiver, orbit in _sweep():
        cd = codim(quiver, orbit)
        if any(crossings(w) != cd for w in enum_W(quiver, orbit)):
            ok = False
            break
    assert _verdict(
        capsys, t0, 600, "criterion 2: crossing counts equal codimension", ok
    )


def test_criterion_3_multidegree_component_formula(capsys):
    t0 = time.time()
    orbit = OrbitData(RUN_QUIVER, RUN_LACES)
    ok = multidegree_pipe(RUN_QUIVER, orbit) == multidegree_component(
        RUN_QUIVER, orbit
    )
    ok = ok and time.time() - t0 < 60
    for quiver, small in _sweep():
        if not ok:
            break
        ok = multidegree_pipe(quiver, small) == multidegree_component(
            quiver, small
        )
    assert _verdict(
        capsys, t0, 1800, "criterion 3: multidegree pipe == component", ok
    )


def test_criterion_4_kpolynomial_component_formula(capsys):
    t0 = time.time()
    orbit = OrbitData(RUN_QUIVER, RUN_LACES)
    ok = kpoly_pipe(RUN_QUIVER, orbit) == kpoly_component(RUN_QUIVER, orbit)
    for quiver, small in _sweep():
        if not ok:
            break
        ok = kpoly_pipe(quiver, small) == kpoly_component(quiver, small)
    assert _verdict(
        capsys, t0, 3600, "criterion 4: K-polynomial pipe == component", ok
    )


def test_criterion_5_ratio_formulas(capsys):
    t0 = time.time()
    ok = True
    for n in (1, 2):
        quiver = BipartiteQuiver((1,) * (n + 1), (1,) * n)
        for orbit in all_orbits(quiver):
            if ratio_check(quiver, orbit) != (True, True):
                ok = False
    assert _verdict(
        capsys, t0, 600, "criterion 5: full-grid ratio identities", ok
    )


def test_criterion_6_bijection_suite(capsys):
    t0 = time.time()
    bad = None
    for quiver, orbit in _sweep():
        layout = block_layout(quiver)
        v = zelevinsky(quiver, orbit)
        rdreams = enum_rpipes(v, quiver.d_y, quiver.d_x, forced=layout.p_star)
        fibers = pipe_fibers(quiver, orbit, reduced=True)
        if set(fibers) != enum_W(quiver, orbit) or sum(
            len(part) for part in fibers.values()
        ) != len(rdreams):
            bad = "fiber partition"
            break
        dreams = enum_pipes(v, quiver.d_y, quiver.d_x, forced=layout.p_star)
        X = x_omega(quiver, orbit)
        grids = window_grids(quiver)
        total = sum(
            math.prod(
                len(enum_pipes(u, R, C)) for u, (R, C) in zip(tup, grids)
            )
            for tup in X
        )
        if total != len(dreams):
            bad = "window counting"
            break
        kw = enum_KW(quiver, orbit)
        if {truncate(quiver, tup) for tup in X} != kw or len(X) != len(kw):
            bad = "truncation bijection"
            break
        try:
            if x_omega_by_factorization(quiver, orbit) != X:
                bad = "factorization filter"
                break
        except CapacityError:
            pass
        if seqperm_closure(quiver, x_omega_red(quiver, orbit)) != X:
            bad = "move closure"
            break
    label = "criterion 6: bijection suite"
    if bad:
        label += " (%s)" % bad
    assert _verdict(capsys, t0, 1800, label, bad is None)


def test_criterion_7_engine_oracles(capsys):
    t0 = time.time()
    ok = True
    for rows in range(1, 5):
        for cols in range(1, 5):
            for P in all_dreams(rows, cols):
                v = P.demazure()
                if P.demazure_by_columns() != v:
                    ok = False
                if len(P) == v.length() and P.trace_pipes() != v.nw_partial(
                    rows, cols
                ):
                    ok = False
    for rows in range(1, 4):
        for cols in range(1, 4):
            for w in all_partial_perms(rows, cols):
                if enum_rpipes(w, rows, cols) != enum_rpipes_by_subsets(
                    w, rows, cols
                ):
                    ok = False
                if enum_pipes(w, rows, cols) != enum_pipes_by_subsets(
                    w, rows, cols
                ):
                    ok = False
    assert _verdict(capsys, t0, 300, "criterion 7: engine oracles", ok)
