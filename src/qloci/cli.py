"""Batch front end: quiver/orbit JSON in, computations and reports out.

Commands
    zelevinsky  permutation, lengths, codimension, block matrix
    invariant   multidegree or K-polynomial, by either or both routes
    enumerate   the sets of dreams, diagrams, and window tuples
    verify      property sweeps with a machine-readable JSON report
    render      picture of the input diagram, or of the forced dream

Input is a JSON object {"n": .., "dy": [..], "dx": [..], "orbit": ..}
where the orbit gives "lacing" (2n 0/1 matrices, order w_n, w^n, ...,
w_1, w^1) or "multiplicities" ({"y2,y0": 1, ...}); giving both is
allowed when they agree.

Exit codes: 0 success, 2 invalid input, 3 over capacity, 4 a
verification failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import lacing as lacing_mod
from . import pipedreams as pipedreams_mod
from .factorization import (
    pipe_fibers,
    seqperm_closure,
    window_grids,
    x_omega,
    x_omega_by_factorization,
    x_omega_red,
)
from .formulas import (
    kpoly_component,
    kpoly_pipe,
    multidegree_component,
    multidegree_pipe,
    ratio_check,
)
from .lacing import all_orbits, crossings, enum_KW, enum_W, truncate
from .perms import PartialPermutation
from .pipedreams import (
    CAPACITY_ENV,
    DEFAULT_CAPACITY,
    CapacityError,
    capacity_limit,
    enum_pipes,
    enum_pipes_by_subsets,
    enum_rpipes,
)
from .quiver import (
    BipartiteQuiver,
    OrbitData,
    block_layout,
    codim,
    p_star_dream,
    quiver_from_json,
    v_star,
    zelevinsky,
)

SETS = ("rpipes", "pipes", "wmin", "kw", "xomega")
SUITES = ("component", "pipe", "bijections", "codim", "ratio")


# --- input and serialization helpers ----------------------------------


def _read_json(path):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return json.loads(text)


def _free_cells(quiver):
    return quiver.d_y * quiver.d_x - len(block_layout(quiver).p_star)


def _guard(quiver):
    free = _free_cells(quiver)
    if free > capacity_limit():
        raise CapacityError(
            "%d optional snake cells exceed the budget of %d"
            % (free, capacity_limit())
        )


def _perm_json(v):
    return list(v.one_line(v.size))


def _diagram_json(w):
    return [[list(row) for row in u.matrix] for u in w]


def _dream_json(P):
    return [list(cell) for cell in sorted(P.crosses)]


# --- commands ----------------------------------------------------------


def cmd_zelevinsky(args):
    quiver, orbit = quiver_from_json(_read_json(args.input))
    v = zelevinsky(quiver, orbit)
    dense = v_star(quiver)
    cd = v.length() - dense.length()
    if args.format == "json":
        print(
            json.dumps(
                {
                    "v": list(v.one_line(quiver.d)),
                    "length": v.length(),
                    "v_star": list(dense.one_line(quiver.d)),
                    "length_star": dense.length(),
                    "codim": cd,
                }
            )
        )
        return 0
    line = ",".join(str(a) for a in v.one_line(quiver.d))
    print("(%s), len=%d, codim=%d" % (line, v.length(), cd))
    star = ",".join(str(a) for a in dense.one_line(quiver.d))
    print("v_* = (%s), len=%d" % (star, dense.length()))
    print(_block_matrix_text(quiver, v))
    return 0


def _block_matrix_text(quiver, v):
    layout = block_layout(quiver)
    M = v.matrix(quiver.d)
    col_breaks = {layout.cols[z][1] for z in layout.col_order}
    row_breaks = {layout.rows[z][1] for z in layout.row_order}
    lines = []
    for r in range(1, quiver.d + 1):
        cells = []
        for c in range(1, quiver.d + 1):
            cells.append("1" if M[r - 1][c - 1] else ".")
            if c in col_breaks and c < quiver.d:
                cells.append("|")
        lines.append(" ".join(cells))
        if r in row_breaks and r < quiver.d:
            lines.append("-" * len(lines[-1]))
    return "\n".join(lines)


def cmd_invariant(args):
    quiver, orbit = quiver_from_json(_read_json(args.input))
    _guard(quiver)
    routes = {
        ("multidegree", "pipe"): multidegree_pipe,
        ("multidegree", "component"): multidegree_component,
        ("kpolynomial", "pipe"): kpoly_pipe,
        ("kpolynomial", "component"): kpoly_component,
    }
    if args.method != "both":
        value = routes[(args.type, args.method)](quiver, orbit)
        if args.format == "json":
            print(
                json.dumps(
                    {"type": args.type, "method": args.method, "value": str(value)}
                )
            )
        else:
            print(value)
        return 0
    by_pipe = routes[(args.type, "pipe")](quiver, orbit)
    by_comp = routes[(args.type, "component")](quiver, orbit)
    equal = by_pipe == by_comp
    if args.format == "json":
        print(
            json.dumps(
                {
                    "type": args.type,
                    "pipe": str(by_pipe),
                    "component": str(by_comp),
                    "equal": equal,
                }
            )
        )
    else:
        print("pipe: %s" % by_pipe)
        print("component: %s" % by_comp)
        print("EQUAL" if equal else "UNEQUAL")
    return 0 if equal else 4


def cmd_enumerate(args):
    quiver, orbit = quiver_from_json(_read_json(args.input))
    _guard(quiver)
    v = zelevinsky(quiver, orbit)
    layout = block_layout(quiver)
    if args.set == "rpipes":
        rows = [
            _dream_json(P)
            for P in enum_rpipes(v, quiver.d_y, quiver.d_x, forced=layout.p_star)
        ]
    elif args.set == "pipes":
        rows = [
            _dream_json(P)
            for P in enum_pipes(v, quiver.d_y, quiver.d_x, forced=layout.p_star)
        ]
    elif args.set == "wmin":
        rows = [_diagram_json(w) for w in sorted(enum_W(quiver, orbit))]
    elif args.set == "kw":
        rows = [_diagram_json(w) for w in sorted(enum_KW(quiver, orbit))]
    else:
        rows = [
            [_perm_json(u) for u in tup] for tup in sorted(x_omega(quiver, orbit))
        ]
    if args.format == "json":
        print(json.dumps({"set": args.set, "count": len(rows), "items": rows}))
    else:
        print("count: %d" % len(rows))
        for row in rows:
            print(json.dumps(row))
    return 0


def cmd_render(args):
    obj = _read_json(args.input)
    quiver, _ = quiver_from_json(obj)
    entry = obj["orbit"]
    if "lacing" in entry:
        w = tuple(PartialPermutation(m) for m in entry["lacing"])
        if args.format == "svg":
            print(lacing_mod.render_svg(quiver, w))
        elif args.format == "json":
            print(json.dumps({"lacing": _diagram_json(w)}))
        else:
            print(lacing_mod.render_ascii(quiver, w))
        return 0
    P = p_star_dream(quiver)
    if args.format == "svg":
        print(pipedreams_mod.render_svg(P))
    elif args.format == "json":
        print(json.dumps({"dream": _dream_json(P)}))
    else:
        print(pipedreams_mod.render_ascii(P))
    return 0


# --- verification suites ----------------------------------------------


def _check_codim(quiver, orbit):
    cd = codim(quiver, orbit)
    bad = [w for w in enum_W(quiver, orbit) if crossings(w) != cd]
    if bad:
        return "fail: %d minimal diagrams miss codimension %d" % (len(bad), cd)
    return "pass"


def _check_component(quiver, orbit):
    if multidegree_pipe(quiver, orbit) != multidegree_component(quiver, orbit):
        return "fail: multidegree routes disagree"
    if kpoly_pipe(quiver, orbit) != kpoly_component(quiver, orbit):
        return "fail: K-polynomial routes disagree"
    return "pass"


def _check_pipe(quiver, orbit):
    layout = block_layout(quiver)
    v = zelevinsky(quiver, orbit)
    dreams = enum_pipes(v, quiver.d_y, quiver.d_x, forced=layout.p_star)
    for P in dreams:
        if not layout.p_star <= P.crosses:
            return "fail: a dream drops forced cells"
        if P.demazure() != v or P.demazure_by_columns() != v:
            return "fail: row and column readings disagree"
    note = ""
    try:
        oracle = enum_pipes_by_subsets(
            v, quiver.d_y, quiver.d_x, forced=layout.p_star
        )
        if dreams != oracle:
            return "fail: walk and subset enumerations differ"
    except CapacityError:
        note = " (subset oracle skipped: capacity)"
    return "pass" + note


def _check_bijections(quiver, orbit):
    layout = block_layout(quiver)
    v = zelevinsky(quiver, orbit)
    rdreams = enum_rpipes(v, quiver.d_y, quiver.d_x, forced=layout.p_star)
    fibers = pipe_fibers(quiver, orbit, reduced=True)
    if set(fibers) != enum_W(quiver, orbit):
        return "fail: reduced fibers miss some minimal diagrams"
    if sum(len(part) for part in fibers.values()) != len(rdreams):
        return "fail: reduced fibers do not partition the dreams"
    dreams = enum_pipes(v, quiver.d_y, quiver.d_x, forced=layout.p_star)
    X = x_omega(quiver, orbit)
    grids = window_grids(quiver)
    total = 0
    for tup in X:
        factor = 1
        for u, (R, C) in zip(tup, grids):
            factor *= len(enum_pipes(u, R, C))
        total += factor
    if total != len(dreams):
        return "fail: window counting identity is off"
    kw = enum_KW(quiver, orbit)
    if {truncate(quiver, tup) for tup in X} != kw or len(X) != len(kw):
        return "fail: truncation is not a bijection onto the K-diagrams"
    if seqperm_closure(quiver, x_omega_red(quiver, orbit)) != X:
        return "fail: move closure misses part of the window set"
    note = ""
    try:
        if x_omega_by_factorization(quiver, orbit) != X:
            return "fail: factorization filter disagrees"
    except CapacityError:
        note = " (factorization filter skipped: capacity)"
    return "pass" + note


def _check_ratio(quiver, orbit):
    try:
        co, kk = ratio_check(quiver, orbit)
    except CapacityError:
        return "skipped: capacity"
    if co and kk:
        return "pass"
    bad = [name for name, ok in (("degree", co), ("K-class", kk)) if not ok]
    return "fail: %s ratio off" % " and ".join(bad)


_CHECKS = {
    "codim": _check_codim,
    "component": _check_component,
    "pipe": _check_pipe,
    "bijections": _check_bijections,
    "ratio": _check_ratio,
}


def _run_instance(payload):
    dy, dx, laces, suites = payload
    quiver = BipartiteQuiver(dy, dx)
    orbit = OrbitData(quiver, dict(laces))
    return {name: _CHECKS[name](quiver, orbit) for name in suites}


def _sweep_instances(max_n, max_dim):
    out = []
    for n in range(1, max_n + 1):
        dims = range(1, max_dim + 1)
        for dy in itertools.product(dims, repeat=n + 1):
            for dx in itertools.product(dims, repeat=n):
                quiver = BipartiteQuiver(dy, dx)
                for orbit in all_orbits(quiver):
                    out.append((dy, dx, tuple(sorted(orbit.laces.items()))))
    return out


def cmd_verify(args):
    suites = SUITES if args.suite == "all" else (args.suite,)
    if args.input is not None:
        quiver, orbit = quiver_from_json(_read_json(args.input))
        instances = [
            (quiver.dy, quiver.dx, tuple(sorted(orbit.laces.items())))
        ]
    else:
        instances = _sweep_instances(args.max_n, args.max_dim)
    payloads = [(dy, dx, laces, suites) for dy, dx, laces in instances]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_instance, payloads))
    else:
        results = [_run_instance(p) for p in payloads]
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    rows = []
    for (dy, dx, laces), checks in zip(instances, results):
        for value in checks.values():
            # "pass (... skipped: capacity)" skipped part of its work
            counts["skipped" if "skipped" in value else value.split(":")[0]] += 1
        rows.append(
            {
                "dy": list(dy),
                "dx": list(dx),
                "orbit": {"%s,%s" % pair: mult for pair, mult in laces},
                "checks": checks,
            }
        )
    report = {
        "suite": args.suite,
        "max_n": args.max_n,
        "max_dim": args.max_dim,
        "instances": rows,
        "counts": counts,
        "ok": counts["fail"] == 0,
    }
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 4


# --- argument plumbing -------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qloci",
        description="Exact invariants of bipartite quiver orbit closures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input="-"):
        p.add_argument(
            "--input", default=with_input, help="JSON file, or - for stdin"
        )
        p.add_argument(
            "--format", choices=("text", "json", "svg"), default="text"
        )
        p.add_argument(
            "--jobs", type=int, default=1, help="parallel instances in sweeps"
        )
        p.add_argument(
            "--capacity",
            type=int,
            help="optional-cell budget for exhaustive searches "
            "(env %s; a value at or above the default %d needs "
            "--unsafe-capacity)" % (CAPACITY_ENV, DEFAULT_CAPACITY),
        )
        p.add_argument(
            "--unsafe-capacity",
            action="store_true",
            help="allow a capacity at or above the default",
        )

    z = sub.add_parser("zelevinsky", help="permutation, lengths, block matrix")
    common(z)
    z.set_defaults(func=cmd_zelevinsky)

    inv = sub.add_parser("invariant", help="multidegree or K-polynomial")
    common(inv)
    inv.add_argument(
        "--type", choices=("multidegree", "kpolynomial"), required=True
    )
    inv.add_argument(
        "--method", choices=("pipe", "component", "both"), default="both"
    )
    inv.set_defaults(func=cmd_invariant)

    en = sub.add_parser("enumerate", help="list one of the combinatorial sets")
    common(en)
    en.add_argument("--set", choices=SETS, required=True)
    en.set_defaults(func=cmd_enumerate)

    ver = sub.add_parser("verify", help="run property suites, report JSON")
    common(ver, with_input=None)
    ver.add_argument("--suite", choices=SUITES + ("all",), default="all")
    ver.add_argument("--max-n", type=int, default=2)
    ver.add_argument("--max-dim", type=int, default=2)
    ver.set_defaults(func=cmd_verify)

    ren = sub.add_parser(
        "render", help="draw the input diagram, or the forced dream"
    )
    common(ren)
    ren.set_defaults(func=cmd_render)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "svg" and args.command != "render":
        parser.error("--format svg only applies to render")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    previous = os.environ.get(CAPACITY_ENV)
    try:
        if args.capacity is not None:
            if args.capacity >= DEFAULT_CAPACITY and not args.unsafe_capacity:
                print(
                    "capacity %d is not below the default %d; "
                    "pass --unsafe-capacity to confirm"
                    % (args.capacity, DEFAULT_CAPACITY),
                    file=sys.stderr,
                )
                return 2
            os.environ[CAPACITY_ENV] = str(args.capacity)
        try:
            return args.func(args)
        except CapacityError as err:
            print("capacity: %s" % err, file=sys.stderr)
            return 3
        except (OSError, json.JSONDecodeError, ValueError) as err:
            print("invalid input: %s" % err, file=sys.stderr)
            return 2
    finally:
        if args.capacity is not None:
            if previous is None:
                os.environ.pop(CAPACITY_ENV, None)
            else:
                os.environ[CAPACITY_ENV] = previous


if __name__ == "__main__":
    sys.exit(main())
