"""Lacing diagrams, their completions, and both move systems.

A lacing diagram for an n-arrow-pair quiver is a tuple
(w_n, w^n, ..., w_1, w^1) of partial permutations, one per arrow:
w_k has shape d(y_k) x d(x_k) (beta_k, pointing right) and w^k has
shape d(y_{k-1}) x d(x_k) (alpha_k, pointing left).  Completing every
component gives the extended diagram, a tuple of honest permutations;
moves act there, never on the raw matrices.

Extended drawings hang beta virtual dots below the real column and
alpha virtual dots above it, so the two completions of a shared column
never collide.
"""

from __future__ import annotations

import itertools
import logging
from functools import partial

from .perms import PartialPermutation, Perm, all_partial_perms
from .pipedreams import PipeDream, iter_dreams
from .quiver import BipartiteQuiver, OrbitError, block_layout, orbit_from_lacing, zelevinsky

log = logging.getLogger(__name__)

__all__ = [
    "all_diagrams",
    "all_orbits",
    "crossings",
    "enum_KW",
    "enum_W",
    "enum_W_by_filter",
    "extend",
    "is_minimal",
    "mini_dreams",
    "pi",
    "pipes_to_laces",
    "render_ascii",
    "render_svg",
    "seqperm_neighbors",
    "truncate",
]


def _check_chain(w):
    # adjacent arrows share a column of dots, so shapes must agree there
    for g in range(1, len(w)):
        if g % 2 and w[g].cols != w[g - 1].cols:
            raise ValueError("arrow %d does not share its sink column with arrow %d" % (g, g - 1))
        if g % 2 == 0 and w[g].rows != w[g - 1].rows:
            raise ValueError("arrow %d does not share its source column with arrow %d" % (g, g - 1))
    if len(w) % 2:
        raise ValueError("a diagram lists an even number of arrows")


def extend(w):
    """The completed diagram c(w): componentwise minimal completions.

    Alpha components are rotated before completing, matching the left
    orientation of their arrows.

    >>> extend((PartialPermutation([[0]]), PartialPermutation([[0]])))
    (Perm((2, 1)), Perm((2, 1)))
    >>> extend((PartialPermutation([[1, 0], [0, 1]]),))[0]
    Perm(())
    """
    out = []
    for g, mat in enumerate(w):
        out.append(mat.complete() if g % 2 == 0 else mat.rot().complete())
    return tuple(out)


def truncate(quiver, v):
    """The diagram LD(v) underneath a completed tuple.

    Left inverse of extend: truncate(Q, extend(w)) == w for every
    diagram w of the quiver.

    >>> Q = BipartiteQuiver((1, 1), (1,))
    >>> truncate(Q, (Perm.identity(), Perm.identity()))
    (PartialPermutation([[1]]), PartialPermutation([[1]]))
    """
    v = tuple(v)
    if len(v) != 2 * quiver.n:
        raise ValueError("expected %d permutations, got %d" % (2 * quiver.n, len(v)))
    out = []
    for j, k in enumerate(range(quiver.n, 0, -1)):
        C = quiver.dim("x%d" % k)
        for idx, R in ((2 * j, quiver.dim("y%d" % k)), (2 * j + 1, quiver.dim("y%d" % (k - 1)))):
            if v[idx].size > R + C:
                raise ValueError(
                    "component %d moves a point beyond its %d+%d window" % (idx, R, C)
                )
            part = v[idx].nw_partial(R, C)
            out.append(part if idx % 2 == 0 else part.rot())
    return tuple(out)


def crossings(w):
    """Crossing count of the extended diagram, as total completed length.

    >>> crossings((PartialPermutation([[0]]), PartialPermutation([[0]])))
    2
    >>> crossings((PartialPermutation([[1]]), PartialPermutation([[1]])))
    0
    """
    return sum(u.length() for u in extend(w))


# --- extended-diagram geometry ----------------------------------------


def _column_dims(w):
    dims = [mat.rows if g % 2 == 0 else mat.cols for g, mat in enumerate(w)]
    dims.append(w[-1].rows if w else 0)
    return dims


def _geometry(w):
    """Edges (gap, left height, right height) of the extended drawing.

    Heights grow downward from 1; beta completions place virtual dots at
    heights beyond the real count, alpha completions at heights <= 0.
    """
    _check_chain(w)
    edges = []
    for g, mat in enumerate(w):
        m = mat.rows + mat.cols - mat.rank
        if g % 2 == 0:
            u = mat.complete()
            edges.extend((g, p, u(p)) for p in range(1, m + 1))
        else:
            u = mat.rot().complete()
            R, C = mat.rows, mat.cols
            edges.extend((g, C + 1 - u(p), R + 1 - p) for p in range(1, m + 1))
    return edges


def _strand_data(w):
    """Assign each dot to a strand; report lace endpoint columns per strand."""
    edges = _geometry(w)
    dims = _column_dims(w)
    parent = {}

    def find(dot):
        while parent[dot] != dot:
            parent[dot] = parent[parent[dot]]
            dot = parent[dot]
        return dot

    for g, hl, hr in edges:
        for dot in ((g, hl), (g + 1, hr)):
            parent.setdefault(dot, dot)
        parent[find((g, hl))] = find((g + 1, hr))

    left, right = {}, {}
    for col, h in parent:
        if not 1 <= h <= dims[col]:
            continue  # virtual dots do not carry lace endpoints
        root = find((col, h))
        left[root] = min(left.get(root, col), col)
        right[root] = max(right.get(root, col), col)
    return edges, find, left, right


def is_minimal(w):
    """Whether the diagram has the fewest crossings in its orbit.

    Strand test: no two extended strands cross twice, and no two
    crossing strands have laces starting in the same column or ending in
    the same column.  The orbit-minimum definition is the test oracle.
    """
    w = tuple(w)
    edges, find, left, right = _strand_data(w)
    by_gap = {}
    for g, hl, hr in edges:
        by_gap.setdefault(g, []).append((hl, hr))
    counts = {}
    for g, bunch in by_gap.items():
        for (al, ar), (bl, br) in itertools.combinations(bunch, 2):
            if (al - bl) * (ar - br) < 0:
                pair = tuple(sorted((find((g, al)), find((g, bl)))))
                counts[pair] = counts.get(pair, 0) + 1
    for (s1, s2), c in counts.items():
        if c >= 2:
            return False
        if left[s1] == left[s2] or right[s1] == right[s2]:
            return False
    return True


# --- pipe dreams to diagrams ------------------------------------------


def _check_nw(quiver, P):
    if (P.rows, P.cols) != (quiver.d_y, quiver.d_x):
        raise ValueError(
            "dream is %dx%d, northwest grid is %dx%d"
            % (P.rows, P.cols, quiver.d_y, quiver.d_x)
        )
    layout = block_layout(quiver)
    if not layout.p_star <= P.crosses:
        raise ValueError("dream must contain every cross of the dense dream")
    return layout


def mini_dreams(quiver, P):
    """Snake-block restrictions of a northwest dream, relative coordinates.

    Listed (P_n, P^n, ..., P_1, P^1) to line up with diagram components.
    """
    layout = _check_nw(quiver, P)
    minis = []
    for k in range(quiver.n, 0, -1):
        for rows, cols in (layout.beta_block(k), layout.alpha_block(k)):
            cells = [
                (a, b)
                for a, r in enumerate(rows, 1)
                for b, c in enumerate(cols, 1)
                if (r, c) in P
            ]
            minis.append(PipeDream(len(rows), len(cols), cells))
    return tuple(minis)


def pipes_to_laces(quiver, P):
    """The diagram w(P): componentwise pipe traces of the mini dreams."""
    out = []
    for g, mini in enumerate(mini_dreams(quiver, P)):
        if g % 2 == 0:
            out.append(mini.trace_pipes())
        else:
            out.append(mini.rotated().trace_pipes().rot())
    return tuple(out)


def pi(quiver, P):
    """The completed tuple pi(P): componentwise Demazure products."""
    out = []
    for g, mini in enumerate(mini_dreams(quiver, P)):
        out.append(mini.demazure() if g % 2 == 0 else mini.rotated().demazure())
    return tuple(out)


# --- moves -------------------------------------------------------------
#
# A site names two adjacent dots in a middle column; the site ranges keep
# both of them real.  Each side of the site carries a mark, on when the
# partner strands cross there.  Both marks off admits no move; otherwise
# the three forms (a) = beta mark only, (b) = alpha mark only and
# (c) = both marks are exchanged: (a) <-> (b) are the reduced moves and
# transitions involving (c) are K-theoretic.

_FORMS = ((True, False), (False, True), (True, True))


def _sites(quiver):
    for i in range(1, quiver.n + 1):
        for k in range(1, quiver.dim("x%d" % i)):
            yield (1, i, k)
    for i in range(1, quiver.n):
        for l in range(1, quiver.dim("y%d" % i)):
            yield (2, i, l)


def _moves(quiver, v, ktheory):
    """Yield (site, outer_dots_ok, moved tuple) over all admissible moves."""
    n = quiver.n
    for site in _sites(quiver):
        part, i, j = site
        if part == 1:
            b, a = 2 * (n - i), 2 * (n - i) + 1
            C = quiver.dim("x%d" % i)
            vb_inv, va_inv = v[b].inverse(), v[a].inverse()
            pb = (vb_inv(j), vb_inv(j + 1))
            pa = (va_inv(C - j), va_inv(C + 1 - j))
            ok = min(pb) <= quiver.dim("y%d" % i) and min(pa) <= quiver.dim("y%d" % (i - 1))
            cur = (pb[0] > pb[1], pa[0] > pa[1])
            flip_b = lambda u: u.tau_times(j)
            flip_a = lambda u: u.tau_times(C - j)
        else:
            b, a = 2 * (n - i), 2 * (n - i) - 1
            R = quiver.dim("y%d" % i)
            qb = (v[b](j), v[b](j + 1))
            qa = (v[a](R - j), v[a](R + 1 - j))
            ok = min(qb) <= quiver.dim("x%d" % i) and min(qa) <= quiver.dim("x%d" % (i + 1))
            cur = (qb[0] > qb[1], qa[0] > qa[1])
            flip_b = lambda u: u.times_tau(j)
            flip_a = lambda u: u.times_tau(R - j)
        if cur == (False, False):
            continue
        if ktheory:
            targets = [f for f in _FORMS if f != cur]
        elif cur == (True, True):
            targets = []
        else:
            targets = [f for f in _FORMS[:2] if f != cur]
        for form in targets:
            out = list(v)
            if form[0] != cur[0]:
                out[b] = flip_b(out[b])
            if form[1] != cur[1]:
                out[a] = flip_a(out[a])
            yield site, ok, tuple(out)


def seqperm_neighbors(quiver, v, ktheory=True):
    """One-move neighbors of a completed tuple, forms (a)/(b)/(c) everywhere.

    Pure descent-pattern moves; the diagram-level closures additionally
    require a real dot in each outer column and a completed result.
    """
    return {moved for _site, _ok, moved in _moves(quiver, tuple(v), ktheory)}


def _diagram_step(quiver, w, ktheory):
    out = set()
    for site, ok, moved in _moves(quiver, extend(w), ktheory):
        if not ok:
            log.warning("move at site %r dropped: every outer dot is virtual", (site,))
            continue
        w2 = truncate(quiver, moved)
        if extend(w2) != moved:
            log.warning("move at site %r dropped: result is not a completed diagram", (site,))
            continue
        out.add(w2)
    return out


def _closure(seeds, step):
    """Everything reachable from the seeds by repeated steps."""
    seen = set(seeds)
    queue = list(seen)
    while queue:
        for w2 in step(queue.pop()):
            if w2 not in seen:
                seen.add(w2)
                queue.append(w2)
    return frozenset(seen)


# --- the sets W and KW -------------------------------------------------


def enum_W(quiver, orbit):
    """Minimal diagrams of the orbit, as a reduced-move closure.

    The seed is the diagram of the first reduced northwest dream for
    v(orbit) that the pipe-dream walk reaches; enum_W_by_filter
    recomputes the set without moves.
    """
    v_om = zelevinsky(quiver, orbit)
    layout = block_layout(quiver)
    dream = next(iter_dreams(v_om, quiver.d_y, quiver.d_x, forced=layout.p_star), None)
    if dream is None:
        raise OrbitError("no reduced northwest dream reaches the orbit permutation")
    seed = pipes_to_laces(quiver, dream)
    return _closure({seed}, partial(_diagram_step, quiver, ktheory=False))


def enum_W_by_filter(quiver, orbit):
    """Minimal diagrams by brute force: filter the orbit by crossing count."""
    pool = [w for w in all_diagrams(quiver) if orbit_from_lacing(quiver, w) == orbit]
    if not pool:
        raise OrbitError("no lacing diagram realizes this orbit data")
    best = min(crossings(w) for w in pool)
    return frozenset(w for w in pool if crossings(w) == best)


def enum_KW(quiver, orbit):
    """K-theoretic closure of the minimal diagrams.

    Members beyond enum_W may carry different lace data; only the set is
    attached to the orbit, not each diagram.
    """
    return _closure(enum_W(quiver, orbit), partial(_diagram_step, quiver, ktheory=True))


def all_diagrams(quiver):
    """Every lacing diagram of the quiver, componentwise enumeration."""
    pools = []
    for k in range(quiver.n, 0, -1):
        C = quiver.dim("x%d" % k)
        pools.append(tuple(all_partial_perms(quiver.dim("y%d" % k), C)))
        pools.append(tuple(all_partial_perms(quiver.dim("y%d" % (k - 1)), C)))
    return itertools.product(*pools)


def all_orbits(quiver):
    """Every orbit of the quiver, reached from the lacing side, sorted."""
    seen = {}
    for w in all_diagrams(quiver):
        orbit = orbit_from_lacing(quiver, w)
        seen.setdefault(tuple(sorted(orbit.laces.items())), orbit)
    return [seen[key] for key in sorted(seen)]


# --- rendering ---------------------------------------------------------

_SPACING = 6


def _drawing(w):
    """Dots and edges with drawing coordinates: (x, height) pairs."""
    edges = _geometry(w)
    dims = _column_dims(w)
    dots = {}
    for g, hl, hr in edges:
        dots[(g, hl)] = 1 <= hl <= dims[g]
        dots[(g + 1, hr)] = 1 <= hr <= dims[g + 1]
    return edges, dots


def render_ascii(quiver, w):
    """Plain-text extended diagram; real dots o, virtual dots *."""
    w = tuple(w)
    edges, dots = _drawing(w)
    heights = [h for _, h in dots] or [1]
    lo, hi = min(heights), max(heights)
    width = 2 * quiver.n * _SPACING + 1
    canvas = {}
    for g, hl, hr in edges:
        for step in range(1, _SPACING):
            x = g * _SPACING + step
            y = round(hl + (hr - hl) * step / _SPACING)
            mark = "-" if hr == hl else ("\\" if hr > hl else "/")
            canvas[(x, y)] = "X" if canvas.get((x, y), mark) != mark else mark
    for (col, h), real in dots.items():
        canvas[(col * _SPACING, h)] = "o" if real else "*"
    header = [" "] * (width + 2)
    for col in range(2 * quiver.n + 1):
        k = quiver.n - col // 2
        label = "y%d" % k if col % 2 == 0 else "x%d" % k
        for off, ch in enumerate(label):
            header[col * _SPACING + off] = ch
    lines = ["".join(header).rstrip()]
    for y in range(lo, hi + 1):
        lines.append("".join(canvas.get((x, y), " ") for x in range(width)).rstrip())
    return "\n".join(line for line in lines) + "\n"


def render_svg(quiver, w, cell=36):
    """Self-contained SVG of the extended diagram; virtual dots in red."""
    w = tuple(w)
    edges, dots = _drawing(w)
    heights = [h for _, h in dots] or [1]
    lo, hi = min(heights), max(heights)
    pad = cell

    def at(col, h):
        return pad + col * 2 * cell, pad + (h - lo) * cell

    width = pad * 2 + 4 * quiver.n * cell
    height = pad * 2 + (hi - lo) * cell
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height)
    ]
    for g, hl, hr in edges:
        (x1, y1), (x2, y2) = at(g, hl), at(g + 1, hr)
        parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black" stroke-width="2"/>'
            % (x1, y1, x2, y2)
        )
    for (col, h), real in sorted(dots.items()):
        x, y = at(col, h)
        parts.append(
            '<circle cx="%d" cy="%d" r="5" fill="%s"/>' % (x, y, "black" if real else "red")
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
