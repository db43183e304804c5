"""Bipartite type-A quivers, their block layout, orbits, and Zelevinsky permutations.

Vertices are drawn left to right as y_n, x_n, y_{n-1}, ..., y_1, x_1, y_0;
the outermost vertices are sources.  Arrows are beta_k: y_k -> x_k and
alpha_k: y_{k-1} -> x_k.  The d x d block grid lists row blocks
y_0..y_n then x_n..x_1 top to bottom and column blocks x_n..x_1 then
y_0..y_n left to right; the snake region is the union of the arrow
blocks (alpha_k: rows y_{k-1} x cols x_k, beta_k: rows y_k x cols x_k)
and P_* is the rest of the northwest d_y x d_x corner.

Each derived value is computed once and kept by its owner: the quiver
keeps its BlockLayout (intervals, variables, arrow windows, snake, P_*,
v_*), and an OrbitData keeps v(orbit) and W.  Other modules read them.
"""

from __future__ import annotations

from itertools import product

from .perms import PartialPermutation, Perm
from .pipedreams import PipeDream
from .poly import s_var, t_var


class OrbitError(ValueError):
    """Orbit data that cannot come from a lacing diagram of this quiver."""


class BipartiteQuiver:
    """Dimension vectors dy[0..n] for sources and dx[1..n] for sinks.

    >>> Q = BipartiteQuiver((1, 3, 2), (2, 3))
    >>> Q.n, Q.d_y, Q.d_x, Q.d
    (2, 6, 5, 11)
    >>> Q.vertices()[:3]
    ('y2', 'x2', 'y1')
    """

    __slots__ = ("dy", "dx", "n", "_layout")

    def __init__(self, dy, dx):
        dy = tuple(int(a) for a in dy)
        dx = tuple(int(a) for a in dx)
        if len(dy) != len(dx) + 1 or not dx:
            raise ValueError("need dimensions for y_0..y_n and x_1..x_n, n >= 1")
        if any(a < 0 for a in dy + dx):
            raise ValueError("dimensions must be nonnegative")
        object.__setattr__(self, "dy", dy)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "n", len(dx))
        object.__setattr__(self, "_layout", None)  # built by block_layout

    def __setattr__(self, name, value):
        raise AttributeError("BipartiteQuiver is immutable")

    @property
    def d_y(self):
        return sum(self.dy)

    @property
    def d_x(self):
        return sum(self.dx)

    @property
    def d(self):
        return self.d_x + self.d_y

    def dim(self, vertex):
        family, k = vertex[0], int(vertex[1:])
        return self.dy[k] if family == "y" else self.dx[k - 1]

    def position(self, vertex):
        """0-based slot in the left-to-right drawing order."""
        family, k = vertex[0], int(vertex[1:])
        return 2 * (self.n - k) + (1 if family == "x" else 0)

    def vertices(self):
        """All vertices in drawing order, leftmost first."""
        out = []
        for k in range(self.n, 0, -1):
            out.append("y%d" % k)
            out.append("x%d" % k)
        out.append("y0")
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, BipartiteQuiver):
            return NotImplemented
        return (self.dy, self.dx) == (other.dy, other.dx)

    def __hash__(self):
        return hash((self.dy, self.dx))

    def __repr__(self):
        return "BipartiteQuiver(dy=%s, dx=%s)" % (self.dy, self.dx)


class BlockLayout:
    """Block intervals, variables, arrow windows, snake, P_* and v_* of a quiver.

    `windows` holds (absolute rows, absolute columns) of the 2n arrows in
    diagram order w_n, w^n, ..., w_1, w^1.
    """

    # no back reference to the quiver, so the quiver frees its layout by refcount
    __slots__ = (
        "row_order", "col_order", "rows", "cols", "row_vars", "col_vars",
        "windows", "snake", "p_star", "p_star_dream", "v_star",
    )

    def __init__(self, quiver):
        n = quiver.n
        ys = tuple("y%d" % k for k in range(n + 1))
        xs = tuple("x%d" % k for k in range(n, 0, -1))
        row_order, col_order = ys + xs, xs + ys
        rows, cols = _intervals(quiver, row_order), _intervals(quiver, col_order)
        windows = tuple(
            (tuple(_span(rows[source])), tuple(_span(cols["x%d" % k])))
            for k in range(n, 0, -1)
            for source in ("y%d" % k, "y%d" % (k - 1))
        )
        snake = frozenset((r, c) for wr, wc in windows for r in wr for c in wc)
        p_star = frozenset(product(range(1, quiver.d_y + 1), range(1, quiver.d_x + 1))) - snake
        dream = PipeDream(quiver.d_y, quiver.d_x, p_star)
        for name, value in (
            ("row_order", row_order), ("col_order", col_order), ("rows", rows), ("cols", cols),
            ("row_vars", _block_vars(quiver, row_order)),
            ("col_vars", _block_vars(quiver, col_order)),
            ("windows", windows), ("snake", snake), ("p_star", p_star),
            ("p_star_dream", dream), ("v_star", dream.demazure()),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("BlockLayout is immutable")

    def row_var(self, r):
        """t^i_a for a row in block y_i, s^j_b for one in block x_j."""
        if not 1 <= r <= len(self.row_vars):
            raise ValueError("row %d outside the grid" % r)
        return self.row_vars[r - 1]

    def col_var(self, c):
        if not 1 <= c <= len(self.col_vars):
            raise ValueError("column %d outside the grid" % c)
        return self.col_vars[c - 1]


def _span(interval):
    lo, hi = interval
    return range(lo, hi + 1)


def _intervals(quiver, order):
    """Consecutive 1-based (first, last) intervals for the blocks in order."""
    out, at = {}, 1
    for z in order:
        out[z] = (at, at + quiver.dim(z) - 1)
        at += quiver.dim(z)
    return out


def _block_vars(quiver, order):
    """One variable per row or column: t^i_a in block y_i, s^j_b in block x_j."""
    return tuple(
        (t_var if z[0] == "y" else s_var)(int(z[1:]), slot)
        for z in order
        for slot in range(1, quiver.dim(z) + 1)
    )


def block_layout(quiver):
    """The quiver's block layout, built at the first call and kept on the quiver.

    >>> Q = BipartiteQuiver((1, 1), (1,))
    >>> L = block_layout(Q)
    >>> sorted(L.snake), sorted(L.p_star), L is block_layout(Q)
    ([(1, 1), (2, 1)], [], True)
    """
    if quiver._layout is None:
        object.__setattr__(quiver, "_layout", BlockLayout(quiver))
    return quiver._layout


class OrbitData:
    """Lace multiplicities of an orbit: (left vertex, right vertex) -> count.

    Vertex saturation must hold: the laces whose span covers a vertex z,
    endpoints included, number exactly dim(z).  The orbit keeps v(orbit),
    its minimal diagrams W and K-theoretic diagrams KW, and its reduced and
    full northwest dream lists once computed; none of them enters == or hash.
    """

    __slots__ = ("quiver", "laces", "_v", "_w", "_kw", "_rdreams", "_dreams")

    def __init__(self, quiver, laces):
        ends = quiver.vertices()
        clean = {}
        for (left, right), mult in laces.items():
            if left not in ends or right not in ends:
                raise OrbitError("(%s, %s) is not a pair of vertices of the quiver"
                                 % (left, right))
            if mult < 0:
                raise OrbitError("negative multiplicity for (%s, %s)" % (left, right))
            if quiver.position(left) > quiver.position(right):
                raise OrbitError("(%s, %s) is not drawn left to right" % (left, right))
            if mult:
                clean[(left, right)] = int(mult)
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "laces", clean)
        for slot in ("_v", "_w", "_kw", "_rdreams", "_dreams"):
            object.__setattr__(self, slot, None)
        for z in ends:
            have = self.laces_through(z)
            if have != quiver.dim(z):
                raise OrbitError(
                    "%d laces meet %s but dim is %d" % (have, z, quiver.dim(z))
                )

    def derived(self, quiver, slot, compute):
        """compute(quiver, self), kept in `slot` after the first call.

        A quiver other than the orbit's own is an OrbitError.
        """
        if quiver != self.quiver:
            raise OrbitError("the orbit belongs to %r, not to %r" % (self.quiver, quiver))
        value = getattr(self, slot)
        if value is None:
            value = compute(quiver, self)
            object.__setattr__(self, slot, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("OrbitData is immutable")

    def laces_through(self, z):
        pos = self.quiver.position(z)
        return sum(
            mult
            for (left, right), mult in self.laces.items()
            if self.quiver.position(left) <= pos <= self.quiver.position(right)
        )

    def count(self, left, right):
        return self.laces.get((left, right), 0)

    def __eq__(self, other):
        if not isinstance(other, OrbitData):
            return NotImplemented
        return (self.quiver, self.laces) == (other.quiver, other.laces)

    def __hash__(self):
        return hash((self.quiver, tuple(sorted(self.laces.items()))))

    def __repr__(self):
        return "OrbitData(%s)" % (sorted(self.laces.items()),)


def orbit_from_lacing(quiver, w):
    """Decompose a lacing diagram into laces and count endpoint pairs.

    `w` lists one partial permutation per arrow, ordered
    (w_n, w^n, ..., w_1, w^1); w_k is the beta_k matrix (dy_k x dx_k)
    and w^k the alpha_k matrix (dy_{k-1} x dx_k).
    """
    parent = {}
    for z in quiver.vertices():
        for i in range(1, quiver.dim(z) + 1):
            parent[(z, i)] = (z, i)

    def find(dot):
        while parent[dot] != dot:
            parent[dot] = parent[parent[dot]]
            dot = parent[dot]
        return dot

    def union(a, b):
        parent[find(a)] = find(b)

    w = tuple(w)
    windows = block_layout(quiver).windows
    if len(w) != len(windows):
        raise ValueError("expected %d matrices, got %d" % (len(windows), len(w)))
    for g, (mat, (rows, cols)) in enumerate(zip(w, windows)):
        k = quiver.n - g // 2
        kind, source = ("alpha", "y%d" % (k - 1)) if g % 2 else ("beta", "y%d" % k)
        if (mat.rows, mat.cols) != (len(rows), len(cols)):
            raise ValueError("%s_%d matrix must be %dx%d" % (kind, k, len(rows), len(cols)))
        for r, c in mat.ones():
            union((source, r), ("x%d" % k, c))

    components = {}
    for dot in parent:
        components.setdefault(find(dot), []).append(dot)
    laces = {}
    for dots in components.values():
        ordered = sorted(dots, key=lambda dot: quiver.position(dot[0]))
        pair = (ordered[0][0], ordered[-1][0])
        laces[pair] = laces.get(pair, 0) + 1
    return OrbitData(quiver, laces)


def zelevinsky(quiver, orbit):
    """The Zelevinsky permutation of an orbit, as a d x d permutation.

    Block (row z, column z') holds the number of laces with endpoints
    exactly (z, z') when z is weakly left of z', the number of laces
    passing over the gap between z' and z when z sits one step to the
    right of z', and 0 otherwise.  Within a block row the nonzero blocks
    fill consecutive rows left to right; within a block column,
    consecutive columns top to bottom; each block carries an identity.
    The orbit keeps the permutation from the first call on.
    """
    return orbit.derived(quiver, "_v", _assemble_zelevinsky)


def _assemble_zelevinsky(quiver, orbit):
    layout = block_layout(quiver)
    counts = {}
    for a in layout.row_order:
        for b in layout.col_order:
            pa, pb = quiver.position(a), quiver.position(b)
            if pa <= pb:
                counts[(a, b)] = orbit.count(a, b)
            elif pa == pb + 1:
                counts[(a, b)] = sum(
                    mult
                    for (left, right), mult in orbit.laces.items()
                    if quiver.position(left) <= pb and quiver.position(right) >= pa
                )
            else:
                counts[(a, b)] = 0

    block_rows, block_cols = {}, {}
    for a in layout.row_order:
        at = layout.rows[a][0]
        for b in layout.col_order:
            c = counts[(a, b)]
            block_rows[(a, b)] = range(at, at + c)
            at += c
        if at != layout.rows[a][1] + 1:
            raise OrbitError("block row %s holds %d laces, dim is %d"
                             % (a, at - layout.rows[a][0], quiver.dim(a)))
    for b in layout.col_order:
        at = layout.cols[b][0]
        for a in layout.row_order:
            c = counts[(a, b)]
            block_cols[(a, b)] = range(at, at + c)
            at += c
        if at != layout.cols[b][1] + 1:
            raise OrbitError("block column %s holds %d laces, dim is %d"
                             % (b, at - layout.cols[b][0], quiver.dim(b)))

    line = [0] * quiver.d
    for key, rows in block_rows.items():
        for r, c in zip(rows, block_cols[key]):
            line[r - 1] = c
    if sorted(line) != list(range(1, quiver.d + 1)):
        raise OrbitError("block counts do not assemble into a permutation")
    return Perm(line)


def p_star_dream(quiver):
    return block_layout(quiver).p_star_dream


def v_star(quiver):
    """Demazure product of the dream filling everything outside the snake.

    >>> v_star(BipartiteQuiver((1, 1), (1,)))
    Perm(())
    """
    return block_layout(quiver).v_star


def codim(quiver, orbit):
    """Length drop from the orbit's permutation to the dense one."""
    return zelevinsky(quiver, orbit).length() - v_star(quiver).length()


# --- JSON input --------------------------------------------------------


def _expect(kind, value, what):
    """`value` if it is of the JSON kind (list or dict), else ValueError."""
    if not isinstance(value, kind):
        raise ValueError("%s must be a JSON %s" % (what, "list" if kind is list else "object"))
    return value


def _integer(value, what):
    """`value` if it is a JSON integer (true and false are not), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be a JSON integer, not %r" % (what, value))
    return value


def quiver_from_json(obj):
    """Build (quiver, orbit) from the CLI input schema."""
    try:
        n = _integer(obj["n"], "n")
        dy = [_integer(a, "dy") for a in _expect(list, obj["dy"], "dy")]
        dx = [_integer(a, "dx") for a in _expect(list, obj["dx"], "dx")]
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError("input needs integer n and lists dy, dx: %s" % err)
    if n != len(dx):
        raise ValueError("n=%d but %d sink dimensions given" % (n, len(dx)))
    quiver = BipartiteQuiver(dy, dx)
    entry = obj.get("orbit")
    if entry is None:
        raise ValueError("input needs an 'orbit' entry")
    orbit = None
    try:
        if "lacing" in entry:
            mats = [
                PartialPermutation(_expect(list, m, "a lacing matrix"))
                for m in _expect(list, entry["lacing"], "'lacing'")
            ]
            orbit = orbit_from_lacing(quiver, mats)
        if "multiplicities" in entry:
            laces = {}
            for key, mult in _expect(dict, entry["multiplicities"], "'multiplicities'").items():
                left, _, right = key.partition(",")
                laces[(left.strip(), right.strip())] = _integer(mult, "a multiplicity")
            by_mult = OrbitData(quiver, laces)
            if orbit is not None and orbit.laces != by_mult.laces:
                raise ValueError("'lacing' and 'multiplicities' disagree")
            orbit = by_mult
    except TypeError as err:
        raise ValueError("malformed orbit: %s" % err) from err
    if orbit is None:
        raise ValueError("orbit needs either 'lacing' or 'multiplicities'")
    return quiver, orbit


__all__ = [
    "BipartiteQuiver",
    "BlockLayout",
    "OrbitData",
    "OrbitError",
    "block_layout",
    "codim",
    "orbit_from_lacing",
    "p_star_dream",
    "quiver_from_json",
    "v_star",
    "zelevinsky",
]
