"""Pipe dreams on rectangular grids.

A pipe dream on a k x l grid is a set of crossing tiles; every other
cell holds an elbow.  The reading word lists tau_{r+c-1} for each cross,
rows top to bottom and right to left within a row, and its 0-Hecke
evaluation is the Demazure product of the dream.  Pipes enter from the
west wall (rows, labelled 1..k top to bottom) and the south wall
(labelled k+1..k+l left to right); a cross lets both pipes pass
straight through, an elbow turns west-bound traffic north and
south-bound traffic east.
"""

from __future__ import annotations

import os

import numpy as np

from .perms import PartialPermutation, Perm, prefix_ceilings, row_leq
from .poly import LaurentPoly

DEFAULT_CAPACITY = 26
CAPACITY_ENV = "QLOCI_CAPACITY_CELLS"


class CapacityError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the cell budget."""


def capacity_limit():
    raw = os.environ.get(CAPACITY_ENV)
    if raw is None:
        return DEFAULT_CAPACITY
    return int(raw)


class PipeDream:
    """Immutable set of crosses on a rows x cols grid.

    >>> PipeDream(2, 2, [(1, 1)]).demazure()
    Perm((2, 1))
    >>> PipeDream(2, 2, []).demazure()
    Perm(())
    """

    __slots__ = ("rows", "cols", "crosses")

    def __init__(self, rows, cols, crosses=()):
        crosses = frozenset(crosses)
        for r, c in crosses:
            if not (1 <= r <= rows and 1 <= c <= cols):
                raise ValueError("cross (%d,%d) outside %dx%d grid" % (r, c, rows, cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "crosses", crosses)

    def __setattr__(self, name, value):
        raise AttributeError("PipeDream is immutable")

    def __len__(self):
        return len(self.crosses)

    def __contains__(self, cell):
        return cell in self.crosses

    def key(self):
        return (self.rows, self.cols, tuple(sorted(self.crosses)))

    def __eq__(self, other):
        if not isinstance(other, PipeDream):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        return "PipeDream(%d, %d, %s)" % (self.rows, self.cols, sorted(self.crosses))

    def rotated(self):
        """The grid turned half a revolution.

        >>> PipeDream(1, 2, [(1, 2)]).rotated()
        PipeDream(1, 2, [(1, 1)])
        """
        return PipeDream(
            self.rows,
            self.cols,
            {(self.rows + 1 - r, self.cols + 1 - c) for r, c in self.crosses},
        )

    def reading_word(self):
        word = []
        for r in range(1, self.rows + 1):
            for c in range(self.cols, 0, -1):
                if (r, c) in self.crosses:
                    word.append(r + c - 1)
        return word

    def demazure(self):
        """0-Hecke evaluation of the reading word."""
        return Perm.from_word(self.reading_word())

    def demazure_by_columns(self):
        """Same product, read down the rightmost column first.

        >>> P = PipeDream(2, 3, [(1, 1), (1, 3), (2, 2)])
        >>> P.demazure_by_columns() == P.demazure()
        True
        """
        word = []
        for c in range(self.cols, 0, -1):
            for r in range(1, self.rows + 1):
                if (r, c) in self.crosses:
                    word.append(r + c - 1)
        return Perm.from_word(word)

    def is_reduced(self):
        return len(self.crosses) == self.demazure().length()

    # --- pipe tracing --------------------------------------------------

    def _route(self, crosses):
        """Walk every pipe; return (west exits, crossing pairs per cell).

        west[i] = ("N", col) or ("E", row) for the pipe entering west row i;
        meets[cell] = (west-to-east pipe, south-to-north pipe) at each cross.
        """
        passing = {}

        def walk(label, r, c, heading):
            while True:
                crossed = (r, c) in crosses
                if crossed:
                    passing.setdefault((r, c), {})[heading] = label
                if heading == "E":
                    if not crossed:
                        heading = "N"
                elif not crossed:
                    heading = "E"
                if heading == "E":
                    if c == self.cols:
                        return ("E", r)
                    c += 1
                else:
                    if r == 1:
                        return ("N", c)
                    r -= 1

        west = {}
        for i in range(1, self.rows + 1):
            west[i] = walk(i, i, 1, "E")
        for j in range(1, self.cols + 1):
            walk(self.rows + j, self.rows, j, "N")
        meets = {cell: (d["E"], d["N"]) for cell, d in passing.items()}
        return west, meets

    def trace_pipes(self):
        """Partial permutation matching west entries to north exits.

        While some pair of pipes crosses more than once, the offending
        tile closest to the northeast corner is deleted and the pipes
        rerouted; the surviving connections give the matrix.

        >>> PipeDream(2, 3, []).trace_pipes().matrix
        ((1, 0, 0), (0, 1, 0))
        >>> PipeDream(1, 1, [(1, 1)]).trace_pipes().matrix
        ((0,),)
        """
        crosses = set(self.crosses)
        while True:
            west, meets = self._route(crosses)
            tally = {}
            for cell, pair in meets.items():
                tally.setdefault(frozenset(pair), []).append(cell)
            surplus = [
                cell
                for pair, cells in tally.items()
                if len(cells) > 1
                for cell in cells
            ]
            if not surplus:
                break
            crosses.remove(min(surplus, key=lambda cell: (cell[0], -cell[1])))
        pairs = [
            (i, where)
            for i, (side, where) in west.items()
            if side == "N" and where <= self.cols and i <= self.rows
        ]
        return PartialPermutation.from_pairs(self.rows, self.cols, pairs)


# --- grid embeddings ---------------------------------------------------


def nw_restricted(P, rows, cols):
    """The same crosses on a rows x cols grid.

    Shrinking past a cross raises ValueError; growing is always lossless.

    >>> nw_restricted(PipeDream(3, 3, [(1, 2)]), 1, 2).key()
    (1, 2, ((1, 2),))
    """
    for r, c in P.crosses:
        if r > rows or c > cols:
            raise ValueError("cross (%d,%d) outside %dx%d subgrid" % (r, c, rows, cols))
    return PipeDream(rows, cols, P.crosses)


# --- enumeration -------------------------------------------------------


def _target_of(v):
    if isinstance(v, PartialPermutation):
        return v.complete()
    return v


def _grid_cells(rows, cols):
    return [(r, c) for r in range(1, rows + 1) for c in range(cols, 0, -1)]


def _letter_can_occur(target, i):
    # a cross with letter i forces tau_i <= target in Bruhat order
    return any(target(a) > i for a in range(1, i + 1))


def _reading_cells(rows, cols, cells, forced, target):
    chosen = set(cells if cells is not None else _grid_cells(rows, cols))
    chosen |= set(forced)
    usable = []
    for cell in _grid_cells(rows, cols):
        if cell not in chosen:
            continue
        if cell in forced or _letter_can_occur(target, cell[0] + cell[1] - 1):
            usable.append(cell)
    return usable


class _Walk:
    """The reading-order search behind every enumeration and every sum.

    A state (i, line) is a position in the reading order of the usable
    cells and the one-line window, on 1..rows+cols, of the 0-Hecke
    product of the crosses read before it.  Crossing cell i with letter
    j is an ascent when line[j-1] < line[j] and swaps the two entries;
    that changes only row j of the Bruhat tableau, so one row is checked
    against the target's.  A non-ascent cross keeps the line and is
    allowed in K-theory only.  A state is dead when the length still
    missing exceeds the cells left.
    """

    __slots__ = ("order", "letters", "optional", "goal", "ceilings", "start", "ktheory")

    def __init__(self, v, rows, cols, cells, forced, ktheory):
        target = _target_of(v)
        forced = frozenset(forced)
        self.order = _reading_cells(rows, cols, cells, forced, target)
        self.letters = [r + c - 1 for r, c in self.order]
        self.optional = [cell not in forced for cell in self.order]
        self.goal = target.length()
        m = rows + cols
        live = target.size <= m and forced <= set(self.order)
        self.ceilings = prefix_ceilings(target.one_line(m)) if live else None
        self.start = tuple(range(1, m + 1))
        self.ktheory = ktheory

    def steps(self, i, line, length):
        """Moves out of state (i, line) as (sign, line, length) triples.

        Sign 0 leaves cell i an elbow, +1 crosses it at an ascent and -1
        crosses it at a non-ascent.
        """
        if self.goal - length > len(self.order) - i:
            return ()
        out = [(0, line, length)] if self.optional[i] else []
        j = self.letters[i]
        a, b = line[j - 1], line[j]
        if a < b:
            line = line[:j - 1] + (b, a) + line[j + 1:]
            if row_leq(line, j, self.ceilings):
                out.append((1, line, length + 1))
        elif self.ktheory:
            out.append((-1, line, length))
        return out


def iter_dreams(v, rows, cols, cells=None, forced=(), ktheory=False):
    """Dreams for the completion of v in the walk's depth-first order.

    Reduced dreams only, or every dream when `ktheory` is set.  `cells`
    limits where optional crosses may sit; `forced` crosses are present
    in every dream.
    """
    walk = _Walk(v, rows, cols, cells, forced, ktheory)
    if walk.ceilings is None:
        return
    n = len(walk.order)
    stack = [(0, walk.start, 0, ())]
    while stack:
        i, line, length, taken = stack.pop()
        if i == n:
            if length == walk.goal:
                yield PipeDream(rows, cols, taken)
            continue
        for sign, line2, length2 in reversed(walk.steps(i, line, length)):
            stack.append((i + 1, line2, length2, taken + (walk.order[i],) if sign else taken))


def enum_rpipes(v, rows, cols, cells=None, forced=()):
    """All reduced pipe dreams for the completion of v on the given grid.

    `cells` limits where optional crosses may sit; `forced` crosses are
    present in every dream.  Returns a sorted list.

    >>> enum_rpipes(Perm.tau(1), 2, 2)
    [PipeDream(2, 2, [(1, 1)])]
    >>> enum_rpipes(Perm.identity(), 3, 2)
    [PipeDream(3, 2, [])]
    """
    return sorted(iter_dreams(v, rows, cols, cells, forced))


def enum_pipes(v, rows, cols, cells=None, forced=()):
    """All pipe dreams with Demazure product the completion of v.

    The same walk as enum_rpipes, with non-ascent crosses allowed.
    Returns a sorted list.

    >>> enum_pipes(Perm.identity(), 1, 1)
    [PipeDream(1, 1, [])]
    >>> enum_pipes(Perm.tau(1), 2, 2)
    [PipeDream(2, 2, [(1, 1)])]
    """
    return sorted(iter_dreams(v, rows, cols, cells, forced, ktheory=True))


def dream_sum(v, rows, cols, weight, ktheory, forced=()):
    """Sum over the dreams for v of the product of their cell weights.

    `weight(r, c)` is the polynomial of an optional cross; a forced cross
    weighs 1.  Reduced dreams only in cohomology; in K-theory every dream,
    each non-ascent cross contributing a sign.  Memoized over the walk's
    states (Fomin-Kirillov's transfer matrix):

        F(i, u) = [cell i optional] F(i+1, u) + w_i F(i+1, u tau)

    with -w_i F(i+1, u) in place of the second term at a non-ascent in
    K-theory.

    >>> from .poly import cross_weight, s_var, t_var
    >>> w = lambda r, c: cross_weight(t_var(0, r), s_var(1, c), "cohomology")
    >>> print(dream_sum(Perm.tau(1), 1, 1, w, ktheory=False))
    -1*s1_1 + 1*t0_1
    """
    walk = _Walk(v, rows, cols, None, forced, ktheory)
    n, goal = len(walk.order), walk.goal
    weights = [weight(*cell) if opt else None for cell, opt in zip(walk.order, walk.optional)]
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    memo = {}

    def total(i, line, length):
        if i == n:
            return one if length == goal else zero
        key = (i, line)
        got = memo.get(key)
        if got is None:
            parts = []
            for sign, line2, length2 in walk.steps(i, line, length):
                part = total(i + 1, line2, length2)
                if part and sign and weights[i] is not None:
                    part = part * weights[i]
                parts.append(-part if sign < 0 else part)
            got = memo[key] = parts[0] if len(parts) == 1 else LaurentPoly.sum(parts)
        return got

    if walk.ceilings is None:
        return zero
    return total(0, walk.start, 0)


def enum_rpipes_by_subsets(v, rows, cols, cells=None, forced=()):
    """Subset brute force over the whole grid; the enumeration oracle."""
    return [P for P in enum_pipes_by_subsets(v, rows, cols, cells, forced)
            if len(P) == _target_of(v).length()]


def enum_pipes_by_subsets(v, rows, cols, cells=None, forced=()):
    """All dreams with the right product, checked subset by subset.

    Refuses more than `capacity_limit()` free cells.
    """
    target = _target_of(v)
    forced = frozenset(forced)
    allowed = set(cells if cells is not None else _grid_cells(rows, cols))
    free = [cell for cell in _grid_cells(rows, cols)
            if cell in allowed and cell not in forced]
    if len(free) > capacity_limit():
        raise CapacityError(
            "%d free cells exceeds the exhaustive budget of %d"
            % (len(free), capacity_limit())
        )
    order = [(cell, cell[0] + cell[1] - 1)
             for cell in _grid_cells(rows, cols)
             if cell in forced or cell in allowed]
    m = rows + cols
    if target.size > m:
        return []
    goal = np.array(target.one_line(m), dtype=np.int16)
    index = {cell: j for j, cell in enumerate(free)}
    total = 1 << len(free)
    chunk = 1 << 18
    found = []
    for start in range(0, total, chunk):
        bits = np.arange(start, min(total, start + chunk), dtype=np.int64)
        line = np.tile(np.arange(1, m + 1, dtype=np.int16), (len(bits), 1))
        for cell, i in order:
            a, b = line[:, i - 1], line[:, i]
            mask = a < b
            if cell not in forced:
                mask &= ((bits >> index[cell]) & 1).astype(bool)
            swapped = a[mask].copy()
            a[mask] = b[mask]
            b[mask] = swapped
        for hit in bits[np.all(line == goal, axis=1)]:
            extra = {cell for cell, j in index.items() if (int(hit) >> j) & 1}
            found.append(PipeDream(rows, cols, forced | extra))
    return sorted(found)


# --- rendering ---------------------------------------------------------


def render_ascii(P):
    """One text row per grid row: `+` for a cross, `.` for an elbow."""
    return "\n".join(
        "".join("+" if (r, c) in P.crosses else "." for c in range(1, P.cols + 1))
        for r in range(1, P.rows + 1)
    )


def render_svg(P, cell=24):
    """Stand-alone SVG drawing: straight pipes at crosses, arcs at elbows."""
    width, height = P.cols * cell, P.rows * cell
    half = cell / 2
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
    ]
    for r in range(1, P.rows + 1):
        for c in range(1, P.cols + 1):
            x, y = (c - 1) * cell, (r - 1) * cell
            parts.append(
                '<rect x="%g" y="%g" width="%g" height="%g" fill="none" '
                'stroke="#ccc" stroke-width="0.5"/>' % (x, y, cell, cell)
            )
            if (r, c) in P.crosses:
                parts.append(
                    '<path d="M %g %g H %g M %g %g V %g" stroke="black" '
                    'fill="none" stroke-width="2"/>'
                    % (x, y + half, x + cell, x + half, y, y + cell)
                )
            else:
                parts.append(
                    '<path d="M %g %g Q %g %g %g %g M %g %g Q %g %g %g %g" '
                    'stroke="black" fill="none" stroke-width="2"/>'
                    % (
                        x, y + half, x + half, y + half, x + half, y,
                        x + half, y + cell, x + half, y + half, x + cell, y + half,
                    )
                )
    parts.append("</svg>")
    return "\n".join(parts)


__all__ = [
    "CapacityError",
    "PipeDream",
    "capacity_limit",
    "dream_sum",
    "enum_pipes",
    "enum_pipes_by_subsets",
    "enum_rpipes",
    "enum_rpipes_by_subsets",
    "iter_dreams",
    "nw_restricted",
    "render_ascii",
    "render_svg",
]
