"""Permutations, partial permutations, and 0-Hecke (Demazure) products.

Permutations are bijections of {1, 2, ...} that fix all but finitely many
points, stored as the shortest one-line window.  Values compare equal iff
they are the same bijection, so trailing fixed points never matter:

    >>> Perm((2, 1, 3)) == Perm((2, 1))
    True

The 0-Hecke product folds generators in on the right: ``u.demazure_mul(i)``
is ``u * tau_i`` when that gains an inversion, and ``u`` unchanged
otherwise.  This right-folding convention is not arbitrary; it is the one
under which the pipe entering the west wall of a pipe dream in row i exits
the north wall in column delta(P)(i) (see the pipedreams tests).
"""

from __future__ import annotations

import itertools
from operator import le
from typing import Iterable, Iterator, Sequence

__all__ = ["Perm", "PartialPermutation", "all_partial_perms", "all_perms"]


def _trimmed(seq: Sequence[int]) -> tuple[int, ...]:
    entries = list(seq)
    while entries and entries[-1] == len(entries):
        entries.pop()
    return tuple(entries)


def prefix_ceilings(line: Sequence[int]) -> list[list[int]]:
    """Rows of the Bruhat tableau of a one-line window: its first j entries, sorted."""
    return [sorted(line[:j]) for j in range(len(line) + 1)]


def row_leq(line: Sequence[int], j: int, ceilings: list[list[int]]) -> bool:
    """Row j of the tableau criterion (Bjorner-Brenti, Thm 2.1.5).

    u <= w in Bruhat order iff, for every j, the first j entries of u
    sorted are entrywise at most those of w; `ceilings` holds w's rows.
    Swapping the entries at positions j and j+1 changes row j alone, so
    a search that steps by such swaps re-checks one row per step.

    >>> row_leq((2, 1, 3), 1, prefix_ceilings((1, 3, 2)))
    False
    """
    return all(map(le, sorted(line[:j]), ceilings[j]))


class Perm:
    """A permutation in one-line notation, canonical up to fixed points."""

    __slots__ = ("window",)

    def __init__(self, one_line: Sequence[int] = ()):
        window = _trimmed(one_line)
        if sorted(window) != list(range(1, len(window) + 1)):
            raise ValueError(f"not a permutation of 1..{len(window)}: {one_line!r}")
        object.__setattr__(self, "window", window)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    # --- construction -------------------------------------------------

    @classmethod
    def identity(cls) -> "Perm":
        return cls(())

    @classmethod
    def tau(cls, i: int) -> "Perm":
        """The adjacent transposition swapping i and i+1."""
        if i < 1:
            raise ValueError("generator index must be positive")
        return cls(tuple(range(1, i)) + (i + 1, i))

    @classmethod
    def longest(cls, m: int) -> "Perm":
        """w0 in S_m, one-line (m, m-1, ..., 1)."""
        return cls(tuple(range(m, 0, -1)))

    @classmethod
    def from_word(cls, word: Iterable[int]) -> "Perm":
        """0-Hecke evaluation of a generator word, folding left to right.

        >>> Perm.from_word([1, 1]) == Perm.tau(1)
        True
        >>> Perm.from_word([1, 2, 1]) == Perm.from_word([2, 1, 2])
        True
        """
        word = list(word)
        if not word:
            return cls(())
        line = list(range(1, max(word) + 2))
        for i in word:
            if line[i - 1] < line[i]:
                line[i - 1], line[i] = line[i], line[i - 1]
        return cls(line)

    # --- basic queries ------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        if i < 1:
            raise ValueError("positions are 1-based")
        return self.window[i - 1] if i <= len(self.window) else i

    def one_line(self, m: int) -> tuple[int, ...]:
        """The one-line window padded with fixed points out to length m."""
        if m < self.size:
            raise ValueError(f"window of size {self.size} does not fit in {m}")
        return self.window + tuple(range(self.size + 1, m + 1))

    def length(self) -> int:
        """Number of inversions."""
        w = self.window
        return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])

    def ascent_at(self, i: int) -> bool:
        return self(i) < self(i + 1)

    def matrix(self, m: int) -> tuple[tuple[int, ...], ...]:
        """0/1 permutation matrix on an m x m grid, rows map to columns."""
        line = self.one_line(m)
        return tuple(tuple(1 if line[r] == c + 1 else 0 for c in range(m)) for r in range(m))

    # --- group operations ---------------------------------------------

    def inverse(self) -> "Perm":
        inv = [0] * self.size
        for p, v in enumerate(self.window, start=1):
            inv[v - 1] = p
        return Perm(inv)

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition: (self * other)(i) = self(other(i))."""
        m = max(self.size, other.size)
        return Perm(tuple(self(other(i)) for i in range(1, m + 1)))

    def times_tau(self, i: int) -> "Perm":
        """self * tau_i: swaps the entries in positions i and i+1."""
        m = max(self.size, i + 1)
        line = list(self.one_line(m))
        line[i - 1], line[i] = line[i], line[i - 1]
        return Perm(line)

    def tau_times(self, i: int) -> "Perm":
        """tau_i * self: swaps the values i and i+1."""
        m = max(self.size, i + 1)
        line = list(self.one_line(m))
        for p in range(m):
            if line[p] == i:
                line[p] = i + 1
            elif line[p] == i + 1:
                line[p] = i
        return Perm(line)

    def demazure_mul(self, i: int) -> "Perm":
        """0-Hecke right multiplication by tau_i.

        >>> Perm((2, 1, 3)).demazure_mul(2)
        Perm((2, 3, 1))
        >>> Perm.tau(1).demazure_mul(1)
        Perm((2, 1))
        """
        return self.times_tau(i) if self(i) < self(i + 1) else self

    def hecke(self, other: "Perm") -> "Perm":
        """0-Hecke product self * other (fold other's reduced word in)."""
        u = self
        for i in other.reduced_word():
            u = u.demazure_mul(i)
        return u

    def reduced_word(self) -> tuple[int, ...]:
        """One reduced word for self (leftmost-descent peeling)."""
        letters: list[int] = []
        u = self
        while u.size:
            i = next(p for p in range(1, u.size + 1) if u(p) > u(p + 1))
            letters.append(i)
            u = u.times_tau(i)
        letters.reverse()
        return tuple(letters)

    # --- embeddings and symmetries ------------------------------------

    def shifted(self, m: int) -> "Perm":
        """The permutation 1^m x self: fixes 1..m, sends m+i to self(i)+m."""
        return Perm(tuple(range(1, m + 1)) + tuple(v + m for v in self.window))

    def rotated(self, m: int) -> "Perm":
        """w0 * self * w0 inside S_m (the 180-degree matrix rotation).

        >>> Perm.tau(1).rotated(3) == Perm.tau(2)
        True
        """
        if m < self.size:
            raise ValueError(f"window of size {self.size} does not fit in {m}")
        return Perm(tuple(m + 1 - self(m + 1 - p) for p in range(1, m + 1)))

    def bruhat_leq(self, other: "Perm") -> bool:
        """Strong Bruhat order via the dominance criterion on rank tables."""
        m = max(self.size, other.size)
        u, ceilings = self.one_line(m), prefix_ceilings(other.one_line(m))
        return all(row_leq(u, i, ceilings) for i in range(1, m))

    def nw_partial(self, rows: int, cols: int) -> "PartialPermutation":
        """Truncation to the northwest rows x cols corner of the matrix."""
        pairs = [(r, self(r)) for r in range(1, rows + 1) if self(r) <= cols]
        return PartialPermutation.from_pairs(rows, cols, pairs)

    # --- dunder plumbing ----------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.window == other.window

    def __hash__(self) -> int:
        return hash(("Perm", self.window))

    def __lt__(self, other: "Perm") -> bool:
        return self.window < other.window

    def __repr__(self) -> str:
        return f"Perm({self.window!r})"


class PartialPermutation:
    """A 0/1 matrix with at most one 1 in every row and column."""

    __slots__ = ("rows", "cols", "matrix")

    def __init__(self, matrix: Sequence[Sequence[int]], rows: int | None = None, cols: int | None = None):
        mat = tuple(tuple(int(x) for x in row) for row in matrix)
        if rows is None:
            rows = len(mat)
        if cols is None:
            cols = len(mat[0]) if mat else 0
        if len(mat) != rows or any(len(row) != cols for row in mat):
            raise ValueError("matrix shape mismatch")
        if any(x not in (0, 1) for row in mat for x in row):
            raise ValueError("entries must be 0 or 1")
        if any(sum(row) > 1 for row in mat):
            raise ValueError("multiple 1s in a row")
        if any(sum(row[c] for row in mat) > 1 for c in range(cols)):
            raise ValueError("multiple 1s in a column")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("PartialPermutation is immutable")

    @classmethod
    def from_pairs(cls, rows: int, cols: int, pairs: Iterable[tuple[int, int]]) -> "PartialPermutation":
        mat = [[0] * cols for _ in range(rows)]
        for r, c in pairs:
            if not (1 <= r <= rows and 1 <= c <= cols):
                raise ValueError(f"pair {(r, c)} outside {rows}x{cols}")
            mat[r - 1][c - 1] = 1
        return cls(mat, rows, cols)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "PartialPermutation":
        return cls.from_pairs(rows, cols, ())

    def ones(self) -> tuple[tuple[int, int], ...]:
        """The (row, col) positions of the 1s, in row order."""
        return tuple(
            (r + 1, c + 1)
            for r, row in enumerate(self.matrix)
            for c, x in enumerate(row)
            if x
        )

    @property
    def rank(self) -> int:
        return sum(sum(row) for row in self.matrix)

    def rot(self) -> "PartialPermutation":
        """180-degree rotation: entry (i,j) moves to (rows+1-i, cols+1-j)."""
        return PartialPermutation(tuple(tuple(reversed(row)) for row in reversed(self.matrix)), self.rows, self.cols)

    def complete(self) -> Perm:
        """The minimal-length completion c(w) of size rows + cols - rank.

        w sits in the northwest corner; rows without a 1 receive columns
        cols+1, cols+2, ... top to bottom, and the extra rows receive the
        unused columns among 1..cols in increasing order.

        >>> PartialPermutation([[0, 1]]).complete()
        Perm((2, 1))
        >>> PartialPermutation([[1, 0], [0, 1], [0, 0]]).complete()
        Perm(())
        """
        m = self.rows + self.cols - self.rank
        line: list[int] = []
        taken = {c for _, c in self.ones()}
        next_virtual = self.cols + 1
        for row in self.matrix:
            if 1 in row:
                line.append(row.index(1) + 1)
            else:
                line.append(next_virtual)
                next_virtual += 1
        line.extend(c for c in range(1, self.cols + 1) if c not in taken)
        assert len(line) == m
        return Perm(line)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartialPermutation)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash(("PartialPermutation", self.rows, self.cols, self.matrix))

    def __lt__(self, other: "PartialPermutation") -> bool:
        return (self.rows, self.cols, self.matrix) < (other.rows, other.cols, other.matrix)

    def __repr__(self) -> str:
        return f"PartialPermutation({[list(row) for row in self.matrix]!r})"


def all_perms(m: int) -> Iterator[Perm]:
    """All permutations of S_m in lexicographic one-line order."""
    for line in itertools.permutations(range(1, m + 1)):
        yield Perm(line)


def all_partial_perms(rows: int, cols: int) -> Iterator[PartialPermutation]:
    """All partial permutations of the given shape, by increasing rank.

    >>> sum(1 for _ in all_partial_perms(2, 2))
    7
    >>> next(all_partial_perms(1, 2))
    PartialPermutation([[0, 0]])
    """
    for r in range(min(rows, cols) + 1):
        for row_sel in itertools.combinations(range(1, rows + 1), r):
            for col_sel in itertools.permutations(range(1, cols + 1), r):
                yield PartialPermutation.from_pairs(rows, cols, zip(row_sel, col_sel))
