"""Permutation layer: examples pinned by hand plus brute-force oracles."""

import doctest
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qloci import perms
from qloci.perms import PartialPermutation, Perm, all_perms


def fold(word):
    return Perm.from_word(word)


def compose(u, v):
    """(u v)(i) = u(v(i))."""
    m = max(u.size, v.size)
    return Perm(tuple(u(v(i)) for i in range(1, m + 1)))


def rot_perm(v, m):
    """w0 v w0 inside S_m, by turning v's m x m matrix half a revolution."""
    return PartialPermutation(v.matrix(m)).rot().complete()


def all_partial_perms(rows, cols):
    """Every 0/1 matrix with at most one 1 per row and column."""
    cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    for k in range(min(rows, cols) + 1):
        for rset in itertools.combinations(range(1, rows + 1), k):
            for cperm in itertools.permutations(range(1, cols + 1), k):
                yield PartialPermutation.from_pairs(rows, cols, list(zip(rset, cperm)))
    del cells


perm_strategy = st.integers(1, 7).flatmap(
    lambda m: st.permutations(list(range(1, m + 1))).map(Perm)
)


def test_doctests():
    failed, _ = doctest.testmod(perms)
    assert failed == 0


# --- lengths -----------------------------------------------------------


def test_length_examples():
    assert Perm((1, 2, 3, 4, 5)).length() == 0
    assert Perm((4, 1, 2, 3, 6, 7, 5, 10, 11, 8, 9)).length() == 9
    assert Perm((4, 3, 2, 1)).length() == 6


def test_rot_preserves_length_exhaustive_s4():
    for v in all_perms(4):
        assert rot_perm(v, 4).length() == v.length()


@given(perm_strategy, st.integers(0, 3))
def test_rot_preserves_length_random(v, pad):
    m = v.size + pad
    assert rot_perm(v, m).length() == v.length()
    assert rot_perm(rot_perm(v, m), m) == v


# --- completions -------------------------------------------------------


def test_complete_examples():
    assert PartialPermutation([[1, 0]]).complete() == Perm.identity()
    assert PartialPermutation([[0, 1]]).complete() == Perm((2, 1))
    assert PartialPermutation([[1, 0], [0, 1], [0, 0]]).complete() == Perm.identity()
    # a row rule and a column rule both fire
    assert PartialPermutation([[0, 1, 0], [0, 0, 0]]).complete() == Perm((2, 4, 1, 3))


def test_complete_minimal_among_all_embeddings():
    # c(w) has the least length of any permutation with w in its NW corner
    for rows in range(1, 4):
        for cols in range(1, 4):
            for w in all_partial_perms(rows, cols):
                m = rows + cols - w.rank
                cw = w.complete()
                assert cw.nw_partial(rows, cols) == w
                lengths = [
                    v.length()
                    for v in all_perms(m)
                    if v.nw_partial(rows, cols) == w
                ]
                assert cw.length() == min(lengths)


def test_complete_full_permutation_is_identity_map():
    for v in all_perms(3):
        w = v.nw_partial(3, 3)
        assert w.complete() == v


def test_rot_examples():
    assert PartialPermutation([[1, 0]]).rot() == PartialPermutation([[0, 1]])
    eye = PartialPermutation([[1, 0], [0, 1]])
    assert eye.rot() == eye
    w = PartialPermutation([[1, 0, 0], [0, 0, 1]])
    assert w.rot() == w
    zero = PartialPermutation.zero(2, 3)
    assert zero.rot() == zero


def test_partial_perm_validation():
    with pytest.raises(ValueError):
        PartialPermutation([[1, 1]])
    with pytest.raises(ValueError):
        PartialPermutation([[1], [1]])
    with pytest.raises(ValueError):
        PartialPermutation([[2]])


# --- 0-Hecke products --------------------------------------------------


def test_demazure_mul_examples():
    assert Perm.identity().demazure_mul(1) == Perm.tau(1)
    assert Perm.tau(1).demazure_mul(1) == Perm.tau(1)
    assert Perm((2, 1, 3)).demazure_mul(2) == Perm((2, 3, 1))


def test_words_idempotent_and_braid_in_s4():
    gens = (1, 2, 3)
    for n in range(7):
        for word in itertools.product(gens, repeat=n):
            u = fold(word)
            for i in gens:
                assert u.demazure_mul(i).demazure_mul(i) == u.demazure_mul(i)
            for i in (1, 2):
                left = u.demazure_mul(i).demazure_mul(i + 1).demazure_mul(i)
                right = u.demazure_mul(i + 1).demazure_mul(i).demazure_mul(i + 1)
                assert left == right


def test_hecke_associative_exhaustive_s3():
    s3 = list(all_perms(3))
    for u, v, w in itertools.product(s3, repeat=3):
        assert u.hecke(v).hecke(w) == u.hecke(v.hecke(w))


def test_hecke_of_reduced_word_is_product():
    for v in all_perms(5):
        word = v.reduced_word()
        assert len(word) == v.length()
        assert fold(word) == v
        assert Perm.identity().hecke(v) == v
        assert v.hecke(Perm.identity()) == v


@given(st.lists(st.integers(1, 4), max_size=10))
def test_fold_length_never_exceeds_word(word):
    u = fold(word)
    assert u.length() <= len(word)
    # appending any letter keeps it a 0-Hecke value: one more letter, at most one more inversion
    for i in range(1, 5):
        v = u.demazure_mul(i)
        assert v.length() in (u.length(), u.length() + 1)
        assert v.demazure_mul(i) == v


# --- rotation and inverse ---------------------------------------------


def test_rotated_conjugates_generators():
    for m in range(2, 6):
        for k in range(1, m):
            assert rot_perm(Perm.tau(k), m) == Perm.tau(m - k)


def test_compose_and_inverse():
    for v in all_perms(4):
        assert compose(v, v.inverse()) == Perm.identity()
        assert v.inverse().inverse() == v
        assert v.inverse().length() == v.length()


# --- Bruhat order ------------------------------------------------------


def bruhat_closure_s4():
    """Reflexive-transitive closure of length-increasing transpositions."""
    s4 = list(all_perms(4))
    leq = {(u, u) for u in s4}
    covers = {u: [] for u in s4}
    for u in s4:
        for a in range(1, 4):
            for b in range(a + 1, 5):
                line = list(u.one_line(4))
                line[a - 1], line[b - 1] = line[b - 1], line[a - 1]
                t = Perm(line)
                if t.length() == u.length() + 1:
                    covers[u].append(t)
    changed = True
    while changed:
        changed = False
        for u in s4:
            for v in list(x for (y, x) in leq if y == u):
                for t in covers[v]:
                    if (u, t) not in leq:
                        leq.add((u, t))
                        changed = True
    return leq


def test_bruhat_leq_matches_cover_closure_on_s4():
    leq = bruhat_closure_s4()
    for u in all_perms(4):
        for v in all_perms(4):
            assert u.bruhat_leq(v) == ((u, v) in leq)


@given(perm_strategy, perm_strategy)
def test_bruhat_antisymmetry(u, v):
    if u.bruhat_leq(v) and v.bruhat_leq(u):
        assert u == v
    if u.bruhat_leq(v) and u != v:
        assert u.length() < v.length()


# --- misc --------------------------------------------------------------


def test_equality_ignores_trailing_fixed_points():
    assert Perm((2, 1, 3, 4)) == Perm((2, 1))
    assert hash(Perm((2, 1, 3))) == hash(Perm((2, 1)))
    assert Perm((1, 2, 3)) == Perm.identity()


def test_matrix_and_call():
    v = Perm((3, 1, 2))
    assert v(1) == 3 and v(4) == 4
    assert v.matrix(3) == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        v.one_line(2)
    with pytest.raises(ValueError):
        Perm((2, 2))
