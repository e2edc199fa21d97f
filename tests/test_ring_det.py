"""Differential tests: Berkowitz's ring_det against Laplace expansion, over
the integers, over Z/p^N (with zero divisors) and over the level-1 tower
ring, where the Sylvester resultant of the discriminant is taken."""

import pytest
from hypothesis import given, settings, strategies as st

from cmtower.local_tower import EisensteinTower
from cmtower.lubin_tate import LTSeed
from cmtower.padic import PadicInt, ring_det


def laplace_det(rows, zero, one):
    """The determinant as first written: Laplace expansion along the rows
    with memoisation on column subsets, O(n 2^n) ring products."""
    n = len(rows)
    if n == 0:
        return one
    memo = {0: one}

    def det_rec(cols: int, r: int):
        if cols in memo:
            return memo[cols]
        acc = None
        sign = 0
        c = cols
        while c:
            j = (c & -c).bit_length() - 1
            c &= c - 1
            term = rows[r][j] * det_rec(cols & ~(1 << j), r + 1)
            if sign % 2 == 1:
                term = -term
            acc = term if acc is None else acc + term
            sign += 1
        memo[cols] = acc
        return acc

    return det_rec((1 << n) - 1, 0)


def assert_same(rows, zero, one):
    want = laplace_det(rows, zero, one)
    got = ring_det(rows, zero, one)
    assert type(got) is type(want)
    assert got == want


@st.composite
def square(draw, entry, max_n):
    """A square matrix whose entries are zero about half the time; with
    probability 1/4 one row is all zeros."""
    n = draw(st.integers(0, max_n))
    rows = [[draw(st.one_of(st.just(0), entry)) for _ in range(n)]
            for _ in range(n)]
    if n and draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, n - 1))] = [0] * n
    return rows


@settings(max_examples=200, deadline=None)
@given(square(st.integers(-50, 50), 7))
def test_ints_match_laplace(rows):
    assert_same(rows, 0, 1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.integers(1, 6), st.data())
def test_residues_match_laplace(p, N, data):
    # entries divisible by p are zero divisors of Z/p^N
    entry = st.one_of(st.integers(0, p ** N - 1),
                      st.integers(0, p ** (N - 1)).map(lambda x: p * x))
    raw = data.draw(square(entry, 6))
    rows = [[PadicInt(p, N, x) for x in row] for row in raw]
    assert_same(rows, PadicInt(p, N, 0), PadicInt(p, N, 1))


def level1(p):
    tower = EisensteinTower(LTSeed.standard(p, 8, p + 2))
    tower.build(1)
    return tower


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((3, 5)), st.data())
def test_level1_elements_match_laplace(p, data):
    tower = level1(p)
    d = tower.degree(1)
    coeffs = st.lists(st.integers(0, p ** tower.N - 1), min_size=d,
                      max_size=d)
    raw = data.draw(square(coeffs, 6))
    rows = [[tower.element(1, c or []) for c in row] for row in raw]
    assert_same(rows, tower.element(1, []), tower.element(1, [1]))


@pytest.mark.parametrize("zero, one", [
    (0, 1),
    (PadicInt(5, 4, 0), PadicInt(5, 4, 1)),
])
def test_empty_matrix_is_one(zero, one):
    assert ring_det([], zero, one) is one


def test_one_by_one():
    assert ring_det([[7]], 0, 1) == 7
    assert ring_det([[0]], 0, 1) == 0
    x = PadicInt(3, 5, 18)
    assert ring_det([[x]], PadicInt(3, 5, 0), PadicInt(3, 5, 1)) == x
    tower = level1(3)
    lam = tower.lam(1)
    assert ring_det([[lam]], tower.element(1, []),
                    tower.element(1, [1])) == lam


def test_sylvester_resultant():
    # Res(t^2 - 2, t - 3) = 3^2 - 2 = 7
    rows = [[1, 0, -2], [1, -3, 0], [0, 1, -3]]
    assert ring_det(rows, 0, 1) == laplace_det(rows, 0, 1) == 7
