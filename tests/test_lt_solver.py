"""Differential tests: the online Lubin-Tate solver against the
degree-by-degree reference that recomposes the whole series at every
degree."""

from math import comb
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from cmtower import lubin_tate
from cmtower.errors import InvariantError, PrecisionError, ValidationError
from cmtower.lubin_tate import (LTSeed, _lt_solve, _pascal, _sigma_rows,
                                _slot_widths, endo, group_law, strict_iso)
from cmtower.padic import PadicInt, TruncSeries


def reference_lt_solve(linear, src, dst):
    """The recursion as first written: at degree k, compose both sides in
    full and correct phi's degree-k part by R_k / (pi^k - pi)."""
    if src.p != dst.p or src.N != dst.N:
        raise ValidationError("seeds disagree on (p, N)")
    if src.pi_val != dst.pi_val:
        raise ValidationError("seeds have different uniformizers")
    p, N = src.p, src.N
    n = linear.nvars
    D = linear.trunc
    pi = src.pi_val
    mod = p ** N
    src_args = [
        TruncSeries(p, N, n, D,
                    {tuple(k if j == i else 0 for j in range(n)): c
                     for (k,), c in src.d.coeffs.items()})
        for i in range(n)
    ]
    phi = linear
    for k in range(2, D + 1):
        diff = dst.d.compose([phi]) - phi.compose(src_args)
        divisor = pi ** k - pi
        if divisor.valuation() != 1:
            raise InvariantError("correction divisor lost valuation 1")
        new_coeffs = dict(phi.coeffs)
        for e, c in diff.coeffs.items():
            if sum(e) != k:
                continue
            ce = PadicInt(p, N, c)
            if ce.is_zero():
                continue
            if ce.valuation() == 0:
                raise InvariantError(
                    f"obstruction at degree {k} is a unit: input is not a "
                    "valid Lubin-Tate seed pair"
                )
            corr = ce.divide_exact(divisor)
            v = (new_coeffs.get(e, 0) + corr.value) % mod
            if v:
                new_coeffs[e] = v
            elif e in new_coeffs:
                del new_coeffs[e]
        phi = TruncSeries(p, N, n, D, new_coeffs, phi.eff_prec - 1)
    return phi


def unchecked_seed(p, N, trunc, coeffs):
    """A seed object that skips LTSeed's congruence checks, so that the
    solver meets an obstruction it must reject."""
    seed = LTSeed.__new__(LTSeed)
    seed.d = TruncSeries.from_coeff_list(p, N, trunc, coeffs)
    seed.pi_val = seed.d.coefficient((1,))
    return seed


@st.composite
def seed_coeffs(draw, p, D, N, pi, sparse=False):
    """Dense coefficients [0, pi, a_2, ..., a_D] of a valid seed, each
    drawn from every residue below p^N it may take; with ``sparse``,
    each multiple of p among them is zero with probability about 1/2."""
    top = p ** (N - 1) - 1
    coeffs = [0, pi]
    for k in range(2, D + 1):
        c = 0 if sparse and draw(st.booleans()) else p * draw(
            st.integers(0, top))
        coeffs.append(1 + c if k == p else c)
    return coeffs


@st.composite
def seed_pair(draw, max_D=14, sparse=False):
    p = draw(st.sampled_from((3, 5, 7)))
    D = draw(st.integers(p, max_D))
    # N <= D - 1 runs out of precision at degree N + 1
    N = draw(st.integers(max(2, D - 3), D + 10))
    pi = p * draw(st.integers(1, p ** (N - 1) - 1).filter(lambda u: u % p))
    src = LTSeed.from_coeffs(p, N, D, draw(seed_coeffs(p, D, N, pi, sparse)))
    dst = LTSeed.from_coeffs(p, N, D, draw(seed_coeffs(p, D, N, pi, sparse)))
    return src, dst


def linear_part(seed, nvars, a=1):
    if nvars == 1:
        coeffs = {(1,): a}
    else:
        coeffs = {(1, 0): 1, (0, 1): 1}
    return TruncSeries(seed.p, seed.N, nvars, seed.trunc, coeffs)


def library_solve(linear, src, dst):
    """``_lt_solve`` on the (a, n) of a linear part a*t or a(X + Y)."""
    n = linear.nvars
    a = linear.coeffs.get((1,) + (0,) * (n - 1), 0)
    return _lt_solve(a, n, src, dst)


def outcome(solve, linear, src, dst):
    """(coeffs, eff_prec) on success, (exception class, message) on
    failure."""
    try:
        phi = solve(linear, src, dst)
    except (InvariantError, PrecisionError, ValidationError) as exc:
        return type(exc), str(exc)
    return phi.coeffs, phi.eff_prec


def assert_same(linear, src, dst):
    want = outcome(reference_lt_solve, linear, src, dst)
    assert outcome(library_solve, linear, src, dst) == want
    return want


@settings(max_examples=40, deadline=None)
@given(seed_pair(), st.data())
def test_endo_matches_reference(pair, data):
    seed, _ = pair
    a = data.draw(st.integers(0, seed.R.mod - 1))
    assert_same(linear_part(seed, 1, a), seed, seed)


@settings(max_examples=40, deadline=None)
@given(seed_pair())
def test_strict_iso_matches_reference(pair):
    src, dst = pair
    assert_same(linear_part(src, 1), src, dst)


@settings(max_examples=15, deadline=None)
@given(seed_pair(max_D=12))
def test_group_law_matches_reference(pair):
    seed, _ = pair
    assert_same(linear_part(seed, 2), seed, seed)


@settings(max_examples=40, deadline=None)
@given(seed_pair(sparse=True), st.sampled_from((1, 2)), st.data())
def test_sparse_seeds_match_reference(pair, nvars, data):
    """Sparse seeds give Horner levels with d_m = 0 and a top degree M
    below D; the solve from src to dst, with linear part a*t or X + Y,
    still equals the reference's coefficients, precision and errors."""
    src, dst = pair
    a = data.draw(st.integers(0, src.R.mod - 1))
    assert_same(linear_part(src, nvars, a), src, dst)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_group_law_matches_reference_at_14(p):
    seed = LTSeed.from_coeffs(p, 20, 14, [0, p] + [p * (k % 4) for k in
                                                   range(2, p)]
                              + [1 + p] + [p * k for k in range(p + 1, 15)])
    coeffs, eff = assert_same(linear_part(seed, 2), seed, seed)
    assert eff == 20 - 13


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("nvars", (1, 2))
def test_top_of_the_residue_range(p, nvars):
    """Every coefficient at the top of its allowed range (pi = p^N - p,
    the t^p coefficient p^N - p + 1, the rest p^N - p, the linear
    coefficient p^N - 1) fills the packed slots as far as they go."""
    D = 20
    N = D + 4
    top = p ** N - p
    seed = LTSeed.from_coeffs(p, N, D, [0, top] + [
        top + 1 if k == p else top for k in range(2, D + 1)])
    linear = TruncSeries(p, N, nvars, D, {
        tuple(int(i == j) for i in range(nvars)): p ** N - 1
        for j in range(nvars)})
    coeffs, eff = assert_same(linear, seed, seed)
    assert eff == N - (D - 1) and coeffs


def pack(part, width):
    x = 0
    for c in reversed(part):
        x = x << width | c
    return x


def unpack(x, width, count):
    return [x >> (width * i) & ((1 << width) - 1) for i in range(count)]


@pytest.mark.parametrize("p", (3, 5, 7))
def test_anti_diagonal_slot_holds_the_worst_sum(p):
    """The one-variable solve's largest packed sum, O at degree D: every
    phi_j and every slot of every anti-diagonal A[t] at p^N - 1, and M =
    D so that every level is present.  Each slot of O must come out as
    the exact sum, (p^N - 1)^2 times its count of products, with no carry
    between slots."""
    for N in range(1, 13):
        top = p ** N - 1
        for D in range(3, 41):
            width = _slot_widths(p ** N, D)[0]
            P = [top] * D
            A = [None, None] + [pack([top] * t, width) for t in range(2, D)]
            O = sum(map(mul, P[2:D], A[D - 1:1:-1]))
            # slot m of A[D + 1 - j] exists for m <= D - j, j = 2..D-1
            want = [top * top * max(0, D - 1 - max(m, 1)) for m in range(D)]
            assert unpack(O, width, D) == want, (p, N, D)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_sigma_slot_holds_the_worst_sum(p):
    """The group law's largest packed sums, [G_1]_(D-1) and total_D: every
    sigma coefficient of every part of phi and of every G level at
    p^N - 1.  Each slot must come out as the exact sum of its products."""
    for N in range(1, 13):
        top = p ** N - 1
        for D in range(3, 41):
            width = _slot_widths(p ** N, D)[1]
            # the degree-s part packed, floor(s/2) + 1 slots
            parts = [pack([top] * (s // 2 + 1), width) for s in range(D)]
            for s in (D - 1, D):
                # [G_m]_s reads G's parts of degree s - 1 down to 0; total
                # reads G_1's of degree D - 1 down to 1
                js = range(1, s + 1) if s < D else range(1, D)
                acc = sum(parts[j] * parts[s - j] for j in js)
                want = [top * top * sum(
                    1 for j in js for i in range(j // 2 + 1)
                    if 0 <= c - i <= (s - j) // 2)
                    for c in range(s // 2 + 1)]
                assert unpack(acc, width, s // 2 + 1) == want, (p, N, D, s)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_rhs_bucket_slot_holds_the_worst_sum(p):
    """The group law's right-hand-side buckets after every push: each
    monomial c X^i Y^(j-i), j < D, adds (c [src.d^i]_f mod p^N) src.d^(j-i)
    packed to the bucket of X^f for i <= f <= min(D - (j - i), D/2), with
    every such residue and every coefficient of src.d^a (a >= 1, from
    degree a on) at p^N - 1.  Each slot of degree f + g <= D must come
    out as the exact sum of its products."""
    for N in range(1, 13):
        top = p ** N - 1
        for D in range(3, 31):
            width = _slot_widths(p ** N, D)[2]
            powers = [[1] + [0] * D] + [[0] * a + [top] * (D + 1 - a)
                                        for a in range(1, D + 1)]
            packed = [pack(row, width) for row in powers]
            for f in range(D // 2 + 1):
                terms = [(j, i) for j in range(1, D) for i in range(j + 1)
                         if i <= f <= D - j + i and powers[i][f]]
                bucket = sum(top * packed[j - i] for j, i in terms)
                want = [sum(top * powers[j - i][g] for j, i in terms)
                        for g in range(D - f + 1)]
                assert unpack(bucket, width, D - f + 1) == want, (p, N, D, f)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), st.data())
def test_sigma_and_xy_round_trip(k, data):
    """A random symmetric degree-k part, written in sigma1 = X + Y and
    sigma2 = XY, goes through the rows of ``_sigma_rows`` to its
    X^f Y^(k-f) coefficients (f <= k/2), as the expansion of the sigma
    monomials gives them, and back by forward substitution."""
    mod = 7 ** 6
    D = data.draw(st.integers(k, 26))
    B, W = _pascal(D), D // 2 + 1
    assert B == [comb(r, u) for r in range(D + 1) for u in range(W)]
    c = data.draw(st.lists(st.integers(0, mod - 1), min_size=k // 2 + 1,
                           max_size=k // 2 + 1))
    xy = [0] * (k + 1)
    for j, cj in enumerate(c):
        for i in range(k - 2 * j + 1):
            xy[i + j] += cj * comb(k - 2 * j, i)
    assert xy == xy[::-1]
    rows = _sigma_rows(B, W, k)
    assert [sum(map(mul, c, row)) for row in rows] == xy[:k // 2 + 1]
    back = []
    for x, row in zip(xy, rows):
        assert row[-1] == 1
        back.append((x - sum(map(mul, back, row))) % mod)
    assert back == c


@pytest.mark.parametrize("c", (0, 3, 5 ** 12 - 1))
def test_symmetric_linear_part_matches_reference(c):
    """The two-variable solve takes c(X + Y) for every c, not only the
    group law's c = 1."""
    seed = LTSeed.standard(5, 12, 10)
    linear = TruncSeries(5, 12, 2, 10, {(1, 0): c, (0, 1): c})
    assert_same(linear, seed, seed)


@settings(max_examples=10, deadline=None)
@given(seed_pair(max_D=12), st.integers(2, 7 ** 4))
def test_one_seed_shares_its_power_table(pair, a):
    """group_law, endo(a), endo(pi) and strict_iso in sequence on one
    seed object: the first solve builds the seed's table of d's powers
    and its table of divisor inverses, the later ones from that seed read
    them, so the four solves build one table of each, src's; every
    result equals the reference."""
    src, dst = pair
    assume(src.N >= src.trunc)  # precision runs out below that
    builds = []
    divisor_builds = []
    build = lubin_tate.power_table
    divisor_build = lubin_tate.divisor_table

    def counting(f):
        builds.append(f)
        return build(f)

    def counting_divisors(pi, D):
        divisor_builds.append(pi)
        return divisor_build(pi, D)

    lubin_tate.power_table = counting
    lubin_tate.divisor_table = counting_divisors
    try:
        law = group_law(src).F
        table = src.d_powers()
        divisors = src.divisor_inverses()
        phis = [endo(src, PadicInt(src.p, src.N, b))
                for b in (a, src.pi_val.value)]
        iso = strict_iso(src, dst)
    finally:
        lubin_tate.power_table = build
        lubin_tate.divisor_table = divisor_build
    assert len(builds) == 1 and builds[0] is src.d
    assert src.d_powers() is table
    assert len(divisor_builds) == 1 and divisor_builds[0] is src.pi_val
    assert src.divisor_inverses() is divisors
    assert (law.coeffs, law.eff_prec) == outcome(
        reference_lt_solve, linear_part(src, 2), src, src)
    for b, phi in zip((a, src.pi_val.value), phis):
        assert (phi.coeffs, phi.eff_prec) == outcome(
            reference_lt_solve, linear_part(src, 1, b), src, src)
    assert (iso.coeffs, iso.eff_prec) == outcome(
        reference_lt_solve, linear_part(src, 1), src, dst)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.data())
def test_unit_obstruction_matches_reference(p, data):
    """A unit coefficient below t^p breaks the seed congruence; where
    that shows as a unit obstruction, both solvers must reject it at the
    same degree (or run out of precision first, the same way)."""
    D = data.draw(st.integers(p, 12))
    N = data.draw(st.integers(max(2, D - 3), D + 4))
    coeffs = data.draw(seed_coeffs(p, D, N, p))
    bad = data.draw(st.integers(2, p - 1))
    coeffs[bad] = data.draw(st.integers(1, p - 1))
    seed = unchecked_seed(p, N, D, coeffs)
    nvars = data.draw(st.sampled_from((1, 2)))
    a = data.draw(st.integers(2, p * p))
    assert_same(linear_part(seed, nvars, a), seed, seed)


def test_unit_obstruction_degree():
    # d = 5t + t^3 + t^5 at p = 5: R_2 = 0 and R_3 = a^3 - a, a unit for a = 2
    seed = unchecked_seed(5, 12, 8, [0, 5, 0, 1, 0, 1])
    with pytest.raises(InvariantError, match="degree 3"):
        _lt_solve(2, 1, seed, seed)


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("nvars", (1, 2))
def test_divisor_without_valuation_one_refused(p, nvars):
    """pi = p^2 makes every pi^k - pi of valuation 2: the seed's divisor
    table marks degree 2, and both solvers refuse it there."""
    seed = unchecked_seed(p, 12, 2 * p, [0, p * p] + [0] * (p - 2) + [1])
    got = assert_same(linear_part(seed, nvars), seed, seed)
    assert got == (InvariantError, "correction divisor lost valuation 1")


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("nvars", (1, 2))
def test_precision_exhausted_at_degree_N_plus_1(p, nvars):
    """One digit is spent per degree: D = N + 1 exhausts precision at the
    last degree, D = N leaves one digit."""
    for N in (p, p + 2):
        for D, ok in ((N, True), (N + 1, False)):
            seed = LTSeed.standard(p, N, D)
            got = assert_same(linear_part(seed, nvars), seed, seed)
            if ok:
                assert got[1] == 1
            else:
                assert got == (PrecisionError, "effective precision exhausted")


@pytest.mark.parametrize("src_trunc,dst_trunc", ((12, 8), (8, 12)))
def test_seeds_of_different_truncations_refused(src_trunc, dst_trunc):
    """The solver would give a series at src's truncation whose high
    coefficients rest on dst's truncated terms: it refuses the pair, as
    it refuses seeds over two rings."""
    src = LTSeed.standard(5, 22, src_trunc)
    dst = LTSeed.multiplicative(5, 22, dst_trunc)
    with pytest.raises(ValidationError, match="truncation"):
        strict_iso(src, dst)


def reference_divisor_table(pi_val, D):
    """The divisor table as first written: one modular inverse per
    degree."""
    R, pi = pi_val.R, pi_val.value
    p, mod = R.p, R.mod
    table = [None, None]
    pk = pi
    for _ in range(2, D + 1):
        pk = pk * pi % mod
        divisor = (pk - pi) % mod
        table.append(pow(divisor // p, -1, mod) if R.val(divisor) == 1
                     else None)
    return table


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((3, 5, 7, 11, 13)), st.integers(1, 40),
       st.integers(2, 60), st.data())
def test_divisor_table_matches_one_inverse_per_degree(p, N, D, data):
    """One inversion per table gives the per-degree inverses entry for
    entry, with None where pi^k - pi is not of valuation exactly 1: pi
    is drawn from all residues, from the multiples of p, and 0, 1, -1."""
    pi = data.draw(st.one_of(
        st.integers(0, p ** N - 1),
        st.integers(0, p ** (N - 1) - 1).map(lambda u: p * u),
        st.sampled_from((0, 1, p ** N - 1))))
    pi_val = PadicInt(p, N, pi)
    assert lubin_tate.divisor_table(pi_val, D) == \
        reference_divisor_table(pi_val, D)
