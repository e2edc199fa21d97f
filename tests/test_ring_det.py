"""Differential tests: the integer determinant ring_det against Laplace
expansion, over Z and, reduced once, over Z/p^N (with zero divisors);
char_poly against Laplace expansion of x I - A; Berkowitz on level-1
tower elements against Laplace expansion; the discriminant's resultant,
(p u)^p chi_S(lambda_1) mod h_1, against the level-1 determinant of
S - lambda_1 I and against the Sylvester determinant of the same
resultant, both taken by Berkowitz on level-1 elements; and the
precision ladder of that resultant and of level_disc."""

import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from cmtower import padic
from cmtower.cli import RunConfig, main
from cmtower.errors import PrecisionError
from cmtower.local_tower import (EisensteinTower, _disc_resultant,
                                 _resultant_element, level_disc)
from cmtower.lubin_tate import LTSeed
from cmtower.padic import char_poly, rem_coeffs, ring_det
from test_bench_workloads import lib as bench
from test_local_tower import Elt


def sylvester_rows(f, g, zero):
    """Sylvester matrix of two coefficient lists (lowest degree first,
    entries from any ring), padded with ``zero``: the resultant oracle."""
    m, n = len(f) - 1, len(g) - 1
    rows = []
    for c, shifts in ((f, n), (g, m)):
        top = list(reversed(c))
        for i in range(shifts):
            row = [zero] * (m + n)
            row[i:i + len(top)] = top
            rows.append(row)
    return rows


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


def _ring_sum(terms, zero):
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return zero if acc is None else acc


def berkowitz_det(rows, zero, one):
    """Berkowitz's algorithm as first written, on ring elements: every
    product and every sum is an element operation that reduces."""
    n = len(rows)
    sparse = [[(j, a) for j, a in enumerate(row) if a != zero]
              for row in rows]
    c = [one]
    for r in range(n):
        block = [[(j, a) for j, a in sparse[i] if j < r] for i in range(r)]
        R = [(j, a) for j, a in sparse[r] if j < r]
        v = [rows[i][r] for i in range(r)]
        q = [one, -rows[r][r]]
        for k in range(r):
            if k:
                v = [_ring_sum([a * v[j] for j, a in row
                                if v[j] != zero], zero)
                     for row in block]
            q.append(-_ring_sum([a * v[j] for j, a in R
                                 if v[j] != zero], zero))
        cnz = [x != zero for x in c]
        qnz = [x != zero for x in q]
        out = [one]
        for k in range(1, r + 2):
            terms = [q[k]] + [q[k - j] * c[j] for j in range(1, min(k, r + 1))
                              if cnz[j] and qnz[k - j]]
            if k <= r:
                terms.append(c[k])
            out.append(_ring_sum(terms, zero))
        c = out
    return c[n] if n % 2 == 0 else -c[n]


def assert_same(rows):
    """ring_det of an integer matrix is Laplace's determinant over Z, so
    reduced once mod p^N it is the determinant over Z/p^N: reduction mod
    p^N is a ring homomorphism."""
    got = ring_det(rows)
    assert type(got) is int
    assert got == laplace_det(rows, 0, 1)


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
    assert_same(rows)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.integers(1, 6), st.data())
def test_residues_match_laplace(p, N, data):
    # entries divisible by p are zero divisors of Z/p^N
    entry = st.one_of(st.integers(0, p ** N - 1),
                      st.integers(0, p ** (N - 1)).map(lambda x: p * x))
    assert_same(data.draw(square(entry, 6)))


def shifted(rows, x, zero):
    """x I - A for a square matrix A, entries from any ring."""
    return [[(x if i == j else zero) - a for j, a in enumerate(row)]
            for i, row in enumerate(rows)]


# above twice every |det(x I - A)| at |x| <= 20 for entries in [-50, 50]
# and n <= 6 (at most 6! 70^6 < 2^47), so congruence mod BIG is equality
# over Z
BIG = 3 ** 200


@settings(max_examples=150, deadline=None)
@given(square(st.integers(-50, 50), 6),
       st.lists(st.integers(-20, 20), min_size=3, max_size=3))
def test_char_poly_over_z_matches_laplace(rows, xs):
    """det(x I - A) by Laplace at three integers x is chi_A(x), chi_A is
    monic of degree n, and chi_A(0) = (-1)^n det A."""
    n, chi = len(rows), char_poly(rows, BIG)
    assert len(chi) == n + 1 and chi[-1] == 1
    for x in xs:
        want = laplace_det(shifted(rows, x, 0), 0, 1)
        assert padic._horner(chi, x, BIG) == want % BIG
    assert chi[0] == (-1) ** n * ring_det(rows) % BIG


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.integers(1, 6), st.data())
def test_char_poly_mod_pn_matches_laplace(p, N, data):
    """The same over Z/p^N, entries with zero divisors among them: every
    coefficient comes out reduced."""
    mod = p ** N
    entry = st.one_of(st.integers(0, mod - 1),
                      st.integers(0, p ** (N - 1)).map(lambda x: p * x))
    rows = data.draw(square(entry, 6))
    xs = data.draw(st.lists(st.integers(0, mod - 1), min_size=3,
                            max_size=3))
    n, chi = len(rows), char_poly(rows, mod)
    assert len(chi) == n + 1 and chi[-1] == 1
    assert all(0 <= c < mod for c in chi)
    for x in xs:
        want = laplace_det(shifted(rows, x, 0), 0, 1) % mod
        assert padic._horner(chi, x, mod) == want
    assert chi[0] == (-1) ** n * ring_det(rows) % mod


def test_char_poly_of_the_empty_matrix_is_one():
    assert char_poly([], 7 ** 3) == [1]


@lru_cache(maxsize=None)
def level1(p, coeffs=None, N=8):
    """Level 1 of the standard seed at p, or of the seed ``coeffs``, at
    precision N."""
    seed = (LTSeed.standard(p, N, p + 2) if coeffs is None
            else LTSeed.from_coeffs(p, N, p + 2, list(coeffs)))
    tower = EisensteinTower(seed)
    tower.build(1)
    return tower


# pi = 5, d = 5t + 6t^5: h_1 = 5 + 6t^4 has leading coefficient 6
NON_MONIC = (5, (0, 5, 0, 0, 0, 6))


def disc_sylvester(tower):
    """The Sylvester matrix of d(t) - lambda_1 and d'(t) over level 1,
    as level-1 elements with the whole ring algebra (``Elt``)."""
    d, ring = tower.seed.to_poly(), tower.ring(1)
    m = [Elt(ring, [c]) for c in d.coeffs]
    m[0] = m[0] - Elt(ring, ring.lam().coeffs)
    mp = [Elt(ring, [c]) for c in d.derivative().coeffs]
    return sylvester_rows(m, mp, Elt(ring))


def level1_det(tower, rows):
    """The determinant of a matrix of level-1 elements by Berkowitz on
    ``Elt``, a raw level-1 element."""
    ring = tower.ring(1)
    return berkowitz_det(rows, Elt(ring), Elt(ring, [1])).coeffs


def sylvester_resultant(tower):
    """Res(d - lambda_1, d') as the Sylvester determinant over level 1,
    a raw level-1 element."""
    return level1_det(tower, disc_sylvester(tower))


def outcome(route, tower):
    """The route's raw element, or the class of what it raised."""
    try:
        return route(tower)
    except Exception as exc:  # the class is compared across routes
        return type(exc)


def assert_norm_is_sylvester(tower):
    want = outcome(sylvester_resultant, tower)
    assert outcome(_resultant_element, tower) == want
    return want


def norm_matrix(tower):
    """S - lambda_1 I as level-1 elements (``Elt``), with the scale
    (p u)^p, as the resultant route first built it.  S is the
    matrix of multiplication by r = d mod e on Z/p^N[t]/(e), e = d'/p of
    lead u; its columns t^k r mod e go in as rows (det M^T = det M), one
    residue per scalar entry, and -lambda_1 is added on the diagonal."""
    tower.build(1)  # certifies the seed first
    mod, p, d = tower.R.mod, tower.p, tower.d.coeffs
    e = [c // p for c in tower.d.derivative().coeffs]
    u = e[-1]
    uinv = pow(u, -1, mod)
    r = list(d)
    rem_coeffs(r, e, uinv, mod)
    neg = [-c * uinv % mod for c in e[:-1]]
    cols = [r[:p - 1]]
    for _ in range(p - 2):
        col = cols[-1]
        top = col[-1]
        cols.append([top * neg[0] % mod] + [(x + top * s) % mod
                                            for x, s in zip(col, neg[1:])])
    ring = tower.ring(1)
    lam = Elt(ring, ring.lam().coeffs)
    rows = [[Elt(ring, [c]) for c in col] for col in cols]
    for k, row in enumerate(rows):
        row[k] = row[k] - lam
    return rows, pow(p * u, p, mod)


def reference_resultant_element(tower):
    """Res(d - lambda_1, d') over level 1 as (p u)^p det(S - lambda_1 I),
    the determinant taken by Berkowitz on level-1 elements: the oracle
    for the characteristic-polynomial route."""
    rows, scale = norm_matrix(tower)
    mod = tower.R.mod
    return [scale * x % mod for x in level1_det(tower, rows)]


def assert_char_poly_is_reference(tower):
    want = outcome(reference_resultant_element, tower)
    assert outcome(_resultant_element, tower) == want
    return want


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_char_poly_route_matches_the_determinant_on_benchmark_towers(seed):
    """The ``tower`` jobs of seeds 0-2: the same level-1 element."""
    for job in bench.WORKLOADS["tower"].generate(seed, None):
        q = job.params
        lt = LTSeed.from_coeffs(q["p"], q["N"], q["trunc"], q["coeffs"])
        assert isinstance(assert_char_poly_is_reference(EisensteinTower(lt)),
                          list), job.id


def test_norm_matches_sylvester_on_the_benchmark_towers():
    """The seed-0 jobs of the benchmark's ``tower`` workload."""
    jobs = bench.WORKLOADS["tower"].generate(0, None)
    assert jobs
    for job in jobs:
        q = job.params
        seed = LTSeed.from_coeffs(q["p"], q["N"], q["trunc"], q["coeffs"])
        assert isinstance(assert_norm_is_sylvester(EisensteinTower(seed)),
                          list), job.id


@pytest.mark.parametrize("N", (20, 40, 80, 200))
def test_norm_matrix_at_p7_matches_sylvester(N):
    """At p = 7, from N = 20 to 200, the level-1 determinant of
    S - lambda_1 I gives the characteristic-polynomial route's element,
    which is the Sylvester determinant's."""
    tower = level1(7, N=N)
    want = assert_char_poly_is_reference(tower)
    assert assert_norm_is_sylvester(tower) == want


@st.composite
def any_top_seed(draw, max_N=40):
    """A polynomial seed at p in {3, 5, 7} with t^p coefficient 1 or
    1 + p (non-monic h_1 and d - lambda_1), at N in [2, max_N]."""
    p = draw(st.sampled_from((3, 5, 7)))
    N = draw(st.integers(2, max_N))
    pi = p * draw(st.integers(1, p ** 3).filter(lambda u: u % p))
    mid = [p * draw(st.integers(0, p ** 3)) for _ in range(2, p)]
    top = draw(st.sampled_from((1, 1 + p)))
    return LTSeed.from_coeffs(p, N, p + 2, [0, pi] + mid + [top])


@settings(max_examples=60, deadline=None)
@given(any_top_seed())
def test_norm_matches_sylvester(seed):
    """The (p - 1)-square norm determinant over R_1[t]/(d'/p) times
    (p d_p)^p is the Sylvester determinant's ring element, not only its
    valuation, at N <= p (both 0) and past it; where one route raises,
    the other raises the same class."""
    assert_norm_is_sylvester(EisensteinTower(seed))


@settings(max_examples=80, deadline=None)
@given(any_top_seed(max_N=90))
def test_char_poly_route_matches_the_determinant(seed):
    """(p u)^p chi_S(lambda_1) mod h_1 is (p u)^p det(S - lambda_1 I)
    over level 1, element for element, at N <= p (both 0) and past it."""
    assert_char_poly_is_reference(EisensteinTower(seed))


@pytest.mark.parametrize("p", (3, 5, 7))
def test_char_poly_route_is_zero_up_to_n_equal_p(p):
    """N from 2 to p + 1 on the standard seed: both routes give the zero
    element exactly for N <= p."""
    for N in range(2, p + 2):
        tower = EisensteinTower(LTSeed.standard(p, N, p + 2))
        got = assert_char_poly_is_reference(tower)
        assert (got == [0] * (p - 1)) == (N <= p), N


@pytest.mark.parametrize("p, coeffs", [(7, None), NON_MONIC],
                         ids=["p7-standard", "p5-non-monic"])
def test_disc_sylvester_matches_element_berkowitz(p, coeffs):
    tower = level1(p, coeffs)
    rows = disc_sylvester(tower)
    assert len(rows) == 2 * p - 1
    zero, one = Elt(tower.ring(1)), Elt(tower.ring(1), [1])
    want = laplace_det(rows, zero, one)
    assert berkowitz_det(rows, zero, one) == want
    assert want.valuation() == _disc_resultant(tower) == p * (p - 1)


def test_empty_matrix_is_one():
    assert ring_det([]) == 1


def test_one_by_one():
    assert ring_det([[7]]) == 7
    assert ring_det([[0]]) == 0


def test_sylvester_resultant():
    # Res(t^2 - 2, t - 3) = 3^2 - 2 = 7
    rows = [[1, 0, -2], [1, -3, 0], [0, 1, -3]]
    assert ring_det(rows) == 7
    assert laplace_det(rows, 0, 1) == 7


# ---------------------------------------------------------------------------
# precision ladder: N against N + 5
# ---------------------------------------------------------------------------

@st.composite
def eisenstein_seed(draw):
    """A polynomial seed pi t + a_2 t^2 + ... + u t^p with ord pi = 1,
    p | a_k and u = 1 mod p, at p = 3 or 5: its torsion polynomials are
    Eisenstein."""
    p = draw(st.sampled_from((3, 5)))
    pi = p * draw(st.integers(1, p ** 3).filter(lambda u: u % p))
    mid = [p * draw(st.integers(0, p ** 3)) for _ in range(2, p)]
    return p, [0, pi] + mid + [1 + p * draw(st.integers(0, p - 1))]


def tower_at(p, N, coeffs):
    return EisensteinTower(LTSeed.from_coeffs(p, N, 2 * p, coeffs))


@settings(max_examples=30, deadline=None)
@given(eisenstein_seed(), st.integers(2, 14))
def test_sylvester_det_reduces_down_the_ladder(seed, N):
    p, coeffs = seed
    dets = []
    for n in (N, N + 5):
        tower = tower_at(p, n, coeffs)
        tower.build(1)
        dets.append(level1_det(tower, disc_sylvester(tower)))
    assert [x % p ** N for x in dets[1]] == dets[0]


def disc_or_short(p, N, coeffs):
    try:
        return level_disc(tower_at(p, N, coeffs))
    except PrecisionError:
        return None


@settings(max_examples=30, deadline=None)
@given(eisenstein_seed(), st.integers(2, 14))
def test_level_disc_agrees_or_raises_down_the_ladder(seed, N):
    p, coeffs = seed
    low, high = (disc_or_short(p, n, coeffs) for n in (N, N + 5))
    if low is not None:
        assert high == low == p * (p - 1)


# ---------------------------------------------------------------------------
# precision contract of the resultant route: exit 3 exactly for N <= p
# ---------------------------------------------------------------------------

def contract_seed(p, kind):
    """The [seed] section of a standard, multiplicative or random
    Eisenstein seed at p."""
    if kind != "random":
        return f"[seed]\np = {p}\nkind = {kind}\n"
    rng = random.Random(p)
    coeffs = ([0, p * rng.randrange(1, p)]
              + [p * rng.randrange(p ** 3) for _ in range(2, p)]
              + [1 + p * rng.randrange(p)])
    return f"[seed]\np = {p}\ncoeffs = {' '.join(map(str, coeffs))}\n"


@pytest.mark.parametrize("kind", ("standard", "multiplicative", "random"))
@pytest.mark.parametrize("p", (3, 5, 7))
def test_level_disc_exits_3_exactly_up_to_n_equal_p(p, kind, tmp_path,
                                                     capsys):
    """The factor p^p of the resultant is 0 mod p^N for N <= p: level_disc
    raises, and tower-disc exits 3, naming N = p + 1, which certifies
    p(p - 1).  At N = 1 the seed itself is refused first (exit 3)."""
    cfg = tmp_path / "seed.ini"
    cfg.write_text(contract_seed(p, kind))
    need = f"raise --precision to at least {p + 1}"

    def tower(N):
        return EisensteinTower(RunConfig.load(
            "tower-disc", str(cfg), {"precision": N}).seed())

    for N in range(1, p + 2):
        code = main(["tower-disc", "--config", str(cfg), "--precision",
                     str(N)])
        out, err = capsys.readouterr()
        if N > p:
            assert code == 0
            assert json.loads(out)["results"]["disc"] == p * (p - 1)
            assert level_disc(tower(N)) == p * (p - 1)
        elif N > 1:
            assert code == 3 and need in err, N
            with pytest.raises(PrecisionError, match=need):
                level_disc(tower(N))
        else:
            assert code == 3
