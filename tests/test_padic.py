"""Foundation tests: residues, polynomials, series, polygons, Hensel,
resultants."""

import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings, strategies as st

from cmtower import padic
from cmtower.errors import HenselError, PrecisionError, ValidationError
from cmtower.local_tower import EisensteinTower
from cmtower.lubin_tate import LTSeed, endo, solve_intertwine
from cmtower.padic import (NewtonPolygon, PadicInt, PadicPoly, TruncSeries,
                           Zp, hensel_root, is_prime, mul_coeffs,
                           newton_polygon, power_table, rem_coeffs)
from test_ring_det import sylvester_rows


def total_length(poly: NewtonPolygon) -> int:
    """The summed length of the polygon's segments."""
    return sum(l for _, l in poly.segments)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _is_prime(n: int) -> bool:
    """Trial division by the small primes, then by odd numbers: the
    oracle for the ring's own primality check."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    f = 49
    q = 7
    while f <= n:
        if n % q == 0:
            return False
        q += 2
        f = q * q
    return True


class TestRing:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(-3, 5000), st.integers(-2, 60))
    @example(2, 5)
    @example(1, 5)
    @example(9, 5)
    @example(3, 0)
    @example(3, 1)
    @example(4999, 60)
    def test_raises_exactly_off_odd_primes_and_positive_precision(self, p, N):
        if p == 2 or not _is_prime(p) or N < 1:
            with pytest.raises(ValidationError):
                Zp(p, N)
            assert (p, N) not in padic._RINGS
        else:
            R = Zp(p, N)
            assert (R.p, R.N, R.mod) == (p, N, p ** N)
            assert Zp(p, N) is R

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-3, 5000))
    @example(2)
    @example(4)
    @example(4999)
    def test_one_primality_test(self, n):
        assert is_prime(n) == _is_prime(n)

    def test_every_carrier_at_one_pair_shares_one_ring(self):
        seed = LTSeed.standard(5, 12, 10)
        carriers = [PadicInt(5, 12, 3), PadicPoly(5, 12, [1, 2]),
                    TruncSeries(5, 12, 1, 4, {(1,): 1}), seed.d,
                    EisensteinTower(seed)]
        R = Zp(5, 12)
        assert all(x.R is R for x in carriers)
        assert all((x.p, x.N) == (5, 12) for x in carriers + [seed])
        assert Zp(5, 13) is not R and Zp(7, 12) is not R

    def test_val_and_lift(self):
        R = Zp(5, 4)
        assert [R.val(x) for x in (0, 1, 5, 50, 125, 624)] == [
            None, 0, 1, 2, 3, 0]
        assert R.lift(-1) == 624 and R.lift(630) == 5
        assert R.lift(PadicInt(5, 4, 7)) == 7
        for other in (PadicInt(5, 5, 7), PadicInt(7, 4, 7)):
            with pytest.raises(ValidationError):
                R.lift(other)

    def test_divide_exact(self):
        R = Zp(5, 6)
        assert R.divide_exact(50, 10) == 5
        assert R.divide_exact(15, 35) * 7 % R.mod == 3  # 15/35 = 3/7
        for x, y in ((3, 5), (3, 0), (0, 0)):
            with pytest.raises(ValidationError):
                R.divide_exact(x, y)


class TestForeignResidues:
    """A residue of another ring is refused, never read as a raw value
    into this one."""

    def test_poly_evaluate(self):
        with pytest.raises(ValidationError):
            PadicPoly(5, 30, [1, 0, 1]).evaluate(PadicInt(7, 6, 2))

    def test_resultant(self):
        with pytest.raises(ValidationError):
            resultant_valuation(PadicPoly(5, 10, [1, 1]),
                                PadicPoly(5, 12, [2, 1]))

    @pytest.mark.parametrize("a", (PadicInt(5, 20, 2), PadicInt(3, 4, 2)),
                             ids=("other-p", "fewer-digits"))
    def test_endo_multiplier(self, a):
        seed = LTSeed.standard(3, 20, 8)
        with pytest.raises(ValidationError):
            endo(seed, a)
        with pytest.raises(ValidationError):
            solve_intertwine(a, seed, seed)

    def test_endo_takes_an_int_as_a_residue_of_the_seed_ring(self):
        seed = LTSeed.standard(3, 20, 8)
        want = endo(seed, PadicInt(3, 20, -2))
        got = endo(seed, -2)
        assert (got.coeffs, got.eff_prec) == (want.coeffs, want.eff_prec)


class TestPadicInt:
    def test_reject_even_prime(self):
        with pytest.raises(ValidationError):
            PadicInt(2, 5, 1)
        with pytest.raises(ValidationError):
            PadicInt(9, 5, 1)

    def test_valuation(self):
        x = PadicInt(5, 6, 50)
        assert x.valuation() == 2
        assert PadicInt(5, 6, 3).valuation() == 0
        # zero residue reports the capped marker, never a number
        assert PadicInt(5, 6, 0).valuation() is None
        assert PadicInt(5, 3, 125).valuation() is None


def poly_mul(f, g):
    """The product of two polynomials of one ring, by ``mul_coeffs``."""
    return PadicPoly(f.p, f.N, mul_coeffs(f.coeffs, g.coeffs))


def poly_add(f, g):
    """The sum of two polynomials of one ring, coefficient by
    coefficient."""
    return PadicPoly(f.p, f.N, [x + y for x, y in zip_longest(
        f.coeffs, g.coeffs, fillvalue=0)])


def compose_by_polys(f, g):
    """f(g) by Horner with a PadicPoly made at every step, as first
    written: the oracle of the raw-list ``compose_poly``."""
    acc = PadicPoly(f.p, f.N, [])
    for c in reversed(f.coeffs):
        acc = poly_add(poly_mul(acc, g), PadicPoly(f.p, f.N, [c]))
    return acc


@st.composite
def compose_case(draw):
    """Two coefficient lists mod p^N; g's last coefficient is at times
    0 mod p^N (the constructor drops it) or has a power that is."""
    p = draw(st.sampled_from((3, 5, 7)))
    N = draw(st.integers(1, 10))
    mod = p ** N
    coeff = st.integers(-mod, 2 * mod)
    f = draw(st.lists(coeff, max_size=7))
    g = draw(st.lists(coeff, max_size=5))
    lead = draw(st.sampled_from(("any", "zero", "nilpotent")))
    if lead == "zero":
        g.append(mod * draw(st.integers(-2, 2)))
    elif lead == "nilpotent":
        g.append(p ** ((N + 1) // 2) * draw(st.integers(1, p)))
    return p, N, f, g


class TestPadicPoly:
    def test_divmod_unit(self):
        p, N = 5, 8
        f = PadicPoly(p, N, [2, 0, 1, 1])
        g = PadicPoly(p, N, [1, 1])
        q, r = f.divmod_unit(g)
        assert poly_add(poly_mul(q, g), r).coeffs == f.coeffs
        assert r.degree < g.degree

    def test_compose(self):
        p, N = 3, 6
        f = PadicPoly(p, N, [0, 2, 1])
        g = PadicPoly(p, N, [1, 1])
        h = f.compose_poly(g)
        # f(g(x)) = 2(1+x) + (1+x)^2 = 3 + 4x + x^2
        assert h.coeffs == [3, 4, 1]

    @settings(max_examples=200, deadline=None)
    @given(compose_case())
    @example((3, 4, [1, 2, 3], [0, 9]))  # g's lead squares to 0 mod 3^4
    @example((5, 3, [4, 0, 1], [2, 0, 125]))  # g's lead is 0 mod 5^3
    @example((7, 2, [], [1, 1]))
    @example((7, 2, [3, 1], []))
    def test_compose_matches_per_step_polynomials(self, case):
        p, N, f, g = case
        f, g = PadicPoly(p, N, f), PadicPoly(p, N, g)
        assert f.compose_poly(g) == compose_by_polys(f, g)



@st.composite
def division_case(draw):
    """A dividend and a divisor mod p^N whose leading coefficient is a
    unit other than 1."""
    p = draw(st.sampled_from((3, 5, 7)))
    N = draw(st.integers(1, 12))
    mod = p ** N
    coeff = st.integers(-mod, 2 * mod)
    h = draw(st.lists(coeff, max_size=6))
    lead = draw(st.integers(2, mod - 1).filter(lambda x: x % p))
    a = draw(st.lists(coeff, max_size=14))
    return p, N, a, h + [lead]


class TestKernels:
    @settings(max_examples=200, deadline=None)
    @given(division_case())
    def test_quotient_and_remainder(self, case):
        """a = q h + r mod p^N with deg r < deg h, both reduced."""
        p, N, a, h = case
        mod = p ** N
        c = list(a)
        rem_coeffs(c, h, pow(h[-1], -1, mod), mod)
        d = len(h) - 1
        assert len(c) == len(a)
        assert all(0 <= x < mod for x in c)
        r, q = c[:d], c[d:]
        back = mul_coeffs(q, h) if q else []
        back += [0] * (len(a) - len(back))
        for k, x in enumerate(r):
            back[k] += x
        assert [x % mod for x in back] == [x % mod for x in a]

    def test_product_is_unreduced(self):
        assert mul_coeffs([3, 4], [5, 0, 6]) == [15, 20, 18, 24]

    def test_product_accumulates_into_out(self):
        out = [1, 2, 3, 4, 5]
        assert mul_coeffs([3, 4], [5, 0, 6], out) is out
        assert out == [16, 22, 21, 28, 5]
        assert mul_coeffs([0, 2], [7], out) == [16, 36, 21, 28, 5]
        short = [1, 2, 3]  # adds through degree 2 only
        assert mul_coeffs([3, 4], [5, 0, 6], short) is short
        assert short == [16, 22, 21]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((3, 5, 7)), st.integers(1, 12), st.data())
    def test_product_truncates_at_the_length_of_out(self, p, N, data):
        """mul_coeffs(a, b, [0] * n) is the first n coefficients of the
        full product, for every n; residues are drawn from the ends of
        the range too (0 and p^N - 1)."""
        mod = p ** N
        residue = st.one_of(st.just(0), st.just(mod - 1),
                            st.integers(0, mod - 1))
        a = data.draw(st.lists(residue, min_size=1, max_size=9))
        b = data.draw(st.lists(residue, min_size=1, max_size=9))
        full = mul_coeffs(a, b)
        for n in range(len(full) + 3):
            want = (full + [0] * n)[:n]
            assert mul_coeffs(a, b, [0] * n) == want
            assert mul_coeffs(b, a, [0] * n) == want

    def test_divmod_unit_non_monic(self):
        p, N = 3, 6
        f = PadicPoly(p, N, [5, 7, 2, 9, 1])
        g = PadicPoly(p, N, [1, 3, 4])
        q, r = f.divmod_unit(g)
        assert poly_add(poly_mul(q, g), r).coeffs == f.coeffs
        assert r.degree < g.degree
        with pytest.raises(ValidationError):
            f.divmod_unit(PadicPoly(p, N, [1, 3]))


class TestHensel:
    def test_sqrt_minus_one_from_2(self):
        f = PadicPoly(5, 6, [1, 0, 1])
        r = hensel_root(f, PadicInt(5, 6, 2))
        assert f.evaluate(r).is_zero()
        assert r.value % 5 ** 3 == 57

    def test_sqrt_minus_one_from_3(self):
        f = PadicPoly(5, 6, [1, 0, 1])
        r = hensel_root(f, PadicInt(5, 6, 3))
        assert r.value % 5 ** 3 == 68

    def test_exact_root(self):
        f = PadicPoly(5, 6, [-7, 1])
        assert hensel_root(f, PadicInt(5, 6, 7)).value == 7

    def test_derivative_formed_once(self, monkeypatch):
        calls = []
        derivative = PadicPoly.derivative

        def counted(f):
            calls.append(f)
            return derivative(f)

        monkeypatch.setattr(PadicPoly, "derivative", counted)
        f = PadicPoly(5, 12, [1, 0, 1])
        r = hensel_root(f, PadicInt(5, 12, 2))
        assert f.evaluate(r).is_zero() and r.value % 5 == 2
        assert calls == [f]

    def test_steps_build_no_residues(self, monkeypatch):
        """The Newton steps run on raw residues: the root is the one
        residue built."""
        built = []
        init = PadicInt.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        f = PadicPoly(5, 12, [1, 0, 1])
        approx = PadicInt(5, 12, 2)
        monkeypatch.setattr(PadicInt, "__init__", counted)
        r = hensel_root(f, approx)
        monkeypatch.undo()
        assert f.evaluate(r).is_zero() and r.value % 5 == 2
        assert built == [(5, 12, r.value)]

    def test_hypothesis_violated(self):
        # x^2 - 5 from approx 0: ord f = 1, ord f' capped
        f = PadicPoly(5, 6, [-5, 0, 1])
        with pytest.raises(HenselError):
            hensel_root(f, PadicInt(5, 6, 0))


def reference_newton_polygon(f):
    """The two-pass Newton polygon: valuations through ``Zp.val``, then
    the hull, then the segments sorted by slope.  The oracle for the
    one-pass ``newton_polygon``."""
    if f.is_zero():
        raise ValidationError("newton_polygon of the zero polynomial")
    lo = 0
    while f.coeffs[lo] == 0:
        lo += 1
    pts = []
    capped = []
    for i in range(lo, len(f.coeffs)):
        v = f.R.val(f.coeffs[i])
        if v is None:
            capped.append(i - lo)
        else:
            pts.append((i - lo, v))
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    for i in capped:
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 < i < x2:
                hull_y = Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (i - x1)
                if Fraction(f.N) < hull_y:
                    raise PrecisionError(
                        f"coefficient {i + lo} is zero at precision {f.N} but the "
                        f"hull needs valuation >= {hull_y} there"
                    )
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append((Fraction(y1 - y2, x2 - x1), x2 - x1))
    segments.sort(key=lambda sl: sl[0])
    return NewtonPolygon(tuple(segments), lowest_power=lo)


@st.composite
def sparse_poly(draw):
    """A nonzero polynomial of degree <= 9 at p in {3, 5, 7}, N in
    [1, 8], whose residues are each zero (at the low end too) or p^v
    times a unit, v < N: zero residues land inside the hull, above it
    and under it."""
    p = draw(st.sampled_from((3, 5, 7)))
    N = draw(st.integers(1, 8))
    coeff = st.one_of(
        st.just(0),
        st.builds(lambda v, u: p ** v * u, st.integers(0, N - 1),
                  st.integers(1, p ** 2).filter(lambda u: u % p)))
    coeffs = draw(st.lists(coeff, min_size=1, max_size=10).filter(any))
    return PadicPoly(p, N, coeffs)


def polygon_outcome(route, f):
    try:
        return route(f)
    except PrecisionError as exc:
        return ("PrecisionError", str(exc))


class TestNewtonPolygon:
    def test_lubin_tate_shape(self):
        f = PadicPoly(5, 8, [0, 5, 0, 0, 0, 1])
        poly = newton_polygon(f)
        assert poly.lowest_power == 1
        assert poly.segments == ((Fraction(1, 4), 4),)

    def test_monomial(self):
        poly = newton_polygon(PadicPoly(5, 8, [0, 1]))
        assert poly.segments == () and poly.lowest_power == 1

    def test_two_roots_valuation_one(self):
        poly = newton_polygon(PadicPoly(5, 8, [-25, 0, 1]))
        assert poly.segments == ((Fraction(1), 2),)

    def test_merge_on_random_monic_pairs(self):
        rng = random.Random(11)
        p, N = 3, 20
        for _ in range(40):
            def rand_monic(deg):
                c = [rng.randrange(1, p ** 6) for _ in range(deg)] + [1]
                return PadicPoly(p, N, c)

            f = rand_monic(rng.randrange(1, 4))
            g = rand_monic(rng.randrange(1, 4))
            pf, pg, pfg = (newton_polygon(h)
                           for h in (f, g, poly_mul(f, g)))
            merged = {}
            for slope, length in pf.segments + pg.segments:
                merged[slope] = merged.get(slope, 0) + length
            got = {s: l for s, l in pfg.segments}
            assert got == merged
            assert pfg.lowest_power == pf.lowest_power + pg.lowest_power

    def test_capped_coefficient_inside_hull(self):
        # zero residues inside the hull: their true valuation, >= N, is
        # above every hull point, which is at most N - 1 high
        f = PadicPoly(3, 2, [3, 0, 0, 0, 1])
        poly = newton_polygon(f)  # hull needs ord >= 1/2 at i=2: fine
        assert total_length(poly) == 4

    @settings(max_examples=400, deadline=None)
    @given(sparse_poly())
    @example(PadicPoly(3, 2, [9, 0, 0, 0, 1]))  # 0 mod 3^2 at the low end
    @example(PadicPoly(3, 1, [1, 0, 0, 0, 3, 0, 1]))
    def test_one_pass_matches_the_two_pass_reference(self, f):
        """Equal polygons on polynomials with zero residues inside the
        hull and at its low end.  The reference's PrecisionError, for a
        zero residue under the hull, would show here as an unequal
        outcome: it never fires, as every hull point of reduced residues
        is at most N - 1 high, and the one-pass polygon has no such
        branch."""
        assert (polygon_outcome(newton_polygon, f)
                == polygon_outcome(reference_newton_polygon, f))

    def test_record(self):
        """A value record: the repr names its fields, a field cannot be
        assigned, and equality and hash go field by field."""
        poly = newton_polygon(PadicPoly(5, 8, [5, 0, 1]))
        assert repr(poly) == ("NewtonPolygon(segments=((Fraction(1, 2), 2),),"
                              " lowest_power=0)")
        with pytest.raises(AttributeError):
            poly.lowest_power = 1
        twin = NewtonPolygon(((Fraction(1, 2), 2),), lowest_power=0)
        assert poly == twin and hash(poly) == hash(twin)


def variable(p, N, nvars, trunc, index=0):
    """The series X_index in ``nvars`` variables."""
    e = tuple(int(i == index) for i in range(nvars))
    return TruncSeries(p, N, nvars, trunc, {e: 1})


class TestTruncSeries:
    def test_compose_identity(self):
        p, N, D = 5, 10, 8
        f = variable(p, N, 1, D)
        g = TruncSeries(p, N, 1, D, {(1,): 2, (3,): 7})
        assert f.compose([g]).coeffs == g.coeffs

    def test_compose_zero_argument(self):
        p, N, D = 5, 10, 8
        f = TruncSeries(p, N, 2, D, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
        t = variable(p, N, 2, D, 0)
        z = TruncSeries(p, N, 2, D, {})
        assert f.compose([t, z]).coeffs == t.coeffs

    def test_compose_binomial_oracle(self):
        # ((1+t)^3 - 1) o ((1+t)^3 - 1) = (1+t)^9 - 1, truncated
        from math import comb

        p, N, D = 3, 19, 9
        f = TruncSeries(p, N, 1, D, {(k,): comb(3, k) for k in (1, 2, 3)})
        got = f.compose([f])
        want = {(k,): comb(9, k) % p ** N for k in range(1, 10)}
        assert got.coeffs == want

    def test_constant_term_rejected(self):
        p, N, D = 5, 10, 8
        f = variable(p, N, 1, D)
        g = TruncSeries(p, N, 1, D, {(0,): 1})
        with pytest.raises(ValidationError):
            f.compose([g])

    def test_graded_exactness(self):
        # degree-k coefficients agree between truncation D and D+5
        rng = random.Random(3)
        p, N, D = 3, 15, 8

        def rand(trunc):
            return {(k,): rng.randrange(p ** 6) for k in range(1, trunc + 1)}

        coeffs_a, coeffs_b = rand(D + 5), rand(D + 5)
        for op in ("mul", "compose"):
            a1 = TruncSeries(p, N, 1, D, coeffs_a)
            b1 = TruncSeries(p, N, 1, D, coeffs_b)
            a2 = TruncSeries(p, N, 1, D + 5, coeffs_a)
            b2 = TruncSeries(p, N, 1, D + 5, coeffs_b)
            r1 = a1 * b1 if op == "mul" else a1.compose([b1])
            r2 = a2 * b2 if op == "mul" else a2.compose([b2])
            for k in range(1, D + 1):
                assert r1.coeffs.get((k,), 0) == r2.coeffs.get((k,), 0), op

    def test_congruent_rejects_a_negative_digit_count(self):
        s = TruncSeries(5, 4, 1, 3, {(1,): 7})
        t = TruncSeries(5, 4, 1, 3, {(1,): 2})
        assert s.congruent(t, 0) and s.congruent(t, 1)
        assert not s.congruent(t, 2)
        with pytest.raises(ValidationError):
            s.congruent(t, -1)

    def test_congruent_refuses_digits_past_eff_prec(self):
        # both series are known to 4 digits: a 5th cannot be certified
        s = TruncSeries(5, 4, 1, 3, {(1,): 7})
        t = TruncSeries(5, 4, 1, 3, {(1,): 7})
        assert s.congruent(t) and s.congruent(t, 4)
        for k in (5, 10):
            with pytest.raises(ValidationError):
                s.congruent(t, k)
        # a series known to 3 digits
        u = TruncSeries(5, 4, 1, 3, {(1,): 5}, eff_prec=3)
        assert u.eff_prec == 3 and u.congruent(u, 3)
        with pytest.raises(ValidationError):
            u.congruent(u, 4)

    def test_no_known_digit_is_a_precision_error(self):
        with pytest.raises(PrecisionError):
            TruncSeries(5, 10, 1, 6, {(1,): 25}, eff_prec=0)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((3, 5, 7)), st.integers(1, 10),
           st.integers(0, 11), st.data())
    def test_power_table_matches_repeated_products(self, p, N, D, data):
        """power_table(f)[k] is f^k formed by k - 1 sparse products, for
        every k < D, dense through degree D."""
        mod = p ** N
        residue = st.one_of(st.just(0), st.just(mod - 1),
                            st.integers(0, mod - 1))
        coeffs = data.draw(st.lists(residue, min_size=D + 1,
                                    max_size=D + 1))
        f = TruncSeries.from_coeff_list(p, N, D, coeffs)
        table = power_table(f)
        assert len(table) == max(D, 1)
        fk = TruncSeries(p, N, 1, D, {(0,): 1})
        for k, row in enumerate(table):
            assert row == [fk.coeffs.get((i,), 0) for i in range(D + 1)]
            fk = fk * f


# the brute-force oracle of the sparse product and composition: exact
# integer dicts, every pair of terms or monomial expanded, reduced once

def exact_product(a: dict, b: dict, trunc: int) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= trunc:
                out[e] = out.get(e, 0) + ca * cb
    return out


def exact_compose(f: dict, f_trunc: int, args: list, nvars: int,
                  trunc: int) -> dict:
    """f (its terms past ``f_trunc`` dropped, as the constructor drops
    them) at args, the monomials expanded one by one."""
    out = {}
    for e, c in f.items():
        if sum(e) > f_trunc:
            continue
        term = {(0,) * nvars: c}
        for a, k in zip(args, e):
            for _ in range(k):
                term = exact_product(term, a, trunc)
        for et, ct in term.items():
            out[et] = out.get(et, 0) + ct
    return out


def reduced(coeffs: dict, mod: int) -> dict:
    return {e: c % mod for e, c in coeffs.items() if c % mod}


@st.composite
def raw_series(draw, p, nvars, N, trunc, constant=True):
    """The raw dict, eff_prec and series of a draw: exponents up to two
    degrees past ``trunc``, residues 0, mod - 1 and ints out of range."""
    mod = p ** N
    residue = st.one_of(st.just(0), st.just(mod - 1),
                        st.integers(-3 * mod, 3 * mod))
    exponent = st.tuples(*[st.integers(0, trunc + 2)] * nvars)
    if not constant:
        exponent = exponent.filter(any)
    coeffs = draw(st.dictionaries(exponent, residue, max_size=6))
    eff = draw(st.one_of(st.none(), st.integers(1, N + 2)))
    return coeffs, eff, TruncSeries(p, N, nvars, trunc, coeffs, eff)


class TestSparseAlgebraOracle:
    """``a * b`` and ``f.compose(args)`` against the brute-force oracle:
    coefficients, eff_prec, N and trunc, for self and args at different
    precisions and truncations."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((3, 5, 7)), st.integers(1, 3), st.integers(1, 8),
           st.integers(0, 6), st.data())
    def test_product(self, p, nvars, N, trunc, data):
        ca, ea, a = data.draw(raw_series(p, nvars, N, trunc))
        cb, eb, b = data.draw(raw_series(p, nvars, N, trunc))
        got = a * b
        assert got.coeffs == reduced(exact_product(ca, cb, trunc), p ** N)
        assert got.eff_prec == min(ea or N, eb or N)
        assert (got.N, got.trunc, got.nvars) == (N, trunc, nvars)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((3, 5, 7)), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 8), st.integers(1, 8), st.integers(0, 6),
           st.integers(0, 6), st.data())
    def test_compose(self, p, n, m, N_f, N_a, t_f, t_a, data):
        cf, ef, f = data.draw(raw_series(p, n, N_f, t_f))
        drawn = [data.draw(raw_series(p, m, N_a, t_a, constant=False))
                 for _ in range(n)]
        got = f.compose([a for _, _, a in drawn])
        want = exact_compose(cf, t_f, [c for c, _, _ in drawn], m, t_a)
        assert got.coeffs == reduced(want, p ** min(N_f, N_a))
        assert got.eff_prec == min([ef or N_f]
                                   + [e or N_a for _, e, _ in drawn])
        assert (got.N, got.trunc, got.nvars) == (N_a, t_a, m)

    @pytest.mark.parametrize("args,message", (
        ([], "need 2 arguments, got 0"),
        (["x", "x", "x"], "need 2 arguments, got 3"),
        # the count first, then each argument's constant term, then its p
        (["const", "x", "x"], "need 2 arguments, got 3"),
        (["x", "const"], "composition argument has a constant term"),
        (["p7", "const"], "mismatched p in composition"),
        (["const", "p7"], "composition argument has a constant term"),
        # then the args against args[0]
        (["x", "N6"], "mismatched series parameters"),
        (["x", "trunc5"], "mismatched series parameters"),
        (["x", "nvars2"], "mismatched series parameters"),
        (["N6", "p7"], "mismatched p in composition"),
    ))
    def test_compose_refusals_in_order(self, args, message):
        made = {
            "x": variable(5, 4, 1, 6),
            "const": TruncSeries(5, 4, 1, 6, {(0,): 1, (1,): 1}),
            "p7": variable(7, 4, 1, 6),
            "N6": variable(5, 6, 1, 6),
            "trunc5": variable(5, 4, 1, 5),
            "nvars2": variable(5, 4, 2, 6),
        }
        f = TruncSeries(5, 4, 2, 6, {(1, 1): 1})
        with pytest.raises(ValidationError) as info:
            f.compose([made[a] for a in args])
        assert str(info.value) == message

    def test_product_refuses_mismatched_series(self):
        a = variable(5, 4, 1, 6)
        for b in (variable(5, 6, 1, 6),
                  variable(5, 4, 1, 5),
                  variable(5, 4, 2, 6)):
            with pytest.raises(ValidationError,
                               match="^mismatched series parameters$"):
                a * b


def reference_compositional_inverse(f: TruncSeries) -> TruncSeries:
    """The inverse of a one-variable series with unit linear coefficient
    under composition, through the truncation degree: at degree k,
    compose f with the inverse so far in full and correct its degree-k
    part.  The tests invert the library's series with it."""
    if f.nvars != 1:
        raise ValidationError("compositional inverse needs one variable")
    a1 = f.coefficient((1,)).value
    if a1 % f.p == 0:
        raise ValidationError("linear coefficient is not a unit")
    if not f.constant_term().is_zero():
        raise ValidationError("series has a constant term")
    p, N, D, mod = f.p, f.N, f.trunc, f.R.mod
    inv_a1 = pow(a1, -1, mod)
    g = TruncSeries(p, N, 1, D, {(1,): inv_a1}, f.eff_prec)
    for k in range(2, D + 1):
        c = f.compose([g]).coefficient((k,)).value
        b = -c * inv_a1 % mod
        if b:
            nc = dict(g.coeffs)
            nc[(k,)] = b
            g = g.copy_with(nc)
    return g


# the resultant oracle (test_cm_split imports it too); the library's own
# resultant route is local_tower.level_disc

def _poly_gcd_is_nontrivial(f: PadicPoly, g: PadicPoly) -> bool:
    """Try to certify a common factor via the Euclidean algorithm over
    Z/p^N.  Returns True when a nontrivial common divisor is exhibited;
    bails out (PrecisionError) when a leading coefficient goes non-unit."""
    a, b = f, g
    while not b.is_zero():
        if b.coeffs[-1] % b.p == 0:
            raise PrecisionError(
                "resultant indistinguishable from 0 at this precision "
                "(Euclidean step hit a non-unit leading coefficient)"
            )
        _, r = a.divmod_unit(b)
        a, b = b, r
    return a.degree >= 1


def resultant_valuation(f: PadicPoly, g: PadicPoly):
    """Oracle: p-adic valuation of Res(f, g) via the Sylvester
    determinant over Z/p^N.  Returns ``None`` for a certified-infinite
    resultant (shared factor); raises PrecisionError when the determinant
    is zero at precision N but no shared factor can be certified."""
    f._check(g)
    if f.is_zero() or g.is_zero():
        raise ValidationError("resultant of a zero polynomial")
    if f.degree == 0 or g.degree == 0:
        # Res(c, g) = c^deg(g)
        c = f if f.degree == 0 else g
        other = g if f.degree == 0 else f
        v = c.R.val(c.coeffs[0])
        if v is None:
            raise PrecisionError("constant polynomial is zero at precision N")
        return v * other.degree
    rows = sylvester_rows(f.coeffs, g.coeffs, 0)
    v = f.R.val(padic.ring_det(rows) % f.R.mod)
    if v is not None:
        return v
    if _poly_gcd_is_nontrivial(f, g):
        return None  # infinite: shared factor
    raise PrecisionError(
        f"resultant is 0 mod p^{f.N} but no common factor was certified"
    )


class TestResultant:
    def test_linear_evaluation(self):
        f = PadicPoly(5, 10, [1, 0, 1])
        g = PadicPoly(5, 10, [-2, 1])
        assert resultant_valuation(f, g) == 1

    def test_shared_root_infinite(self):
        f = PadicPoly(5, 10, [0, 1])
        assert resultant_valuation(f, f) is None

    def test_binomial_discriminant(self):
        # Res((1+x)^5 - 1, derivative) = 5^5 (checked against an
        # independent symbolic resultant)
        f = PadicPoly(5, 20, [0, 5, 10, 10, 5, 1])
        assert resultant_valuation(f, f.derivative()) == 5

    def test_sympy_cross_check(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        rng = random.Random(5)
        p, N = 5, 18
        for _ in range(10):
            fc = [rng.randrange(-20, 20) for _ in range(3)] + [1]
            gc = [rng.randrange(-20, 20) for _ in range(2)] + [1]
            fs = sum(c * x ** i for i, c in enumerate(fc))
            gs = sum(c * x ** i for i, c in enumerate(gc))
            res = int(sympy.resultant(fs, gs))
            f = PadicPoly(p, N, fc)
            g = PadicPoly(p, N, gc)
            if res == 0:
                assert resultant_valuation(f, g) is None
                continue
            want = 0
            r = abs(res)
            while r % p == 0:
                r //= p
                want += 1
            if want < N:
                assert resultant_valuation(f, g) == want


def reference_compose(f, args):
    """Composition as first written: every monomial is the product of
    cached powers of the arguments it involves."""
    if len(args) != f.nvars:
        raise ValidationError(f"need {f.nvars} arguments, got {len(args)}")
    for a in args:
        if not a.constant_term().is_zero():
            raise ValidationError("composition argument has a constant term")
        if a.p != f.p:
            raise ValidationError("mismatched p in composition")
    tgt = args[0]
    for a in args[1:]:
        tgt._check(a)
    mod = f.p ** f.N
    eff = min([f.eff_prec] + [a.eff_prec for a in args])
    pow_cache = [dict() for _ in args]

    def arg_power(i, k):
        cache = pow_cache[i]
        if k not in cache:
            cache[k] = args[i] if k == 1 else arg_power(i, k - 1) * args[i]
        return cache[k]

    out = {}
    for e, c in sorted(f.coeffs.items(), key=lambda kv: sum(kv[0])):
        term = None
        for i, k in enumerate(e):
            if k:
                pw = arg_power(i, k)
                term = pw if term is None else term * pw
        if term is None:  # constant monomial
            z = (0,) * tgt.nvars
            out[z] = (out.get(z, 0) + c) % mod
            continue
        for et, ct in term.coeffs.items():
            out[et] = (out.get(et, 0) + c * ct) % mod
    return TruncSeries(tgt.p, tgt.N, tgt.nvars, tgt.trunc,
                       {e: c for e, c in out.items() if c}, eff)


@st.composite
def random_series(draw, p, N, nvars, D, constant=False):
    exps = [e for e in draw(st.lists(st.tuples(
        *[st.integers(0, D)] * nvars), max_size=25)) if sum(e) <= D]
    coeffs = {e: draw(st.integers(0, p ** N - 1)) for e in exps
              if constant or any(e)}
    return TruncSeries(p, N, nvars, D, coeffs, draw(st.integers(1, N)))


@st.composite
def composition_case(draw):
    """f in 1-3 variables and as many arguments in a common space; now
    and then the arguments' precision differs from f's, an argument
    has a constant term or another truncation, or one is missing."""
    p = draw(st.sampled_from((3, 5)))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    D, N = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    f = draw(random_series(p, N, n, draw(st.integers(0, 8)), constant=True))
    if draw(st.integers(0, 3)) == 0:
        N = draw(st.integers(1, 8))
    args = [draw(random_series(p, N, m, D)) for _ in range(n)]
    bad = draw(st.sampled_from(["none"] * 12 + ["constant", "trunc",
                                                 "arity"]))
    if bad == "constant":
        args[-1] = args[-1].copy_with({**args[-1].coeffs, (0,) * m: 1})
    elif bad == "trunc":
        args[-1] = draw(random_series(p, N, m, D + 1))
    elif bad == "arity":
        args.pop()
    return f, args


def _composed(compose, f, args):
    try:
        g = compose(f, args)
    except ValidationError:
        return ValidationError
    return g.coeffs, g.eff_prec, g.nvars, g.trunc


class TestCompose:
    @settings(max_examples=200, deadline=None)
    @given(composition_case())
    def test_matches_reference(self, case):
        f, args = case
        assert (_composed(TruncSeries.compose, f, args)
                == _composed(reference_compose, f, args))
