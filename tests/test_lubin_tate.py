"""One-dimensional formal group machinery: seeds, group laws,
endomorphisms, strict isomorphisms."""

import random

import pytest

from cmtower.errors import InvariantError, PrecisionError, ValidationError
from cmtower.lubin_tate import (LTSeed, endo, group_law, solve_intertwine,
                                strict_iso)
from cmtower.padic import PadicInt, TruncSeries, compositional_inverse


def check_hom(phi: TruncSeries, F: TruncSeries, G: TruncSeries):
    """Raise ``InvariantError`` unless the one-variable series phi is a
    homomorphism from the law F to the law G: phi(F(X, Y)) = G(phi X,
    phi Y) through the truncation degree."""
    x, y = (TruncSeries.variable(phi.p, phi.N, 2, phi.trunc, i)
            for i in (0, 1))
    rhs = G.compose([phi.compose([x]), phi.compose([y])])
    if not phi.compose([F]).congruent(rhs):
        raise InvariantError("series does not intertwine the group laws")


def random_seed(rng, p, N, trunc):
    """A random valid seed: pi = p * unit, higher coefficients divisible
    by p except the t^p one, which is 1 mod p."""
    pi = p * rng.randrange(1, p)
    coeffs = [0, pi]
    for k in range(2, trunc + 1):
        if k == p:
            coeffs.append(1 + p * rng.randrange(p))
        elif rng.random() < 0.4:
            coeffs.append(p * rng.randrange(1, p ** 2))
        else:
            coeffs.append(0)
    return LTSeed.from_coeffs(p, N, trunc, coeffs)


class TestSeedValidation:
    def test_standard_and_multiplicative(self):
        s = LTSeed.standard(5, 12, 10)
        assert s.pi_val.value == 5 and s.is_polynomial
        m = LTSeed.multiplicative(5, 12, 10)
        assert m.pi_val.value == 5 and m.is_polynomial
        assert m.d.coeffs[(5,)] == 1

    def test_reject_bad_linear(self):
        with pytest.raises(ValidationError):
            LTSeed.from_coeffs(5, 12, 10, [0, 3, 0, 0, 0, 1])

    def test_reject_unit_middle_coefficient(self):
        with pytest.raises(ValidationError):
            LTSeed.from_coeffs(5, 12, 10, [0, 5, 2, 0, 0, 1])

    def test_reject_wrong_frobenius_term(self):
        with pytest.raises(ValidationError):
            LTSeed.from_coeffs(5, 12, 10, [0, 5, 0, 0, 0, 2])

    def test_reject_trunc_below_p(self):
        with pytest.raises(ValidationError):
            LTSeed.standard(11, 12, 8)

    @pytest.mark.parametrize("N,pi,error", (
        (1, 5, PrecisionError), (1, 3, ValidationError),
        (12, 25, ValidationError), (2, 25, ValidationError),
    ), ids=("capped-at-one-digit", "unit", "valuation-two",
            "capped-at-two-digits"))
    def test_uniformizer_valuation(self, N, pi, error):
        """A capped valuation is short precision only at N = 1, where
        v = 1 is still possible; elsewhere the answer is certain."""
        with pytest.raises(error, match="valuation"):
            LTSeed.standard(5, N, 10, pi=pi)

    @pytest.mark.parametrize("trunc", (-1, 0, 1, 4))
    def test_trunc_below_p_is_named_before_the_uniformizer(self, trunc):
        # truncating below degree 1 also drops pi from d
        with pytest.raises(ValidationError, match="truncation degree"):
            LTSeed.standard(5, 12, trunc)


class TestGroupLaw:
    def test_multiplicative_law_is_xy(self):
        # the law for (1+t)^p - 1 is X + Y + XY exactly
        for p in (3, 5):
            seed = LTSeed.multiplicative(p, 16, 12)
            F = group_law(seed).F
            assert F.coeffs == {(1, 0): 1, (0, 1): 1, (1, 1): 1}

    def test_commutative(self):
        seed = LTSeed.standard(5, 16, 10)
        F = group_law(seed).F
        swapped = {(b, a): c for (a, b), c in F.coeffs.items()}
        assert swapped == F.coeffs

    def test_identity_section(self):
        seed = LTSeed.standard(3, 16, 10)
        G = group_law(seed)
        p, N, D = seed.p, seed.N, seed.trunc
        x = TruncSeries.variable(p, N, 1, D, 0)
        z = TruncSeries(p, N, 1, D, {})
        fx0 = G.add(x, z)
        assert fx0.coeffs == x.coeffs

    def test_associative(self):
        seed = LTSeed.standard(3, 18, 9)
        G = group_law(seed)
        p, N, D = seed.p, seed.N, seed.trunc
        xs = [TruncSeries.variable(p, N, 3, D, i) for i in range(3)]
        left = G.add(G.add(xs[0], xs[1]), xs[2])
        right = G.add(xs[0], G.add(xs[1], xs[2]))
        assert left.congruent(right)


class TestEndo:
    def test_pi_endo_is_seed_series(self):
        for make in (LTSeed.standard, LTSeed.multiplicative):
            seed = make(5, 16, 12)
            e = endo(seed, seed.pi_val)
            assert e.coeffs == seed.d.coeffs

    def test_one_is_identity(self):
        seed = LTSeed.standard(3, 14, 10)
        e = endo(seed, PadicInt(3, 14, 1))
        assert e.coeffs == {(1,): 1}

    def test_multiplicative_endos_are_binomials(self):
        # [a](t) = (1+t)^a - 1 on the multiplicative seed
        from math import comb

        p, N, D = 5, 16, 10
        seed = LTSeed.multiplicative(p, N, D)
        for a in (2, 3, 7):
            e = endo(seed, PadicInt(p, N, a))
            want = {(k,): comb(a, k) % p ** N
                    for k in range(1, min(a, D) + 1) if comb(a, k)}
            assert e.coeffs == want

    def test_endo_ring_laws(self):
        rng = random.Random(17)
        p, N, D = 3, 18, 8
        seed = LTSeed.standard(p, N, D)
        G = group_law(seed)
        for _ in range(5):
            a = PadicInt(p, N, rng.randrange(1, p ** 4))
            b = PadicInt(p, N, rng.randrange(1, p ** 4))
            ea, eb = endo(seed, a), endo(seed, b)
            sum_series = G.add(ea, eb)
            assert sum_series.congruent(endo(seed, a + b))
            assert ea.compose([eb]).congruent(endo(seed, a * b))

    @pytest.mark.parametrize("a", (0, 3 ** 12))
    def test_capped_multiplier_spends_a_digit_per_degree(self, a):
        """A multiplier that is 0 mod p^N is solved like any other: the
        zero series certifies N - (D - 1) digits, which the same
        multiplier at N = 22 confirms ([3^12] has t^3 coefficient 3^11),
        and no digit at all raises."""
        e = endo(LTSeed.standard(3, 12, 10), a)
        assert e.coeffs == {} and e.eff_prec == 12 - 9
        big = endo(LTSeed.standard(3, 22, 10), 3 ** 12)
        assert big.coeffs[(3,)] % 3 ** 12 == 3 ** 11
        assert all(c % 3 ** e.eff_prec == 0 for c in big.coeffs.values())
        with pytest.raises(PrecisionError, match="exhausted"):
            endo(LTSeed.standard(3, 9, 10), a)

    def test_mismatched_uniformizers_rejected(self):
        src = LTSeed.standard(5, 14, 10)
        dst = LTSeed.standard(5, 14, 10, pi=10)
        with pytest.raises(ValidationError):
            solve_intertwine(PadicInt(5, 14, 1), src, dst)

    @pytest.mark.parametrize("a", (0, 1))
    @pytest.mark.parametrize("dst,match", (
        (LTSeed.standard(5, 15, 10), r"\(p, N\)"),
        (LTSeed.standard(5, 14, 12), "truncation"),
        (LTSeed.standard(5, 14, 10, pi=10), "uniformizers"),
    ))
    def test_mismatched_seeds_rejected_for_every_multiplier(self, a, dst,
                                                            match):
        """A seed pair that disagrees on (p, N), on truncation or on the
        uniformizer is refused before the multiplier is looked at: a = 0,
        whose series is 0 with no solve, is refused like a = 1."""
        src = LTSeed.standard(5, 14, 10)
        with pytest.raises(ValidationError, match=match):
            solve_intertwine(a, src, dst)


class TestStrictIso:
    def test_standard_to_multiplicative(self):
        p, N, D = 5, 18, 12
        src = LTSeed.standard(p, N, D)
        dst = LTSeed.multiplicative(p, N, D)
        phi = strict_iso(src, dst)
        assert phi.coeffs[(1,)] == 1
        # the defining residual: dst.d(phi) = phi(src.d)
        lhs = dst.d.compose([phi])
        rhs = phi.compose([src.d])
        assert lhs.congruent(rhs)
        assert phi.coefficient((1,)).is_unit()

    def test_iso_round_trip(self):
        p, N, D = 3, 18, 10
        src = LTSeed.standard(p, N, D)
        dst = LTSeed.multiplicative(p, N, D)
        phi = strict_iso(src, dst)
        comp = phi.compose([compositional_inverse(phi)])
        assert comp.coeffs == {(1,): 1}

    def test_transports_group_law(self):
        p, N, D = 3, 16, 9
        src = LTSeed.standard(p, N, D)
        dst = LTSeed.multiplicative(p, N, D)
        phi = strict_iso(src, dst)
        Gs, Gd = group_law(src), group_law(dst)
        x = TruncSeries.variable(p, N, 2, D, 0)
        y = TruncSeries.variable(p, N, 2, D, 1)
        lhs = phi.compose([Gs.F])
        rhs = Gd.F.compose([phi.compose([x]), phi.compose([y])])
        assert lhs.congruent(rhs)
        check_hom(phi, Gs.F, Gd.F)


class TestHom:
    """A homomorphism is its series phi: invertible when its linear
    coefficient is a unit, certified by ``check_hom``."""

    def test_pi_endo_not_invertible(self):
        seed = LTSeed.standard(5, 14, 10)
        h = endo(seed, seed.pi_val)
        assert not h.coefficient((1,)).is_unit()
        with pytest.raises(ValidationError):
            compositional_inverse(h)

    def test_unit_endo_invertible(self):
        seed = LTSeed.standard(5, 14, 10)
        F = group_law(seed).F
        h = endo(seed, PadicInt(5, 14, 2))
        check_hom(h, F, F)
        assert h.coefficient((1,)).is_unit()
        comp = h.compose([compositional_inverse(h)])
        assert comp.coeffs == {(1,): 1}

    def test_verify_rejects_non_hom(self):
        seed = LTSeed.standard(3, 14, 8)
        F = group_law(seed).F
        bad = TruncSeries(3, 14, 1, 8, {(1,): 1, (2,): 1})
        with pytest.raises(InvariantError):
            check_hom(bad, F, F)


class TestPiShape:
    """endo(seed, pi) = d by uniqueness, so the pi-endomorphism has the
    shape that LTSeed.__init__ checks on d (TestSeedValidation)."""

    @pytest.mark.parametrize("make", (
        lambda: LTSeed.standard(5, 14, 12),
        lambda: LTSeed.multiplicative(5, 14, 12),
        # terms past degree 2p
        lambda: LTSeed.from_coeffs(3, 14, 10, [0, 3, 3, 1, 0, 0, 0, 6]),
    ), ids=("standard", "multiplicative", "tail"))
    def test_endo_of_pi_is_d(self, make):
        seed = make()
        assert endo(seed, seed.pi_val).congruent(seed.d)


class TestRandomSeeds:
    def test_axioms_hold_for_random_seeds(self):
        rng = random.Random(23)
        p, N, D = 3, 18, 8
        for _ in range(6):
            seed = random_seed(rng, p, N, D)
            F = group_law(seed).F
            assert F.coeffs[(1, 0)] == 1 and F.coeffs[(0, 1)] == 1
            swapped = {(b, a): c for (a, b), c in F.coeffs.items()}
            assert swapped == F.coeffs
            assert endo(seed, seed.pi_val).congruent(seed.d)
