"""Elliptic formal groups with complex multiplication by the Gaussian
integers, and the bridge to the one-dimensional Lubin-Tate machinery."""

from fractions import Fraction

import pytest

from cmtower.elliptic_fg import (EllipticFormalData, WeierstrassCurve,
                                 cm_endo_elliptic, curve_group_law,
                                 embed_gauss_series, frobenius_candidates,
                                 frobenius_check, gauss_embed_root,
                                 match_lubin_tate, point_count_ap)
from cmtower.errors import InvariantError, ValidationError
from cmtower.padic import PadicInt


CURVE = WeierstrassCurve(-1, 0)  # y^2 = x^3 - x, CM by the Gaussians


@pytest.fixture(scope="module")
def data():
    return curve_group_law(CURVE, 20, p=13)


class TestCurve:
    def test_discriminant(self):
        assert CURVE.discriminant == 64
        assert CURVE.good_reduction_at(13)
        assert not CURVE.good_reduction_at(2)

    def test_bad_reduction_rejected(self):
        bad = WeierstrassCurve(0, 1)  # discriminant -432 = -16*27
        with pytest.raises(ValidationError):
            curve_group_law(bad, 10, p=3)


class TestFormalData:
    def test_log_head(self, data):
        assert data.log[1] == 1
        assert data.log[5] == Fraction(-2, 5)
        assert data.log[9] == Fraction(2, 3)
        assert data.log[13] == Fraction(-20, 13)

    def test_exp_inverts_log(self, data):
        # log(exp(z)) = z through the truncation degree
        from cmtower.elliptic_fg import _mul1

        comp = {}
        power = {0: Fraction(1)}
        exp_deg = 0
        for k in sorted(data.log):
            while exp_deg < k:
                power = _mul1(power, data.exp, data.D)
                exp_deg += 1
            for e, c in power.items():
                comp[e] = comp.get(e, 0) + data.log[k] * c
        comp = {k: v for k, v in comp.items() if v and k <= data.D}
        assert comp == {1: Fraction(1)}

    def test_group_law_is_integral_and_unital(self, data):
        # construction already asserts integrality and F(X, 0) = X;
        # check symmetry here
        swapped = {(j, i): c for (i, j), c in data.F.items()}
        assert swapped == data.F

    def test_w_starts_at_z_cubed(self, data):
        assert min(data.w) == 3 and data.w[3] == 1


class TestCmEndo:
    def test_minus_one_is_minus_z(self, data):
        # the log has only degrees 1 mod 4, so [-1](z) = -z exactly
        series = cm_endo_elliptic(data, (-1, 0))
        assert series == {1: (Fraction(-1), Fraction(0))}

    def test_i_acts_as_iz(self, data):
        series = cm_endo_elliptic(data, (0, 1))
        assert series == {1: (Fraction(0), Fraction(1))}

    def test_endo_additive_inverse(self, data):
        # F(z, [-1]z) = 0: substitute into the two-variable law
        from cmtower.elliptic_fg import _compose_1to2

        minus = cm_endo_elliptic(data, (-1, 0))
        assert all(v[1] == 0 for v in minus.values())
        m = {k: v[0] for k, v in minus.items()}
        F1 = {k: Fraction(c) for k, c in data.F.items()}
        # build F(z, m(z)) by direct substitution
        acc = {}
        pow_cache = {(0, 0): {0: Fraction(1)}}

        def powers(i, j):
            key = (i, j)
            if key not in pow_cache:
                if i > 0:
                    prev = powers(i - 1, j)
                    cur = {k + 1: v for k, v in prev.items()}
                else:
                    prev = powers(i, j - 1)
                    cur = {}
                    for k, v in prev.items():
                        for k2, v2 in m.items():
                            if k + k2 <= data.D:
                                cur[k + k2] = cur.get(k + k2, 0) + v * v2
                pow_cache[key] = {k: v for k, v in cur.items() if v}
            return pow_cache[key]

        for (i, j), c in F1.items():
            for k, v in powers(i, j).items():
                acc[k] = acc.get(k, 0) + c * v
        acc = {k: v for k, v in acc.items() if v and k <= data.D}
        assert acc == {}


class TestFrobenius:
    def test_point_count(self):
        assert point_count_ap(CURVE, 13) == 6

    def test_candidates(self):
        root = gauss_embed_root(13, 24)
        cands = frobenius_candidates(13, 6, root)
        assert cands == [(3, 2), (-3, -2), (-2, 3), (2, -3)]
        with pytest.raises(ValidationError):
            frobenius_candidates(13, 3, root)
        # |a_p| > 2 sqrt(p): no Gaussian integer has this trace and norm
        with pytest.raises(ValidationError, match="Hasse bound"):
            frobenius_candidates(13, 10, root)

    def test_embed_root(self):
        root = gauss_embed_root(13, 24)
        assert root.residue(1) == 5
        assert ((root * root).value + 1) % 13 ** 24 == 0
        with pytest.raises(ValidationError):
            gauss_embed_root(7, 10)

    def test_unique_passing_associate(self, data):
        root = gauss_embed_root(13, 24)
        reports = {
            alpha: frobenius_check(data, 13, alpha, root)
            for alpha in frobenius_candidates(13, 6, root)
        }
        assert reports[(3, 2)]["passes"]
        assert reports[(-3, -2)]["first_fail"] == (13, 12)
        assert reports[(-2, 3)]["first_fail"] == (13, 5)
        assert reports[(2, -3)]["first_fail"] == (13, 8)
        assert sum(r["passes"] for r in reports.values()) == 1

    def test_norm_check(self, data):
        root = gauss_embed_root(13, 24)
        with pytest.raises(ValidationError):
            frobenius_check(data, 13, (1, 1), root)

    def test_p_itself_fails_pattern(self, data):
        # [p] does not reduce to z^p: its linear coefficient p kills
        # degree 1, but higher coefficients spread out
        root = gauss_embed_root(13, 24)
        series = cm_endo_elliptic(data, (13, 0))
        emb = embed_gauss_series(series, 13, 24, data.D, root)
        pattern = all(
            emb.coefficient((k,)).residue(1) == (1 if k == 13 else 0)
            for k in range(1, data.D + 1)
        )
        assert not pattern

    def test_integrality_guard(self):
        root = gauss_embed_root(13, 10)
        bad = {1: (Fraction(1, 13), Fraction(0))}
        with pytest.raises(InvariantError):
            embed_gauss_series(bad, 13, 10, 5, root)


class TestMatch:
    def test_iso_to_standard_seed(self, data):
        root = gauss_embed_root(13, 24)
        iso = match_lubin_tate(data, (3, 2), 13, 24, root)
        assert iso.jacobian[0][0].value == 1
        assert iso.is_invertible()
        comp = iso.series[0].compose(iso.inverse().series)
        assert comp.coeffs == {(1,): 1}

    def test_failing_candidate_rejected(self, data):
        root = gauss_embed_root(13, 24)
        with pytest.raises(ValidationError):
            match_lubin_tate(data, (2, -3), 13, 24, root)
