"""Elliptic formal groups with complex multiplication by the Gaussian
integers, and the bridge to the one-dimensional Lubin-Tate machinery."""

import os
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

from cmtower import elliptic_fg, lubin_tate
from cmtower.elliptic_fg import (EllipticFormalData, GaussSeries,
                                 WeierstrassCurve, cm_endo_elliptic,
                                 curve_group_law, embed_gauss_series,
                                 frobenius_candidates, frobenius_check,
                                 frobenius_reports, gauss_embed_root, gmul,
                                 match_lubin_tate, point_count_ap)
from cmtower.errors import (CmtowerError, InvariantError, PrecisionError,
                            ValidationError)
from cmtower.lubin_tate import LTSeed, strict_iso
from cmtower.padic import PadicInt, TruncSeries, compositional_inverse

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                      "elliptic_p13.ini")


def fracs(series) -> dict:
    """A ``QSeries`` as a dict of its nonzero Fraction coefficients."""
    return {k: Fraction(c, series.den) for k, c in enumerate(series.num) if c}


def gauss_fracs(series) -> dict:
    """A ``GaussSeries`` as a dict of its nonzero (re, im) Fraction pairs."""
    return {k: (Fraction(x, series.den), Fraction(y, series.den))
            for k, (x, y) in enumerate(zip(series.re, series.im)) if x or y}


# ---------------------------------------------------------------------------
# The oracle: the formal data on Fraction dicts, as the library computed
# it before it moved to integer numerators over one denominator per
# series.  Same power table, same order of operations, another number type
# ---------------------------------------------------------------------------

Frac = Fraction


def _mul1(a: dict, b: dict, D: int) -> dict:
    out = {}
    for i, x in a.items():
        if i > D:
            continue
        for j, y in b.items():
            if i + j > D:
                continue
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _inv_unit1(a: dict, D: int) -> dict:
    """1/a for a power series with a(0) = 1."""
    if a.get(0) != 1:
        raise ValidationError("inversion needs constant term 1")
    inv = {0: Frac(1)}
    for k in range(1, D + 1):
        s = Frac(0)
        for j in range(1, k + 1):
            if j in a and (k - j) in inv:
                s += a[j] * inv[k - j]
        if s:
            inv[k] = -s
    return inv


def gaussian(re, im=0):
    return (Frac(re), Frac(im))


class OracleFormalData:
    """w, omega, log, the powers log^k, exp and F as Fraction dicts keyed
    by degree (by (i, j) for F), with the library's two checks on F."""

    def __init__(self, curve: WeierstrassCurve, D: int):
        self.D = D
        a, b = Frac(curve.a), Frac(curve.b)
        lim = max(D + 4, 3)
        w, w2, w3 = ([0] * (lim + 1) for _ in range(3))
        for n in range(3, lim + 1):
            w2[n - 1] = sum(w[i] * w[n - 1 - i] for i in range(3, n - 3)
                            if w[i] and w[n - 1 - i])
            w3[n] = sum(w[i] * w2[n - i] for i in range(3, n - 5)
                        if w[i] and w2[n - i])
            w[n] = (n == 3) + a * w2[n - 1] + b * w3[n]
        w = self.w = {k: c for k, c in enumerate(w) if c}
        u = {k - 3: v for k, v in w.items()}
        v = _inv_unit1(u, D)
        vp = {k - 1: k * c for k, c in v.items() if k >= 1}
        zvp = {k + 1: c for k, c in vp.items()}
        corr = _mul1(zvp, _inv_unit1(v, D), D)
        omega = {0: Frac(1)}
        for k, c in corr.items():
            if k <= D:
                omega[k] = omega.get(k, 0) - c / 2
        omega = {k: c for k, c in omega.items() if c}
        self.omega = omega
        self.log = {k + 1: c / (k + 1) for k, c in omega.items()}
        # log's keys are not in degree order when b != 0, so nothing
        # below stops on key order
        powers = [{0: Frac(1)}]
        for _ in range(D):
            powers.append(_mul1(powers[-1], self.log, D))
        self.powers = powers
        exp = {1: Frac(1)}
        for n in range(2, D + 1):
            s = sum(e * powers[k].get(n, 0) for k, e in exp.items())
            if s:
                exp[n] = -s
        self.exp = exp
        F = {}
        for m in range(D + 1):
            row = {}
            for n in range(max(1 - m, 0), D - m + 1):
                c = exp.get(m + n)
                if c:
                    c *= comb(m + n, m)
                    for j, y in powers[n].items():
                        if j <= D - m:
                            row[j] = row.get(j, 0) + c * y
            for i, x in powers[m].items():
                for j, y in row.items():
                    if i + j <= D:
                        F[i, j] = F.get((i, j), 0) + x * y
        F = {e: c for e, c in F.items() if c}
        for e, c in F.items():
            if c.denominator != 1:
                raise InvariantError(
                    f"group law coefficient at {e} is not an integer: {c}"
                )
        self.F = F
        if any(e[1] == 0 and c != (1 if e == (1, 0) else 0)
               for e, c in F.items()):
            raise InvariantError("F(X, 0) != X")


def oracle_cm_endo(data: OracleFormalData, alpha) -> dict:
    """[alpha] = sum of e_k alpha^k log^k with Gaussian-rational pairs."""
    alpha = (Frac(alpha[0]), Frac(alpha[1]))
    out = {}
    ak = gaussian(1)
    for k in range(1, data.D + 1):
        ak = gmul(ak, alpha)
        e = data.exp.get(k)
        if not e or ak == (0, 0):
            continue
        re, im = e * ak[0], e * ak[1]
        for n, c in data.powers[k].items():
            x, y = out.get(n, (0, 0))
            out[n] = (x + re * c, y + im * c)
    return {n: v for n, v in sorted(out.items()) if v != (0, 0)}


def oracle_embed(series: dict, trunc: int, root: PadicInt) -> TruncSeries:
    """Two modular inverses per coefficient, refusing any coefficient
    whose reduced denominator p divides."""
    p, N, mod = root.R.p, root.R.N, root.R.mod
    out = {}
    for k, (re, im) in series.items():
        if re.denominator % p == 0 or im.denominator % p == 0:
            raise InvariantError(
                f"coefficient at degree {k} is not {p}-integral: "
                f"{re} + {im} i"
            )
        val = (re.numerator * pow(re.denominator, -1, mod)
               + im.numerator * pow(im.denominator, -1, mod) * root.value)
        if val % mod:
            out[(k,)] = val % mod
    return TruncSeries(p, N, 1, trunc, out)


# ---------------------------------------------------------------------------
# Reference composition routines: exp, F and [alpha] as first written, by
# recomposing whole series instead of reading one table of log powers
# ---------------------------------------------------------------------------

def reference_comp_inverse1(f: dict, D: int) -> dict:
    """Compositional inverse of f = z + higher over the rationals."""
    if f.get(1) != 1 or 0 in f:
        raise ValidationError("inverse needs f = z + higher")
    g = {1: Fraction(1)}
    for k in range(2, D + 1):
        # coefficient of z^k in f(g): drive it to 0 by adjusting g_k,
        # which enters the composition with unit coefficient f_1 = 1
        comp = {}
        gpow = {0: Fraction(1)}
        exp = 0
        for j in sorted(f):
            if j == 0:
                continue
            while exp < j:
                gpow = _mul1(gpow, g, k)
                exp += 1
            for e, c in gpow.items():
                comp[e] = comp.get(e, 0) + f[j] * c
        ck = comp.get(k, Fraction(0))
        if ck:
            g[k] = -ck
    return g


def reference_compose_1to2(f: dict, arg: dict, D: int) -> dict:
    """f(arg) for one-variable f and a two-variable argument (dict keyed
    by (i, j)) with zero constant term."""
    pow_cache = {0: {(0, 0): Fraction(1)}}

    def arg_pow(k):
        if k not in pow_cache:
            prev = arg_pow(k - 1)
            out = {}
            for (i1, j1), x in prev.items():
                for (i2, j2), y in arg.items():
                    i, j = i1 + i2, j1 + j2
                    if i + j > D:
                        continue
                    out[(i, j)] = out.get((i, j), 0) + x * y
            pow_cache[k] = {k2: v for k2, v in out.items() if v}
        return pow_cache[k]

    out = {}
    for k, c in sorted(f.items()):
        if k == 0 or k > D:
            continue
        for e, v in arg_pow(k).items():
            out[e] = out.get(e, 0) + c * v
    return {k: v for k, v in out.items() if v}


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def reference_gmul1(a: dict, b: dict, D: int) -> dict:
    """Product of one-variable series with Gaussian coefficients."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j > D:
                continue
            e = i + j
            prev = out.get(e, (Fraction(0), Fraction(0)))
            out[e] = _gadd(prev, gmul(x, y))
    return {k: v for k, v in out.items() if v != (0, 0)}


def reference_gcompose1(f: dict, arg: dict, D: int) -> dict:
    """f(arg) with rational f and Gaussian-coefficient argument."""
    out = {}
    power = {0: gaussian(1)}
    exp = 0
    for k in sorted(f):
        if k == 0:
            if f[k]:
                raise ValidationError("series must have no constant term")
            continue
        while exp < k:
            power = reference_gmul1(power, arg, D)
            exp += 1
        for e, v in power.items():
            if e > D:
                continue
            prev = out.get(e, (Fraction(0), Fraction(0)))
            out[e] = _gadd(prev, (f[k] * v[0], f[k] * v[1]))
    return {k: v for k, v in out.items() if v != (0, 0)}


def reference_exp_and_law(log: dict, D: int):
    """exp and F from the log, with the construction's two checks."""
    exp = reference_comp_inverse1(log, D)
    arg = {(k, 0): c for k, c in log.items()}
    for k, c in log.items():
        arg[0, k] = arg.get((0, k), 0) + c
    F = reference_compose_1to2(exp, arg, D)
    for e, c in F.items():
        if c.denominator != 1:
            raise InvariantError(f"group law coefficient at {e} is not an "
                                 f"integer: {c}")
    if any(e[1] == 0 and c != (1 if e == (1, 0) else 0)
           for e, c in F.items()):
        raise InvariantError("F(X, 0) != X")
    return exp, F


def reference_cm_endo(exp: dict, log: dict, D: int, alpha) -> dict:
    re, im = Fraction(alpha[0]), Fraction(alpha[1])
    return reference_gcompose1(exp, {k: (re * c, im * c)
                                     for k, c in log.items()}, D)


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

    @pytest.mark.parametrize("D", (0, -3))
    def test_truncation_below_one_rejected(self, D):
        with pytest.raises(ValidationError, match="at least 1"):
            curve_group_law(CURVE, D, p=13)

    def test_curve_record(self):
        curve = WeierstrassCurve(-1, 0)
        assert repr(curve) == "WeierstrassCurve(a=-1, b=0)"
        with pytest.raises(AttributeError):
            curve.a = 1
        twin = WeierstrassCurve(a=-1, b=0)
        assert curve == twin and hash(curve) == hash(twin)

    @pytest.mark.parametrize("series, text", (
        (elliptic_fg.QSeries([1, 2], 3), "QSeries(num=[1, 2], den=3)"),
        (GaussSeries([1], [0], 1), "GaussSeries(re=[1], im=[0], den=1)"),
    ), ids=("rational", "gaussian"))
    def test_series_record(self, series, text):
        """Read-only fields over lists: equal by field, unhashable."""
        assert repr(series) == text
        with pytest.raises(AttributeError):
            series.den = 2
        assert series == type(series)(*series)
        with pytest.raises(TypeError):
            hash(series)


class TestFormalData:
    def test_log_head(self, data):
        log = fracs(data.log)
        assert log[1] == 1
        assert log[5] == Fraction(-2, 5)
        assert log[9] == Fraction(2, 3)
        assert log[13] == Fraction(-20, 13)

    def test_exp_inverts_log(self, data):
        # log(exp(z)) = z through the truncation degree
        log, exp = fracs(data.log), fracs(data.exp)
        comp = {}
        power = {0: Fraction(1)}
        exp_deg = 0
        for k in sorted(log):
            while exp_deg < k:
                power = _mul1(power, exp, data.D)
                exp_deg += 1
            for e, c in power.items():
                comp[e] = comp.get(e, 0) + log[k] * c
        comp = {k: v for k, v in comp.items() if v and k <= data.D}
        assert comp == {1: Fraction(1)}

    def test_group_law_is_integral_and_unital(self, data):
        # construction already asserts integrality and F(X, 0) = X;
        # check symmetry here
        swapped = {(j, i): c for (i, j), c in data.F.items()}
        assert swapped == data.F

    def test_w_starts_at_z_cubed(self, data):
        w = fracs(data.w)
        assert min(w) == 3 and w[3] == 1


class TestCmEndo:
    def test_minus_one_is_minus_z(self, data):
        # the log has only degrees 1 mod 4, so [-1](z) = -z exactly
        series = gauss_fracs(cm_endo_elliptic(data, (-1, 0)))
        assert series == {1: (Fraction(-1), Fraction(0))}

    def test_i_acts_as_iz(self, data):
        series = gauss_fracs(cm_endo_elliptic(data, (0, 1)))
        assert series == {1: (Fraction(0), Fraction(1))}

    @pytest.mark.parametrize("a,p,D,N", (
        (-1, 5, 12, 22), (-1, 13, 20, 30), (-4, 13, 16, 26),
        (2, 17, 18, 28), (3, 29, 14, 24), (-7, 37, 9, 11)))
    def test_embedded_i_is_the_root(self, a, p, D, N):
        """The linear coefficient of the embedded [i] is i e_1 [log]_1 =
        i, so elliptic-match reports the root as the image of i without
        expanding [i]."""
        data = curve_group_law(WeierstrassCurve(a, 0), D, p=p)
        root = gauss_embed_root(p, N)
        emb = embed_gauss_series(cm_endo_elliptic(data, (0, 1)), D, root)
        assert emb.coefficient((1,)) == root

    def test_endo_additive_inverse(self, data):
        # F(z, [-1]z) = 0: substitute into the two-variable law
        minus = gauss_fracs(cm_endo_elliptic(data, (-1, 0)))
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
        cands = frobenius_candidates(6, root)
        assert cands == [(3, 2), (-3, -2), (-2, 3), (2, -3)]
        with pytest.raises(ValidationError):
            frobenius_candidates(3, root)
        # |a_p| > 2 sqrt(p): no Gaussian integer has this trace and norm
        with pytest.raises(ValidationError, match="Hasse bound"):
            frobenius_candidates(10, root)

    def test_embed_root(self):
        root = gauss_embed_root(13, 24)
        assert root.residue(1) == 5
        assert ((root * root).value + 1) % 13 ** 24 == 0
        with pytest.raises(ValidationError):
            gauss_embed_root(7, 10)

    def test_unique_passing_associate(self, data):
        root = gauss_embed_root(13, 24)
        reports = {
            alpha: frobenius_check(data, alpha, root)
            for alpha in frobenius_candidates(6, root)
        }
        assert reports[(3, 2)]["passes"]
        assert reports[(-3, -2)]["first_fail"] == (13, 12)
        assert reports[(-2, 3)]["first_fail"] == (13, 5)
        assert reports[(2, -3)]["first_fail"] == (13, 8)
        assert sum(r["passes"] for r in reports.values()) == 1

    def test_norm_check(self, data):
        root = gauss_embed_root(13, 24)
        with pytest.raises(ValidationError):
            frobenius_check(data, (1, 1), root)

    def test_p_itself_fails_pattern(self, data):
        # [p] does not reduce to z^p: its linear coefficient p kills
        # degree 1, but higher coefficients spread out
        root = gauss_embed_root(13, 24)
        series = cm_endo_elliptic(data, (13, 0))
        emb = embed_gauss_series(series, data.D, root)
        pattern = all(
            emb.coefficient((k,)).residue(1) == (1 if k == 13 else 0)
            for k in range(1, data.D + 1)
        )
        assert not pattern

    def test_integrality_guard(self):
        root = gauss_embed_root(13, 10)
        bad = GaussSeries([0, 1], [0, 0], 13)
        want = r"coefficient at degree 1 is not 13-integral: 1/13 \+ 0 i"
        with pytest.raises(InvariantError, match=want):
            embed_gauss_series(bad, 5, root)
        with pytest.raises(InvariantError, match=want):
            oracle_embed(gauss_fracs(bad), 5, root)

    def test_p_in_an_unreduced_denominator_embeds(self):
        """13 divides the common denominator but no coefficient needs
        it: z + (2 + i) z^2 embeds, as the reduced series does."""
        root = gauss_embed_root(13, 10)
        series = GaussSeries([0, 13, 26], [0, 0, 13], 13)
        got = embed_gauss_series(series, 5, root)
        assert got.coeffs == {(1,): 1, (2,): (2 + root.value) % 13 ** 10}
        assert got.coeffs == embed_gauss_series(
            GaussSeries([0, 1, 2], [0, 0, 1], 1), 5, root).coeffs


def oracle_frobenius_check(data, alpha, root) -> dict:
    """One expansion and one embedding per candidate, as the check was
    first written."""
    if data.curve.b != 0:
        raise ValidationError(
            "the Frobenius check needs CM by Z[i]: y^2 = x^3 + a x "
            f"(b = 0, j = 1728), got b = {data.curve.b}")
    p = root.p
    re, im = alpha
    if re * re + im * im != p:
        raise ValidationError("candidate does not have norm p")
    series = cm_endo_elliptic(data, alpha)
    emb = embed_gauss_series(series, data.D, root)
    first_fail = None
    for k in range(1, data.D + 1):
        c = emb.coefficient((k,)).residue(1)
        want = 1 if k == p else 0
        if c != want:
            first_fail = (k, c)
            break
    return {
        "alpha": (re, im),
        "passes": first_fail is None,
        "first_fail": first_fail,
        "linear_valuation": emb.coefficient((1,)).valuation(),
        "embedded": emb,
    }


def report_key(rep: dict) -> dict:
    """A report with its embedded series spelled out, for comparison."""
    emb = rep["embedded"]
    return dict(rep, embedded=(emb.R, emb.nvars, emb.trunc, emb.eff_prec,
                               emb.coeffs))


class TestAssociateReports:
    """The four reports from one expansion against one expansion per
    associate."""

    def check(self, data, root):
        ap = point_count_ap(data.curve, root.p)
        cands = frobenius_candidates(ap, root)
        want = [report_key(oracle_frobenius_check(data, c, root))
                for c in cands]
        got = [report_key(r) for r in frobenius_reports(data, cands[0], root)]
        assert got == want
        assert [report_key(frobenius_check(data, c, root))
                for c in cands] == want

    @pytest.mark.parametrize("N", (2, 24, 40))
    def test_p13_fixture(self, data, N):
        self.check(data, gauss_embed_root(13, N))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((5, 13, 17, 29)), st.integers(-60, 60),
           st.integers(1, 40), st.data())
    def test_curves_with_cm_by_the_gaussians(self, p, a, N, data):
        """y^2 = x^3 + a x with a prime to p, truncated below and past
        the z^p term."""
        if a % p == 0:
            a += 1
        D = data.draw(st.integers(1, p + 2))
        self.check(curve_group_law(WeierstrassCurve(a, 0), D, p=p),
                   gauss_embed_root(p, N))

    def test_refusals_before_the_expansion(self, data, monkeypatch):
        """b != 0, then the norm, are refused before any expansion."""
        def refuse(*args):
            raise AssertionError("expanded")

        monkeypatch.setattr(elliptic_fg, "cm_endo_elliptic", refuse)
        root = gauss_embed_root(13, 24)
        curved = curve_group_law(WeierstrassCurve(2, 3), 16, p=13)
        for alpha in ((3, 2), (1, 1)):
            with pytest.raises(ValidationError, match="needs CM by Z"):
                frobenius_reports(curved, alpha, root)
        with pytest.raises(ValidationError, match="norm p"):
            frobenius_reports(data, (1, 1), root)


def match(data, alpha, root):
    """The match read from the Frobenius report of alpha over root."""
    return match_lubin_tate(data, frobenius_check(data, alpha, root))


class TestMatch:
    def test_iso_to_standard_seed(self, data):
        root = gauss_embed_root(13, 24)
        iso = match(data, (3, 2), root)
        assert iso.coefficient((1,)).value == 1
        assert iso.coefficient((1,)).is_unit()
        comp = iso.compose([compositional_inverse(iso)])
        assert comp.coeffs == {(1,): 1}

    def test_failing_candidate_rejected(self, data):
        """The refusal names the first coefficient that breaks the
        congruence."""
        root = gauss_embed_root(13, 24)
        rep = frobenius_check(data, (2, -3), root)
        with pytest.raises(ValidationError) as exc:
            match_lubin_tate(data, rep)
        assert str(rep["first_fail"]) in str(exc.value)

    def test_passing_report_gives_the_same_iso(self, data):
        """The match reads the passing report's embedded series as a
        seed and gives the strict isomorphism from it to the standard
        seed of its uniformizer."""
        root = gauss_embed_root(13, 24)
        rep = frobenius_check(data, (3, 2), root)
        src = LTSeed(rep["embedded"])
        want = strict_iso(src, LTSeed.standard(13, 24, data.D,
                                                pi=src.pi_val))
        got = match_lubin_tate(data, rep)
        assert got.coeffs == want.coeffs
        assert got.eff_prec == want.eff_prec

    @pytest.mark.parametrize("alpha", ((2, -3), (-3, -2), (-2, 3)))
    def test_failing_report_rejected(self, data, alpha):
        root = gauss_embed_root(13, 24)
        rep = frobenius_check(data, alpha, root)
        with pytest.raises(ValidationError, match="Frobenius congruence"):
            match_lubin_tate(data, rep)

    def test_cli_checks_each_associate_once(self, monkeypatch):
        """elliptic-match expands and embeds one associate, the first
        candidate, and reports all four in candidate order."""
        from cmtower import cli
        expanded, embedded = [], []
        expand = elliptic_fg.cm_endo_elliptic
        embed = elliptic_fg.embed_gauss_series

        def counted_expand(data, alpha):
            expanded.append(alpha)
            return expand(data, alpha)

        def counted_embed(*args):
            embedded.append(args)
            return embed(*args)

        monkeypatch.setattr(elliptic_fg, "cm_endo_elliptic", counted_expand)
        monkeypatch.setattr(elliptic_fg, "embed_gauss_series", counted_embed)
        cfg = cli.RunConfig.load("elliptic-match", CONFIG, {})
        res = cli.dispatch(cfg)["results"]
        cands = frobenius_candidates(res["a_p"], gauss_embed_root(13, 2))
        assert expanded == [cands[0]]
        assert len(embedded) == 1
        assert [tuple(c["alpha"]) for c in res["candidates"]] == cands

    @pytest.mark.parametrize("n,eff", ((21, 2), (24, 5), (30, 11)))
    def test_digits_come_from_the_root(self, data, n, eff):
        """The isomorphism lives in the root's ring and agrees with the
        one at 40 digits to its own effective precision: D - 1 = 19
        digits go to the recursion."""
        want = match(data, (3, 2), gauss_embed_root(13, 40))
        root = gauss_embed_root(13, n)
        phi = match(data, (3, 2), root)
        assert (phi.p, phi.N, phi.eff_prec) == (13, n, eff)
        assert phi.R is root.R
        keys = set(phi.coeffs) | set(want.coeffs)
        assert all((phi.coeffs.get(e, 0) - want.coeffs.get(e, 0))
                   % 13 ** eff == 0 for e in keys)

    def test_short_root_raises(self, data):
        with pytest.raises(PrecisionError):
            match(data, (3, 2), gauss_embed_root(13, 10))

    def test_no_group_law_is_solved(self, data, monkeypatch):
        """Neither isomorphism solves a group law: with the solver
        patched to raise, both return the same series."""
        root = gauss_embed_root(13, 24)
        src, dst = LTSeed.standard(5, 16, 9), LTSeed.multiplicative(5, 16, 9)
        want = [match(data, (3, 2), root), strict_iso(src, dst)]

        def refuse(seed):
            raise AssertionError("a group law was solved")

        monkeypatch.setattr(lubin_tate, "group_law", refuse)
        monkeypatch.setattr(elliptic_fg, "lt_group_law", refuse)
        got = [match(data, (3, 2), root), strict_iso(src, dst)]
        for g, w in zip(got, want):
            assert g.coeffs == w.coeffs
            assert g.eff_prec == w.eff_prec


# ---------------------------------------------------------------------------
# The power table against the reference routines
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    """fn's value, or the class of the library error it raises."""
    try:
        return fn(*args)
    except CmtowerError as exc:
        return type(exc)


def _built(cls, curve, D):
    """The formal data of class cls and the class of the error its
    construction raised, if any.  The log is set before exp and F are
    computed, so it is there for the reference either way."""
    data = cls.__new__(cls)
    return data, _outcome(lambda: data.__init__(curve, D))


def _embedded(embed, series, p, D):
    root = gauss_embed_root(p, D + 2)
    return _outcome(lambda: embed(series, D, root).coeffs)


# (alpha, p): the units, zero, and associates of the Gaussian primes of
# norm 5, 13 and 17, each embedded at its own prime
ALPHAS = [((1, 0), 5), ((-1, 0), 13), ((0, 1), 5), ((0, -1), 17),
          ((0, 0), 13), ((2, 1), 5), ((1, -2), 5), ((-3, -2), 13),
          ((-2, 3), 13), ((4, 1), 17), ((-1, 4), 17)]

coefficients = st.integers(-9, 9)


class TestPowerTable:
    """The integer data value for value against the Fraction oracle, and
    both against the reference routines that recompose whole series."""

    def _check(self, curve, D):
        data, err = _built(EllipticFormalData, curve, D)
        orc, orc_err = _built(OracleFormalData, curve, D)
        assert err is orc_err
        log = fracs(data.log)
        assert log == orc.log
        # elliptic-fg reports the reduced common denominator as the lcm
        # of the coefficients' denominators
        assert data.log.den == lcm(*(c.denominator for c in log.values()))
        ref = _outcome(reference_exp_and_law, log, D)
        if err is not None or isinstance(ref, type):
            assert err is ref
            return
        exp, F = ref
        assert [fracs(P) for P in data.powers] == orc.powers
        assert fracs(data.exp) == orc.exp == exp
        assert data.F == orc.F == F
        for alpha, p in ALPHAS:
            got = cm_endo_elliptic(data, alpha)
            want = oracle_cm_endo(orc, alpha)
            assert gauss_fracs(got) == want
            assert want == reference_cm_endo(exp, log, D, alpha)
            assert (_embedded(embed_gauss_series, got, p, D)
                    == _embedded(oracle_embed, want, p, D))

    @settings(max_examples=40, deadline=None)
    @given(coefficients, st.one_of(st.just(0), coefficients),
           st.integers(0, 16))
    def test_matches_reference(self, a, b, D):
        self._check(WeierstrassCurve(a, b), D)

    @settings(max_examples=15, deadline=None)
    @given(st.fractions(-3, 3, max_denominator=4),
           st.fractions(-3, 3, max_denominator=4), st.integers(3, 10))
    def test_rational_curves_raise_alike(self, a, b, D):
        # a non-integral curve gives a non-integral law: both raise
        self._check(WeierstrassCurve(a, b), D)

    def test_log_keys_out_of_degree_order(self):
        # b != 0 puts the oracle's log keys out of degree order; its table
        # must not stop on key order, or F loses terms and is no longer
        # integral (the library's numerator lists are in degree order)
        orc = OracleFormalData(WeierstrassCurve(1, 1), 12)
        assert list(orc.log) != sorted(orc.log)
        self._check(WeierstrassCurve(1, 1), 12)

    def test_non_integral_law_raises(self):
        with pytest.raises(InvariantError, match="not an integer"):
            EllipticFormalData(WeierstrassCurve(Fraction(1, 2), 0), 10)


def reference_w(a, b, lim):
    """w = z^3 + a z w^2 + b w^3 as first written: iterated to a
    fixpoint, w^2 and w^3 recomputed in full on every pass."""
    w = {3: Fraction(1)}
    for _ in range(lim):
        w2 = _mul1(w, w, lim)
        w3 = _mul1(w2, w, lim)
        nw = {3: Fraction(1)}
        for k, v in _mul1({1: a}, w2, lim).items():
            nw[k] = nw.get(k, 0) + v
        for k, v in w3.items():
            nw[k] = nw.get(k, 0) + b * v
        nw = {k: v for k, v in nw.items() if v}
        if nw == w:
            break
        w = nw
    return w


rationals = st.fractions(-9, 9, max_denominator=4)


class TestParameterW:
    @settings(max_examples=50, deadline=None)
    @given(st.one_of(coefficients, rationals),
           st.one_of(st.just(0), coefficients, rationals),
           st.integers(0, 30))
    def test_matches_fixpoint(self, a, b, D):
        # w is set before anything can raise on a non-integral curve
        data, _ = _built(EllipticFormalData, WeierstrassCurve(a, b), D)
        assert fracs(data.w) == reference_w(Fraction(a), Fraction(b), D + 4)
