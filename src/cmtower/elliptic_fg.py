"""Formal group of a short Weierstrass curve, with CM.

Everything here is exact rational arithmetic on integers: a series is a
list of integer numerators over one positive denominator (``QSeries``),
and only at the very end are coefficients reduced mod p^N.
p-integrality of a series is therefore decided, not approximated.

For an integral curve most of the data has no denominator: the
parameter expansion w(z), the unit w/z^3 and its inverse, and twice the
invariant differential omega are integral, and log(z) is 2 omega_k
z^(k+1) over a common multiple of the 2 (k+1).  A curve with rational a
and b is the integral curve (a s^4, b s^6) with z scaled by s: its
degree-n coefficients of w and omega are those of the integral curve
over s^(n-3) and s^n.

Composition and reversion all go through one table of powers log^k
(Brent and Kung, "Fast algorithms for manipulating formal power series",
J. ACM 25 (1978)), each entry over its own reduced denominator: exp is
the triangular solve of exp(log z) = z, the group law expands
exp(log X + log Y) binomially in the powers, and an endomorphism
[alpha] = exp(alpha log z) is the sum of e_k alpha^k log^k.

CM coefficients live in Q(i): a ``GaussSeries`` holds the real and
imaginary numerators over one shared denominator; the split prime embeds
i as a Hensel-lifted square root of -1.  Frobenius selection checks the
four associates of a Gaussian prime from one expansion: [u alpha] =
u [alpha] for the units u = -1, i, -i, so each embedded series is the
first one times a unit mod p^N.  The Lubin-Tate match reads the
embedded [alpha_P] of a passing Frobenius report as a seed and returns
the strict isomorphism to the standard seed as its series.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction  # prints a coefficient in an error message
from math import comb, gcd, isqrt, lcm

from .errors import InvariantError, ValidationError
# lt_group_law is unused here; perfbench/spans.py patches this binding
from .lubin_tate import LTSeed, group_law as lt_group_law, solve_intertwine
from .padic import (PadicInt, PadicPoly, TruncSeries, Zp, hensel_root,
                    mul_coeffs)


# ---------------------------------------------------------------------------
# series over Q and Q(i): integer numerators over one denominator
# ---------------------------------------------------------------------------

class QSeries(namedtuple("QSeries", "num den")):
    """A truncated series over Q: the coefficient of z^k is
    ``num[k] / den``, with ``den > 0``."""

    __slots__ = ()


class GaussSeries(namedtuple("GaussSeries", "re im den")):
    """A truncated series over Q(i): the coefficient of z^k is
    ``(re[k] + im[k] i) / den``, with ``den > 0``."""

    __slots__ = ()


def _reduced(num: list, den: int) -> QSeries:
    """num / den with the factor common to den and every numerator
    taken out, so ``den`` is the lcm of the coefficients' denominators."""
    g = gcd(den, *num)
    if g == 1:
        return QSeries(num, den)
    return QSeries([c // g for c in num], den // g)


def _inv_unit(a: list, D: int) -> list:
    """1/a through degree D for an integer series with a[0] = 1."""
    inv = [1] + [0] * D
    terms = [(j, x) for j, x in enumerate(a[1:D + 1], 1) if x]
    for k in range(1, D + 1):
        inv[k] = -sum(x * inv[k - j] for j, x in terms if j <= k)
    return inv


def gmul(a, b):
    """The product of two Gaussian numbers given as (re, im) pairs."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


# the units 1, -1, i, -i of Z[i]: the order in which the four associates
# of a Gaussian prime are listed and reported
UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


# ---------------------------------------------------------------------------
# curve and formal data
# ---------------------------------------------------------------------------

class WeierstrassCurve(namedtuple("WeierstrassCurve", "a b")):
    """y^2 = x^3 + a x + b with integer coefficients (rational ones are
    expanded too, and their group law is checked for integrality)."""

    __slots__ = ()

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.a ** 3 + 27 * self.b ** 2)

    def good_reduction_at(self, p: int) -> bool:
        return p > 2 and self.discriminant % p != 0


class EllipticFormalData:
    """Formal expansion data of a curve in z = -x/y, through degree D:
    the parameter series w(z), the invariant differential ``omega``,
    ``log`` (through degree D + 1), ``exp`` and the group law ``F``.

    Each one-variable series is a ``QSeries``, integer numerators over
    one reduced denominator.  ``F`` is integral, or construction raises,
    so it is held as its integer coefficients keyed by (i, j).

    ``powers[k]`` is log^k through degree D, for k = 0..D, the one table
    that exp, F and every ``cm_endo_elliptic`` read:

    * exp: e_1 = 1 and e_n = -sum over k < n of e_k [log^k]_n;
    * F = sum over m, n of e_(m+n) C(m+n, m) log^m(X) log^n(Y);
    * [alpha] = sum over k of (e_k alpha^k) log^k.
    """

    __slots__ = ("curve", "D", "w", "omega", "log", "powers", "exp", "F")

    def __init__(self, curve: WeierstrassCurve, D: int):
        self.curve = curve
        self.D = D
        # the integral curve (A, B) = (a s^4, b s^6); s = 1 when a and b
        # are integers
        a, b = curve.a, curve.b
        s = lcm(a.denominator, b.denominator)
        A = a.numerator * s ** 4 // a.denominator
        B = b.numerator * s ** 6 // b.denominator
        lim = max(D + 4, 3)
        # w = z^3 + A z w^2 + B w^3 one degree at a time: w_n reads w^2 at
        # degree n - 1 and w^3 at n, both formed from w below degree n
        w, w2, w3 = ([0] * (lim + 1) for _ in range(3))
        for n in range(3, lim + 1):
            w2[n - 1] = sum(w[i] * w[n - 1 - i] for i in range(3, n - 3)
                            if w[i] and w[n - 1 - i])
            w3[n] = sum(w[i] * w2[n - i] for i in range(3, n - 5)
                        if w[i] and w2[n - i])
            w[n] = (n == 3) + A * w2[n - 1] + B * w3[n]
        self.w = _reduced([c * s ** (lim - n) for n, c in enumerate(w)],
                          s ** (lim - 3))
        # u = w/z^3 is a unit; with v = 1/u the differential is
        # (1 - z v'/(2v)) dz = (1 - z v' u/2) dz, normalized to start at 1
        u = w[3:D + 4]
        v = _inv_unit(u, D)
        corr = mul_coeffs([k * c for k, c in enumerate(v)], u, [0] * (D + 1))
        two_omega = [2] + [-c for c in corr[1:]]
        self.omega = _reduced(
            [c * s ** (D - k) for k, c in enumerate(two_omega)], 2 * s ** D)
        om, dom = self.omega
        L = lcm(*(k + 1 for k, c in enumerate(om) if c))
        self.log = log = _reduced(
            [0] + [c * (L // (k + 1)) for k, c in enumerate(om)], dom * L)
        # powers[k] = log^k through degree D, each reduced when formed
        powers = [QSeries([1] + [0] * D, 1)]
        for _ in range(D):
            prev = powers[-1]
            prod = mul_coeffs(prev.num, log.num, [0] * (D + 1))
            powers.append(_reduced(prod, prev.den * log.den))
        self.powers = powers
        # [log^k]_n = P_k[n] f_k / M over the table's common denominator M
        M = lcm(*(P.den for P in powers))
        f = [M // P.den for P in powers]
        # exp(log z) = z is triangular: [log^n]_n = 1, so degree n fixes
        # e_n from the e_k with k < n; e_n = E[n] / dE
        E, dE = [0, 1] + [0] * (D - 1), 1
        for n in range(2, D + 1):
            t = -sum(E[k] * f[k] * powers[k].num[n] for k in range(1, n)
                     if E[k])
            if t:
                g = gcd(t, dE * M)
                den = dE * M // g
                common = lcm(dE, den)
                if common != dE:
                    E = [c * (common // dE) for c in E]
                    dE = common
                E[n] = t // g * (common // den)
        self.exp = QSeries(E, dE)
        # group law F = exp(log X + log Y)
        #   = sum over m, n of e_(m+n) C(m+n, m) log^m(X) log^n(Y),
        # summed over n first, over the one denominator dE M^2; it must
        # be integral
        terms = [[(j, x) for j, x in enumerate(P.num) if x] for P in powers]
        Fn = [[0] * (D + 1 - i) for i in range(D + 1)]
        for m in range(D + 1):
            row = [0] * (D + 1 - m)
            for n in range(max(1 - m, 0), D - m + 1):
                c = E[m + n]
                if c:
                    c *= comb(m + n, m) * f[n]
                    for j, y in terms[n]:
                        if j > D - m:
                            break
                        row[j] += c * y
            row = [(j, y) for j, y in enumerate(row) if y]
            for i, x in terms[m]:
                x *= f[m]
                Fi = Fn[i]
                for j, y in row:
                    if i + j > D:
                        break
                    Fi[j] += x * y
        den = dE * M * M
        F = {}
        for i, Fi in enumerate(Fn):
            for j, c in enumerate(Fi):
                q, r = divmod(c, den)
                if r:
                    raise InvariantError(
                        f"group law coefficient at {(i, j)} is not an "
                        f"integer: {Fraction(c, den)}"
                    )
                if q:
                    F[i, j] = q
        self.F = F
        if any(j == 0 and c != (1 if i == 1 else 0)
               for (i, j), c in F.items()):
            raise InvariantError("F(X, 0) != X")


def curve_group_law(curve: WeierstrassCurve, D: int, p=None) -> EllipticFormalData:
    """Formal data through degree D >= 1; if p is given, good reduction
    there is required."""
    if p is not None:
        Zp(p, 1)  # p an odd prime, or ValidationError
    if D < 1:
        raise ValidationError(f"truncation degree must be at least 1, got {D}")
    if p is not None and not curve.good_reduction_at(p):
        raise ValidationError(
            f"curve has bad reduction at {p} (discriminant "
            f"{curve.discriminant})"
        )
    return EllipticFormalData(curve, D)


# ---------------------------------------------------------------------------
# CM endomorphisms
# ---------------------------------------------------------------------------

def cm_endo_elliptic(data: EllipticFormalData, alpha) -> GaussSeries:
    """[alpha](z) = exp(alpha * log z) for a Gaussian integer alpha =
    (re, im), over the denominator of exp times the common denominator
    of the power table."""
    powers, (E, dE), D = data.powers, data.exp, data.D
    M = lcm(*(P.den for P in powers))
    re, im = [0] * (D + 1), [0] * (D + 1)
    ak = (1, 0)
    for k in range(1, D + 1):
        ak = gmul(ak, alpha)
        if not E[k]:
            continue
        # e_k alpha^k log^k: a Gaussian scalar times a rational series
        c = E[k] * (M // powers[k].den)
        x, y = c * ak[0], c * ak[1]
        for n, v in enumerate(powers[k].num):
            if v:
                re[n] += x * v
                im[n] += y * v
    den = dE * M
    g = gcd(den, *re, *im)
    return GaussSeries([c // g for c in re], [c // g for c in im], den // g)


def gauss_embed_root(p: int, N: int) -> PadicInt:
    """The Hensel lift of the smaller square root of -1 mod p."""
    Zp(p, N)  # p an odd prime and N >= 1, or ValidationError
    if p % 4 != 1:
        raise ValidationError(f"p = {p} is not split in the Gaussian field")
    r0 = min(r for r in range(p) if (r * r + 1) % p == 0)
    f = PadicPoly(p, N, [1, 0, 1])
    return hensel_root(f, PadicInt(p, N, r0))


def embed_gauss_series(series: GaussSeries, trunc: int,
                       root: PadicInt) -> TruncSeries:
    """Reduce a Gaussian-rational series mod p^N via i -> root, in root's
    ring; every coefficient must be p-integral or the CM/reduction
    hypotheses are falsified.

    A coefficient is p-integral when p^v, v the valuation of the
    denominator, divides both its numerators: the denominator need not
    be reduced, so "p does not divide it" would refuse a series whose
    every coefficient is p-integral.  The rest of the denominator is a
    unit, inverted once."""
    p, N, mod = root.R.p, root.R.N, root.R.mod
    re, im, den = series
    pv, unit = 1, den
    while unit % p == 0:
        unit //= p
        pv *= p
    inv = pow(unit, -1, mod)
    out = {}
    for k, (x, y) in enumerate(zip(re, im)):
        if x % pv or y % pv:
            raise InvariantError(
                f"coefficient at degree {k} is not {p}-integral: "
                f"{Fraction(x, den)} + {Fraction(y, den)} i"
            )
        val = (x // pv + y // pv * root.value) * inv % mod
        if val:
            out[(k,)] = val
    return TruncSeries(p, N, 1, trunc, out)


def point_count_ap(curve: WeierstrassCurve, p: int) -> int:
    """Trace of Frobenius by brute-force point counting over F_p."""
    n = 1  # point at infinity
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, 0)
        squares[y * y % p] += 1
    for x in range(p):
        rhs = (x * x * x + curve.a * x + curve.b) % p
        n += squares.get(rhs, 0)
    return p + 1 - n


def frobenius_candidates(a_p: int, root: PadicInt):
    """The four associates of the Gaussian prime x + y i with norm p and
    trace a_p that lies over the embedded prime, x + y i times each of
    ``UNITS`` in turn: the sign of y is the one with x + y * root = 0
    mod p, p being root's prime."""
    p = root.p
    if a_p % 2:
        raise ValidationError("trace must be even for a Gaussian factor")
    x = a_p // 2
    y2 = p - x * x
    if y2 < 0:
        raise ValidationError(
            f"trace {a_p} is outside the Hasse bound for p = {p}"
        )
    y = isqrt(y2)
    if y * y != y2:
        raise ValidationError(f"no Gaussian factor: {p} - {x}^2 not a square")
    if (x + y * root.value) % p:
        y = -y
    return [gmul((x, y), u) for u in UNITS]


def frobenius_reports(data: EllipticFormalData, alpha,
                      root: PadicInt) -> list:
    """The reports of alpha times each of ``UNITS`` in turn (alpha,
    -alpha, i alpha, -i alpha, the order of ``frobenius_candidates``),
    from one expansion of [alpha]; p is root's prime.  A report says
    whether [u alpha](z) = z^p mod p through the truncation degree, with
    the first failing coefficient if any; ``embedded`` holds the
    embedded [u alpha] series.

    On y^2 = x^3 + a x, [i](z) = i z and [-1](z) = -z (the automorphisms
    (x, y) -> (-x, i y) and (x, -y); Silverman, GTM 106, ch. III.10), so
    [u alpha] = u [alpha]: the other three embedded series are the
    embedded [alpha] times -1, root and -root, exactly mod p^N since
    root^2 = -1 there."""
    if data.curve.b != 0:
        raise ValidationError(
            "the Frobenius check needs CM by Z[i]: y^2 = x^3 + a x "
            f"(b = 0, j = 1728), got b = {data.curve.b}")
    p = root.p
    re, im = alpha
    if re * re + im * im != p:
        raise ValidationError("candidate does not have norm p")
    base = embed_gauss_series(cm_endo_elliptic(data, alpha), data.D, root)
    reports = []
    for u in UNITS:
        unit = u[0] + u[1] * root.value
        emb = base if u == (1, 0) else base.copy_with(
            {e: c * unit for e, c in base.coeffs.items()})
        first_fail = None
        for k in range(1, data.D + 1):
            c = emb.coeffs.get((k,), 0) % p
            if c != (k == p):
                first_fail = (k, c)
                break
        reports.append({
            "alpha": gmul(alpha, u),
            "passes": first_fail is None,
            "first_fail": first_fail,
            "linear_valuation": emb.coefficient((1,)).valuation(),
            "embedded": emb,
        })
    return reports


def frobenius_check(data: EllipticFormalData, alpha,
                    root: PadicInt) -> dict:
    """The report of alpha alone: the first of ``frobenius_reports``."""
    return frobenius_reports(data, alpha, root)[0]


def match_lubin_tate(data: EllipticFormalData, rep: dict) -> TruncSeries:
    """Strict isomorphism from the curve's formal group to the standard
    Lubin-Tate group of the Frobenius uniformizer, read from the report
    ``frobenius_check`` gave for a candidate; the isomorphism lives in
    the ring of the report's embedded series.  A candidate that fails
    the Frobenius congruence is refused.

    The embedded [alpha_P] series is itself a Lubin-Tate seed (its
    linear coefficient is a uniformizer and it reduces to z^p); the
    intertwining solver then produces the isomorphism, integral by
    construction of the exact arithmetic."""
    if not rep["passes"]:
        raise ValidationError(
            f"candidate fails the Frobenius congruence at {rep['first_fail']}"
        )
    src = LTSeed(rep["embedded"])
    dst = LTSeed.standard(src.p, src.N, data.D, pi=src.pi_val)
    return solve_intertwine(1, src, dst)
