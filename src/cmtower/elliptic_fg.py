"""Formal group of a short Weierstrass curve, with CM.

Everything here is exact rational arithmetic: the parameter expansion
w(z), the invariant differential, formal log and exp, and the group law
F = exp(log X + log Y) are computed over Fractions, and only at the very
end are coefficients reduced mod p^N.  p-integrality of a series is
therefore decided, not approximated.

Composition and reversion all go through one table of powers log^k
(Brent and Kung, "Fast algorithms for manipulating formal power series",
J. ACM 25 (1978)): exp is the triangular solve of exp(log z) = z, the
group law expands exp(log X + log Y) binomially in the powers, and an
endomorphism [alpha] = exp(alpha log z) is the sum of e_k alpha^k log^k.

CM coefficients live in Q(i), represented as (real, imaginary) Fraction
pairs; the split prime embeds i as a Hensel-lifted square root of -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from .errors import InvariantError, ValidationError
# lt_group_law is unused here; perfbench/spans.py patches this binding
from .lubin_tate import FglHom, LTSeed, group_law as lt_group_law, solve_intertwine
from .padic import PadicInt, PadicPoly, TruncSeries, hensel_root

Frac = Fraction


# ---------------------------------------------------------------------------
# Fraction-coefficient series helpers (dense dicts keyed by exponent)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gaussian(re, im=0):
    return (Frac(re), Frac(im))


# ---------------------------------------------------------------------------
# curve and formal data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + a x + b with integer coefficients."""

    a: int
    b: int

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.a ** 3 + 27 * self.b ** 2)

    def good_reduction_at(self, p: int) -> bool:
        return p > 2 and self.discriminant % p != 0


class EllipticFormalData:
    """Formal expansion data of a curve in z = -x/y: the parameter
    series w(z), invariant differential, log, exp, and group law F.

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
        a, b = Frac(curve.a), Frac(curve.b)
        lim = max(D + 4, 3)
        # w = z^3 + a z w^2 + b w^3 one degree at a time: w_n reads w^2 at
        # degree n - 1 and w^3 at n, both formed from w below degree n
        w, w2, w3 = ([0] * (lim + 1) for _ in range(3))
        for n in range(3, lim + 1):
            w2[n - 1] = sum(w[i] * w[n - 1 - i] for i in range(3, n - 3)
                            if w[i] and w[n - 1 - i])
            w3[n] = sum(w[i] * w2[n - i] for i in range(3, n - 5)
                        if w[i] and w2[n - i])
            w[n] = (n == 3) + a * w2[n - 1] + b * w3[n]
        w = self.w = {k: c for k, c in enumerate(w) if c}
        # u = w/z^3 is a unit; with v = 1/u the differential is
        # (1 - z v'/(2v)) dz, normalized to start at 1
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
        # powers[k] = log^k through degree D; log's keys are not in
        # degree order when b != 0, so nothing below stops on key order
        powers = [{0: Frac(1)}]
        for _ in range(D):
            powers.append(_mul1(powers[-1], self.log, D))
        self.powers = powers
        # exp(log z) = z is triangular: [log^n]_n = 1, so degree n fixes
        # e_n from the e_k with k < n
        exp = {1: Frac(1)}
        for n in range(2, D + 1):
            s = sum(e * powers[k].get(n, 0) for k, e in exp.items())
            if s:
                exp[n] = -s
        self.exp = exp
        # group law F = exp(log X + log Y)
        #   = sum over m, n of e_(m+n) C(m+n, m) log^m(X) log^n(Y),
        # summed over n first; it must be integral
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


def curve_group_law(curve: WeierstrassCurve, D: int, p=None) -> EllipticFormalData:
    """Formal data through degree D >= 1; if p is given, good reduction
    there is required."""
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

def cm_endo_elliptic(data: EllipticFormalData, alpha) -> dict:
    """[alpha](z) = exp(alpha * log z) as a series with Gaussian-rational
    coefficients; alpha is (re, im) over the integers or Fractions."""
    alpha = gaussian(*alpha) if not isinstance(alpha, tuple) else (
        Frac(alpha[0]), Frac(alpha[1]))
    out = {}
    ak = gaussian(1)
    for k in range(1, data.D + 1):
        ak = gmul(ak, alpha)
        e = data.exp.get(k)
        if not e or ak == (0, 0):
            continue
        # e_k alpha^k log^k: a Gaussian scalar times a rational series
        re, im = e * ak[0], e * ak[1]
        for n, c in data.powers[k].items():
            x, y = out.get(n, (0, 0))
            out[n] = (x + re * c, y + im * c)
    return {n: v for n, v in sorted(out.items()) if v != (0, 0)}


def gauss_embed_root(p: int, N: int) -> PadicInt:
    """The Hensel lift of the smaller square root of -1 mod p."""
    if p % 4 != 1:
        raise ValidationError(f"p = {p} is not split in the Gaussian field")
    r0 = min(r for r in range(p) if (r * r + 1) % p == 0)
    f = PadicPoly(p, N, [1, 0, 1])
    return hensel_root(f, PadicInt(p, N, r0))


def embed_gauss_series(series: dict, trunc: int,
                       root: PadicInt) -> TruncSeries:
    """Reduce a Gaussian-rational series mod p^N via i -> root, in root's
    ring; every coefficient must be p-integral or the CM/reduction
    hypotheses are falsified."""
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
    trace a_p that lies over the embedded prime: the sign of y is the
    one with x + y * root = 0 mod p, p being root's prime."""
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
    base = (x, y)
    return [base, (-x, -y), (-y, x), (y, -x)]


def frobenius_check(data: EllipticFormalData, alpha,
                    root: PadicInt) -> dict:
    """Whether [alpha](z) = z^p mod p through the truncation degree, p
    being root's prime.  Returns a report with the first failing
    coefficient if any; ``embedded`` holds the embedded [alpha] series."""
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


def match_lubin_tate(data: EllipticFormalData, alpha_P,
                     root: PadicInt) -> FglHom:
    """Strict isomorphism from the curve's formal group to the standard
    Lubin-Tate group of the Frobenius uniformizer, over root's ring.

    ``alpha_P`` is a candidate (re, im), checked here, or the report
    that ``frobenius_check`` gave for it over root's ring, which saves
    checking it again.  Either way a candidate that fails the Frobenius
    congruence is refused.

    The embedded [alpha_P] series is itself a Lubin-Tate seed (its
    linear coefficient is a uniformizer and it reduces to z^p); the
    intertwining solver then produces the isomorphism, integral by
    construction of the exact arithmetic."""
    rep = (alpha_P if isinstance(alpha_P, dict)
           else frobenius_check(data, alpha_P, root))
    if not rep["passes"]:
        raise ValidationError(
            f"candidate fails the Frobenius congruence at {rep['first_fail']}"
        )
    emb = rep["embedded"]
    pi = emb.coefficient((1,))
    src = LTSeed(pi, emb)
    dst = LTSeed.standard(root.p, root.N, data.D, pi=pi)
    return FglHom((solve_intertwine(1, src, dst),))
