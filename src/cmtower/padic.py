"""Exact p-adic arithmetic at fixed precision.

Every residue lives in one ring object:

* ``Zp(p, N)``      -- the ring Z/p^N, one object per (p, N).  It is the one
  place that checks "p an odd prime (``is_prime``), N >= 1" and computes
  ``mod = p^N``; ``val(x)`` is the valuation of a raw residue and
  ``lift(x)`` takes an int or a residue of this ring to a reduced raw
  residue, refusing a residue of another ring.

Three carriers live here, each holding its ring as ``R`` (``p`` and
``N`` are views of it):

* ``PadicInt``      -- residues mod p^N with exact valuation bookkeeping,
* ``PadicPoly``     -- dense polynomials over a fixed (p, N),
* ``TruncSeries``   -- sparse truncated power series in one or more
  variables, with ``eff_prec``, the digits known of every coefficient
  (the Lubin-Tate recursion spends one per degree).

Dense coefficient lists share two kernels: ``mul_coeffs``, the unreduced
schoolbook product, and ``rem_coeffs``, long division mod p^N by a
polynomial with a unit leading coefficient.  ``PadicPoly`` (its Horner
``compose_poly`` too) and the tower levels of ``local_tower.TowerRing``
multiply and reduce through them.  ``mul_coeffs(a, b, out)`` adds a
product into ``out`` and stops at its last degree: ``power_table``, the
one table of powers of a one-variable series, and the elliptic expansion
multiply series truncated at D into ``[0] * (D + 1)``.  The sparse
``TruncSeries.__mul__`` and ``compose`` are plain reference arithmetic,
term by term: no report reaches them, and the tests check the dense
Lubin-Tate solver's series through them.

One Berkowitz recursion over Z, ``_berkowitz``, gives the characteristic
polynomial det(x - A) of an integer matrix, read by two entry points:
``char_poly`` reduces its coefficients mod p^N, and ``ring_det`` takes
the determinant (-1)^n c_n off it, nothing reduced.

Valuation of the zero residue is reported as the capped marker ``None``
("unknown, >= N") and is never compared equal to a finite valuation.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import isqrt
from operator import add, attrgetter, mul

from .errors import HenselError, PrecisionError, ValidationError

# the rings made so far, by (p, N); Zp fills it, one entry per pair
_RINGS = {}


def is_prime(p: int) -> bool:
    """Whether p is prime, by trial division: the one primality test."""
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


class Zp:
    """The ring Z/p^N Z for an odd prime p.  ``Zp(p, N)`` validates on
    its first call and returns that same object on every later one, so
    carriers compare their rings with ``is``."""

    __slots__ = ("p", "N", "mod")

    def __new__(cls, p: int, N: int):
        R = _RINGS.get((p, N))
        if R is not None:
            return R
        if p == 2 or not is_prime(p):
            raise ValidationError(f"p must be an odd prime, got {p}")
        if N < 1:
            raise ValidationError(f"precision must be positive, got {N}")
        R = object.__new__(cls)
        R.p, R.N, R.mod = p, N, p ** N
        return _RINGS.setdefault((p, N), R)

    def val(self, x: int):
        """Exact valuation of a reduced raw residue; ``None`` (meaning
        ">= N", the capped marker) for the zero residue."""
        if x == 0:
            return None
        p, v = self.p, 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    def lift(self, x) -> int:
        """An int, or a residue of this ring, as a reduced raw residue; a
        residue of another ring is refused."""
        if isinstance(x, PadicInt):
            if x.R is not self:
                raise ValidationError(f"residue mod {x.p}^{x.N} used in "
                                      f"the ring mod {self.p}^{self.N}")
            return x.value
        return x % self.mod

    def divide_exact(self, x: int, y: int) -> int:
        """x / y for reduced raw residues, y of valuation v: the quotient
        is known to N - v digits only.  Raises unless p^v divides x."""
        v = self.val(y)
        if v is None:
            raise ValidationError("division by the zero residue")
        pv = self.p ** v
        if x % pv:
            raise ValidationError(f"residue {x} not divisible by p^{v}")
        return x // pv * pow(y // pv, -1, self.mod) % self.mod


class InRing:
    """An object over the ring ``R``: ``p`` and ``N`` are views of it."""

    __slots__ = ()
    p = property(attrgetter("R.p"))
    N = property(attrgetter("R.N"))


class PadicInt(InRing):
    """A residue in Z/p^N Z for an odd prime p, viewed as a p-adic integer
    known to N digits."""

    __slots__ = ("R", "value")

    def __init__(self, p: int, N: int, value: int):
        R = self.R = Zp(p, N)
        self.value = value % R.mod

    # -- helpers -------------------------------------------------------

    def _coerce(self, other):
        """The raw residue of an int or a residue of this ring."""
        if isinstance(other, (int, PadicInt)):
            return self.R.lift(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return self.value == 0

    def is_unit(self) -> bool:
        return self.value % self.p != 0

    def valuation(self):
        """Exact valuation for a nonzero residue; ``None`` (meaning
        ">= N", the capped marker) for the zero residue."""
        return self.R.val(self.value)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PadicInt(self.p, self.N, self.value + o)

    __radd__ = __add__

    def __neg__(self):
        return PadicInt(self.p, self.N, -self.value)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PadicInt(self.p, self.N, self.value - o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PadicInt(self.p, self.N, self.value * o)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return PadicInt(self.p, self.N, pow(self.value, k, self.R.mod))

    def inverse(self) -> "PadicInt":
        if not self.is_unit():
            raise ValidationError("cannot invert a non-unit residue")
        return PadicInt(self.p, self.N, pow(self.value, -1, self.R.mod))

    def divide_exact(self, other: "PadicInt") -> "PadicInt":
        """Exact division by an element of valuation v.

        The result is only guaranteed to N - v digits; the caller is
        responsible for tracking that loss.  Raises if the dividend is
        not divisible.
        """
        return PadicInt(self.p, self.N,
                        self.R.divide_exact(self.value, self._coerce(other)))

    # -- comparisons / misc -------------------------------------------

    def residue(self, k: int) -> int:
        """The residue mod p^k (0 <= k <= N)."""
        if not 0 <= k <= self.N:
            raise ValidationError(f"asked for {k} digits of {self.N}")
        return self.value % (self.p ** k)

    def congruent(self, other, k: int) -> bool:
        return self.residue(k) == self._coerce(other) % (self.p ** k)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.R.mod
        if not isinstance(other, PadicInt):
            return NotImplemented
        return self.R is other.R and self.value == other.value

    def __repr__(self):
        return f"PadicInt({self.value} mod {self.p}^{self.N})"

    def to_json(self):
        return {"value": self.value, "p": self.p, "N": self.N}


def mul_coeffs(a: Sequence[int], b: Sequence[int], out=None) -> list:
    """The dense product of two coefficient lists, lowest degree first.
    With ``out`` given, the product is added into it through degree
    len(out) - 1 and higher terms are dropped: a sum of products needs one
    list, and a series product truncated at D needs ``[0] * (D + 1)``.
    Nothing is reduced: the caller reduces each coefficient once (through
    ``rem_coeffs`` or its own comprehension).  Zero coefficients are
    skipped."""
    if out is None:
        out = [0] * (len(a) + len(b) - 1)
    n = len(out)
    full = n - len(b)  # rows a[i] * b with i <= full fit whole
    i = 0
    for x in a[:n]:
        if x:
            j = i
            for y in (b if i <= full else b[:n - i]):
                if y:
                    out[j] += x * y
                j += 1
        i += 1
    return out


def rem_coeffs(c: list, h: Sequence[int], inv: int, mod: int) -> None:
    """Long division of ``c`` by ``h`` mod ``mod``, in place; ``inv`` is
    the inverse of h's leading coefficient.  Afterwards ``c[:deg h]`` is
    the remainder and ``c[deg h:]`` the quotient, both reduced.  Zero
    coefficients of ``h`` are skipped, so a divisor spread out with a
    stride w, h(X^w), divides the rows of width w independently."""
    d = len(h) - 1
    for k in range(len(c) - 1, d - 1, -1):
        if c[k]:
            q = c[k] * inv % mod
            for j, b in enumerate(h, k - d):
                if b:
                    c[j] -= q * b
            c[k] = q
    for j, x in enumerate(c[:d]):
        c[j] = x % mod


def _horner(coeffs: Sequence[int], x: int, mod: int) -> int:
    """The value mod ``mod`` at the raw residue x of a coefficient list,
    lowest degree first."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


class PadicPoly(InRing):
    """Dense polynomial over a fixed (p, N); coefficients stored as raw
    residues, canonical form has a nonzero leading coefficient."""

    __slots__ = ("R", "coeffs")

    def __init__(self, p: int, N: int, coeffs: Sequence[int]):
        R = self.R = Zp(p, N)
        c = [x % R.mod for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = c

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> PadicInt:
        v = self.coeffs[i] if i < len(self.coeffs) else 0
        return PadicInt(self.p, self.N, v)

    def _check(self, other: "PadicPoly"):
        if self.R is not other.R:
            raise ValidationError("mismatched (p, N) between polynomials")

    def __add__(self, other: "PadicPoly") -> "PadicPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return PadicPoly(self.p, self.N, [x + y for x, y in zip(a, b)])

    def __mul__(self, other: "PadicPoly") -> "PadicPoly":
        self._check(other)
        return PadicPoly(self.p, self.N, mul_coeffs(self.coeffs, other.coeffs))

    def derivative(self) -> "PadicPoly":
        return PadicPoly(self.p, self.N, [i * x for i, x in enumerate(self.coeffs)][1:])

    def evaluate(self, x: PadicInt) -> PadicInt:
        R = self.R
        return PadicInt(self.p, self.N, _horner(self.coeffs, R.lift(x), R.mod))

    def divmod_unit(self, other: "PadicPoly"):
        """Division with remainder by a polynomial whose leading
        coefficient is a unit."""
        self._check(other)
        if other.is_zero():
            raise ValidationError("division by the zero polynomial")
        lead = other.coeffs[-1]
        if lead % self.p == 0:
            raise ValidationError("divisor leading coefficient is not a unit")
        mod = self.R.mod
        c = list(self.coeffs)
        rem_coeffs(c, other.coeffs, pow(lead, -1, mod), mod)
        d = other.degree
        return PadicPoly(self.p, self.N, c[d:]), PadicPoly(self.p, self.N, c[:d])

    def compose_poly(self, other: "PadicPoly") -> "PadicPoly":
        """self(other), by Horner on raw lists: each step is one
        ``mul_coeffs`` product reduced mod p^N, and one polynomial is
        made at the end."""
        self._check(other)
        mod, g = self.R.mod, other.coeffs or [0]
        *rest, top = self.coeffs or [0]
        acc = [top]
        for c in reversed(rest):
            acc = mul_coeffs(acc, g)
            acc[0] += c
            acc = [x % mod for x in acc]
        return PadicPoly(self.p, self.N, acc)

    def __eq__(self, other):
        if not isinstance(other, PadicPoly):
            return NotImplemented
        return self.R is other.R and self.coeffs == other.coeffs

    def __repr__(self):
        return f"PadicPoly(p={self.p}, N={self.N}, coeffs={self.coeffs})"


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------

class NewtonPolygon(namedtuple("NewtonPolygon", "segments lowest_power")):
    """Lower convex hull of (i, ord a_i).

    ``segments`` is a list of (slope, length) pairs with strictly
    increasing slopes.  Slopes are recorded as ROOT VALUATIONS, i.e. the
    negatives of the geometric hull slopes, so an Eisenstein polynomial
    of degree d shows a single segment (1/d, d).  ``lowest_power`` is the
    order of vanishing at 0 that was factored out first.
    """

    __slots__ = ()

    def single_slope(self):
        if len(self.segments) != 1:
            return None
        return self.segments[0][0]

    def to_json(self):
        return {
            "segments": [[str(s), l] for s, l in self.segments],
            "lowest_power": self.lowest_power,
        }


def newton_polygon(f: PadicPoly) -> NewtonPolygon:
    """Newton polygon of a nonzero polynomial.

    Zero residues in the low-order positions are treated as structural
    zeros and factored out as a power of the variable.  A zero residue
    past them is skipped: its true valuation is >= N, and no point of
    the hull is that high, since a nonzero residue mod p^N has valuation
    <= N - 1, so it cannot change the polygon.

    One pass over the coefficients values each residue and grows the
    lower hull, left to right.  The hull drops collinear points, so its
    slopes strictly increase and the root valuations, their negatives,
    strictly decrease: the segments come out reversed, not sorted.
    """
    c, p = f.coeffs, f.p
    if not c:
        raise ValidationError("newton_polygon of the zero polynomial")
    lo = 0
    while c[lo] == 0:
        lo += 1
    hull = []  # (i, ord) for nonzero coefficients, relative to lo
    for i in range(len(c) - lo):
        x = c[lo + i]
        if not x:
            continue
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        # keep hull lower-convex: drop the last point while it is on or
        # above the segment from the one before it to (i, v)
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (i - x1) >= (v - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((i, v))
    segments = tuple((Fraction(y1 - y2, x2 - x1), x2 - x1)
                     for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    return NewtonPolygon(segments[::-1], lowest_power=lo)


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------

def hensel_root(f: PadicPoly, approx: PadicInt) -> PadicInt:
    """Newton iteration from an approximation satisfying the standard
    Hensel hypothesis ord f(a) > 2 ord f'(a).  The certified root r
    satisfies f(r) = 0 mod p^N and r = approx mod p^(ord f'(a) + 1).
    The steps run on raw residues; only the root becomes a residue."""
    R, p = f.R, f.p
    mod = R.mod
    fc, dc = f.coeffs, f.derivative().coeffs
    a = R.lift(approx)
    k = R.val(_horner(dc, a, mod))
    v = R.val(_horner(fc, a, mod))
    if k is None or (v is not None and v <= 2 * k):
        raise HenselError(
            f"Hensel hypothesis violated: ord f(a) = {v}, ord f'(a) = {k}"
        )
    x = a
    for _ in range(f.N + 2):
        fx = _horner(fc, x, mod)
        if not fx:
            break
        x = (x - R.divide_exact(fx, _horner(dc, x, mod))) % mod
    else:
        raise HenselError("Newton iteration failed to stabilize")
    if (x - a) % p ** (k + 1):
        raise HenselError("certified root drifted from the approximation")
    return PadicInt(p, f.N, x)


# ---------------------------------------------------------------------------
# Characteristic polynomials and determinants
# ---------------------------------------------------------------------------

def _berkowitz(rows) -> list:
    """The coefficients of det(x - A), highest power first, for a square
    integer matrix A, by Berkowitz's division-free algorithm (Inf.
    Process. Lett. 18 (1984)): O(n^4) integer products and no division,
    so the same polynomial as Laplace expansion of x I - A gives.  The
    last, c_n, is (-1)^n det A.

    det(x - A_r) of the leading r x r block grows one row and column at a
    time.  Writing the next block as [[M, C], [R, a]], its coefficients
    are the Toeplitz product of q = [1, -a, -R C, -R M C, ...,
    -R M^(r-1) C] with those of det(x - M)."""
    n = len(rows)
    c = [1]  # coefficients of det(x - A_r), highest power first
    for r in range(n):
        block = [row[:r] for row in rows[:r]]
        R = rows[r][:r]
        v = [row[r] for row in rows[:r]]  # M^k C, from k = 0
        q = [1, -rows[r][r]]
        for k in range(r):
            if k:
                v = [sum(map(mul, row, v)) for row in block]
            q.append(-sum(map(mul, R, v)))
        # c'_k = sum_j q_(k-j) c_j, q read backwards
        q.reverse()
        c = [sum(map(mul, c, q[r + 1 - k:])) for k in range(r + 2)]
    return c


def char_poly(rows, mod: int) -> list:
    """The characteristic polynomial det(x - A) mod ``mod`` of a square
    matrix of integers, lowest degree first: ``_berkowitz`` once over Z,
    each coefficient then reduced once.  It is monic of degree n, its
    constant term is (-1)^n det A, and the empty matrix gives [1]."""
    return [x % mod for x in reversed(_berkowitz(rows))]


def ring_det(rows) -> int:
    """The determinant of a square integer matrix, (-1)^n c_n of
    ``_berkowitz``, nothing reduced; the empty matrix gives 1."""
    c = _berkowitz(rows)[-1]
    return c if len(rows) % 2 == 0 else -c


# ---------------------------------------------------------------------------
# Truncated multivariate power series
# ---------------------------------------------------------------------------

class TruncSeries(InRing):
    """Sparse truncated power series in ``nvars`` variables over Z/p^N.

    Coefficients are stored as raw residues keyed by exponent tuples of
    total degree <= trunc.  ``eff_prec`` is the number of guaranteed
    p-adic digits of every coefficient, at least 1.
    """

    __slots__ = ("R", "nvars", "trunc", "eff_prec", "coeffs")

    def __init__(self, p, N, nvars, trunc, coeffs=None, eff_prec=None):
        R = self.R = Zp(p, N)
        if nvars < 1:
            raise ValidationError("nvars must be >= 1")
        self.nvars = nvars
        self.trunc = trunc
        self.eff_prec = N if eff_prec is None else eff_prec
        if self.eff_prec <= 0:
            raise PrecisionError("effective precision exhausted")
        mod = R.mod
        out = {}
        for e, c in (coeffs or {}).items():
            if len(e) != nvars:
                raise ValidationError(f"exponent {e} has wrong arity")
            if sum(e) > trunc:
                continue
            c %= mod
            if c:
                out[e] = c
        self.coeffs = out

    # -- constructors --------------------------------------------------

    @classmethod
    def variable(cls, p, N, nvars, trunc, index=0):
        e = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(p, N, nvars, trunc, {e: 1})

    @classmethod
    def constant(cls, p, N, nvars, trunc, c):
        return cls(p, N, nvars, trunc, {(0,) * nvars: c})

    @classmethod
    def from_coeff_list(cls, p, N, trunc, coeffs):
        """One-variable series from a dense coefficient list."""
        return cls(p, N, 1, trunc, {(i,): c for i, c in enumerate(coeffs)})

    @classmethod
    def _reduced(cls, R, nvars, trunc, coeffs, eff_prec):
        """A series from coefficients that are already reduced, nonzero
        and of degree at most ``trunc``, with ``eff_prec`` >= 1."""
        s = object.__new__(cls)
        s.R, s.nvars, s.trunc, s.eff_prec, s.coeffs = (
            R, nvars, trunc, eff_prec, coeffs)
        return s

    # -- basics --------------------------------------------------------

    def _check(self, other: "TruncSeries"):
        if self.R is not other.R or (self.nvars, self.trunc) != (
                other.nvars, other.trunc):
            raise ValidationError("mismatched series parameters")

    def copy_with(self, coeffs, eff_prec=None):
        return TruncSeries(
            self.p, self.N, self.nvars, self.trunc, coeffs,
            self.eff_prec if eff_prec is None else eff_prec,
        )

    def coefficient(self, e) -> PadicInt:
        return PadicInt(self.p, self.N, self.coeffs.get(tuple(e), 0))

    def constant_term(self) -> PadicInt:
        return self.coefficient((0,) * self.nvars)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        mod = self.R.mod
        for e, c in other.coeffs.items():
            v = (out.get(e, 0) + c) % mod
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return TruncSeries(self.p, self.N, self.nvars, self.trunc, out,
                           min(self.eff_prec, other.eff_prec))

    def __neg__(self):
        mod = self.R.mod
        return self.copy_with({e: mod - c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Term by term, a pair skipped when its degrees sum past trunc;
        the constructor reduces the sums."""
        self._check(other)
        trunc, acc = self.trunc, {}
        terms = [(e, sum(e), c) for e, c in other.coeffs.items()]
        for ea, ca in self.coeffs.items():
            room = trunc - sum(ea)
            for eb, db, cb in terms:
                if db <= room:
                    e = tuple(map(add, ea, eb))
                    acc[e] = acc.get(e, 0) + ca * cb
        return TruncSeries(self.p, self.N, self.nvars, trunc, acc,
                           min(self.eff_prec, other.eff_prec))

    # -- composition ---------------------------------------------------

    def compose(self, args: Sequence["TruncSeries"]) -> "TruncSeries":
        """Substitute args[i] (zero constant term) for variable i.

        All args must share (p, N, nvars, trunc); the result lives in the
        args' ring, its coefficients reduced mod self's modulus too, and
        is known to the fewest digits of self and the args.

        Each argument gets one table of its powers.  The monomials that
        agree in every variable but the first fold into one row, a scalar
        combination of the powers of args[0]; each row is then multiplied
        by its powers of the later args.
        """
        if len(args) != self.nvars:
            raise ValidationError(
                f"need {self.nvars} arguments, got {len(args)}")
        for a in args:
            if not a.constant_term().is_zero():
                raise ValidationError("composition argument has a constant term")
            if a.p != self.p:
                raise ValidationError("mismatched p in composition")
        tgt = args[0]
        for a in args[1:]:
            tgt._check(a)
        eff = min([self.eff_prec] + [a.eff_prec for a in args])
        tables = []
        for i, a in enumerate(args):
            table = [tgt.copy_with({(0,) * tgt.nvars: 1})]
            for _ in range(max((e[i] for e in self.coeffs), default=0)):
                table.append(table[-1] * a)
            tables.append(table)
        rows = {}
        for e, c in self.coeffs.items():
            row = rows.setdefault(e[1:], {})
            for et, ct in tables[0][e[0]].coeffs.items():
                row[et] = row.get(et, 0) + c * ct
        out = {}
        for rest, row in rows.items():
            term = tgt.copy_with(row, eff)
            for table, k in zip(tables[1:], rest):
                term = term * table[k]
            for e, c in term.coeffs.items():
                out[e] = out.get(e, 0) + c
        return tgt.copy_with({e: c % self.R.mod for e, c in out.items()}, eff)

    # -- comparison ----------------------------------------------------

    def congruent(self, other: "TruncSeries", digits=None) -> bool:
        self._check(other)
        known = min(self.eff_prec, other.eff_prec)
        k = known if digits is None else digits
        if not 0 <= k <= known:
            raise ValidationError(f"asked for {k} digits of {known} known")
        pk = self.p ** k
        keys = set(self.coeffs) | set(other.coeffs)
        return all(
            (self.coeffs.get(e, 0) - other.coeffs.get(e, 0)) % pk == 0
            for e in keys
        )

    def __repr__(self):
        terms = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return (f"TruncSeries(p={self.p}, N={self.N}, eff={self.eff_prec}, "
                f"terms={terms[:8]}{'...' if len(terms) > 8 else ''})")

    def to_json(self):
        return {
            "p": self.p, "N": self.N, "nvars": self.nvars,
            "trunc": self.trunc, "eff_prec": self.eff_prec,
            "coeffs": {
                ",".join(map(str, e)): c
                for e, c in sorted(self.coeffs.items())
            },
        }


def power_table(f: TruncSeries) -> list:
    """[1, f, f^2, ..., f^(D-1)] for a one-variable series f truncated at
    D, each power a dense coefficient list through degree D reduced mod
    p^N: the table of powers of Brent and Kung ("Fast algorithms for
    manipulating formal power series", J. ACM 25 (1978)).  Each power is
    one ``mul_coeffs`` product truncated at D."""
    D, mod = f.trunc, f.R.mod
    base = [0] * (D + 1)
    for (k,), c in f.coeffs.items():
        base[k] = c
    table = [[1] + [0] * D]
    for _ in range(1, D):
        table.append([c % mod for c in
                      mul_coeffs(table[-1], base, [0] * (D + 1))])
    return table


def compositional_inverse(f: TruncSeries) -> TruncSeries:
    """Inverse of a 1-variable series with unit linear coefficient under
    composition, through the truncation degree.

    g(f(z)) = z is triangular in the powers of f: [f^n]_n = a1^n, so
    degree n fixes g_n = -(sum over k < n of g_k [f^k]_n) / a1^n, read
    from ``power_table(f)``."""
    if f.nvars != 1:
        raise ValidationError("compositional inverse needs one variable")
    a1 = f.coefficient((1,))
    if not a1.is_unit():
        raise ValidationError("linear coefficient is not a unit")
    if not f.constant_term().is_zero():
        raise ValidationError("series has a constant term")
    D, mod = f.trunc, f.R.mod
    powers = power_table(f)
    inv_a1 = a1.inverse().value
    g = [0, inv_a1]
    scale = inv_a1
    for n in range(2, D + 1):
        scale = scale * inv_a1 % mod
        s = sum(g[k] * powers[k][n] for k in range(1, n))
        g.append(-s * scale % mod)
    return TruncSeries(f.p, f.N, 1, D, {(k,): c for k, c in enumerate(g)},
                       f.eff_prec)
