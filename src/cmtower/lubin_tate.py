"""One-dimensional Lubin-Tate formal groups.

A seed is a series d(t) = pi*t + ... with d(t) = t^p mod p.  Group laws,
[a]-endomorphisms and strict isomorphisms between seeds all come out of
one degree-by-degree recursion: the unique series phi with prescribed
linear part intertwining two seeds.  The recursion is solved online:
degree k needs only the parts of phi below k, so every product is formed
once, at the degree that first needs it.  Each degree divides by
pi^k - pi (valuation exactly 1), so one digit of effective precision is
spent per degree; seeds are built with guard digits to absorb this.

Each object is held as its series: a seed as d, its uniformizer read
from d's linear coefficient; a group law as F(X, Y); a homomorphism (an
[a] or a strict isomorphism) as the one-variable series phi.

A seed owns the two tables that the recursion reads: its power table
1, d, d^2, ..., d^(D-1), dense coefficient lists from
``padic.power_table``, and its divisor table, the inverses of
(pi^k - pi)/p for k = 2..D from ``divisor_table``.  The first solve from
the seed builds them, and the group law, every [a] and every strict
isomorphism out of that seed share them.
"""

from __future__ import annotations

from operator import mul

from .errors import InvariantError, PrecisionError, ValidationError
from .padic import InRing, PadicInt, PadicPoly, TruncSeries, Zp, power_table


class LTSeed(InRing):
    """A Lubin-Tate seed: a one-variable series d over its ring, with the
    uniformizer pi_val read from d's linear coefficient."""

    __slots__ = ("pi_val", "d", "_d_powers", "_divisor_inverses")
    R = property(lambda self: self.d.R)

    def __init__(self, d: TruncSeries):
        if d.nvars != 1:
            raise ValidationError("seed series must be one-variable")
        p = d.p
        # before the uniformizer: truncating below degree 1 drops pi too
        if d.trunc < p:
            raise ValidationError(
                f"truncation degree {d.trunc} is below p = {p}; the seed "
                "congruence d = t^p mod p is not expressible"
            )
        pi_val = d.coefficient((1,))
        v = pi_val.valuation()
        if v is None and d.N == 1:
            # capped: v >= 1 is all that one digit shows
            raise PrecisionError(
                "valuation 1 needs N >= 2 (got N = 1); raise N")
        if v != 1:
            raise ValidationError("uniformizer must have valuation exactly 1")
        if not d.constant_term().is_zero():
            raise ValidationError("seed has a constant term")
        for (k,), c in d.coeffs.items():
            if k == p:
                if c % p != 1:
                    raise ValidationError(
                        "coefficient of t^p must be 1 mod p"
                    )
            elif k >= 2 and c % p != 0:
                raise ValidationError(
                    f"coefficient of t^{k} must vanish mod p"
                )
        if d.coeffs.get((p,), 0) % p != 1:
            raise ValidationError("d must reduce to t^p mod p")
        self.pi_val = pi_val
        self.d = d

    @property
    def trunc(self) -> int:
        return self.d.trunc

    def d_powers(self) -> list:
        """``power_table(d)``: [1, d, ..., d^(D-1)] as dense coefficient
        lists through the truncation degree D, built on the first call
        and kept on the seed."""
        try:
            return self._d_powers
        except AttributeError:
            self._d_powers = power_table(self.d)
            return self._d_powers

    def divisor_inverses(self) -> list:
        """``divisor_table(pi, D)``: the inverses of (pi^k - pi)/p that
        the recursion divides by, built on the first call and kept on
        the seed."""
        try:
            return self._divisor_inverses
        except AttributeError:
            self._divisor_inverses = divisor_table(self.pi_val, self.trunc)
            return self._divisor_inverses

    @property
    def is_polynomial(self) -> bool:
        """True when d has no term beyond degree p; torsion-polynomial
        work (local_tower) requires this."""
        return all(k <= self.p for (k,) in self.d.coeffs)

    def to_poly(self) -> PadicPoly:
        if not self.is_polynomial:
            raise ValidationError("seed is not polynomial of degree p")
        coeffs = [0] * (self.p + 1)
        for (k,), c in self.d.coeffs.items():
            coeffs[k] = c
        return PadicPoly(self.p, self.N, coeffs)

    @classmethod
    def from_coeffs(cls, p, N, trunc, coeffs):
        """Seed from a dense coefficient list [0, pi, a2, ...]."""
        return cls(TruncSeries.from_coeff_list(p, N, trunc, coeffs))

    @classmethod
    def multiplicative(cls, p, N, trunc):
        """The seed (1+t)^p - 1, whose group law is X + Y + XY."""
        from math import comb

        return cls.from_coeffs(
            p, N, trunc, [0] + [comb(p, k) for k in range(1, p + 1)]
        )

    @classmethod
    def standard(cls, p, N, trunc, pi=None):
        """The seed pi*t + t^p; pi, an int or a residue mod p^N, defaults
        to p."""
        pi = p if pi is None else Zp(p, N).lift(pi)
        return cls.from_coeffs(p, N, trunc, [0, pi] + [0] * (p - 2) + [1])

    def __repr__(self):
        return f"LTSeed(p={self.p}, pi={self.pi_val.value}, d={self.d!r})"


def divisor_table(pi_val: PadicInt, D: int) -> list:
    """t[k] = the inverse of (pi^k - pi)/p mod p^N for k = 2..D (t[0] and
    t[1] are None), or None where pi^k - pi does not have valuation
    exactly 1 and degree k cannot be corrected."""
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


class FormalGroupLaw:
    """A one-dimensional formal group law F(X, Y) = X + Y + higher, held
    as its series.  ``group_law`` builds the law of a seed; no product
    law is formed, since the CM action on a product of seeds is diagonal
    per coordinate (cm_split.ProductGroup)."""

    __slots__ = ("F",)

    def __init__(self, F: TruncSeries):
        self.F = F

    def add(self, x: TruncSeries, y: TruncSeries) -> TruncSeries:
        """The formal sum F(x, y) of two series in one common ambient
        variable space."""
        return self.F.compose([x, y])


# ---------------------------------------------------------------------------
# The fundamental recursion
# ---------------------------------------------------------------------------

def _lt_solve(linear: TruncSeries, src: LTSeed, dst: LTSeed) -> TruncSeries:
    """The unique phi = linear + higher with dst.d(phi) = phi(src.d per
    variable), solved degree by degree; ``linear`` is homogeneous of
    degree 1 in one or two variables.

    Degree k corrects by R_k / (pi^k - pi); the divisor has valuation
    exactly 1 and the obstruction must be divisible by pi, else the
    seeds fail the defining congruences.  The inverses of
    (pi^k - pi) / p are src's own table (``LTSeed.divisor_inverses``).

    The solver is online (van der Hoeven, "Relax, but don't be too
    lazy", JSC 34 (2002)).  With phi_j the homogeneous parts of phi and
    d_m the coefficients of dst.d (d_1 = pi, M the top degree), dst.d(phi)
    is evaluated by Horner: dst.d(phi) = phi G_1 with G_M = d_M and
    G_m = d_m + phi G_(m+1), so that, apart from the term pi phi_k,

        R_k = total_k - [phi_{<k}(src.d(X_1), ...)]_k,
        total_k = sum_{j<k} phi_j [G_1]_(k-j),
        [G_m]_s = sum_{j=1}^{s} phi_j [G_(m+1)]_(s-j)   (s >= 1),

    with [G_m]_0 = d_m.  At step k, [G_m]_(k-m) reads [G_(m+1)] through
    degree k-m-1, whose top part is formed at this same step: so m runs
    downward, from min(k, M) - 1 to 1, and then total_k reads
    [G_1]_(k-1).  Each part is formed once and read by every later
    degree.

    A degree-s part is dense: s + 1 coefficients indexed by the exponent
    of X in two variables, one coefficient in one.  In one variable the
    sums are sums of integer products, each reduced mod p^N once.  In
    two, each part is packed once, when it is formed, into one integer
    with one slot of 2 bitlen(p^N) + 2 bitlen(D + 2) - 2 bits per
    coefficient (Kronecker substitution; Schoenhage, EUROCAM 1982): the
    product of two packed parts is the packed product of the parts.  A
    slot of [G_m]_s or of total_k (degree s <= D) adds, for each j, the
    products of the coefficient pairs whose X-exponents sum to the
    slot's, at most min(j, s - j) + 1 of them: at most s + s^2/4 <
    (D + 2)^2 / 4 products of residues below p^N over all j.  So the
    slot's sum stays below 2^slot and never carries into the next one.
    Each sum is unpacked and reduced once.

    The right-hand side is linear in phi: when phi_j is fixed, its
    monomials times the powers of src.d are added into per-degree
    buckets.  phi_k enters degree k only as (pi - pi^k) phi_k, which is
    what the divisor accounts for.  Those powers are src's own table
    (``LTSeed.d_powers``), dense lists.  In two variables the bucket of
    X^f is one integer packed over the exponent g of Y, with the same
    slot, and a monomial c X^i Y^(j-i) adds (c [src.d^i]_f mod p^N)
    times src.d^(j-i) packed to it, for each f.  The slot of X^f Y^g,
    read at degree f + g <= D, adds one product of two residues per
    (j, i) with i <= f and j - i <= g: at most (f + 1)(g + 1) <=
    (D + 2)^2 / 4.  Slots of degree above D are never read; their carries
    run only into slots of higher g, which are not read either.
    """
    if src.R is not dst.R:
        raise ValidationError("seeds disagree on (p, N)")
    if src.trunc != dst.trunc:
        raise ValidationError("seeds disagree on truncation")
    if src.pi_val != dst.pi_val:
        raise ValidationError("seeds have different uniformizers")
    if linear.trunc != src.trunc:
        raise ValidationError("linear part and seed disagree on truncation")
    n = linear.nvars
    if n > 2 or any(sum(e) != 1 for e in linear.coeffs):
        raise ValidationError(
            "linear part must be of degree 1 in one or two variables")
    p, mod = src.p, src.R.mod
    D = linear.trunc
    two = n == 2
    d = [0] * (D + 1)
    for (m,), c in dst.d.coeffs.items():
        if 2 <= m <= D:
            d[m] = c
    M = max((m for m in range(2, D + 1) if d[m]), default=1)
    # a packed slot adds at most (D + 2)^2 / 4 products of residues below
    # p^N (the docstring counts them), so this width never carries
    slot = 2 * mod.bit_length() + 2 * (D + 2).bit_length() - 2
    mask = (1 << slot) - 1
    shifts = [slot * i for i in range(D + 1)]

    def pack(part):
        x = 0
        for c in reversed(part):
            x = x << slot | c
        return x

    def exponent(j, i):
        # of coefficient i of a degree-j part
        return (i, j - i) if two else (j,)

    # phi[j] is the part of degree j as a dense list, P[j] the same part
    # packed (in one variable, its one coefficient); G[m][s] = [G_m]_s
    # packed, G[m][0] = d_m (G[1][0] = pi is never read)
    phi = [None] * (D + 1)
    phi[1] = [linear.coeffs.get(exponent(1, i), 0) for i in range(n)]
    P = [0] * (D + 1)
    P[1] = pack(phi[1]) if two else phi[1][0]
    G = [None] + [[d[m]] + [0] * D for m in range(1, M + 1)]
    inv = src.divisor_inverses()
    sp = src.d_powers()  # sp[a] = src.d^a through degree D, dense
    # rhs[f]: the right-hand side's term of degree f, or in two variables
    # its terms X^f Y^g packed over g, as sy[a] packs src.d^a
    rhs = [0] * (D + 1)
    sy = [pack(a) for a in sp] if two else None

    def push_rhs(j):
        # add phi_j(src.d(X)) or phi_j(src.d(X), src.d(Y)) above degree j
        # to rhs; in two variables the terms of degree j, which are spent,
        # land too
        if not two:
            c = P[j]
            if c:
                for f in range(j + 1, D + 1):
                    rhs[f] += c * sp[j][f]
            return
        for i, c in enumerate(phi[j]):
            if c:
                xs, ys = sp[i], sy[j - i]
                for f in range(i, D + 1 - (j - i)):
                    cx = c * xs[f] % mod
                    if cx:
                        rhs[f] += cx * ys

    eff = linear.eff_prec
    for k in range(2, D + 1):
        push_rhs(k - 1)
        for m in range(min(k, M) - 1, 0, -1):
            s = k - m
            acc = sum(map(mul, P[1:s + 1], G[m + 1][s - 1::-1]))
            G[m][s] = pack([(acc >> sh & mask) % mod
                            for sh in shifts[:s + 1]]) if two else acc % mod
        total = sum(map(mul, P[1:k], G[1][k - 1:0:-1]))
        u = inv[k]
        if u is None:
            raise InvariantError("correction divisor lost valuation 1")
        # R_k, coefficient by coefficient
        if two:
            r_k = [(total >> shifts[f] & mask)
                   - (rhs[f] >> shifts[k - f] & mask) for f in range(k + 1)]
        else:
            r_k = [total - rhs[k]]
        part = []
        for c in r_k:
            c %= mod
            if c % p:
                raise InvariantError(
                    f"obstruction at degree {k} is a unit: input is not a "
                    "valid Lubin-Tate seed pair"
                )
            part.append((c // p) * u % mod)
        phi[k] = part
        P[k] = pack(part) if two else part[0]
        eff -= 1
        if eff <= 0:
            raise PrecisionError("effective precision exhausted")
    return TruncSeries._reduced(src.R, n, D, {
        exponent(j, i): c
        for j in range(1, D + 1) for i, c in enumerate(phi[j]) if c
    }, eff)


def solve_intertwine(a: PadicInt, src: LTSeed, dst: LTSeed) -> TruncSeries:
    """The unique series phi = a*t + higher with dst.d(phi(t)) =
    phi(src.d(t)); a is an int or a residue of the seeds' ring."""
    linear = TruncSeries(src.p, src.N, 1, src.trunc, {(1,): src.R.lift(a)})
    if not linear.coeffs:
        return linear
    return _lt_solve(linear, src, dst)


def group_law(seed: LTSeed) -> FormalGroupLaw:
    """The unique F(X, Y) = X + Y + higher with F(d(X), d(Y)) = d(F(X, Y))."""
    p, N, D = seed.p, seed.N, seed.trunc
    linear = TruncSeries(p, N, 2, D, {(1, 0): 1, (0, 1): 1})
    return FormalGroupLaw(_lt_solve(linear, seed, seed))


def endo(seed: LTSeed, a: PadicInt) -> TruncSeries:
    """The endomorphism [a](t) = a*t + higher commuting with the seed; a
    is an int or a residue of the seed's ring."""
    return solve_intertwine(a, seed, seed)


def strict_iso(src: LTSeed, dst: LTSeed) -> TruncSeries:
    """The strict isomorphism phi(t) = t + higher between the group laws
    of two seeds sharing a uniformizer.  Its compositional inverse is
    ``padic.compositional_inverse(phi)``."""
    return solve_intertwine(1, src, dst)

