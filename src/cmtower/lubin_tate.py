"""One-dimensional Lubin-Tate formal groups.

A seed is a series d(t) = pi*t + ... with d(t) = t^p mod p.  Group laws,
[a]-endomorphisms and strict isomorphisms between seeds all come out of
one degree-by-degree recursion: the unique series phi with prescribed
linear part intertwining two seeds.  The recursion is solved online:
degree k needs only the parts of phi below k, so every product is formed
once, at the degree that first needs it.  Each degree divides by
pi^k - pi (valuation exactly 1), so one digit of effective precision is
spent per degree; seeds are built with guard digits to absorb this.
Its sums of products run on packed integers: in one variable one
integer per anti-diagonal of the Horner levels, so that a degree costs
one packed sum for every level at once; in two variables (a(X + Y),
as in the group law) symmetric parts in sigma1 = X + Y and sigma2 = XY,
half the coefficients of the X^f Y^g basis.  ``_lt_solve`` derives
both layouts and their slot widths.

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

from operator import add, mul

from .errors import InvariantError, PrecisionError, ValidationError
from .padic import InRing, PadicInt, PadicPoly, TruncSeries, Zp, power_table


def check_trunc(p: int, D: int) -> None:
    """Refuse a seed truncation D below p."""
    if D < p:
        raise ValidationError(
            f"truncation degree {D} is below p = {p}; the seed congruence "
            "d = t^p mod p is not expressible")


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
        check_trunc(p, d.trunc)
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
    as its series.  ``group_law`` builds the law of a seed; no report
    forms a product of seeds, so no g-dimensional law is built."""

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

def _slot_widths(mod: int, D: int) -> tuple:
    """Bits per packed slot in ``_lt_solve`` at p^N = mod and truncation
    D: (one-variable anti-diagonal, symmetric part in sigma coordinates,
    X^f Y^g bucket of the right-hand side).  Each width holds the most
    products of two residues below mod that a slot of its layout adds
    (the solver's docstring counts them), so no slot carries."""
    b = 2 * mod.bit_length()
    return (b + (D + 1).bit_length(), b + 2 * (D + 4).bit_length() - 3,
            b + 2 * (D + 2).bit_length() - 2)


def _pascal(D: int) -> list:
    """C(r, u) for r <= D and u <= D/2 by Pascal's rule, laid out row
    after row in rows of W = D // 2 + 1: C(r, u) = B[rW + u]."""
    W = D // 2 + 1
    row = [1] + [0] * (W - 1)
    B = row[:]
    for _ in range(D):
        row = [1, *map(add, row[1:], row)]
        B += row
    return B


def _sigma_rows(B: list, W: int, k: int) -> list:
    """Row f <= k/2 of the degree-k change of basis from sigma1^(k-2j)
    sigma2^j to X^f Y^(k-f): [C(k - 2j, f - j) for j = 0..f], read from
    B = ``_pascal(D)``, where C(k - 2j, f - j) is B[kW + f - j(2W + 1)].
    The matrix is unit-triangular: row f ends in C(k - 2f, 0) = 1."""
    return [B[k * W + f::-2 * W - 1][:f + 1] for f in range(k // 2 + 1)]


def _unit_obstruction(k: int) -> InvariantError:
    return InvariantError(f"obstruction at degree {k} is a unit: input is "
                          "not a valid Lubin-Tate seed pair")


def _lt_solve(a: int, n: int, src: LTSeed, dst: LTSeed) -> TruncSeries:
    """The unique phi with dst.d(phi) = phi(src.d per variable) and
    linear part a*t (n = 1) or a(X + Y) (n = 2), solved degree by degree;
    ``a`` is a reduced residue.  The effective precision starts at N.

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

    with [G_m]_0 = d_m.  Degree k forms [G_m]_(k-m) for m from
    min(k, M) - 1 down to 1, each reading [G_(m+1)]_(k-m-1) formed just
    before it, and then total_k, which is level 0 of the same chain.
    Each part is formed once and read by every later degree.  Sums of
    products are taken on packed integers (Kronecker substitution;
    Schoenhage, EUROCAM 1982), one slot per coefficient, each slot
    reduced mod p^N once; the widths are ``_slot_widths``.

    One variable.  A[t] packs the anti-diagonal t: slot m holds
    [G_(m+1)]_(t-m-1), so d_t sits at slot t - 1.  Degree k forms
    O = sum_{j=2}^{k-1} phi_j A[k+1-j], whose slot m is the j >= 2 part
    of [G_m]_(k-m) for every level at once; the j = 1 part is a chain
    x_m = (phi_1 x_(m+1) + O_m) mod p^N from the top level down, whose
    level 0 is total_k, and the x_m are packed as A[k].  A slot of O
    adds at most k - 2 <= D products of residues below p^N, so a slot of
    2 bitlen(p^N) + bitlen(D + 1) bits never carries.

    Two variables.  With linear part a(X + Y), phi is symmetric:
    phi(Y, X) solves the same equation with the same linear part, and
    the solution is unique (for the group law, F(X, Y) = F(Y, X); Lubin
    and Tate, Ann. of Math. 81 (1965)); so is every G_m.  Each part is
    held in sigma1 = X + Y and sigma2 = XY: a degree-s part is
    floor(s/2) + 1 coefficients of sigma1^(s-2j) sigma2^j, packed by j,
    and two packs multiply as the parts do, since the sigma2 exponents
    add.  Slot j of a degree-s sum adds, per j1 = 1..s, the products of
    coefficient pairs of degrees j1 and s - j1 whose sigma2 exponents
    sum to j: at most min(j1, s - j1)/2 + 1 of them, s + s^2/8 <
    (D + 4)^2 / 8 over all j1.  So a slot of 2 bitlen(p^N) +
    2 bitlen(D + 4) - 3 bits never carries.  The levels are summed one
    at a time: packing them per anti-diagonal, as in one variable, was
    measured 3-5% slower on the group law.  R_k, its unit check and the
    division by p are taken in the basis X^f Y^(k-f), for f <= k/2 only,
    the other half being the mirror: the division sets phi_k's top digit
    from the representative of R_k in [0, p^N), so the same division in
    sigma coordinates would give other digits.  Row f of the change of
    basis (``_sigma_rows``) is C(k-2j, f-j), j = 0..f, the coefficient of
    X^f Y^(k-f) in sigma1^(k-2j) sigma2^j; it is unit-triangular.  So
    per f, one row takes total_k's coefficient of X^f Y^(k-f) from its
    sigma slots, and after the division gives phi_k's sigma coefficient
    f by forward substitution.  The binomials are Pascal's triangle
    through row D (``_pascal``), built once per solve.

    The right-hand side is linear in phi: when phi_j is fixed, its
    monomials times the powers of src.d are added into per-degree
    buckets.  phi_k enters degree k only as (pi - pi^k) phi_k, which is
    what the divisor accounts for.  Those powers are src's own table
    (``LTSeed.d_powers``), dense lists.  In two variables the bucket of
    X^f, for f <= D/2 only, is one integer packed over the exponent g of
    Y, as src.d^a is packed, and a monomial c X^i Y^(j-i) adds
    (c [src.d^i]_f mod p^N) times src.d^(j-i) packed to it, for each f.
    The slot of X^f Y^g, read at degree f + g <= D, adds one product of
    two residues per (j, i) with i <= f and j - i <= g: at most
    (f + 1)(g + 1) <= (D + 2)^2 / 4, within 2 bitlen(p^N) +
    2 bitlen(D + 2) - 2 bits.  Slots of degree above D are never read;
    their carries run only into slots of higher g, which are not read
    either.
    """
    if src.R is not dst.R:
        raise ValidationError("seeds disagree on (p, N)")
    if src.trunc != dst.trunc:
        raise ValidationError("seeds disagree on truncation")
    if src.pi_val != dst.pi_val:
        raise ValidationError("seeds have different uniformizers")
    two = n == 2
    p, mod = src.p, src.R.mod
    D = src.trunc
    d = [0] * (D + 1)
    for (m,), c in dst.d.coeffs.items():
        if 2 <= m <= D:
            d[m] = c
    M = max((m for m in range(2, D + 1) if d[m]), default=1)
    widths = _slot_widths(mod, D)
    slot = widths[1] if two else widths[0]
    mask = (1 << slot) - 1
    shifts = [slot * i for i in range(D + 1)]

    def exponent(j, i):
        # of coefficient i of a degree-j part
        return (i, j - i) if two else (j,)

    # phi[j] is the part of degree j as a dense list over the exponent of
    # X (one coefficient in one variable), P[j] the same part packed in
    # sigma coordinates (in one variable, its one coefficient)
    phi = [None] * (D + 1)
    phi[1] = [a] * n
    P = [0] * (D + 1)
    P[1] = a
    inv = src.divisor_inverses()
    sp = src.d_powers()  # sp[a] = src.d^a through degree D, dense
    # rhs[f]: the right-hand side's term of degree f, or in two variables
    # its terms X^f Y^g packed over g, as sy[a] packs src.d^a
    rhs = [0] * (D + 1)
    if two:
        # G[m][s] = [G_m]_s packed, G[m][0] = d_m (G[1][0] is never read)
        G = [None] + [[d[m]] + [0] * D for m in range(1, M + 1)]
        xslot = widths[2]
        xmask = (1 << xslot) - 1
        xshifts = [xslot * i for i in range(D + 1)]
        sy = []
        for row in sp:
            x = 0
            for c in reversed(row):
                x = x << xslot | c
            sy.append(x)
        B, W = _pascal(D), D // 2 + 1
    else:
        A = [0] * (D + 1)  # A[t]: the anti-diagonal t, packed

    def push_rhs(j):
        # add phi_j(src.d(X)) or phi_j(src.d(X), src.d(Y)) above degree j
        # to rhs; in two variables the terms of degree j, which are spent,
        # land too, and only X^f with f <= D/2
        if not two:
            c = P[j]
            if c:
                for f in range(j + 1, D + 1):
                    rhs[f] += c * sp[j][f]
            return
        for i, c in enumerate(phi[j][:D // 2 + 1]):
            if c:
                xs, ys = sp[i], sy[j - i]
                for f in range(i, min(D - j + i, D // 2) + 1):
                    cx = c * xs[f] % mod
                    if cx:
                        rhs[f] += cx * ys

    eff = src.N
    for k in range(2, D + 1):
        push_rhs(k - 1)
        u = inv[k]
        if u is None:
            raise InvariantError("correction divisor lost valuation 1")
        if two:
            for m in range(min(k, M) - 1, 0, -1):
                s = k - m
                acc = sum(map(mul, P[1:s + 1], G[m + 1][s - 1::-1]))
                x = 0  # acc with each slot reduced, repacked from the top
                for sh in shifts[s // 2::-1]:
                    x = x << slot | (acc >> sh & mask) % mod
                G[m][s] = x
            total = sum(map(mul, P[1:k], G[1][k - 1:0:-1]))
            ts = [total >> sh & mask for sh in shifts[:k // 2 + 1]]
            # for f <= k/2: R_k's coefficient of X^f Y^(k-f), checked and
            # divided, then phi_k's coefficient of sigma1^(k-2f) sigma2^f
            part, sigma, x = [], [], 0
            for f, row in enumerate(_sigma_rows(B, W, k)):
                c = (sum(map(mul, ts, row))
                     - (rhs[f] >> xshifts[k - f] & xmask)) % mod
                if c % p:
                    raise _unit_obstruction(k)
                c = c // p * u % mod
                part.append(c)
                c = (c - sum(map(mul, sigma, row))) % mod
                sigma.append(c)
                x |= c << shifts[f]
            phi[k] = part + part[(k - 1) // 2::-1]
            P[k] = x
        else:
            O = sum(map(mul, P[2:k], A[k - 1:1:-1]))
            # x runs down the levels m = min(k, M), ..., 1 and is packed
            # below the levels above it; the top one is d_k at k <= M,
            # else [G_M]_(k-M) = 0, and d_k = 0 there too
            x = ak = d[k]
            for sh in shifts[min(k, M) - 1:0:-1]:  # sh = shifts[m]
                x = (a * x + (O >> sh & mask)) % mod
                ak = ak << slot | x
            A[k] = ak
            c = (a * x + (O & mask) - rhs[k]) % mod  # R_k
            if c % p:
                raise _unit_obstruction(k)
            P[k] = c // p * u % mod
            phi[k] = [P[k]]
        eff -= 1
        if eff <= 0:
            raise PrecisionError("effective precision exhausted")
    return TruncSeries._reduced(src.R, n, D, {
        exponent(j, i): c
        for j in range(1, D + 1) for i, c in enumerate(phi[j]) if c
    }, eff)


def solve_intertwine(a: PadicInt, src: LTSeed, dst: LTSeed) -> TruncSeries:
    """The unique series phi = a*t + higher with dst.d(phi(t)) =
    phi(src.d(t)); a is an int or a residue of the seeds' ring.  An a
    that is 0 mod p^N is solved too: phi = 0 to N - (D - 1) digits."""
    return _lt_solve(src.R.lift(a), 1, src, dst)


def group_law(seed: LTSeed) -> FormalGroupLaw:
    """The unique F(X, Y) = X + Y + higher with F(d(X), d(Y)) = d(F(X, Y))."""
    return FormalGroupLaw(_lt_solve(1, 2, seed, seed))


def endo(seed: LTSeed, a: PadicInt) -> TruncSeries:
    """The endomorphism [a](t) = a*t + higher commuting with the seed; a
    is an int or a residue of the seed's ring."""
    return solve_intertwine(a, seed, seed)


def strict_iso(src: LTSeed, dst: LTSeed) -> TruncSeries:
    """The strict isomorphism phi(t) = t + higher between the group laws
    of two seeds sharing a uniformizer.  Its compositional inverse is
    ``padic.compositional_inverse(phi)``."""
    return solve_intertwine(1, src, dst)

