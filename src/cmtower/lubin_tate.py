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
[a] or a strict isomorphism) as the one-variable series phi, which
``check_hom`` certifies against two laws.

A seed owns the table of powers 1, d, d^2, ..., d^(D-1) that the
recursion reads, dense coefficient lists from ``padic.power_table``: the
first solve from the seed builds it, and the group law, every [a] and
every strict isomorphism out of that seed share it.
"""

from __future__ import annotations

from .errors import InvariantError, PrecisionError, ValidationError
from .padic import InRing, PadicInt, PadicPoly, TruncSeries, Zp, power_table


class LTSeed(InRing):
    """A Lubin-Tate seed: a one-variable series d over its ring, with the
    uniformizer pi_val read from d's linear coefficient."""

    __slots__ = ("pi_val", "d", "_d_powers")
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


def check_hom(phi: TruncSeries, F: TruncSeries, G: TruncSeries):
    """Raise ``InvariantError`` unless the one-variable series phi is a
    homomorphism from the law F to the law G: phi(F(X, Y)) = G(phi X,
    phi Y) through the truncation degree."""
    x, y = (TruncSeries.variable(phi.p, phi.N, 2, phi.trunc, i)
            for i in (0, 1))
    rhs = G.compose([phi.compose([x]), phi.compose([y])])
    if not phi.compose([F]).congruent(rhs):
        raise InvariantError("series does not intertwine the group laws")


# ---------------------------------------------------------------------------
# The fundamental recursion
# ---------------------------------------------------------------------------

def _lt_solve(linear: TruncSeries, src: LTSeed, dst: LTSeed) -> TruncSeries:
    """The unique phi = linear + higher with dst.d(phi) = phi(src.d per
    variable), solved degree by degree; ``linear`` is homogeneous of
    degree 1 in one or two variables.

    Degree k corrects by R_k / (pi^k - pi); the divisor has valuation
    exactly 1 and the obstruction must be divisible by pi, else the
    seeds fail the defining congruences.

    The solver is online (van der Hoeven, "Relax, but don't be too
    lazy", JSC 34 (2002)).  With phi_j the homogeneous parts of phi and
    d_m the coefficients of dst.d, R_k is

        sum_{m=2}^{k} d_m (phi^m)_k  -  [phi_{<k}(src.d(X_1), ...)]_k.

    Each (phi^m)_k = sum_j phi_j (phi^{m-1})_{k-j} uses parts of degree
    below k only and is formed once, at step k.  A degree-k part is
    dense: k + 1 coefficients indexed by the exponent of X in two
    variables, one coefficient in one.  Each part is packed once, when
    it is formed, into one integer with one slot of
    2 bitlen(p^N) + 2 bitlen(D + 1) + 1 bits per coefficient (Kronecker
    substitution; Schoenhage, EUROCAM 1982): the product of two packed
    parts is then the packed product of the parts, and the sum over j is
    a sum of integer products.  A slot of that sum adds fewer than
    (D + 1)^2 products of residues below p^N, so it never carries into
    the next one.  The sum is unpacked and reduced mod p^N once per
    (m, k); sum_m d_m (phi^m)_k is likewise added up packed and unpacked
    once per k.

    The right-hand side is linear in phi: when phi_j is fixed, its
    monomials times the powers of src.d are added into per-degree dense
    buckets.  phi_k enters degree k only as (pi - pi^k) phi_k, which is
    what the divisor accounts for.  Those powers are src's own table
    (``LTSeed.d_powers``), dense lists read as they are: the first solve
    from src builds it, every later one reads it.
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
    p, N, mod = src.p, src.N, src.R.mod
    D = linear.trunc
    pi = src.pi_val.value
    two = n == 2
    d = {k: c for (k,), c in dst.d.coeffs.items() if 2 <= k <= D}
    M = max(d, default=1)
    # A slot of a packed sum below adds fewer than (D + 1)^2 products of
    # residues below p^N: fewer than D terms j, each with at most D + 1
    # pairs of exponents.  So it stays below 2^(slot - 1) and never
    # carries into the next slot; sum_m d_m (phi^m)_k is smaller still.
    slot = 2 * mod.bit_length() + 2 * (D + 1).bit_length() + 1
    mask = (1 << slot) - 1

    def pack(part):
        x = 0
        for c in reversed(part):
            x = x << slot | c
        return x

    def unpack(x, k):
        return [x >> (slot * i) & mask for i in range(k + 1 if two else 1)]

    def exponent(j, i):
        # of coefficient i of a degree-j part
        return (i, j - i) if two else (j,)

    # phi[j] is the dense part of degree j; pw[m][k] = (phi^m)_k packed
    phi = [None] * (D + 1)
    pw = [None] + [[0] * (D + 1) for _ in range(M)]
    packed_phi = pw[1]
    phi[1] = [linear.coeffs.get(exponent(1, i), 0) for i in range(n)]
    packed_phi[1] = pack(phi[1])
    sp = src.d_powers()  # sp[a] = src.d^a through degree D, dense
    rhs = [[0] * (k + 1 if two else 1) for k in range(D + 1)]

    def push_rhs(j):
        # add phi_j(src.d(X)) or phi_j(src.d(X), src.d(Y)) above degree j
        # to rhs; in two variables the term of degree j lands in rhs[j],
        # which is spent
        for i, c in enumerate(phi[j]):
            if not c:
                continue
            if not two:
                for f in range(j + 1, D + 1):
                    rhs[f][0] += c * sp[j][f]
                continue
            ys = sp[j - i]
            for f in range(i, D + 1 - (j - i)):
                cx = c * sp[i][f]
                if cx:
                    for g in range(j - i, D + 1 - f):
                        rhs[f + g][f] += cx * ys[g]

    eff = linear.eff_prec
    for k in range(2, D + 1):
        push_rhs(k - 1)
        total = 0
        for m in range(2, min(k, M) + 1):
            lower = pw[m - 1]
            acc = 0
            for j in range(1, k - m + 2):
                acc += packed_phi[j] * lower[k - j]
            part = pack([c % mod for c in unpack(acc, k)])
            pw[m][k] = part
            dm = d.get(m)
            if dm:
                total += dm * part
        divisor = (pow(pi, k, mod) - pi) % mod
        if src.R.val(divisor) != 1:
            raise InvariantError("correction divisor lost valuation 1")
        inv = pow(divisor // p, -1, mod)
        part = []
        for c, r in zip(unpack(total, k), rhs[k]):
            c = (c - r) % mod
            if c % p:
                raise InvariantError(
                    f"obstruction at degree {k} is a unit: input is not a "
                    "valid Lubin-Tate seed pair"
                )
            part.append((c // p) * inv % mod)
        phi[k] = part
        packed_phi[k] = pack(part)
        eff -= 1
        if eff <= 0:
            raise PrecisionError("effective precision exhausted")
    return TruncSeries(p, N, n, D, {
        exponent(j, i): c
        for j in range(1, D + 1) for i, c in enumerate(phi[j])
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

