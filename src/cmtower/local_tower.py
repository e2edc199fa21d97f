"""Division towers of a polynomial Lubin-Tate seed.

Level n adjoins the n-th torsion of the seed: it is the totally ramified
extension of Z_p cut out by h_n = [pi^n](t) / [pi^(n-1)](t), an
Eisenstein polynomial of degree p^(n-1)(p-1) certified by Eisenstein's
criterion.  All is read off the seed polynomial d: h_1 = d/t, h_n =
h_(n-1)(d) (one composition, no division), and the pi-action is d.
Elements are written in the power basis of lambda_n; the candidate
valuations i + d_n*ord_p(a_i) are pairwise distinct, so valuations of
sums are exact, never estimates.

On top of the tower sit the division operations: dividing a non-torsion
value t0 through the levels (split below the depth invariant e, ramified
at e), and the conductor of the ramified step, read off valuation
weights and one head valuation per Galois displacement.

One ring class, ``TowerRing``, is a tower level, with its one product
``mul`` and its one valuation ``val``; ``LocalElement`` is the one
element class.  The two certified invariants of the ramified step form
no compositum: the discriminant's resultant is (p d_p)^p chi_S(lambda_1)
mod h_1, d_p the seed's t^p coefficient and chi_S the characteristic
polynomial of a (p - 1)-square matrix S of scalars, and the conductor
values the head -a*lambda of each displacement with weights read off
the two Eisenstein certificates (h_1 and d - q), against a tail bound on
the terms it drops, with no Lubin-Tate solve.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import InvariantError, PrecisionError, ValidationError
# endo, group_law and ring_det are unused here; perfbench/spans.py
# patches these bindings
from .lubin_tate import LTSeed, endo, group_law
from .padic import (InRing, PadicInt, PadicPoly, char_poly, hensel_root,
                    mul_coeffs, newton_polygon, rem_coeffs, ring_det)


class TowerRing:
    """A tower level Z/p^N[lambda]/(h(lambda)) over the ring ``R`` of
    (p, N); level 0, modulus X, is Z/p^N.  h is Eisenstein of degree e
    and need not be monic.

    An element is one list of e residues, lambda^i at i.  ``mul`` is the
    product of two lists, divided by h with the inverse of its leading
    coefficient.  ord(lambda) = 1 and ord(p) = e: the candidates
    i + e*ord_p(c) are pairwise distinct and, for reduced residues, below
    ord(p^N) = e*N, so ``val`` is exact and None only for zero.
    """

    __slots__ = ("R", "h", "hinv", "size")

    def __init__(self, R, h):
        """``h`` is a raw coefficient list, reduced mod p^N."""
        self.R, self.h, self.size = R, h, len(h) - 1
        self.hinv = pow(h[-1], -1, R.mod)

    def mul(self, x, y):
        """The product of two raw elements, as a raw element."""
        c = mul_coeffs(x, y)
        rem_coeffs(c, self.h, self.hinv, self.R.mod)
        return c[:self.size]

    def val(self, x):
        """Exact valuation of a raw element; None for zero."""
        val, e = self.R.val, self.size
        return min((i + e * val(c) for i, c in enumerate(x) if c),
                   default=None)

    def zero(self):
        return LocalElement._reduced(self, [0] * self.size)

    def lam(self):
        x = self.zero()
        x.coeffs[1] = 1
        return x


class EisensteinTower(InRing):
    """The tower of torsion fields of a polynomial seed, over the seed's
    ring ``R``; the seed polynomial d is formed once, as ``d``."""

    __slots__ = ("seed", "R", "d", "max_degree", "levels", "rings", "disc")

    def __init__(self, seed: LTSeed, max_degree: int = 60):
        if not seed.is_polynomial:
            raise ValidationError("tower construction needs a polynomial seed")
        self.seed = seed
        self.R = seed.R
        self.d = seed.to_poly()
        self.max_degree = max_degree
        # levels[n] = h_(n+1); rings[n] the level-n ring, level 0 being
        # Z/p^N (modulus X)
        self.levels = []
        self.rings = [TowerRing(self.R, [0, 1])]
        # level_disc, once both routes have agreed
        self.disc = None

    def degree(self, n: int) -> int:
        """Degree of level n over the base: p^(n-1)(p-1); level 0 is the
        base itself."""
        if n == 0:
            return 1
        return self.p ** (n - 1) * (self.p - 1)

    def build(self, n: int) -> None:
        """Build and certify levels up to n.  d = t h_1(t), and
        [pi^k] = [pi^(k-1)](d), so the quotient h_k = [pi^k]/[pi^(k-1)]
        is h_(k-1)(d) exactly (Lubin and Tate, Ann. of Math. 81, 1965):
        h_1 is read off d and each later level is one composition.
        Nothing is divided.  Each level is certified by Eisenstein's
        criterion (``_eisenstein_defect``), which for degree d_k accepts
        exactly the polynomials whose Newton polygon is the one segment
        of slope 1/d_k from (0, 1)."""
        while len(self.levels) < n:
            k = len(self.levels) + 1
            dk = self.degree(k)
            if dk > self.max_degree:
                raise ValidationError(
                    f"level {k} has degree {dk} > budget {self.max_degree}"
                )
            q = (self.levels[-1].compose_poly(self.d) if self.levels
                 else PadicPoly(self.p, self.N, self.d.coeffs[1:]))
            if q.degree != dk:
                raise InvariantError(
                    f"torsion polynomial at level {k} has degree {q.degree}, "
                    f"expected {dk}"
                )
            defect = _eisenstein_defect(q.coeffs, self.p)
            if defect is not None:
                raise InvariantError(
                    f"level {k} polynomial is not Eisenstein: {defect}")
            self.levels.append(q)
            self.rings.append(TowerRing(self.R, q.coeffs))

    def h(self, n: int) -> PadicPoly:
        """h_n = [pi^n](t)/[pi^(n-1)](t), the defining polynomial of
        level n."""
        if n < 1:
            raise ValidationError("torsion polynomials exist from level 1 up")
        self.build(n)
        return self.levels[n - 1]

    def ring(self, n: int) -> TowerRing:
        """The ring of level n, Z/p^N[lambda_n]/(h_n); level 0 is Z/p^N."""
        if n < 0:
            raise ValidationError("levels start at 0")
        self.build(n)
        return self.rings[n]

    def element(self, n: int, coeffs) -> "LocalElement":
        return LocalElement(self.ring(n), coeffs)

    def lam(self, n: int) -> "LocalElement":
        """The canonical uniformizer of level n (the torsion value whose
        minimal polynomial is h_n)."""
        if n < 1:
            raise ValidationError("lambda exists from level 1 up")
        return self.ring(n).lam()


def _eisenstein_defect(coeffs, p):
    """What breaks Eisenstein's criterion for a coefficient list reduced
    mod p^N, lowest degree first, or None when it holds: p does not
    divide the lead, p divides every coefficient below it, and p^2 does
    not divide the constant term (a zero residue, capped, counts as
    divisible)."""
    *low, lead = coeffs
    if lead % p == 0:
        return f"p divides the lead coefficient {lead}"
    for i, c in enumerate(low):
        if c % p:
            return f"p does not divide the t^{i} coefficient {c}"
    if low[0] % (p * p) == 0:
        return f"p^2 divides the constant term {low[0]}"
    return None


class LocalElement:
    """An element of a tower level: its list of residues.

    At level n that is sum a_i lambda_n^i with a_i in Z_p, and valuations
    are in lambda_n units: ord(lambda_n) = 1, ord(p) = d_n.  The one
    operation is the product of two elements of the same level; a scalar,
    or an element of another level, is refused.  The library's own
    products (the pi-action) run on raw lists through ``TowerRing.mul``.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: TowerRing, coeffs):
        """The first coefficients (ints or residues of ``ring.R``)."""
        raw = [ring.R.lift(c) for c in coeffs]
        if len(raw) > ring.size:
            raise ValidationError(f"more than {ring.size} coefficients")
        self.ring = ring
        self.coeffs = raw + [0] * (ring.size - len(raw))

    @classmethod
    def _reduced(cls, ring, coeffs):
        """An element from all ``ring.size`` coefficients, reduced."""
        x = object.__new__(cls)
        x.ring, x.coeffs = ring, coeffs
        return x

    def __mul__(self, other):
        if not isinstance(other, LocalElement):
            raise ValidationError(
                "a tower element has no scalar product: it multiplies only "
                f"a tower element, not {type(other).__name__}")
        ring = self.ring
        if other.ring is not ring:
            raise ValidationError("elements of different tower rings")
        return LocalElement._reduced(ring, ring.mul(self.coeffs,
                                                    other.coeffs))

    __rmul__ = __mul__

    def valuation(self):
        """Exact valuation in the level's uniformizer units; None for
        zero."""
        return self.ring.val(self.coeffs)

    def __repr__(self):
        return f"LocalElement(coeffs={self.coeffs})"


def filtration_step(tower: EisensteinTower, x: LocalElement):
    """Apply the pi-action to a point in the kernel of reduction, an
    element of some level (a base point is one of level 0): d(x), by
    Horner's rule on x's list with the level's one product.  Its
    valuation increases by exactly one base unit."""
    ring = x.ring
    e = ring.size  # ord(p) in the level's units
    v = x.valuation()
    if v is not None and v < e:
        raise ValidationError(
            "filtration step needs a point in the kernel of reduction "
            f"(valuation >= 1 in base units, got {Fraction(v, e)})"
        )
    if ring.R is not tower.R:
        raise ValidationError("point and tower disagree on (p, N)")
    mod, d = tower.R.mod, tower.d.coeffs
    acc = [d[-1]] + [0] * (e - 1)
    for c in reversed(d[:-1]):
        acc = ring.mul(acc, x.coeffs)
        acc[0] = (acc[0] + c) % mod
    return LocalElement._reduced(ring, acc)


def e_invariant(t0: PadicInt) -> int:
    """Depth of t0 in the valuation filtration: its base valuation.
    This is the first level at which dividing t0 ramifies."""
    v = t0.valuation()
    if v is None:
        raise ValidationError(
            "the zero value has no depth invariant (torsion input)"
        )
    if v == 0:
        raise ValidationError(
            "point is not in the kernel of reduction (unit coordinate)"
        )
    return v


# ---------------------------------------------------------------------------
# discriminant of level 2 over level 1
# ---------------------------------------------------------------------------

def _disc_direct(tower: EisensteinTower) -> int:
    """Valuation of d'(lambda_2) at level 2; equals the level-1 valuation
    of its norm down to level 1, which is the different of the step.
    d' has degree p - 1, below deg h_2 = p(p - 1), so d'(lambda_2) is the
    level-2 element whose coefficients are those of d'."""
    tower.build(2)
    dp = tower.d.derivative()
    val = tower.ring(2).val(dp.coeffs)
    if val is None:
        raise PrecisionError(
            "derivative at the level-2 uniformizer vanished at working "
            "precision; raise N"
        )
    return val


def _resultant_element(tower: EisensteinTower) -> list:
    """Res(m, d') over the level-1 ring, as a raw level-1 element, for
    m(t) = d(t) - lambda_1 and d' of formal degree p - 1: the element of
    the (2p - 1)-square Sylvester determinant, as
    (p u)^p chi_S(lambda_1) mod h_1 for a (p - 1)-square scalar matrix S.

    A validated seed has d = u t^p mod p (Lubin and Tate, Ann. of Math.
    81 (1965)): pi has valuation 1 and p divides d_k for 2 <= k < p, so
    every residue of d' is p times an integer, d' = p e over Z, and e has
    degree p - 1 and the unit lead u = d_p (mod p^(N-1)).  Res(m, d') =
    Res(d', m), since p(p - 1) is even, and homogeneity in d' gives
    p^p Res(e, m) = (p u)^p det M, M the (p - 1)-square matrix of
    multiplication by m on R_1[t]/(e) (Cohen, GTM 138, section 3.3: the
    resultant as a norm).

    m mod e is r - lambda_1, r = d mod e a list of scalars, so
    M = S - lambda_1 I, S the matrix of multiplication by r on
    Z/p^N[t]/(e), and det M = chi_S(lambda_1) since p - 1 is even,
    chi_S(x) = det(x - S) (Berkowitz, Inf. Process. Lett. 18 (1984)).
    ``char_poly`` gives chi_S, monic of degree p - 1 = deg h_1, and one
    division by h_1 evaluates it at lambda_1.  This is a polynomial
    identity over Z[coefficients, 1/u], and the recursion is
    division-free, so the result is the Sylvester determinant's ring
    element mod p^N.  The residues of d' fix e only mod p^(N-1); the
    factor p^p makes up that digit, and at N <= p it is 0 mod p^N, as
    the resultant then is.

    t^k is reduced for k < p - 1, so column k of S is t^k r mod e.  The
    columns come by shift and reduce on scalars: t times a column is the
    column shifted up plus its top entry times -e_i/u in row i.  No
    level-1 element enters a product or a determinant."""
    ring = tower.ring(1)  # certifies the seed first
    mod, p, d = tower.R.mod, tower.p, tower.d.coeffs
    e = [c // p for c in tower.d.derivative().coeffs]
    u = e[-1]
    uinv = pow(u, -1, mod)
    r = list(d)
    rem_coeffs(r, e, uinv, mod)
    neg = [-c * uinv % mod for c in e[:-1]]
    cols = [r[:p - 1]]
    for _ in range(p - 2):
        col = cols[-1]
        top = col[-1]
        cols.append([top * neg[0] % mod] + [(x + top * s) % mod
                                            for x, s in zip(col, neg[1:])])
    # S^T has the characteristic polynomial of S: the columns go in as
    # rows
    chi = char_poly(cols, mod)
    rem_coeffs(chi, ring.h, ring.hinv, mod)
    scale = pow(p * u, p, mod)
    return [scale * x % mod for x in chi[:p - 1]]


def _disc_resultant(tower: EisensteinTower) -> int:
    """Same valuation, read off Res(d - lambda_1, d') over level 1
    (``_resultant_element``).  At N <= p its factor p^p is 0 mod p^N,
    so the resultant vanishes and the message names N = p + 1, a
    necessary bound: the valuation p(p - 1) is below the level-1 cap
    (p - 1)N exactly from there."""
    val = tower.ring(1).val(_resultant_element(tower))
    if val is None:
        p = tower.p
        need = (f"raise --precision to at least {p + 1}" if tower.N <= p
                else "raise N")
        raise PrecisionError(
            "resultant of the level-2 minimal polynomial vanished at "
            f"working precision; {need}"
        )
    return val


def level_disc(tower: EisensteinTower) -> int:
    """Discriminant valuation of level 2 over level 1, in level-1
    uniformizer units.  Computed two independent ways (direct valuation
    at level 2, and the resultant of d - lambda_1 and d' over level 1 as
    (p d_p)^p chi_S(lambda_1) mod h_1, chi_S the characteristic
    polynomial of multiplication by d on Z/p^N[t]/(d'/p)) and
    cross-checked; p(p-1) for a valid tower, and a PrecisionError (exit
    3) exactly for N <= p.  The resultant is the Sylvester determinant's
    ring element, so the reports still name the "Sylvester resultant".
    The certified value is kept on the tower, so later calls return it
    without rerunning either route."""
    if tower.disc is None:
        direct = _disc_direct(tower)
        resultant = _disc_resultant(tower)
        if direct != resultant:
            raise InvariantError(
                f"discriminant routes disagree: direct {direct}, "
                f"resultant {resultant}"
            )
        tower.disc = direct
    return tower.disc


def character_conductor_floor(tower: EisensteinTower) -> int:
    """Conductor exponent of the nontrivial characters of the degree-p
    step from level 1 to level 2, via the conductor-discriminant
    identity disc = floor*(p-1)."""
    disc = level_disc(tower)
    p = tower.p
    if disc % (p - 1) != 0:
        raise InvariantError(
            f"discriminant {disc} is not a multiple of p-1 = {p - 1}"
        )
    return disc // (p - 1)


# ---------------------------------------------------------------------------
# dividing a point through the tower
# ---------------------------------------------------------------------------

class DivisionState(namedtuple(
        "DivisionState", "t0 e level history ramified_at certificate",
        defaults=((), None, None))):
    """Progress of dividing the point with coordinate t0 through the
    tower.  ``history[k]`` is the certified level-(k+1) division value
    (all of them live in the base field while division splits);
    ``ramified_at`` is set once the Eisenstein certificate is produced
    and no further division is possible here."""

    __slots__ = ()

    @classmethod
    def start(cls, t0: PadicInt) -> "DivisionState":
        return cls(t0=t0, e=e_invariant(t0), level=0)

    def last(self) -> PadicInt:
        return self.history[-1] if self.history else self.t0


def divide_point(tower: EisensteinTower, state: DivisionState,
                 to_level: int) -> DivisionState:
    """Divide the point up to the requested level, solving d(t) = q for
    the previous division value q.  Below the depth invariant e every step
    has a certified base-field root (Hensel, ord q >= 2); at level e the
    step polynomial d - q is certified Eisenstein of degree p (a single
    slope 1/p, totally ramified) and the state freezes there."""
    if state.ramified_at is not None:
        raise ValidationError(
            f"division already ramified at level {state.ramified_at}"
        )
    d = tower.d
    cur = state
    while cur.level < to_level:
        n = cur.level + 1
        q = cur.last()
        g = d + PadicPoly(d.p, d.N, [-tower.R.lift(q)])
        vq = q.valuation()
        if vq is None or vq < 1:
            raise ValidationError(
                "division value must have positive valuation")
        if vq >= 2:
            root = hensel_root(g, q.divide_exact(tower.seed.pi_val))
            if n >= cur.e:
                raise InvariantError(
                    f"split certificate at level {n} but depth invariant "
                    f"is {cur.e}"
                )
            cur = DivisionState(t0=cur.t0, e=cur.e, level=n,
                                history=cur.history + (root,))
            continue
        poly = newton_polygon(g)
        if (poly.lowest_power != 0
                or poly.single_slope() != Fraction(1, tower.p)):
            raise PrecisionError(
                f"division step inconclusive: polygon {poly.segments} is "
                "neither a certified split nor a single slope 1/p"
            )
        if n != cur.e:
            raise InvariantError(
                f"ramification certificate at level {n} but depth "
                f"invariant is {cur.e}"
            )
        cur = DivisionState(t0=cur.t0, e=cur.e, level=n,
                            history=cur.history, ramified_at=n,
                            certificate=poly)
        break
    return cur


# ---------------------------------------------------------------------------
# conductor of the ramified division step
# ---------------------------------------------------------------------------

class ConductorReport(namedtuple(
        "ConductorReport", "p e deltas break_value disc_exponent "
        "conductor_exponent provenance", defaults=((),))):
    """Everything the ramified division step yields: the per-translate
    jump sizes, the ramification break, discriminant and conductor
    exponents, and the provenance of each number."""

    __slots__ = ()

    def to_json(self):
        return {
            "p": self.p,
            "e": self.e,
            "deltas": {str(k): v for k, v in sorted(self.deltas.items())},
            "break": self.break_value,
            "disc_exponent": self.disc_exponent,
            "conductor_exponent": self.conductor_exponent,
            # no report computes per-prime exponents; the empty key
            # keeps the report bytes and digests unchanged
            "prime_exponents": {},
            "provenance": list(self.provenance),
        }


def _head_valuation(v, cap: int, tail: int) -> int:
    """The valuation of an element that is a head of valuation ``v``
    (None when the head's coefficient is capped) plus terms of valuation
    >= ``tail``: v, certified when it is below both ``cap`` and ``tail``,
    for then no dropped term can reach it."""
    if v is None or v >= cap:
        raise PrecisionError(
            "head of the element vanished at working precision; raise N")
    if v >= tail:
        raise PrecisionError(
            f"head valuation {v} is not below the tail bound {tail}: the "
            "dropped terms could cancel it")
    return v


def division_conductor(tower: EisensteinTower,
                       state: DivisionState) -> ConductorReport:
    """Conductor of the ramified division step: valuation weights from
    the two Eisenstein certificates, then for each translate a head
    valuation certified below a tail bound.

    For each nonzero torsion translate v, the Galois displacement of the
    division value theta, a root of d - q, is theta - F(theta, t(v)), and
    its jump is Delta(v) = p + ord(theta - F(theta, t(v))) - 2(p-1), the
    valuation being that of Z_p[lambda, theta], lambda = lambda_1, whose
    uniformizer is eta = lambda/theta.  Only the valuation is computed:
    no displacement, and no element of that ring, is formed.

    The compositum's valuation weights come from the two Eisenstein
    certificates, whose degrees a = deg h_1 and b = deg(d - q) are
    coprime: it is totally ramified of degree e = ab over Z_p, with
    ord(theta) = a, ord(lambda) = b and ord(p) = e.  a is the degree of
    h_1, which ``build`` certified; b is the length of the one segment of
    the division step's polygon (``state.certificate``).

    The valuation is read off a certified head.  F(X, 0) = X,
    F(0, Y) = Y and [a](t) = a t + higher, so for t_a = [a](lambda)
    the displacement is the head -a lambda minus the cross terms of F at
    (theta, t_a) and the terms of [a] past degree 1: all of total degree
    >= K + 1 in theta and lambda, K = 1, so of valuation
    >= (K + 1) min(ord theta, ord lambda) = 2(p - 1), the tail bound.
    The head has valuation ord(lambda) + e ord_p(a) = p < 2p - 2 for
    every odd p, so K = 1 certifies and no group law or endomorphism is
    solved, nor any compositum element formed (Lubin and Tate, Ann. of
    Math. 81 (1965); Serre, Local Fields, ch. IV).

    All jumps must equal 2 (single break at 1); the discriminant exponent
    is their sum 2(p-1) and the conductor exponent is 2, confirmed
    against the conductor-discriminant identity.
    """
    if state.ramified_at is None:
        raise ValidationError("conductor needs a ramified division state")
    p, R = tower.p, tower.R
    q = state.last()
    if q.R is not R:
        raise ValidationError("division state and tower disagree on (p, N)")
    ord_theta = tower.h(1).degree
    segments = state.certificate.segments
    ord_lam = segments[0][1] if len(segments) == 1 else None
    if ord_theta != p - 1 or ord_lam != p:
        raise InvariantError("compositum generators lost their valuations")
    e = ord_lam * ord_theta
    tail = 2 * min(ord_lam, ord_theta)  # (K + 1) min, K = 1
    deltas = {}
    prov = [
        f"jumps: theta displacement under torsion translation, seed degree "
        f"{tower.seed.p}, division value of valuation {q.valuation()}",
    ]
    for a in range(1, p):
        c = R.val(-a % R.mod)  # the head -a lambda
        v = _head_valuation(None if c is None else ord_lam + e * c,
                            e * R.N, tail)
        if v != p:
            raise InvariantError(
                f"torsion value [{a}] does not have valuation {p}"
            )
        delta = p + v - 2 * (p - 1)
        if delta != 2:
            raise InvariantError(
                f"jump for translate [{a}] is {delta}, not 2: the run's "
                "hypotheses are falsified"
            )
        deltas[a] = delta
    disc = sum(deltas.values())
    if disc != 2 * (p - 1):
        raise InvariantError(f"discriminant exponent {disc} != 2(p-1)")
    break_value = deltas[1] - 1
    cond_break = break_value + 1
    cond_disc = disc // (p - 1)
    if cond_break != cond_disc:
        raise InvariantError(
            f"conductor routes disagree: break {cond_break}, "
            f"discriminant {cond_disc}"
        )
    prov.append("conductor: break+1 and disc/(p-1) agree")
    if state.e > 1:
        prov.append(
            f"exponent computed at the first level; equality at level "
            f"{state.e} is recorded as an assumption, not recomputed"
        )
    return ConductorReport(
        p=p, e=state.e, deltas=deltas, break_value=break_value,
        disc_exponent=disc, conductor_exponent=cond_break,
        provenance=tuple(prov),
    )
