"""Exterior-product congruence engine on unit jets.

A unit that is congruent to 1 at every ramified prime is abstracted to
its 2-jet: per prime, the mod-p coefficient of the uniformizer in its
expansion about 1 (or None when only the mod-P congruence is known).
Jets multiply by adding coefficients, so integer exponent vectors act
linearly and wedge identities become unimodular integer transformations.

The reduction engine eliminates coefficients pairwise with determinant-1
steps until the jets form a triangular ladder, then hands the first jet
to a class-field-theory oracle that upgrades its remaining coefficient
to zero.  The oracle is an explicit object (axiom or deny mode) so the
one non-computational input stays visible and countable.

The ladder runs once, on the augmented rows [J | I]: the coefficient
rows mod p next to the exponent rows over Z, which start as the
identity and go through the same steps (Cohen, GTM 138, ch. 2).  The
exponent rows are the transform: the transcript's certificate applies
it to the initial jets and checks that this second route reaches the
final jets, and that the transform has determinant +-1.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import InvariantError, ValidationError
from .padic import is_prime, ring_det


class UnitJet(namedtuple("UnitJet", "p alphas")):
    """Per-prime 2-jet coefficients of a unit about 1; None marks a
    coordinate known only to first order."""

    __slots__ = ()

    def __new__(cls, p, alphas):
        if not is_prime(p):
            raise ValidationError(f"p must be prime, got {p}")
        return super().__new__(
            cls, p, tuple(None if a is None else a % p for a in alphas))

    @property
    def s(self) -> int:
        return len(self.alphas)

    def coeff(self, i: int) -> int:
        a = self.alphas[i]
        if a is None:
            raise ValidationError(
                f"jet coefficient at prime {i} is not recorded"
            )
        return a

    def clean_at(self, i: int) -> bool:
        return self.alphas[i] == 0

    def to_json(self):
        return list(self.alphas)


class CftOracle:
    """The single non-computational input: a jet already trivial to
    second order at every prime but the first is granted (axiom mode) or
    refused (deny mode) triviality at the first as well."""

    def __init__(self, mode: str = "axiom"):
        if mode not in ("axiom", "deny"):
            raise ValidationError(f"unknown oracle mode {mode!r}")
        self.mode = mode
        self.log = []

    def invoke(self, jet: UnitJet, first: int, others):
        for i in others:
            if not jet.clean_at(i):
                raise ValidationError(
                    f"oracle precondition violated: jet not trivial to "
                    f"second order at prime {i}"
                )
        if self.mode == "deny":
            self.log.append({"mode": "deny", "jet": jet.to_json(),
                             "granted": False})
            return None
        self.log.append({"mode": "axiom", "jet": jet.to_json(),
                         "granted": True})
        alphas = list(jet.alphas)
        alphas[first] = 0
        return UnitJet(jet.p, tuple(alphas))


def _pivot(alpha: int, beta: int):
    """The step matrix ((a, b), (c, d)), ad - bc = 1, for the reduced
    coefficients alpha, beta: a alpha + b beta = 0, with a = beta/gcd and
    b = -alpha/gcd in the generic case and the degenerate cases fixed by
    convention; (c, d) from the extended gcd a d - b c = 1."""
    if alpha == 0:
        a, b = 1, 0
    elif beta == 0:
        a, b = 0, 1
    else:
        g = gcd(alpha, beta)
        a, b = beta // g, -(alpha // g)
    old_r, r = a, b
    old_f, f = 1, 0
    old_g, g = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_f, f = f, old_f - q * f
        old_g, g = g, old_g - q * g
    if old_r < 0:
        old_f, old_g = -old_f, -old_g
    return ((a, b), (-old_g, old_f))


def combine(v: UnitJet, w: UnitJet, i: int):
    """Exponents (a, b), gcd 1, with the jet of v^a w^b vanishing at
    prime i: the first row of the step matrix."""
    if v.p != w.p:
        raise ValidationError("jets have different p")
    return _pivot(v.coeff(i), w.coeff(i))[0]


def wedge_step(x, y, i: int, p: int):
    """One step of the ladder on the coefficient rows x, y: the rows of
    v^a w^b and v^c w^d mod p, with ad - bc = 1 and the first trivial to
    second order at prime i (where both rows must be recorded).  An
    entry is None where either input entry is None, as in jet products.
    Returns the two new rows and the step matrix."""
    mat = _pivot(x[i] % p, y[i] % p)
    x2, y2 = ([None if s is None or t is None else (e * s + f * t) % p
               for s, t in zip(x, y)] for e, f in mat)
    return x2, y2, mat


class WedgeTranscript:
    """Full ledger of a reduction: initial jets, the elementary steps
    (position, prime, 2x2 matrix), the transform the steps built (their
    product, acting on the exponent vectors), the oracle log, and the
    outcome.  Mutable: the reduction fills it in as it runs."""

    def __init__(self, initial, steps=None, transform=None, final=(),
                 oracle_log=None, trivial=False, blocked=False, note=""):
        self.initial = initial
        self.steps = [] if steps is None else steps
        self.transform = [] if transform is None else transform
        self.final = final
        self.oracle_log = [] if oracle_log is None else oracle_log
        self.trivial = trivial
        self.blocked = blocked
        self.note = note

    def __repr__(self):
        return "WedgeTranscript(%s)" % ", ".join(
            f"{k}={v!r}" for k, v in vars(self).items())

    def __eq__(self, other):
        if type(other) is not WedgeTranscript:
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None

    def replay(self):
        """The final jets by a second route that re-runs no step: the
        transform applied to the initial jets mod p, then the granted
        oracle upgrade."""
        p = self.initial[0].p
        cols = list(zip(*(j.alphas for j in self.initial)))
        jets = [list(sum(m * a for m, a in zip(row, col)) for col in cols)
                for row in self.transform]
        for entry in self.oracle_log:
            if entry["granted"]:
                jets[entry["position"]][entry["first"]] = 0
        return tuple(UnitJet(p, tuple(r)) for r in jets)

    def cumulative_det(self) -> int:
        return ring_det(self.transform)

    def check(self) -> None:
        """Certify the transcript: the replay reaches the final jets and
        the transform is unimodular, or InvariantError."""
        if self.replay() != self.final:
            raise InvariantError(
                "replaying the transform does not give the final jets")
        det = self.cumulative_det()
        if det not in (1, -1):
            raise InvariantError(
                f"transform has determinant {det}, not +-1")

    def to_json(self):
        return {
            "initial": [j.to_json() for j in self.initial],
            "steps": [{"position": k, "prime": i, "matrix": [list(r) for r in m]}
                      for (k, i, m) in self.steps],
            "final": [j.to_json() for j in self.final],
            "oracle": self.oracle_log,
            "trivial": self.trivial,
            "blocked": self.blocked,
            "note": self.note,
        }


def reduce_wedge(jets, oracle: CftOracle) -> WedgeTranscript:
    """Triangular elimination on s jets over s primes, then one oracle
    call on the leading jet.

    Pass for prime i = 2..s clears positions 1..s-i+1 in turn; earlier
    primes stay clear because both operands of each step are already
    clear there.  The final ladder has jet k trivial to second order at
    primes 2..s-k+1; the oracle upgrades jet 1 at prime 1, which is the
    triviality statement for the whole exterior product.
    """
    return extend_to_g(jets, len(jets), oracle)


def extend_to_g(jets, s: int, oracle: CftOracle) -> WedgeTranscript:
    """g jets over g primes with only the first s participating in the
    final reduction: first clear the coefficients at primes s+1..g from
    the leading jets, which leaves the leading s jets trivial to second
    order past prime s, then run the s-prime ladder on them and make one
    oracle call; one transcript.  ``reduce_wedge`` is the case s = g."""
    jets = tuple(jets)
    g = len(jets)
    if g == 0:
        raise ValidationError("need at least one jet")
    p = jets[0].p
    for j in jets:
        if j.p != p:
            raise ValidationError("jets have different p")
        if j.s != g:
            raise ValidationError(
                f"{g} jets need {g} coefficients each (one per prime), "
                f"got {j.s}")
        for i in range(g):
            j.coeff(i)  # all coefficients must be recorded
    if not (1 <= s <= g):
        raise ValidationError("need 1 <= s <= g")
    rows = [list(j.alphas) for j in jets]
    exps = [[int(i == j) for j in range(g)] for i in range(g)]
    tr = WedgeTranscript(initial=jets, transform=exps)
    # (prime, positions cleared): the tail primes s+1..g (0-based s..g-1)
    # from the leading jets, then the s-prime ladder
    passes = ([(i, g - 1 - (i - s)) for i in range(s, g)]
              + [(i, s - i) for i in range(1, s)])
    for i, limit in passes:
        for k in range(limit):
            rows[k], rows[k + 1], mat = wedge_step(rows[k], rows[k + 1], i, p)
            (a, b), (c, d) = mat
            x, y = exps[k], exps[k + 1]
            exps[k] = [a * e + b * f for e, f in zip(x, y)]
            exps[k + 1] = [c * e + d * f for e, f in zip(x, y)]
            tr.steps.append((k, i, mat))
    work = [UnitJet(p, tuple(r)) for r in rows]
    granted = oracle.invoke(work[0], 0, range(1, g))
    entry = dict(oracle.log[-1])
    entry["position"] = 0
    entry["first"] = 0
    tr.oracle_log.append(entry)
    if granted is None:
        tr.final = tuple(work)
        tr.blocked = True
        tr.note = "blocked at CFT step"
        return tr
    work[0] = granted
    tr.final = tuple(work)
    tr.trivial = True
    tr.note = ("leading jet trivial to second order at every prime; "
               "wedge class trivial")
    return tr
