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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import ValidationError
from .padic import ring_det


@dataclass(frozen=True)
class UnitJet:
    """Per-prime 2-jet coefficients of a unit about 1; None marks a
    coordinate known only to first order."""

    p: int
    alphas: tuple

    def __post_init__(self):
        if self.p < 2:
            raise ValidationError(f"jets need a prime p >= 2, got {self.p}")
        object.__setattr__(
            self, "alphas",
            tuple(None if a is None else a % self.p for a in self.alphas),
        )

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

    def power(self, k: int) -> "UnitJet":
        return UnitJet(self.p, tuple(
            None if a is None else (a * k) % self.p for a in self.alphas
        ))

    def __mul__(self, other: "UnitJet") -> "UnitJet":
        if self.p != other.p or self.s != other.s:
            raise ValidationError("jets have mismatched shape")
        return UnitJet(self.p, tuple(
            None if (a is None or b is None) else (a + b) % self.p
            for a, b in zip(self.alphas, other.alphas)
        ))

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


def combine(v: UnitJet, w: UnitJet, i: int):
    """Exponents (a, b), gcd 1, with the jet of v^a w^b vanishing at
    prime i.  Generic case a = beta/gcd, b = -alpha/gcd on the lifted
    coefficients; degenerate cases fixed by convention."""
    if v.p != w.p:
        raise ValidationError("jets have different p")
    alpha = v.coeff(i)
    beta = w.coeff(i)
    if alpha == 0:
        return (1, 0)
    if beta == 0:
        return (0, 1)
    g = gcd(alpha, beta)
    return (beta // g, -(alpha // g))


def _step_rows(x, y, mat):
    """The rows a x + b y and c x + d y for mat = ((a, b), (c, d)); an
    entry is None where either input entry is None, as in jet products."""
    return tuple([None if s is None or t is None else e * s + f * t
                  for s, t in zip(x, y)] for e, f in mat)


def wedge_step(v: UnitJet, w: UnitJet, i: int):
    """Replace (v, w) by (v^a w^b, v^c w^d) with ad - bc = 1, the first
    output trivial to second order at prime i.  Returns the new pair and
    the step matrix."""
    if v.s != w.s:
        raise ValidationError("jets have mismatched shape")
    a, b = combine(v, w, i)
    # extended gcd a*f + b*g = 1; then d = f, c = -g gives det 1
    f, g = _egcd(a, b)
    c, d = -g, f
    if a * d - b * c != 1:
        raise ValidationError("step matrix is not unimodular")
    mat = ((a, b), (c, d))
    v2, w2 = (UnitJet(v.p, r) for r in _step_rows(v.alphas, w.alphas, mat))
    if not v2.clean_at(i):
        raise ValidationError(f"step failed to clear prime {i}")
    return v2, w2, mat


def _egcd(a: int, b: int):
    """(f, g) with a f + b g = gcd(a, b) = 1 for the coprime pairs that
    combine produces."""
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
    return old_f, old_g


@dataclass
class WedgeTranscript:
    """Full ledger of a reduction: initial jets, the elementary steps
    (position, prime, 2x2 matrix), the oracle log, and the outcome."""

    initial: tuple
    steps: list = field(default_factory=list)
    final: tuple = ()
    oracle_log: list = field(default_factory=list)
    trivial: bool = False
    blocked: bool = False
    note: str = ""

    def replay(self):
        """Re-run the recorded steps from the initial jets."""
        jets = list(self.initial)
        for (k, i, mat) in self.steps:
            rows = _step_rows(jets[k].alphas, jets[k + 1].alphas, mat)
            jets[k], jets[k + 1] = (UnitJet(jets[0].p, r) for r in rows)
        for entry in self.oracle_log:
            if entry["granted"]:
                first = entry["first"]
                alphas = list(jets[entry["position"]].alphas)
                alphas[first] = 0
                jets[entry["position"]] = UnitJet(jets[0].p, tuple(alphas))
        return tuple(jets)

    def cumulative_matrix(self):
        """Product of the step matrices as one integer matrix acting on
        the exponent vectors; its determinant is +-1."""
        n = len(self.initial)
        mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for (k, i, step) in self.steps:
            mat[k], mat[k + 1] = _step_rows(mat[k], mat[k + 1], step)
        return mat

    def cumulative_det(self) -> int:
        return ring_det([[[a] for a in row]
                         for row in self.cumulative_matrix()])[0]

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


def _check_hypothesis(jets):
    p = jets[0].p
    for j in jets:
        if j.p != p:
            raise ValidationError("jets have different p")
        if j.s != len(jets[0].alphas):
            raise ValidationError("jets have different prime counts")


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
    _check_hypothesis(jets)
    g = len(jets)
    if not (1 <= s <= g):
        raise ValidationError("need 1 <= s <= g")
    tr = WedgeTranscript(initial=jets)
    work = list(jets)
    if g == 1:
        tr.final = tuple(work)
        tr.trivial = True
        tr.note = "single jet: nothing to reduce"
        return tr
    for j in work:
        for i in range(g):
            j.coeff(i)  # all coefficients must be recorded
    # (prime, positions cleared): the tail primes s+1..g (0-based s..g-1)
    # from the leading jets, then the s-prime ladder
    passes = ([(i, g - 1 - (i - s)) for i in range(s, g)]
              + [(i, s - i) for i in range(1, s)])
    for i, limit in passes:
        for k in range(limit):
            v, w, mat = wedge_step(work[k], work[k + 1], i)
            work[k], work[k + 1] = v, w
            tr.steps.append((k, i, mat))
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
