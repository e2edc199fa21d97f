"""CM fields split at p, realized through CRT coordinates.

A degree-2g field K = Q[x]/(f) with p split completely is handled
entirely through the 2g Hensel-lifted roots of f: embeddings become
coordinate evaluations, primes over p become root indices, and field
automorphisms become permutations of the roots.  Reports read the
coordinates (``embed``) and a uniformizer at one prime (``pick_pi``),
which searches on the candidates' values at the roots mod p^2: they
decide valuations 0 and 1, all the search asks about.

Automorphisms are supplied as polynomials h(x) with f(h(x)) = 0 mod f
and labeled by root indices: the automorphism sending the base root
(index 0) to root i gets label i.  The CM type is a set of g labels
containing one label from each complex-conjugation orbit.  Both are
validated on construction and feed no reported value.
"""

from __future__ import annotations

from operator import mul

from .errors import InvariantError, PrecisionError, ValidationError
# endo is unused here; perfbench/spans.py patches this binding
from .lubin_tate import endo
from .padic import InRing, PadicInt, PadicPoly, hensel_root, mul_coeffs


# ---------------------------------------------------------------------------
# integer polynomial arithmetic mod a monic f
# ---------------------------------------------------------------------------

def _ztrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _zreduce(c, f):
    """Reduce an integer coefficient list mod monic f, exactly over Z."""
    c = list(c)
    d = len(f) - 1
    for i in range(len(c) - 1, d - 1, -1):
        q = c[i]
        if q:
            for j in range(d + 1):
                c[i - d + j] -= q * f[j]
    return _ztrim(c[:d])


def _zcompose_mod(outer, inner, f):
    """outer(inner(x)) mod f, exactly over Z, by Horner."""
    acc = []
    for c in reversed(outer):
        acc = mul_coeffs(acc, inner) or [0]
        acc[0] += c
        acc = _zreduce(acc, f)
    return acc


class FieldElement:
    """An element of Q[x]/(f) with integer coefficients, kept reduced."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "CMField", coeffs):
        self.field = field
        self.coeffs = tuple(_zreduce(list(coeffs), field.f))

    def __repr__(self):
        return f"FieldElement({list(self.coeffs)})"

    def to_json(self):
        return list(self.coeffs)


class CMField(InRing):
    """A degree-2g field with p split completely, automorphism data and
    a CM type.

    ``f`` is the monic defining polynomial (integer coefficient list,
    constant first).  ``autos`` is the full list of 2g automorphism
    polynomials; for g = 1 it defaults to [x, conj].  ``cm_type`` is a
    set of g automorphism labels, one per conjugation orbit.  The roots
    live in the ring ``R`` of (p, N).
    """

    __slots__ = ("f", "R", "g", "roots", "cm_type", "perm_by_label")

    def __init__(self, f, p, N, conj, cm_type, autos=None):
        f = list(f)
        if not f or f[-1] != 1:
            raise ValidationError("defining polynomial must be monic")
        deg = len(f) - 1
        if deg < 2 or deg % 2:
            raise ValidationError("defining polynomial must have even degree >= 2")
        self.f = f
        self.g = deg // 2

        # split p completely: 2g distinct simple roots mod p, Hensel-lifted
        fp = PadicPoly(p, N, f)
        self.R = fp.R
        residues = [r for r in range(p)
                    if sum(c * pow(r, i, p) for i, c in enumerate(f)) % p == 0]
        if len(residues) != deg:
            raise ValidationError(
                f"p = {p} does not split completely: {len(residues)} roots "
                f"mod p, need {deg}"
            )
        roots = []
        for r in sorted(residues):
            roots.append(hensel_root(fp, PadicInt(p, N, r)))
        self.roots = roots

        conj = _zreduce(list(conj), f)
        if _ztrim(_zcompose_mod(f, conj, f)):
            raise ValidationError("conjugation polynomial is not an automorphism")
        cc = _zcompose_mod(conj, conj, f)
        if cc != [0, 1]:
            raise ValidationError("conjugation is not an involution")

        if autos is None:
            if self.g != 1:
                raise ValidationError(
                    "automorphism list is required for fields of degree > 2"
                )
            autos = [[0, 1], conj]
        autos = [_zreduce(list(h), f) for h in autos]
        if len(autos) != deg:
            raise ValidationError(f"need {deg} automorphisms, got {len(autos)}")

        self.perm_by_label = {}
        for h in autos:
            if _ztrim(_zcompose_mod(f, h, f)):
                raise ValidationError(f"{h} is not an automorphism")
            perm = tuple(self.root_index(self._eval_poly_at_root(h, i))
                         for i in range(deg))
            label = perm[0]
            if label in self.perm_by_label:
                raise ValidationError("duplicate automorphism label")
            self.perm_by_label[label] = perm
        if set(self.perm_by_label) != set(range(deg)):
            raise ValidationError("automorphisms do not act transitively on roots")

        conj_perm = self.perm_by_label[self.root_index(
            self._eval_poly_at_root(conj, 0))]
        if any(conj_perm[i] == i for i in range(deg)):
            raise ValidationError("conjugation fixes a prime over p")

        cm_type = frozenset(cm_type)
        if len(cm_type) != self.g:
            raise ValidationError(f"CM type must have {self.g} labels")
        # conjugate of the label-i embedding has label conj_perm[i]: the
        # automorphisms were checked exactly above and K is Galois
        covered = set()
        for i in cm_type:
            if i not in self.perm_by_label:
                raise ValidationError(f"unknown automorphism label {i}")
            j = conj_perm[i]
            if j in cm_type:
                raise ValidationError(
                    f"CM type contains a conjugate pair ({i}, {j})"
                )
            covered.update((i, j))
        if covered != set(range(deg)):
            raise ValidationError("CM type does not cover all conjugate orbits")
        self.cm_type = cm_type

    # -- root bookkeeping ---------------------------------------------

    def _eval_poly_at_root(self, coeffs, idx: int) -> PadicInt:
        return PadicPoly(self.p, self.N, coeffs).evaluate(self.roots[idx])

    def root_index(self, value: PadicInt) -> int:
        """Index of the root congruent to value (a residue of the field's
        ring) mod p; roots are distinct mod p, so that fixes the index."""
        v = self.R.lift(value) % self.p
        for i, r in enumerate(self.roots):
            if r.value % self.p == v:
                return i
        raise InvariantError(f"value {value.value} is not near any root")

    def prime_index(self, i: int) -> int:
        """i, checked to index one of the 2g primes over p."""
        if not 0 <= i < 2 * self.g:
            raise ValidationError(
                f"prime index {i} is outside 0..{2 * self.g - 1}")
        return i

    def element(self, coeffs) -> FieldElement:
        return FieldElement(self, coeffs)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def embed(K: CMField, alpha: FieldElement):
    """The 2g CRT coordinates of alpha: component i is alpha at root i."""
    if alpha.field is not K:
        raise ValidationError("element does not belong to this field")
    return [K._eval_poly_at_root(alpha.coeffs, i) for i in range(2 * K.g)]


def _shell(n: int, bound: int, s: int):
    """The n-tuples with entries in [-bound, bound] and sum of absolute
    values s, in lexicographic order."""
    if n == 0:
        if s == 0:
            yield ()
        return
    for v in range(-min(bound, s), min(bound, s) + 1):
        if s - abs(v) <= (n - 1) * bound:  # the later entries take the rest
            for rest in _shell(n - 1, bound, s - abs(v)):
                yield (v,) + rest


def pick_pi(K: CMField, fp_index: int, bound=None) -> FieldElement:
    """The smallest-coefficient element with valuation exactly 1 at the
    prime of fp_index and 0 at every other prime over p: coefficient
    vectors in [-bound, bound] are tried by increasing sum of absolute
    values, lexicographically within one sum (existence is a CRT fact).

    A candidate's value at each root is read mod p^2, which decides both
    valuations (0 is p not dividing it, 1 is p dividing it and p^2 not)
    since N >= 2; only the winner becomes a ``FieldElement``."""
    K.prime_index(fp_index)
    if K.N < 2:
        raise PrecisionError(
            f"valuation 1 needs N >= 2 (got N = {K.N}); raise N")
    if bound is None:
        bound = K.p
    p = K.p
    p2 = p * p
    deg = 2 * K.g
    # 1, r, ..., r^(deg - 1) mod p^2 at each root r
    powers = [[pow(r.value, j, p2) for j in range(deg)] for r in K.roots]
    pi_powers = powers.pop(fp_index)
    for s in range(1, deg * bound + 1):
        for coeffs in _shell(deg, bound, s):
            v = sum(map(mul, coeffs, pi_powers)) % p2
            if v % p or not v:
                continue
            if all(sum(map(mul, coeffs, pw)) % p for pw in powers):
                return K.element(coeffs)
    raise ValidationError(
        f"no uniformizer found with coefficients bounded by {bound}; "
        "enlarge the search box"
    )
