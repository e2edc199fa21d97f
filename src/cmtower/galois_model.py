"""Finite model of the tower's Galois groups.

The group at depth m consists of matrices (1 a; 0 b) with a in Z/p^m and
b a unit of Z/p^m; a acts as translation by torsion, b as the character
on torsion.  The division-field degrees fall out of counting congruence
subgroups: the fixer of the n-th torsion field is {b = 1 mod p^n}, the
fixer of the n-th division field additionally has {a = 0 mod p^n}, and
the index between them is p^n with cyclic quotient.

The a-entry ranges over all of Z/p^m (group order p^m * p^(m-1)(p-1));
a smaller variant with a confined to one additive line (order
p * p^(m-1)(p-1)) would break the index bookkeeping below, so it is not
used, but tower_indices reports both orders to keep the choice visible.

Each congruence subgroup is a product set {a = 0 mod p^j} x {b = 1 mod
p^k}: its order is a product of per-coordinate residue counts, O(p^m),
and closure and normality are checked on a few generators, never on
listed elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InvariantError, ValidationError
from .padic import is_prime

# The largest p^m modelled: ``SubgroupSpec.order`` and the cyclicity
# check of ``tower_indices`` walk O(p^m) residues, and the largest
# model in use is 11^4.
MAX_MODULUS = 10 ** 5


@dataclass(frozen=True)
class TriElement:
    """The matrix (1 a; 0 b) over Z/p^m, b a unit."""

    p: int
    m: int
    a: int
    b: int

    def __post_init__(self):
        mod = self.p ** self.m
        object.__setattr__(self, "a", self.a % mod)
        object.__setattr__(self, "b", self.b % mod)
        if gcd(self.b, self.p) != 1:
            raise ValidationError("lower-right entry must be a unit")

    def inverse(self) -> "TriElement":
        mod = self.p ** self.m
        binv = pow(self.b, -1, mod)
        return TriElement(self.p, self.m, -self.a * binv, binv)

    def is_identity(self) -> bool:
        return self.a == 0 and self.b % (self.p ** self.m) == 1


def identity(p: int, m: int) -> TriElement:
    return TriElement(p, m, 0, 1)


def compose(x: TriElement, y: TriElement) -> TriElement:
    """Matrix product: (1 a; 0 b)(1 a'; 0 b') = (1, a' + a b'; 0, b b')."""
    if (x.p, x.m) != (y.p, y.m):
        raise ValidationError("elements live at different levels")
    return TriElement(x.p, x.m, y.a + x.a * y.b, x.b * y.b)


def _primitive_root(p: int) -> int:
    """The least primitive root mod the prime p: no g^((p-1)/d) with
    d > 1 dividing p - 1 is 1."""
    ds = [d for d in range(2, p) if (p - 1) % d == 0]
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // d, p) != 1 for d in ds))


@dataclass(frozen=True)
class SubgroupSpec:
    """Congruence subgroup {a = 0 mod p^j, b = 1 mod p^k}."""

    p: int
    m: int
    j: int
    k: int

    def __post_init__(self):
        p, m = self.p, self.m
        if not (0 <= self.j <= m and 0 <= self.k <= m):
            raise ValidationError("congruence levels must lie in [0, m]")
        # before the trial division of p, O(sqrt p) steps; p^m is formed
        # only for m up to the bound's bit length
        if m > MAX_MODULUS.bit_length() or p ** m > MAX_MODULUS:
            raise ValidationError(
                f"p^m = {p}^{m} is above {MAX_MODULUS}, the largest "
                "modulus the model counts")
        if not is_prime(p):
            raise ValidationError(f"p must be prime, got {p}")
        # closure is automatic: a'' = a' + a b' and b'' = b b' preserve
        # both congruences; checked on the generators and their products
        gens = self.generators()
        if not all(self.contains(z) for z in
                   gens + [compose(x, y) for x in gens for y in gens]):
            raise InvariantError("congruence set is not closed")

    def contains(self, x: TriElement) -> bool:
        return (x.a % self.p ** self.j == 0
                and (x.b - 1) % self.p ** self.k == 0)

    def generators(self) -> list:
        """(p^j, 1) and (0, 1 + p^k); for k = 0, (0, 1 + p) and (0, r), r a
        primitive root mod p.  They generate: (a, b) = (a/b, 1)(0, b); for
        odd p the units = 1 mod p^k (k >= 1) form a cyclic group generated
        by 1 + p^k; and all units are that group for k = 1 times the
        powers of r, which reach every unit mod p."""
        p, m = self.p, self.m
        bs = [1 + p ** self.k] if self.k else [1 + p, _primitive_root(p)]
        return ([TriElement(p, m, p ** self.j, 1)]
                + [TriElement(p, m, 0, b) for b in bs])

    def order(self) -> int:
        """The a = 0 mod p^j times the units b = 1 mod p^k, each counted
        over the residues of Z/p^m."""
        p, mod = self.p, self.p ** self.m
        return (len(range(0, mod, p ** self.j))
                * sum(1 for b in range(1, mod, p ** self.k) if b % p))


def check_normal(sub: SubgroupSpec, group: SubgroupSpec):
    """Raise ``InvariantError`` unless conjugating each generator of sub
    by each generator of group, and by its inverse, stays in sub."""
    for x in group.generators():
        xinv = x.inverse()
        for h in sub.generators():
            if not (sub.contains(compose(compose(x, h), xinv))
                    and sub.contains(compose(compose(xinv, h), x))):
                raise InvariantError(f"{sub} is not normal in {group}")


def tower_indices(p: int, m: int, n: int) -> dict:
    """Counting argument for the division-field degree at level n of a
    depth-m model: index p^n with cyclic quotient, certified by element
    orders."""
    if not (1 <= n <= m):
        raise ValidationError("need 1 <= n <= m")
    full = SubgroupSpec(p, m, 0, 0)
    fix_tors = SubgroupSpec(p, m, 0, n)   # fixes the n-th torsion field
    fix_div = SubgroupSpec(p, m, n, n)    # additionally fixes division values

    order_full = full.order()
    order_tors = fix_tors.order()
    order_div = fix_div.order()
    if order_full != p ** m * p ** (m - 1) * (p - 1):
        raise InvariantError("full group order does not match the count")
    if order_tors != p ** (2 * m - n) or order_div != p ** (2 * m - 2 * n):
        raise InvariantError("subgroup orders do not match the counts")
    index = order_tors // order_div

    # normality of fix_div in fix_tors: conjugation sends (alpha, beta)
    # to (b^-1 (alpha + a(beta-1)), beta), which preserves both
    # congruences; checked on generators
    check_normal(fix_div, fix_tors)

    # cyclicity: the coset of (1, 1) generates; its order in the
    # quotient is the first power landing in fix_div
    gen = TriElement(p, m, 1, 1)
    acc = gen
    order_q = 1
    while not fix_div.contains(acc):
        acc = compose(acc, gen)
        order_q += 1
        if order_q > index:
            raise InvariantError("generator order exceeded the index")
    if order_q != index:
        raise InvariantError(
            f"quotient is not cyclic of order {index}: generator order "
            f"{order_q}"
        )
    if index != p ** n:
        raise InvariantError(f"index {index} != p^{n}")
    return {
        "order_full": order_full,
        "order_small_variant": p * p ** (m - 1) * (p - 1),
        "order_fix_torsion": order_tors,
        "order_fix_division": order_div,
        "index": index,
        "cyclic": True,
        "generator_order": order_q,
    }
