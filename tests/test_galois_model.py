"""Finite Galois model: triangular matrix group, congruence subgroups,
division-field indices."""

import random
import time

import pytest

from cmtower.errors import InvariantError, ValidationError
from cmtower.galois_model import (SubgroupSpec, TriElement, check_normal,
                                  compose, identity, tower_indices)


def element_order(x):
    """The least n >= 1 with x^n the identity."""
    acc = x
    n = 1
    bound = (x.p ** x.m) ** 2
    while acc != identity(x.p, x.m):
        acc = compose(acc, x)
        n += 1
        if n > bound:
            raise InvariantError("element order exceeded the group order")
    return n


def enumerate_group(p, m, a_mod=0, b_mod=0):
    """Oracle: every element with a = 0 mod p^a_mod and b = 1 mod
    p^b_mod, listed by increasing a, then increasing b."""
    mod = p ** m
    return [TriElement(p, m, a, b)
            for a in range(0, mod, p ** a_mod)
            for b in range(1, mod)
            if b % p and (b - 1) % p ** b_mod == 0]


class TestTriElement:
    def test_unit_required(self):
        with pytest.raises(ValidationError):
            TriElement(3, 2, 1, 3)

    def test_group_axioms_random(self):
        rng = random.Random(47)
        p, m = 5, 2
        mod = p ** m

        def rand():
            b = rng.randrange(1, mod)
            while b % p == 0:
                b = rng.randrange(1, mod)
            return TriElement(p, m, rng.randrange(mod), b)

        e = identity(p, m)
        for _ in range(100):
            x, y, z = rand(), rand(), rand()
            assert compose(compose(x, y), z) == compose(x, compose(y, z))
            assert compose(x, e) == x and compose(e, x) == x
            assert compose(x, x.inverse()) == e

    def test_noncommutative_witness(self):
        x = TriElement(3, 2, 1, 1)
        y = TriElement(3, 2, 0, 2)
        assert compose(x, y) != compose(y, x)

    def test_element_order_divides_group_order(self):
        p, m = 3, 2
        order = p ** m * p ** (m - 1) * (p - 1)
        for g in enumerate_group(p, m):
            assert order % element_order(g) == 0


class TestSubgroups:
    def test_full_group_order(self):
        # p = 3, m = 2: 9 choices of a, 6 units b
        assert len(enumerate_group(3, 2)) == 54
        assert SubgroupSpec(3, 2, 0, 0).order() == 54

    def test_orders_by_formula(self):
        for p in (3, 5):
            for m in (1, 2):
                for j in range(m + 1):
                    for k in range(m + 1):
                        spec = SubgroupSpec(p, m, j, k)
                        b_count = (p ** (m - 1) * (p - 1) if k == 0
                                   else p ** (m - k))
                        assert spec.order() == p ** (m - j) * b_count

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_order_matches_enumeration(self, p):
        for m in (1, 2, 3):
            for j in range(m + 1):
                for k in range(m + 1):
                    spec = SubgroupSpec(p, m, j, k)
                    assert spec.order() == len(enumerate_group(p, m, j, k))

    def test_generators_generate(self):
        for p, m in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)):
            for j in range(m + 1):
                for k in range(m + 1):
                    gens = SubgroupSpec(p, m, j, k).generators()
                    seen, todo = {identity(p, m)}, [identity(p, m)]
                    while todo:
                        x = todo.pop()
                        for g in gens:
                            y = compose(x, g)
                            if y not in seen:
                                seen.add(y)
                                todo.append(y)
                    assert seen == set(enumerate_group(p, m, j, k))

    def test_non_normal_pair_rejected(self):
        # {a = 0 mod p} is not normal in the full group: (1, 1) conjugates
        # (0, r) to (r - 1, r)
        check_normal(SubgroupSpec(3, 2, 1, 1), SubgroupSpec(3, 2, 0, 1))
        with pytest.raises(InvariantError):
            check_normal(SubgroupSpec(3, 2, 1, 0), SubgroupSpec(3, 2, 0, 0))

    def test_closure_violation_impossible(self):
        # spot check: products of subgroup elements stay inside
        spec = SubgroupSpec(3, 2, 1, 1)
        els = enumerate_group(3, 2, 1, 1)
        for x in els:
            for y in els:
                assert spec.contains(compose(x, y))

    def test_bad_levels_rejected(self):
        with pytest.raises(ValidationError):
            SubgroupSpec(3, 2, 3, 0)

    @pytest.mark.parametrize("p", (1, 4, 9, 15))
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValidationError):
            SubgroupSpec(p, 2, 0, 0)

    @pytest.mark.parametrize("args, message", (
        ((4, 2, 3, 0), r"congruence levels must lie in \[0, m\]"),
        ((10 ** 12, 1, 0, 0), r"p\^m = 1000000000000\^1 is above 100000"),
        ((3, 11, 0, 0), r"p\^m = 3\^11 is above 100000"),
        ((4, 2, 0, 0), "p must be prime, got 4"),
    ), ids=("levels-before-bound", "bound-before-primality", "bound",
            "composite"))
    def test_checks_in_order(self, args, message):
        """The levels, then the modulus bound (before any trial
        division), then primality."""
        with pytest.raises(ValidationError, match=message):
            SubgroupSpec(*args)


class TestRecords:
    """TriElement and SubgroupSpec are immutable value records."""

    def test_repr(self):
        assert (repr(TriElement(3, 2, 10, 4))
                == "TriElement(p=3, m=2, a=1, b=4)")
        assert (repr(SubgroupSpec(3, 2, 1, 1))
                == "SubgroupSpec(p=3, m=2, j=1, k=1)")

    @pytest.mark.parametrize("record, field", (
        (TriElement(3, 2, 1, 4), "a"), (SubgroupSpec(3, 2, 1, 1), "j")),
        ids=("element", "subgroup"))
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)

    def test_equality_and_hash_by_field(self):
        x, y = TriElement(3, 2, 10, 4), TriElement(3, 2, 1, -5)
        assert x == y and hash(x) == hash(y)
        assert x != TriElement(3, 2, 1, 7)
        s, t = SubgroupSpec(3, 2, 1, 1), SubgroupSpec(3, 2, 1, 1)
        assert s == t and hash(s) == hash(t)

    def test_unit_check_message(self):
        with pytest.raises(ValidationError,
                           match="lower-right entry must be a unit"):
            TriElement(3, 2, 1, 6)


class TestTowerIndices:
    def test_full_order_example(self):
        out = tower_indices(3, 2, 1)
        assert out["order_full"] == 54
        assert out["order_small_variant"] == 18

    def test_indices_are_p_power_and_cyclic(self):
        for p in (3, 5, 7):
            for m in (1, 2, 3):
                for n in range(1, m + 1):
                    assert tower_indices(p, m, n) == {
                        "order_full": p ** (2 * m - 1) * (p - 1),
                        "order_small_variant": p ** m * (p - 1),
                        "order_fix_torsion": p ** (2 * m - n),
                        "order_fix_division": p ** (2 * m - 2 * n),
                        "index": p ** n,
                        "cyclic": True,
                        "generator_order": p ** n,
                    }

    def test_p11_depth4_is_fast(self):
        """|G| = 11^7 * 10: counted per coordinate, never listed."""
        start = time.monotonic()
        for n in range(1, 5):
            assert tower_indices(11, 4, n)["index"] == 11 ** n
        assert time.monotonic() - start < 2.0

    def test_bad_level_rejected(self):
        with pytest.raises(ValidationError):
            tower_indices(3, 2, 3)
        with pytest.raises(ValidationError):
            tower_indices(3, 2, 0)
