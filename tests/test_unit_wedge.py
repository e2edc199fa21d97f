"""Unit jets, pairwise elimination steps, and the full wedge reduction
with its transcript."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cmtower.errors import ValidationError
from cmtower.unit_wedge import (CftOracle, UnitJet, combine, extend_to_g,
                                reduce_wedge, wedge_step)


class TestUnitJet:
    def test_multiply_adds(self):
        v = UnitJet(5, (2, 3))
        w = UnitJet(5, (4, 4))
        assert (v * w).alphas == (1, 2)
        assert v.power(3).alphas == (1, 4)

    def test_none_propagates(self):
        v = UnitJet(5, (2, None))
        w = UnitJet(5, (1, 1))
        assert (v * w).alphas == (3, None)
        with pytest.raises(ValidationError):
            v.coeff(1)

    def test_clean_at(self):
        v = UnitJet(5, (0, 3))
        assert v.clean_at(0) and not v.clean_at(1)

    @pytest.mark.parametrize("p", (1, 0, -5))
    def test_rejects_p_below_two(self, p):
        with pytest.raises(ValidationError):
            UnitJet(p, (1, 2))


class TestCombine:
    def test_example(self):
        v = UnitJet(5, (3,))
        w = UnitJet(5, (1,))
        assert combine(v, w, 0) == (1, -3)

    def test_degenerate_conventions(self):
        z = UnitJet(5, (0,))
        u = UnitJet(5, (2,))
        assert combine(z, u, 0) == (1, 0)
        assert combine(u, z, 0) == (0, 1)

    def test_exhaustive(self):
        for p in (3, 5, 7):
            for alpha in range(p):
                for beta in range(p):
                    v = UnitJet(p, (alpha,))
                    w = UnitJet(p, (beta,))
                    a, b = combine(v, w, 0)
                    assert (v.power(a) * w.power(b)).clean_at(0)
                    from math import gcd
                    assert gcd(a, b) == 1


class TestWedgeStep:
    def test_unimodular_and_clears(self):
        rng = random.Random(53)
        for p in (3, 5):
            for _ in range(100):
                v = UnitJet(p, (rng.randrange(p), rng.randrange(p)))
                w = UnitJet(p, (rng.randrange(p), rng.randrange(p)))
                v2, w2, ((a, b), (c, d)) = wedge_step(v, w, 1)
                assert a * d - b * c == 1
                assert v2.clean_at(1)
                # the step is invertible: applying the inverse matrix
                # recovers the original pair
                back_v = v2.power(d) * w2.power(-b)
                back_w = v2.power(-c) * w2.power(a)
                assert back_v.alphas == v.alphas
                assert back_w.alphas == w.alphas

    def test_identity_step_when_already_clean(self):
        v = UnitJet(5, (3, 0))
        w = UnitJet(5, (1, 2))
        v2, w2, mat = wedge_step(v, w, 1)
        assert mat == ((1, 0), (0, 1))
        assert v2.alphas == v.alphas and w2.alphas == w.alphas

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValidationError):
            wedge_step(UnitJet(5, (1, 2)), UnitJet(5, (3, 4, 0)), 0)


_ENTRY = st.integers(-60, 60)


@st.composite
def _jet_pair(draw):
    """Two jets over the same primes, None allowed except at prime i."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    s = draw(st.integers(1, 5))
    i = draw(st.integers(0, s - 1))
    rows = [draw(st.lists(st.none() | _ENTRY, min_size=s, max_size=s))
            for _ in range(2)]
    for row in rows:
        row[i] = draw(_ENTRY)
    return UnitJet(p, tuple(rows[0])), UnitJet(p, tuple(rows[1])), i


class TestStepRows:
    """The row operation against the jet product it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(_jet_pair())
    def test_step_is_the_jet_product(self, case):
        v, w, i = case
        v2, w2, ((a, b), (c, d)) = wedge_step(v, w, i)
        assert v2 == v.power(a) * w.power(b)
        assert w2 == v.power(c) * w.power(d)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 5),
           st.integers(0, 4), st.randoms(use_true_random=False))
    def test_replay_and_matrix(self, p, g, s, rng):
        s = min(s, g - 1) + 1
        jets = [UnitJet(p, tuple(rng.randrange(p) for _ in range(g)))
                for _ in range(g)]
        tr = extend_to_g(jets, s, CftOracle("deny"))
        work = list(jets)
        mat = [[int(i == j) for j in range(g)] for i in range(g)]
        for k, _, ((a, b), (c, d)) in tr.steps:
            v, w = work[k], work[k + 1]
            work[k], work[k + 1] = (v.power(a) * w.power(b),
                                    v.power(c) * w.power(d))
            x, y = mat[k], mat[k + 1]
            mat[k] = [a * e + b * f for e, f in zip(x, y)]
            mat[k + 1] = [c * e + d * f for e, f in zip(x, y)]
        assert tr.replay() == tuple(work) == tr.final
        assert tr.cumulative_matrix() == mat


class TestReduce:
    def test_two_jet_example(self):
        u1 = UnitJet(5, (2, 3))
        u2 = UnitJet(5, (4, 1))
        tr = reduce_wedge((u1, u2), CftOracle("axiom"))
        assert [j.to_json() for j in tr.final] == [[0, 0], [4, 1]]
        assert tr.trivial and not tr.blocked
        assert tr.cumulative_det() in (1, -1)
        assert len(tr.oracle_log) == 1

    def test_ladder_shape_random(self):
        rng = random.Random(59)
        p, s = 5, 4
        for _ in range(20):
            jets = tuple(UnitJet(p, tuple(rng.randrange(p) for _ in range(s)))
                         for _ in range(s))
            tr = reduce_wedge(jets, CftOracle("axiom"))
            assert tr.trivial
            # ladder: jet k clean at primes 1..s-k-1 (and 0 for k = 0)
            for k, jet in enumerate(tr.final):
                for i in range(1, s - k):
                    assert jet.clean_at(i)
            assert tr.final[0].alphas == (0,) * s
            assert tr.cumulative_det() in (1, -1)

    def test_replay_is_bit_exact(self):
        rng = random.Random(61)
        p, s = 3, 3
        jets = tuple(UnitJet(p, tuple(rng.randrange(p) for _ in range(s)))
                     for _ in range(s))
        tr = reduce_wedge(jets, CftOracle("axiom"))
        replayed = tr.replay()
        assert tuple(j.alphas for j in replayed) == \
            tuple(j.alphas for j in tr.final)

    def test_deny_mode_blocks(self):
        u1 = UnitJet(5, (2, 3))
        u2 = UnitJet(5, (4, 1))
        tr = reduce_wedge((u1, u2), CftOracle("deny"))
        assert tr.blocked and not tr.trivial
        assert tr.note == "blocked at CFT step"
        # the ladder was still built before the oracle refused
        assert tr.final[0].clean_at(1)

    def test_single_jet(self):
        tr = reduce_wedge((UnitJet(5, (2,)),), CftOracle("axiom"))
        assert tr.trivial and tr.steps == []

    def test_exactly_one_oracle_call(self):
        oracle = CftOracle("axiom")
        jets = tuple(UnitJet(3, (1, 2, 1)) for _ in range(3))
        reduce_wedge(jets, oracle)
        assert len(oracle.log) == 1

    def test_missing_coefficient_rejected(self):
        jets = (UnitJet(3, (1, None)), UnitJet(3, (2, 1)))
        with pytest.raises(ValidationError):
            reduce_wedge(jets, CftOracle("axiom"))


class TestExtend:
    def test_equivalent_when_s_equals_g(self):
        jets = (UnitJet(5, (2, 3)), UnitJet(5, (4, 1)))
        tr1 = extend_to_g(jets, 2, CftOracle("axiom"))
        tr2 = reduce_wedge(jets, CftOracle("axiom"))
        assert [j.alphas for j in tr1.final] == [j.alphas for j in tr2.final]

    def test_g2_s1(self):
        jets = (UnitJet(5, (2, 3)), UnitJet(5, (4, 1)))
        tr = extend_to_g(jets, 1, CftOracle("axiom"))
        assert tr.trivial
        assert tr.final[0].alphas == (0, 0)
        assert tr.cumulative_det() in (1, -1)

    def test_g3_s2_random(self):
        rng = random.Random(67)
        p, g = 3, 3
        for _ in range(50):
            jets = tuple(UnitJet(p, tuple(rng.randrange(p) for _ in range(g)))
                         for _ in range(g))
            tr = extend_to_g(jets, 2, CftOracle("axiom"))
            assert tr.trivial
            assert tr.final[0].alphas == (0,) * g
            assert tr.cumulative_det() in (1, -1)
            replayed = tr.replay()
            assert tuple(j.alphas for j in replayed) == \
                tuple(j.alphas for j in tr.final)

    def test_bad_s_rejected(self):
        jets = (UnitJet(3, (1, 2)), UnitJet(3, (2, 1)))
        with pytest.raises(ValidationError):
            extend_to_g(jets, 0, CftOracle("axiom"))
        with pytest.raises(ValidationError):
            extend_to_g(jets, 3, CftOracle("axiom"))
