"""Unit jets, pairwise elimination steps, and the full wedge reduction
with its transcript.

The jet algebra (``jet_power``, ``jet_mul``) and the object-level ladder
(``object_extend_to_g``), which runs every step as a jet product and
multiplies the step matrices afterwards, are kept here as the oracles
for the ladder on integer rows."""

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cmtower.errors import InvariantError, ValidationError
from cmtower.unit_wedge import (CftOracle, UnitJet, WedgeTranscript,
                                extend_to_g, reduce_wedge, wedge_step)


def jet_power(v, k):
    """The jet of v^k."""
    return UnitJet(v.p, tuple(None if a is None else a * k
                              for a in v.alphas))


def jet_mul(v, w):
    """The jet of v w: coefficients add, None where either is None."""
    if v.p != w.p or v.s != w.s:
        raise ValidationError("jets have mismatched shape")
    return UnitJet(v.p, tuple(None if a is None or b is None else a + b
                              for a, b in zip(v.alphas, w.alphas)))


def _egcd(a, b):
    """(f, g) with a f + b g = gcd(a, b) = 1 for a coprime pair."""
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


def _object_step(v, w, i):
    alpha, beta = v.coeff(i), w.coeff(i)
    if alpha == 0:
        a, b = 1, 0
    elif beta == 0:
        a, b = 0, 1
    else:
        g = gcd(alpha, beta)
        a, b = beta // g, -(alpha // g)
    f, g = _egcd(a, b)
    c, d = -g, f
    return (jet_mul(jet_power(v, a), jet_power(w, b)),
            jet_mul(jet_power(v, c), jet_power(w, d)), ((a, b), (c, d)))


def object_extend_to_g(jets, s, oracle):
    """The ladder on jet objects, for g >= 2 jets: the report that
    ``extend_to_g(jets, s, oracle).to_json()`` gives, and the product of
    the step matrices."""
    g = len(jets)
    work = list(jets)
    mat = [[int(i == j) for j in range(g)] for i in range(g)]
    steps = []
    passes = ([(i, g - 1 - (i - s)) for i in range(s, g)]
              + [(i, s - i) for i in range(1, s)])
    for i, limit in passes:
        for k in range(limit):
            work[k], work[k + 1], step = _object_step(work[k], work[k + 1], i)
            steps.append({"position": k, "prime": i,
                          "matrix": [list(r) for r in step]})
            (a, b), (c, d) = step
            x, y = mat[k], mat[k + 1]
            mat[k] = [a * e + b * f for e, f in zip(x, y)]
            mat[k + 1] = [c * e + d * f for e, f in zip(x, y)]
    granted = oracle.invoke(work[0], 0, range(1, g))
    entry = dict(oracle.log[-1], position=0, first=0)
    if granted is not None:
        work[0] = granted
    return {
        "initial": [j.to_json() for j in jets],
        "steps": steps,
        "final": [j.to_json() for j in work],
        "oracle": [entry],
        "trivial": granted is not None,
        "blocked": granted is None,
        "note": ("blocked at CFT step" if granted is None else
                 "leading jet trivial to second order at every prime; "
                 "wedge class trivial"),
    }, mat


class TestUnitJet:
    @pytest.mark.parametrize("p", (-3, 0, 1, 4, 9, 15, 25))
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValidationError, match="p must be prime"):
            UnitJet(p, (2, 3))

    def test_multiply_adds(self):
        v = UnitJet(5, (2, 3))
        w = UnitJet(5, (4, 4))
        assert jet_mul(v, w).alphas == (1, 2)
        assert jet_power(v, 3).alphas == (1, 4)

    def test_none_propagates(self):
        v = UnitJet(5, (2, None))
        w = UnitJet(5, (1, 1))
        assert jet_mul(v, w).alphas == (3, None)
        with pytest.raises(ValidationError):
            v.coeff(1)

    def test_clean_at(self):
        v = UnitJet(5, (0, 3))
        assert v.clean_at(0) and not v.clean_at(1)

    @pytest.mark.parametrize("p", (1, 0, -5))
    def test_rejects_p_below_two(self, p):
        with pytest.raises(ValidationError):
            UnitJet(p, (1, 2))

    def test_record(self):
        """Alphas are reduced mod p; the repr names the fields; no field
        can be assigned; equality and hash go field by field."""
        jet = UnitJet(5, (7, None))
        assert jet.alphas == (2, None)
        assert UnitJet(5, (-1, 12, 0)).alphas == (4, 2, 0)
        assert repr(jet) == "UnitJet(p=5, alphas=(2, None))"
        with pytest.raises(AttributeError):
            jet.alphas = (1, 1)
        twin = UnitJet(5, (2, None))
        assert jet == twin and hash(jet) == hash(twin)
        assert jet != UnitJet(7, (2, None))


def first_row(v, w, i):
    """The exponents (a, b) of the first row of the wedge step at prime
    i: v^a w^b is trivial to second order there."""
    return wedge_step(v.alphas, w.alphas, i, v.p)[2][0]


class TestCombine:
    def test_example(self):
        v = UnitJet(5, (3,))
        w = UnitJet(5, (1,))
        assert first_row(v, w, 0) == (1, -3)

    def test_degenerate_conventions(self):
        z = UnitJet(5, (0,))
        u = UnitJet(5, (2,))
        assert first_row(z, u, 0) == (1, 0)
        assert first_row(u, z, 0) == (0, 1)

    def test_exhaustive(self):
        for p in (3, 5, 7):
            for alpha in range(p):
                for beta in range(p):
                    v = UnitJet(p, (alpha,))
                    w = UnitJet(p, (beta,))
                    a, b = first_row(v, w, 0)
                    assert jet_mul(jet_power(v, a),
                                   jet_power(w, b)).clean_at(0)
                    assert gcd(a, b) == 1


class TestWedgeStep:
    def test_unimodular_and_clears(self):
        rng = random.Random(53)
        for p in (3, 5):
            for _ in range(100):
                v = UnitJet(p, (rng.randrange(p), rng.randrange(p)))
                w = UnitJet(p, (rng.randrange(p), rng.randrange(p)))
                x2, y2, ((a, b), (c, d)) = wedge_step(v.alphas, w.alphas,
                                                      1, p)
                v2, w2 = UnitJet(p, tuple(x2)), UnitJet(p, tuple(y2))
                assert a * d - b * c == 1
                assert v2.clean_at(1)
                # the step is invertible: applying the inverse matrix
                # recovers the original pair
                back_v = jet_mul(jet_power(v2, d), jet_power(w2, -b))
                back_w = jet_mul(jet_power(v2, -c), jet_power(w2, a))
                assert back_v.alphas == v.alphas
                assert back_w.alphas == w.alphas

    def test_identity_step_when_already_clean(self):
        x2, y2, mat = wedge_step((3, 0), (1, 2), 1, 5)
        assert mat == ((1, 0), (0, 1))
        assert x2 == [3, 0] and y2 == [1, 2]

    def test_mismatched_shapes_rejected(self):
        """The shape is checked once, at the top of the ladder."""
        with pytest.raises(ValidationError):
            extend_to_g((UnitJet(5, (1, 2)), UnitJet(5, (3, 4, 0))), 1,
                        CftOracle("axiom"))


_ENTRY = st.integers(-60, 60)


@st.composite
def _row_pair(draw):
    """Two unreduced coefficient rows over the same primes, None allowed
    except at prime i."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    s = draw(st.integers(1, 5))
    i = draw(st.integers(0, s - 1))
    rows = [draw(st.lists(st.none() | _ENTRY, min_size=s, max_size=s))
            for _ in range(2)]
    for row in rows:
        row[i] = draw(_ENTRY)
    return p, rows[0], rows[1], i


@st.composite
def _jets(draw, min_g=1):
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    g = draw(st.integers(min_g, 6))
    s = draw(st.integers(1, g))
    jets = [UnitJet(p, tuple(draw(st.lists(_ENTRY, min_size=g, max_size=g))))
            for _ in range(g)]
    return jets, s, draw(st.sampled_from(("axiom", "deny")))


class TestStepRows:
    """The row operation against the jet product it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(_row_pair())
    def test_step_is_the_jet_product(self, case):
        p, x, y, i = case
        v, w = UnitJet(p, tuple(x)), UnitJet(p, tuple(y))
        x2, y2, ((a, b), (c, d)) = wedge_step(x, y, i, p)
        assert x2 == list(jet_mul(jet_power(v, a), jet_power(w, b)).alphas)
        assert y2 == list(jet_mul(jet_power(v, c), jet_power(w, d)).alphas)
        assert x2[i] == 0

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
            work[k], work[k + 1] = (jet_mul(jet_power(v, a), jet_power(w, b)),
                                    jet_mul(jet_power(v, c), jet_power(w, d)))
            x, y = mat[k], mat[k + 1]
            mat[k] = [a * e + b * f for e, f in zip(x, y)]
            mat[k + 1] = [c * e + d * f for e, f in zip(x, y)]
        assert tr.replay() == tuple(work) == tr.final
        assert tr.transform == mat

    @settings(max_examples=300, deadline=None)
    @given(_jets(min_g=2))
    def test_agrees_with_the_object_ladder(self, case):
        """Step for step, outcome and transform as the ladder on jet
        objects gives them."""
        jets, s, mode = case
        tr = extend_to_g(jets, s, CftOracle(mode))
        report, mat = object_extend_to_g(jets, s, CftOracle(mode))
        assert tr.to_json() == report
        assert tr.transform == mat

    @settings(max_examples=200, deadline=None)
    @given(_jets())
    def test_every_transcript_certifies(self, case):
        jets, s, mode = case
        extend_to_g(jets, s, CftOracle(mode)).check()


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
        """No steps, then the one oracle call at prime 0."""
        oracle = CftOracle("axiom")
        tr = reduce_wedge((UnitJet(5, (2,)),), oracle)
        assert tr.trivial and tr.steps == []
        assert tr.to_json()["final"] == [[0]]
        assert len(oracle.log) == len(tr.oracle_log) == 1
        tr.check()
        tr = reduce_wedge((UnitJet(5, (2,)),), CftOracle("deny"))
        assert tr.blocked and not tr.trivial
        assert tr.to_json()["final"] == [[2]]
        tr.check()

    def test_exactly_one_oracle_call(self):
        oracle = CftOracle("axiom")
        jets = tuple(UnitJet(3, (1, 2, 1)) for _ in range(3))
        reduce_wedge(jets, oracle)
        assert len(oracle.log) == 1

    def test_missing_coefficient_rejected(self):
        jets = (UnitJet(3, (1, None)), UnitJet(3, (2, 1)))
        with pytest.raises(ValidationError):
            reduce_wedge(jets, CftOracle("axiom"))

    @pytest.mark.parametrize("rows", ([(1,), (2,)], [(), ()],
                                      [(1, 2, 3), (2, 1, 1)], []))
    def test_non_square_rejected(self, rows):
        """g jets need g coefficients each, and g >= 1."""
        with pytest.raises(ValidationError):
            reduce_wedge([UnitJet(5, r) for r in rows], CftOracle("axiom"))

    def test_check_refuses_a_tampered_transcript(self):
        jets = (UnitJet(5, (2, 3)), UnitJet(5, (4, 1)))
        tr = reduce_wedge(jets, CftOracle("axiom"))
        tr.check()
        final = tr.final
        tr.final = (UnitJet(5, (1, 0)),) + final[1:]
        with pytest.raises(InvariantError, match="replaying"):
            tr.check()
        tr.final = final
        # a row times 1 + p replays to the same jets mod p, but the
        # transform is no longer unimodular
        tr.transform[1] = [6 * a for a in tr.transform[1]]
        with pytest.raises(InvariantError, match="determinant"):
            tr.check()


class TestTranscript:
    def test_repr_and_defaults(self):
        tr = WedgeTranscript(initial=(UnitJet(5, (7, None)),))
        assert repr(tr) == (
            "WedgeTranscript(initial=(UnitJet(p=5, alphas=(2, None)),), "
            "steps=[], transform=[], final=(), oracle_log=[], "
            "trivial=False, blocked=False, note='')")
        assert tr.steps is not WedgeTranscript(initial=()).steps

    def test_mutable_and_compared_by_field(self):
        jets = (UnitJet(5, (2, 3)), UnitJet(5, (4, 1)))
        tr = reduce_wedge(jets, CftOracle("axiom"))
        assert tr == reduce_wedge(jets, CftOracle("axiom"))
        tr.note = "edited"
        assert tr != reduce_wedge(jets, CftOracle("axiom"))
        with pytest.raises(TypeError):
            hash(tr)


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
