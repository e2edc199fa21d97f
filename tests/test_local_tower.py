"""Division towers: torsion polynomials, exact valuations,
discriminants, point division and the ramified-step conductor."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmtower import local_tower, lubin_tate
from cmtower.errors import (HenselError, InvariantError, PrecisionError,
                            ValidationError)
from cmtower.local_tower import (DivisionState, EisensteinTower,
                                 LocalElement, TowerRing,
                                 _disc_direct, _disc_resultant,
                                 _head_valuation,
                                 character_conductor_floor, divide_point,
                                 division_conductor, e_invariant,
                                 filtration_step, level_disc)
from cmtower.lubin_tate import LTSeed, endo, group_law
from cmtower.padic import (NewtonPolygon, PadicInt, PadicPoly, TruncSeries,
                           mul_coeffs, newton_polygon, rem_coeffs)
from test_bench_workloads import lib as bench, plain_call


class Elt:
    """An element of ``alg`` (a tower level or a ``ReferenceCompositum``)
    with the whole ring algebra on its raw list: sums, negation and
    scalar multiples mod p^N, products by ``alg.mul``.  ``LocalElement``
    keeps only the product; the oracles need the rest."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg, coeffs=()):
        mod = alg.R.mod
        self.alg = alg
        self.coeffs = ([c % mod for c in coeffs]
                       + [0] * (alg.size - len(coeffs)))

    def _raw(self, other):
        if isinstance(other, int):
            return Elt(self.alg, [other]).coeffs
        assert isinstance(other, Elt) and other.alg is self.alg
        return other.coeffs

    def __add__(self, other):
        return Elt(self.alg, [a + b for a, b in
                              zip(self.coeffs, self._raw(other))])

    __radd__ = __add__

    def __neg__(self):
        return Elt(self.alg, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, int):
            return Elt(self.alg, [other * a for a in self.coeffs])
        return Elt(self.alg, self.alg.mul(self.coeffs, self._raw(other)))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Elt) and other.alg is self.alg
                and self.coeffs == other.coeffs)

    __hash__ = None

    def valuation(self):
        return self.alg.val(self.coeffs)


def horner(coeffs, x):
    """sum_k coeffs[k] x^k for a ``LocalElement`` x by Horner's rule: the
    element's own product, each constant added on the raw list."""
    mod = x.ring.R.mod
    acc = x.ring.zero()
    for c in reversed(coeffs):
        acc = acc * x
        acc.coeffs[0] = (acc.coeffs[0] + c) % mod
    return acc


def non_monic_seed(p, N):
    """p t + (1 + p) t^p: its h_n and d - q are not monic."""
    return LTSeed.from_coeffs(p, N, p + 2, [0, p] + [0] * (p - 2) + [1 + p])


def tower(p, N=40, kind="standard", trunc=None):
    if trunc is None:
        trunc = p + 2
    make = LTSeed.standard if kind == "standard" else LTSeed.multiplicative
    return EisensteinTower(make(p, N, trunc))


class TestTorsionPolys:
    def test_degrees(self):
        for p in (3, 5):
            t = tower(p)
            for n in (1, 2):
                h = t.h(n)
                assert h.degree == p ** (n - 1) * (p - 1)

    def test_h1_polygon(self):
        for p in (3, 5):
            for kind in ("standard", "multiplicative"):
                t = tower(p, kind=kind)
                poly = newton_polygon(t.h(1))
                assert poly.single_slope() is not None
                assert poly.single_slope().denominator == p - 1
                assert poly.single_slope().numerator == 1

    def test_constant_terms_are_uniformizers(self):
        for p in (3, 5):
            t = tower(p, kind="multiplicative")
            for n in (1, 2):
                assert t.h(n).coefficient(0).valuation() == 1

    def test_multiplicative_h1_is_cyclotomic(self):
        # for (1+t)^p - 1 the level-1 polynomial is the shifted
        # cyclotomic polynomial: h_1(t) = ((1+t)^p - 1)/t
        from math import comb

        p = 5
        t = tower(p, kind="multiplicative")
        h = t.h(1)
        assert [c for c in h.coeffs] == [comb(p, k + 1) for k in range(p)]

    def test_level_below_one_rejected(self):
        t = tower(3)
        with pytest.raises(ValidationError):
            t.h(0)
        t.build(2)
        for n in (0, -1):
            with pytest.raises(ValidationError):
                t.h(n)

    def test_nonpolynomial_seed_rejected(self):
        seed = LTSeed.from_coeffs(3, 20, 8, [0, 3, 0, 1, 3])
        with pytest.raises(ValidationError):
            EisensteinTower(seed).build(1)


def divided_torsion_polys(seed, n):
    """(levels, pin) as raw lists up to level n, by the build as first
    written: [pi^k] = d([pi^(k-1)]) by composition, and h_k its quotient
    by [pi^(k-1)], with the remainder checked to be zero."""
    d = seed.to_poly()
    prev = PadicPoly(seed.p, seed.N, [0, 1])
    levels, pin = [], []
    for k in range(1, n + 1):
        cur = d.compose_poly(prev)
        q, r = cur.divmod_unit(prev)
        assert r.is_zero(), f"[pi^{k}] is not divisible by [pi^{k - 1}]"
        levels.append(q.coeffs)
        pin.append(cur.coeffs)
        prev = cur
    return levels, pin


def check_against_division(seed, n):
    """The tower's levels and pin up to level n are the divided route's,
    byte for byte; where the build refuses a level, the levels it did
    certify are."""
    tw = EisensteinTower(seed)
    try:
        tw.build(n)
    except InvariantError:
        assert len(tw.levels) < n
    levels, pin = divided_torsion_polys(seed, len(tw.levels))
    assert [h.coeffs for h in tw.levels] == levels
    assert [x.coeffs for x in tw.pin] == pin
    return len(tw.levels)


class TestTorsionPolysAgainstDivision:
    """h_k = g([pi^(k-1)]) with g = d/t against the quotient
    [pi^k] / [pi^(k-1)] the build first computed."""

    @pytest.mark.parametrize("seed", range(8))
    def test_tower_workload_jobs(self, seed):
        for job in bench.WORKLOADS["tower"].generate(seed):
            q = job.params
            lt = LTSeed.from_coeffs(q["p"], q["N"], q["trunc"], q["coeffs"])
            assert check_against_division(lt, 2) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 20), st.sampled_from((1, 4)), st.data())
    def test_hypothesis_seeds_up_to_level_three(self, N, top, data):
        """p = 3, t^p coefficient 1 or 1 + p."""
        pi = 3 * data.draw(st.integers(1, 27).filter(lambda u: u % 3))
        mid = 3 * data.draw(st.integers(0, 27))
        check_against_division(LTSeed.from_coeffs(3, N, 5, [0, pi, mid, top]),
                               3)

    def test_no_division_and_one_seed_polynomial(self, monkeypatch):
        """A ``tower`` job at seed 0 forms d once per tower and divides
        no polynomial."""
        calls = []
        to_poly = LTSeed.to_poly

        def counting(self):
            calls.append(self)
            return to_poly(self)

        def refuse(*args):
            raise AssertionError("a polynomial was divided")

        monkeypatch.setattr(LTSeed, "to_poly", counting)
        monkeypatch.setattr(PadicPoly, "divmod_unit", refuse)
        wl = bench.WORKLOADS["tower"]
        for job in wl.generate(0):
            calls.clear()
            assert wl.check(job, wl.run(job, plain_call)) == []
            assert len(calls) == 1, job.id


class TestValuations:
    def test_examples(self):
        t = tower(5)
        assert t.lam(1).valuation() == 1
        assert t.element(1, [5]).valuation() == 4
        assert t.element(2, [0, 0, 5]).valuation() == 22

    def test_base_case(self):
        t = tower(5)
        assert PadicInt(5, 40, 75).valuation() == 2
        assert t.element(1, []).valuation() is None

    def test_multiplicative_law_random(self):
        rng = random.Random(41)
        p = 3
        t = tower(p)
        t.build(2)
        cap = t.degree(2) * (t.N - 4)
        for _ in range(150):
            a = t.element(2, [rng.randrange(3 ** 20) for _ in range(6)])
            b = t.element(2, [rng.randrange(3 ** 20) for _ in range(6)])
            va, vb = a.valuation(), b.valuation()
            if va is None or vb is None or va + vb >= cap:
                continue
            assert (a * b).valuation() == va + vb
            s = a.ring.val([(x + y) % t.R.mod
                            for x, y in zip(a.coeffs, b.coeffs)])
            if va != vb:
                assert s == min(va, vb)
            else:
                assert s is None or s >= va

    @pytest.mark.parametrize("p", (3, 5))
    @pytest.mark.parametrize("level", (1, 2))
    def test_products_are_divmod_remainders(self, p, level):
        """A tower product is the remainder of the polynomial product by
        h_n, on a seed whose t^p coefficient is 1 + p (h_n not monic)."""
        rng = random.Random(10 * p + level)
        N = 12
        t = EisensteinTower(non_monic_seed(p, N))
        h = t.h(level)
        assert h.coeffs[-1] != 1
        d = t.degree(level)
        for _ in range(20):
            a = t.element(level, [rng.randrange(p ** N) for _ in range(d)])
            b = t.element(level, [rng.randrange(p ** N) for _ in range(d)])
            prod = PadicPoly(p, N, a.coeffs) * PadicPoly(p, N, b.coeffs)
            _, r = prod.divmod_unit(h)
            assert list((a * b).coeffs) == r.coeffs + [0] * (d - len(r.coeffs))

    def test_defining_relation(self):
        # h_n(lambda_n) = 0 in the level-n ring
        for p in (3, 5):
            t = tower(p)
            for n in (1, 2):
                assert not any(horner(t.h(n).coeffs, t.lam(n)).coeffs)


def horner_filtration(tower, x):
    """The filtration step as first written: Horner's rule for d at x."""
    return horner(tower.seed.to_poly().coeffs, x)


class TestFiltration:
    def test_step_adds_one_base_unit(self):
        rng = random.Random(43)
        for p in (3, 5):
            t = tower(p)
            t.build(2)
            d = t.degree(2)
            for _ in range(30):
                coeffs = [p * rng.randrange(1, p ** 10) for _ in range(d)]
                x = t.element(2, coeffs)
                v = x.valuation()
                if v is None or v >= d * (t.N - 3):
                    continue
                assert filtration_step(t, x).valuation() == v + d

    def test_rejects_unit_points(self):
        t = tower(3)
        t.build(1)
        with pytest.raises(ValidationError):
            filtration_step(t, t.element(1, [1]))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((3, 5)), st.sampled_from((0, 1, 2)),
           st.sampled_from(("standard", "non-monic")),
           st.randoms(use_true_random=False))
    def test_matches_horner(self, p, level, kind, rng):
        """The step is the value of d at x by the power table, the same
        element (not only the same valuation) as Horner's rule; a base
        point is an element of level 0."""
        N = 16
        seed = (LTSeed.standard(p, N, p + 2) if kind == "standard"
                else non_monic_seed(p, N))
        t = EisensteinTower(seed)
        coeffs = [p * rng.randrange(p ** (N - 1))
                  for _ in range(t.degree(level))]
        x = t.element(level, coeffs)
        got, want = filtration_step(t, x), horner_filtration(t, x)
        assert got.coeffs == want.coeffs
        assert got.valuation() == want.valuation()


class TestDiscriminant:
    def test_values(self):
        for p in (3, 5):
            for kind in ("standard", "multiplicative"):
                t = tower(p, kind=kind)
                assert level_disc(t) == p * (p - 1)
                assert character_conductor_floor(t) == p

    def test_floor_units(self):
        t = tower(3)
        assert character_conductor_floor(t) == 3

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
    @pytest.mark.parametrize("kind", ("standard", "random"))
    def test_both_routes_up_to_13(self, p, kind):
        """Both routes give p(p-1) for t^p + p t and for a random
        Eisenstein seed, with the level-2 budget raised to p(p-1)."""
        if kind == "standard":
            seed = LTSeed.standard(p, 20, p + 2)
        else:
            rng = random.Random(p)
            coeffs = ([0, p * rng.randrange(1, p)]
                      + [p * rng.randrange(p ** 3) for _ in range(2, p)]
                      + [1 + p * rng.randrange(p)])
            seed = LTSeed.from_coeffs(p, 20, p + 2, coeffs)
        t = EisensteinTower(seed, max_degree=p * (p - 1))
        assert _disc_direct(t) == _disc_resultant(t) == p * (p - 1)
        assert level_disc(t) == p * (p - 1)
        assert character_conductor_floor(t) == p

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from((3, 5, 7)), st.randoms(use_true_random=False))
    def test_direct_route_is_horner(self, p, rng):
        """deg d' = p - 1 < deg h_2, so Horner at lambda_2 gives the
        level-2 element with d''s coefficients, which the direct route
        reads without a product."""
        coeffs = ([0, p * rng.randrange(1, p)]
                  + [p * rng.randrange(p ** 3) for _ in range(2, p)]
                  + [1 + p * rng.randrange(p)])
        t = EisensteinTower(LTSeed.from_coeffs(p, 20, p + 2, coeffs),
                            max_degree=p * (p - 1))
        dp = t.seed.to_poly().derivative().coeffs
        acc = horner(dp, t.lam(2))
        assert acc.coeffs == t.element(2, dp).coeffs
        assert _disc_direct(t) == acc.valuation() == p * (p - 1)

    def test_direct_route_multiplies_nothing(self, monkeypatch):
        t = tower(5)
        t.build(2)
        monkeypatch.setattr(LocalElement, "__mul__", None)
        monkeypatch.setattr(LocalElement, "__rmul__", None)
        assert _disc_direct(t) == 20

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_resultant_is_one_p_by_p_determinant(self, p, monkeypatch):
        """The resultant route runs ring_det once, on the p x p norm
        matrix, not on the (2p - 1)-square Sylvester matrix."""
        t = tower(p, N=20)
        dims = []
        det = local_tower.ring_det

        def recording(rows, *ring):
            dims.append((len(rows), {len(row) for row in rows}))
            return det(rows, *ring)

        monkeypatch.setattr(local_tower, "ring_det", recording)
        assert level_disc(t) == p * (p - 1)
        assert dims == [(p, {p})]

    def test_precision_cap_raises(self):
        """At p = 13, N = 12 the level-1 cap (p-1)N = 144 is below
        p(p-1) = 156: the resultant is zero at working precision, so the
        run raises (exit 3) instead of giving another number."""
        t = EisensteinTower(LTSeed.standard(13, 12, 15), max_degree=156)
        with pytest.raises(PrecisionError):
            level_disc(t)
        assert t.disc is None
        with pytest.raises(PrecisionError):
            character_conductor_floor(t)

    def test_certified_once(self, monkeypatch):
        t = tower(3)
        assert level_disc(t) == 6

        def fail(_):
            raise AssertionError("route rerun")

        monkeypatch.setattr(local_tower, "_disc_direct", fail)
        monkeypatch.setattr(local_tower, "_disc_resultant", fail)
        assert level_disc(t) == 6
        assert character_conductor_floor(t) == 3


class TestDivide:
    def test_depth_invariant(self):
        assert e_invariant(PadicInt(5, 40, 25)) == 2
        with pytest.raises(ValidationError):
            e_invariant(PadicInt(5, 40, 2))
        with pytest.raises(ValidationError):
            e_invariant(PadicInt(5, 40, 0))

    def test_immediate_ramification(self):
        t = tower(5)
        st = DivisionState.start(PadicInt(5, 40, 5))
        st = divide_point(t, st, 3)
        assert st.ramified_at == 1 and st.level == 1
        assert st.history == ()

    def test_split_then_ramify(self):
        t = tower(5)
        st = DivisionState.start(PadicInt(5, 40, 25))
        st1 = divide_point(t, st, 1)
        assert st1.ramified_at is None and len(st1.history) == 1
        # the division value actually divides: d(root) = t0
        root = st1.history[0]
        d = t.seed.to_poly()
        assert d.evaluate(root).congruent(st.t0, t.N - 2)
        assert root.valuation() == 1
        st2 = divide_point(t, st1, 5)
        assert st2.ramified_at == 2

    def test_cannot_continue_past_ramification(self):
        t = tower(3)
        st = divide_point(t, DivisionState.start(PadicInt(3, 40, 3)), 1)
        with pytest.raises(ValidationError):
            divide_point(t, st, 2)


# residues of valuation 1 in rings other than the (3, 20) tower's:
# another p, fewer digits, more digits
FOREIGN = (PadicInt(5, 4, 10), PadicInt(3, 6, 3), PadicInt(3, 21, 3))
FOREIGN_IDS = ("other-p", "fewer-digits", "more-digits")


class TestForeignResidues:
    """Tower operations refuse a residue of another ring instead of
    reading its raw value into the tower's; products refuse every scalar,
    of any ring."""

    @pytest.fixture(scope="class")
    def tw(self):
        return EisensteinTower(LTSeed.standard(3, 20, 8))

    @pytest.mark.parametrize("x", FOREIGN, ids=FOREIGN_IDS)
    def test_element_coefficients(self, tw, x):
        with pytest.raises(ValidationError):
            tw.element(1, [x])
        with pytest.raises(ValidationError):
            tw.element(1, [1, x])

    @pytest.mark.parametrize(
        "x", (7, PadicInt(3, 20, 7), PadicInt(7, 2, 10)) + FOREIGN,
        ids=("int", "own-ring", "other-p-short") + FOREIGN_IDS)
    def test_scale(self, tw, x):
        lam = tw.lam(1)
        for op in (lambda: lam * x, lambda: x * lam):
            with pytest.raises(ValidationError, match="no scalar product"):
                op()

    @pytest.mark.parametrize("x", FOREIGN, ids=FOREIGN_IDS)
    def test_conductor_division_value(self, tw, x):
        """A ramified state whose division value lies in another ring."""
        state = divide_point(tw, DivisionState.start(PadicInt(3, 20, 3)), 1)
        with pytest.raises(ValidationError, match="disagree on"):
            division_conductor(tw, replace(state, t0=x))

    @pytest.mark.parametrize("t0", FOREIGN, ids=FOREIGN_IDS)
    def test_divide_start_value(self, tw, t0):
        # e = 1 for all three: the step would ramify at once
        with pytest.raises(ValidationError):
            divide_point(tw, DivisionState.start(t0), 1)

    def test_own_ring_still_accepted(self, tw):
        x = PadicInt(3, 20, 7)
        assert tw.element(1, [x]).coeffs == tw.element(1, [7]).coeffs
        st = divide_point(tw, DivisionState.start(PadicInt(3, 20, 3)), 1)
        assert st.ramified_at == 1


class ReferenceCompositum:
    """The compositum Z_p[lambda, theta]/(h_1(lambda), d(theta) - q) as
    first written, before tower levels and the compositum shared one ring
    class: a flat Kronecker list with w = 2p - 1, lambda divided out by
    h_1(X^w) and then theta by d - q row by row, the gap slots reset.
    The library forms no compositum; this one is the oracles'."""

    def __init__(self, tower, q):
        R = self.R = tower.R
        p, mod = R.p, R.mod
        w = self.w = 2 * p - 1
        h1 = tower.h(1).coeffs
        self.h1w = [0] * ((len(h1) - 1) * w + 1)
        self.h1w[::w] = h1
        self.h1inv = pow(h1[-1], -1, mod)
        self.size = len(self.h1w) - 1
        d = tower.seed.to_poly().coeffs
        self.dq = [(d[0] - R.lift(q)) % mod] + d[1:]
        self.dinv = pow(d[-1], -1, mod)
        self.gap = [0] * (w - p)

    def mul(self, a, b):
        p, w, mod = self.R.p, self.w, self.R.mod
        c = mul_coeffs(a, b)
        rem_coeffs(c, self.h1w, self.h1inv, mod)
        out = []
        for s in range(0, self.size, w):
            row = c[s:s + w]
            rem_coeffs(row, self.dq, self.dinv, mod)
            row[p:] = self.gap
            out += row
        return out

    def val(self, coeffs):
        R, w = self.R, self.w
        p = R.p
        best = None
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            i, j = divmod(k, w)
            cand = i * p + j * (p - 1) + p * (p - 1) * R.val(c)
            if best is None or cand < best:
                best = cand
        return None if best is None or best >= p * (p - 1) * R.N else best

    def lam(self):
        return Elt(self, [0] * self.w + [1])

    def theta(self):
        return Elt(self, [0, 1])


class TestRingCheck:
    """Elements of two different rings are refused by the product."""

    @staticmethod
    def _pairs():
        tw = EisensteinTower(LTSeed.standard(3, 20, 8))
        other_p = EisensteinTower(LTSeed.standard(5, 20, 8))
        other_n = EisensteinTower(LTSeed.standard(3, 21, 8))
        return [(tw.element(0, [3]), tw.lam(1)),
                (tw.lam(1), tw.lam(2)),
                (tw.lam(1), other_p.lam(1)),
                (tw.lam(1), other_n.lam(1)),
                (tw.lam(1), EisensteinTower(LTSeed.standard(3, 20, 8)).lam(1))]

    @pytest.mark.parametrize("op", ("mul", "rmul"))
    def test_two_rings_refused(self, op):
        for x, y in self._pairs():
            with pytest.raises(ValidationError, match="different tower"):
                {"mul": lambda: x * y, "rmul": lambda: y * x}[op]()

    def test_negative_level_refused(self):
        with pytest.raises(ValidationError):
            tower(3).ring(-1)

    def test_too_many_coefficients_refused(self):
        t = tower(3)
        for ring in (t.ring(0), t.ring(1), t.ring(2)):
            LocalElement(ring, [0] * ring.size)
            with pytest.raises(ValidationError, match="more than"):
                LocalElement(ring, [0] * (ring.size + 1))

    def test_level_zero_is_the_base(self):
        t = tower(5)
        x = t.element(0, [50])
        assert (x * t.element(0, [3])).coeffs == [150]
        assert x.valuation() == PadicInt(5, 40, 50).valuation() == 2


class TestCompositum:
    @pytest.mark.parametrize("p", (3, 5))
    def test_moduli_vanish_for_non_monic_seed(self, p):
        """With t^p coefficient 1 + p, d(lambda) = lambda h_1(lambda) and
        theta (d(theta) - q) are zero in the reference compositum, whose
        theta modulus is the division step's polynomial d - q."""
        seed = non_monic_seed(p, 20)
        q = PadicInt(p, seed.N, p)
        ref = ReferenceCompositum(EisensteinTower(seed), q)
        assert ref.dq == (seed.to_poly() + PadicPoly(p, seed.N, [-p])).coeffs
        lam, theta = ref.lam(), ref.theta()
        assert not any(reference_eval_series(seed.d, [lam]).coeffs)
        d_theta = reference_eval_series(seed.d, [theta])
        assert not any((d_theta * theta - theta * q.value).coeffs)

    @pytest.mark.parametrize("p", (3, 5))
    def test_conductor_for_non_monic_seed(self, p):
        t = EisensteinTower(non_monic_seed(p, 40))
        st = divide_point(t, DivisionState.start(PadicInt(p, 40, p)), 1)
        rep = division_conductor(t, st)
        assert set(rep.deltas.values()) == {2}
        assert rep.conductor_exponent == 2

def elt_powers(x, D):
    """[1, x, ..., x^D] for an ``Elt`` x, by its products."""
    table = [Elt(x.alg, [1]), x]
    for _ in range(2, D + 1):
        table.append(table[-1] * x)
    return table


def horner_eval(series, x, y):
    """A two-variable series at the ``Elt`` pair (x, y), as the conductor
    evaluated F in the compositum before its theta-reduction: the columns
    {j: sum_i c_ij x^i}, scalar combinations of x's power table reduced
    once, then Horner in y, one product per power of y (Paterson and
    Stockmeyer, SIAM J. Comput. 2 (1973))."""
    alg = x.alg
    table = elt_powers(x, series.trunc)
    cols = {}
    for (i, j), c in series.coeffs.items():
        if not i + j:
            raise ValidationError("series must have no constant term")
        col = cols.setdefault(j, [0] * alg.size)
        for k, t in enumerate(table[i].coeffs):
            col[k] += c * t
    acc = Elt(alg)
    for j in range(max(cols, default=0), -1, -1):
        if j in cols:
            acc = acc + Elt(alg, cols[j])
        if j:
            acc = acc * y
    return acc


def reference_eval_series(series, points):
    """The evaluation as first written, at ``Elt`` points: one product per
    monomial, the points' powers rebuilt on every call."""
    acc = Elt(points[0].alg)
    pows = [dict() for _ in points]

    def pt_power(i, k):
        cache = pows[i]
        if k not in cache:
            cache[k] = points[i] if k == 1 else pt_power(i, k - 1) * points[i]
        return cache[k]

    for e, c in sorted(series.coeffs.items(), key=lambda kv: sum(kv[0])):
        if sum(e) == 0:
            raise ValidationError("series must have no constant term")
        term = None
        for i, k in enumerate(e):
            if k:
                pw = pt_power(i, k)
                term = pw if term is None else term * pw
        acc = acc + term * c
    return acc


@st.composite
def ring_point(draw, ring):
    """The raw list of a random element of the level ``ring`` of positive
    valuation: the constant coefficient is divisible by p."""
    R = ring.R
    x = [draw(st.integers(0, R.mod - 1)) for _ in range(ring.size)]
    x[0] = x[0] * R.p % R.mod
    return x


class TestEvalSeries:
    """One-variable scalar combinations of a shared power table, and the
    two-variable Horner oracle, against the evaluation with one product
    per monomial, in a tower level."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        p = data.draw(st.sampled_from((3, 5)))
        N = data.draw(st.integers(6, 20))
        D = data.draw(st.integers(p, 2 * p + 2))
        # t^p coefficient 1 or 1 + p: the non-monic seed is one case
        top = data.draw(st.sampled_from((1, 1 + p)))
        seed = LTSeed.from_coeffs(p, N, D, [0, p] + [0] * (p - 2) + [top])
        ring = EisensteinTower(seed).ring(data.draw(st.sampled_from((1, 2))))
        nvars = data.draw(st.sampled_from((1, 2)))
        exps = ([(k,) for k in range(1, D + 1)] if nvars == 1 else
                [(k - j, j) for k in range(1, D + 1) for j in range(k + 1)])
        series = TruncSeries(p, N, nvars, D, data.draw(st.dictionaries(
            st.sampled_from(exps), st.integers(0, ring.R.mod - 1))))
        points = [Elt(ring, data.draw(ring_point(ring)))
                  for _ in range(nvars)]
        if nvars == 1:
            x = LocalElement(ring, points[0].coeffs)
            got = ring.eval_series(series, ring.powers(x, D))
        else:
            got = horner_eval(series, *points)
        want = reference_eval_series(series, points)
        assert got.coeffs == want.coeffs

    def test_constant_term_rejected(self):
        seed = non_monic_seed(3, 20)
        ring = EisensteinTower(seed).ring(1)
        series = TruncSeries(3, seed.N, 1, seed.trunc, {(0,): 1, (1,): 1})
        with pytest.raises(ValidationError, match="constant term"):
            ring.eval_series(series, ring.powers(ring.lam(), seed.trunc))


def level1_displacements(tower, q):
    """Yield (a, theta - F(theta, t_a)) for a = 1, ..., p - 1, where
    t_a = [a](lambda) is the torsion translate and each displacement is a
    raw element of ``ReferenceCompositum(tower, q)``: the conductor's
    route before the head and tail bound, kept as its oracle.

    f = d - q and F have scalar coefficients and t_a lies in level 1, so
    F(theta, t_a) = sum_(k<p) theta^k Q_k(t_a) with
    Q_k(Y) = sum_j E[k][j] Y^j: each theta^i is reduced mod f to scalars
    s_ik once, and E[k][j] = sum_i c_ij s_ik.  The compositum is free over
    level 1 on 1, theta, ..., theta^(p-1), so Q_k(t_a) laid out in the
    theta^k slots is the reduced element that evaluating F in the
    compositum gives.  t_1 = lambda: [1](t) = t exactly, so it takes the
    table of lambda's powers and no solve.  t_a's valuation is read in
    the compositum before its displacement is formed."""
    p, seed, level = tower.p, tower.seed, tower.ring(1)
    ref = ReferenceCompositum(tower, q)
    mod, w, f, D = tower.R.mod, ref.w, ref.dq, seed.trunc
    finv = pow(f[-1], -1, mod)
    b = len(f) - 1
    s = []  # s[i] = theta^i mod f, as b scalars
    for i in range(D + 1):
        c = [0] * max(i + 1, b)
        c[i] = 1
        rem_coeffs(c, f, finv, mod)
        s.append(c[:b])
    E = [[0] * (D + 1) for _ in range(b)]
    for (i, j), c in group_law(seed).F.coeffs.items():
        for k, x in enumerate(s[i]):
            E[k][j] += c * x
    E = [[x % mod for x in row] for row in E]
    lams = level.powers(level.lam(), D)
    for a in range(1, p):
        tv = lams[1] if a == 1 else level.eval_series(endo(seed, a), lams)
        disp = [0] * ref.size
        disp[::w] = tv.coeffs
        if ref.val(disp) != p:
            raise InvariantError(
                f"torsion value [{a}] does not have valuation {p}"
            )
        tvs = lams if a == 1 else level.powers(tv, D)
        for k, row in enumerate(E):
            acc = [0] * level.size
            for e, y in zip(row, tvs):
                if e:
                    for i, x in enumerate(y.coeffs):
                        acc[i] += e * x
            disp[k::w] = [-x % mod for x in acc]
        disp[1] = (disp[1] + 1) % mod
        yield a, disp


def reference_displacements(tower, q):
    """(a, theta - F(theta, [a](lambda))) for each a, evaluated in the
    reference compositum as the conductor did before its theta-reduction
    ([a](lambda) from the powers of lambda, F by ``horner_eval``)."""
    seed, p = tower.seed, tower.p
    ref = ReferenceCompositum(tower, q)
    F = group_law(seed).F
    lam, theta = ref.lam(), ref.theta()
    for a in range(1, p):
        tv = reference_eval_series(endo(seed, a), [lam])
        if tv.valuation() != p:
            raise InvariantError(f"torsion value [{a}] lost its valuation")
        disp = theta - horner_eval(F, theta, tv)
        yield a, disp.coeffs


def displacement_outcomes(route, tower, q):
    """The route's displacements in order, ending with the class of what
    it raised, if it raised."""
    out = []
    try:
        out += [(a, disp) for a, disp in route(tower, q)]
    except Exception as exc:  # the class is compared across routes
        out.append(type(exc))
    return out


@st.composite
def seed_coeffs(draw):
    """(p, N, D, coeffs) of a degree-p seed: p in {3, 5, 7}, N in 2-20,
    D in {p + 2, 2p}, t^p coefficient 1 or 1 + p (the non-monic case)."""
    p = draw(st.sampled_from((3, 5, 7)))
    N = draw(st.integers(2, 20))
    D = draw(st.sampled_from((p + 2, 2 * p)))
    top = draw(st.sampled_from((1, 1 + p)))
    pi = p * draw(st.integers(1, p ** 3).filter(lambda u: u % p))
    mid = [p * draw(st.integers(0, p ** 3)) for _ in range(2, p)]
    return p, N, D, [0, pi] + mid + [top]


class TestDisplacements:
    @settings(max_examples=40, deadline=None)
    @given(seed_coeffs(), st.data())
    def test_match_compositum_horner(self, case, data):
        """For every a, theta - F(theta, [a](lambda)) formed over level 1
        is the element the compositum Horner gives, or both routes raise
        the same class."""
        p, N, D, coeffs = case
        tw = EisensteinTower(LTSeed.from_coeffs(p, N, D, coeffs))
        q = PadicInt(p, N, p * data.draw(st.integers(1, p ** (N - 1) - 1)))
        got = displacement_outcomes(level1_displacements, tw, q)
        assert got == displacement_outcomes(reference_displacements, tw, q)

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_standard_seed(self, p):
        t = tower(p, N=20, trunc=2 * p)
        q = PadicInt(p, 20, p)
        got = displacement_outcomes(level1_displacements, t, q)
        assert [a for a, _ in got] == list(range(1, p))
        assert got == displacement_outcomes(reference_displacements, t, q)


class TestConductor:
    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_no_compositum_product(self, p, monkeypatch):
        """The conductor multiplies nothing: no element product and no raw
        ``TowerRing.mul`` in any level."""
        t = tower(p, trunc=2 * p)
        state = divide_point(t, DivisionState.start(PadicInt(p, 40, p)), 1)
        rings = []
        elem_mul, ring_mul = LocalElement.__mul__, TowerRing.mul

        def elem(self, other):
            rings.append(self.ring)
            return elem_mul(self, other)

        def raw(self, x, y):
            rings.append(self)
            return ring_mul(self, x, y)

        monkeypatch.setattr(LocalElement, "__mul__", elem)
        monkeypatch.setattr(LocalElement, "__rmul__", elem)
        monkeypatch.setattr(TowerRing, "mul", raw)
        rep = division_conductor(t, state)
        assert set(rep.deltas.values()) == {2}
        assert rings == []

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_no_lubin_tate_solve(self, p, monkeypatch):
        """The bound needs only the linear terms of F and [a], so neither
        is solved."""
        t = tower(p, trunc=2 * p)
        state = divide_point(t, DivisionState.start(PadicInt(p, 40, p)), 1)

        def refuse(*args):
            raise AssertionError("the conductor solved a series")

        monkeypatch.setattr(local_tower, "group_law", refuse)
        monkeypatch.setattr(local_tower, "endo", refuse)
        monkeypatch.setattr(lubin_tate, "_lt_solve", refuse)
        rep = division_conductor(t, state)
        assert rep.deltas == {a: 2 for a in range(1, p)}

    def test_builds_no_ring_and_values_nothing(self, monkeypatch):
        """The weights come from the two certificates: past the level-1
        build, the conductor builds no ring and values no element."""
        t = tower(5)
        state = divide_point(t, DivisionState.start(PadicInt(5, 40, 5)), 1)
        t.build(1)

        def refuse(*args):
            raise AssertionError("the conductor used a ring")

        monkeypatch.setattr(TowerRing, "__init__", refuse)
        monkeypatch.setattr(TowerRing, "val", refuse)
        assert division_conductor(t, state).deltas == {1: 2, 2: 2, 3: 2, 4: 2}

    @pytest.mark.parametrize("segments", (
        ((Fraction(1, 4), 4),),
        ((Fraction(1, 3), 3), (Fraction(1, 2), 2)),
        ((Fraction(1, 7), 7),),
    ), ids=("h1-polygon", "two-segments", "other-p"))
    def test_reads_the_division_certificate(self, segments):
        """ord lambda is the length of the division step's one segment: a
        state whose certificate is not one segment of length p = 5 (h_1's
        polygon, two segments, a step at p = 7) is refused."""
        t = tower(5)
        state = divide_point(t, DivisionState.start(PadicInt(5, 40, 5)), 1)
        assert state.certificate.segments == ((Fraction(1, 5), 5),)
        bad = replace(state, certificate=NewtonPolygon(segments, 0))
        with pytest.raises(InvariantError, match="lost their valuations"):
            division_conductor(t, bad)

    def test_all_jumps_two(self):
        for p in (3, 5):
            for kind in ("standard", "multiplicative"):
                t = tower(p)
                st = divide_point(
                    t, DivisionState.start(PadicInt(p, 40, p)), 1)
                rep = division_conductor(t, st)
                assert set(rep.deltas.values()) == {2}
                assert rep.disc_exponent == 2 * (p - 1)
                assert rep.conductor_exponent == 2
                assert rep.break_value == 1

    def test_depth_two(self):
        p = 5
        t = tower(p)
        st = divide_point(
            t, DivisionState.start(PadicInt(p, 40, p * p)), 5)
        rep = division_conductor(t, st)
        assert rep.e == 2 and rep.conductor_exponent == 2
        assert any("assumption" in line for line in rep.provenance)

    def test_kummer_cross_check(self):
        # independent route for the multiplicative seed: dividing the
        # point w = 1 + t0 is a Kummer extension of the cyclotomic
        # field, whose conductor exponent is p - m + 1 where m is the
        # lambda-valuation of w - 1 = t0
        for p in (3, 5):
            t = tower(p, kind="multiplicative")
            t0 = PadicInt(p, 40, p)
            st = divide_point(t, DivisionState.start(t0), 1)
            rep = division_conductor(t, st)
            m = t.element(1, [t0]).valuation()
            assert m == (p - 1) * t0.valuation()
            assert rep.conductor_exponent == p - m + 1

    def test_requires_ramified_state(self):
        t = tower(3)
        with pytest.raises(ValidationError):
            division_conductor(t, DivisionState.start(PadicInt(3, 40, 9)))


def oracle_conductor(tower, state):
    """The report ``division_conductor`` gave before its head and tail
    bound: each jump read off the whole displacement that
    ``level1_displacements`` forms, solving F and every [a]."""
    p, q = tower.p, state.last()
    ref = ReferenceCompositum(tower, q)
    if ref.theta().valuation() != p - 1 or ref.lam().valuation() != p:
        raise InvariantError("compositum generators lost their valuations")
    deltas = {}
    for a, disp in level1_displacements(tower, q):
        v = ref.val(disp)
        if v is None:
            raise PrecisionError("Galois displacement vanished")
        deltas[a] = p + v - 2 * (p - 1)
        if deltas[a] != 2:
            raise InvariantError(f"jump for translate [{a}] is not 2")
    disc = sum(deltas.values())
    if disc != 2 * (p - 1) or deltas[1] != disc // (p - 1):
        raise InvariantError("conductor routes disagree")
    prov = [
        f"jumps: theta displacement under torsion translation, seed degree "
        f"{tower.seed.p}, division value of valuation {q.valuation()}",
        "conductor: break+1 and disc/(p-1) agree",
    ]
    if state.e > 1:
        prov.append(
            f"exponent computed at the first level; equality at level "
            f"{state.e} is recorded as an assumption, not recomputed"
        )
    return local_tower.ConductorReport(
        p=p, e=state.e, deltas=deltas, break_value=deltas[1] - 1,
        disc_exponent=disc, conductor_exponent=deltas[1],
        provenance=tuple(prov))


def conductor_case(p, N, D, coeffs, t0, e):
    """The tower of the seed with ``coeffs`` at (p, N, D), and t0 divided
    up to its ramified level e."""
    tw = EisensteinTower(LTSeed.from_coeffs(p, N, D, coeffs))
    return tw, divide_point(tw, DivisionState.start(PadicInt(p, N, t0)), e)


def conductor_outcome(route, tower, state):
    """The route's report as JSON, or the exception it raised."""
    try:
        return route(tower, state).to_json()
    except Exception as exc:  # the class is compared across routes
        return exc


def solve_exhausted(outcome):
    return (isinstance(outcome, PrecisionError)
            and "effective precision exhausted" in str(outcome))


def check_against_oracle(p, N, D, coeffs, t0, e):
    """The head-and-tail report is the oracle's, or both raise the same
    class; where only the oracle's solves ran short of precision, the
    report is the oracle's at the least N + k where it certifies."""
    case = conductor_case(p, N, D, coeffs, t0, e)
    got = conductor_outcome(division_conductor, *case)
    want = conductor_outcome(oracle_conductor, *case)
    k = 0
    while solve_exhausted(want):
        k += 1
        assert k <= 40, "the oracle never certifies"
        want = conductor_outcome(oracle_conductor,
                                 *conductor_case(p, N + k, D, coeffs, t0, e))
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
    else:
        assert got == want
    return k


class TestConductorAgainstOracle:
    """``division_conductor`` against the displacement route it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    def test_tower_workload_jobs(self, seed):
        for job in bench.WORKLOADS["tower"].generate(seed):
            q = job.params
            assert check_against_oracle(q["p"], q["N"], q["trunc"],
                                        q["coeffs"], q["t0"], q["e"]) == 0

    @settings(max_examples=60, deadline=None)
    @given(seed_coeffs(), st.data())
    def test_hypothesis_seeds(self, case, data):
        p, N, D, coeffs = case
        e = data.draw(st.integers(1, 2 if N > 2 else 1))
        t0 = p ** e * data.draw(st.integers(1, p ** 3).filter(
            lambda u: u % p))
        try:
            conductor_case(p, N, D, coeffs, t0, e)
        except (PrecisionError, HenselError):
            return  # no ramified state to take a conductor of
        check_against_oracle(p, N, D, coeffs, t0, e)

    def test_short_precision_certifies(self):
        """At N = 2 the oracle's group-law solve runs short; the head and
        tail bound gives the report the oracle gives once it certifies."""
        assert check_against_oracle(5, 2, 7, [0, 5, 0, 0, 0, 1], 5, 1) > 0


class TestHeadValuation:
    """p = 3, N = 6: ord lambda = 3, ord theta = 2, the tail bound
    2 min = 4 and the cap 6 N = 36."""

    def test_certified_only_below_cap_and_tail(self):
        assert _head_valuation(3, 36, 4) == 3

    @pytest.mark.parametrize("v", (4, 5))
    def test_tail_bound_reached(self, v):
        with pytest.raises(PrecisionError, match="tail bound 4"):
            _head_valuation(v, 36, 4)

    @pytest.mark.parametrize("v", (None, 36, 37))
    def test_capped_head_vanished(self, v):
        with pytest.raises(PrecisionError, match="vanished"):
            _head_valuation(v, 36, 40)


class TestBoundPremises:
    """The tail bound rests on F(X, 0) = X, F(0, Y) = Y and
    [a](t) = a t + higher; checked on the solver's output."""

    @settings(max_examples=40, deadline=None)
    @given(seed_coeffs())
    def test_law_and_translates_are_linear_on_the_axes(self, case):
        p, N, D, coeffs = case
        seed = LTSeed.from_coeffs(p, N, D, coeffs)
        try:
            F = group_law(seed).F
        except PrecisionError:
            return  # the solve ran short: no series to check
        assert F.coefficient((1, 0)).value == 1
        assert F.coefficient((0, 1)).value == 1
        assert not any(c for (i, j), c in F.coeffs.items()
                       if i + j >= 2 and not (i and j))
        for a in range(1, p):
            assert endo(seed, a).coefficient((1,)).value == a
