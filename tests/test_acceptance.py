"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line with its elapsed time and staying inside its budget."""

import itertools
import json
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest

from cmtower.cm_split import CMField  # noqa: F401  (import check)
from cmtower.elliptic_fg import (WeierstrassCurve, curve_group_law,
                                 cm_endo_elliptic, frobenius_candidates,
                                 frobenius_check, gauss_embed_root,
                                 match_lubin_tate, point_count_ap)
from cmtower.galois_model import tower_indices
from cmtower.local_tower import (DivisionState, EisensteinTower,
                                 character_conductor_floor, divide_point,
                                 division_conductor,
                                 filtration_step, level_disc)
from cmtower.lubin_tate import LTSeed, endo, group_law
from cmtower.padic import (PadicInt, TruncSeries, compositional_inverse,
                           newton_polygon)
from cmtower.unit_wedge import CftOracle, UnitJet, combine, reduce_wedge


@contextmanager
def criterion(number: int, label: str, budget: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"CRITERION {number}: FAIL ({label}, {elapsed:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed <= budget else "FAIL"
    print(f"CRITERION {number}: {status} ({label}, {elapsed:.2f}s, "
          f"budget {budget:.0f}s)")
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s"


def _random_seed(rng, p, N, trunc):
    pi = p * rng.randrange(1, p)
    coeffs = [0, pi]
    for k in range(2, trunc + 1):
        if k == p:
            coeffs.append(1 + p * rng.randrange(p))
        elif rng.random() < 0.35:
            coeffs.append(p * rng.randrange(1, p * p))
        else:
            coeffs.append(0)
    return LTSeed.from_coeffs(p, N, trunc, coeffs)


def test_criterion_1_multiplicative_oracle():
    """The multiplicative seed's group law must be X + Y + XY at D=20."""
    for p in (3, 5, 7):
        with criterion(1, f"multiplicative law p={p} D=20", 1.0):
            seed = LTSeed.multiplicative(p, 32, 20)
            F = group_law(seed).F
            assert F.coeffs == {(1, 0): 1, (0, 1): 1, (1, 1): 1}


def test_criterion_2_random_seed_axioms():
    """20 random seeds per p in {3,5} at D=15: group-law axioms and the
    ring laws of the endomorphisms."""
    with criterion(2, "random seed axioms + endo ring laws", 30.0):
        rng = random.Random(101)
        for p in (3, 5):
            for _ in range(20):
                seed = _random_seed(rng, p, 27, 15)
                G = group_law(seed)
                F = G.F
                # linear part and commutativity
                assert F.coeffs[(1, 0)] == 1 and F.coeffs[(0, 1)] == 1
                assert {(b, a): c for (a, b), c in F.coeffs.items()} == F.coeffs
                # identity section F(X, 0) = X
                x = TruncSeries.variable(p, seed.N, 1, 15, 0)
                z = TruncSeries(p, seed.N, 1, 15, {})
                fx0 = G.add(x, z)
                assert fx0.coeffs == x.coeffs
                # endo ring laws on random multipliers
                a = PadicInt(p, seed.N, rng.randrange(1, p ** 3))
                b = PadicInt(p, seed.N, rng.randrange(1, p ** 3))
                ea, eb = endo(seed, a), endo(seed, b)
                sum_series = G.add(ea, eb)
                assert sum_series.congruent(endo(seed, a + b))
                assert ea.compose([eb]).congruent(endo(seed, a * b))
                # the seed's own uniformizer endo is the seed series
                assert endo(seed, seed.pi_val).congruent(seed.d)


def test_criterion_3_torsion_polynomials():
    """Torsion polynomial degrees and the level-1 Newton slope."""
    with criterion(3, "torsion degrees + h_1 polygon", 5.0):
        for p in (3, 5):
            for kind in ("standard", "multiplicative"):
                make = getattr(LTSeed, kind)
                tower = EisensteinTower(make(p, 40, p + 2))
                for n in (1, 2):
                    h = tower.h(n)
                    assert h.degree == p ** (n - 1) * (p - 1)
                    assert h.coefficient(0).valuation() == 1
                poly = newton_polygon(tower.h(1))
                assert poly.single_slope() == Fraction(1, p - 1)


def test_criterion_4_discriminants():
    """Level-2 discriminant p(p-1) and conductor floor p, dual-route."""
    for p in (3, 5):
        for kind in ("standard", "multiplicative"):
            with criterion(4, f"disc/floor p={p} {kind} N=40", 10.0):
                make = getattr(LTSeed, kind)
                tower = EisensteinTower(make(p, 40, p + 2))
                assert level_disc(tower) == p * (p - 1)
                assert character_conductor_floor(tower) == p


def test_criterion_5_filtration():
    """100 random kernel-of-reduction points per p: the seed action
    raises the valuation by exactly one base unit."""
    for p in (3, 5):
        with criterion(5, f"filtration steps p={p}", 5.0):
            rng = random.Random(103)
            tower = EisensteinTower(LTSeed.standard(p, 40, p + 2))
            tower.build(2)
            d = tower.degree(2)
            checked = 0
            while checked < 100:
                coeffs = [p * rng.randrange(1, p ** 12) for _ in range(d)]
                x = tower.element(2, coeffs)
                v = x.valuation()
                if v is None or v >= d * (tower.N - 3):
                    continue
                assert filtration_step(tower, x).valuation() == v + d
                checked += 1


def test_criterion_6_division_and_conductor():
    """Division dichotomy for depths e in {1,2}, all jumps 2,
    discriminant 2(p-1), conductor 2; independent Kummer-theory route
    for the multiplicative seed."""
    for p in (3, 5):
        for e in (1, 2):
            with criterion(6, f"division conductor p={p} e={e}", 60.0):
                for kind in ("standard", "multiplicative"):
                    make = getattr(LTSeed, kind)
                    tower = EisensteinTower(make(p, 40, p + 2))
                    t0 = PadicInt(p, 40, p ** e)
                    st = DivisionState.start(t0)
                    assert st.e == e
                    st = divide_point(tower, st, 5)
                    # dichotomy: split for e-1 levels, ramified at e
                    assert len(st.history) == e - 1
                    assert st.ramified_at == e
                    rep = division_conductor(tower, st)
                    assert set(rep.deltas.values()) == {2}
                    assert rep.disc_exponent == 2 * (p - 1)
                    assert rep.conductor_exponent == 2
                    if kind == "multiplicative" and e == 1:
                        # Kummer route: conductor p - m + 1 with m the
                        # level-1 valuation of w - 1 = t0
                        m = tower.element(1, [t0]).valuation()
                        assert m == p - 1
                        assert rep.conductor_exponent == p - m + 1


def test_criterion_7_galois_indices():
    """Division-field indices p^n with cyclic quotients for p in {3,5},
    m <= 3, 1 <= n <= m."""
    with criterion(7, "galois model indices", 10.0):
        for p in (3, 5):
            for m in (1, 2, 3):
                for n in range(1, m + 1):
                    out = tower_indices(p, m, n)
                    assert out["index"] == p ** n
                    assert out["cyclic"]
                    assert out["order_full"] == p ** m * p ** (m - 1) * (p - 1)


def _is_ladder(jets, s):
    for k, jet in enumerate(jets):
        for i in range(1, s - k):
            if not jet.clean_at(i):
                return False
    return True


def _word(v, w, a, b):
    """The jet of v^a w^b."""
    return UnitJet(v.p, tuple(a * x + b * y
                              for x, y in zip(v.alphas, w.alphas)))


def test_criterion_8_wedge_engine():
    """combine exhaustively for p in {3,5,7}; exhaustive reduction at
    p=3 for s in {2,3} with ladder shape, unimodular determinant and a
    single oracle call; the transform applied to the initial jets
    reaches the final jets; and brute-force reachability of the final
    ladder by a unimodular matrix at p=3, s=2."""
    with criterion(8, "wedge engine", 120.0):
        for p in (3, 5, 7):
            for alpha in range(p):
                for beta in range(p):
                    v = UnitJet(p, (alpha,))
                    w = UnitJet(p, (beta,))
                    a, b = combine(v, w, 0)
                    assert gcd(a, b) == 1
                    assert _word(v, w, a, b).clean_at(0)

        p = 3
        for s in (2, 3):
            space = list(itertools.product(range(p), repeat=s))
            for rows in itertools.product(space, repeat=s):
                jets = tuple(UnitJet(p, r) for r in rows)
                oracle = CftOracle("axiom")
                tr = reduce_wedge(jets, oracle)
                assert tr.trivial
                assert len(oracle.log) == 1
                assert _is_ladder(tr.final, s)
                assert tr.final[0].alphas == (0,) * s
                assert tr.cumulative_det() in (1, -1)
                replayed = tr.replay()
                assert tuple(j.alphas for j in replayed) == \
                    tuple(j.alphas for j in tr.final)

        # brute-force reachability at p=3, s=2: some unimodular integer
        # matrix with small entries takes the initial jets to a ladder
        unimods = [
            ((a, b), (c, d))
            for a in range(-3, 4) for b in range(-3, 4)
            for c in range(-3, 4) for d in range(-3, 4)
            if a * d - b * c in (1, -1)
        ]
        for rows in itertools.product(list(itertools.product(range(3),
                                                             repeat=2)),
                                      repeat=2):
            jets = tuple(UnitJet(3, r) for r in rows)
            found = False
            for (a, b), (c, d) in unimods:
                top = _word(jets[0], jets[1], a, b)
                if top.clean_at(1):
                    found = True
                    break
            assert found, f"no unimodular ladder for {rows}"
            # and the transcript's cumulative matrix is such a witness
            tr = reduce_wedge(jets, CftOracle("axiom"))
            mat = tr.transform
            top = _word(jets[0], jets[1], mat[0][0], mat[0][1])
            assert top.clean_at(1)


def test_criterion_9_elliptic_bridge():
    """The p=13 CM fixture end to end: trace, unique Frobenius
    associate, embedded uniformizer seed, strict isomorphism."""
    with criterion(9, "elliptic CM bridge p=13 D=20", 120.0):
        curve = WeierstrassCurve(-1, 0)
        data = curve_group_law(curve, 20, p=13)
        assert Fraction(data.log.num[5], data.log.den) == Fraction(-2, 5)
        ap = point_count_ap(curve, 13)
        assert ap == 6
        root = gauss_embed_root(13, 30)
        reports = [frobenius_check(data, c, root)
                   for c in frobenius_candidates(ap, root)]
        passing = [r for r in reports if r["passes"]]
        assert len(passing) == 1 and passing[0]["alpha"] == (3, 2)
        assert passing[0]["linear_valuation"] == 1
        # [i](z) = i z: zero numerators but the imaginary one at degree 1
        series = cm_endo_elliptic(data, (0, 1))
        assert series == ([0] * 21, [0, 1] + [0] * 19, 1)
        iso = match_lubin_tate(data, passing[0])
        assert iso.coefficient((1,)).value == 1
        assert iso.coefficient((1,)).is_unit()
        comp = iso.compose([compositional_inverse(iso)])
        assert comp.coeffs == {(1,): 1}


def test_criterion_10_cli_determinism():
    """Every fixture command produces byte-identical reports (timing
    excluded) across repeated runs."""
    from cmtower.cli import RunConfig, dispatch

    config_dir = os.path.join(os.path.dirname(__file__), "..", "configs")
    fixtures = [
        ("lt-group-law", "lt_p5.ini"),
        ("lt-endo", "lt_p5.ini"),
        ("lt-iso", "lt_p5.ini"),
        ("cm-embed", "gauss_p5.ini"),
        ("cm-pi", "gauss_p5.ini"),
        ("tower-build", "tower_mult_p5.ini"),
        ("tower-disc", "tower_mult_p5.ini"),
        ("tower-conductor", "tower_mult_p5.ini"),
        ("divide", "tower_mult_p5.ini"),
        ("wedge-reduce", "wedge_p5_s2.ini"),
        ("wedge-extend", "wedge_p5_s2.ini"),
        ("galois-orders", "galois_p3.ini"),
        ("elliptic-fg", "elliptic_p13.ini"),
        ("elliptic-match", "elliptic_p13.ini"),
    ]
    with criterion(10, "CLI determinism across all fixtures", 120.0):
        for command, config in fixtures:
            path = os.path.join(config_dir, config)
            texts = []
            for _ in range(2):
                cfg = RunConfig.load(command, path, {})
                report = dispatch(cfg)
                report.pop("timing")
                texts.append(json.dumps(report, indent=2, sort_keys=True))
            assert texts[0] == texts[1], command
