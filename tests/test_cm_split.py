"""Split CM fields: validation, CRT coordinates and the uniformizer
search, which is what cm-embed and cm-pi report, and their agreement at
precisions N and N + 5."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cmtower.cm_split import CMField, _shell, embed, pick_pi
from cmtower.errors import PrecisionError, ValidationError
from cmtower.padic import PadicInt, PadicPoly, mul_coeffs
from test_padic import resultant_valuation


def gauss_field(p=5, N=14):
    """Q(i) with the default automorphism pair {identity, conjugation}."""
    return CMField([1, 0, 1], p, N, conj=[0, -1], cm_type=[0])


def cyclotomic5_field(N=14):
    """The degree-4 field on x^4 + x^3 + x^2 + x + 1 at p = 11, with
    automorphisms x -> x^k and CM type {1, 2}."""
    return CMField(
        [1, 1, 1, 1, 1], 11, N,
        conj=[0, 0, 0, 0, 1],
        cm_type=[1, 2],
        autos=[[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]],
    )


class TestCMField:
    def test_gauss_roots(self):
        K = gauss_field()
        assert [r.value % 5 for r in K.roots] == [2, 3]
        assert K.roots[0].value % 5 ** 3 == 57
        assert K.roots[1].value % 5 ** 3 == 68

    def test_root_index_refuses_another_ring(self):
        K = gauss_field()
        assert K.root_index(PadicInt(5, 14, 3)) == 1
        for x in (PadicInt(7, 5, 3), PadicInt(5, 3, 3)):
            with pytest.raises(ValidationError):
                K.root_index(x)

    def test_inert_prime_rejected(self):
        # x^2 + 1 is irreducible mod 7
        with pytest.raises(ValidationError):
            CMField([1, 0, 1], 7, 14, conj=[0, -1], cm_type=[0])

    def test_conj_must_be_involution(self):
        with pytest.raises(ValidationError):
            CMField([1, 0, 1], 5, 14, conj=[0, 1], cm_type=[0])

    def test_cm_type_conjugate_pair_rejected(self):
        with pytest.raises(ValidationError):
            CMField(
                [1, 1, 1, 1, 1], 11, 14,
                conj=[0, 0, 0, 0, 1],
                cm_type=[0, 1],  # labels 0 and 1 are a conjugate pair
                autos=[[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]],
            )

    def test_degree4_labels_and_orbits(self):
        K = cyclotomic5_field()
        assert [r.value % 11 for r in K.roots] == [3, 4, 5, 9]
        assert set(K.perm_by_label) == {0, 1, 2, 3}
        assert sorted(K.cm_type) == [1, 2]

    def test_perms_compose_like_automorphisms(self):
        K = cyclotomic5_field()
        # the permutations form a group: composing two labeled perms
        # gives another labeled perm
        perms = set(K.perm_by_label.values())
        for a in perms:
            for b in perms:
                assert tuple(a[b[i]] for i in range(4)) in perms


class TestEmbed:
    def test_example_valuations(self):
        K = gauss_field()
        vec = embed(K, K.element([2, 1]))
        assert [x.valuation() for x in vec] == [0, 1]

    def test_ring_homomorphism_random(self):
        rng = random.Random(31)
        K = cyclotomic5_field()
        for _ in range(200):
            ca = [rng.randrange(-50, 50) for _ in range(4)]
            cb = [rng.randrange(-50, 50) for _ in range(4)]
            ea, eb = embed(K, K.element(ca)), embed(K, K.element(cb))
            total = K.element([x + y for x, y in zip(ca, cb)])
            for x, y, z in zip(embed(K, total), ea, eb):
                assert x == y.value + z.value
            product = K.element(mul_coeffs(ca, cb))
            for x, y, z in zip(embed(K, product), ea, eb):
                assert x == y.value * z.value

    def test_valuation_sum_matches_resultant(self):
        # sum of coordinate valuations of alpha = ord Res(f, alpha)
        rng = random.Random(37)
        K = gauss_field(N=18)
        f = PadicPoly(K.p, K.N, K.f)
        for _ in range(40):
            coeffs = [rng.randrange(-30, 30), rng.randrange(-30, 30)]
            if not any(coeffs):
                continue
            alpha = K.element(coeffs)
            vals = [x.valuation() for x in embed(K, alpha)]
            g = PadicPoly(K.p, K.N, list(coeffs))
            want = resultant_valuation(f, g)
            if None in vals or want is None:
                continue
            assert sum(vals) == want


class TestPickPi:
    def test_gauss_uniformizers(self):
        K = gauss_field()
        for idx in (0, 1):
            pi = pick_pi(K, idx)
            vec = [x.valuation() for x in embed(K, pi)]
            assert vec[idx] == 1
            assert all(v == 0 for i, v in enumerate(vec) if i != idx)

    def test_deterministic(self):
        K = gauss_field()
        assert pick_pi(K, 0).coeffs == pick_pi(K, 0).coeffs

    def test_degree4(self):
        K = cyclotomic5_field()
        pi = pick_pi(K, 2)
        vec = [x.valuation() for x in embed(K, pi)]
        assert vec[2] == 1 and vec.count(0) == 3

    @pytest.mark.parametrize("idx,coeffs", (
        (0, (-2, 0, -1)), (1, (-2, 0, 0, -1)), (2, (-1, -2)), (3, (-2, -1))))
    def test_degree4_default_box_finds_the_smallest(self, idx, coeffs):
        """The box [-p, p] (p = 11, 23^4 points) is searched by sum of
        absolute values: the winners have entries in [-2, 2]."""
        K = cyclotomic5_field()
        assert pick_pi(K, idx).coeffs == coeffs

    @pytest.mark.parametrize("n,bound", (
        (1, 0), (1, 3), (2, 1), (2, 4), (3, 2), (4, 2), (4, 3)))
    def test_shells_are_the_sorted_box(self, n, bound):
        box = itertools.product(range(-bound, bound + 1), repeat=n)
        want = sorted(box, key=lambda c: (sum(map(abs, c)), c))
        got = [c for s in range(n * bound + 1) for c in _shell(n, bound, s)]
        assert got == want

    @pytest.mark.parametrize("p", (5, 13, 17, 29, 37))
    def test_gauss_matches_the_sorted_box(self, p):
        """Degree 2: the first element of the sorted box that qualifies."""
        K = gauss_field(p)
        box = sorted(itertools.product(range(-p, p + 1), repeat=2),
                     key=lambda c: (sum(map(abs, c)), c))
        for idx in (0, 1):
            want = next(
                c for c in box if any(c)
                and [x.valuation() for x in embed(K, K.element(c))]
                == [int(i == idx) for i in range(2)])
            assert pick_pi(K, idx).coeffs == K.element(want).coeffs


def oracle_pick_pi(K, fp_index):
    """The uniformizer search as first written: every candidate of the
    box [-p, p] becomes a field element, embedded at every root with its
    valuations read."""
    K.prime_index(fp_index)
    if K.N < 2:
        raise PrecisionError(
            f"valuation 1 needs N >= 2 (got N = {K.N}); raise N")
    p, deg = K.p, 2 * K.g
    for s in range(1, deg * p + 1):
        for coeffs in _shell(deg, p, s):
            alpha = K.element(coeffs)
            vec = [x.valuation() for x in embed(K, alpha)]
            if vec[fp_index] == 1 and all(
                v == 0 for i, v in enumerate(vec) if i != fp_index
            ):
                return alpha
    raise AssertionError("the box [-p, p] holds no uniformizer")


class TestPickPiOracle:
    """The search on residues mod p^2 against the embed-and-valuation
    search, element by element."""

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 17, 19, 23, 29))
    @pytest.mark.parametrize("N", (2, 7))
    def test_split_quadratics(self, p, N):
        """x^2 + d for every d < 60 prime to p with -d a square mod p,
        at both primes over p."""
        for d in range(1, 60):
            if d % p == 0 or pow(-d % p, (p - 1) // 2, p) != 1:
                continue
            K = CMField([d, 0, 1], p, N, conj=[0, -1], cm_type=[0])
            for idx in (0, 1):
                assert pick_pi(K, idx).coeffs == \
                    oracle_pick_pi(K, idx).coeffs

    @pytest.mark.parametrize("idx", range(4))
    @pytest.mark.parametrize("N", (2, 14))
    def test_quartic(self, idx, N):
        K = cyclotomic5_field(N)
        assert pick_pi(K, idx).coeffs == oracle_pick_pi(K, idx).coeffs


class TestPrimeIndex:
    """Every operation that takes the index of a prime over p checks
    0 <= index < 2g: an index past the end or a negative one (which
    Python would read from the end) is refused."""

    @pytest.mark.parametrize("idx", (2, 5, -1, -2))
    def test_out_of_range_refused(self, idx):
        K = gauss_field()
        for op in (lambda: K.prime_index(idx),
                   lambda: pick_pi(K, idx)):
            with pytest.raises(ValidationError, match="prime index"):
                op()

    def test_in_range_accepted(self):
        K = cyclotomic5_field()
        assert [K.prime_index(i) for i in range(4)] == [0, 1, 2, 3]

    def test_pick_pi_needs_two_digits(self):
        """At N = 1 valuation 1 is capped, so the search is
        inconclusive (exit 3)."""
        with pytest.raises(PrecisionError, match="N >= 2"):
            pick_pi(gauss_field(N=1), 0)
        assert pick_pi(gauss_field(N=2), 0).coeffs == \
            pick_pi(gauss_field(), 0).coeffs



class TestPrecisionLadder:
    """What cm-embed and cm-pi report, at precisions N and N + 5: the
    certified answers agree, as a capped valuation is the only thing
    the lower N may leave open."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((3, 5, 7, 11, 13, 17, 29)), st.integers(2, 12),
           st.data())
    def test_gauss_fields_agree_at_n_and_n_plus_5(self, p, N, data):
        """x^2 + d with -d a square mod p, as the cm-embed and cm-pi jobs
        of the cli_mix benchmark draw them."""
        d = data.draw(st.sampled_from(
            [d for d in range(1, 60)
             if d % p and pow(-d % p, (p - 1) // 2, p) == 1]))
        alpha = data.draw(st.lists(st.integers(-p ** 3, p ** 3),
                                   min_size=2, max_size=2))
        fp_index = data.draw(st.sampled_from((0, 1)))
        lo, hi = (CMField([d, 0, 1], p, n, conj=[0, -1], cm_type=[0])
                  for n in (N, N + 5))
        pi = pick_pi(lo, fp_index)
        assert pi.coeffs == pick_pi(hi, fp_index).coeffs
        for coeffs in (alpha, pi.coeffs):
            for x, y in zip(embed(lo, lo.element(coeffs)),
                            embed(hi, hi.element(coeffs))):
                assert x.value == y.value % lo.R.mod
                if x.valuation() is None:
                    assert y.valuation() is None or y.valuation() >= N
                else:
                    assert x.valuation() == y.valuation()
