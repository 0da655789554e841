"""Named families, the coprime sampler, and the fractional-vertex examples."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from knapgap import (
    BetaOutOfRange,
    BoundTooLarge,
    KnapsackInstance,
    SamplerConfig,
    ValidationError,
    count_instances,
    delta_max,
    draw_instance,
    frobenius_cost,
    lovasz_example,
    sample_instances,
    tightness_family,
)
from knapgap.instances import _RawStream


class TestFamilies:
    def test_tightness_family_shape(self):
        inst, cost = tightness_family(5, 3)
        assert inst.a == (5, 5, 1)
        assert cost == (Fraction(0), Fraction(0), Fraction(1))

    def test_tightness_family_k1(self):
        inst, _ = tightness_family(1, 4)
        assert inst.a == (1, 1, 1, 1)

    def test_tightness_family_rejects(self):
        with pytest.raises(ValidationError):
            tightness_family(0, 3)
        with pytest.raises(ValidationError):
            tightness_family(3, 1)

    def test_frobenius_cost(self):
        inst = KnapsackInstance((6, 9, 20))
        assert frobenius_cost(inst) == (Fraction(6), Fraction(9), Fraction(0))


class TestSampler:
    def test_draw_is_deterministic(self):
        a = draw_instance(42, 17, 3, 50)
        b = draw_instance(42, 17, 3, 50)
        assert a == b

    def test_draw_independent_of_history(self):
        # drawing index 5 alone gives the same instance as drawing 0..5
        alone = draw_instance(9, 5, 2, 30)[0]
        in_order = [draw_instance(9, i, 2, 30)[0] for i in range(6)]
        assert in_order[5] == alone

    def test_frozen_stream(self):
        got = [draw_instance(7, i, 2, 2)[0].a for i in range(8)]
        assert got == [
            (1, 2), (1, 2), (1, 1), (2, 1), (1, 1), (1, 1), (2, 1), (1, 2),
        ]

    def test_draws_are_valid_and_in_box(self):
        for i in range(200):
            inst, attempts = draw_instance(3, i, 3, 9)
            assert attempts >= 1
            assert all(1 <= ai <= 9 for ai in inst.a)
            assert math.gcd(*inst.a) == 1

    def test_support_is_full_coprime_box(self):
        seen = {draw_instance(2024, i, 2, 2)[0].a for i in range(200)}
        assert seen == {(1, 1), (1, 2), (2, 1)}

    def test_uniform_over_small_box(self):
        cnt = Counter(draw_instance(2024, i, 2, 2)[0].a for i in range(3000))
        chi2 = sum((c - 1000) ** 2 / 1000 for c in cnt.values())
        assert chi2 < 16.0  # far beyond any plausible p-value cutoff

    def test_acceptance_rate_matches_coprimality_density(self):
        # fraction of coprime pairs tends to 6 / pi^2 = 0.6079...
        draws = 20_000
        attempts = sum(draw_instance(123, i, 2, 10_000)[1] for i in range(draws))
        assert abs(draws / attempts - 6 / math.pi**2) < 0.01

    def test_reused_generator_matches_fresh_philox(self):
        # each stream resets its thread's generator, so a stream opened after
        # a half-used one, or after a switch of seed, still reads its own block
        def fresh(seed, index, count):
            return Philox(key=seed, counter=index << 128).random_raw(count).tolist()

        half = _RawStream(1, 3)
        [half.next_raw() for _ in range(5)]
        for seed, index in [(1, 0), (1, 1), (2**64 - 1, 7), (1, 12345), (0, 2**100)]:
            stream = _RawStream(seed, index)
            assert [stream.next_raw() for _ in range(40)] == fresh(seed, index, 40)
        with pytest.raises(ValueError):
            _RawStream(1, -1)
        with pytest.raises(ValueError):
            _RawStream(1, 1 << 128)

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        index=st.one_of(
            st.integers(min_value=0, max_value=10**4),
            st.integers(min_value=0, max_value=2**128 - 1),
        ),
        n=st.integers(min_value=2, max_value=6),
        T=st.one_of(
            st.integers(min_value=0, max_value=11).map(lambda k: 2**k),
            st.integers(min_value=0, max_value=11).map(lambda k: 2**k + 1),
            st.just(2000),
        ),
    )
    @settings(max_examples=200)
    def test_draw_matches_word_by_word_reference(self, seed, index, n, T):
        assert draw_instance(seed, index, n, T) == _reference_draw(seed, index, n, T)

    def test_gcd_retries_keep_reading_the_stream(self):
        # T = 2 and 4 reject many tuples, and six coordinates at T = 1025
        # often read past one batch of raw words; each retry and each new
        # batch must continue from the next word
        retried = 0
        for i in range(300):
            for n, T in ((2, 2), (2, 4), (3, 4), (6, 1025)):
                got = draw_instance(11, i, n, T)
                assert got == _reference_draw(11, i, n, T)
                retried += got[1] > 1
        assert retried > 100

    def test_sample_instances_matches_indexed_draws(self):
        config = SamplerConfig(n=3, T=40, count=25, seed=5)
        via_iter = [inst.a for inst in sample_instances(config)]
        via_index = [draw_instance(5, i, 3, 40)[0].a for i in range(25)]
        assert via_iter == via_index

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SamplerConfig(n=1, T=5, count=1, seed=0)
        with pytest.raises(ValidationError):
            SamplerConfig(n=2, T=0, count=1, seed=0)
        with pytest.raises(ValidationError):
            SamplerConfig(n=2, T=5, count=0, seed=0)
        with pytest.raises(ValidationError):
            SamplerConfig(n=2, T=5, count=1, seed=-1)
        with pytest.raises(ValidationError):
            SamplerConfig(n=2, T=5, count=1, seed=2**64)


def _reference_draw(seed, index, n, T):
    # one raw word at a time from a fresh generator at the index's block,
    # each coordinate by mask rejection, tuples until the gcd is 1
    gen = Philox(key=seed, counter=index << 128)
    mask = (1 << (T - 1).bit_length()) - 1
    attempts = 0
    while True:
        attempts += 1
        values = []
        while len(values) < n:
            word = int(gen.random_raw()) & mask
            if word < T:
                values.append(word + 1)
        if math.gcd(*values) == 1:
            return KnapsackInstance(tuple(values)), attempts


class TestCountInstances:
    @pytest.mark.parametrize("n,T,expected", [(2, 2, 3), (2, 3, 7), (3, 1, 1)])
    def test_known_counts(self, n, T, expected):
        assert count_instances(n, T) == expected

    @given(T=st.integers(min_value=1, max_value=25))
    @settings(max_examples=25)
    def test_pair_count_by_totient(self, T):
        # coprime pairs in a T-box, counted through Euler's totient
        expected = 2 * sum(_totient(k) for k in range(1, T + 1)) - 1
        assert count_instances(2, T) == expected

    def test_guardrail(self):
        with pytest.raises(BoundTooLarge):
            count_instances(2, 20_000)


def _totient(k: int) -> int:
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


class TestLovaszExample:
    def test_small_example(self):
        ex = lovasz_example(2, 1, "1/2")
        assert ex.lp_solution == (Fraction(1, 2), Fraction(1))
        assert ex.distance == 1
        assert ex.ip_solution == (0, 0)

    def test_worked_example(self):
        ex = lovasz_example(5, 3, "1/2")
        assert ex.lp_solution == (
            Fraction(1, 2),
            Fraction(1),
            Fraction(3, 2),
            Fraction(2),
            Fraction(13, 2),
        )
        assert ex.distance == Fraction(13, 2)

    def test_third_example(self):
        ex = lovasz_example(8, 4, "3/4")
        assert ex.distance == Fraction((4 * 7 + 1) * 3, 4)

    @pytest.mark.parametrize("n,delta,beta", [(2, 1, "1/2"), (5, 3, "1/2"), (8, 4, "3/4")])
    def test_row_equalities_and_subdeterminants(self, n, delta, beta):
        ex = lovasz_example(n, delta, beta)
        b = Fraction(beta)
        for row, rhs in zip(ex.matrix, ex.rhs):
            assert sum(r * x for r, x in zip(row, ex.lp_solution)) == rhs == b
        # the vertex is a non-integer point (first coordinate is beta itself),
        # the nearest feasible integer point is the origin
        assert ex.lp_solution[0] == b
        assert b.denominator > 1
        assert all(x == 0 for x in ex.ip_solution)
        # largest absolute subdeterminant is exactly delta
        assert delta_max(ex.matrix) == delta
        # distance from vertex to nearest feasible integer point, in the last coordinate
        assert ex.distance == ex.lp_solution[-1]

    def test_distance_grows_linearly_in_n(self):
        dists = [lovasz_example(n, 2, "1/2").distance for n in range(2, 7)]
        steps = {dists[i + 1] - dists[i] for i in range(len(dists) - 1)}
        assert steps == {1}  # slope delta * beta = 1

    def test_beta_range(self):
        with pytest.raises(BetaOutOfRange):
            lovasz_example(3, 2, 0)
        with pytest.raises(BetaOutOfRange):
            lovasz_example(3, 2, 1)
        with pytest.raises(BetaOutOfRange):
            lovasz_example(3, 2, "3/2")

    def test_other_validation(self):
        with pytest.raises(ValidationError):
            lovasz_example(1, 2, "1/2")
        with pytest.raises(ValidationError):
            lovasz_example(3, 0, "1/2")

    def test_delta_max_guardrail(self, monkeypatch):
        # a 3 x 4 matrix has C(7, 3) - 1 = 34 square submatrices
        matrix = lovasz_example(3, 2, "1/2").matrix
        wide = [list(row) + [1] for row in matrix]
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "34")
        assert delta_max(wide) == 5
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "33")
        with pytest.raises(BoundTooLarge, match="34 square submatrices"):
            delta_max(wide)
