"""Named families, the coprime sampler, and the fractional-vertex examples."""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from knapgap import (
    BetaOutOfRange,
    BoundTooLarge,
    DimensionTooSmall,
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
from knapgap.guardrail import DEFAULT_MAX_CELLS, ENV_VAR
from knapgap.instances import _draw_tuples, _lane_keys, _philox_lanes

_MASK64 = (1 << 64) - 1


def _lane_words(seed, base, offsets, blocks):
    """The first `blocks` 4-word blocks of each index base + j, j in
    offsets, computed together in one lane per index."""
    keys = _lane_keys(seed, len(offsets))
    words = [[] for _ in offsets]
    for block in range(1, blocks + 1):
        for out, four in zip(words, _philox_lanes(keys, block, base, offsets, _MASK64)):
            out.extend(four)
    return words


def _numpy_words(seed, index, count):
    return Philox(key=seed, counter=index << 128).random_raw(count).tolist()


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
        # the round keys are cached per (seed, lanes): a stream computed
        # after one of another seed or lane count still reads its own blocks
        _lane_words(1, 3, [0, 1, 2], 2)
        for seed, index in [(1, 0), (1, 1), (2**64 - 1, 7), (1, 12345), (0, 2**100)]:
            (one,) = _lane_words(seed, index, [0], 10)
            assert one == _numpy_words(seed, index, 40)
            _, shared = _lane_words(seed, index, [5, 0], 10)
            assert shared == one

    @given(
        seed=st.one_of(
            st.integers(min_value=0, max_value=2**128 - 1), st.just(2**128 - 1)
        ),
        index=st.one_of(
            st.integers(min_value=0, max_value=2**128 - 1), st.just(2**128 - 1)
        ),
    )
    @settings(max_examples=100)
    def test_stream_is_numpy_philox(self, seed, index):
        # the Python Philox4x64-10 against numpy's, over ten 4-word blocks,
        # alone in a lane and packed with two neighbours of its range
        (alone,) = _lane_words(seed, index, [0], 10)
        assert alone == _numpy_words(seed, index, 40)
        base = index - index % 4
        packed = _lane_words(seed, base, [3, index % 4, 0], 10)
        assert packed[1] == alone
        assert packed[0] == _numpy_words(seed, base + 3, 40)
        assert packed[2] == _numpy_words(seed, base, 40)

    @pytest.mark.parametrize(
        "seed, index", [(-1, 0), (1 << 128, 0), (0, -1), (0, 1 << 128)]
    )
    def test_stream_rejects_out_of_range(self, seed, index):
        with pytest.raises(ValidationError, match="must lie in"):
            _draw_tuples(seed, index, index + 1, 3, 10)
        # numpy refuses the same keys and counters
        with pytest.raises(ValueError):
            Philox(key=seed, counter=index << 128)

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


class TestDrawRange:
    """The one range drawer, _draw_tuples, against numpy's Philox read one
    word at a time and against draw_instance."""

    @given(
        seed=st.one_of(
            st.sampled_from([0, 2**64 - 1]), st.integers(min_value=0, max_value=2**64 - 1)
        ),
        n=st.sampled_from([2, 3, 5]),
        T=st.sampled_from([1, 2, 3, 17, 33, 2000]),
        span=st.one_of(
            # empty, a single index, or a full range of 1000 indices
            st.tuples(
                st.one_of(
                    st.integers(min_value=0, max_value=10**6),
                    st.integers(min_value=0, max_value=2**128 - 1000),
                ),
                st.sampled_from([0, 1, 1000]),
            ),
            # ranges that cross 2**64
            st.tuples(
                st.integers(min_value=1, max_value=999).map(lambda k: 2**64 - k),
                st.sampled_from([1000, 1001]),
            ),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_word_by_word_reference(self, seed, n, T, span):
        start, length = span
        got = list(_draw_tuples(seed, start, start + length, n, T))
        assert got == [
            _reference_tuple(seed, index, n, T) for index in range(start, start + length)
        ]

    def test_waves_reach_many_blocks(self):
        # five coordinates at T = 33 keep about half the words, so most
        # indices read three blocks and some far more; the later waves run
        # on few lanes, and the range crosses 2**64
        start = 2**64 - 600
        got = list(_draw_tuples(2**64 - 1, start, start + 1000, 5, 33))
        blocks = []
        for index, drawn in zip(range(start, start + 1000), got):
            inst, attempts, words = _reference_stream(2**64 - 1, index, 5, 33)
            assert drawn == (inst.a, attempts)
            blocks.append(-(-words // 4))
        assert Counter(b >= 3 for b in blocks)[True] > 500
        assert max(blocks) >= 6

    def test_is_draw_instance_at_each_index(self):
        got = list(_draw_tuples(9, 40, 60, 4, 10))
        expected = [draw_instance(9, index, 4, 10) for index in range(40, 60)]
        assert got == [(inst.a, attempts) for inst, attempts in expected]
        assert list(_draw_tuples(9, 60, 40, 4, 10)) == []

    @pytest.mark.parametrize(
        "seed, start, stop, message",
        [
            (-1, 0, 1, "seed = -1 must lie in [0, 2**128)"),
            (2**128, 0, 1, f"seed = {2**128} must lie in [0, 2**128)"),
            (-1, 5, 5, "seed = -1 must lie in [0, 2**128)"),
            (0, -1, 3, "index = -1 must lie in [0, 2**128)"),
            (0, 2**128 - 1, 2**128 + 1, f"index = {2**128} must lie in [0, 2**128)"),
            (0, 2**128, 2**128 + 5, f"index = {2**128} must lie in [0, 2**128)"),
        ],
    )
    def test_out_of_range_raises_at_call(self, seed, start, stop, message):
        with pytest.raises(ValidationError) as info:
            _draw_tuples(seed, start, stop, 3, 10)  # not iterated
        assert str(info.value) == message
        # a one-index draw refuses the same index
        bad = start if seed in (-1, 2**128) or start < 0 else 2**128
        with pytest.raises(ValidationError) as single:
            draw_instance(seed, bad, 3, 10)
        assert str(single.value) == message

    def test_empty_range_checks_no_index(self):
        assert list(_draw_tuples(0, 2**128, 2**128, 3, 10)) == []
        assert list(_draw_tuples(0, -5, -5, 3, 10)) == []

    def test_rejects_degenerate_boxes(self):
        # T < 1 would reject every word forever
        with pytest.raises(ValidationError, match="T = 0 < 1"):
            _draw_tuples(0, 0, 1, 3, 0)

    def test_box_of_full_words(self):
        # every 64-bit word passes the test word < 2**64, so T = 2**64 is
        # uniform on {1..2**64}; one more would need a second word
        T = 2**64
        got = list(_draw_tuples(5, 0, 20, 3, T))
        assert got == [_reference_tuple(5, index, 3, T) for index in range(20)]
        assert max(max(a) for a, _ in got) > 2**63
        with pytest.raises(ValidationError, match=r"T = 18446744073709551617 > 2\*\*64"):
            _draw_tuples(5, 0, 20, 3, T + 1)
        assert SamplerConfig(n=3, T=T, count=1, seed=5).T == T
        with pytest.raises(ValidationError, match=r"> 2\*\*64"):
            SamplerConfig(n=3, T=T + 1, count=1, seed=5)
        with pytest.raises(DimensionTooSmall, match="n = 1 < 2"):
            _draw_tuples(0, 0, 1, 1, 5)


def _reference_stream(seed, index, n, T):
    # one raw word at a time from a fresh generator at the index's block,
    # each coordinate by mask rejection, tuples until the gcd is 1; also
    # returns the number of words read
    gen = Philox(key=seed, counter=index << 128)
    mask = (1 << (T - 1).bit_length()) - 1
    attempts = words = 0
    while True:
        attempts += 1
        values = []
        while len(values) < n:
            word = int(gen.random_raw()) & mask
            words += 1
            if word < T:
                values.append(word + 1)
        if math.gcd(*values) == 1:
            return KnapsackInstance(tuple(values)), attempts, words


def _reference_draw(seed, index, n, T):
    return _reference_stream(seed, index, n, T)[:2]


def _reference_tuple(seed, index, n, T):
    inst, attempts, _ = _reference_stream(seed, index, n, T)
    return inst.a, attempts


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

    @given(n=st.integers(2, 4), T=st.integers(1, 14))
    @settings(max_examples=40)
    def test_against_enumeration(self, n, T):
        expected = sum(
            1 for tup in itertools.product(range(1, T + 1), repeat=n) if math.gcd(*tup) == 1
        )
        assert count_instances(n, T) == expected

    def test_large_box_answers(self):
        # 20000**2 tuples, past the cell cap as an enumeration; the sieve
        # counts T cells.  Coprime pairs tend to 6/pi**2 of all pairs.
        count = count_instances(2, 20_000)
        assert abs(count / 20_000**2 - 6 / math.pi**2) < 1e-3

    def test_guardrail(self, monkeypatch):
        # the sieve's T cells count against the cap
        monkeypatch.delenv(ENV_VAR, raising=False)
        with pytest.raises(BoundTooLarge, match="Moebius sieve up to 100000001"):
            count_instances(2, DEFAULT_MAX_CELLS + 1)
        monkeypatch.setenv(ENV_VAR, "1000")
        assert count_instances(3, 1000) > 0
        with pytest.raises(BoundTooLarge):
            count_instances(3, 1001)


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

    def test_large_n_verifies_in_linear_time(self):
        # each row is checked on its two nonzeros, not on all n entries
        start = time.perf_counter()
        ex = lovasz_example(3000, 3, "1/2")
        assert time.perf_counter() - start < 5
        assert ex.distance == Fraction(3 * 2999 + 1, 2)
        assert ex.lp_solution[-2] == Fraction(2999, 2)

    def test_matrix_guardrail(self, monkeypatch):
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "100")
        assert lovasz_example(10, 3, "1/2").n == 10
        with pytest.raises(BoundTooLarge, match="11 x 11 matrix"):
            lovasz_example(11, 3, "1/2")

    def test_delta_max_guardrail(self, monkeypatch):
        # a 3 x 4 matrix has C(7, 3) - 1 = 34 square submatrices
        matrix = lovasz_example(3, 2, "1/2").matrix
        wide = [list(row) + [1] for row in matrix]
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "34")
        assert delta_max(wide) == 5
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "33")
        with pytest.raises(BoundTooLarge, match="34 square submatrices"):
            delta_max(wide)
