"""Experiment harness: brackets, survival tails, exact means, serialization."""

import csv
import io
import math
import os
import signal
import sys
import time
import tracemalloc
from contextlib import closing
from dataclasses import replace
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knapgap.guardrail
import knapgap.instances
from knapgap import (
    BadEpsilon,
    BoundTooLarge,
    DimensionTooSmall,
    ExperimentConfig,
    InsufficientSamples,
    KnapgapError,
    KnapsackInstance,
    SampleRecord,
    SamplerConfig,
    ValidationError,
    bracket_ratios,
    count_instances,
    frobenius,
    gap_exact,
    frobenius_cost,
    mean_experiment,
    sample_instances,
    sample_records,
    summarize,
    tail_experiment,
    tail_exponent,
    write_records_csv,
)
from knapgap.experiments import (
    MIN_TAIL_SAMPLES,
    _CHUNK,
    _csv_rows,
    _ordered,
    _sampled,
    _stream_chunk,
    csv_header,
    summary_json_dict,
)
from knapgap.guardrail import ENV_VAR
from knapgap.instances import draw_instance
from knapgap.rounding import DEFAULT_BITS, pow_bounds


def dyadic_floor(x: Fraction, bits: int) -> Fraction:
    """Largest multiple of 2**-bits that is <= x."""
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    """Smallest multiple of 2**-bits that is >= x."""
    return Fraction(-((-x.numerator << bits) // x.denominator), 1 << bits)


class TestTailExponent:
    def test_known_values(self):
        assert tail_exponent("4/5", 3) == Fraction(5, 3)
        assert tail_exponent("1/2", 4) == 1
        assert tail_exponent(Fraction(1, 3), 3) == Fraction(1, 2)

    def test_epsilon_range(self):
        with pytest.raises(BadEpsilon):
            tail_exponent(0, 3)
        with pytest.raises(BadEpsilon):
            tail_exponent(1, 3)
        with pytest.raises(BadEpsilon):
            tail_exponent(2, 3)

    def test_dimension(self):
        with pytest.raises(DimensionTooSmall):
            tail_exponent("1/2", 2)


class TestBracketRatios:
    def test_pair_example(self):
        lo, up = bracket_ratios(KnapsackInstance((3, 5)), Fraction(1, 2))
        # (g + a_2) / (sqrt(5) * a_1) = 12 / (3 sqrt 5) = 1.7888...
        assert abs(float(lo) - 1.7888543819998317) < 1e-12
        # f / (min * sqrt 5) = 15 / (3 sqrt 5) = sqrt 5 = 2.2360...
        assert abs(float(up) - 2.23606797749979) < 1e-12

    def test_triple_example(self):
        lo, up = bracket_ratios(KnapsackInstance((6, 9, 20)), Fraction(4, 5))
        assert abs(float(up) - 1.183366731966952) < 1e-12
        assert lo < up

    @pytest.mark.parametrize(
        "epsilon, bits, refused",
        [
            (Fraction(-1, 2), DEFAULT_BITS, BadEpsilon),
            (0, DEFAULT_BITS, BadEpsilon),
            (1, DEFAULT_BITS, BadEpsilon),
            (Fraction(3, 2), DEFAULT_BITS, BadEpsilon),
            (0.8, DEFAULT_BITS, ValidationError),
            ("4/5", DEFAULT_BITS, None),
            (Fraction(4, 5), 7, ValidationError),
        ],
    )
    def test_checks_epsilon_and_bits_as_the_config_does(self, epsilon, bits, refused):
        inst = KnapsackInstance((6, 9, 20))
        if refused is None:
            expected = bracket_ratios(inst, Fraction(4, 5), bits)
            assert bracket_ratios(inst, epsilon, bits) == expected
            return
        with pytest.raises(refused) as got:
            bracket_ratios(inst, epsilon, bits)
        with pytest.raises(refused) as config:
            ExperimentConfig(n=3, T=20, count=1, seed=0, epsilon=epsilon, bits=bits)
        assert str(got.value) == str(config.value)

    def test_brackets_tie_to_exact_gaps(self):
        # the lower bracket is the ratio of an actually achieved gap
        inst = KnapsackInstance((6, 9, 20))
        eps = Fraction(4, 5)
        lo, _ = bracket_ratios(inst, eps)
        achieved = gap_exact(inst, frobenius_cost(inst)).gap  # == g + a_n
        head = sum(inst.a[:-1])
        # lo <= achieved / (20^eps * head), exact comparison via 5th powers
        q, p = eps.denominator, eps.numerator
        assert (lo * head) ** q * inst.norm_inf**p <= Fraction(achieved) ** q

    @given(
        a=st.lists(st.integers(min_value=1, max_value=60), min_size=2, max_size=4).filter(
            lambda v: math.gcd(*v) == 1
        ),
        num=st.integers(min_value=1, max_value=9),
        den=st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=40)
    def test_soundness_exact(self, a, num, den):
        if num >= den:
            return
        inst = KnapsackInstance(tuple(a))
        eps = Fraction(num, den)
        lo, up = bracket_ratios(inst, eps)
        g = frobenius(inst)
        f = g + sum(inst.a)
        head = sum(inst.a) - inst.a[-1]
        p, q = eps.numerator, eps.denominator
        M = inst.norm_inf
        # lo <= (g + a_n) / (M^eps head)  and  up >= f / (M^eps min)
        assert lo >= 0
        assert (lo * head) ** q * M**p <= Fraction(g + inst.a[-1]) ** q
        assert (up * inst.min_entry) ** q * M**p >= Fraction(f) ** q
        assert lo <= up

    @given(
        n=st.integers(min_value=2, max_value=6),
        T=st.integers(min_value=1, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        den=st.sampled_from([2, 3, 5, 7, 10, 12, 16, 31, 64]),
        bits=st.integers(min_value=8, max_value=80),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_numerators_match_fraction_reference(self, n, T, seed, den, bits, data):
        # the record path keeps ints; the reference rounds exact Fractions
        eps = Fraction(data.draw(st.integers(min_value=1, max_value=den - 1)), den)
        config = ExperimentConfig(n=n, T=T, count=1, seed=seed, epsilon=eps, bits=bits)
        (rec,) = sample_records(config)
        inst = rec.instance
        power_lo, power_hi = pow_bounds(inst.norm_inf, eps, bits)
        head = sum(inst.a) - inst.a[-1]
        want_lower = dyadic_floor(
            Fraction(rec.g + inst.a[-1]) / (power_hi * head), bits
        )
        want_upper = dyadic_ceil(
            Fraction(rec.g + sum(inst.a)) / (inst.min_entry * power_lo), bits
        )
        assert rec.bits == bits
        assert rec.lower == want_lower * (1 << bits)
        assert rec.upper == want_upper * (1 << bits)
        assert (rec.ratio_lower, rec.ratio_upper) == (want_lower, want_upper)
        got = bracket_ratios(inst, eps, bits, g=rec.g)
        assert got == (want_lower, want_upper)
        assert all(type(v) is Fraction for v in got)


_FIELDS = dict(n=3, T=20, count=5, seed=1, epsilon="4/5", thresholds=("1/4",))


class TestConfig:
    def test_validation(self):
        with pytest.raises(BadEpsilon):
            ExperimentConfig(n=3, T=10, count=5, seed=0, epsilon=1)
        with pytest.raises(BadEpsilon):
            ExperimentConfig(n=3, T=10, count=5, seed=0, epsilon="0")
        with pytest.raises(ValidationError):
            ExperimentConfig(n=3, T=10, count=5, seed=0, epsilon="1/2", thresholds=(0,))
        with pytest.raises(ValidationError):
            ExperimentConfig(n=3, T=0, count=5, seed=0, epsilon="1/2")
        with pytest.raises(ValidationError):
            ExperimentConfig(n=3, T=10, count=0, seed=0, epsilon="1/2")
        with pytest.raises(ValidationError):
            ExperimentConfig(n=3, T=10, count=5, seed=-1, epsilon="1/2")
        with pytest.raises(DimensionTooSmall):
            ExperimentConfig(n=1, T=10, count=5, seed=0, epsilon="1/2")

    def test_box_is_at_most_full_words(self):
        config = ExperimentConfig(n=3, T=2**64, count=5, seed=0, epsilon="1/2")
        assert config.T == 2**64
        with pytest.raises(ValidationError, match=r"T = 18446744073709551617 > 2\*\*64"):
            ExperimentConfig(n=3, T=2**64 + 1, count=5, seed=0, epsilon="1/2")

    def test_bits_ceiling_follows_the_int_string_limit(self, monkeypatch):
        # count (n + 1) T = 160000 takes 18 bits, and 640 digits admit
        # 640 * 3321928 // 10**6 = 2126 bits
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640, raising=False)
        fields = dict(n=3, T=2000, count=20, seed=1, epsilon="4/5")
        assert ExperimentConfig(**fields, bits=2108).bits == 2108
        with pytest.raises(ValidationError, match="640-digit limit"):
            ExperimentConfig(**fields, bits=2109)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert ExperimentConfig(**fields, bits=10**6).bits == 10**6

    @pytest.mark.parametrize(
        "call,what,value",
        [
            pytest.param(
                partial(ExperimentConfig, **{**_FIELDS, what: value}), what, value,
                id=f"ExperimentConfig-{what}={value!r}",
            )
            for what, value in [
                ("bits", 20.5), ("T", 20.5), ("count", 5.5), ("seed", 1.5),
                ("seed", True), ("n", 3.0),
            ]
        ]
        + [
            pytest.param(call, what, value, id=f"{call.func.__name__}-{what}={value!r}")
            for call, what, value in [
                (partial(SamplerConfig, n=3, T=20.5, count=2, seed=1), "T", 20.5),
                (partial(SamplerConfig, n=3, T=20, count=2.5, seed=1), "count", 2.5),
                (partial(draw_instance, 1, 0.5, 3, 20), "index", 0.5),
                (partial(draw_instance, 1.5, 0, 3, 20), "seed", 1.5),
                (partial(count_instances, 3, 10.5), "T", 10.5),
                (partial(tail_experiment, ExperimentConfig(**_FIELDS), jobs=1.5), "jobs", 1.5),
            ]
        ],
    )
    def test_non_integer_arguments_are_refused(self, call, what, value):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == f"{what} must be an integer, got {value!r}"

    def test_threshold_coercion(self):
        config = ExperimentConfig(
            n=3, T=10, count=5, seed=0, epsilon="1/2", thresholds=("1", "3/2")
        )
        assert config.thresholds == (Fraction(1), Fraction(3, 2))
        assert config.epsilon == Fraction(1, 2)

    def test_is_a_sampler_config(self):
        config = ExperimentConfig(n=3, T=40, count=10, seed=77, epsilon="4/5")
        assert isinstance(config, SamplerConfig)
        drawn = list(sample_instances(config))
        assert drawn == [r.instance for r in sample_records(config)]
        assert drawn == list(sample_instances(SamplerConfig(3, 40, 10, 77)))
        assert repr(config) == (
            "ExperimentConfig(n=3, T=40, count=10, seed=77, "
            "epsilon=Fraction(4, 5), thresholds=(), bits=60)"
        )
        # the sampling fields are checked first, in their field order
        with pytest.raises(DimensionTooSmall):
            ExperimentConfig(n=1, T=10, count=5, seed=-1, epsilon=2, bits=0)
        with pytest.raises(ValidationError, match="seed must fit in 64 bits"):
            ExperimentConfig(n=3, T=10, count=5, seed=-1, epsilon=2, bits=0)


class TestRecords:
    def test_record_matches_draw(self):
        config = ExperimentConfig(n=3, T=40, count=10, seed=77, epsilon="4/5")
        rec = sample_records(config)[4]
        inst, _ = draw_instance(77, 4, 3, 40)
        assert rec.instance == inst
        assert rec.g == frobenius(inst)
        assert rec.f == rec.g + sum(inst.a)
        lo, up = bracket_ratios(inst, Fraction(4, 5))
        assert (rec.ratio_lower, rec.ratio_upper) == (lo, up)

    def test_order_is_by_index(self):
        config = ExperimentConfig(n=3, T=50, count=30, seed=5, epsilon="4/5")
        records = sample_records(config)
        assert [r.index for r in records] == list(range(30))


class TestRecordLoop:
    """_stream_chunk, one pass per record from the drawn tuple to the CSV
    row, against the public route draw_instance -> frobenius ->
    bracket_ratios -> write_records_csv."""

    @given(
        n=st.integers(3, 6),
        seed=st.integers(0, 2**64 - 1),
        epsilon=st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), Fraction(1, 7)]),
        bits=st.sampled_from([8, 33, 60, 80]),
        lanes=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_reference_route(self, n, seed, epsilon, bits, lanes, data):
        # n = 3 builds no table, so it takes any T up to 2**64 under a
        # lifted cap; other n keep their tables small.  A few lanes per
        # batch make every range of more than `lanes` indices cross batches.
        T = data.draw(st.integers(1, 2**64) if n == 3 else st.integers(1, 400), label="T")
        start = data.draw(st.integers(0, 2**64), label="start")
        stop = start + data.draw(st.integers(1, 9), label="size")
        config = ExperimentConfig(n=n, T=T, count=1, seed=seed, epsilon=epsilon, bits=bits)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(knapgap.instances, "_LANES", lanes)
            mp.setenv(ENV_VAR, str(1 << 64))
            lowers, uppers, rows = _stream_chunk((config, start, stop, True))
            assert _stream_chunk((config, start, stop, False)) == (lowers, uppers, None)
            records = []
            for index in range(start, stop):
                inst, _ = draw_instance(seed, index, n, T)
                g = frobenius(inst)
                lo, up = bracket_ratios(inst, epsilon, bits, g=g)
                records.append(
                    SampleRecord(
                        index, inst, g, g + sum(inst.a),
                        int(lo * (1 << bits)), int(up * (1 << bits)), bits,
                    )
                )
        assert lowers == tuple(r.lower for r in records)
        assert uppers == tuple(r.upper for r in records)
        buf = io.StringIO()
        write_records_csv(buf, [(config, records)])
        assert buf.getvalue() == ",".join(csv_header(n)) + "\n" + rows

    def test_refusal_matches_frobenius(self, monkeypatch):
        # with the cap one below the range's largest m, the loop refuses the
        # first record of that m, with the text frobenius raises for it;
        # with the cap at that m every record passes
        config = ExperimentConfig(n=3, T=2000, count=60, seed=1, epsilon="4/5")
        drawn = [draw_instance(1, index, 3, 2000)[0] for index in range(60)]
        largest = max(inst.min_entry for inst in drawn)
        refused = [inst.min_entry for inst in drawn].index(largest)
        monkeypatch.setenv(ENV_VAR, str(largest - 1))
        with pytest.raises(BoundTooLarge) as expected:
            frobenius(drawn[refused])
        assert f"residue table modulo {largest} " in str(expected.value)
        reached = []
        with pytest.raises(BoundTooLarge) as got:
            for index, *_ in _sampled(config, 0, 60):
                reached.append(index)
        assert str(got.value) == str(expected.value)
        assert reached == list(range(refused))
        with pytest.raises(BoundTooLarge) as got:
            _stream_chunk((config, 0, 60, True))
        assert str(got.value) == str(expected.value)
        monkeypatch.setenv(ENV_VAR, str(largest))
        assert len(_stream_chunk((config, 0, 60, False))[0]) == 60

    def test_range_builds_no_instance_and_reads_the_cap_once(self, monkeypatch):
        built = []
        real = KnapsackInstance.__post_init__

        def counting(inst):
            built.append(inst.a)
            real(inst)

        reads = []

        class Environment(dict):
            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

        monkeypatch.setattr(KnapsackInstance, "__post_init__", counting)
        env = SimpleNamespace(environ=Environment(os.environ))
        monkeypatch.setattr(knapgap.guardrail, "os", env)
        config = ExperimentConfig(n=4, T=300, count=200, seed=3, epsilon="1/2")
        lowers, _, _ = _stream_chunk((config, 0, 200, True))
        assert len(lowers) == 200
        assert built == []
        assert reads == [ENV_VAR]
        # sample_records wraps each record's tuple in one instance
        records = sample_records(config)
        assert built == [r.instance.a for r in records]
        assert reads == [ENV_VAR] * 2


def _fake_records(values, bits=DEFAULT_BITS):
    # ratio_upper = v and ratio_lower = v / 2, as numerators over 2**bits
    inst = KnapsackInstance((2, 3, 5))
    recs = []
    for i, v in enumerate(values):
        upper = Fraction(v) * (1 << bits)
        assert upper.denominator == 1 and upper.numerator % 2 == 0
        recs.append(
            SampleRecord(
                index=i,
                instance=inst,
                g=4,
                f=14,
                lower=upper.numerator // 2,
                upper=upper.numerator,
                bits=bits,
            )
        )
    return recs


class TestSummaries:
    def test_survival_and_exact_power_law(self):
        # 5600 records at 2, 700 at 8, 100 at 32: survival above 1, 4, 16
        # is 1, 1/8, 1/64, an exact t^(-3/2) law
        values = [2] * 5600 + [8] * 700 + [32] * 100
        config = ExperimentConfig(
            n=3, T=10, count=6400, seed=0, epsilon="4/5", thresholds=(1, 4, 16)
        )
        summary = summarize(config, _fake_records(values))
        assert summary.survival_upper == (
            (Fraction(1), Fraction(1)),
            (Fraction(4), Fraction(1, 8)),
            (Fraction(16), Fraction(1, 64)),
        )
        assert summary.fitted_slope == pytest.approx(-1.5, abs=1e-12)
        assert summary.mean_upper == Fraction(25, 8)
        assert summary.mean_lower == Fraction(25, 16)
        assert summary.alpha_theoretical == Fraction(5, 3)

    def test_thin_thresholds_drop_out_of_fit(self):
        # only 50 records above t = 4: that point must not steer the fit
        values = [2] * (MIN_TAIL_SAMPLES * 4) + [8] * 50
        config = ExperimentConfig(
            n=3, T=10, count=len(values), seed=0, epsilon="4/5", thresholds=(1, 4)
        )
        summary = summarize(config, _fake_records(values))
        assert summary.fitted_slope is None  # one qualifying threshold is not a line

    def test_strictly_above_semantics(self):
        values = [1] * 10
        config = ExperimentConfig(
            n=3, T=10, count=10, seed=0, epsilon="4/5", thresholds=(1,)
        )
        summary = summarize(config, _fake_records(values))
        assert summary.survival_upper == ((Fraction(1), Fraction(0)),)
        # thresholds equal to the smallest, a repeated and the largest value
        values = [1, 2, 2, 3, 5, 5, 5, 8]
        config = ExperimentConfig(
            n=3, T=10, count=8, seed=0, epsilon="4/5", thresholds=(1, 2, 5, 8)
        )
        summary = summarize(config, _fake_records(values))
        assert summary.survival_upper == (
            (Fraction(1), Fraction(7, 8)),
            (Fraction(2), Fraction(5, 8)),
            (Fraction(5), Fraction(1, 8)),
            (Fraction(8), Fraction(0)),
        )
        # ratio_lower halves each value, so t = 1 ties two lower samples
        assert summary.survival_lower == (
            (Fraction(1), Fraction(5, 8)),
            (Fraction(2), Fraction(1, 2)),
            (Fraction(5), Fraction(0)),
            (Fraction(8), Fraction(0)),
        )

    def test_flags(self):
        config = ExperimentConfig(n=3, T=1, count=4, seed=0, epsilon="1/2")
        summary = summarize(config, sample_records(config))
        assert "degenerate_T1" in summary.flags
        assert "epsilon_at_or_below_2_over_n" in summary.flags
        # T = 1 forces the all-ones instance
        assert summary.mean_upper == 2
        assert summary.mean_lower == 0

    def test_no_flags_when_clean(self):
        config = ExperimentConfig(n=3, T=5, count=4, seed=0, epsilon="4/5")
        summary = summarize(config, sample_records(config))
        assert summary.flags == ()


class TestDrivers:
    def test_tail_experiment_small(self):
        config = ExperimentConfig(
            n=3,
            T=100,
            count=600,
            seed=31,
            epsilon="4/5",
            thresholds=("1/4", "1/2", "1"),
        )
        summary = tail_experiment(config)
        assert summary.count == 600
        assert summary.fitted_slope is not None
        assert summary.fitted_slope < 0
        assert summary == summarize(config, sample_records(config))

    def test_tail_experiment_needs_samples(self):
        config = ExperimentConfig(
            n=3, T=100, count=30, seed=31, epsilon="4/5", thresholds=("1/4", "1")
        )
        with pytest.raises(InsufficientSamples):
            tail_experiment(config)

    def test_tail_experiment_dimension(self):
        config = ExperimentConfig(n=2, T=100, count=200, seed=31, epsilon="1/2")
        with pytest.raises(DimensionTooSmall):
            tail_experiment(config)

    def test_mean_experiment_ladder(self):
        configs = [
            ExperimentConfig(n=3, T=T, count=50, seed=8, epsilon="4/5")
            for T in (10, 20)
        ]
        summaries = mean_experiment(configs)
        assert [s.T for s in summaries] == [10, 20]
        assert [s.count for s in summaries] == [50, 50]
        for s in summaries:
            assert s.mean_lower <= s.mean_upper
        runs = [(c, sample_records(c)) for c in configs]
        assert summaries == [summarize(c, records) for c, records in runs]
        # the streamed CSV is write_records_csv over the records, at any jobs
        expected = io.StringIO()
        write_records_csv(expected, runs)
        for jobs in (1, 2):
            streamed = io.StringIO()
            assert mean_experiment(configs, jobs, out=streamed) == summaries
            assert streamed.getvalue() == expected.getvalue()

    def test_streaming_crosses_range_boundaries(self):
        # more records than one range holds, at jobs 1 and across a child
        config = ExperimentConfig(
            n=3, T=60, count=2 * _CHUNK + 7, seed=4, epsilon="4/5",
            thresholds=("1/4", "1/2", "1"),
        )
        records = sample_records(config)
        assert [r.index for r in records] == list(range(config.count))
        expected = io.StringIO()
        write_records_csv(expected, [(config, records)])
        for jobs in (1, 2):
            streamed = io.StringIO()
            summary = tail_experiment(config, jobs, out=streamed)
            assert summary == summarize(config, records)
            assert streamed.getvalue() == expected.getvalue()

    def test_tail_memory_flat_in_count(self):
        # no record list is held: the peak does not grow with the count
        peaks = []
        for count in (2000, 20000):
            config = ExperimentConfig(
                n=3, T=2000, count=count, seed=1, epsilon="4/5",
                thresholds=("1/4", "1/2", "1"),
            )
            tracemalloc.start()
            try:
                tail_experiment(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1 << 20


def _square_where(task):
    """task squared, and the process that computed it."""
    return task * task, os.getpid()


def _refuse_at(bad):
    """A worker that refuses task bad and squares every other task."""

    def worker(task):
        if task == bad:
            raise ValidationError(f"task {task} refused")
        return task * task

    return worker


def _no_children_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestOrderedMap:
    """_ordered at jobs > 1: forked children on pipes, this process included."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        # a wait that never ends fails the test instead of hanging the run;
        # forked children do not inherit the alarm
        def expire(signum, frame):
            raise TimeoutError("still waiting after 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    def test_equals_map(self, jobs):
        for count in sorted({1, max(jobs - 1, 1), jobs, 3 * jobs + 2}):
            tasks = list(range(count))
            with closing(_ordered(_square_where, tasks, jobs)) as results:
                got = list(results)
            assert [square for square, _ in got] == [t * t for t in tasks]
            # task k runs in process k mod J, this one taking k = 0 mod J
            share = min(jobs, count)
            pids = [pid for _, pid in got]
            assert [pid == os.getpid() for pid in pids] == [k % share == 0 for k in tasks]
            for k in tasks:
                assert pids[k] == pids[k % share]
            assert len(set(pids)) == share
        assert _no_children_left()

    @pytest.mark.parametrize("bad", [2, 3], ids=["parent", "child"])
    def test_error_surfaces_at_its_position(self, bad):
        # at jobs 2 this process runs the even tasks and the child the odd
        outcomes = []
        for jobs in (1, 2):
            results = []
            with pytest.raises(ValidationError) as info:
                with closing(_ordered(_refuse_at(bad), list(range(8)), jobs)) as chunks:
                    for value in chunks:
                        results.append(value)
            outcomes.append((results, type(info.value), str(info.value)))
        assert outcomes[0] == outcomes[1] == ([0, 1, 4, 9][:bad], ValidationError,
                                              f"task {bad} refused")
        assert _no_children_left()

    def test_early_close_reaps_every_child(self):
        chunks = _ordered(_square_where, list(range(40)), 4)
        assert next(chunks) == (0, os.getpid())
        square, pid = next(chunks)
        assert square == 1 and pid != os.getpid()
        chunks.close()
        assert _no_children_left()

    def test_a_full_pipe_blocks_its_child(self, tmp_path):
        # each result is 1 MiB, more than a pipe holds, so after the
        # child's first result is read it can start one more task only
        log = tmp_path / "started"

        def worker(task):
            with open(log, "a") as handle:
                handle.write(f"{task}\n")
            return bytes(1 << 20)

        chunks = _ordered(worker, list(range(12)), 2)
        try:
            next(chunks)
            assert len(next(chunks)) == 1 << 20
            time.sleep(0.5)
            started = [int(line) for line in log.read_text().split()]
            assert {0, 1} <= set(started)
            assert len([k for k in started if k % 2]) <= 2
        finally:
            chunks.close()
        assert _no_children_left()

    def test_jobs_above_1_needs_fork(self, monkeypatch):
        config = ExperimentConfig(
            n=3, T=40, count=200, seed=8, epsilon="4/5", thresholds=("1/4", "1/2")
        )
        expected = tail_experiment(config, jobs=1)
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ValidationError, match="jobs = 2 needs os.fork"):
            tail_experiment(config, jobs=2)
        assert tail_experiment(config, jobs=1) == expected


@pytest.mark.parametrize(
    "call, message",
    [
        (partial(draw_instance, -1, 0, 3, 20), "seed = -1 must lie in [0, 2**128)"),
        (partial(draw_instance, 0, -1, 3, 20), "index = -1 must lie in [0, 2**128)"),
        (partial(tail_experiment, ExperimentConfig(**_FIELDS), jobs=0),
         "jobs = 0 must be >= 1"),
    ],
)
def test_out_of_range_arguments_are_knapgap_errors(call, message):
    # a caller's `except KnapgapError` catches them, as it does a non-integer
    with pytest.raises(KnapgapError) as info:
        call()
    assert isinstance(info.value, ValidationError)
    assert str(info.value) == message


def _reference_survival(values, thresholds):
    count = len(values)
    return tuple(
        (t, Fraction(sum(1 for v in values if v > t), count)) for t in thresholds
    )


class TestIntegerCuts:
    """Integer numerators over 2**bits against a Fraction reference."""

    @pytest.mark.parametrize("bits", [8, 60])
    def test_summarize_and_tail_match_reference(self, bits):
        base = ExperimentConfig(
            n=3, T=200, count=1500, seed=12, epsilon="4/5", bits=bits
        )
        records = sample_records(base)
        uppers = sorted(r.ratio_upper for r in records)
        lowers = sorted(r.ratio_lower for r in records)
        if bits == 8:
            assert len(set(uppers)) < len(uppers) // 2  # ties are common
        # thresholds equal to record values, plus two non-dyadic ones
        thresholds = tuple(
            sorted(
                {Fraction(1, 3), Fraction(7, 5)}
                | {uppers[k] for k in (0, 500, 1000, 1300)}
                | {lowers[k] for k in (700, 1400)}
            )
        )
        config = replace(base, thresholds=thresholds)
        summary = summarize(config, records)
        assert summary.survival_upper == _reference_survival(uppers, thresholds)
        assert summary.survival_lower == _reference_survival(lowers, thresholds)
        assert summary.mean_upper == sum(uppers, Fraction(0)) / len(uppers)
        assert summary.mean_lower == sum(lowers, Fraction(0)) / len(lowers)
        streamed = io.StringIO()
        assert tail_experiment(config, out=streamed) == summary
        expected = io.StringIO()
        write_records_csv(expected, [(config, records)])
        assert streamed.getvalue() == expected.getvalue()

        # the `above` check counts values strictly above the smallest t
        values = sorted(set(uppers))
        above = [sum(1 for v in uppers if v > t) for t in values]
        k = next(i for i, c in enumerate(above) if c < MIN_TAIL_SAMPLES)
        with pytest.raises(InsufficientSamples, match=f"only {above[k]} of 1500"):
            tail_experiment(replace(base, thresholds=(values[k],)))
        # passes the `above` check and fails only at the slope fit
        with pytest.raises(InsufficientSamples, match="fewer than two thresholds"):
            tail_experiment(replace(base, thresholds=(values[k - 1],)))

    def test_summarize_rejects_mixed_bits(self):
        config = ExperimentConfig(n=3, T=10, count=2, seed=0, epsilon="4/5")
        records = _fake_records([2]) + _fake_records([2], bits=8)
        with pytest.raises(ValidationError, match="bits"):
            summarize(config, records)

    def test_summarize_refuses_no_records(self):
        config = ExperimentConfig(n=3, T=10, count=2, seed=0, epsilon="4/5")
        with pytest.raises(ValidationError, match="nothing to summarize"):
            summarize(config, [])

    def test_csv_decimals_match_float_of_fraction(self):
        config = ExperimentConfig(n=4, T=3000, count=40, seed=9, epsilon="2/3", bits=80)
        records = sample_records(config)
        buf = io.StringIO()
        write_records_csv(buf, [(config, records)])
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        for row, rec in zip(rows, records):
            assert row["ratio_lower"] == format(float(rec.ratio_lower), ".12g")
            assert row["ratio_upper"] == format(float(rec.ratio_upper), ".12g")
            assert row["ratio_upper_exact"] == str(rec.ratio_upper)


class TestCsv:
    @given(
        numerator=st.one_of(
            st.just(0),
            st.integers(0, 2**90),
            st.builds(lambda v, k: v << k, st.integers(0, 2**20), st.integers(0, 90)),
        ),
        bits=st.integers(0, 80),
    )
    def test_exact_column_is_str_of_fraction(self, numerator, bits):
        rows = _csv_rows(
            "3,9,1", (0, 1), ((2, 3, 5), (2, 3, 7)), (1, 1),
            (numerator, 1 << bits), (1 << bits, numerator), bits,
        )
        first, second = (row.split(",")[-2:] for row in rows.splitlines())
        assert first == [str(Fraction(numerator, 1 << bits)), "1"]
        assert second == ["1", str(Fraction(numerator, 1 << bits))]

    @given(
        n=st.integers(2, 6),
        numerators=st.lists(
            st.one_of(
                st.just(0),
                st.integers(0, 2**90),
                st.builds(lambda v, k: v << k, st.integers(0, 2**20), st.integers(0, 90)),
            ),
            min_size=2,
            max_size=8,
        ),
        bits=st.integers(0, 80),
    )
    def test_decimal_columns_are_the_float_of_the_fraction(self, n, numerators, bits):
        count = len(numerators) // 2
        lowers, uppers = numerators[:count], numerators[count : 2 * count]
        a = [tuple(range(i + 1, i + n + 1)) for i in range(count)]
        rows = _csv_rows("3,9,1", range(count), a, [-1] * count, lowers, uppers, bits)
        for row, lower, upper in zip(rows.splitlines(), lowers, uppers, strict=True):
            decimals = row.split(",")[-4:-2]
            assert decimals == [
                format(float(Fraction(v, 1 << bits)), ".12g") for v in (lower, upper)
            ]

    @given(
        n=st.integers(2, 6),
        bits=st.sampled_from([8, 60]),
        seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    @settings(max_examples=40)
    def test_rows_match_csv_writer(self, n, bits, seed, data):
        numerators = st.one_of(
            st.just(0),
            st.integers(0, 2**70).map(lambda v: 2 * v + 1),
            st.integers(1, 2**70).map(lambda v: 2 * v),
        )
        config = ExperimentConfig(
            n=n, T=2000, count=3, seed=seed, epsilon="1/2", bits=bits
        )
        records = []
        for index in range(3):
            inst = draw_instance(seed, index, n, 2000)[0]
            g = data.draw(st.integers(-1, 10**9))
            records.append(
                SampleRecord(
                    index=index,
                    instance=inst,
                    g=g,
                    f=g + sum(inst.a),
                    lower=data.draw(numerators),
                    upper=data.draw(numerators),
                    bits=bits,
                )
            )
        runs = [(config, records), (replace(config, T=7), records[:1])]
        buf = io.StringIO()
        write_records_csv(buf, runs)
        # reference: the csv module on a row list, exact columns from Fraction
        expected = io.StringIO()
        out = csv.writer(expected, lineterminator="\n")
        out.writerow(csv_header(n))
        for cfg, recs in runs:
            for r in recs:
                out.writerow(
                    [cfg.n, cfg.T, cfg.seed, r.index, *r.instance.a, r.g, r.f]
                    + [format(float(r.ratio_lower), ".12g")]
                    + [format(float(r.ratio_upper), ".12g")]
                    + [str(r.ratio_lower), str(r.ratio_upper)]
                )
        assert buf.getvalue() == expected.getvalue()

    def test_header(self):
        assert csv_header(3) == [
            "n", "T", "seed", "index", "a_1", "a_2", "a_3",
            "g", "f", "ratio_lower", "ratio_upper",
            "ratio_lower_exact", "ratio_upper_exact",
        ]

    def test_round_trip(self):
        config = ExperimentConfig(n=3, T=40, count=12, seed=3, epsilon="4/5")
        records = sample_records(config)
        buf = io.StringIO()
        write_records_csv(buf, [(config, records)])
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == 12
        for row, rec in zip(rows, records):
            assert int(row["index"]) == rec.index
            assert tuple(int(row[f"a_{i}"]) for i in (1, 2, 3)) == rec.instance.a
            assert int(row["g"]) == rec.g
            assert int(row["f"]) == rec.f
            assert Fraction(row["ratio_lower_exact"]) == rec.ratio_lower
            assert Fraction(row["ratio_upper_exact"]) == rec.ratio_upper
            assert float(row["ratio_upper"]) == pytest.approx(
                float(rec.ratio_upper), rel=1e-11
            )

    def test_byte_stable(self):
        config = ExperimentConfig(n=3, T=40, count=9, seed=3, epsilon="4/5")
        records = sample_records(config)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_records_csv(buf, [(config, records)])
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        assert "\r" not in bufs[0]

    def test_multiple_runs_one_header(self):
        c1 = ExperimentConfig(n=3, T=10, count=3, seed=1, epsilon="1/2")
        c2 = ExperimentConfig(n=3, T=20, count=3, seed=1, epsilon="1/2")
        buf = io.StringIO()
        write_records_csv(buf, [(c1, sample_records(c1)), (c2, sample_records(c2))])
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1 + 6
        assert lines[0].startswith("n,T,seed,index,a_1")

    def test_mixed_n_rejected(self):
        c1 = ExperimentConfig(n=3, T=10, count=3, seed=1, epsilon="1/2")
        c2 = ExperimentConfig(n=4, T=10, count=3, seed=1, epsilon="1/2")
        buf = io.StringIO()
        with pytest.raises(ValidationError):
            write_records_csv(
                buf, [(c1, sample_records(c1)), (c2, sample_records(c2))]
            )

    def test_records_of_other_bits_rejected(self):
        # a run's rows take its config's bits, so records of other bits
        # are refused before anything is written
        config = ExperimentConfig(n=3, T=10, count=3, seed=1, epsilon="1/2")
        records = sample_records(replace(config, bits=8))
        buf = io.StringIO()
        with pytest.raises(ValidationError, match="bits = 60"):
            write_records_csv(buf, [(config, records)])
        assert buf.getvalue() == ""


class TestJson:
    def test_summary_document(self):
        config = ExperimentConfig(
            n=3, T=50, count=300, seed=12, epsilon="4/5", thresholds=("1/2", "1")
        )
        summary = summarize(config, sample_records(config))
        doc = summary_json_dict(summary)
        assert doc["config"]["n"] == 3
        assert doc["config"]["epsilon"] == "4/5"
        assert doc["alpha_theoretical"] == "5/3"
        mean = doc["empirical_mean"]
        assert Fraction(mean["ratio_upper"]) == summary.mean_upper
        assert float(mean["ratio_upper_decimal"]) == pytest.approx(
            float(summary.mean_upper), rel=1e-11
        )
        tail = doc["empirical_tail"]["ratio_upper"]
        assert [Fraction(e["t"]) for e in tail] == [Fraction(1, 2), Fraction(1)]
        for entry, (t, frac) in zip(tail, summary.survival_upper):
            assert Fraction(entry["survival"]) == frac
        assert doc["flags"] == []
