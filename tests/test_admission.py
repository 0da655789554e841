"""Each admission rule refuses with one exception class and one text at
every site that applies it, and the refusals no other test reaches."""

import io
from functools import partial

import pytest

from knapgap import (
    BoundTooLarge,
    DimensionTooSmall,
    ExperimentConfig,
    KnapsackInstance,
    SamplerConfig,
    ValidationError,
    as_fraction,
    count_instances,
    draw_instance,
    frobenius,
    gap_exact,
    group_min_bruteforce,
    group_minima,
    lovasz_example,
    mean_experiment,
    sample_instances,
    sample_records,
    summarize,
    tail_experiment,
    tail_exponent,
    tightness_family,
    write_records_csv,
)
from knapgap.experiments import _sampled
from knapgap.guardrail import ENV_VAR
from knapgap.instances import check_box

_TRIPLE = KnapsackInstance((3, 5, 7))
_CONFIG = dict(T=10, count=300, seed=9, epsilon="4/5")


def _refusal(call, kind=ValidationError) -> str:
    """The text call raises; its class must be exactly kind."""
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    return str(info.value)


class TestOneTextPerRule:
    def test_dimension_at_least_two(self):
        texts = {
            _refusal(call, DimensionTooSmall)
            for call in (
                lambda: KnapsackInstance((5,)),
                lambda: check_box(1, 10),
                lambda: SamplerConfig(n=1, T=10, count=1, seed=0),
                lambda: count_instances(1, 10),
                lambda: draw_instance(0, 0, 1, 10),
                lambda: tightness_family(3, 1),
                lambda: lovasz_example(1, 2, "1/2"),
            )
        }
        assert texts == {"n = 1 < 2, at least two coefficients required"}

    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda: check_box(3, 0), "T"),
            (lambda: SamplerConfig(n=3, T=10, count=0, seed=0), "count"),
            (lambda: tightness_family(0, 3), "k"),
            (lambda: lovasz_example(3, 0, "1/2"), "delta"),
        ],
    )
    def test_size_at_least_one(self, call, what):
        assert _refusal(call) == f"{what} = 0 < 1"

    def test_pivot(self):
        texts = {
            _refusal(call)
            for call in (
                lambda: group_minima(_TRIPLE, 3, (1, 1)),
                lambda: group_min_bruteforce(_TRIPLE, 3, (1, 1), 0, 2),
                lambda: group_min_bruteforce(_TRIPLE, -1, (1, 1), 0, 2),
            )
        }
        assert texts == {
            "tau = 3 out of range for n = 3",
            "tau = -1 out of range for n = 3",
        }

    def test_records_carry_bits(self):
        config = ExperimentConfig(n=3, **dict(_CONFIG, count=3))
        records = sample_records(ExperimentConfig(n=3, bits=8, **dict(_CONFIG, count=3)))
        texts = {
            _refusal(lambda: summarize(config, records)),
            _refusal(lambda: write_records_csv(io.StringIO(), [(config, records)])),
        }
        assert texts == {"records must all carry bits = 60"}

    def test_sampling_laws_need_three_coefficients(self):
        config = ExperimentConfig(n=2, thresholds=("1/4",), **_CONFIG)
        texts = {
            _refusal(call, DimensionTooSmall)
            for call in (
                lambda: tail_exponent("4/5", 2),
                lambda: tail_experiment(config),
                lambda: mean_experiment([config]),
            )
        }
        assert texts == {"n = 2 < 3, the tail exponent degenerates"}

    def test_residue_table(self, monkeypatch):
        # every route counts a_tau = 6 cells, built or not
        inst = KnapsackInstance((6, 9, 20))
        config = ExperimentConfig(n=3, T=10, count=1, seed=0, epsilon="4/5")
        ((_, a, _, _, _),) = _sampled(config, 0, 1)
        monkeypatch.setenv(ENV_VAR, "5")
        texts = {
            _refusal(call, BoundTooLarge)
            for call in (
                lambda: group_minima(inst, 0, (9, 20)),
                lambda: frobenius(inst),
                lambda: gap_exact(inst, (6, 9, 20)),
                lambda: gap_exact(KnapsackInstance((6, 9, 20, 25)), (1, 9, 20, 25)),
            )
        }
        assert texts == {
            f"residue table modulo 6 needs 6 cells, cap is 5 (override with {ENV_VAR})"
        }
        monkeypatch.setenv(ENV_VAR, str(min(a) - 1))
        text = _refusal(lambda: list(_sampled(config, 0, 1)), BoundTooLarge)
        assert text == _refusal(lambda: frobenius(KnapsackInstance(a)), BoundTooLarge)


class TestDrawSize:
    # a draw holds its n coefficients, which the guardrail counts as cells
    def test_n_counts_as_cells(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "10")
        assert len(draw_instance(1, 0, 10, 2)[0].a) == 10
        assert len(next(iter(sample_instances(SamplerConfig(10, 2, 1, 1)))).a) == 10
        assert count_instances(10, 2) == 2**10 - 1
        refused = (
            f"draw of 11 coefficients needs 11 cells, cap is 10 (override with {ENV_VAR})"
        )
        for call in (
            lambda: check_box(11, 2),
            lambda: SamplerConfig(n=11, T=2, count=1, seed=1),
            lambda: ExperimentConfig(n=11, T=2, count=1, seed=1, epsilon="1/2"),
            lambda: draw_instance(1, 0, 11, 2),
            lambda: count_instances(11, 2),
        ):
            assert _refusal(call, BoundTooLarge) == refused

    def test_validation_comes_first(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "10")
        assert _refusal(lambda: check_box(11, 0)) == "T = 0 < 1"


class TestRarelyReachedRefusals:
    def test_tail_needs_a_threshold(self):
        config = ExperimentConfig(n=3, **_CONFIG)
        assert _refusal(lambda: tail_experiment(config)) == (
            "tail experiment needs at least one threshold"
        )

    def test_mean_needs_a_config(self):
        assert _refusal(lambda: mean_experiment([])) == (
            "mean experiment needs at least one config"
        )

    def test_nothing_to_export(self):
        handle = io.StringIO()
        assert _refusal(lambda: write_records_csv(handle, [])) == "nothing to export"
        assert handle.getvalue() == ""

    @pytest.mark.parametrize(
        "radius, r, message",
        [
            (-1, 0, "radius = -1 must be nonnegative"),
            (2, 3, "residue r = 3 out of range modulo 3"),
            (2, -1, "residue r = -1 out of range modulo 3"),
        ],
    )
    def test_bruteforce_arguments(self, radius, r, message):
        call = partial(group_min_bruteforce, _TRIPLE, 0, (5, 7), r, radius)
        assert _refusal(call) == message

    def test_as_fraction_unsupported_type(self):
        assert _refusal(lambda: as_fraction([1])) == "value has unsupported type list"
