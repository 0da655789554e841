"""The cell cap: explicit argument, environment variable, default."""

import pytest

from knapgap import BoundTooLarge
from knapgap.guardrail import DEFAULT_MAX_CELLS, ENV_VAR, cell_cap, check_cells


class TestCellCap:
    def test_default_when_unset_or_empty(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert cell_cap() == DEFAULT_MAX_CELLS
        monkeypatch.setenv(ENV_VAR, "")
        assert cell_cap() == DEFAULT_MAX_CELLS

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "5")
        assert cell_cap(7) == 7
        check_cells(7, "seven cells", 7)
        with pytest.raises(ValueError, match="positive integer"):
            cell_cap(0)

    def test_changed_variable_is_seen(self, monkeypatch):
        # the variable is read on every call, so every change of it, back
        # and forth, takes effect
        for raw, cap in [("10", 10), ("11", 11), ("10", 10), (" 12 ", 12)]:
            monkeypatch.setenv(ENV_VAR, raw)
            assert cell_cap() == cap
            check_cells(cap, "a table")
            with pytest.raises(BoundTooLarge, match=f"needs {cap + 1} cells, cap is {cap}"):
                check_cells(cap + 1, "a table")
        monkeypatch.delenv(ENV_VAR)
        assert cell_cap() == DEFAULT_MAX_CELLS

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("abc", "KNAPGAP_GUARDRAIL_CELLS must be an integer, got 'abc'"),
            ("1e5", "KNAPGAP_GUARDRAIL_CELLS must be an integer, got '1e5'"),
            ("0", "KNAPGAP_GUARDRAIL_CELLS must be positive, got 0"),
            ("-3", "KNAPGAP_GUARDRAIL_CELLS must be positive, got -3"),
        ],
    )
    def test_invalid_variable_raises_every_time(self, monkeypatch, raw, message):
        monkeypatch.setenv(ENV_VAR, "10")
        assert cell_cap() == 10
        monkeypatch.setenv(ENV_VAR, raw)
        for _ in range(3):
            with pytest.raises(ValueError) as info:
                check_cells(1, "one cell")
            assert str(info.value) == message
