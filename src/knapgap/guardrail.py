"""Memory guardrail for table-shaped computations.

Residue tables, representability sieves and exhaustive enumerations all
allocate one cell per lattice point or residue.  Every such allocation is
checked against a cap, by default 10**8 cells, overridable globally
through the KNAPGAP_GUARDRAIL_CELLS environment variable, which cell_cap
reads on every call; a value that is not a positive integer is a
ValidationError.  check_cells is the one place that refuses.  Frobenius
tables take a cap their caller read: group._frobenius compares min(a)
with it and calls check_cells only for a table past it, so the sampler
(knapgap.experiments) reads cell_cap once per range rather than once per
record, since reading the environment costs more than checking one
record's table, and its refusal has the same text as any other.
"""

from __future__ import annotations

import os

from .errors import BoundTooLarge, ValidationError

DEFAULT_MAX_CELLS = 10**8

ENV_VAR = "KNAPGAP_GUARDRAIL_CELLS"


def cell_cap() -> int:
    """The active cell budget: the environment variable, else the default."""
    raw = os.environ.get(ENV_VAR)
    if raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValidationError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
        if value < 1:
            raise ValidationError(f"{ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_MAX_CELLS


def check_cells(needed: int, what: str) -> None:
    """Raise BoundTooLarge if `needed` cells exceed the active budget."""
    cap = cell_cap()
    if needed > cap:
        raise BoundTooLarge(
            f"{what} needs {needed} cells, cap is {cap} (override with {ENV_VAR})"
        )
