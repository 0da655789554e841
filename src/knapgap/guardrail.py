"""Memory guardrail for table-shaped computations.

Residue tables, representability sieves and exhaustive enumerations all
allocate one cell per lattice point or residue.  Every such allocation is
checked against a cap, by default 10**8 cells, overridable globally
through the KNAPGAP_GUARDRAIL_CELLS environment variable.  check_cells
also takes an explicit cap, which wins over both: the sampler
(knapgap.experiments) reads the cap once per range, compares each record's
table with it, and calls check_cells with that cap only to refuse one,
since reading the environment costs more than checking one record's table.
"""

from __future__ import annotations

import os

from .errors import BoundTooLarge

DEFAULT_MAX_CELLS = 10**8

ENV_VAR = "KNAPGAP_GUARDRAIL_CELLS"


def cell_cap(explicit: int | None = None) -> int:
    """Resolve the active cell budget.

    An explicit argument wins, then the environment variable, then the
    default.
    """
    if explicit is not None:
        if explicit < 1:
            raise ValueError("cell cap must be a positive integer")
        return explicit
    raw = os.environ.get(ENV_VAR)
    if raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
        if value < 1:
            raise ValueError(f"{ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_MAX_CELLS


def check_cells(needed: int, what: str, explicit: int | None = None) -> None:
    """Raise BoundTooLarge if `needed` cells exceed the active budget."""
    cap = cell_cap(explicit)
    if needed > cap:
        raise BoundTooLarge(
            f"{what} needs {needed} cells, cap is {cap} (override with {ENV_VAR})"
        )
