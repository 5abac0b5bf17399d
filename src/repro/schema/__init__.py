"""repro.schema — versioned component schemas with online migration.

The schema plane of the game database: declarative migration steps
(:mod:`repro.schema.steps`), the only home of the step vocabulary, and
the :class:`~repro.schema.catalog.Catalog` façade every world exposes as
``world.catalog`` — define, alter (offline, or with live incremental
backfill and dual-version reads), describe.
"""

from repro.schema.steps import (
    AddColumn,
    DropColumn,
    RenameColumn,
    RetypeColumn,
    SplitColumn,
    Step,
    apply_steps_to_row,
    apply_steps_to_schema,
    steps_from_records,
    steps_to_records,
)
from repro.schema.catalog import (
    DEFAULT_BATCH_ROWS,
    AlterHandle,
    Catalog,
    CatalogStats,
)

__all__ = [
    "AddColumn",
    "DropColumn",
    "RenameColumn",
    "RetypeColumn",
    "SplitColumn",
    "Step",
    "apply_steps_to_row",
    "apply_steps_to_schema",
    "steps_from_records",
    "steps_to_records",
    "AlterHandle",
    "Catalog",
    "CatalogStats",
    "DEFAULT_BATCH_ROWS",
]
