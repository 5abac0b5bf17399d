"""Declarative schema-change steps — one migration language for E9 and E22.

A schema change is a list of small declarative steps (add, drop, rename,
retype, split).  The same step objects drive two executors:

* :class:`repro.schema.catalog.Catalog` migrates a *live* ticking
  :class:`~repro.core.world.GameWorld` offline or with incremental
  backfill and dual-version reads (experiments E9 and E22);
* the cluster coordinator broadcasts steps to shards and the
  replication journal replays them on standbys — which is why steps
  (de)serialize to plain records via :func:`steps_to_records`.

Derivations are *string expressions* evaluated over the old row with no
builtins (``"hp * 2"``, ``"x - y"``): deterministic, side-effect free,
and safe to put on a wire or in a WAL.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import Any, Iterable, Mapping

from repro.core.component import FIELD_TYPES, ComponentSchema, FieldDef
from repro.errors import SchemaError


@dataclass(frozen=True)
class AddColumn:
    """Add a column, filled from ``derive`` (an expression over the old
    row) or ``default``.  The ``(name, default)`` positional form is the
    E9 vocabulary and still works unchanged."""

    name: str
    default: Any = None
    type_name: str = "float"
    derive: str | None = None
    nullable: bool = False


@dataclass(frozen=True)
class DropColumn:
    """Remove a column."""

    name: str


@dataclass(frozen=True)
class RenameColumn:
    """Rename a column (type, default, and values are preserved)."""

    old: str
    new: str


@dataclass(frozen=True)
class RetypeColumn:
    """Change a column's type, casting every stored value."""

    name: str
    type_name: str


@dataclass(frozen=True)
class SplitColumn:
    """Derive several new columns from one source row, optionally
    dropping the source.  ``exprs[i]`` fills ``into[i]``; ``types[i]``
    (default ``float``) types the new column."""

    source: str
    into: tuple[str, ...]
    exprs: tuple[str, ...]
    types: tuple[str, ...] = ()
    drop_source: bool = True


Step = AddColumn | DropColumn | RenameColumn | RetypeColumn | SplitColumn


# ---------------------------------------------------------------------------
# Derivation expressions
# ---------------------------------------------------------------------------

_EXPR_CACHE: dict[str, Any] = {}


def eval_expr(expr: str, row: Mapping[str, Any]) -> Any:
    """Evaluate a derivation expression over one row.

    The expression sees the row's fields as names and nothing else — no
    builtins, no imports — so the same expression on the same row yields
    the same value on every shard and every replica.
    """
    code = _EXPR_CACHE.get(expr)
    if code is None:
        try:
            code = compile(expr, "<derive>", "eval")
        except SyntaxError as exc:
            raise SchemaError(f"bad derivation {expr!r}: {exc}") from None
        _EXPR_CACHE[expr] = code
    try:
        return eval(code, {"__builtins__": {}}, dict(row))  # noqa: S307
    except Exception as exc:
        raise SchemaError(f"derivation {expr!r} failed: {exc}") from None


def cast_value(value: Any, type_name: str, field: str) -> Any:
    """Cast one stored value for :class:`RetypeColumn`.

    int→float is exact for every int64; float→int requires an integral
    value (silent truncation would be data loss).
    """
    if value is None:
        return None
    try:
        if type_name == "float":
            if isinstance(value, bool):
                raise SchemaError(f"retype {field!r}: bool is not a float")
            return float(value)
        if type_name in ("int", "entity"):
            if isinstance(value, bool):
                raise SchemaError(f"retype {field!r}: bool is not an int")
            if isinstance(value, float):
                if not value.is_integer():
                    raise SchemaError(
                        f"retype {field!r}: {value!r} is not integral"
                    )
                return int(value)
            if isinstance(value, int):
                return value
            raise SchemaError(
                f"retype {field!r}: cannot cast {type(value).__name__} to int"
            )
        if type_name == "str":
            return str(value)
    except OverflowError as exc:
        raise SchemaError(f"retype {field!r}: {exc}") from None
    raise SchemaError(f"retype {field!r}: unsupported target {type_name!r}")


# ---------------------------------------------------------------------------
# Row-level application (shared by E9 rewrites and E22 backfill)
# ---------------------------------------------------------------------------


def apply_step_to_row(step: Step, row: dict[str, Any]) -> dict[str, Any]:
    """Apply one step to a row dict, in place; returns the row."""
    if isinstance(step, AddColumn):
        if step.derive is not None:
            row[step.name] = eval_expr(step.derive, row)
        else:
            row.setdefault(step.name, step.default)
    elif isinstance(step, DropColumn):
        row.pop(step.name, None)
    elif isinstance(step, RenameColumn):
        if step.old in row:
            row[step.new] = row.pop(step.old)
    elif isinstance(step, RetypeColumn):
        if step.name in row:
            row[step.name] = cast_value(row[step.name], step.type_name, step.name)
    elif isinstance(step, SplitColumn):
        source_row = dict(row)
        for target, expr in zip(step.into, step.exprs):
            row[target] = eval_expr(expr, source_row)
        if step.drop_source:
            row.pop(step.source, None)
    else:
        raise SchemaError(f"unknown migration step {step!r}")
    return row


def apply_steps_to_row(
    steps: Iterable[Step], row: Mapping[str, Any]
) -> dict[str, Any]:
    """Run every step over one row, returning the new row."""
    out = dict(row)
    for step in steps:
        apply_step_to_row(step, out)
    return out


# ---------------------------------------------------------------------------
# Schema-level application (live ComponentSchema evolution)
# ---------------------------------------------------------------------------


def _split_types(step: SplitColumn) -> tuple[str, ...]:
    if step.types:
        if len(step.types) != len(step.into):
            raise SchemaError(
                f"split {step.source!r}: {len(step.into)} targets but "
                f"{len(step.types)} types"
            )
        return step.types
    return ("float",) * len(step.into)


def apply_steps_to_schema(
    schema: ComponentSchema, steps: Iterable[Step]
) -> ComponentSchema:
    """Compute the schema the steps produce (the next catalog version)."""
    fields: dict[str, FieldDef] = dict(schema.fields)

    def _add(name: str, type_name: str, default: Any, nullable: bool) -> None:
        if name in fields:
            raise SchemaError(
                f"component {schema.name!r}: field {name!r} already exists"
            )
        fdef = FieldDef(name, type_name, nullable=nullable)
        if default is not None:
            fdef = _dc_replace(fdef, default=fdef.validate(default))
        fields[name] = fdef

    for step in steps:
        if isinstance(step, AddColumn):
            if step.type_name not in FIELD_TYPES:
                raise SchemaError(
                    f"add {step.name!r}: unknown type {step.type_name!r}"
                )
            _add(step.name, step.type_name, step.default, step.nullable)
        elif isinstance(step, DropColumn):
            if step.name not in fields:
                raise SchemaError(
                    f"component {schema.name!r} has no field {step.name!r}"
                )
            del fields[step.name]
        elif isinstance(step, RenameColumn):
            if step.old not in fields:
                raise SchemaError(
                    f"component {schema.name!r} has no field {step.old!r}"
                )
            if step.new in fields:
                raise SchemaError(
                    f"component {schema.name!r}: field {step.new!r} already exists"
                )
            fdef = fields.pop(step.old)
            fields[step.new] = _dc_replace(fdef, name=step.new)
        elif isinstance(step, RetypeColumn):
            if step.name not in fields:
                raise SchemaError(
                    f"component {schema.name!r} has no field {step.name!r}"
                )
            old = fields[step.name]
            default = None
            if old.default is not None:
                default = cast_value(old.default, step.type_name, step.name)
            fields[step.name] = FieldDef(
                step.name, step.type_name, default=default,
                indexable=old.indexable, nullable=old.nullable,
            )
        elif isinstance(step, SplitColumn):
            if step.source not in fields:
                raise SchemaError(
                    f"component {schema.name!r} has no field {step.source!r}"
                )
            if len(step.into) != len(step.exprs):
                raise SchemaError(
                    f"split {step.source!r}: {len(step.into)} targets but "
                    f"{len(step.exprs)} expressions"
                )
            for target, type_name in zip(step.into, _split_types(step)):
                _add(target, type_name, None, False)
            if step.drop_source:
                del fields[step.source]
        else:
            raise SchemaError(f"unknown migration step {step!r}")
    return ComponentSchema(schema.name, fields.values())


def affected_fields(steps: Iterable[Step]) -> frozenset[str]:
    """Fields whose *target-schema* values require backfill computation."""
    out: set[str] = set()
    for step in steps:
        if isinstance(step, (AddColumn, RetypeColumn)):
            out.add(step.name)
        elif isinstance(step, SplitColumn):
            out.update(step.into)
    return frozenset(out)


def removed_fields(steps: Iterable[Step]) -> frozenset[str]:
    """Old-schema fields that no longer exist under their old name."""
    out: set[str] = set()
    for step in steps:
        if isinstance(step, DropColumn):
            out.add(step.name)
        elif isinstance(step, RenameColumn):
            out.add(step.old)
        elif isinstance(step, SplitColumn) and step.drop_source:
            out.add(step.source)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Serialization (cluster rollout messages, replication journal records)
# ---------------------------------------------------------------------------


def step_to_record(step: Step) -> dict[str, Any]:
    """One step as a plain record (raises for unknown step types)."""
    if isinstance(step, AddColumn):
        return {
            "op": "add", "name": step.name, "default": step.default,
            "type": step.type_name, "derive": step.derive,
            "nullable": step.nullable,
        }
    if isinstance(step, DropColumn):
        return {"op": "drop", "name": step.name}
    if isinstance(step, RenameColumn):
        return {"op": "rename", "old": step.old, "new": step.new}
    if isinstance(step, RetypeColumn):
        return {"op": "retype", "name": step.name, "type": step.type_name}
    if isinstance(step, SplitColumn):
        return {
            "op": "split", "source": step.source, "into": list(step.into),
            "exprs": list(step.exprs), "types": list(_split_types(step)),
            "drop_source": step.drop_source,
        }
    raise SchemaError(f"unknown migration step {step!r}")


def step_from_record(record: Mapping[str, Any]) -> Step:
    """Inverse of :func:`step_to_record`."""
    op = record["op"]
    if op == "add":
        return AddColumn(
            record["name"], record.get("default"),
            record.get("type", "float"), record.get("derive"),
            record.get("nullable", False),
        )
    if op == "drop":
        return DropColumn(record["name"])
    if op == "rename":
        return RenameColumn(record["old"], record["new"])
    if op == "retype":
        return RetypeColumn(record["name"], record["type"])
    if op == "split":
        return SplitColumn(
            record["source"], tuple(record["into"]), tuple(record["exprs"]),
            tuple(record.get("types", ())), record.get("drop_source", True),
        )
    raise SchemaError(f"unknown step record {record!r}")


def steps_to_records(steps: Iterable[Step]) -> tuple[dict[str, Any], ...]:
    """Serialize a step list for the wire or the WAL."""
    return tuple(step_to_record(s) for s in steps)


def steps_from_records(records: Iterable[Mapping[str, Any]]) -> tuple[Step, ...]:
    """Deserialize a step list shipped by a coordinator or a journal."""
    return tuple(step_from_record(r) for r in records)


def schema_to_record(schema: ComponentSchema) -> dict[str, Any]:
    """A ComponentSchema as a plain record (for ``define`` journal entries)."""
    return {
        "name": schema.name,
        "fields": [
            {
                "name": f.name, "type": f.type_name, "default": f.default,
                "indexable": f.indexable, "nullable": f.nullable,
            }
            for f in schema.fields.values()
        ],
    }


def schema_from_record(record: Mapping[str, Any]) -> ComponentSchema:
    """Inverse of :func:`schema_to_record`."""
    return ComponentSchema(
        record["name"],
        [
            FieldDef(
                f["name"], f["type"], default=f.get("default"),
                indexable=f.get("indexable", True),
                nullable=f.get("nullable", False),
            )
            for f in record["fields"]
        ],
    )


def placeholder_for(fdef: FieldDef) -> Any:
    """Type-correct placeholder stored in a new column before backfill."""
    if fdef.nullable:
        return None
    return {
        "float": 0.0, "int": 0, "entity": 0, "str": "", "bool": False,
        "blob": b"",
    }[fdef.type_name]
