"""The shared migration-step vocabulary: casts, row/schema application,
and wire/WAL serialization round-trips."""

import pytest

from repro.core.component import ComponentSchema, FieldDef, schema
from repro.errors import SchemaError
from repro.schema.steps import (
    AddColumn,
    DropColumn,
    RenameColumn,
    RetypeColumn,
    SplitColumn,
    apply_steps_to_row,
    apply_steps_to_schema,
    cast_value,
    eval_expr,
    placeholder_for,
    schema_from_record,
    schema_to_record,
    steps_from_records,
    steps_to_records,
)


class TestCasts:
    def test_int_to_float_is_exact(self):
        assert cast_value(7, "float", "f") == 7.0
        assert isinstance(cast_value(7, "float", "f"), float)

    def test_float_to_int_requires_integral(self):
        assert cast_value(4.0, "int", "f") == 4
        with pytest.raises(SchemaError):
            cast_value(4.5, "int", "f")

    def test_bool_is_not_a_number(self):
        with pytest.raises(SchemaError):
            cast_value(True, "float", "f")
        with pytest.raises(SchemaError):
            cast_value(False, "int", "f")

    def test_anything_to_str(self):
        assert cast_value(12, "str", "f") == "12"

    def test_none_passes_through(self):
        assert cast_value(None, "float", "f") is None

    def test_overflow_is_schema_error(self):
        with pytest.raises(SchemaError):
            cast_value(10**400, "float", "f")


class TestRowApplication:
    def test_add_default_and_derive(self):
        row = apply_steps_to_row(
            [AddColumn("regen", 1.5), AddColumn("hp2", derive="hp * 2")],
            {"hp": 10},
        )
        assert row == {"hp": 10, "regen": 1.5, "hp2": 20}

    def test_add_keeps_existing_value(self):
        # E9 semantics: a row that already has the column is untouched.
        row = apply_steps_to_row([AddColumn("hp", 100)], {"hp": 3})
        assert row == {"hp": 3}

    def test_rename_and_retype(self):
        row = apply_steps_to_row(
            [RenameColumn("hp", "health"), RetypeColumn("health", "float")],
            {"hp": 9},
        )
        assert row == {"health": 9.0}

    def test_split_sees_the_pre_step_row(self):
        # Both expressions evaluate against a copy taken before the
        # split writes anything, and the source drops afterwards.
        row = apply_steps_to_row(
            [SplitColumn("v", into=("dbl", "half"), exprs=("v * 2", "v / 2"))],
            {"v": 8},
        )
        assert row == {"dbl": 16, "half": 4.0}

    def test_split_can_keep_the_source(self):
        row = apply_steps_to_row(
            [SplitColumn("v", into=("dbl",), exprs=("v * 2",),
                         drop_source=False)],
            {"v": 8},
        )
        assert row == {"v": 8, "dbl": 16}

    def test_expressions_have_no_builtins(self):
        with pytest.raises(SchemaError):
            eval_expr("__import__('os')", {"hp": 1})


class TestSchemaApplication:
    def _schema(self):
        return schema("Health", hp=("int", 100), armor=("int", 0))

    def test_add_and_drop(self):
        out = apply_steps_to_schema(
            self._schema(),
            [AddColumn("regen", 0.5), DropColumn("armor")],
        )
        assert set(out.fields) == {"hp", "regen"}
        assert out.fields["regen"].type_name == "float"
        assert out.fields["regen"].default == 0.5

    def test_retype_recasts_the_default(self):
        out = apply_steps_to_schema(self._schema(), [RetypeColumn("hp", "float")])
        assert out.fields["hp"].type_name == "float"
        assert out.fields["hp"].default == 100.0

    def test_rename_preserves_type_and_default(self):
        out = apply_steps_to_schema(self._schema(), [RenameColumn("hp", "health")])
        assert out.fields["health"].type_name == "int"
        assert out.fields["health"].default == 100

    def test_duplicate_add_rejected(self):
        with pytest.raises(SchemaError):
            apply_steps_to_schema(self._schema(), [AddColumn("hp", 1)])

    def test_unknown_field_rejected(self):
        for step in (
            DropColumn("mana"),
            RenameColumn("mana", "mp"),
            RetypeColumn("mana", "float"),
        ):
            with pytest.raises(SchemaError):
                apply_steps_to_schema(self._schema(), [step])

    def test_split_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            apply_steps_to_schema(
                self._schema(),
                [SplitColumn("hp", into=("a", "b"), exprs=("hp",))],
            )


class TestSerialization:
    STEPS = (
        AddColumn("regen", 0.5),
        AddColumn("hp2", type_name="int", derive="hp * 2"),
        DropColumn("armor"),
        RenameColumn("hp", "health"),
        RetypeColumn("health", "float"),
        SplitColumn("pos", into=("x", "y"), exprs=("pos", "pos"),
                    types=("float", "float")),
    )

    def test_round_trip(self):
        records = steps_to_records(self.STEPS)
        assert steps_from_records(records) == self.STEPS

    def test_records_are_plain_data(self):
        import json

        json.dumps(steps_to_records(self.STEPS))  # must not raise

    def test_schema_round_trip(self):
        s = ComponentSchema(
            "Pos",
            (FieldDef("x", "float"), FieldDef("tag", "str", default="n")),
        )
        back = schema_from_record(schema_to_record(s))
        assert back.name == s.name
        assert back.fields == s.fields


class TestPlaceholders:
    def test_typed_placeholders(self):
        assert placeholder_for(FieldDef("f", "float")) == 0.0
        assert placeholder_for(FieldDef("f", "int")) == 0
        assert placeholder_for(FieldDef("f", "str")) == ""
        assert placeholder_for(FieldDef("f", "float", nullable=True)) is None
