"""Tests for the benchmark reporting helpers and the error hierarchy."""

import pytest

from repro.bench import BenchTable, geometric_mean, series_shape
from repro import errors


class TestBenchTable:
    def test_add_and_column(self):
        t = BenchTable("T", ["n", "ms"])
        t.add_row(10, 1.5)
        t.add_row(20, 3.0)
        assert t.column("n") == [10, 20]
        assert t.column("ms") == [1.5, 3.0]

    def test_row_arity_checked(self):
        t = BenchTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_unknown_column(self):
        t = BenchTable("T", ["a"])
        with pytest.raises(ValueError):
            t.column("z")

    def test_render_contains_title_and_values(self):
        t = BenchTable("E99 / demo", ["name", "value"])
        t.add_row("grid", 0.125)
        text = t.render()
        assert "E99 / demo" in text
        assert "grid" in text and "0.125" in text

    def test_render_empty_table(self):
        t = BenchTable("empty", ["a", "b"])
        text = t.render()
        assert "a" in text and "b" in text

    def test_float_formatting(self):
        t = BenchTable("fmt", ["v"])
        t.add_row(1234567.0)
        t.add_row(0.000123)
        t.add_row(0.0)
        text = t.render()
        assert "1.23e+06" in text
        assert "0.000123" in text


class TestSeriesShape:
    def test_linear(self):
        xs = [10, 20, 40, 80]
        assert series_shape(xs, [x * 3 for x in xs]) == pytest.approx(1.0)

    def test_quadratic(self):
        xs = [10, 20, 40, 80]
        assert series_shape(xs, [x * x for x in xs]) == pytest.approx(2.0)

    def test_constant(self):
        assert series_shape([1, 2, 4], [5, 5, 5]) == pytest.approx(0.0)

    def test_insufficient_points(self):
        assert series_shape([1], [1]) == 0.0
        assert series_shape([], []) == 0.0

    def test_ignores_nonpositive(self):
        assert series_shape([0, 10, 20], [0, 10, 20]) == pytest.approx(1.0)


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1, 4, 16]) == pytest.approx(4.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_ignores_nonpositive(self):
        assert geometric_mean([-1, 0, 8, 2]) == pytest.approx(4.0)


class TestErrorHierarchy:
    def test_all_library_errors_are_repro_errors(self):
        leaf_errors = [
            errors.SchemaError, errors.QueryError, errors.ScriptError,
            errors.ParseError("x"), errors.LexError("x"),
            errors.ContentError, errors.SpatialError, errors.NavMeshError,
            errors.TransactionError, errors.PersistenceError,
            errors.SQLError, errors.NetError,
            errors.WALError, errors.RecoveryError,
        ]
        for err in leaf_errors:
            cls = err if isinstance(err, type) else type(err)
            assert issubclass(cls, errors.ReproError), cls

    def test_aborts_carry_reason(self):
        assert errors.TransactionAborted("x").reason == "conflict"
        assert errors.DeadlockError("x").reason == "deadlock"
        assert errors.ValidationFailure("x").reason == "validation"

    def test_parse_error_position(self):
        err = errors.ParseError("bad", line=3, column=7)
        assert err.line == 3 and err.column == 7
        assert "line 3" in str(err)

    def test_budget_error_is_script_runtime(self):
        assert issubclass(errors.BudgetExceededError, errors.ScriptRuntimeError)
