"""Tests for the SQL engine adapter over stdlib sqlite3."""

import pytest

from repro.errors import SQLError
from repro.persistence import SQLEngine


@pytest.fixture
def db():
    sql = SQLEngine()
    sql.execute(
        "CREATE TABLE chars (id INTEGER PRIMARY KEY, name TEXT, "
        "gold INTEGER, level REAL)"
    )
    for i in range(10):
        sql.execute(
            "INSERT INTO chars (id, name, gold, level) VALUES (?, ?, ?, ?)",
            (i, f"p{i}", i * 10, 1.0 + i),
        )
    return sql


class TestCreate:
    def test_duplicate_table(self, db):
        with pytest.raises(SQLError, match="already exists"):
            db.execute("CREATE TABLE chars (id INTEGER)")

    def test_duplicate_column(self):
        sql = SQLEngine()
        with pytest.raises(SQLError, match="duplicate column"):
            sql.execute("CREATE TABLE t (a INTEGER, a TEXT)")

    def test_table_names(self, db):
        assert db.table_names() == ["chars"]


class TestInsert:
    def test_type_checking(self, db):
        # tables are STRICT: a typed column refuses a smuggled value
        with pytest.raises(SQLError, match="cannot store TEXT"):
            db.execute(
                "INSERT INTO chars (id, gold) VALUES (?, ?)", (99, "lots")
            )

    def test_pk_uniqueness(self, db):
        with pytest.raises(SQLError, match="UNIQUE constraint"):
            db.execute("INSERT INTO chars (id, name) VALUES (5, 'dup')")

    def test_missing_columns_default_null(self, db):
        db.execute("INSERT INTO chars (id) VALUES (100)")
        row = db.execute("SELECT name FROM chars WHERE id = 100")[0]
        assert row["name"] is None

    def test_unknown_column(self, db):
        with pytest.raises(SQLError, match="no column"):
            db.execute("INSERT INTO chars (id, mana) VALUES (50, 1)")

    def test_count_mismatch(self, db):
        with pytest.raises(SQLError, match="1 values for 2 columns"):
            db.execute("INSERT INTO chars (id, name) VALUES (50)")

    def test_real_accepts_int(self, db):
        db.execute("INSERT INTO chars (id, level) VALUES (77, 3)")
        assert db.execute("SELECT level FROM chars WHERE id = 77")[0][
            "level"
        ] == 3.0


class TestSelect:
    def test_projection(self, db):
        rows = db.execute("SELECT name, gold FROM chars WHERE id = 3")
        assert rows == [{"name": "p3", "gold": 30}]

    def test_star(self, db):
        rows = db.execute("SELECT * FROM chars WHERE id = 0")
        assert set(rows[0]) == {"id", "name", "gold", "level"}

    def test_where_and(self, db):
        rows = db.execute(
            "SELECT id FROM chars WHERE gold >= 30 AND gold < 60"
        )
        assert sorted(r["id"] for r in rows) == [3, 4, 5]

    def test_order_and_limit(self, db):
        rows = db.execute(
            "SELECT id FROM chars ORDER BY gold DESC LIMIT 3"
        )
        assert [r["id"] for r in rows] == [9, 8, 7]

    def test_order_asc_explicit(self, db):
        rows = db.execute("SELECT id FROM chars ORDER BY gold ASC LIMIT 2")
        assert [r["id"] for r in rows] == [0, 1]

    def test_parameters_are_not_parsed_as_sql(self, db):
        # the injection-safety property the "bridge" needs
        db.execute(
            "INSERT INTO chars (id, name) VALUES (?, ?)",
            (200, "Robert'); DROP TABLE chars;--"),
        )
        assert db.row_count("chars") == 11
        rows = db.execute("SELECT name FROM chars WHERE id = 200")
        assert rows[0]["name"] == "Robert'); DROP TABLE chars;--"

    def test_quoted_strings_with_escapes(self, db):
        db.execute("INSERT INTO chars (id, name) VALUES (201, 'O''Brien')")
        rows = db.execute("SELECT name FROM chars WHERE id = 201")
        assert rows[0]["name"] == "O'Brien"

    def test_missing_param(self, db):
        with pytest.raises(SQLError, match="Incorrect number of bindings"):
            db.execute("SELECT id FROM chars WHERE gold > ?")

    def test_unknown_table(self, db):
        with pytest.raises(SQLError, match="no such table"):
            db.execute("SELECT * FROM ghosts")

    def test_unknown_column_in_where(self, db):
        with pytest.raises(SQLError, match="no such column"):
            db.execute("SELECT id FROM chars WHERE mana = 1")

    def test_trailing_garbage(self, db):
        with pytest.raises(SQLError, match="syntax error"):
            db.execute("SELECT id FROM chars WHERE id = 1 banana")

    def test_null_never_matches_comparison(self, db):
        db.execute("INSERT INTO chars (id) VALUES (300)")
        rows = db.execute("SELECT id FROM chars WHERE name = 'p1'")
        assert [r["id"] for r in rows] == [1]
        rows2 = db.execute("SELECT id FROM chars WHERE gold < 10000")
        assert 300 not in [r["id"] for r in rows2]

    def test_negative_numbers(self, db):
        db.execute("INSERT INTO chars (id, gold) VALUES (400, -5)")
        rows = db.execute("SELECT id FROM chars WHERE gold < 0")
        assert [r["id"] for r in rows] == [400]


class TestUpdateDelete:
    def test_update(self, db):
        db.execute("UPDATE chars SET gold = ? WHERE id = ?", (999, 4))
        assert db.execute("SELECT gold FROM chars WHERE id = 4")[0]["gold"] == 999

    def test_update_multiple_columns(self, db):
        db.execute("UPDATE chars SET gold = 1, name = 'renamed' WHERE id = 2")
        row = db.execute("SELECT * FROM chars WHERE id = 2")[0]
        assert row["gold"] == 1 and row["name"] == "renamed"

    def test_update_all_rows(self, db):
        db.execute("UPDATE chars SET gold = 0")
        assert db.rowcount == 10
        assert db.execute(
            "SELECT COUNT(*) AS count FROM chars WHERE gold = 0"
        ) == [{"count": 10}]

    def test_delete(self, db):
        db.execute("DELETE FROM chars WHERE gold >= 50")
        assert db.row_count("chars") == 5

    def test_delete_then_reinsert_pk(self, db):
        db.execute("DELETE FROM chars WHERE id = 3")
        db.execute("INSERT INTO chars (id, name) VALUES (3, 'reborn')")
        assert db.execute("SELECT name FROM chars WHERE id = 3")[0][
            "name"
        ] == "reborn"

    def test_rowcount_after_update(self, db):
        db.execute("UPDATE chars SET gold = 0 WHERE gold >= ?", (70,))
        assert db.rowcount == 3
        # a guarded UPDATE that matches nothing reports 0: the CAS signal
        db.execute("UPDATE chars SET gold = 1 WHERE id = ? AND gold = ?", (1, 99))
        assert db.rowcount == 0

    def test_rowcount_after_select(self, db):
        rows = db.execute("SELECT id FROM chars WHERE gold < 30")
        assert db.rowcount == len(rows) == 3


class TestStatements:
    def test_statement_counter(self, db):
        before = db.statements_executed
        db.execute("SELECT id FROM chars WHERE id = 1")
        assert db.statements_executed == before + 1

    def test_unsupported_statement(self, db):
        with pytest.raises(SQLError):
            db.execute("GRANT ALL ON chars")

    def test_row_count_and_table_names_are_not_statements(self, db):
        before = db.statements_executed
        assert db.row_count("chars") == 10
        assert db.table_names() == ["chars"]
        assert db.statements_executed == before

    def test_row_count_unknown_table(self, db):
        with pytest.raises(SQLError, match="no such table"):
            db.row_count("ghosts")
