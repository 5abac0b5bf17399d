"""Tests for blob codecs, and for the catalog migrations E9 sets
against them (structured columns, offline and online)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GameWorld
from repro.errors import PersistenceError, SchemaError, UnknownEntityError
from repro.persistence import (
    BlobCodec,
    blob_size,
    decode_record,
    encode_record,
)
from repro.schema import AddColumn, DropColumn, RenameColumn


def char_world(rows, **fields):
    """A world whose ``Char`` table holds ``rows``; returns (world, eids)."""
    world = GameWorld()
    world.catalog.define("Char", **fields)
    return world, [world.spawn(Char=row) for row in rows]


def migrated(row, steps, **fields):
    """One stored character after an offline alter of ``steps``."""
    world, (eid,) = char_world([row], **fields)
    world.catalog.alter("Char", steps, online=False)
    return world.get(eid, "Char")


class TestBlobEncoding:
    def test_roundtrip_all_types(self):
        rec = {
            "name": "Thrall",
            "gold": -12345,
            "level": 12.5,
            "hardcore": True,
            "guild": None,
            "notes": "says \"hi\" ☃",
        }
        blob = encode_record(rec, 3)
        out, version = decode_record(blob)
        assert out == rec and version == 3

    def test_empty_record(self):
        out, version = decode_record(encode_record({}, 1))
        assert out == {} and version == 1

    def test_version_byte_range(self):
        with pytest.raises(PersistenceError):
            encode_record({}, 256)

    def test_unpackable_type_rejected(self):
        with pytest.raises(PersistenceError):
            encode_record({"xs": [1, 2]}, 1)

    def test_truncated_blob_rejected(self):
        blob = encode_record({"name": "x"}, 1)
        with pytest.raises(PersistenceError):
            decode_record(blob[: len(blob) - 1])

    def test_too_short(self):
        with pytest.raises(PersistenceError):
            decode_record(b"\x01")

    def test_size_accounting(self):
        small = blob_size({"a": 1})
        big = blob_size({"a": 1, "long_field_name": "x" * 100})
        assert big > small > 0


class TestBlobCodecUpgrades:
    def test_lazy_upgrade_on_read(self):
        codec = BlobCodec(current_version=1)
        old_blob = codec.encode({"gold": 10})
        codec.register_upgrader(1, lambda r: {**r, "honor": 0})
        codec.bump_version()
        assert codec.decode(old_blob) == {"gold": 10, "honor": 0}
        assert codec.upgrades_run == 1

    def test_chained_upgrades(self):
        codec = BlobCodec(current_version=1)
        blob = codec.encode({"gold": 10})
        codec.register_upgrader(1, lambda r: {**r, "honor": 0})
        codec.bump_version()
        codec.register_upgrader(2, lambda r: {**r, "gold": r["gold"] * 2})
        codec.bump_version()
        assert codec.decode(blob) == {"gold": 20, "honor": 0}
        assert codec.upgrades_run == 2

    def test_current_version_blob_not_upgraded(self):
        codec = BlobCodec(current_version=1)
        codec.register_upgrader(1, lambda r: r)
        codec.bump_version()
        fresh = codec.encode({"a": 1})
        codec.decode(fresh)
        assert codec.upgrades_run == 0

    def test_missing_upgrader(self):
        codec = BlobCodec(current_version=1)
        blob = codec.encode({})
        codec.current_version = 3
        with pytest.raises(PersistenceError, match="no upgrader"):
            codec.decode(blob)

    def test_duplicate_upgrader(self):
        codec = BlobCodec()
        codec.register_upgrader(1, lambda r: r)
        with pytest.raises(PersistenceError):
            codec.register_upgrader(1, lambda r: r)

    def test_read_field_decodes_whole_blob(self):
        codec = BlobCodec()
        blob = codec.encode({"a": 1, "b": 2})
        assert codec.read_field(blob, "a") == 1
        with pytest.raises(PersistenceError):
            codec.read_field(blob, "z")


@settings(max_examples=60, deadline=None)
@given(
    rec=st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True),
        st.one_of(
            st.integers(-(2 ** 62), 2 ** 62),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=30),
            st.booleans(),
            st.none(),
        ),
        max_size=10,
    ),
    version=st.integers(0, 255),
)
def test_blob_roundtrip_property(rec, version):
    out, v = decode_record(encode_record(rec, version))
    assert out == rec and v == version


class TestMigrationSteps:
    def test_add_column(self):
        row = migrated({"gold": 5}, [AddColumn("honor", 0, type_name="int")],
                       gold="int")
        assert row == {"gold": 5, "honor": 0}

    def test_add_does_not_clobber(self):
        # a write landing mid-backfill keeps its value; the default only
        # fills rows the backfill has not reached
        world, (eid,) = char_world([{"gold": 1}], gold="int")
        handle = world.catalog.alter(
            "Char", [AddColumn("honor", 0, type_name="int")], batch_rows=1
        )
        world.set(eid, "Char", honor=9)
        while not handle.done:
            world.tick()
        assert world.get(eid, "Char") == {"gold": 1, "honor": 9}

    def test_drop_column(self):
        row = migrated({"junk": 1, "keep": 2}, [DropColumn("junk")],
                       junk="int", keep="int")
        assert row == {"keep": 2}

    def test_rename(self):
        row = migrated({"gold": 7}, [RenameColumn("gold", "coins")],
                       gold="int")
        assert row == {"coins": 7}

    def test_transform_sees_whole_row(self):
        row = migrated(
            {"a": 1, "b": 2},
            [AddColumn("total", type_name="int", derive="a + b")],
            a="int", b="int",
        )
        assert row == {"a": 1, "b": 2, "total": 3}

    def test_steps_ordered(self):
        row = migrated(
            {"gold": 5},
            [RenameColumn("gold", "coins"),
             AddColumn("double", type_name="int", derive="coins * 2")],
            gold="int",
        )
        assert row == {"coins": 5, "double": 10}


class TestRunner:
    """E9's structured side: two seasons of migration by the catalog."""

    SEASONS = (
        [AddColumn("honor", 0, type_name="int")],
        [RenameColumn("gold", "coins")],
    )

    def populate(self, n=50):
        return char_world(
            [{"name": f"p{i}", "gold": i} for i in range(n)],
            name="str", gold="int",
        )

    def offline(self, world):
        """Both seasons, stop-the-world; returns rows rewritten."""
        return sum(
            world.catalog.alter("Char", steps, online=False).rows_migrated
            for steps in self.SEASONS
        )

    def online(self, world, batch_rows):
        """Both seasons folded into one online alter."""
        return world.catalog.alter(
            "Char", [s for steps in self.SEASONS for s in steps],
            batch_rows=batch_rows,
        )

    def test_chain_validation(self):
        world, _ = self.populate()
        self.offline(world)
        assert world.catalog.version_of("Char") == 3
        # a row shipped at v1 replays the recorded chain up to v3
        lifted = world.catalog.upgrade_payload(
            "Char", {"name": "p7", "gold": 7}, 1
        )
        assert lifted == {"name": "p7", "coins": 7, "honor": 0}
        with pytest.raises(SchemaError, match="no recorded steps"):
            world.catalog.upgrade_payload("Char", {"gold": 7}, 0)

    def test_duplicate_registration(self):
        # one migration per version: a second alter waits for the first
        world, _ = self.populate()
        self.online(world, batch_rows=8)
        with pytest.raises(SchemaError, match="already has an alter"):
            world.catalog.alter("Char", self.SEASONS[0])

    def test_offline_migrates_everything(self):
        world, eids = self.populate()
        assert self.offline(world) == 100  # 50 rows x 2 seasons
        assert world.catalog.version_of("Char") == 3
        assert world.get(eids[7], "Char") == {
            "name": "p7", "coins": 7, "honor": 0,
        }

    def test_offline_downtime_scales_with_rows(self):
        small = self.offline(self.populate(10)[0])
        big = self.offline(self.populate(100)[0])
        assert big == 10 * small

    def test_online_zero_downtime(self):
        world, eids = self.populate()
        handle = self.online(world, batch_rows=8)
        assert not handle.done  # alter returned before any row moved
        while not handle.done:
            world.tick()
        assert world.get(eids[3], "Char") == {
            "name": "p3", "coins": 3, "honor": 0,
        }
        assert handle.rows_migrated == 50  # each row rewritten once

    def test_online_read_during_backfill(self):
        world, eids = self.populate()
        handle = self.online(world, batch_rows=4)
        world.tick()  # only a few rows backfilled
        assert world.table("Char").unmigrated_count > 0
        # an un-backfilled row already reads at the target schema
        assert world.get(eids[49], "Char") == {
            "name": "p49", "coins": 49, "honor": 0,
        }
        assert not handle.done

    def test_online_writes_land_at_new_version(self):
        world, _ = self.populate()
        handle = self.online(world, batch_rows=8)
        fresh = world.spawn(Char={"name": "fresh", "coins": 0, "honor": 0})
        while not handle.done:
            world.tick()
        assert world.get(fresh, "Char")["name"] == "fresh"
        assert handle.rows_migrated == 50  # the fresh row was born migrated

    def test_online_equals_offline_result(self):
        offline_world, eids = self.populate()
        self.offline(offline_world)
        online_world, _ = self.populate()
        handle = self.online(online_world, batch_rows=7)
        while not handle.done:
            online_world.tick()
        for eid in eids:
            assert offline_world.get(eid, "Char") == online_world.get(eid, "Char")

    def test_missing_row(self):
        world, _ = self.populate(3)
        with pytest.raises(UnknownEntityError):
            world.get(999, "Char")
