"""Unit tests for the schema diff engine."""

from repro.diff.changes import ChangeKind
from repro.diff.engine import DiffOptions, diff_schemas
from repro.schema.builder import build_schema
from repro.schema.model import EMPTY_SCHEMA
from repro.sqlddl.parser import parse_script


def schema_of(sql):
    return build_schema(parse_script(sql))


def diff(old_sql, new_sql, **options):
    return diff_schemas(schema_of(old_sql), schema_of(new_sql),
                        DiffOptions(**options) if options else None)


class TestTableLevel:
    def test_identical_schemas_empty_diff(self):
        sql = "CREATE TABLE t (a INT, b TEXT);"
        assert diff(sql, sql).is_empty

    def test_birth_from_empty(self):
        delta = diff_schemas(EMPTY_SCHEMA,
                             schema_of("CREATE TABLE t (a INT, b INT);"))
        assert delta.total_affected == 2
        assert all(c.kind is ChangeKind.BORN_WITH_TABLE for c in delta)
        assert delta.tables_added == ("t",)

    def test_table_added(self):
        delta = diff("CREATE TABLE a (x INT);",
                     "CREATE TABLE a (x INT); CREATE TABLE b (y INT, z INT);")
        assert delta.tables_added == ("b",)
        assert delta.total_affected == 2

    def test_table_dropped(self):
        delta = diff("CREATE TABLE a (x INT); CREATE TABLE b (y INT);",
                     "CREATE TABLE a (x INT);")
        assert delta.tables_dropped == ("b",)
        assert delta.changes[0].kind is ChangeKind.DELETED_WITH_TABLE

    def test_to_empty(self):
        delta = diff_schemas(schema_of("CREATE TABLE t (a INT);"),
                             EMPTY_SCHEMA)
        assert delta.total_affected == 1
        assert delta.maintenance_count == 1

    def test_deterministic_order(self):
        old = "CREATE TABLE m (x INT);"
        new = ("CREATE TABLE m (x INT); CREATE TABLE b (y INT); "
               "CREATE TABLE a (z INT);")
        delta = diff(old, new)
        assert [c.table for c in delta] == ["a", "b"]


class TestAttributeLevel:
    def test_injected(self):
        delta = diff("CREATE TABLE t (a INT);",
                     "CREATE TABLE t (a INT, b TEXT);")
        assert delta.changes[0].kind is ChangeKind.INJECTED
        assert delta.changes[0].attribute == "b"
        assert delta.expansion_count == 1

    def test_ejected(self):
        delta = diff("CREATE TABLE t (a INT, b TEXT);",
                     "CREATE TABLE t (a INT);")
        assert delta.changes[0].kind is ChangeKind.EJECTED
        assert delta.maintenance_count == 1

    def test_type_changed(self):
        delta = diff("CREATE TABLE t (a INT);",
                     "CREATE TABLE t (a TEXT);")
        assert delta.changes[0].kind is ChangeKind.TYPE_CHANGED
        assert "INTEGER" in delta.changes[0].detail

    def test_type_alias_not_a_change(self):
        delta = diff("CREATE TABLE t (a INT(11));",
                     "CREATE TABLE t (a INTEGER);")
        assert delta.is_empty

    def test_varchar_length_is_type_change(self):
        delta = diff("CREATE TABLE t (a VARCHAR(10));",
                     "CREATE TABLE t (a VARCHAR(20));")
        assert delta.changes[0].kind is ChangeKind.TYPE_CHANGED

    def test_array_of_type_is_type_change(self):
        delta = diff("CREATE TABLE t (a TEXT);",
                     "CREATE TABLE t (a TEXT[]);")
        assert delta.changes[0].kind is ChangeKind.TYPE_CHANGED
        assert "TEXT[]" in delta.changes[0].detail

    def test_pk_participation_change(self):
        delta = diff("CREATE TABLE t (a INT);",
                     "CREATE TABLE t (a INT PRIMARY KEY);")
        assert delta.changes[0].kind is ChangeKind.KEY_CHANGED

    def test_fk_participation_change(self):
        delta = diff("CREATE TABLE t (u INT);",
                     "CREATE TABLE t (u INT REFERENCES users (id));")
        assert delta.changes[0].kind is ChangeKind.KEY_CHANGED

    def test_type_and_key_both_reported(self):
        delta = diff("CREATE TABLE t (u INT);",
                     "CREATE TABLE t (u BIGINT REFERENCES users (id));")
        kinds = {c.kind for c in delta}
        assert kinds == {ChangeKind.TYPE_CHANGED, ChangeKind.KEY_CHANGED}
        assert delta.total_affected == 2

    def test_nullability_ignored_by_default(self):
        delta = diff("CREATE TABLE t (a INT);",
                     "CREATE TABLE t (a INT NOT NULL);")
        assert delta.is_empty

    def test_nullability_tracked_when_asked(self):
        delta = diff("CREATE TABLE t (a INT);",
                     "CREATE TABLE t (a INT NOT NULL);",
                     track_nullability=True)
        assert delta.changes[0].kind is ChangeKind.TYPE_CHANGED


class TestRenameDetection:
    OLD = "CREATE TABLE users (id INT, email TEXT, name TEXT);"
    NEW = "CREATE TABLE members (id INT, email TEXT, name TEXT);"

    def test_without_detection_mass_change(self):
        delta = diff(self.OLD, self.NEW)
        assert delta.total_affected == 6

    def test_with_detection_no_attribute_change(self):
        delta = diff(self.OLD, self.NEW, detect_renames=True)
        assert delta.total_affected == 0
        assert delta.tables_renamed == (("users", "members"),)
        assert not delta.is_empty  # the rename itself is a change

    def test_rename_plus_column_change(self):
        # Two of four attribute names survive -> Jaccard 0.5; lower the
        # threshold so the rename is still matched.
        new = "CREATE TABLE members (id INT, email TEXT, phone TEXT);"
        delta = diff(self.OLD, new, detect_renames=True,
                     rename_threshold=0.5)
        assert delta.tables_renamed == (("users", "members"),)
        kinds = sorted(c.kind.value for c in delta)
        assert kinds == ["ejected", "injected"]

    def test_dissimilar_tables_not_matched(self):
        new = "CREATE TABLE audit (ts TIMESTAMP, actor TEXT, what TEXT);"
        delta = diff(self.OLD, new, detect_renames=True)
        assert delta.tables_renamed == ()
        assert delta.total_affected == 6

    def test_threshold_tunable(self):
        new = "CREATE TABLE members (id INT, email TEXT, phone TEXT);"
        strict = diff(self.OLD, new, detect_renames=True,
                      rename_threshold=0.99)
        assert strict.tables_renamed == ()


class TestDiffContainer:
    def test_by_kind_includes_zeros(self):
        delta = diff("CREATE TABLE t (a INT);", "CREATE TABLE t (a INT);")
        counts = delta.by_kind()
        assert set(counts) == set(ChangeKind)
        assert all(v == 0 for v in counts.values())

    def test_len_and_iter(self):
        delta = diff("CREATE TABLE t (a INT);",
                     "CREATE TABLE t (a INT, b INT, c INT);")
        assert len(delta) == 2
        assert len(list(delta)) == 2


class TestIdentityFastPath:
    """Reused Table objects (incremental materialization) must diff
    exactly like structurally equal but distinct ones — just faster."""

    def test_identical_objects_yield_empty_diff(self):
        schema = build_schema(parse_script(
            "CREATE TABLE t (a INT, b TEXT);"))
        delta = diff_schemas(schema, schema)
        assert delta.is_empty

    def test_shared_tables_skip_attribute_diffing(self):
        import dataclasses

        old = build_schema(parse_script(
            "CREATE TABLE keep (a INT);CREATE TABLE change (x INT);"))
        new_change = build_schema(parse_script(
            "CREATE TABLE change (x INT, y INT);")).table("change")
        # Version N reuses version N-1's 'keep' Table object verbatim.
        new = dataclasses.replace(
            old, tables=(old.table("keep"), new_change))
        shared = diff_schemas(old, new)
        # Oracle: the same schemas rebuilt from scratch (no sharing).
        rebuilt_old = build_schema(parse_script(
            "CREATE TABLE keep (a INT);CREATE TABLE change (x INT);"))
        rebuilt_new = build_schema(parse_script(
            "CREATE TABLE keep (a INT);"
            "CREATE TABLE change (x INT, y INT);"))
        assert shared == diff_schemas(rebuilt_old, rebuilt_new)
        assert [c.kind for c in shared] == [ChangeKind.INJECTED]
