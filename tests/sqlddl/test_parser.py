"""Unit tests for the DDL parser."""

import pytest

from repro.errors import ParseError
from repro.schema.builder import build_schema
from repro.sqlddl import ast_nodes as ast
from repro.sqlddl.dialect import Dialect
from repro.sqlddl.parser import parse_script, parse_statement


class TestCreateTable:
    def test_minimal(self):
        stmt = parse_statement("CREATE TABLE t (a INT)")
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.name == "t"
        assert [c.name for c in stmt.columns] == ["a"]

    def test_trailing_semicolon_ok(self):
        stmt = parse_statement("CREATE TABLE t (a INT);")
        assert stmt.name == "t"

    def test_if_not_exists(self):
        stmt = parse_statement("CREATE TABLE IF NOT EXISTS t (a INT)")
        assert stmt.if_not_exists

    def test_temporary(self):
        stmt = parse_statement("CREATE TEMPORARY TABLE t (a INT)")
        assert stmt.temporary

    def test_schema_qualified_name_keeps_object(self):
        stmt = parse_statement("CREATE TABLE mydb.users (a INT)")
        assert stmt.name == "users"

    def test_quoted_table_and_columns(self):
        stmt = parse_statement('CREATE TABLE "My Table" ("a col" INT)',
                               Dialect.POSTGRES)
        assert stmt.name == "My Table"
        assert stmt.columns[0].name == "a col"

    def test_column_flags(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT NOT NULL DEFAULT 5 UNIQUE)")
        col = stmt.columns[0]
        assert col.not_null and col.unique
        assert col.default == "5"

    def test_inline_primary_key(self):
        stmt = parse_statement("CREATE TABLE t (id INT PRIMARY KEY)")
        assert stmt.columns[0].primary_key

    def test_auto_increment_mysql(self):
        stmt = parse_statement(
            "CREATE TABLE t (id INT AUTO_INCREMENT)", Dialect.MYSQL)
        assert stmt.columns[0].auto_increment

    def test_serial_implies_auto_increment(self):
        stmt = parse_statement("CREATE TABLE t (id SERIAL)",
                               Dialect.POSTGRES)
        assert stmt.columns[0].auto_increment

    def test_default_string_literal(self):
        stmt = parse_statement("CREATE TABLE t (a VARCHAR(9) "
                               "DEFAULT 'x''y')")
        assert stmt.columns[0].default == "'x''y'"

    def test_default_negative_number(self):
        stmt = parse_statement("CREATE TABLE t (a INT DEFAULT -1)")
        assert stmt.columns[0].default == "-1"

    def test_default_function_call(self):
        stmt = parse_statement(
            "CREATE TABLE t (ts TIMESTAMP DEFAULT now())")
        assert stmt.columns[0].default == "now()"

    def test_default_bare_keyword(self):
        stmt = parse_statement(
            "CREATE TABLE t (ts TIMESTAMP DEFAULT CURRENT_TIMESTAMP)")
        assert stmt.columns[0].default == "CURRENT_TIMESTAMP"

    def test_on_update_current_timestamp(self):
        stmt = parse_statement(
            "CREATE TABLE t (ts TIMESTAMP DEFAULT CURRENT_TIMESTAMP "
            "ON UPDATE CURRENT_TIMESTAMP)", Dialect.MYSQL)
        assert stmt.columns[0].name == "ts"

    def test_column_comment(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT COMMENT 'the a')", Dialect.MYSQL)
        assert stmt.columns[0].comment == "the a"

    def test_inline_references(self):
        stmt = parse_statement(
            "CREATE TABLE t (u INT REFERENCES users (id) "
            "ON DELETE CASCADE)")
        ref = stmt.columns[0].references
        assert ref.table == "users"
        assert ref.columns == ("id",)
        assert ref.on_delete == "CASCADE"

    def test_references_set_null(self):
        stmt = parse_statement(
            "CREATE TABLE t (u INT REFERENCES users ON DELETE SET NULL)")
        assert stmt.columns[0].references.on_delete == "SET NULL"

    def test_untyped_column_sqlite(self):
        stmt = parse_statement("CREATE TABLE t (a, b)", Dialect.SQLITE)
        assert stmt.columns[0].data_type is None
        assert stmt.columns[1].data_type is None

    def test_generated_identity(self):
        stmt = parse_statement(
            "CREATE TABLE t (id INT GENERATED ALWAYS AS IDENTITY)",
            Dialect.POSTGRES)
        assert stmt.columns[0].auto_increment

    def test_enum_type_params(self):
        stmt = parse_statement(
            "CREATE TABLE t (s ENUM('a', 'b'))", Dialect.MYSQL)
        assert stmt.columns[0].data_type.params == ("'a'", "'b'")

    def test_unsigned(self):
        stmt = parse_statement("CREATE TABLE t (a INT UNSIGNED)",
                               Dialect.MYSQL)
        assert stmt.columns[0].data_type.unsigned


class TestMultiWordTypes:
    def test_double_precision(self):
        stmt = parse_statement("CREATE TABLE t (a DOUBLE PRECISION)")
        assert stmt.columns[0].data_type.name == "DOUBLE PRECISION"

    def test_character_varying(self):
        stmt = parse_statement(
            "CREATE TABLE t (a CHARACTER VARYING(10))")
        dtype = stmt.columns[0].data_type
        assert dtype.name == "CHARACTER VARYING"
        assert dtype.params == ("10",)

    def test_timestamp_with_time_zone(self):
        stmt = parse_statement(
            "CREATE TABLE t (a TIMESTAMP WITH TIME ZONE)")
        assert stmt.columns[0].data_type.name == "TIMESTAMP WITH TIME ZONE"

    def test_timestamp_without_time_zone(self):
        stmt = parse_statement(
            "CREATE TABLE t (a TIMESTAMP WITHOUT TIME ZONE)")
        assert (stmt.columns[0].data_type.name
                == "TIMESTAMP WITHOUT TIME ZONE")


class TestTableConstraints:
    def test_primary_key(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))")
        pk = stmt.constraints[0]
        assert isinstance(pk, ast.PrimaryKeyConstraint)
        assert pk.columns == ("a", "b")

    def test_named_foreign_key(self):
        stmt = parse_statement(
            "CREATE TABLE t (u INT, CONSTRAINT fk_u FOREIGN KEY (u) "
            "REFERENCES users (id) ON UPDATE RESTRICT)")
        fk = stmt.constraints[0]
        assert isinstance(fk, ast.ForeignKeyConstraint)
        assert fk.name == "fk_u"
        assert fk.on_update == "RESTRICT"

    def test_unique_key_with_name(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT, UNIQUE KEY uq_a (a))", Dialect.MYSQL)
        uq = stmt.constraints[0]
        assert isinstance(uq, ast.UniqueConstraint)
        assert uq.columns == ("a",)

    def test_check_constraint(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT, CHECK (a > 0))")
        check = stmt.constraints[0]
        assert isinstance(check, ast.CheckConstraint)
        assert "a" in check.expression

    def test_mysql_key_index(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT, KEY idx_a (a))", Dialect.MYSQL)
        assert isinstance(stmt.constraints[0], ast.IndexKey)

    def test_key_with_prefix_length(self):
        stmt = parse_statement(
            "CREATE TABLE t (a TEXT, KEY idx (a(20)))", Dialect.MYSQL)
        assert stmt.constraints[0].columns == ("a",)

    def test_fulltext_key(self):
        stmt = parse_statement(
            "CREATE TABLE t (a TEXT, FULLTEXT KEY ft (a))", Dialect.MYSQL)
        assert isinstance(stmt.constraints[0], ast.IndexKey)

    def test_column_named_key_is_not_constraint(self):
        stmt = parse_statement("CREATE TABLE t (key VARCHAR(10))")
        assert stmt.columns[0].name == "key"


class TestIndexTypes:
    """MySQL ``USING {BTREE|HASH}`` on keys (the mysqldump default)."""

    DUMP = ("CREATE TABLE t (id INT, name VARCHAR(10), PRIMARY KEY (id), "
            "KEY idx_name (name) USING BTREE)")

    @pytest.mark.parametrize("dialect", [Dialect.MYSQL, Dialect.GENERIC])
    def test_table_and_index_survive(self, dialect):
        script = parse_script(self.DUMP + ";", dialect)
        assert script.skipped == ()
        (stmt,) = script.statements
        assert [c.name for c in stmt.columns] == ["id", "name"]
        pk, idx = stmt.constraints
        assert isinstance(pk, ast.PrimaryKeyConstraint)
        assert idx == ast.IndexKey(columns=("name",), name="idx_name")
        table = build_schema(script).table("t")
        assert table.attribute_names == ("id", "name")

    def test_index_type_before_columns(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT, b INT, PRIMARY KEY USING HASH (a), "
            "UNIQUE KEY uq USING BTREE (b), KEY USING BTREE (a, b), "
            "KEY kx USING HASH (a), INDEX ix (b) USING HASH)",
            Dialect.MYSQL)
        assert [c.name for c in stmt.columns] == ["a", "b"]
        assert stmt.constraints == (
            ast.PrimaryKeyConstraint(columns=("a",)),
            ast.UniqueConstraint(columns=("b",), name="uq"),
            ast.IndexKey(columns=("a", "b")),
            ast.IndexKey(columns=("a",), name="kx"),
            ast.IndexKey(columns=("b",), name="ix"),
        )

    def test_unknown_index_type_still_fails(self):
        with pytest.raises(ParseError):
            parse_statement(
                "CREATE TABLE t (a INT, KEY ix (a) USING RTREE)",
                Dialect.MYSQL)


class TestArrayTypes:
    """PostgreSQL array columns: ``text[]``, ``int[3][3]``."""

    @pytest.mark.parametrize("dialect", [Dialect.POSTGRES, Dialect.GENERIC])
    def test_table_survives_with_array_types(self, dialect):
        script = parse_script(
            "CREATE TABLE t (id integer, tags text[], grid int[3][3], "
            "names varchar(20)[] NOT NULL);", dialect)
        assert script.skipped == ()
        (stmt,) = script.statements
        rendered = [c.data_type.render() for c in stmt.columns]
        assert rendered == ["INTEGER", "TEXT[]", "INT[3][3]",
                            "VARCHAR(20)[]"]
        assert stmt.columns[3].not_null
        table = build_schema(script).table("t")
        assert table.attribute("tags").data_type == ast.DataType(
            "TEXT", array="[]")

    def test_array_is_not_the_scalar_type(self):
        stmt = parse_statement("CREATE TABLE t (a text, b text[])",
                               Dialect.POSTGRES)
        a, b = (c.data_type for c in stmt.columns)
        assert a != b
        assert b.array == "[]"

    def test_unclosed_bracket_fails(self):
        with pytest.raises(ParseError):
            parse_statement("CREATE TABLE t (a int[3)", Dialect.POSTGRES)


class TestTableOptions:
    def test_engine_and_charset(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT) ENGINE=InnoDB DEFAULT CHARSET=utf8",
            Dialect.MYSQL)
        options = dict(stmt.options)
        assert options["ENGINE"] == "InnoDB"
        assert options["DEFAULT CHARSET"] == "utf8"

    def test_auto_increment_option(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT) AUTO_INCREMENT=7", Dialect.MYSQL)
        assert dict(stmt.options)["AUTO_INCREMENT"] == "7"

    def test_default_character_set(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT) DEFAULT CHARACTER SET utf8mb4",
            Dialect.MYSQL)
        assert dict(stmt.options)["DEFAULT CHARACTER SET"] == "utf8mb4"


class TestDrop:
    def test_drop_table(self):
        stmt = parse_statement("DROP TABLE t")
        assert isinstance(stmt, ast.DropTable)
        assert stmt.names == ("t",)

    def test_drop_multiple(self):
        stmt = parse_statement("DROP TABLE IF EXISTS a, b, c")
        assert stmt.names == ("a", "b", "c")
        assert stmt.if_exists

    def test_drop_cascade(self):
        stmt = parse_statement("DROP TABLE t CASCADE")
        assert stmt.names == ("t",)

    def test_drop_index(self):
        stmt = parse_statement("DROP INDEX idx ON t", Dialect.MYSQL)
        assert isinstance(stmt, ast.DropIndex)
        assert stmt.table == "t"


class TestAlterTable:
    def test_add_column(self):
        stmt = parse_statement("ALTER TABLE t ADD COLUMN a INT")
        action = stmt.actions[0]
        assert isinstance(action, ast.AddColumn)
        assert action.column.name == "a"

    def test_add_column_without_keyword(self):
        stmt = parse_statement("ALTER TABLE t ADD a INT")
        assert isinstance(stmt.actions[0], ast.AddColumn)

    def test_add_column_after(self):
        stmt = parse_statement(
            "ALTER TABLE t ADD COLUMN a INT AFTER b", Dialect.MYSQL)
        assert stmt.actions[0].position == "AFTER b"

    def test_add_column_first(self):
        stmt = parse_statement(
            "ALTER TABLE t ADD COLUMN a INT FIRST", Dialect.MYSQL)
        assert stmt.actions[0].position == "FIRST"

    def test_drop_column(self):
        stmt = parse_statement("ALTER TABLE t DROP COLUMN a")
        assert isinstance(stmt.actions[0], ast.DropColumn)

    def test_multiple_actions(self):
        stmt = parse_statement(
            "ALTER TABLE t ADD a INT, DROP COLUMN b, ADD c TEXT")
        assert len(stmt.actions) == 3

    def test_modify_column(self):
        stmt = parse_statement(
            "ALTER TABLE t MODIFY COLUMN a BIGINT NOT NULL",
            Dialect.MYSQL)
        action = stmt.actions[0]
        assert isinstance(action, ast.ModifyColumn)
        assert action.column.data_type.name == "BIGINT"

    def test_change_column(self):
        stmt = parse_statement(
            "ALTER TABLE t CHANGE COLUMN old_a new_a INT", Dialect.MYSQL)
        action = stmt.actions[0]
        assert isinstance(action, ast.ChangeColumn)
        assert action.old_name == "old_a"
        assert action.column.name == "new_a"

    def test_alter_column_type_postgres(self):
        stmt = parse_statement(
            "ALTER TABLE t ALTER COLUMN a TYPE BIGINT", Dialect.POSTGRES)
        action = stmt.actions[0]
        assert isinstance(action, ast.AlterColumnType)
        assert action.data_type.name == "BIGINT"

    def test_alter_column_set_data_type(self):
        stmt = parse_statement(
            "ALTER TABLE t ALTER COLUMN a SET DATA TYPE TEXT",
            Dialect.POSTGRES)
        assert isinstance(stmt.actions[0], ast.AlterColumnType)

    def test_alter_column_set_default(self):
        stmt = parse_statement(
            "ALTER TABLE t ALTER COLUMN a SET DEFAULT 0")
        action = stmt.actions[0]
        assert isinstance(action, ast.AlterColumnDefault)
        assert action.default == "0"

    def test_alter_column_drop_default(self):
        stmt = parse_statement("ALTER TABLE t ALTER COLUMN a DROP DEFAULT")
        assert stmt.actions[0].default is None

    def test_alter_column_set_not_null(self):
        stmt = parse_statement(
            "ALTER TABLE t ALTER COLUMN a SET NOT NULL")
        action = stmt.actions[0]
        assert isinstance(action, ast.AlterColumnNullability)
        assert action.not_null

    def test_add_constraint_foreign_key(self):
        stmt = parse_statement(
            "ALTER TABLE t ADD CONSTRAINT fk FOREIGN KEY (u) "
            "REFERENCES users (id)")
        action = stmt.actions[0]
        assert isinstance(action, ast.AddConstraint)
        assert isinstance(action.constraint, ast.ForeignKeyConstraint)

    def test_add_primary_key(self):
        stmt = parse_statement("ALTER TABLE t ADD PRIMARY KEY (id)")
        assert isinstance(stmt.actions[0].constraint,
                          ast.PrimaryKeyConstraint)

    def test_drop_primary_key(self):
        stmt = parse_statement("ALTER TABLE t DROP PRIMARY KEY",
                               Dialect.MYSQL)
        action = stmt.actions[0]
        assert isinstance(action, ast.DropConstraint)
        assert action.kind == "primary key"

    def test_drop_foreign_key(self):
        stmt = parse_statement("ALTER TABLE t DROP FOREIGN KEY fk_x",
                               Dialect.MYSQL)
        assert stmt.actions[0].kind == "foreign key"
        assert stmt.actions[0].name == "fk_x"

    def test_drop_constraint(self):
        stmt = parse_statement("ALTER TABLE t DROP CONSTRAINT c1")
        assert stmt.actions[0].name == "c1"

    def test_rename_to(self):
        stmt = parse_statement("ALTER TABLE t RENAME TO t2")
        action = stmt.actions[0]
        assert isinstance(action, ast.RenameTable)
        assert action.new_name == "t2"

    def test_rename_column(self):
        stmt = parse_statement("ALTER TABLE t RENAME COLUMN a TO b")
        action = stmt.actions[0]
        assert isinstance(action, ast.RenameColumn)
        assert (action.old_name, action.new_name) == ("a", "b")

    def test_alter_only_postgres(self):
        stmt = parse_statement("ALTER TABLE ONLY t ADD COLUMN a INT",
                               Dialect.POSTGRES)
        assert stmt.name == "t"

    def test_alter_if_exists(self):
        stmt = parse_statement("ALTER TABLE IF EXISTS t ADD a INT")
        assert stmt.if_exists


class TestCreateIndex:
    def test_create_index(self):
        stmt = parse_statement("CREATE INDEX idx ON t (a, b)")
        assert isinstance(stmt, ast.CreateIndex)
        assert stmt.columns == ("a", "b")
        assert not stmt.unique

    def test_create_unique_index(self):
        stmt = parse_statement("CREATE UNIQUE INDEX idx ON t (a)")
        assert stmt.unique

    def test_create_index_using(self):
        stmt = parse_statement("CREATE INDEX idx ON t USING btree (a)",
                               Dialect.POSTGRES)
        assert stmt.columns == ("a",)


class TestErrors:
    def test_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT * FROM t")

    def test_truncated_create(self):
        with pytest.raises(ParseError):
            parse_statement("CREATE TABLE t (a INT")

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_statement("DROP TABLE t garbage here")

    def test_create_without_object(self):
        with pytest.raises(ParseError):
            parse_statement("CREATE TRIGGER trg BEFORE INSERT ON t")


class TestScriptParsing:
    def test_skips_non_ddl(self):
        script = parse_script(
            "SET NAMES utf8; CREATE TABLE t (a INT); "
            "INSERT INTO t VALUES (1);")
        assert len(script.statements) == 1
        assert [s.reason for s in script.skipped] == ["non-ddl", "non-ddl"]

    def test_skips_broken_ddl(self):
        script = parse_script("CREATE TABLE t (a INT; "
                              "CREATE TABLE u (b INT);")
        assert len(script.statements) == 1
        assert script.skipped[0].reason == "parse-error"
        assert script.skipped[0].detail

    def test_raise_mode(self):
        with pytest.raises(ParseError):
            parse_script("CREATE TABLE t (a INT", on_error="raise")

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            parse_script("CREATE TABLE t (a INT);", on_error="wat")

    def test_empty_script(self):
        script = parse_script("")
        assert len(script.statements) == 0
        assert len(script.skipped) == 0

    def test_comments_only(self):
        script = parse_script("-- nothing here\n/* at all */")
        assert len(script) == 0

    def test_lex_error_recorded_in_skip_mode(self):
        script = parse_script("CREATE TABLE t (a INT); \x00")
        assert script.statements == ()
        assert script.skipped[0].reason == "lex-error"

    def test_script_iteration(self):
        script = parse_script("CREATE TABLE a (x INT); "
                              "CREATE TABLE b (y INT);")
        assert [s.name for s in script] == ["a", "b"]

    def test_statements_without_final_semicolon(self):
        script = parse_script("CREATE TABLE t (a INT)")
        assert len(script.statements) == 1
