"""AST node types produced by the DDL parser.

The AST stays close to the *logical* level the paper studies: tables,
columns (attributes), data types, and primary/foreign/unique/check
constraints. Physical details (storage engines, tablespaces, index
methods) are captured as opaque option strings when present and otherwise
ignored.

All nodes are frozen dataclasses so they are hashable and safely shareable
between schema versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


@dataclass(frozen=True, slots=True)
class DataType:
    """A column data type as written, e.g. ``VARCHAR(255)`` or ``DECIMAL(10,2)``.

    Attributes:
        name: upper-cased type name (possibly multi-word, e.g.
            ``DOUBLE PRECISION``); not yet canonicalized — see
            :func:`repro.sqlddl.normalize.canonical_type`.
        params: literal type parameters as written (lengths, precision, or
            enum member strings).
        unsigned: MySQL ``UNSIGNED`` flag.
        zerofill: MySQL ``ZEROFILL`` flag.
        array: PostgreSQL array dimensions as written, e.g. ``[]`` or
            ``[3][3]``; empty for a scalar type.
    """

    name: str
    params: tuple[str, ...] = ()
    unsigned: bool = False
    zerofill: bool = False
    array: str = ""

    def render(self) -> str:
        """Render the type back to SQL text."""
        out = self.name
        if self.params:
            out += "(" + ", ".join(self.params) + ")"
        out += self.array
        if self.unsigned:
            out += " UNSIGNED"
        if self.zerofill:
            out += " ZEROFILL"
        return out


@dataclass(frozen=True, slots=True)
class ForeignKeyRef:
    """An inline ``REFERENCES`` clause on a column definition."""

    table: str
    columns: tuple[str, ...] = ()
    on_delete: str | None = None
    on_update: str | None = None


@dataclass(frozen=True, slots=True)
class ColumnDef:
    """One column definition inside CREATE TABLE or ALTER TABLE ADD.

    Attributes:
        name: column name as written (case preserved; normalization is the
            schema builder's job).
        data_type: the declared type, or None when the dialect allows
            typeless columns (SQLite).
        not_null: explicit NOT NULL.
        default: DEFAULT expression as raw text, or None.
        primary_key: inline PRIMARY KEY marker.
        unique: inline UNIQUE marker.
        auto_increment: AUTO_INCREMENT / AUTOINCREMENT / SERIAL-implied.
        references: inline foreign-key reference, if any.
        comment: COMMENT 'text' content, if any.
    """

    name: str
    data_type: DataType | None = None
    not_null: bool = False
    default: str | None = None
    primary_key: bool = False
    unique: bool = False
    auto_increment: bool = False
    references: ForeignKeyRef | None = None
    comment: str | None = None


@dataclass(frozen=True, slots=True)
class PrimaryKeyConstraint:
    """Table-level ``PRIMARY KEY (cols)``."""

    columns: tuple[str, ...]
    name: str | None = None


@dataclass(frozen=True, slots=True)
class ForeignKeyConstraint:
    """Table-level ``FOREIGN KEY (cols) REFERENCES t (cols)``."""

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...] = ()
    name: str | None = None
    on_delete: str | None = None
    on_update: str | None = None


@dataclass(frozen=True, slots=True)
class UniqueConstraint:
    """Table-level ``UNIQUE (cols)`` / MySQL ``UNIQUE KEY name (cols)``."""

    columns: tuple[str, ...]
    name: str | None = None


@dataclass(frozen=True, slots=True)
class CheckConstraint:
    """Table-level ``CHECK (expr)``; the expression is kept as raw text."""

    expression: str
    name: str | None = None


@dataclass(frozen=True, slots=True)
class IndexKey:
    """MySQL in-table ``KEY`` / ``INDEX`` definition (non-unique index).

    Indexes are physical-level and do not contribute to the logical diff,
    but parsing them keeps table bodies intact.
    """

    columns: tuple[str, ...]
    name: str | None = None


TableConstraint = Union[
    PrimaryKeyConstraint,
    ForeignKeyConstraint,
    UniqueConstraint,
    CheckConstraint,
    IndexKey,
]


@dataclass(frozen=True, slots=True)
class CreateTable:
    """A parsed ``CREATE TABLE`` statement."""

    name: str
    columns: tuple[ColumnDef, ...]
    constraints: tuple[TableConstraint, ...] = ()
    if_not_exists: bool = False
    temporary: bool = False
    options: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True, slots=True)
class CreateTableLike:
    """MySQL ``CREATE TABLE new LIKE template`` — clone a table's
    structure."""

    name: str
    template: str
    if_not_exists: bool = False


@dataclass(frozen=True, slots=True)
class DropTable:
    """A parsed ``DROP TABLE [IF EXISTS] t1, t2, ...`` statement."""

    names: tuple[str, ...]
    if_exists: bool = False


# --- ALTER TABLE actions ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class AddColumn:
    """``ADD [COLUMN] coldef [FIRST | AFTER col]``."""

    column: ColumnDef
    position: str | None = None  # "FIRST" or "AFTER <col>"


@dataclass(frozen=True, slots=True)
class DropColumn:
    """``DROP [COLUMN] name``."""

    name: str
    if_exists: bool = False


@dataclass(frozen=True, slots=True)
class ModifyColumn:
    """MySQL ``MODIFY [COLUMN] coldef`` — redefine a column in place."""

    column: ColumnDef


@dataclass(frozen=True, slots=True)
class ChangeColumn:
    """MySQL ``CHANGE [COLUMN] old_name coldef`` — rename and redefine."""

    old_name: str
    column: ColumnDef


@dataclass(frozen=True, slots=True)
class AlterColumnType:
    """PostgreSQL ``ALTER [COLUMN] name [SET DATA] TYPE newtype``."""

    name: str
    data_type: DataType


@dataclass(frozen=True, slots=True)
class AlterColumnDefault:
    """``ALTER [COLUMN] name SET DEFAULT expr`` / ``DROP DEFAULT``."""

    name: str
    default: str | None  # None means DROP DEFAULT


@dataclass(frozen=True, slots=True)
class AlterColumnNullability:
    """``ALTER [COLUMN] name SET NOT NULL`` / ``DROP NOT NULL``."""

    name: str
    not_null: bool


@dataclass(frozen=True, slots=True)
class AddConstraint:
    """``ADD [CONSTRAINT name] <table constraint>``."""

    constraint: TableConstraint


@dataclass(frozen=True, slots=True)
class DropConstraint:
    """``DROP CONSTRAINT name`` / ``DROP FOREIGN KEY name`` /
    ``DROP PRIMARY KEY`` / ``DROP INDEX name`` inside ALTER TABLE.

    Attributes:
        name: constraint name, or None for MySQL DROP PRIMARY KEY.
        kind: one of ``"constraint"``, ``"foreign key"``, ``"primary key"``,
            ``"index"`` — what the statement literally dropped.
    """

    name: str | None
    kind: str = "constraint"


@dataclass(frozen=True, slots=True)
class RenameTable:
    """``RENAME TO new_name`` inside ALTER TABLE."""

    new_name: str


@dataclass(frozen=True, slots=True)
class RenameColumn:
    """``RENAME [COLUMN] old TO new`` inside ALTER TABLE."""

    old_name: str
    new_name: str


@dataclass(frozen=True, slots=True)
class TableOption:
    """A physical-level ALTER TABLE action kept as raw text
    (``OWNER TO x``, ``SET SCHEMA y``); no logical schema effect."""

    text: str


AlterAction = Union[
    TableOption,
    AddColumn,
    DropColumn,
    ModifyColumn,
    ChangeColumn,
    AlterColumnType,
    AlterColumnDefault,
    AlterColumnNullability,
    AddConstraint,
    DropConstraint,
    RenameTable,
    RenameColumn,
]


@dataclass(frozen=True, slots=True)
class AlterTable:
    """A parsed ``ALTER TABLE`` statement with one or more actions."""

    name: str
    actions: tuple[AlterAction, ...]
    if_exists: bool = False


@dataclass(frozen=True, slots=True)
class CreateIndex:
    """``CREATE [UNIQUE] INDEX name ON table (cols)`` — physical level."""

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False
    if_not_exists: bool = False


@dataclass(frozen=True, slots=True)
class DropIndex:
    """``DROP INDEX name [ON table]`` — physical level."""

    name: str
    table: str | None = None
    if_exists: bool = False


@dataclass(frozen=True, slots=True)
class CreateView:
    """``CREATE [OR REPLACE] VIEW name [(cols)] AS <query>``.

    The defining query is kept as raw text: views live at the logical
    level of the paper's scope, but their internals are not diffed at
    the attribute granularity.
    """

    name: str
    columns: tuple[str, ...] = ()
    query: str = ""
    or_replace: bool = False
    if_not_exists: bool = False


@dataclass(frozen=True, slots=True)
class DropView:
    """``DROP VIEW [IF EXISTS] v1, v2, ...``."""

    names: tuple[str, ...]
    if_exists: bool = False


Statement = Union[CreateTable, CreateTableLike, DropTable, AlterTable,
                  CreateIndex, DropIndex, CreateView, DropView]


@dataclass(frozen=True, slots=True)
class SkippedStatement:
    """A statement the robust parser skipped (non-DDL or unparseable).

    Attributes:
        text: the raw statement text (without trailing semicolon).
        reason: short machine-readable reason, e.g. ``"non-ddl"`` or
            ``"parse-error"``.
        detail: the parse error message when reason is ``"parse-error"``.
    """

    text: str
    reason: str
    detail: str | None = None


@dataclass(frozen=True, slots=True)
class Script:
    """The result of parsing a whole SQL file.

    Attributes:
        statements: the DDL statements, in source order.
        skipped: non-DDL or unparseable statements, in source order.
    """

    statements: tuple[Statement, ...]
    skipped: tuple[SkippedStatement, ...] = ()

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self):
        return iter(self.statements)
