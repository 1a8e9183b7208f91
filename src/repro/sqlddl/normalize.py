"""Normalization of identifiers and data types.

Schema histories mix dialects and spellings over time (``INT`` becomes
``INTEGER``, a dump switches from unquoted to backtick-quoted names).
Logical-level diffing must not report such spelling drift as change, so
both the schema builder and the diff engine funnel names and types through
this module first.
"""

from __future__ import annotations

from repro.sqlddl.ast_nodes import DataType

#: Canonical spellings of type names. Anything absent maps to itself.
_TYPE_ALIASES: dict[str, str] = {
    "INT": "INTEGER",
    "INT2": "SMALLINT",
    "INT4": "INTEGER",
    "INT8": "BIGINT",
    "MIDDLEINT": "MEDIUMINT",
    "SERIAL": "INTEGER",
    "SMALLSERIAL": "SMALLINT",
    "BIGSERIAL": "BIGINT",
    "BOOL": "BOOLEAN",
    "CHARACTER VARYING": "VARCHAR",
    "CHARACTER": "CHAR",
    "BIT VARYING": "VARBIT",
    "DOUBLE PRECISION": "DOUBLE",
    "FLOAT4": "REAL",
    "FLOAT8": "DOUBLE",
    "DEC": "DECIMAL",
    "NUMERIC": "DECIMAL",
    "FIXED": "DECIMAL",
    "LONG VARCHAR": "MEDIUMTEXT",
    "LONG VARBINARY": "MEDIUMBLOB",
    "TIMESTAMPTZ": "TIMESTAMP WITH TIME ZONE",
    "TIMETZ": "TIME WITH TIME ZONE",
    "TIMESTAMP WITHOUT TIME ZONE": "TIMESTAMP",
    "TIME WITHOUT TIME ZONE": "TIME",
    "NVARCHAR": "VARCHAR",
    "NCHAR": "CHAR",
    "BYTEA": "BLOB",
}

#: Types whose length parameter is display-only and irrelevant to the
#: logical type (MySQL integer display widths).
_DISPLAY_WIDTH_TYPES = frozenset({
    "TINYINT", "SMALLINT", "MEDIUMINT", "INTEGER", "BIGINT",
})


# Memo tables: schema histories repeat the same few hundred spellings
# hundreds of thousands of times, so each function caches its (pure)
# result keyed on the exact input. Growth is bounded by the corpus
# vocabulary, which is tiny relative to the call volume.
_IDENTIFIER_MEMO: dict[str, str] = {}
_TYPE_NAME_MEMO: dict[str, str] = {}
_TYPE_MEMO: dict[DataType, DataType] = {}


def normalize_identifier(name: str) -> str:
    """Case-fold an identifier for matching across schema versions.

    SQL folds unquoted identifiers (upper in the standard, lower in
    PostgreSQL); FOSS dumps are wildly inconsistent about quoting, so we
    fold *everything* to lower case for matching purposes. The original
    spelling remains available on the AST nodes.
    """
    folded = _IDENTIFIER_MEMO.get(name)
    if folded is None:
        folded = _IDENTIFIER_MEMO[name] = name.strip().lower()
    return folded


def canonical_type_name(name: str) -> str:
    """Map a type-name spelling to its canonical upper-case form."""
    canonical = _TYPE_NAME_MEMO.get(name)
    if canonical is None:
        upper = " ".join(name.upper().split())
        canonical = _TYPE_NAME_MEMO[name] = _TYPE_ALIASES.get(upper, upper)
    return canonical


def canonical_type(data_type: DataType | None) -> DataType | None:
    """Return the canonical form of ``data_type`` for logical comparison.

    Canonicalization maps alias spellings to one name, strips display-only
    integer widths, and drops the ZEROFILL flag (physical-level). The
    UNSIGNED flag is kept: signedness changes the value domain.
    """
    if data_type is None:
        return None
    memoized = _TYPE_MEMO.get(data_type)
    if memoized is not None:
        return memoized
    name = canonical_type_name(data_type.name)
    params = data_type.params
    if name in _DISPLAY_WIDTH_TYPES:
        params = ()
    # BOOLEAN often appears as TINYINT(1) in MySQL dumps.
    if name == "TINYINT" and data_type.params == ("1",):
        canonical = DataType(name="BOOLEAN", array=data_type.array)
    else:
        canonical = DataType(name=name, params=params,
                             unsigned=data_type.unsigned, zerofill=False,
                             array=data_type.array)
    _TYPE_MEMO[data_type] = canonical
    return canonical


def types_equal(left: DataType | None, right: DataType | None) -> bool:
    """Logical equality of two declared types after canonicalization."""
    return canonical_type(left) == canonical_type(right)
