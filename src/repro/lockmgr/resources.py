"""Lockable resource identifiers.

Resources form a two-level hierarchy: tables contain rows.  A resource
id is a small immutable value object usable as a dictionary key.
Page-level resources are included for completeness (some vendors
escalate row to page before table; DB2 escalates straight to table
locks, which is what the manager does by default).
"""

from __future__ import annotations

import enum
from functools import lru_cache
from operator import itemgetter
from typing import Optional


class ResourceKind(enum.Enum):
    TABLE = "table"
    PAGE = "page"
    ROW = "row"


#: Stable small-int code per kind, used in ResourceId's hash key.  The
#: key must contain only ints: int hashes are pure functions of the
#: value, while str hashes depend on PYTHONHASHSEED (and hash(None) on
#: the interpreter), which would make set-of-ResourceId iteration order
#: -- and therefore event ordering -- vary between processes.
_KIND_CODE = {ResourceKind.TABLE: 0, ResourceKind.PAGE: 1, ResourceKind.ROW: 2}


class ResourceId(tuple):
    """Identifies one lockable object.

    The id *is* its all-int key ``(kind code, table_id, page_id or -1,
    row_id or -1)``: a tuple, so hashing and equality run in C on every
    dictionary probe (resource ids are keys on the simulation's hottest
    path, about nine probes per row-lock request).  Each kind is its own
    slot-free subclass, which makes ``kind``, ``is_table`` and
    ``is_row`` plain class attributes.  Construct through
    ``ResourceId(kind, ...)`` or the helpers below; instances are
    immutable.

    The hash is a pure function of the id's value (ints only), so any
    hash-ordered container of resource ids iterates identically in
    every process -- a requirement for cross-process determinism of the
    simulation (see docs/PERFORMANCE.md).
    """

    __slots__ = ()

    kind: ResourceKind
    is_table = False
    is_row = False
    page_id: Optional[int] = None
    row_id: Optional[int] = None
    table_id = property(itemgetter(1))

    def __new__(
        cls,
        kind: ResourceKind,
        table_id: int,
        page_id: Optional[int] = None,
        row_id: Optional[int] = None,
    ) -> "ResourceId":
        if table_id < 0:
            raise ValueError(f"table_id must be non-negative, got {table_id}")
        if page_id is not None and page_id < 0:
            raise ValueError(f"page_id must be non-negative, got {page_id}")
        if row_id is not None and row_id < 0:
            raise ValueError(f"row_id must be non-negative, got {row_id}")
        if kind is ResourceKind.TABLE:
            if page_id is not None or row_id is not None:
                raise ValueError("table resource must not carry page/row ids")
        elif kind is ResourceKind.PAGE:
            if page_id is None or row_id is not None:
                raise ValueError("page resource needs page_id and no row_id")
        elif kind is ResourceKind.ROW:
            if row_id is None:
                raise ValueError("row resource needs row_id")
        return _new_key(
            _CLASS_OF[kind],
            (
                _KIND_CODE[kind],
                table_id,
                -1 if page_id is None else page_id,
                -1 if row_id is None else row_id,
            ),
        )

    def __getnewargs__(self):  # pickle/copy rebuild through __new__
        return (self.kind, self[1], self.page_id, self.row_id)

    def table(self) -> "ResourceId":
        """The table resource containing this resource."""
        return table_resource(self[1])


class _TableId(ResourceId):
    __slots__ = ()
    kind = ResourceKind.TABLE
    is_table = True

    def table(self) -> ResourceId:
        return self

    def __repr__(self) -> str:
        return f"T{self[1]}"


class _PageId(ResourceId):
    __slots__ = ()
    kind = ResourceKind.PAGE
    page_id = property(itemgetter(2))

    def __repr__(self) -> str:
        return f"T{self[1]}.P{self[2]}"


class _RowId(ResourceId):
    __slots__ = ()
    kind = ResourceKind.ROW
    is_row = True
    row_id = property(itemgetter(3))

    def __repr__(self) -> str:
        return f"T{self[1]}.R{self[3]}"


_new_key = tuple.__new__
_CLASS_OF = {
    ResourceKind.TABLE: _TableId,
    ResourceKind.PAGE: _PageId,
    ResourceKind.ROW: _RowId,
}
_ROW_CODE = _KIND_CODE[ResourceKind.ROW]


@lru_cache(maxsize=None)
def table_resource(table_id: int) -> ResourceId:
    """Resource id for a whole table (cached; tables are few)."""
    return ResourceId(ResourceKind.TABLE, table_id)


def row_resource(table_id: int, row_id: int) -> ResourceId:
    """Resource id for one row of a table.

    Equal to ``ResourceId(ResourceKind.ROW, table_id, row_id=row_id)``
    but built directly: one id is made per row-lock request, and the
    generic constructor's kind branches are measurable there.
    """
    if table_id < 0:
        raise ValueError(f"table_id must be non-negative, got {table_id}")
    if row_id < 0:
        raise ValueError(f"row_id must be non-negative, got {row_id}")
    return _new_key(_RowId, (_ROW_CODE, table_id, -1, row_id))


def page_resource(table_id: int, page_id: int) -> ResourceId:
    """Resource id for one page of a table."""
    return ResourceId(ResourceKind.PAGE, table_id, page_id=page_id)
