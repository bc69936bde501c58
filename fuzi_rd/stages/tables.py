"""Per-page HTML table extraction (structured data from the crawl).

The fourth product a crawl pipeline derives from pages, after main text,
outlinks, and head metadata: the contents of ``<table>`` elements as
relational rows.  Downstream consumers (dataset builders mining
infoboxes/specs/financial tables, QA-pair generators) want cells with
their (table, row, column) coordinates — not a text blob where the
extractor's whitespace collapse destroyed the grid.

``_page_tables`` is one O(nodes) preorder scan using the arena's
``subtree_end`` ranges, and the ``TABLES`` product of the shared page
loop (``stages/products.py``), which parses each page once with
``chtml.parse_page`` and catches a failing page (it has no cells);
``extract_tables`` explodes the ``cells`` column with the loop's Arrow
flatten, and ``extract_tables_dataset`` runs it as Ray Data tasks.
Output is row-expanding — one row per CELL — with hard caps on
tables/page, rows/table, cells/row and chars/cell, so a pathological page
(a million-row scraped grid) cannot blow up a block.

Nested tables: each ``<table>`` element gets its own ``table_idx`` in
document order; a nested table's cells belong to the INNER table only
(the outer table's scan skips the nested subtree).  ``colspan``/
``rowspan`` are surfaced as columns, not expanded — ``col_idx`` is the
positional cell index within its ``<tr>``.

Scale notes (100 TB): per-page cost is the parse (shared when composed
with extraction) + one bounded scan; every output column is fixed-width
or capped, no shuffle anywhere in the stage.
"""

from __future__ import annotations

import pyarrow as pa

from fuzi_rd.dom import ELEMENT
from fuzi_rd.stages.products import Product, explode, run_products

MAX_TABLES_PER_PAGE = 50
MAX_ROWS_PER_TABLE = 1000
MAX_CELLS_PER_ROW = 100
MAX_CELL_CHARS = 1000

_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("table_idx", pa.int32()),
        ("row_idx", pa.int32()),
        ("col_idx", pa.int32()),
        ("is_header", pa.bool_()),
        ("colspan", pa.int32()),
        ("rowspan", pa.int32()),
        ("text", pa.string()),
    ]
)


def _span(attrs, key: str) -> int:
    v = (attrs or {}).get(key)
    if v is None:
        return 1
    try:
        n = int(str(v).strip())
    except ValueError:
        return 1
    return n if n >= 1 else 1


def _page_tables(arena, url: str, out: dict) -> None:
    """Append one row per cell of every table on the page to ``out``."""
    types = arena.types
    names = arena.names
    dead = arena.dead
    sub = arena.subtree_end
    n = len(types)

    # document-order table elements (nested ones included, each its own idx)
    tables = []
    i = 1
    while i < n and len(tables) < MAX_TABLES_PER_PAGE:
        if types[i] == ELEMENT and not dead[i] and names[i] == "table":
            tables.append(i)
        i += 1

    for t_idx, t in enumerate(tables):
        end = sub[t]  # exclusive: one past the last descendant
        row_idx = 0
        i = t + 1
        while i < end and row_idx < MAX_ROWS_PER_TABLE:
            if types[i] == ELEMENT and not dead[i]:
                name = names[i]
                if name == "table":
                    i = sub[i]  # nested table: belongs to its own idx
                    continue
                if name == "tr":
                    tr_end = sub[i]
                    col_idx = 0
                    j = i + 1
                    while j < tr_end and col_idx < MAX_CELLS_PER_ROW:
                        if types[j] == ELEMENT and not dead[j]:
                            cname = names[j]
                            if cname == "table":
                                j = sub[j]
                                continue
                            if cname in ("td", "th"):
                                text = " ".join(
                                    arena.string_value(j).split()
                                )[:MAX_CELL_CHARS]
                                attrs = arena.attrs[j]
                                out["url"].append(url)
                                out["table_idx"].append(t_idx)
                                out["row_idx"].append(row_idx)
                                out["col_idx"].append(col_idx)
                                out["is_header"].append(cname == "th")
                                out["colspan"].append(_span(attrs, "colspan"))
                                out["rowspan"].append(_span(attrs, "rowspan"))
                                out["text"].append(text)
                                col_idx += 1
                                j = sub[j]  # cell content already taken
                                continue
                        j += 1
                    if col_idx:
                        row_idx += 1
                    i = tr_end
                    continue
            i += 1


# a page's table cells: one child per cell, every _SCHEMA column but url
_CELL = pa.struct(list(_SCHEMA)[1:])


def _cells(arena, url: str) -> tuple:
    out = {f.name: [] for f in _SCHEMA}
    _page_tables(arena, url, out)
    return (list(zip(*(out[f.name] for f in _CELL))),)


TABLES = Product((pa.field("cells", pa.list_(_CELL)),), _cells, ((),))


def extract_tables(batch: pa.Table) -> pa.Table:
    """Task UDF over (url, html) pages.  Row-expanding: one row per table
    cell; pages that fail (or have no tables) contribute zero rows — the
    poison-pill contract for row-expanding stages (same as
    ``extract_links``)."""
    got = run_products(batch, [TABLES])
    return explode(got["url"], got["cells"], "url")


def extract_tables_dataset(pages_ds, batch_size: int = 256):
    """Wire :func:`extract_tables` onto a (url, html) Dataset as Ray Data
    tasks (lazy)."""
    return pages_ds.map_batches(
        extract_tables, batch_format="pyarrow", batch_size=batch_size
    )
