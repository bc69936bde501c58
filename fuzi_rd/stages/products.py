"""The one page loop every HTML stage runs: parse each page once, answer
the stage's products over that arena, catch a failing page once.

A *product* is what a stage reads off a parsed page: its Arrow fields, a
function ``(arena, url) -> one value per field``, and the values a page
takes when its parse or any product raises.  :func:`run_products` parses
each ``(url, html)`` row with ``chtml.parse_page`` and runs the products in
order over the one arena (so one that mutates it, like the boilerplate
kill, goes last).  It is the only place a page's exception is caught: the
page becomes a ``status='error'`` row whose product columns all hold their
empty values.  This is the reference's ``HTMLActor`` shape, one parsed
document answering many queries (SURVEY.md §2).

A list field's value is a sequence of tuples, one per child in the order
of the child struct's fields; the column is built from flat child lists
plus offsets, and :func:`explode` gives the row-expanding stages (links,
table cells) one row per child.
"""

from __future__ import annotations

from itertools import chain
from time import perf_counter_ns
from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fuzi_rd.chtml import parse_page


class Product(NamedTuple):
    fields: tuple[pa.Field, ...]
    fn: Callable  # (arena, url) -> tuple, one value per field
    empty: tuple  # the values of a page whose parse or product raised


def list_array(type: pa.ListType, counts, columns) -> pa.ListArray:
    """A ``list<struct>`` column from each row's child count and one flat
    sequence per struct field."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    struct = type.value_type
    return pa.ListArray.from_arrays(
        pa.array(offsets),
        pa.StructArray.from_arrays(
            [pa.array(c, f.type) for c, f in zip(columns, struct)],
            fields=list(struct),
        ),
        type=type,
    )


def run_products(batch: pa.Table, products, kernel: bool = True) -> dict[str, pa.Array]:
    """Run ``products`` over every ``(url, html)`` row of ``batch``
    (``kernel=False``: parse with the Python parser only, see
    ``chtml.parse_page``).

    Returns ``url`` (as ``string``), every product field by name, then
    ``status`` ('ok' | 'error'), ``error`` (the exception's class and
    message, '' when ok) and ``parse_us`` (the row's parse plus products)."""
    urls = batch.column("url").to_pylist()
    fields = [f for p in products for f in p.fields]
    fns = [p.fn for p in products]
    empty = tuple(chain.from_iterable(p.empty for p in products))
    rows, status, error, parse_us = [], [], [], []
    for url, raw in zip(urls, batch.column("html").to_pylist()):
        t_row = perf_counter_ns()
        try:
            arena = parse_page(raw or b"", kernel)
            row = []
            for fn in fns:
                row += fn(arena, url)
            status.append("ok")
            error.append("")
        except Exception as exc:  # poison-pill tolerance: row, not raise
            row = empty
            status.append("error")
            error.append(f"{type(exc).__name__}: {exc}"[:500])
        rows.append(row)
        parse_us.append((perf_counter_ns() - t_row) // 1000)

    out = {"url": pa.array(urls, pa.string())}
    for f, values in zip(fields, zip(*rows) if rows else [()] * len(fields)):
        if pa.types.is_list(f.type):
            children = list(chain.from_iterable(values))
            out[f.name] = list_array(
                f.type,
                [len(v) for v in values],
                zip(*children) if children else [()] * f.type.value_type.num_fields,
            )
        else:
            out[f.name] = pa.array(values, f.type)
    out["status"] = pa.array(status, pa.string())
    out["error"] = pa.array(error, pa.string())
    out["parse_us"] = pa.array(parse_us, pa.int64())
    return out


def explode(urls, lists, url_name: str) -> pa.Table:
    """One row per child of the ``list<struct>`` column ``lists``: the url
    of the child's row (as ``string``, named ``url_name``), then the
    child's struct fields.  Pure Arrow kernels, no Python loop."""
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    children = lists.flatten()
    src = pc.cast(pc.take(urls, pc.list_parent_indices(lists)), pa.string())
    return pa.table(
        [src, *children.flatten()],
        names=[url_name, *(f.name for f in children.type)],
    )
