"""The extraction stage: a callable class over Arrow batches.

This is the Ray analog of the reference's ``HTMLActor`` (Sources/Actor.swift
— parser state pinned to one execution context, only immutable value data
crosses the boundary).  Warm state (compiled recipe XPath ASTs, the loaded C
kernel, ``BatchExtractor`` buffers) is built once in ``__init__``;
``__call__`` receives zero-copy Arrow batches and emits Arrow batches.  The
pipeline (``pipelines/extraction.py``) runs it inside Ray Data tasks, one
warm instance per worker process and constructor config: a worker process
runs one task at a time, so the process is the execution context.

Two strategies answer a batch: the kernel batch (``fuzi_rd/fastextract.py``)
takes the rows the C kernel accepts, and every other row runs through the
shared page loop (``stages/products.py``) with this stage's products, in
order: title, recipes, markdown, metadata, links, then the boilerplate kill
and density (text, spans, n_nodes, text_len, text_hash).  The kernel batch
takes the whole batch (in Ray, the task's whole block) in passes of at most
``chtml.KERNEL_PASS_BYTES`` of html, each two C calls: one parse over the
``html`` column's Arrow buffers (plus one over the rows Python decoded),
then one pass over all of them (``chtml_extract_batch``) that writes the
title, text, span and path buffers the output columns are built from
without a Python string per row or span.  A row the kernel declined goes
to the Python parser directly, so no row is parsed by the kernel twice.

Output schema (per input row, poison-pill tolerant — a failing page becomes
a ``status='error'`` row whose product columns hold their empty values; it
never fails the block):

    url: string          passthrough key
    part: int32          url-hash partition id (resume / lineage unit)
    title: large_string  head/title stringValue
    extracted_text: large_string
    spans: list<struct<path: string, start: int64, end: int64>>
    n_nodes: int32       parsed DOM size
    text_len: int64      len(extracted_text)
    html_bytes: int64    input size
    text_hash: uint64    crc32 of extracted_text (lineage checksum)
    parse_us: int64      the row's parse + extraction time
    status: string       'ok' | 'error'
    error: string        exception summary for error rows
    [recipe columns]     one large_string column per named recipe query
    [markdown]           opt-in (emit_markdown): structure-preserving
                         markdown from the same parse (== ConvertMarkdown)
    [meta_* / og_* ...]  opt-in (emit_metadata): head metadata from the
                         same parse (== ExtractMetadata, columns prefixed)
    [links]              opt-in (emit_links): list<struct<dst_url, anchor,
                         nofollow>> outlinks from the same parse
                         (== extract_links via links_from_extracted)
"""

from __future__ import annotations

import os
import zlib
from time import perf_counter_ns

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fuzi_rd import chtml
from fuzi_rd.css import xpath_from_css
from fuzi_rd.extract import extract_main_content, kill_boilerplate_nodes, _title_of
from fuzi_rd.fastextract import ROW_OK, BatchExtractor
from fuzi_rd.stages.links import DEFAULT_MAX_LINKS, LINKS
from fuzi_rd.stages.markdown import MARKDOWN
from fuzi_rd.stages.metadata import FUSED_META_FIELDS, METADATA
from fuzi_rd.stages.products import Product, list_array, run_products
from fuzi_rd.xpath import compile_xpath, recipe_value

DEFAULT_NUM_PARTS = 256

_TITLE = Product(
    (pa.field("title", pa.large_string()),),
    lambda arena, url: (_title_of(arena),),
    ("",),
)

_SPANS = pa.list_(
    pa.struct([("path", pa.string()), ("start", pa.int64()), ("end", pa.int64())])
)


def _main_content(arena, url: str) -> tuple:
    kill_boilerplate_nodes(arena)
    text, spans = extract_main_content(arena)
    return (
        text,
        [(s["path"], s["start"], s["end"]) for s in spans],
        arena.n_nodes(),
        len(text),
        zlib.crc32(text.encode("utf-8")),
    )


# boilerplate kill + density: it mutates the arena, so it runs last
_MAIN_CONTENT = Product(
    (
        pa.field("extracted_text", pa.large_string()),
        pa.field("spans", _SPANS),
        pa.field("n_nodes", pa.int32()),
        pa.field("text_len", pa.int64()),
        pa.field("text_hash", pa.uint64()),
    ),
    _main_content,
    ("", (), 0, 0, 0),
)


# the output columns every ExtractPages batch starts with, in order
_CORE_COLUMNS = (
    "url", "part", "title", "extracted_text", "spans", "n_nodes", "text_len",
    "html_bytes", "text_hash", "parse_us", "status", "error",
)


def url_part(url: str, num_parts: int = DEFAULT_NUM_PARTS) -> int:
    """Deterministic url-hash partition id (stable across runs/processes)."""
    return zlib.crc32(url.encode("utf-8")) % num_parts


class ExtractPages:
    """Callable over ``pyarrow`` batches; see the module docstring."""

    def __init__(
        self,
        recipe: dict[str, str] | None = None,
        num_parts: int = DEFAULT_NUM_PARTS,
        emit_markdown: bool = False,
        emit_metadata: bool = False,
        emit_links: bool = False,
    ):
        # Warm state: compile every recipe selector ONCE
        # (reference precedent: XMLActor owning compiled parser state,
        # Sources/Actor.swift:136-167).
        self.recipe = {
            name: compile_xpath(xpath_from_css(sel[4:]) if sel.startswith("css:") else sel)
            for name, sel in (recipe or {}).items()
        }
        self.num_parts = num_parts
        self.emit_links = emit_links
        # The Python path's products, in run order: everything that reads
        # the parsed page (recipes, and the opt-in fused markdown, head
        # metadata and links, byte-identical to the standalone stages) runs
        # before the boilerplate kill mutates it.  Between the title and
        # the main content, the run order is also the output column order.
        self.products = [_TITLE]
        if self.recipe:
            asts = list(self.recipe.values())
            self.products.append(
                Product(
                    tuple(pa.field(name, pa.large_string()) for name in self.recipe),
                    lambda arena, url: tuple(recipe_value(a, arena, {}) for a in asts),
                    ("",) * len(asts),
                )
            )
        if emit_markdown:
            self.products.append(MARKDOWN)
        if emit_metadata:
            self.products.append(METADATA._replace(fields=FUSED_META_FIELDS))
        if emit_links:
            self.products.append(LINKS)
        self.products.append(_MAIN_CONTENT)
        self._columns = (
            *_CORE_COLUMNS, *(f.name for p in self.products[1:-1] for f in p.fields)
        )
        # Batched fast path (fuzi_rd/fastextract.py): with no recipes and no
        # fused markdown/metadata (they need the full DOM API), the title,
        # kill, density and text/span assembly run in one C pass over the
        # raw kernel arrays of the WHOLE batch; fused links are read straight
        # from the kernel attr arrays.  Byte-identity with _call_python is
        # pinned by tests/test_fastextract.py.
        self._fast = None
        if (
            chtml.available()
            and not self.recipe
            and not (emit_markdown or emit_metadata)
            and not os.environ.get("FUZI_NO_FASTEXTRACT")
        ):
            self._fast = BatchExtractor()

    fast_batch_fallbacks = 0  # class-level: observable in tests

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._fast is not None:
            try:
                return self._call_fast(batch)
            except Exception:
                # Safety net: the Python path is the authority.  Reset the
                # batch buffers and redo the whole batch the slow way.
                type(self).fast_batch_fallbacks += 1
                self._fast.reset()
        return self._call_python(batch)

    def _call_python(self, batch: pa.Table) -> pa.Table:
        """The shared page loop (``stages/products.py``) over the batch."""
        return self._keyed(batch, run_products(batch, self.products))

    def _keyed(self, batch: pa.Table, cols) -> pa.Table:
        """The output table: ``url``, ``part`` and ``html_bytes`` of every
        row of ``batch``, and the other columns from ``cols`` (a table or a
        dict of columns, in input order)."""
        urls = pc.cast(batch.column("url"), pa.string())
        parts = [url_part(u, self.num_parts) for u in urls.to_pylist()]
        html_bytes = pc.fill_null(pc.binary_length(batch.column("html")), 0)
        keys = {
            "url": urls,
            "part": pa.array(parts, pa.int32()),
            "html_bytes": pc.cast(html_bytes, pa.int64()),
        }
        return pa.table(
            {name: keys[name] if name in keys else cols[name] for name in self._columns}
        )

    def _call_fast(self, batch: pa.Table) -> pa.Table:
        """The kernel batch path (fuzi_rd/fastextract.py), one kernel pass
        per ``chtml.KERNEL_PASS_BYTES`` of html: one parse call over the
        column's Arrow buffers (and one over the rows Python decoded), then
        one extraction call.  Every row the kernel does not accept (a
        decline, a ``ParseError``, a page over the cap) goes through the
        page loop with the Python parser only.  The tables are
        merged back into input order, identical to ``_call_python`` over
        the batch."""
        html = batch.column("html")
        if not batch.num_rows or html.type not in (pa.binary(), pa.large_binary()):
            return self._call_python(batch)
        tables, rows, rest = [], [], []
        row0 = 0
        for chunk in html.chunks:
            for lo, hi in _passes(chunk):
                got = self._kernel_pass(chunk.slice(lo, hi - lo), row0 + lo, batch)
                for out, part in zip((tables, rows, rest), got):
                    out.append(part)
            row0 += len(chunk)
        rest = np.concatenate(rest)
        if rest.size:
            slow = run_products(batch.take(rest), self.products, kernel=False)
            tables.append(pa.table({name: slow[name] for name in tables[0].column_names}))
            rows.append(rest)
        rows = np.concatenate(rows)
        merged = pa.concat_tables(tables)
        if (np.diff(rows) < 0).any():
            merged = merged.take(np.argsort(rows))
        return self._keyed(batch, merged)

    def _kernel_pass(self, html: pa.Array, row0: int, batch: pa.Table) -> tuple:
        """The kernel batch over ``html``, rows ``row0...`` of ``batch``:
        the table of the non-key columns of the rows it answered, those
        batch rows, and the batch rows it left to the Python parser."""
        bx = self._fast
        bx.reset()
        rows, state, ns = bx.add_array(html)
        t_fin = perf_counter_ns()
        res = bx.finish()
        n = len(rows)
        cols = {
            "title": res["title"],
            # finish() produced ONE concatenated utf-8 buffer in doc order:
            # the column is built zero-copy
            "extracted_text": pa.Array.from_buffers(
                pa.large_utf8(),
                n,
                [None, pa.py_buffer(res["text_off"]), pa.py_buffer(res["text_buf"])],
            ),
            "spans": list_array(
                _SPANS,
                res["span_counts"],
                (res["span_paths"], res["span_starts"], res["span_ends"]),
            ),
            "n_nodes": pa.array(res["n_nodes"], pa.int32()),
            "text_len": pa.array(res["text_chars"], pa.int64()),
            "text_hash": pa.array(res["text_hash"], pa.uint64()),
        }
        if self.emit_links:
            urls = batch.column("url").take(rows + row0).to_pylist()
            counts, *children = bx.finish_links(urls, DEFAULT_MAX_LINKS)
            cols["links"] = list_array(LINKS.fields[0].type, counts, children)
        # the batched extraction's wall time, shared by the rows it answered
        # (parse_us is only ever consumed as a per-partition SUM)
        share = (perf_counter_ns() - t_fin) // max(n, 1)
        cols["parse_us"] = pa.array((ns[rows] + share) // 1000, pa.int64())
        cols["status"] = pa.repeat(pa.scalar("ok"), n)
        cols["error"] = pa.repeat(pa.scalar(""), n)
        names = [name for name in self._columns if name in cols]
        left = np.flatnonzero(state != ROW_OK) + row0
        return pa.table({name: cols[name] for name in names}), rows + row0, left


def _passes(html: pa.Array):
    """``(start, stop)`` row ranges of ``html`` that each hold at most
    ``chtml.KERNEL_PASS_BYTES`` of it; a larger page is a range of its own."""
    if not len(html):
        return
    width = np.int64 if pa.types.is_large_binary(html.type) else np.int32
    offsets = np.frombuffer(html.buffers()[1], width)[html.offset :][: len(html) + 1]
    lo = 0
    while lo < len(html):
        end = np.searchsorted(offsets, offsets[lo] + chtml.KERNEL_PASS_BYTES, "right")
        hi = max(int(end) - 1, lo + 1)
        yield lo, hi
        lo = hi
