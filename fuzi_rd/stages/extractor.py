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
takes the rows ``BatchExtractor.add`` accepts, and every other row runs
through the shared page loop (``stages/products.py``) with this stage's
products, in order: title, recipes, markdown, metadata, links, then the
boilerplate kill and density (text, spans, n_nodes, text_len, text_hash).
The kernel batch is two C calls: the parse of each page, then one pass
over the whole batch (``chtml_extract_batch``) that writes the title,
text, span and path buffers the output columns are built from without a
Python string per row or span.

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

import pyarrow as pa
import pyarrow.compute as pc

from fuzi_rd import chtml
from fuzi_rd.css import xpath_from_css
from fuzi_rd.extract import extract_main_content, kill_boilerplate_nodes, _title_of
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
            from fuzi_rd.fastextract import BatchExtractor

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
        got = run_products(batch, self.products)
        got["part"] = self._parts(got["url"].to_pylist())
        html_bytes = pc.fill_null(pc.binary_length(batch.column("html")), 0)
        got["html_bytes"] = pc.cast(html_bytes, pa.int64())
        extra = [f.name for p in self.products[1:-1] for f in p.fields]
        return pa.table({name: got[name] for name in (*_CORE_COLUMNS, *extra)})

    def _parts(self, urls: list) -> pa.Array:
        return pa.array([url_part(u, self.num_parts) for u in urls], pa.int32())

    def _call_fast(self, batch: pa.Table) -> pa.Table:
        """The kernel batch path (fuzi_rd/fastextract.py) for the rows
        ``BatchExtractor.add`` accepts; every other row (a decline, a
        ``ParseError``, a kernel exception) goes through :meth:`_call_python`,
        which parses it with ``chtml.parse_page``.  The two tables are merged
        back into input order, identical to ``_call_python`` over the batch."""
        from time import perf_counter_ns

        import numpy as np

        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        bx = self._fast
        bx.reset()

        fast_rows: list[int] = []
        rest: list[int] = []
        html_bytes: list[int] = []
        parse_us: list[int] = []
        for i, raw in enumerate(htmls):
            raw = raw or b""
            t_row = perf_counter_ns()
            try:
                chtml.check_page_size(raw)
                ok = bx.add(raw)
            except Exception:  # ParseError or a kernel bug: _call_python decides
                ok = False
            if ok:
                fast_rows.append(i)
                html_bytes.append(len(raw))
                parse_us.append((perf_counter_ns() - t_row) // 1000)
            else:
                rest.append(i)

        fast_urls = [urls[i] for i in fast_rows]
        t_fin = perf_counter_ns()
        res = bx.finish()
        if self.emit_links:
            links = bx.finish_links(fast_urls, DEFAULT_MAX_LINKS)
        if fast_rows:
            # finish() is batched; amortize its wall time over the fast rows
            # (parse_us is only ever consumed as a per-partition SUM).
            share = ((perf_counter_ns() - t_fin) // 1000) // len(fast_rows)
            parse_us = [us + share for us in parse_us]

        n = len(fast_rows)
        cols = {
            "url": pa.array(fast_urls, pa.string()),
            "part": self._parts(fast_urls),
            "title": res["title"],
            # finish() produced ONE concatenated utf-8 buffer in fast-row
            # order: the column is built zero-copy
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
            "html_bytes": pa.array(html_bytes, pa.int64()),
            "text_hash": pa.array(res["text_hash"], pa.uint64()),
            "parse_us": pa.array(parse_us, pa.int64()),
            "status": pa.array(["ok"] * n, pa.string()),
            "error": pa.array([""] * n, pa.string()),
        }
        if self.emit_links:
            counts, *children = links
            cols["links"] = list_array(LINKS.fields[0].type, counts, children)
        fast = pa.table(cols)
        if not rest:
            return fast
        slow = self._call_python(batch.take(rest))
        order = np.argsort(np.array(fast_rows + rest, dtype=np.int64))
        return pa.concat_tables([fast, slow]).take(order)

