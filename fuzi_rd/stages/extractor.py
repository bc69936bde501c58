"""The extraction stage: a callable class over Arrow batches.

This is the Ray analog of the reference's ``HTMLActor`` (Sources/Actor.swift
— parser state pinned to one execution context, only immutable value data
crosses the boundary).  Warm state (compiled recipe XPath ASTs, the loaded C
kernel, ``BatchExtractor`` buffers) is built once in ``__init__``;
``__call__`` receives zero-copy Arrow batches and emits Arrow batches.  The
pipeline (``pipelines/extraction.py``) runs it inside Ray Data tasks, one
warm instance per worker process and constructor config: a worker process
runs one task at a time, so the process is the execution context.

Output schema (per input row, poison-pill tolerant — a failing page becomes
a ``status='error'`` row, it never fails the block):

    url: string          passthrough key
    part: int32          url-hash partition id (resume / lineage unit)
    title: large_string  head/title stringValue
    extracted_text: large_string
    spans: list<struct<path: string, start: int64, end: int64>>
    n_nodes: int32       parsed DOM size
    text_len: int64      len(extracted_text)
    html_bytes: int64    input size
    text_hash: uint64    xxh-like per-row hash of extracted_text (lineage checksum)
    status: string       'ok' | 'error'
    error: string        exception summary for error rows
    [recipe columns]     one large_string column per named recipe query
    [markdown]           opt-in (emit_markdown): structure-preserving
                         markdown from the same parse (== ConvertMarkdown)
    [meta_* / og_* ...]  opt-in (emit_metadata): head metadata from the
                         same parse (== ExtractMetadata, columns prefixed)
    [links]              opt-in (emit_links): resolved outlinks from the
                         same parse as list<struct<dst_url, anchor,
                         nofollow>> (== extract_links row-for-row once
                         flattened via links_from_extracted) — the
                         webgraph as a by-product of the one parse the
                         corpus job already pays for
"""

from __future__ import annotations

import os
import zlib

import pyarrow as pa

from fuzi_rd import chtml
from fuzi_rd.css import xpath_from_css
from fuzi_rd.errors import FuziError
from fuzi_rd.extract import extract_main_content, kill_boilerplate_nodes, _title_of
from fuzi_rd.xpath import compile_xpath, evaluate, string_value

DEFAULT_NUM_PARTS = 256


def url_part(url: str, num_parts: int = DEFAULT_NUM_PARTS) -> int:
    """Deterministic url-hash partition id (stable across runs/processes)."""
    return zlib.crc32(url.encode("utf-8")) % num_parts


class ExtractPages:
    """Callable over ``pyarrow`` batches; see the module docstring."""

    def __init__(
        self,
        recipe: dict[str, str] | None = None,
        num_parts: int = DEFAULT_NUM_PARTS,
        emit_spans: bool = True,
        emit_markdown: bool = False,
        emit_metadata: bool = False,
        emit_links: bool = False,
        max_links_per_page: int | None = None,
    ):
        # Warm state: compile every recipe selector ONCE
        # (reference precedent: XMLActor owning compiled parser state,
        # Sources/Actor.swift:136-167).
        self.recipe = {}
        for name, selector in (recipe or {}).items():
            if selector.startswith(("css:",)):
                xp = xpath_from_css(selector[4:])
            else:
                xp = selector
            self.recipe[name] = compile_xpath(xp)
        self.num_parts = num_parts
        self.emit_spans = emit_spans
        # opt-in fused products: markdown + head metadata rendered from the
        # SAME parsed arena (before boilerplate killing mutates it), so the
        # flagship job emits training-ready text + curation metadata in ONE
        # parse pass — byte-identical to the standalone ConvertMarkdown /
        # ExtractMetadata stages (pinned by test).
        self.emit_markdown = emit_markdown
        self.emit_metadata = emit_metadata
        self.emit_links = emit_links
        if max_links_per_page is None:
            from fuzi_rd.stages.links import DEFAULT_MAX_LINKS

            max_links_per_page = DEFAULT_MAX_LINKS
        self.max_links = max_links_per_page
        # Batched fast path (fuzi_rd/fastextract.py): when the stage emits
        # only the core extraction columns (+ optionally fused links — read
        # straight from the kernel attr arrays; no recipes, no fused
        # markdown/metadata, which need the full DOM API), the kill+density+
        # text assembly runs vectorized over the raw C-kernel arrays for the
        # WHOLE batch, skipping the Python-Arena marshalling (~2.9x on the
        # hot loop).  Rows the kernel does not accept go through
        # _call_python, which parses with chtml.parse_page; any fast-path
        # exception redoes the whole batch in _call_python.  Byte-identity
        # is pinned by tests/test_fastextract.py.
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
        from time import perf_counter_ns

        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        n = len(urls)
        parse_us = [0] * n

        parts = [0] * n
        titles = [""] * n
        texts = [""] * n
        # spans flattened: building one ListArray from flat columns is much
        # cheaper than pa.array() over per-row lists of python dicts
        span_offsets = [0] * (n + 1)
        span_paths: list[str] = []
        span_starts: list[int] = []
        span_ends: list[int] = []
        n_nodes = [0] * n
        text_lens = [0] * n
        html_bytes = [0] * n
        text_hash = [0] * n
        status = ["ok"] * n
        error = [""] * n
        recipe_cols = {name: [""] * n for name in self.recipe}
        markdowns = [""] * n if self.emit_markdown else None
        metas: list[dict] | None = [None] * n if self.emit_metadata else None
        # links flattened exactly like spans: flat child columns + offsets
        link_offsets = [0] * (n + 1) if self.emit_links else None
        link_dsts: list[str] = []
        link_anchors: list[str] = []
        link_nofollow: list[bool] = []

        for i in range(n):
            url = urls[i]
            raw = htmls[i] or b""
            parts[i] = url_part(url, self.num_parts)
            html_bytes[i] = len(raw)
            t_row = perf_counter_ns()
            try:
                arena = chtml.parse_page(raw)
                titles[i] = _title_of(arena)
                for name, ast in self.recipe.items():
                    try:
                        value = evaluate(ast, arena, arena.root, {})
                    except FuziError:
                        continue
                    if isinstance(value, list):
                        recipe_cols[name][i] = "\n".join(
                            string_value(arena, item) for item in value
                        )
                    else:
                        recipe_cols[name][i] = str(value)
                # fused products read the PRE-boilerplate arena: identical
                # input to the standalone stages' fresh parse
                if markdowns is not None:
                    from fuzi_rd.stages.markdown import render_markdown

                    markdowns[i] = render_markdown(arena, base_url=url or "")
                if metas is not None:
                    from fuzi_rd.stages.metadata import _page_metadata

                    metas[i] = _page_metadata(arena, url)
                if link_offsets is not None:
                    from fuzi_rd.stages.links import _page_links

                    for d, a, nf in _page_links(arena, url, self.max_links):
                        link_dsts.append(d)
                        link_anchors.append(a)
                        link_nofollow.append(nf)
                kill_boilerplate_nodes(arena)
                text, spans = extract_main_content(arena)
                texts[i] = text
                if self.emit_spans:
                    for s in spans:
                        span_paths.append(s["path"])
                        span_starts.append(s["start"])
                        span_ends.append(s["end"])
                n_nodes[i] = arena.n_nodes()
                text_lens[i] = len(text)
                text_hash[i] = zlib.crc32(text.encode("utf-8"))
            except Exception as exc:  # poison-pill tolerance: row, not raise
                status[i] = "error"
                error[i] = f"{type(exc).__name__}: {exc}"[:500]
            parse_us[i] = (perf_counter_ns() - t_row) // 1000
            span_offsets[i + 1] = len(span_paths)
            if link_offsets is not None:
                link_offsets[i + 1] = len(link_dsts)

        cols = {
            "url": pa.array(urls, pa.string()),
            "part": pa.array(parts, pa.int32()),
            "title": pa.array(titles, pa.large_string()),
            "extracted_text": pa.array(texts, pa.large_string()),
            "spans": _spans_array(span_offsets, span_paths, span_starts, span_ends),
            "n_nodes": pa.array(n_nodes, pa.int32()),
            "text_len": pa.array(text_lens, pa.int64()),
            "html_bytes": pa.array(html_bytes, pa.int64()),
            "text_hash": pa.array(text_hash, pa.uint64()),
            "parse_us": pa.array(parse_us, pa.int64()),
            "status": pa.array(status, pa.string()),
            "error": pa.array(error, pa.string()),
        }
        for name, values in recipe_cols.items():
            cols[name] = pa.array(values, pa.large_string())
        if markdowns is not None:
            cols["markdown"] = pa.array(markdowns, pa.large_string())
        if metas is not None:
            def _m(key, default=None):
                return [
                    (m[key] if m is not None else default) for m in metas
                ]

            cols["meta_title"] = pa.array(_m("title"), pa.string())
            cols["meta_description"] = pa.array(_m("meta_description"), pa.string())
            cols["canonical_url"] = pa.array(_m("canonical_url"), pa.string())
            cols["meta_lang"] = pa.array(_m("lang"), pa.string())
            cols["robots_noindex"] = pa.array(_m("robots_noindex", False), pa.bool_())
            cols["robots_nofollow"] = pa.array(_m("robots_nofollow", False), pa.bool_())
            cols["og_title"] = pa.array(_m("og:title"), pa.string())
            cols["og_description"] = pa.array(_m("og:description"), pa.string())
            cols["og_image"] = pa.array(_m("og:image"), pa.string())
            cols["og_type"] = pa.array(_m("og:type"), pa.string())
        if link_offsets is not None:
            cols["links"] = _links_array(
                link_offsets, link_dsts, link_anchors, link_nofollow
            )
        return pa.table(cols)

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
        res = bx.finish(emit_spans=self.emit_spans)
        if self.emit_links:
            links = bx.finish_links(fast_urls, self.max_links)
        if fast_rows:
            # finish() is batched; amortize its wall time over the fast rows
            # (parse_us is only ever consumed as a per-partition SUM).
            share = ((perf_counter_ns() - t_fin) // 1000) // len(fast_rows)
            parse_us = [us + share for us in parse_us]

        n = len(fast_rows)
        span_offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(res["span_counts"], out=span_offsets[1:])
        cols = {
            "url": pa.array(fast_urls, pa.string()),
            "part": pa.array(
                [url_part(u, self.num_parts) for u in fast_urls], pa.int32()
            ),
            "title": pa.array(res["title"], pa.large_string()),
            # finish() produced ONE concatenated utf-8 buffer in fast-row
            # order: the column is built zero-copy
            "extracted_text": pa.Array.from_buffers(
                pa.large_utf8(),
                n,
                [None, pa.py_buffer(res["text_off"]), pa.py_buffer(res["text_buf"])],
            ),
            "spans": _spans_array(
                span_offsets, res["span_paths"], res["span_starts"], res["span_ends"]
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
            l_counts, dsts, anchors, nofollow = links
            link_offsets = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(l_counts, out=link_offsets[1:])
            cols["links"] = _links_array(link_offsets, dsts, anchors, nofollow)
        fast = pa.table(cols)
        if not rest:
            return fast
        slow = self._call_python(batch.take(rest))
        order = np.argsort(np.array(fast_rows + rest, dtype=np.int64))
        return pa.concat_tables([fast, slow]).take(order)


def _spans_array(offsets, paths, starts, ends) -> pa.ListArray:
    return pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()),
        pa.StructArray.from_arrays(
            [
                pa.array(paths, pa.string()),
                pa.array(starts, pa.int64()),
                pa.array(ends, pa.int64()),
            ],
            ["path", "start", "end"],
        ),
    )


def _links_array(offsets, dsts, anchors, nofollow) -> pa.ListArray:
    return pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()),
        pa.StructArray.from_arrays(
            [
                pa.array(dsts, pa.string()),
                pa.array(anchors, pa.large_string()),
                pa.array(nofollow, pa.bool_()),
            ],
            ["dst_url", "anchor", "nofollow"],
        ),
    )
