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

import zlib

import pyarrow as pa

from fuzi_rd import chtml
from fuzi_rd.css import xpath_from_css
from fuzi_rd.dom import ELEMENT
from fuzi_rd.errors import FuziError, ParseError
from fuzi_rd.extract import extract_main_content, kill_boilerplate_nodes, _title_of
from fuzi_rd.html_parser import parse_html_bytes
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
        # hot loop).  Byte-identity with the Python path is pinned by
        # tests/test_fastextract.py; any doc the kernel declines falls back
        # per-doc, and any fast-path exception falls back for the batch.
        self._fast = None
        import os as _os

        if (
            chtml.available()
            and not self.recipe
            and not (emit_markdown or emit_metadata)
            and not _os.environ.get("FUZI_NO_FASTEXTRACT")
        ):
            try:
                from fuzi_rd.fastextract import BatchExtractor

                self._fast = BatchExtractor()
            except Exception:
                self._fast = None

    fast_batch_fallbacks = 0  # class-level: observable in tests

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._fast is not None:
            try:
                return self._call_fast(batch)
            except Exception:
                # Safety net: the Python path is the authority.  Reset the
                # batch buffers and redo the whole batch the slow way.
                type(self).fast_batch_fallbacks += 1
                try:
                    self._fast.reset()
                except Exception:
                    self._fast = None
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

        spans_arr = pa.ListArray.from_arrays(
            pa.array(span_offsets, pa.int32()),
            pa.StructArray.from_arrays(
                [
                    pa.array(span_paths, pa.string()),
                    pa.array(span_starts, pa.int64()),
                    pa.array(span_ends, pa.int64()),
                ],
                ["path", "start", "end"],
            ),
        )
        cols = {
            "url": pa.array(urls, pa.string()),
            "part": pa.array(parts, pa.int32()),
            "title": pa.array(titles, pa.large_string()),
            "extracted_text": pa.array(texts, pa.large_string()),
            "spans": spans_arr,
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
            cols["links"] = pa.ListArray.from_arrays(
                pa.array(link_offsets, pa.int32()),
                pa.StructArray.from_arrays(
                    [
                        pa.array(link_dsts, pa.string()),
                        pa.array(link_anchors, pa.large_string()),
                        pa.array(link_nofollow, pa.bool_()),
                    ],
                    ["dst_url", "anchor", "nofollow"],
                ),
            )
        return pa.table(cols)

    def _call_fast(self, batch: pa.Table) -> pa.Table:
        """Batched vectorized extraction (see fastextract.py).  Produces a
        table identical to :meth:`_call_python` for the core column set."""
        from time import perf_counter_ns

        import numpy as np

        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        n = len(urls)
        bx = self._fast
        bx.reset()

        parts = [0] * n
        html_bytes = [0] * n
        parse_us = [0] * n
        status = ["ok"] * n
        error = [""] * n
        fast_rows: list[int] = []
        slow_rows: list[int] = []
        for i in range(n):
            raw = htmls[i] or b""
            parts[i] = url_part(urls[i], self.num_parts)
            html_bytes[i] = len(raw)
            t_row = perf_counter_ns()
            try:
                chtml.check_page_size(raw)
                ok = bx.add(raw)
            except ParseError as exc:
                status[i] = "error"
                error[i] = f"{type(exc).__name__}: {exc}"[:500]
                parse_us[i] = (perf_counter_ns() - t_row) // 1000
                continue
            except Exception:
                ok = False  # kernel bug: Python is the authority
            parse_us[i] = (perf_counter_ns() - t_row) // 1000
            (fast_rows if ok else slow_rows).append(i)

        t_fin = perf_counter_ns()
        res = bx.finish(emit_spans=self.emit_spans)
        if self.emit_links:
            res["links"] = bx.finish_links(
                [urls[i] for i in fast_rows], self.max_links
            )
        if fast_rows:
            # finish() is batched; amortize its wall time over the fast rows
            # (parse_us is only ever consumed as a per-partition SUM).
            share = ((perf_counter_ns() - t_fin) // 1000) // len(fast_rows)
            for i in fast_rows:
                parse_us[i] += share

        titles = [""] * n
        n_nodes = [0] * n
        text_lens = [0] * n
        text_hash = [0] * n
        for j, i in enumerate(fast_rows):
            titles[i] = res["title"][j]
            n_nodes[i] = int(res["n_nodes"][j])
            text_lens[i] = int(res["text_chars"][j])
            text_hash[i] = int(res["text_hash"][j])

        # per-doc declines (rare): the Python pipeline, row-local
        slow_spans: dict[int, list] = {}
        slow_bytes: dict[int, bytes] = {}
        slow_links: dict[int, list] = {}
        for i in slow_rows:
            t_row = perf_counter_ns()
            try:
                arena = parse_html_bytes(htmls[i] or b"", track_lines=False)
                titles[i] = _title_of(arena)
                if self.emit_links:
                    from fuzi_rd.stages.links import _page_links

                    # pre-kill, kept even if extraction later raises —
                    # exactly the _call_python control flow
                    slow_links[i] = _page_links(arena, urls[i], self.max_links)
                kill_boilerplate_nodes(arena)
                text, spans = extract_main_content(arena)
                slow_bytes[i] = text.encode("utf-8")
                if self.emit_spans:
                    slow_spans[i] = spans
                n_nodes[i] = arena.n_nodes()
                text_lens[i] = len(text)
                text_hash[i] = zlib.crc32(slow_bytes[i])
            except Exception as exc:
                status[i] = "error"
                error[i] = f"{type(exc).__name__}: {exc}"[:500]
            parse_us[i] += (perf_counter_ns() - t_row) // 1000

        # extracted_text: finish() already produced ONE concatenated utf-8
        # buffer in fast-row order (error rows are zero-width wherever they
        # sit), so with no per-doc declines the column is built zero-copy;
        # otherwise splice the rare slow rows in
        doc_len = np.diff(res["text_off"])
        widths = np.zeros(n, dtype=np.int64)
        if fast_rows:
            widths[np.array(fast_rows, dtype=np.int64)] = doc_len
        if slow_bytes:
            for i, b in slow_bytes.items():
                widths[i] = len(b)
            pieces = [b""] * n
            tb = res["text_buf"]
            to = res["text_off"]
            for j, i in enumerate(fast_rows):
                pieces[i] = tb[int(to[j]) : int(to[j + 1])].tobytes()
            for i, b in slow_bytes.items():
                pieces[i] = b
            data_buf = pa.py_buffer(b"".join(pieces))
        else:
            data_buf = pa.py_buffer(res["text_buf"])
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(widths, out=offsets[1:])
        text_arr = pa.Array.from_buffers(
            pa.large_utf8(), n, [None, pa.py_buffer(offsets), data_buf]
        )

        # spans: fast output is doc-major over fast_rows (ascending row
        # order), error rows contribute nothing — so when there are no slow
        # rows the flat arrays are already in row order
        counts_row = np.zeros(n, dtype=np.int64)
        if fast_rows:
            counts_row[np.array(fast_rows, dtype=np.int64)] = res["span_counts"]
        if slow_spans:
            f_off = np.zeros(len(fast_rows) + 1, dtype=np.int64)
            np.cumsum(res["span_counts"], out=f_off[1:])
            fast_pos = {i: j for j, i in enumerate(fast_rows)}
            r_starts = res["span_starts"].tolist()
            r_ends = res["span_ends"].tolist()
            span_paths: list[str] = []
            span_starts: list[int] = []
            span_ends: list[int] = []
            for i in range(n):
                j = fast_pos.get(i)
                if j is not None:
                    lo, hi = int(f_off[j]), int(f_off[j + 1])
                    span_paths.extend(res["span_paths"][lo:hi])
                    span_starts.extend(r_starts[lo:hi])
                    span_ends.extend(r_ends[lo:hi])
                else:
                    for s in slow_spans.get(i, ()):
                        span_paths.append(s["path"])
                        span_starts.append(s["start"])
                        span_ends.append(s["end"])
                        counts_row[i] += 1
        else:
            span_paths = res["span_paths"]
            span_starts = res["span_starts"]
            span_ends = res["span_ends"]
        span_offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts_row, out=span_offsets[1:])
        spans_arr = pa.ListArray.from_arrays(
            pa.Array.from_buffers(
                pa.int32(), n + 1, [None, pa.py_buffer(span_offsets)]
            ),
            pa.StructArray.from_arrays(
                [
                    pa.array(span_paths, pa.string()),
                    pa.array(span_starts, pa.int64()),
                    pa.array(span_ends, pa.int64()),
                ],
                ["path", "start", "end"],
            ),
        )
        cols = {
            "url": pa.array(urls, pa.string()),
            "part": pa.array(parts, pa.int32()),
            "title": pa.array(titles, pa.large_string()),
            "extracted_text": text_arr,
            "spans": spans_arr,
            "n_nodes": pa.array(n_nodes, pa.int32()),
            "text_len": pa.array(text_lens, pa.int64()),
            "html_bytes": pa.array(html_bytes, pa.int64()),
            "text_hash": pa.array(text_hash, pa.uint64()),
            "parse_us": pa.array(parse_us, pa.int64()),
            "status": pa.array(status, pa.string()),
            "error": pa.array(error, pa.string()),
        }
        if self.emit_links:
            # fast output is doc-major over fast_rows (ascending), so with
            # no slow rows the flat lists are already in row order — same
            # splice pattern as spans otherwise
            l_counts, l_dsts, l_anchors, l_nf = res["links"]
            lcnt_row = np.zeros(n, dtype=np.int64)
            if fast_rows:
                lcnt_row[np.array(fast_rows, dtype=np.int64)] = l_counts
            if slow_links:
                l_off = np.zeros(len(fast_rows) + 1, dtype=np.int64)
                np.cumsum(l_counts, out=l_off[1:])
                fpos = {i: j for j, i in enumerate(fast_rows)}
                dsts, anchors, nf = [], [], []
                for i in range(n):
                    j = fpos.get(i)
                    if j is not None:
                        lo, hi = int(l_off[j]), int(l_off[j + 1])
                        dsts.extend(l_dsts[lo:hi])
                        anchors.extend(l_anchors[lo:hi])
                        nf.extend(l_nf[lo:hi])
                    else:
                        for d, a, x in slow_links.get(i, ()):
                            dsts.append(d)
                            anchors.append(a)
                            nf.append(x)
                            lcnt_row[i] += 1
            else:
                dsts, anchors, nf = l_dsts, l_anchors, l_nf
            l_offsets = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(lcnt_row, out=l_offsets[1:])
            cols["links"] = pa.ListArray.from_arrays(
                pa.Array.from_buffers(
                    pa.int32(), n + 1, [None, pa.py_buffer(l_offsets)]
                ),
                pa.StructArray.from_arrays(
                    [
                        pa.array(dsts, pa.string()),
                        pa.array(anchors, pa.large_string()),
                        pa.array(nf, pa.bool_()),
                    ],
                    ["dst_url", "anchor", "nofollow"],
                ),
            )
        return pa.table(cols)
