"""PDF text extraction stage: a Ray Data ``map_batches`` task UDF.

The PDF twin of :class:`fuzi_rd.stages.extractor.ExtractPages` (same
poison-pill contract, same partition/lineage columns): a failing document
becomes a ``status='error'`` row and never fails the block.  Parsing is
necessarily per-document (PDF is a pointer-chasing container format), so
the batch loop is the vectorization floor — the same situation as the HTML
parse, where throughput comes from running many tasks, not SIMD.  Neither
stage holds state between batches, so both run as plain Ray Data tasks.

Output schema:

    doc_id: int64        passthrough key
    part: int32          doc_id-hash partition id (resume / lineage unit)
    pdf_text: large_string   extracted text (pages joined with "\\n")
    n_pages: int32
    title: string        /Info /Title when present
    pdf_bytes: int64     input size
    text_len: int64
    text_hash: uint64    crc32 of pdf_text (lineage checksum)
    status: string       'ok' | 'error'
    error: string        exception summary for error rows
"""

from __future__ import annotations

import zlib

import pyarrow as pa

from fuzi_rd.pdf import parse_pdf

DEFAULT_NUM_PARTS = 256


def extract_pdfs(batch: pa.Table, num_parts: int = DEFAULT_NUM_PARTS) -> pa.Table:
    """Task UDF over a ``(doc_id, pdf)`` table; see the module docstring."""
    doc_ids = batch.column("doc_id").to_pylist()
    pdfs = batch.column("pdf").to_pylist()
    n = len(doc_ids)

    parts = [0] * n
    texts = [""] * n
    n_pages = [0] * n
    titles = [""] * n
    pdf_bytes = [0] * n
    text_lens = [0] * n
    text_hash = [0] * n
    status = ["ok"] * n
    error = [""] * n

    for i in range(n):
        raw = pdfs[i] or b""
        parts[i] = zlib.crc32(str(doc_ids[i]).encode()) % num_parts
        pdf_bytes[i] = len(raw)
        try:
            doc = parse_pdf(raw)
            text = doc.text
            texts[i] = text
            n_pages[i] = doc.n_pages
            titles[i] = doc.info.get("Title", "")
            text_lens[i] = len(text)
            text_hash[i] = zlib.crc32(text.encode("utf-8"))
        except Exception as exc:  # poison-pill tolerance: row, not raise
            status[i] = "error"
            error[i] = f"{type(exc).__name__}: {exc}"[:500]

    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "part": pa.array(parts, pa.int32()),
            "pdf_text": pa.array(texts, pa.large_string()),
            "n_pages": pa.array(n_pages, pa.int32()),
            "title": pa.array(titles, pa.string()),
            "pdf_bytes": pa.array(pdf_bytes, pa.int64()),
            "text_len": pa.array(text_lens, pa.int64()),
            "text_hash": pa.array(text_hash, pa.uint64()),
            "status": pa.array(status, pa.string()),
            "error": pa.array(error, pa.string()),
        }
    )


def extract_pdfs_dataset(
    ds, num_parts: int = DEFAULT_NUM_PARTS, batch_size: int = 128
):
    """``(doc_id, pdf)`` Dataset -> extracted-text Dataset, as Ray Data
    tasks (lazy)."""
    return ds.map_batches(
        extract_pdfs,
        fn_kwargs={"num_parts": num_parts},
        batch_size=batch_size,
        batch_format="pyarrow",
    )


def extract_pdf_layout(batch: pa.Table) -> pa.Table:
    """Layout-block extraction: one output row per visual block —
    (doc_id, page, block_idx, y_top, y_bottom, n_lines, text).  Row
    expansion happens inside the task; malformed PDFs contribute zero
    rows (the row-expanding poison-pill contract, same as extract_tables).
    Joining a document's block texts in order reproduces its flat
    ``pdf_text`` — layout adds structure, never changes content."""
    from fuzi_rd.pdf import parse_pdf_layout

    ids_out, pages, idxs, y0, y1, nls, texts = [], [], [], [], [], [], []
    for doc_id, raw in zip(
        batch.column("doc_id").to_pylist(), batch.column("pdf").to_pylist()
    ):
        try:
            blocks = parse_pdf_layout(raw or b"")
        except Exception:
            continue
        for b in blocks:
            ids_out.append(doc_id)
            pages.append(b.page)
            idxs.append(b.block_idx)
            y0.append(b.y_top)
            y1.append(b.y_bottom)
            nls.append(b.n_lines)
            texts.append(b.text)
    return pa.table(
        {
            "doc_id": pa.array(ids_out, pa.int64()),
            "page": pa.array(pages, pa.int32()),
            "block_idx": pa.array(idxs, pa.int32()),
            "y_top": pa.array(y0, pa.float64()),
            "y_bottom": pa.array(y1, pa.float64()),
            "n_lines": pa.array(nls, pa.int32()),
            "text": pa.array(texts, pa.large_string()),
        }
    )


def pdf_layout_dataset(ds, batch_size: int = 128):
    """Wire :func:`extract_pdf_layout` onto a (doc_id, pdf) Dataset as Ray
    Data tasks (lazy)."""
    return ds.map_batches(
        extract_pdf_layout, batch_format="pyarrow", batch_size=batch_size
    )
