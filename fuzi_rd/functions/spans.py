"""Exact duplicate-span detection (substring-level dedup).

Finds every w-token window whose exact token sequence appears in at least
``min_docs`` DISTINCT documents — the building block of substring-level
training-data dedup (windows shared across documents mark boilerplate /
mirrored passages that document-level dedup misses).

Scale shape (100 TB): each document's windows reduce to fixed-width 16-byte
double fingerprints inside ``map_batches`` (an O(n) rolling polynomial hash
— no per-window rehash, no window text), so the only all-to-all exchange
carries (fp, fp2, doc_id, tok_start) rows.  Groups are per-window-identity
(tiny except for pathological boilerplate, which ``max_bucket`` caps), and
window text never crosses the wire.  The second, independent fingerprint is
verified inside each group, pushing the false-positive probability of the
64-bit grouping hash to ~2^-64 per candidate window.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fuzi_rd.functions.dedup import _token_hashes, hash_join

# odd multipliers -> invertible mod 2^64, so the rolling hash is O(n)
_B1 = 0x9E3779B97F4A7C15
_B2 = 0xC2B2AE3D27D4EB4F
_MOD = 1 << 64


def _rolling_fps(th: np.ndarray, w: int, base: int) -> np.ndarray:
    """All w-window polynomial fingerprints of a token-hash array, O(n).

    fp_i = sum_{j<w} th[i+j] * base^(w-1-j)  (mod 2^64), computed from one
    weighted prefix sum and the modular inverse of the (odd) base."""
    n = len(th)
    if n < w:
        return np.empty(0, dtype=np.uint64)
    b = np.uint64(base)
    # powers[k] = base^k, inv_powers[k] = base^-k (mod 2^64)
    powers = np.empty(n + 1, dtype=np.uint64)
    powers[0] = 1
    np.multiply.accumulate(np.full(n, b, dtype=np.uint64), out=powers[1:])
    binv = pow(base, -1, _MOD)
    inv_powers = np.empty(n + 1, dtype=np.uint64)
    inv_powers[0] = 1
    np.multiply.accumulate(
        np.full(n, np.uint64(binv), dtype=np.uint64), out=inv_powers[1:]
    )
    # weighted[k] = th[k] * base^(n-1-k); prefix[i] = sum(weighted[:i])
    weighted = th * powers[n - 1 :: -1]
    prefix = np.zeros(n + 1, dtype=np.uint64)
    np.add.accumulate(weighted, out=prefix[1:])
    # window [i, i+w): (prefix[i+w] - prefix[i]) * base^-(n-i-w)
    i = np.arange(n - w + 1)
    return (prefix[i + w] - prefix[i]) * inv_powers[n - w - i]


def window_fingerprint_batch(w: int, text_col: str = "text", doc_col: str = "doc_id"):
    """map_batches fn: one output row per w-token window —
    (fp, fp2, doc_id, tok_start).  Tokenization is lowercase whitespace
    split (the corpus-stats convention)."""

    def _fps(batch: pa.Table) -> pa.Table:
        ids = batch.column(doc_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_fp: list[np.ndarray] = []
        out_fp2: list[np.ndarray] = []
        out_id: list[np.ndarray] = []
        out_start: list[np.ndarray] = []
        for doc_id, text in zip(ids, texts):
            toks = (text or "").lower().split()
            if len(toks) < w:
                continue
            th = _token_hashes(toks)
            fp1 = _rolling_fps(th, w, _B1)
            fp2 = _rolling_fps(th, w, _B2)
            out_fp.append(fp1)
            out_fp2.append(fp2)
            out_id.append(np.full(len(fp1), doc_id, dtype=np.int64))
            out_start.append(np.arange(len(fp1), dtype=np.int64))
        if not out_fp:
            return pa.table(
                {
                    "fp": pa.array([], pa.uint64()),
                    "fp2": pa.array([], pa.uint64()),
                    "doc_id": pa.array([], pa.int64()),
                    "tok_start": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "fp": pa.array(np.concatenate(out_fp)),
                "fp2": pa.array(np.concatenate(out_fp2)),
                "doc_id": pa.array(np.concatenate(out_id)),
                "tok_start": pa.array(np.concatenate(out_start)),
            }
        )

    return _fps


def duplicate_spans(
    ds,
    w: int = 20,
    min_docs: int = 2,
    max_bucket: int | None = 4096,
    text_col: str = "text",
    doc_col: str = "doc_id",
):
    """Every (doc_id, tok_start) whose w-token window also appears in at
    least ``min_docs - 1`` OTHER documents.

    ``max_bucket`` caps the rows emitted per window identity (a window
    duplicated across millions of mirror pages would otherwise emit
    millions of rows from one group); pass ``None`` for exact output.
    Result columns: (doc_id, tok_start) — sorted consumers can reassemble
    maximal duplicated ranges by merging consecutive tok_starts."""

    fps = ds.map_batches(
        window_fingerprint_batch(w, text_col, doc_col), batch_format="pyarrow"
    )

    def _dup_group(group: pa.Table) -> pa.Table:
        # group = all windows sharing fp; verify fp2 agreement per sub-window
        fp2 = group.column("fp2").to_numpy(zero_copy_only=False)
        docs = group.column("doc_id").to_numpy(zero_copy_only=False)
        starts = group.column("tok_start").to_numpy(zero_copy_only=False)
        keep_doc: list[np.ndarray] = []
        keep_start: list[np.ndarray] = []
        for v in np.unique(fp2):
            m = fp2 == v
            if len(np.unique(docs[m])) >= min_docs:
                d, s = docs[m], starts[m]
                if max_bucket is not None and len(d) > max_bucket:
                    # deterministic cap: keep the lexicographically smallest
                    # (doc_id, tok_start) rows regardless of block order
                    order = np.lexsort((s, d))[:max_bucket]
                    d, s = d[order], s[order]
                keep_doc.append(d)
                keep_start.append(s)
        if not keep_doc:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "tok_start": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(keep_doc)),
                "tok_start": pa.array(np.concatenate(keep_start)),
            }
        )

    return fps.groupby("fp").map_groups(_dup_group, batch_format="pyarrow")


def duplicate_span_scrub(
    ds,
    w: int = 20,
    min_docs: int = 2,
    text_col: str = "text",
    doc_col: str = "doc_id",
):
    """Remove cross-document duplicated passages from every document:
    tokens covered by ANY w-token window that also occurs in another
    document are dropped, and the survivors are re-joined with single
    spaces — the boilerplate-removal form of :func:`duplicate_spans`
    (C4-style: shared passages are treated as boilerplate and removed
    from every occurrence).

    Output: (doc_id, clean_text) for EVERY input document (documents with
    no duplicated window keep all their tokens; note the text is
    normalized to lowercase single-space-joined tokens — the same
    tokenization the span detection used, so offsets line up).

    Scale shape: the span list (fixed-width rows) hash-joins back onto the
    documents by doc_id — the only exchange beyond duplicate_spans' own —
    and interval coverage is computed per row inside ``map_batches`` via a
    vectorized difference array.  Span starts are packed per doc into a
    binary column before the join (acero rejects list payloads)."""
    spans = duplicate_spans(
        ds, w=w, min_docs=min_docs, max_bucket=None,
        text_col=text_col, doc_col=doc_col,
    )

    _packed_schema = pa.schema(
        [("doc_id", pa.int64()), ("starts", pa.large_binary())]
    )

    def _pack(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _packed_schema.empty_table()
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        starts = np.sort(group.column("tok_start").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "doc_id": pa.array([int(ids[0])], pa.int64()),
                "starts": pa.array([starts.astype(np.int64).tobytes()], pa.large_binary()),
            }
        )

    from fuzi_rd.functions.dedup import _compact

    # _compact: the groupby's empty hash partitions emit schema-less blocks
    # that poison the join partitioner; the packed span table is tiny
    # (duplicated docs only), so re-bundling its block refs is cheap.
    packed = _compact(
        spans.groupby("doc_id").map_groups(_pack, batch_format="pyarrow")
    )
    if packed.count() == 0:
        # no duplicated windows anywhere: an all-empty right side would
        # feed schema-less blocks into the join — scrub degenerates to
        # the tokenize-and-rejoin normalization.
        def _identity(batch: pa.Table) -> pa.Table:
            ids = batch.column(doc_col).to_pylist()
            texts = batch.column(text_col).to_pylist()
            out = [" ".join((t or "").lower().split()) for t in texts]
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "clean_text": pa.array(out, pa.large_string()),
                }
            )

        return ds.map_batches(_identity, batch_format="pyarrow")

    joined = hash_join(ds, packed, "left_outer", 16, (doc_col,))

    def _scrub(batch: pa.Table) -> pa.Table:
        ids = batch.column(doc_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        blobs = batch.column("starts").to_pylist()
        out = []
        for text, blob in zip(texts, blobs):
            toks = (text or "").lower().split()
            if not blob:
                out.append(" ".join(toks))
                continue
            starts = np.frombuffer(blob, dtype=np.int64)
            # union of [s, s+w) via a difference array — O(n + spans)
            diff = np.zeros(len(toks) + 1, dtype=np.int64)
            np.add.at(diff, starts, 1)
            np.add.at(diff, np.minimum(starts + w, len(toks)), -1)
            covered = np.cumsum(diff[:-1]) > 0
            out.append(" ".join(t for t, c in zip(toks, covered) if not c))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "clean_text": pa.array(out, pa.large_string()),
            }
        )

    return joined.map_batches(_scrub, batch_format="pyarrow")
