"""Crawl-snapshot diff: what changed between two crawls of the same URLs.

Recurring production question for an incremental pipeline: given last
month's crawl and this month's, which documents are new, which vanished,
which changed content, and which are byte-identical (and can reuse every
downstream artifact — extraction, dedup membership, embeddings)?

Scale shape (100 TB x 2): each side reduces to (key, digest) inside
``map_batches`` — document text never enters the exchange — then ONE
hash-partitioned ``full_outer`` join on the key classifies every URL.
Output is one fixed-width row per distinct key on either side.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from fuzi_rd.functions.dedup import hash_join

_OLD = "__diff_old_hash"
_NEW = "__diff_new_hash"


def _digests(key_col: str, text_col: str, out_col: str):
    def _d(batch: pa.Table) -> pa.Table:
        hashes = [
            hashlib.md5(
                t if isinstance(t, bytes) else (t or "").encode("utf-8")
            ).hexdigest()
            for t in batch.column(text_col).to_pylist()
        ]
        return pa.table(
            {
                key_col: batch.column(key_col),
                out_col: pa.array(hashes, pa.string()),
            }
        )

    return _d


def crawl_diff(
    old_ds,
    new_ds,
    key_col: str = "url",
    text_col: str = "text",
    num_partitions: int = 16,
):
    """(key, change) for every key present in either snapshot:
    ``added`` (new only), ``removed`` (old only), ``changed`` (both, text
    differs), ``same`` (both, text identical).

    Keys are assumed unique per snapshot (a crawl keyed by canonical URL);
    duplicate keys produce join-multiplied rows, deduplicate upstream."""
    import pyarrow.compute as pc

    old_keys = old_ds.map_batches(
        _digests(key_col, text_col, _OLD), batch_format="pyarrow"
    )
    new_keys = new_ds.map_batches(
        _digests(key_col, text_col, _NEW), batch_format="pyarrow"
    )
    joined = hash_join(
        old_keys, new_keys, "full_outer", num_partitions, (key_col,)
    )

    def classify(batch: pa.Table) -> pa.Table:
        old = batch.column(_OLD)
        new = batch.column(_NEW)
        change = pc.if_else(
            pc.is_null(old),
            pa.scalar("added"),
            pc.if_else(
                pc.is_null(new),
                pa.scalar("removed"),
                pc.if_else(
                    pc.equal(old, new), pa.scalar("same"), pa.scalar("changed")
                ),
            ),
        )
        return pa.table(
            {key_col: batch.column(key_col), "change": pc.cast(change, pa.string())}
        )

    return joined.map_batches(classify, batch_format="pyarrow")
