"""Inverted-index (postings) build + bucket-pruned lookup.

The search-serving artifact a corpus pipeline emits next to the training
shards: per-token postings lists (doc_id, term frequency), written as
parquet PARTITIONED BY TOKEN-HASH BUCKET so a lookup reads exactly one
bucket directory — 1/n_buckets of the index — never the whole artifact.

Scale shape (100 TB):

  1. each batch reduces to (token, doc_id, tf) rows inside ``map_batches``
     (per-document counts are the combiner — one row per distinct token
     per doc, not per occurrence);
  2. the bucket id is a pure function of the token (md5 % n_buckets), so
     the partitioned write is the ONLY exchange and it is hive-layout
     (``bucket=K/``) — the same pruning layout the extraction writer uses
     for url-hash parts;
  3. ``lookup_token`` derives the bucket from the query token and passes
     ONLY that directory to ``read_parquet`` — read pruning at the file
     level, the index analog of partition-pruned resume.

Token convention: the corpus-stats tokenizer (lowercase ``[^a-z]+``
split, `vocab.TOKEN_SPLIT_PATTERN`), so postings agree with `token_df` /
`tfidf_topk` and the DuckDB oracle.
"""

from __future__ import annotations

import hashlib
import pathlib

import pyarrow as pa
import pyarrow.compute as pc

from fuzi_rd.broadcast import resolve
from fuzi_rd.functions.vocab import TOKEN_SPLIT_PATTERN

DEFAULT_N_BUCKETS = 64


def token_bucket(token: str, n_buckets: int = DEFAULT_N_BUCKETS) -> int:
    return (
        int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:8], "little")
        % n_buckets
    )


def postings_batch(text_col: str, doc_col: str, n_buckets: int):
    """Per-batch combiner: (token, doc, tf, dl) rows, fully vectorized —
    dictionary-encode the flattened tokens, lexsort (doc, code), run-length
    encode the runs.  md5 bucketing runs once per DISTINCT token in the
    batch (the dictionary), not once per output row.

    ``dl`` is the source document's total token count, DENORMALIZED onto
    every postings row (the classic search-index layout): BM25 needs the
    document length at score time, and carrying it in the row means ranked
    retrieval never joins back to the corpus — the pruned bucket read is
    self-sufficient."""

    def _p(batch: pa.Table) -> pa.Table:
        import numpy as np

        empty = pa.table(
            {
                "token": pa.array([], pa.string()),
                "bucket": pa.array([], pa.int32()),
                doc_col: pa.array([], pa.int64()),
                "tf": pa.array([], pa.int64()),
                "dl": pa.array([], pa.int64()),
            }
        )
        if len(batch) == 0:
            return empty
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch.column(text_col)), TOKEN_SPLIT_PATTERN
        )
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks)
        nonempty = pc.not_equal(flat, "")
        flat = flat.filter(nonempty)
        if len(flat) == 0:
            return empty
        parents_np = parents.filter(nonempty).to_numpy(zero_copy_only=False)
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = enc.dictionary

        order = np.lexsort((codes, parents_np))
        p_s, c_s = parents_np[order], codes[order]
        run_start = np.empty(len(p_s), dtype=bool)
        run_start[0] = True
        run_start[1:] = (p_s[1:] != p_s[:-1]) | (c_s[1:] != c_s[:-1])
        starts = np.flatnonzero(run_start)
        tf = np.diff(np.append(starts, len(p_s)))

        doc_ids = batch.column(doc_col).to_numpy(zero_copy_only=False)
        out_codes = c_s[starts]
        bucket_per_vocab = np.array(
            [token_bucket(t, n_buckets) for t in vocab.to_pylist()],
            dtype=np.int32,
        )
        # document length = total token occurrences per source row
        occ_per_row = np.bincount(p_s, minlength=len(batch))
        return pa.table(
            {
                "token": pc.take(vocab, pa.array(out_codes, pa.int64())),
                "bucket": pa.array(bucket_per_vocab[out_codes], pa.int32()),
                doc_col: pa.array(doc_ids[p_s[starts]], pa.int64()),
                "tf": pa.array(tf, pa.int64()),
                "dl": pa.array(occ_per_row[p_s[starts]], pa.int64()),
            }
        )

    return _p


def build_postings(
    ds,
    out_dir: str,
    text_col: str = "text",
    doc_col: str = "doc_id",
    n_buckets: int = DEFAULT_N_BUCKETS,
) -> str:
    """Write the bucket-partitioned postings index; returns ``out_dir``.

    Idempotent per directory (a ``_DONE`` marker skips rebuilds — delete
    the directory to rebuild after a corpus change).  Crash-safe: the
    index is written into a sibling temp directory and renamed into place,
    so a run that dies mid-write never leaves partial bucket files where
    the next build would append a second copy on top of them.

    Also writes a ``_STATS`` json sidecar (``n_docs``, ``sum_dl``,
    ``n_buckets``) — the two corpus scalars BM25 scoring needs (N and
    avgdl = sum_dl/N), and the bucket count lookups hash tokens with.
    ``sum_dl`` is recovered from the written index itself (sum of ``tf``
    over all postings rows == total token occurrences) via a tf-only
    column-pruned read-back, so the corpus is never scanned twice;
    ``n_docs`` is ``ds.count()`` (metadata-cheap on a parquet read)."""
    import json
    import shutil

    import ray

    out = pathlib.Path(out_dir)
    done = out / "_DONE"
    if done.exists():
        return str(out)
    tmp = out.with_name(out.name + "._building")
    shutil.rmtree(tmp, ignore_errors=True)
    # a corpus with no tokens writes no bucket: the directory must exist
    # for the sidecar and the rename
    tmp.mkdir(parents=True)
    n_docs = ds.count()
    rows = ds.map_batches(
        postings_batch(text_col, doc_col, n_buckets), batch_format="pyarrow"
    )
    rows.write_parquet(str(tmp), partition_cols=["bucket"])
    sum_dl = 0
    if any(tmp.glob("bucket=*")):
        sum_dl = ray.data.read_parquet(str(tmp), columns=["tf"]).sum("tf") or 0
    (tmp / "_STATS").write_text(
        json.dumps({"n_docs": int(n_docs), "sum_dl": int(sum_dl), "n_buckets": n_buckets})
    )
    (tmp / "_DONE").write_bytes(b"")
    if out.exists():  # stale partial build (no _DONE): replace it
        shutil.rmtree(out)
    tmp.rename(out)
    return str(out)


def lookup_token(index_dir: str, token: str, doc_col: str = "doc_id"):
    """Postings for one token: reads ONLY the token's ``bucket=K``
    directory (1/n_buckets of the index).  Returns a Dataset of
    ``(doc_col, tf)``.  A bucket directory that does not exist (token
    hashes to an empty bucket) yields an empty result."""
    import json

    import ray

    n_buckets = json.loads((pathlib.Path(index_dir) / "_STATS").read_text())["n_buckets"]
    bucket_dir = pathlib.Path(index_dir) / f"bucket={token_bucket(token, n_buckets)}"
    if not bucket_dir.exists():
        return ray.data.from_arrow(
            pa.table(
                {doc_col: pa.array([], pa.int64()), "tf": pa.array([], pa.int64())}
            )
        )

    def _filter(b: pa.Table) -> pa.Table:
        keep = b.filter(pc.equal(b.column("token"), token))
        return keep.select([doc_col, "tf"])

    return ray.data.read_parquet(str(bucket_dir)).map_batches(
        _filter, batch_format="pyarrow"
    )


def _bm25_contrib(
    batch: pa.Table, idf_ref, doc_col: str, k1: float, b: float, avgdl: float
) -> pa.Table:
    """Task UDF: each candidate posting's integer BM25 contribution."""
    import numpy as np

    if len(batch) == 0:
        return pa.table(
            {doc_col: pa.array([], pa.int64()), "contrib": pa.array([], pa.int64())}
        )
    idf = resolve(idf_ref)
    idf_arr = np.array(
        [idf[t] for t in batch.column("token").to_pylist()], dtype=np.float64
    )
    tf = batch.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
    dl = batch.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
    contrib = np.floor(
        1000000.0
        * idf_arr
        * (tf * (k1 + 1.0))
        / (tf + k1 * (1.0 - b + b * (dl / avgdl)))
    ).astype(np.int64)
    return pa.table(
        {doc_col: batch.column(doc_col), "contrib": pa.array(contrib, pa.int64())}
    )


def bm25_topk(
    index_dir: str,
    query: str,
    k: int = 10,
    doc_col: str = "doc_id",
    k1: float = 1.25,
    b: float = 0.75,
):
    """BM25 ranked retrieval over the bucket-partitioned postings index:
    top-``k`` documents for ``query``, scored with Robertson/Okapi BM25
    (Robertson & Zaragoza 2009, "The Probabilistic Relevance Framework").

    Returns a Dataset of ``(doc_col, score_micro, rnk)``, ranked
    ``score_micro DESC, doc_id ASC``.

    Scale shape (100 TB):

      1. **read pruning** — only the bucket directories the query's
         distinct tokens hash to are read (``|q|`` of ``n_buckets`` dirs,
         exactly like :func:`lookup_token`), then filtered to the query
         tokens;
      2. **no corpus join** — document length rides ON the postings row
         (``dl``, denormalized at build time) and the two corpus scalars
         (N, sum_dl) come from the ``_STATS`` sidecar, so scoring touches
         nothing but the pruned postings;
      3. **df from the candidates themselves** — a token's global df IS
         its postings-row count, so the per-token df groupby runs over
         the already-pruned rows and reduces to ``|q|`` driver rows;
      4. the only exchange is the final ``groupby(doc).sum`` over
         candidate rows (bounded by the query terms' postings), then
         ``sort().limit(k)`` on the scored candidates.

    Scores are integer fixed-point to keep ranking oracle-exact: each
    term contributes ``floor(1e6 * idf * (tf*(k1+1)) / (tf + k1*(1 - b +
    b*(dl/avgdl))))`` micro-units with ``idf = ln((N - df + 0.5)/(df +
    0.5) + 1)``, and the per-document score is the exact integer sum of
    per-term contributions — the same expression a DuckDB oracle
    evaluates in the same double-precision order.  The default ``k1`` is
    1.25 (not the textbook 1.2) deliberately: 1.25, 0.75, 0.25 and 2.25
    are exact dyadic doubles, so the SQL literal and the Python constant
    are the SAME float64 and the floor boundary cannot shift by the
    one-ulp difference a non-representable constant like 1.2+1.0 vs the
    literal 2.2 can introduce."""
    import json
    import math

    import ray
    from ray.data.aggregate import Count, Sum

    terms = sorted(
        {t for t in TOKEN_SPLIT_PATTERN_split(query) if t}
    )
    empty = pa.table(
        {
            doc_col: pa.array([], pa.int64()),
            "score_micro": pa.array([], pa.int64()),
            "rnk": pa.array([], pa.int64()),
        }
    )
    stats_path = pathlib.Path(index_dir) / "_STATS"
    if not terms or not stats_path.exists():
        return ray.data.from_arrow(empty)
    stats = json.loads(stats_path.read_text())
    n_docs, sum_dl, n_buckets = stats["n_docs"], stats["sum_dl"], stats["n_buckets"]
    if n_docs == 0:
        return ray.data.from_arrow(empty)
    avgdl = float(sum_dl) / float(n_docs)

    dirs = sorted(
        {
            str(pathlib.Path(index_dir) / f"bucket={token_bucket(t, n_buckets)}")
            for t in terms
        }
    )
    # ray.data.read_parquet expands ONE directory but not a list of them;
    # list the bucket files explicitly (still reads only |q| buckets)
    files = sorted(
        str(f)
        for d in dirs
        if pathlib.Path(d).exists()
        for f in pathlib.Path(d).glob("*.parquet")
    )
    if not files:
        return ray.data.from_arrow(empty)
    dirs = files
    term_set = pa.array(terms, pa.string())

    def _cand(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.is_in(batch.column("token"), value_set=term_set))
        return keep.select(["token", doc_col, "tf", "dl"])

    # materialize the pruned candidates once: both the df count and the
    # scoring pass consume them (no second bucket read; spillable blocks)
    cands = ray.data.read_parquet(dirs).map_batches(
        _cand, batch_format="pyarrow"
    ).materialize()
    # a token's global df == its postings-row count; |q| rows to driver
    df_rows = cands.groupby("token").aggregate(Count()).take_all()
    df_map = {r["token"]: int(r["count()"]) for r in df_rows}
    idf = {
        t: math.log((n_docs - df_map[t] + 0.5) / (df_map[t] + 0.5) + 1.0)
        for t in df_map
    }
    scored = (
        cands.map_batches(
            _bm25_contrib,
            fn_kwargs={
                "idf_ref": ray.put(idf),
                "doc_col": doc_col,
                "k1": k1,
                "b": b,
                "avgdl": avgdl,
            },
            batch_format="pyarrow",
        )
        .groupby(doc_col)
        .aggregate(Sum("contrib", alias_name="score_micro"))
        .sort(["score_micro", doc_col], descending=[True, False])
        .limit(k)
    )

    def _rank(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                doc_col: pc.cast(batch.column(doc_col), pa.int64()),
                "score_micro": pc.cast(batch.column("score_micro"), pa.int64()),
                "rnk": pa.array(range(1, len(batch) + 1), pa.int64()),
            }
        )

    # k rows at most past the limit — the repartition(1) is on the RESULT,
    # and batch_size=None makes the single block one batch so rnk is global
    return scored.repartition(1).map_batches(
        _rank, batch_size=None, batch_format="pyarrow"
    )


def TOKEN_SPLIT_PATTERN_split(text: str) -> list[str]:
    """Driver-side twin of the corpus tokenizer (lowercase, split on
    ``[^a-z]+``) for query strings."""
    import re

    return re.split(TOKEN_SPLIT_PATTERN, text.lower())
