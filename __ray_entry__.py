"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module; nothing
here (or in fuzi_rd) calls ``ray.init``/``ray.shutdown``.

``entry``    — flagship extraction pipeline on a deterministic t1-scale page
               table plus a quality pass over sf0.001 documents.
``queries``  — one callable per implemented operator/pipeline (SURVEY.md §2
               and the training-data operator set); each takes sf_dir.
``oracle_sql`` — DuckDB-equivalent SQL for every SQL-expressible query
               (identical column names; integer/rounded outputs so value
               hashes are exact).  Non-SQL-expressible ops (heuristic
               lang-id, MinHash/SimHash/LSH, extraction, media stubs) are
               intentionally absent -> driver records rows-only checks.
"""

from __future__ import annotations

import pathlib
from collections.abc import Callable
from typing import Any

_PAGE_ROWS = {"sf0.001": 200, "sf0.01": 1000, "sf0.1": 5000}


def _pages_dir_for(sf_dir: str) -> str:
    """Deterministic page-table fixture sized by scale tier (the web-page
    input table is synthesized, per BASELINE.json input_hint)."""
    from fuzi_rd.sources.pages import write_pages_parquet

    tier = pathlib.Path(sf_dir).name or "sf0.01"
    n = _PAGE_ROWS.get(tier, 1000)
    out = f"/tmp/fuzi_rd_pages_{tier}_{n}"
    write_pages_parquet(out, n, rows_per_file=max(n // 8, 50))
    return out


def _read(sf_dir: str, table: str, columns=None):
    import ray

    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _scaled_i64(col, scale: int):
    """float column -> int64 in fixed-point units (cents / milli).

    DuckDB's ``round()`` rounds ties away from zero while pyarrow's default
    is half-to-even; ``half_towards_infinity`` matches DuckDB so a value
    landing exactly on .5 after scaling can't diverge from the oracle."""
    import pyarrow as pa
    import pyarrow.compute as pc

    scaled = pc.multiply(col, scale) if scale != 1 else col
    return pc.cast(
        pc.round(scaled, round_mode="half_towards_infinity"), pa.int64()
    )


# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship: read pages -> density extraction -> partitioned write with
    lineage manifests; returns the extracted Dataset."""
    import shutil

    from fuzi_rd.pipelines.extraction import run_extraction

    sf_dir = "/root/testdata/sf0.001"
    pages = _pages_dir_for(sf_dir)
    out = "/tmp/fuzi_rd_entry_out"
    shutil.rmtree(out, ignore_errors=True)
    run_extraction(pages, out, num_parts=16, resume=False, batch_size=16)

    # exercise the documents table from the requested sf tier as well
    import ray

    from fuzi_rd.functions.textstats import quality_batch

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    _ = docs.map_batches(quality_batch, batch_format="pyarrow").count()

    return ray.data.read_parquet(out)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def _q_doc_token_stats(sf_dir: str):
    from fuzi_rd.functions.textstats import token_stats_batch

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        token_stats_batch, batch_format="pyarrow"
    )


def _q_doc_quality(sf_dir: str):
    from fuzi_rd.functions.textstats import quality_batch

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        quality_batch, batch_format="pyarrow"
    )


def _q_doc_fingerprint(sf_dir: str):
    from fuzi_rd.functions.textstats import fingerprint_batch

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow"
    )


def _q_dedup_exact(sf_dir: str):
    import pyarrow as pa

    from fuzi_rd.functions.dedup import exact_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = exact_dedup(ds)

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["text_hash", "doc_id"])

    return out.map_batches(rename, batch_format="pyarrow")


def _q_dedup_keep(sf_dir: str):
    """Filter form of exact dedup: the cleaned corpus itself (first doc per
    distinct text)."""
    from fuzi_rd.functions.dedup import exact_dedup_keep

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_dedup_keep(ds)


def _q_cross_corpus_keep(sf_dir: str):
    """Incremental-crawl dedup: the documents table anti-joined on exact
    text digest against a 'previous crawl' reference corpus (every third
    document) — the recurring production pass where each new crawl is
    deduplicated against everything already kept.  Both sides reduce to
    32-char digests in map_batches; one hash-partitioned left_anti join,
    nothing on the driver."""
    from fuzi_rd.functions.dedup import cross_corpus_dedup_keep

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    # reference corpus = every third document (deterministic subset;
    # pyarrow has no modulo kernel, so the mask comes from numpy)
    def _every_third(b):
        import numpy as np
        import pyarrow as pa

        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 3 == 0))

    ref = ds.map_batches(_every_third, batch_format="pyarrow")
    return cross_corpus_dedup_keep(ds, ref).select_columns(["doc_id"])


def _q_bloom_xcorpus_keep(sf_dir: str):
    """The Bloom-prefiltered form of cross_corpus_keep — EXACTLY the same
    output (same oracle), but the reference corpus is reduced to one
    broadcast bitmap and only bloom-positive candidates enter the
    anti-join exchange.  This is the 100 TB shape: definitely-new pages
    never leave their map task."""
    from fuzi_rd.functions.dedup import bloom_cross_corpus_keep

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _every_third(b):
        import numpy as np
        import pyarrow as pa

        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 3 == 0))

    ref = ds.map_batches(_every_third, batch_format="pyarrow")
    return bloom_cross_corpus_keep(ds, ref).select_columns(["doc_id"])


def _q_vocab_topk(sf_dir: str):
    """Corpus vocabulary heavy hitters: global term frequencies with a
    per-batch value_counts combiner (only (token, partial) pairs shuffle),
    then top-100 with a deterministic freq-desc/token-asc tiebreak."""
    from fuzi_rd.functions.vocab import vocab_topk

    ds = _read(sf_dir, "documents", columns=["text"])
    return vocab_topk(ds, k=100)


def _q_token_df(sf_dir: str):
    """Document frequency per token (the IDF half of TF-IDF): per-document
    unique inside map_batches is the combiner — only (token, partial)
    integers shuffle, never per-occurrence rows."""
    from fuzi_rd.functions.vocab import token_df

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return token_df(ds)


def _q_distinct_tokens(sf_dir: str):
    """HyperLogLog distinct-token estimate: the whole corpus reduces to one
    16 KiB register array (per-block accumulate + elementwise-max merge in
    Dataset.aggregate); the driver never sees a key (rows-only; ~0.8%
    standard error by construction, bound pinned by pytest)."""
    import pyarrow as pa

    from fuzi_rd.functions.vocab import approx_distinct

    ds = _read(sf_dir, "documents", columns=["text"])
    est = approx_distinct(ds, "text", split_tokens=True)
    return pa.table({"approx_distinct_tokens": pa.array([est], pa.int64())})


def _q_tfidf_topk(sf_dir: str):
    """Top-5 TF-IDF terms per document: document frequencies fit via the
    token_df combiner, idf map broadcast once via ray.put, per-doc scoring
    and ranking local to each task (at most k rows per doc emitted).
    Integer milli-nat scores make ranking and oracle exact."""
    from fuzi_rd.functions.vocab import tfidf_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return tfidf_topk(ds, k=5)


def _q_length_quantiles(sf_dir: str):
    """Exact document-length quantiles via a distributed histogram
    reduction (only the bounded (distinct-length, count) table reaches the
    driver); matches DuckDB quantile_disc rank semantics."""
    from fuzi_rd.functions.vocab import length_quantiles

    ds = _read(sf_dir, "documents", columns=["text"])
    return length_quantiles(ds)


def _q_dup_spans(sf_dir: str):
    """Substring-level dedup: every (doc_id, tok_start) whose 10-token
    window also occurs in another document.  Windows reduce to fixed-width
    rolling double fingerprints in map_batches; only 32-byte rows shuffle —
    window text never crosses the wire."""
    from fuzi_rd.functions.spans import duplicate_spans

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return duplicate_spans(ds, w=10, max_bucket=None)


def _q_crawl_diff(sf_dir: str):
    """Snapshot diff between two crawls: added/removed/changed/same per
    key.  Both sides reduce to (key, digest) in map_batches (text never
    enters the exchange), then one full_outer hash join classifies every
    URL.  Snapshots are derived deterministically from the documents
    table: old = doc_id%3!=2, new = doc_id%3!=0 with ' v2' appended for
    doc_id%5==0."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fuzi_rd.functions.diff import crawl_diff

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _mk(drop_mod3, mutate: bool):
        def _f(b: pa.Table) -> pa.Table:
            import numpy as np

            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            out = b.filter(pa.array(ids % 3 != drop_mod3))
            text = pc.coalesce(out.column("text"), "")
            if mutate:
                ids2 = out.column("doc_id").to_numpy(zero_copy_only=False)
                m5 = pa.array(ids2 % 5 == 0)
                text = pc.if_else(
                    m5, pc.binary_join_element_wise(text, " v2", ""), text
                )
            return pa.table({"doc_id": out.column("doc_id"), "text": text})

        return _f

    old = ds.map_batches(_mk(2, False), batch_format="pyarrow")
    new = ds.map_batches(_mk(0, True), batch_format="pyarrow")
    return crawl_diff(old, new, key_col="doc_id")


def _q_doc_split(sf_dir: str):
    """Deterministic train/val/test assignment (~90/5/5 by md5 first byte):
    a pure function of doc_id, so no document can migrate between splits
    across runs, engines, or re-shards.  One map_batches, no shuffle."""
    from fuzi_rd.functions.sampling import split_assign

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return split_assign(ds)


def _q_dup_span_scrub(sf_dir: str):
    """Removal form of dup_spans: tokens covered by any cross-document
    10-token window are dropped from EVERY document (C4-style boilerplate
    removal); output is (doc_id, clean_text) for all documents.  The span
    list joins back by doc_id — fixed-width rows on the exchange."""
    from fuzi_rd.functions.spans import duplicate_span_scrub

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return duplicate_span_scrub(ds, w=10)


def _q_quality_keep(sf_dir: str):
    """Filter form of the quality gate: only documents passing the integer
    thresholds survive."""
    import pyarrow as pa

    from fuzi_rd.functions.textstats import quality_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def keep(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch)
        return batch.filter(q.column("quality_ok"))

    return ds.map_batches(keep, batch_format="pyarrow")


def _q_lang_counts(sf_dir: str):
    import pyarrow as pa

    ds = _read(sf_dir, "documents", columns=["lang"])
    out = ds.groupby("lang").count()

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["lang", "n_docs"])

    return out.map_batches(rename, batch_format="pyarrow")


def _q_events_rollup(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def to_milli(batch: pa.Table) -> pa.Table:
        # exact integer aggregation: milli-units summed as int64 so the
        # result is bit-identical to the SQL oracle regardless of order
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "value_milli": _scaled_i64(batch.column("value"), 1000),
            }
        )

    out = (
        ds.map_batches(to_milli, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Count(), Sum("value_milli"))
    )

    def post(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "n_events": pc.cast(batch.column("count()"), pa.int64()),
                "total_value_milli": pc.cast(
                    batch.column("sum(value_milli)"), pa.int64()
                ),
            }
        )

    return out.map_batches(post, batch_format="pyarrow")


def _q_q1_lineitem(sf_dir: str):
    """TPC-H Q1-flavored wide aggregate with driver-friendly naming.
    Pre-aggregation happens inside Ray's hash aggregate; outputs rounded."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    ds = _read(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def to_int(batch: pa.Table) -> pa.Table:
        # integer pre-aggregation units (qty whole, price in cents) so sums
        # are exact and order-independent
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty": _scaled_i64(batch.column("l_quantity"), 1),
                "price_cents": _scaled_i64(batch.column("l_extendedprice"), 100),
            }
        )

    out = (
        ds.map_batches(to_int, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("qty"), Sum("price_cents"), Count())
    )

    def post(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": pc.cast(batch.column("sum(qty)"), pa.int64()),
                "sum_base_price_cents": pc.cast(
                    batch.column("sum(price_cents)"), pa.int64()
                ),
                "count_order": pc.cast(batch.column("count()"), pa.int64()),
            }
        )

    return out.map_batches(post, batch_format="pyarrow")


def _q_orders_by_nation(sf_dir: str):
    """Broadcast-join pipeline: orders -> customer -> nation (both small
    sides ray.put once), then a tiny groupby on nation name."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count, Sum

    from fuzi_rd.functions.relational import broadcast_join

    customer = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "price_cents": _scaled_i64(batch.column("o_totalprice"), 100),
            }
        )

    joined = broadcast_join(
        orders.map_batches(to_cents, batch_format="pyarrow"),
        customer.rename_columns(["o_custkey", "c_nationkey"]),
        "o_custkey",
        ["c_nationkey"],
    )
    joined = broadcast_join(
        joined,
        nation.rename_columns(["c_nationkey", "n_name"]),
        "c_nationkey",
        ["n_name"],
    )
    out = joined.groupby("n_name").aggregate(Count(), Sum("price_cents"))

    def post(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": batch.column("n_name"),
                "n_orders": pc.cast(batch.column("count()"), pa.int64()),
                "total_price_cents": pc.cast(
                    batch.column("sum(price_cents)"), pa.int64()
                ),
            }
        )

    return out.map_batches(post, batch_format="pyarrow")


def _q_sim_topk(sf_dir: str):
    """Exact cosine top-10 against the vec_id=0 embedding."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from fuzi_rd.functions.simsearch import brute_force_topk

    tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    q = tbl.filter(pc.equal(tbl.column("vec_id"), 0))
    query = q.column("embedding").to_pylist()[0]
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    rows = brute_force_topk(ds, query, k=10)
    return pa.table(
        {
            "rank": pa.array([r["rank"] for r in rows], pa.int64()),
            "vec_id": pa.array([r["vec_id"] for r in rows], pa.int64()),
            "sim": pa.array([round(r["sim"], 4) for r in rows], pa.float64()),
        }
    )


def _q_ngram_jaccard(sf_dir: str):
    """Inverted-index word-3-gram Jaccard pairs >= 0.5 (exact integer
    arithmetic, matches the SQL oracle bit-for-bit; df_cap=None keeps the
    exact semantics the oracle needs — production uses the default cap)."""
    from fuzi_rd.functions.dedup import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, n=3, threshold_milli=500, df_cap=None)


def _q_emb_near_dup(sf_dir: str):
    """Exact all-pairs cosine near-duplicates (broadcast matrix + per-batch
    matmul).  Threshold 0.45 chosen to be non-trivial on the synthetic
    embeddings (max pairwise sim ~0.51).  The explicit max_rows makes the
    driver-side-baseline contract visible at the call site; corpus-scale
    callers use embedding_near_dup_lsh."""
    from fuzi_rd.functions.dedup import embedding_near_dup

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_near_dup(ds, threshold=0.45, max_rows=100_000)


def _q_semantic_dedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): k-means-bucketed semantic dedup over
    the embeddings table — sample-fit centroids broadcast once, per-batch
    assignment, per-cluster all-pairs cosine + union-find keeper choice
    (keep the member least similar to its centroid).  Threshold 0.45 is
    non-trivial on the synthetic embeddings (max pairwise sim ~0.51), so
    both keep outcomes occur.  Rows-only (iterative k-means, no SQL);
    keeper semantics pinned by the numpy-reference test."""
    from fuzi_rd.functions.dedup import semantic_dedup

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return semantic_dedup(ds, n_clusters=8, threshold=0.45)


def _q_mixture_sample(sf_dir: str):
    """Token-budget mixture sampling (the data-mixing step: per-source
    token budgets -> deterministic document subset).  Two-stage broadcast:
    one fixed-width (source, bucket) token-sum groupby, per-source bucket
    cumsum + cutoff on the driver, cutoffs broadcast, row-local filter —
    text never crosses an exchange.  Budget 700 of ~1300 tokens/source at
    sf0.01, so every source keeps a strict non-empty subset."""
    from fuzi_rd.functions.sampling import mixture_token_sample

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])
    return mixture_token_sample(ds, budgets=700).select_columns(
        ["doc_id", "source", "n_tokens"]
    )


def _q_train_shards(sf_dir: str):
    """Deterministic shuffle-to-shards assignment (the final global
    shuffle + shard step before training): shard and shuffle rank are
    pure md5 functions of (seed, doc_id) in DuckDB's md5_number_upper/
    lower semantics, so no all-to-all random_shuffle is needed and the
    oracle checks the permutation bit for bit.  One map_batches, no
    exchange; the partitioned writer twin is pinned by pytest."""
    from fuzi_rd.functions.packing import shard_assign

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return shard_assign(ds, n_shards=16, seed=1)


def _q_doc_repetition(sf_dir: str):
    """Within-document n-gram repetition fraction (Gopher-style quality
    signal), exact milli units."""
    from fuzi_rd.functions.textstats import repetition_batch

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        repetition_batch, batch_format="pyarrow"
    )


def _q_doc_pii_counts(sf_dir: str):
    """Email/URL pattern counts per document (vectorized regex kernels —
    the cheap pre-filter before an expensive PII-scrub pass)."""
    from fuzi_rd.functions.textstats import pii_counts_batch

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        pii_counts_batch, batch_format="pyarrow"
    )


def _q_pii_scrub(sf_dir: str):
    """Email/URL redaction per document — two vectorized regexp_replace
    kernels (the scrub pass a production pipeline runs after the cheap
    pii-count pre-filter)."""
    from fuzi_rd.functions.textstats import pii_scrub_batch

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        pii_scrub_batch, batch_format="pyarrow"
    )


def _q_doc_normalize(sf_dir: str):
    """Canonical text normalization (NFC + whitespace collapse + trim) —
    the pass run before hashing/dedup so encoding variants of the same
    prose collapse to identical bytes."""
    from fuzi_rd.functions.textstats import normalize_text_batch

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        normalize_text_batch, batch_format="pyarrow"
    )


def _q_stopword_stats(sf_dir: str):
    """Stopword counts + exact milli ratio per document (Gopher-style
    fluency signal) — one vectorized regex count, integer arithmetic."""
    from fuzi_rd.functions.textstats import stopword_stats_batch

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        stopword_stats_batch, batch_format="pyarrow"
    )


def _q_url_normalize(sf_dir: str):
    """URL canonicalization (fragment / utm params / authority case /
    trailing slash).  The sf tables carry no urls, so both engines build
    the SAME deterministic url per document (4 case branches covering
    every normalization rule) and the oracle checks the normalizer's
    output byte-for-byte."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fuzi_rd.functions.urltools import normalize_urls

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    suffixes = [
        "?utm_source=feed",
        "?utm_campaign=x&page=2#section-3",
        "/?a=1&utm_medium=email&b=2",
        "/",
    ]

    def build_and_norm(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id")
        sid = pc.cast(did, pa.string())
        base = pc.binary_join_element_wise(
            "HTTPS://WWW.Example.COM/Docs/",
            batch.column("source"),
            "/",
            sid,
            "",
        )
        branch = pc.bit_wise_and(did, 3)  # doc_id % 4
        suffix = pc.if_else(
            pc.equal(branch, 0),
            suffixes[0],
            pc.if_else(
                pc.equal(branch, 1),
                suffixes[1],
                pc.if_else(pc.equal(branch, 2), suffixes[2], suffixes[3]),
            ),
        )
        url = pc.binary_join_element_wise(base, suffix, "")
        return pa.table(
            {"doc_id": did, "url_norm": normalize_urls(url)}
        )

    return ds.map_batches(build_and_norm, batch_format="pyarrow")


def _doc_messy_url_batch(batch):
    """Deterministic per-document MESSY url exercising every rule of the
    dedup-grade canonicalizer (urltools.canonicalize_urls).  Documents are
    PAIRED: docs 2k and 2k+1 spell the SAME page two ways — the even
    member carries the mess (upper-case scheme/host, explicit default
    port, tracking params, fragment), the odd member the plain spelling —
    so url_dedup must collapse every pair (keeper = the even doc_id,
    n_dups = 2), proving exactly the dims canonicalization erases.
    Reproduced verbatim by the url_canonical / url_dedup oracles (the sf
    tables carry no urls)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    did = batch.column("doc_id")
    q = pc.divide(did, 2)  # pair id

    def mod(base, n):
        return pc.subtract(base, pc.multiply(pc.divide(base, n), n))

    parity = mod(did, 2)
    even = pc.equal(parity, 0)
    q3, q4, q5, q7 = mod(q, 3), mod(q, 4), mod(q, 5), mod(q, 7)
    q10, q11, q13, q23, q50 = (
        mod(q, 10),
        mod(q, 11),
        mod(q, 13),
        mod(q, 23),
        mod(q, 50),
    )
    is_http = pc.equal(q13, 0)
    scheme = pc.if_else(
        is_http,
        pc.if_else(even, "HTTP", "http"),
        pc.if_else(even, "HTTPS", "https"),
    )
    sub = pc.if_else(
        pc.equal(q3, 0),
        "www.",
        pc.if_else(
            pc.equal(q3, 1),
            pc.if_else(even, "News.CDN.", "news.cdn."),
            "",
        ),
    )
    hostword = pc.if_else(even, "Host", "host")
    tld = pc.if_else(
        pc.equal(q5, 0),
        "com",
        pc.if_else(
            pc.equal(q5, 1),
            "co.uk",
            pc.if_else(
                pc.equal(q5, 2),
                "org",
                pc.if_else(pc.equal(q5, 3), "com.au", "io"),
            ),
        ),
    )
    port = pc.if_else(
        pc.equal(q7, 1),
        ":8080",
        pc.if_else(
            even, pc.if_else(is_http, ":80", ":443"), ""
        ),
    )
    path = pc.if_else(
        pc.equal(q11, 0),
        "",
        pc.binary_join_element_wise(
            "/s",
            pc.cast(q10, pa.string()),
            "/p",
            pc.cast(q50, pa.string()),
            "",
        ),
    )
    q10s = pc.cast(q10, pa.string())
    plain_id = pc.binary_join_element_wise("?id=", q10s, "")
    query = pc.if_else(
        pc.equal(q4, 0),
        pc.if_else(
            even,
            pc.binary_join_element_wise("?utm_source=news&id=", q10s, ""),
            plain_id,
        ),
        pc.if_else(
            pc.equal(q4, 1),
            pc.if_else(
                even,
                pc.binary_join_element_wise(
                    "?id=", q10s, "&utm_campaign=x", ""
                ),
                plain_id,
            ),
            pc.if_else(
                pc.equal(q4, 2),
                pc.if_else(even, "?gclid=g&fbclid=f", ""),
                "",
            ),
        ),
    )
    frag = pc.if_else(
        even,
        pc.binary_join_element_wise("#sec", pc.cast(q3, pa.string()), ""),
        "",
    )
    url = pc.binary_join_element_wise(
        scheme,
        "://",
        sub,
        hostword,
        pc.cast(q23, pa.string()),
        ".",
        tld,
        port,
        path,
        query,
        frag,
        "",
    )
    return batch.append_column("url", url)


def _q_url_canonical(sf_dir: str):
    """Dedup-grade URL canonicalization (RFC 3986 §6.2.2-6.2.3 shape:
    fragment strip, prefix case, default-port drop, tracking-param
    families with order-preserving query rebuild, ensure-path) — the
    stricter tier URL-LEVEL dedup keys on, vs the join-key normalizer of
    ``url_normalize``.  Pure per-batch Arrow kernels, no exchange; the
    oracle replays the same 6-step chain in SQL byte-for-byte."""
    import pyarrow as pa

    from fuzi_rd.functions.urltools import url_canonical_batch

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def build_and_canon(batch: pa.Table) -> pa.Table:
        return url_canonical_batch(_doc_messy_url_batch(batch)).select(
            ["doc_id", "url", "canon_url"]
        )

    return ds.map_batches(build_and_canon, batch_format="pyarrow")


def _q_url_dedup(sf_dir: str):
    """URL-level dedup report: canonicalize per batch (no exchange), then
    ONE groupby over the canonical key carrying only (canon_url, doc_id)
    pairs — the exact-content-dedup plan shape with the URL as the
    digest.  This is the cheapest dedup tier a crawl corpus runs (key
    only, no page bytes; RefinedWeb runs it before any content hashing).
    Keeper = min doc_id per canonical URL, plus the duplicate count."""
    import pyarrow as pa

    from fuzi_rd.functions.urltools import url_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    with_urls = ds.map_batches(_doc_messy_url_batch, batch_format="pyarrow")
    return url_dedup(with_urls, col="url", id_col="doc_id")


def _q_paragraph_dedup(sf_dir: str):
    """Sub-document exact dedup (C4-style): the sf docs have no paragraph
    breaks, so both engines build the SAME two-paragraph corpus — every
    document prefixed with one of 4 shared boilerplate paragraphs — and
    dedup keeps each distinct paragraph's first (doc_id, para_idx)
    occurrence, reassembling survivors in order."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fuzi_rd.functions.dedup import paragraph_dedup_keep

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def build(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id")
        variant = pc.cast(pc.bit_wise_and(did, 3), pa.string())
        full = pc.binary_join_element_wise(
            "Shared boilerplate paragraph variant ",
            variant,
            "\n\n",
            batch.column("text"),
            "",
        )
        return pa.table({"doc_id": did, "text": full})

    return paragraph_dedup_keep(ds.map_batches(build, batch_format="pyarrow"))


def _q_doc_chunks(sf_dir: str):
    """Token-window chunking (size 128, disjoint) — the LLM-pipeline
    pre-tokenization step as a streaming row-expanding map_batches."""
    from fuzi_rd.functions.textstats import chunk_batch

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        chunk_batch(size=128), batch_format="pyarrow"
    )


def _q_source_rollup(sf_dir: str):
    """Per-source corpus stats: doc count + total chars (exact integers)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "documents", columns=["source", "n_chars"])
    out = ds.groupby("source").aggregate(Count(), Sum("n_chars"))

    def post(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "source": batch.column("source"),
                "n_docs": pc.cast(batch.column("count()"), pa.int64()),
                "total_chars": pc.cast(batch.column("sum(n_chars)"), pa.int64()),
            }
        )

    return out.map_batches(post, batch_format="pyarrow")


def _q_length_outliers(sf_dir: str):
    """Robust per-source outlier flags: |n_chars - median| * 1000 >
    3000 * MAD within the source — integer arithmetic end to end, two
    bounded histogram exchanges + scalar broadcasts, row-local flagging
    (fuzi_rd/functions/vocab.py mad_outliers)."""
    from fuzi_rd.functions.vocab import mad_outliers

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])
    return mad_outliers(ds, key_col="source", value_col="n_chars")


def _q_weighted_sample(sf_dir: str):
    """Weighted sampling without replacement (Efraimidis-Spirakis key
    rule, deterministic md5 uniforms, integer micro keys): 100 documents
    drawn proportional to length.  Row-local keys + block-local top-k, so
    the only exchange is a k*n_blocks-row sort."""
    from fuzi_rd.functions.sampling import weighted_sample_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return weighted_sample_topk(ds, k=100, weight_col="n_chars", seed=0)


def _q_doc_sample(sf_dir: str):
    """Deterministic hash sampling: keep ~10% of documents by md5(doc_id)
    bucket — reproducible corpus sampling with NO shuffle and no RNG state
    (the same doc set survives across runs/engines, unlike random_sample)."""
    import hashlib

    import pyarrow as pa

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def keep(batch: pa.Table) -> pa.Table:
        mask = pa.array(
            [
                hashlib.md5(str(d).encode()).digest()[0] < 26  # 26/256 ~ 10%
                for d in batch.column("doc_id").to_pylist()
            ],
            pa.bool_(),
        )
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


def _q_docs_top_longest(sf_dir: str):
    """Sort + top-k over documents by length (deterministic tiebreak)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def lens(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": pc.cast(
                    pc.utf8_length(batch.column("text")), pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(lens, batch_format="pyarrow")
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(10)
    )


def _q_events_hourly(sf_dir: str):
    """Tumbling 1-hour window aggregate (epoch-hour bucket, exact integer
    milli-units) — the streaming-window analog expressed as a batch groupby."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def bucket(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64())  # timestamp[us] -> int64
        return pa.table(
            {
                "hour_bucket": pc.divide(us, 3_600_000_000),
                "event_type": batch.column("event_type"),
                "value_milli": _scaled_i64(batch.column("value"), 1000),
            }
        )

    out = (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby(["hour_bucket", "event_type"])
        .aggregate(Count(), Sum("value_milli"))
    )

    def post(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "hour_bucket": batch.column("hour_bucket"),
                "event_type": batch.column("event_type"),
                "n_events": pc.cast(batch.column("count()"), pa.int64()),
                "total_value_milli": pc.cast(
                    batch.column("sum(value_milli)"), pa.int64()
                ),
            }
        )

    return out.map_batches(post, batch_format="pyarrow")


def _q_events_hopping(sf_dir: str):
    """Hopping (sliding) window aggregate: 1-hour windows advancing every
    15 minutes — each event row-expands to its 4 covering windows inside
    map_batches (vectorized repeat+tile), then one groupby on the int64
    window start.  Integer milli values keep the sum order-independent."""
    from fuzi_rd.functions.windows import hopping_counts

    ds = _read(sf_dir, "events", columns=["ts", "value"])
    return hopping_counts(
        ds, size_us=3_600_000_000, step_us=900_000_000, value_col="value"
    )


def _q_referential_qa(sf_dir: str):
    """Referential-integrity QA report: orphan-row counts for the four
    foreign keys of the relational tier (lineitem->orders,
    orders->customer, customer->nation, supplier->nation) — the data-card
    check that catches a broken ingestion join upstream.  Each check is a
    distributed hash anti-join on the key (no driver key set); each
    result reduces to ONE count row, so the report is four tiny
    aggregates unioned."""
    import pyarrow as pa

    from fuzi_rd.functions.dedup import anti_join

    checks = [
        ("lineitem_orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("orders_customer", "orders", "o_custkey", "customer", "c_custkey"),
        ("customer_nation", "customer", "c_nationkey", "nation", "n_nationkey"),
        ("supplier_nation", "supplier", "s_nationkey", "nation", "n_nationkey"),
    ]
    # build all four plans sequentially (read_parquet's lazy fsspec import
    # is not thread-safe), then drive the four independent counts
    # concurrently — each .count() blocks its thread, not the cluster
    plans = []
    for name, child, fk, parent, pk in checks:
        c = _read(sf_dir, child, columns=[fk])
        # the parent key side stays a plain read, so the join's key type
        # comes from its parquet schema without running either side
        p = _read(sf_dir, parent, columns=[pk])
        # join partitions sized to the child table's parquet row-count
        # metadata (free), not the CPU count — the nation-keyed checks
        # would otherwise pay a 32-partition shuffle for 15k rows
        parts = max(1, min(32, c.count() // 65536 + 1))

        def _rn(b: pa.Table, fk=fk, pk=pk) -> pa.Table:
            return pa.table({pk: b.column(fk)})

        plans.append(
            (
                name,
                anti_join(
                    c.map_batches(_rn, batch_format="pyarrow"),
                    p,
                    pk,
                    num_partitions=parts,
                ),
            )
        )

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(plans)) as ex:
        outs = list(
            ex.map(lambda nd: (nd[0], int(nd[1].count())), plans)
        )
    return pa.table(
        {
            "check": pa.array([c for c, _ in outs], pa.string()),
            "n_orphans": pa.array([n for _, n in outs], pa.int64()),
        }
    )


def _q_value_histogram(sf_dir: str):
    """Fixed-width histogram of event values (50-unit bins, integer milli
    edges): bin assignment row-local, one bounded groupby with count+sum
    partials — the profiling aggregate a curation report starts from."""
    from fuzi_rd.functions.relational import fixed_width_histogram

    ds = _read(sf_dir, "events", columns=["value"])
    return fixed_width_histogram(ds, "value", bin_milli=50_000)


def _q_user_sessions(sf_dir: str):
    """Gap-based session windows (30-min inactivity gap) per user — the
    streaming session-window analog as one hash shuffle + vectorized
    per-group assignment."""
    from fuzi_rd.functions.windows import sessionize

    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    return sessionize(ds, key="user_id", ts="ts", gap_us=30 * 60 * 1_000_000)


def _q_rolling_events(sf_dir: str):
    """Per-event rolling frame + LAG: for every event, the count and
    exact-milli value sum of the user's events in the trailing hour
    (SQL RANGE frame incl. same-ts peers) and the gap to the user's
    previous event (SQL LAG; null first).  One hash exchange; per-group
    searchsorted/cumsum — no window row-expansion."""
    from fuzi_rd.functions.windows import rolling_per_key

    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])
    return rolling_per_key(
        ds, key="user_id", ts="ts", window_us=3600 * 1_000_000, value_col="value"
    )


def _q_purchase_attribution(sf_dir: str):
    """As-of join: each purchase event attached to the user's latest
    signup event at-or-before it (backward inequality join Ray Data
    lacks; implemented as tagged-union groupby + searchsorted)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fuzi_rd.functions.relational import asof_join

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])

    def _only(kind):
        def f(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pc.equal(batch.column("event_type"), kind)
            ).select(["event_id", "ts", "user_id"])

        return f

    purchases = ev.map_batches(_only("purchase"), batch_format="pyarrow")
    signups = ev.map_batches(_only("signup"), batch_format="pyarrow")
    joined = asof_join(
        purchases,
        signups,
        key="user_id",
        ts="ts",
        left_cols=["event_id", "ts"],
        right_cols=["event_id", "ts"],
        right_suffix="_signup",
    )

    def post(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "signup_event_id": batch.column("event_id_signup"),
                "lag_us": pc.subtract(
                    pc.cast(batch.column("ts"), pa.int64()),
                    pc.cast(batch.column("ts_signup"), pa.int64()),
                ),
            }
        )

    return joined.map_batches(post, batch_format="pyarrow")


def _q_value_bands(sf_dir: str):
    """Broadcast range join: classify each event's value into a half-open
    band [lo, hi), then roll up per band (count + exact milli sum)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from fuzi_rd.functions.relational import interval_join

    bands = pa.table(
        {
            "band": pa.array(["neg", "low", "mid", "high", "huge"]),
            "lo": pa.array([-1e18, 0.0, 50.0, 100.0, 200.0], pa.float64()),
            "hi": pa.array([0.0, 50.0, 100.0, 200.0, 1e18], pa.float64()),
        }
    )
    ds = _read(sf_dir, "events", columns=["value"])
    labeled = interval_join(ds, bands, "value", "lo", "hi", ["band"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "band": batch.column("band"),
                "value_milli": _scaled_i64(batch.column("value"), 1000),
            }
        )

    out = (
        labeled.map_batches(prep, batch_format="pyarrow")
        .groupby("band")
        .aggregate(Count(), Sum("value_milli"))
    )

    def post(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "band": batch.column("band"),
                "n_events": pc.cast(batch.column("count()"), pa.int64()),
                "total_value_milli": pc.cast(
                    batch.column("sum(value_milli)"), pa.int64()
                ),
            }
        )

    return out.map_batches(post, batch_format="pyarrow")


def _q_top_orders_per_status(sf_dir: str):
    """Per-group top-k: 3 highest-value orders per order status
    (groupby().map_groups with an in-group sort; deterministic tiebreak)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_orderstatus", "o_totalprice"]
    )

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "o_orderstatus": batch.column("o_orderstatus"),
                "price_cents": _scaled_i64(batch.column("o_totalprice"), 100),
            }
        )

    def top3(group: pa.Table) -> pa.Table:
        srt = group.sort_by(
            [("price_cents", "descending"), ("o_orderkey", "ascending")]
        ).slice(0, 3)
        ranks = pa.array(range(1, len(srt) + 1), pa.int64())
        return srt.append_column("rank", ranks)

    return (
        ds.map_batches(to_cents, batch_format="pyarrow")
        .groupby("o_orderstatus")
        .map_groups(top3, batch_format="pyarrow")
    )


def _q_parts_by_brand(sf_dir: str):
    """Multi-aggregate groupby: count / sum / min / max per brand."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Max, Min, Sum

    ds = _read(sf_dir, "part", columns=["p_brand", "p_retailprice", "p_size"])

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": batch.column("p_brand"),
                "price_cents": _scaled_i64(batch.column("p_retailprice"), 100),
                "p_size": pc.cast(batch.column("p_size"), pa.int64()),
            }
        )

    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("p_brand")
        .aggregate(Count(), Sum("price_cents"), Min("p_size"), Max("p_size"))
    )

    def post(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": batch.column("p_brand"),
                "n_parts": pc.cast(batch.column("count()"), pa.int64()),
                "total_price_cents": pc.cast(
                    batch.column("sum(price_cents)"), pa.int64()
                ),
                "min_size": pc.cast(batch.column("min(p_size)"), pa.int64()),
                "max_size": pc.cast(batch.column("max(p_size)"), pa.int64()),
            }
        )

    return out.map_batches(post, batch_format="pyarrow")


# -- rows-only checks (non-SQL-expressible) ---------------------------------


def _q_doc_lang_id(sf_dir: str):
    from fuzi_rd.functions.textstats import lang_id_batch

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        lang_id_batch, batch_format="pyarrow"
    )


def _q_minhash_bands(sf_dir: str):
    from fuzi_rd.functions.dedup import _minhash_batch

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        _minhash_batch, batch_format="pyarrow"
    )


def _q_minhash_dedup(sf_dir: str):
    """Near-dup cluster assignment as a Dataset (doc_id, cluster_rep) — the
    whole job, including the returned assignment, stays distributed."""
    import pyarrow as pa

    from fuzi_rd.functions.dedup import minhash_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    labels = minhash_dedup(ds, threshold=0.8)

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["doc_id", "cluster_rep"])

    return labels.map_batches(rename, batch_format="pyarrow")


def _q_minhash_keep(sf_dir: str):
    """Filter form of near-dup removal: documents with near-duplicates
    dropped (min-id representative survives per cluster) via a
    hash-partitioned anti-join — no driver-side winner set."""
    from fuzi_rd.functions.dedup import minhash_keep

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_keep(ds, threshold=0.8)


def _lsh_index_dir(sf_dir: str) -> str:
    """Where ``lsh_serving_lookup`` keeps its index of a tier's documents
    (v2 layout: ``_DONE`` records the build's parameters)."""
    return f"/tmp/fuzi_rd_lsh_idx_v2_{pathlib.Path(sf_dir).name or 'sf'}"


def _q_lsh_serving_lookup(sf_dir: str):
    """MinHash-LSH SERVING path: the corpus is signed once into a
    persisted two-artifact index (band rows hive-partitioned by
    band-hash bucket, signatures by doc-id bucket), then an incremental
    query set is answered by reading ONLY the band buckets the queries
    hash into + the signature buckets of the surviving candidates —
    never the whole artifact (functions/lsh_index.py).  Queries here are
    a deterministic corpus slice (doc_id % 97 == 0), so each reports
    itself at n_agree=64 plus any true near-dups.  Rows-only (minhash
    permutations are not SQL-expressible); the exact-set brute-force
    twin is pinned in tests/test_lsh_index.py."""
    import pyarrow.compute as pc

    from fuzi_rd.functions.lsh_index import build_lsh_index, lsh_lookup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    idx = build_lsh_index(ds, _lsh_index_dir(sf_dir))

    def _queries(b):
        ids = b.column("doc_id")
        keep = b.filter(
            pc.equal(pc.subtract(ids, pc.multiply(pc.divide(ids, 97), 97)), 0)
        )
        return keep.rename_columns(["query_id", "text"])

    q = ds.map_batches(_queries, batch_format="pyarrow")
    out = lsh_lookup(idx, q, threshold=0.8)
    return out.sort(["query_id", "doc_id"])


def _q_simhash_pairs(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    from fuzi_rd.functions.dedup import simhash_near_pairs

    return simhash_near_pairs(ds, max_hamming=3)


def _q_ivf_topk(sf_dir: str):
    """ANN via IVF coarse quantizer (k-means buckets, nprobe scan) — the
    scale path alongside the LSH variant (rows-only: approximate)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fuzi_rd.functions.simsearch import ivf_topk

    tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    query = tbl.column("embedding").to_pylist()[0]
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    rows = ivf_topk(ds, query, k=10, n_centroids=16, nprobe=4)
    return pa.table(
        {
            "rank": pa.array([r["rank"] for r in rows], pa.int64()),
            "vec_id": pa.array([r["vec_id"] for r in rows], pa.int64()),
            "sim": pa.array([round(r["sim"], 4) for r in rows], pa.float64()),
        }
    )


def _q_lsh_topk(sf_dir: str):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fuzi_rd.functions.simsearch import lsh_topk

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet")
    query = tbl.column("embedding").to_pylist()[0]
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    rows = lsh_topk(ds, query, k=10)
    return pa.table(
        {
            "rank": pa.array([r["rank"] for r in rows], pa.int64()),
            "vec_id": pa.array([r["vec_id"] for r in rows], pa.int64()),
            "sim": pa.array([round(r["sim"], 4) for r in rows], pa.float64()),
        }
    )


def _q_extract_pages(sf_dir: str):
    """The flagship operator: density extraction over the synthesized page
    table (rows-only driver check; byte-identity is enforced by pytest)."""
    import ray

    from fuzi_rd.pipelines.extraction import extract_dataset

    pages = _pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    out = extract_dataset(ds, batch_size=16)
    return out.select_columns(
        ["url", "part", "title", "text_len", "text_hash", "status"]
    )


def _q_page_links(sf_dir: str):
    """Outlink extraction over the synthesized page table: task-UDF parse
    (C kernel + fallback), arena flat-scan for anchors, <base href>-aware
    resolution, row-expanding (src_url, dst_url, anchor, nofollow) output —
    the crawl-frontier / webgraph feed (rows-only; HTML parse has no SQL)."""
    import ray

    from fuzi_rd.stages.links import extract_links_dataset

    pages = _pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    return extract_links_dataset(ds, batch_size=16)


def _meta_pages_dir_for(sf_dir: str) -> str:
    """Deterministic metadata-rich page fixture (head metadata: description,
    canonical mirror groups, og: fields, robots directives)."""
    from fuzi_rd.sources.pages import write_meta_pages_parquet

    tier = pathlib.Path(sf_dir).name or "sf0.01"
    n = max(_PAGE_ROWS.get(tier, 1000) // 2, 200)
    out = f"/tmp/fuzi_rd_meta_pages_{tier}_{n}"
    write_meta_pages_parquet(out, n, rows_per_file=max(n // 8, 50))
    return out


def _q_incremental_extract(sf_dir: str):
    """Incremental-crawl extraction: two snapshots derived deterministically
    from the page fixture (old = seq%3!=2; new = seq%3!=0, mutated html for
    seq%5==0); unchanged pages reuse the previous run's rows, added/changed
    pages flow through the extractor; the union is returned (rows-only; the
    result ≡ from-scratch extraction invariant is pinned by
    tests/test_incremental.py)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from fuzi_rd.pipelines.extraction import extract_dataset
    from fuzi_rd.pipelines.incremental import incremental_extract

    pages = _pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])

    def _mk(drop_mod3: int, mutate: bool):
        def _f(b: pa.Table) -> pa.Table:
            import numpy as np

            # seq = the zero-padded tail of the fixture url
            seqs = np.array(
                [int(u.rsplit("/", 1)[1]) for u in b.column("url").to_pylist()],
                np.int64,
            )
            out = b.filter(pa.array(seqs % 3 != drop_mod3))
            if mutate:
                urls = out.column("url").to_pylist()
                htmls = out.column("html").to_pylist()
                htmls = [
                    h + b"<p>crawl-2 update</p>"
                    if int(u.rsplit("/", 1)[1]) % 5 == 0
                    else h
                    for u, h in zip(urls, htmls)
                ]
                out = pa.table(
                    {
                        "url": out.column("url"),
                        "html": pa.array(htmls, pa.binary()),
                    }
                )
            return out

        return _f

    old_pages = ds.map_batches(_mk(2, False), batch_format="pyarrow")
    new_pages = ds.map_batches(_mk(0, True), batch_format="pyarrow")
    prev_extracted = extract_dataset(old_pages, batch_size=16).materialize()
    result, _classes = incremental_extract(
        old_pages,
        new_pages,
        prev_extracted,
        extract=lambda d: extract_dataset(d, batch_size=16),
    )
    return result.select_columns(
        ["url", "part", "title", "text_len", "text_hash", "status"]
    )


def _q_page_markdown(sf_dir: str):
    """HTML -> Markdown conversion over the synthesized page table: one
    task-UDF parse + recursion-free arena render per page (headings,
    lists, links, code fences, tables), one row out per page, no shuffle
    (rows-only; structure rendering has no SQL; goldens in pytest)."""
    import ray

    from fuzi_rd.stages.markdown import markdown_dataset

    pages = _pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    return markdown_dataset(ds, batch_size=16)


def _q_page_tables(sf_dir: str):
    """HTML table extraction (structured data from the crawl): one row per
    table CELL with (table_idx, row_idx, col_idx) grid coordinates plus
    header/span flags — one task-UDF parse + bounded preorder arena scan
    per page, hard caps on tables/rows/cells, no shuffle (rows-only; HTML
    parse has no SQL)."""
    import ray

    from fuzi_rd.stages.tables import extract_tables_dataset

    pages = _pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    return extract_tables_dataset(ds, batch_size=16)


def _q_page_metadata(sf_dir: str):
    """Head-metadata extraction: title, meta description, canonical URL,
    lang, robots directives, og: fields — one task-UDF parse + bounded
    arena scan per page, one fixed-width row out, no shuffle (rows-only;
    HTML parse has no SQL)."""
    import ray

    from fuzi_rd.stages.metadata import extract_metadata_dataset

    pages = _meta_pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    return extract_metadata_dataset(ds, batch_size=16)


def _q_canonical_keep(sf_dir: str):
    """URL-level mirror dedup BEFORE content hashing: one winner per
    canonical URL (min url), winners semi-joined back onto the page table —
    head metadata only, document text never compared (rows-only)."""
    import ray

    from fuzi_rd.stages.metadata import canonical_dedup_keep

    pages = _meta_pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    return canonical_dedup_keep(ds).select_columns(["url"])


def _q_link_graph(sf_dir: str):
    """Domain-level webgraph rollup: the page outlink edge list reduced to
    (src_domain, dst_domain, n_links) — vectorized host/domain extraction,
    one groupby exchange on the domain pair (rows-only)."""
    import pyarrow as pa
    import ray

    from fuzi_rd.stages.links import extract_links_dataset, link_graph

    pages = _pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    graph = link_graph(extract_links_dataset(ds, batch_size=16))

    def _rename(b: pa.Table) -> pa.Table:
        return b.rename_columns(["src_domain", "dst_domain", "n_links"])

    return graph.map_batches(_rename, batch_format="pyarrow")


def _q_anchor_rollup(sf_dir: str):
    """Anchor-text rollup: what the web calls each destination domain —
    (dst_domain, anchor, n_links) for anchors used ≥2 times, normalized
    inside map_batches, one groupby on the capped (domain, anchor) pair
    (rows-only; HTML parse)."""
    import ray

    from fuzi_rd.stages.links import anchor_text_rollup, extract_links_dataset

    pages = _pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    return anchor_text_rollup(extract_links_dataset(ds, batch_size=16))


def _q_domain_pagerank(sf_dir: str):
    """PageRank over the domain webgraph — power iteration as a dataset
    job (per-iteration hash join + groupby on fixed-size (node, rank)
    rows); the curation quality prior.  Rows-only (iterative algorithm,
    no SQL)."""
    import pyarrow as pa
    import ray

    from fuzi_rd.functions.graph import pagerank
    from fuzi_rd.stages.links import extract_links_dataset, link_graph

    pages = _pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    graph = link_graph(extract_links_dataset(ds, batch_size=16))

    def _std(b: pa.Table) -> pa.Table:
        return b.rename_columns(["src", "dst", "w"])

    edges = graph.map_batches(_std, batch_format="pyarrow")
    return pagerank(edges, weight_col="w", n_iter=5)


def _q_domain_components(sf_dir: str):
    """Weakly-connected components of the domain webgraph (mirror-cluster
    / site-family discovery — the grouping a canonical-host dedup keys
    on): domains hash to stable int64 ids, pointer-jumping min-label CC
    over the edge list (O(log L) rounds, the same machinery as the
    minhash cluster step), labels join back to names.  Rows-only
    (iterative algorithm, no SQL); component semantics numpy-pinned."""
    import pyarrow as pa
    import ray

    from fuzi_rd.functions.graph import domain_components
    from fuzi_rd.stages.links import extract_links_dataset, link_graph

    pages = _pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    graph = link_graph(extract_links_dataset(ds, batch_size=16))
    return domain_components(graph)


def _q_corpus_webgraph(sf_dir: str):
    """The fused corpus+webgraph job: ONE extraction parse per page emits
    the training text AND the resolved outlinks (``emit_links``, same
    fusion as markdown/metadata); the domain webgraph and its connected
    components are derived from the fused links column with ZERO further
    HTML parses (plan-shape + edge byte-identity pinned in
    tests/test_links.py).  This is how a 100 TB job gets its webgraph —
    as a by-product of the parse the corpus job already pays for, not a
    second pass over the crawl.  Rows-only (iterative CC, no SQL)."""
    import ray

    from fuzi_rd.functions.graph import domain_components
    from fuzi_rd.pipelines.extraction import extract_dataset
    from fuzi_rd.stages.links import link_graph, links_from_extracted

    pages = _pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    extracted = extract_dataset(ds, batch_size=64, emit_links=True)
    graph = link_graph(links_from_extracted(extracted))
    return domain_components(graph)


def _q_feeds_xpath(sf_dir: str):
    """Namespaced XPath queries over an Atom-flavored XML corpus — the XML
    twin of the extraction pipeline (reference parity surface: XPath with
    registered prefixes, Sources/Document.swift:162-175)."""
    import ray

    from fuzi_rd.stages.xml_query import query_xml_dataset, synth_feed_table

    return query_xml_dataset(
        ray.data.from_arrow(synth_feed_table(300)),
        recipe={
            "feed_title": "/a:feed/a:title",
            "entry_titles": "//a:entry/a:title",
            "n_entries": "count(//a:entry)",
            "first_creator": "string(//dc:creator)",
        },
        prefixes={
            "a": "http://www.w3.org/2005/Atom",
            "dc": "http://purl.org/dc/elements/1.1/",
        },
    )


def _q_corpus_pipeline(sf_dir: str):
    """The composed crawl-to-corpus pipeline: extract -> clean/annotate ->
    quality gate -> exact dedup on extracted text (rows-only; every piece
    is individually oracle-verified)."""
    import ray

    from fuzi_rd.pipelines.corpus import corpus_dataset

    pages = _pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    out = corpus_dataset(ds, batch_size=64)
    return out.select_columns(
        ["url", "part", "title", "text_len", "lang_guess", "content_hash"]
    )


def _q_corpus_training_ready(sf_dir: str):
    """The one-pass training-ready corpus (VERDICT r3 item 9): the composed
    corpus pipeline with the opt-in markdown + head-metadata columns fused
    into the extraction tasks — text, structure-preserving markdown
    and curation metadata from a SINGLE parse per page (rows-only;
    byte-identity vs the standalone stages is pinned by pytest)."""
    import ray

    from fuzi_rd.pipelines.corpus import corpus_dataset

    pages = _pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    out = corpus_dataset(ds, batch_size=64, emit_markdown=True, emit_metadata=True)
    return out.select_columns(
        [
            "url", "part", "title", "text_len", "lang_guess", "content_hash",
            "markdown", "meta_title", "canonical_url", "meta_lang",
            "robots_noindex", "og_title",
        ]
    )


def _q_corpus_job(sf_dir: str):
    """The job form of the corpus pipeline (run_corpus): extract -> clean ->
    shared-storage checkpoint under the output dir -> global exact dedup ->
    partitioned write with per-part lineage manifests; the returned dataset
    is the READ-BACK of the written partitions (exercises the full
    write/manifest/read path the resumable 100 TB job uses)."""
    import pathlib
    import shutil

    import ray

    from fuzi_rd.pipelines.corpus import run_corpus

    pages = _pages_dir_for(sf_dir)
    tier = pathlib.Path(sf_dir).name or "sf"
    out = f"/tmp/fuzi_rd_corpus_job_{tier}"
    shutil.rmtree(out, ignore_errors=True)
    run_corpus(pages, out, num_parts=32, batch_size=64, resume=False)
    return ray.data.read_parquet(
        out, columns=["url", "title", "text_len", "lang_guess", "content_hash"]
    )


def _q_embedding_clusters(sf_dir: str):
    """Corpus clustering (cluster-balanced sampling / topic bucketing):
    deterministic k-means on a bounded driver-side sample, centroids
    broadcast once, per-batch nearest-centroid assignment (vectorized
    matmul) — the same build as the IVF index, surfaced as a first-class
    clustering operator.  Rows-only (iterative algorithm, no SQL)."""
    from fuzi_rd.functions.simsearch import build_ivf_assignments

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    _cents, assigned = build_ivf_assignments(ds, n_centroids=8)
    return assigned.select_columns(["vec_id", "bucket"])


def _q_postings_lookup(sf_dir: str):
    """Inverted-index build + bucket-pruned lookup: postings written as
    parquet PARTITIONED by token-hash bucket (hive layout), then one
    token's postings read from exactly ONE bucket directory — file-level
    read pruning, the index analog of partition-pruned resume.  The
    lookup result is oracle-checkable: (doc_id, tf) for the query token
    equals a DuckDB per-document count."""
    import pathlib

    from fuzi_rd.functions.postings import build_postings, lookup_token

    tier = pathlib.Path(sf_dir).name or "sf"
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    # v3 layout: postings rows carry dl + a _STATS sidecar (BM25 support)
    # that records the build's n_buckets
    idx = build_postings(ds, f"/tmp/fuzi_rd_postings_v3_{tier}")
    return lookup_token(idx, "the")


def _q_bm25_topk(sf_dir: str):
    """BM25 ranked retrieval over the bucket-partitioned postings index:
    top-10 docs for a fixed 3-term query.  Reads ONLY the query tokens'
    bucket dirs; document length rides on the postings row and the two
    corpus scalars come from the index's _STATS sidecar, so scoring never
    joins back to the corpus.  Integer micro fixed-point scores keep the
    ranking oracle-exact (see functions/postings.py:bm25_topk)."""
    import pathlib

    from fuzi_rd.functions.postings import bm25_topk, build_postings

    tier = pathlib.Path(sf_dir).name or "sf"
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    idx = build_postings(ds, f"/tmp/fuzi_rd_postings_v3_{tier}")
    return bm25_topk(idx, "hash join merge", k=10)


def _q_cms_counts(sf_dir: str):
    """Count-Min sketch watchlist counting: corpus reduces to ONE
    (depth x width) counter matrix via accumulate + elementwise-add tree
    merge in Dataset.aggregate — no vocabulary-sized exchange, fixed
    512 KiB state at any corpus size.  Estimates never undershoot; the
    e/width overshoot bound is pinned against exact counts in
    tests/test_training_prep.py.  Rows-only (sketch, no SQL)."""
    from fuzi_rd.functions.vocab import cms_token_counts

    ds = _read(sf_dir, "documents", columns=["text"])
    watch = ["the", "and", "data", "model", "qzx"]  # incl. an absent token
    return cms_token_counts(ds, watch)


def _q_sitemap_ingest(sf_dir: str):
    """Sitemap ingestion (crawl-frontier seeding): the synthesized page
    table is sharded into sitemaps.org <urlset> XML files (alternating
    plain/gzip) plus an index; one Ray read task per file parses with the
    engine's recovering XML parser and emits fixed-width url rows.
    Rows-only (XML parse, no SQL)."""
    import pathlib

    import ray

    from fuzi_rd.sources.sitemap import (
        read_sitemap_dataset,
        write_sitemaps_from_pages,
    )

    tier = pathlib.Path(sf_dir).name or "sf"
    pages = _pages_dir_for(sf_dir)
    sm_dir = write_sitemaps_from_pages(
        pages, f"/tmp/fuzi_rd_sitemaps_{tier}"
    )
    return read_sitemap_dataset(sm_dir)


def _q_frontier_urls(sf_dir: str):
    """Composed crawl-frontier builder: sitemap locs (discovery) minus
    already-crawled urls (every 3rd page, deterministic) via one
    ``anti_join`` on url-only rows — the seeding step before fetch.
    Rows-only (pipeline composition)."""
    import pathlib

    import pyarrow as pa

    import ray

    from fuzi_rd.sources.sitemap import (
        read_sitemap_dataset,
        write_sitemaps_from_pages,
    )

    tier = pathlib.Path(sf_dir).name or "sf"
    pages = _pages_dir_for(sf_dir)
    sm_dir = write_sitemaps_from_pages(pages, f"/tmp/fuzi_rd_sitemaps_{tier}")

    def _locs(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = b.filter(pc.invert(b.column("is_index")))
        return pa.table({"url": keep.column("loc")})

    discovered = read_sitemap_dataset(sm_dir).map_batches(
        _locs, batch_format="pyarrow"
    )

    def _crawled(b: pa.Table) -> pa.Table:
        import numpy as np

        seqs = np.array(
            [int(u.rsplit("/", 1)[1]) for u in b.column("url").to_pylist()],
            np.int64,
        )
        return pa.table({"url": b.column("url").filter(pa.array(seqs % 3 == 0))})

    crawled = (
        ray.data.read_parquet(pages, columns=["url"])
        .map_batches(_crawled, batch_format="pyarrow")
    )
    from fuzi_rd.functions.dedup import _compact, anti_join

    return anti_join(_compact(discovered), _compact(crawled), "url", 8)


def _q_embedding_outliers(sf_dir: str):
    """Embedding-space outlier detection (junk/off-distribution tail):
    distance to the nearest k-means centroid, per-batch partial top-n,
    tiny final sort+limit — only batches x n fixed-width rows cross the
    exchange.  Rows-only (iterative k-means, no SQL)."""
    from fuzi_rd.functions.simsearch import embedding_outliers

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_outliers(ds, n_centroids=8, top_n=25)


_ROBOTS_POLICY = """
User-agent: megacrawler
Disallow: /

User-agent: *
Disallow: /src3/
Disallow: /src7/
Allow: /src7/1
Disallow: /*8$
"""


def _q_robots_filter(sf_dir: str):
    """Crawl-permission filter: per-host robots.txt policies (RFC 9309
    longest-match semantics incl. wildcard + $ anchor) broadcast once,
    urls filtered batch-locally.  The fixed policy exercises precedence:
    Allow /src7/1 (len 7) overrides Disallow /src7/ (len 6) overrides
    Disallow /*8$ (len 4); the oracle re-derives the same decisions with
    CASE/LIKE algebra."""
    from fuzi_rd.functions.robots import robots_keep

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    with_urls = ds.map_batches(_doc_url_batch, batch_format="pyarrow")
    hosts = [
        f"{sub}host{k}.{tld}"
        for sub in ("", "www.", "news.cdn.")
        for k in range(23)
        for tld in ("com", "co.uk", "org", "com.au", "io")
    ]
    kept = robots_keep(
        with_urls, policies={h: _ROBOTS_POLICY for h in hosts}, agent="fuzi"
    )
    return kept.select_columns(["doc_id", "source"])


def _q_events_json_rollup(sf_dir: str):
    """Semi-structured extraction: parse the events.props JSON column
    (stdlib json per row — JSON decode is inherently per-record, same
    situation as hashing), bucket by the extracted key, aggregate count +
    fixed-point value sum.  The extraction happens inside map_batches;
    only (bucket, partials) rows reach the groupby."""
    import json

    import pyarrow as pa
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["props", "value"])

    def extract(batch: pa.Table) -> pa.Table:
        ks = []
        for p in batch.column("props").to_pylist():
            try:
                ks.append(int(json.loads(p or "{}").get("k", -1)))
            except (ValueError, TypeError):
                ks.append(-1)
        return pa.table(
            {
                "k": pa.array(ks, pa.int64()),
                "value_cents": _scaled_i64(batch.column("value"), 100),
            }
        )

    return (
        ds.map_batches(extract, batch_format="pyarrow")
        .groupby("k")
        .aggregate(
            Count(alias_name="n_events"),
            Sum("value_cents", alias_name="sum_value_cents"),
        )
    )


def _q_curation_pipeline(sf_dir: str):
    """Selection pass over the deduplicated corpus (pipelines/curation.py):
    domain + repetition + compression annotation, signal-band gates, and a
    per-language stratified quota — all shuffle-free except the one-row-
    per-stratum quota fit.  Consumes the corpus_job output (checkpointed,
    so the two-pass quota sampling re-reads parquet, not the extractor)."""
    import pathlib

    import ray

    from fuzi_rd.pipelines.corpus import run_corpus
    from fuzi_rd.pipelines.curation import curate_dataset

    pages = _pages_dir_for(sf_dir)
    tier = pathlib.Path(sf_dir).name or "sf"
    out = f"/tmp/fuzi_rd_corpus_job_{tier}"
    if not pathlib.Path(out, "_manifests").is_dir():
        run_corpus(pages, out, num_parts=32, batch_size=64, resume=False)
    corpus = ray.data.read_parquet(out, columns=["url", "extracted_text", "lang_guess"])
    curated = curate_dataset(corpus, cap=40)
    return curated.select_columns(
        ["url", "lang_guess", "domain", "compress_milli", "dup_ngram_milli"]
    )


def _q_media_decode(sf_dir: str):
    import ray

    from fuzi_rd.functions.multimodal import DecodeImage, synth_media_table

    ds = ray.data.from_arrow(synth_media_table(200))
    return ds.map_batches(
        DecodeImage(), batch_size=8, batch_format="pyarrow"
    )


def _q_media_features(sf_dir: str):
    import ray

    from fuzi_rd.functions.multimodal import ExtractFeatures, synth_media_table

    ds = ray.data.from_arrow(synth_media_table(200))
    return ds.map_batches(
        ExtractFeatures(), batch_size=8, batch_format="pyarrow"
    )


def _q_media_resize(sf_dir: str):
    import ray

    from fuzi_rd.functions.multimodal import ResizeImage, synth_media_table

    ds = ray.data.from_arrow(synth_media_table(200))
    return ds.map_batches(
        ResizeImage(), batch_size=8, batch_format="pyarrow"
    )


def _q_media_frames(sf_dir: str):
    """Row-expanding frame sampler (video payload -> one row per frame)."""
    import ray

    from fuzi_rd.functions.multimodal import SampleFrames, synth_media_table

    ds = ray.data.from_arrow(synth_media_table(200))
    return ds.map_batches(
        SampleFrames(), batch_size=8, batch_format="pyarrow"
    )


def _q_emb_near_dup_lsh(sf_dir: str):
    """Approximate near-dup pairs via hyperplane-signature bucketing (the
    corpus-scale path; recall < 1 by construction -> rows-only check)."""
    from fuzi_rd.functions.dedup import embedding_near_dup_lsh

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    # 4 planes: the synthetic embeddings have no true near-duplicates (max
    # pairwise cosine ~0.51), so a coarse bucketing is needed for the
    # candidate demo; production near-dup (sim >= 0.9) uses 12+ planes
    return embedding_near_dup_lsh(ds, threshold=0.40, n_planes=4)


def _q_pages_css_query(sf_dir: str):
    """Fuzi-parity query surface as a pipeline: per-page CSS and XPath
    recipe queries (compiled once per worker process) evaluated over the
    synthesized page table — the distributed analog of
    HTMLDocument.css/xpath/eval
    (reference: /root/reference/Sources/Queryable.swift:28-84)."""
    import ray

    from fuzi_rd.pipelines.extraction import extract_dataset

    pages = _pages_dir_for(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    out = extract_dataset(
        ds,
        recipe={
            "h1_text": "css: h1",
            "nav_links": "css: nav a",
            "n_paragraphs": "count(//p)",
            "first_href": "string(//a/@href)",
        },
        batch_size=64,
    )
    return out.select_columns(
        ["url", "h1_text", "nav_links", "n_paragraphs", "first_href", "status"]
    )


def _q_pdf_extract(sf_dir: str):
    """PDF/layout parse tier: synthesize a deterministic PDF per document
    (sources/pdfs.py — FlateDecode/hex streams, Td/T*/'/Tm layouts, TJ kern
    gaps, corrupted xrefs) and extract the text back with the task-UDF
    PDF stage (stages/pdf_extract.py).  The writer/reader round-trip
    contract (pdf_text(make_pdf(t, seq)) == t) makes this oracle-checkable:
    the extracted text must equal documents.text exactly, and n_pages is a
    closed-form function of the newline count."""
    from fuzi_rd.sources.pdfs import pdfs_from_documents_batch
    from fuzi_rd.stages.pdf_extract import extract_pdfs_dataset

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pdfs = ds.map_batches(pdfs_from_documents_batch, batch_format="pyarrow")
    out = extract_pdfs_dataset(pdfs)
    return out.select_columns(
        ["doc_id", "pdf_text", "n_pages", "text_len", "status"]
    )


def _q_pdf_layout(sf_dir: str):
    """Layout-aware PDF parse: per-page text lines (with their text-matrix
    y) segmented into visual blocks on vertical-gap evidence — one row per
    block with page/y-extent coordinates.  Joining a document's blocks in
    order reproduces its flat pdf_text (structure, not content), pinned by
    tests/test_pdf.py.  Rows-only (layout heuristic, no SQL)."""
    from fuzi_rd.sources.pdfs import pdfs_from_documents_batch
    from fuzi_rd.stages.pdf_extract import pdf_layout_dataset

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pdfs = ds.map_batches(pdfs_from_documents_batch, batch_format="pyarrow")
    return pdf_layout_dataset(pdfs)


def _doc_url_batch(batch):
    """Deterministic per-document url with varied case/subdomain/multi-part
    TLD/port — shared by host_rollup and blocklist_keep, reproduced
    verbatim by their oracles (the sf tables carry no urls)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    did = batch.column("doc_id")

    def mod(n):
        return pc.subtract(did, pc.multiply(pc.divide(did, n), n))

    m3, m5, m7, m23 = mod(3), mod(5), mod(7), mod(23)
    sub = pc.if_else(
        pc.equal(m3, 0),
        "www.",
        pc.if_else(pc.equal(m3, 1), "News.CDN.", ""),
    )
    tld = pc.if_else(
        pc.equal(m5, 0),
        "com",
        pc.if_else(
            pc.equal(m5, 1),
            "co.uk",
            pc.if_else(
                pc.equal(m5, 2),
                "org",
                pc.if_else(pc.equal(m5, 3), "com.au", "io"),
            ),
        ),
    )
    port = pc.if_else(pc.equal(m7, 0), ":8080", "")
    url = pc.binary_join_element_wise(
        "https://",
        sub,
        "Host",
        pc.cast(m23, pa.string()),
        ".",
        tld,
        port,
        "/",
        batch.column("source"),
        "/",
        pc.cast(did, pa.string()),
        "",
    )
    return batch.append_column("url", url)


_DOC_URL_SQL = r"""
              SELECT doc_id, n_chars,
                'https://'
                  || CASE doc_id % 3 WHEN 0 THEN 'www.'
                       WHEN 1 THEN 'News.CDN.' ELSE '' END
                  || 'Host' || CAST(doc_id % 23 AS VARCHAR) || '.'
                  || CASE doc_id % 5 WHEN 0 THEN 'com' WHEN 1 THEN 'co.uk'
                       WHEN 2 THEN 'org' WHEN 3 THEN 'com.au'
                       ELSE 'io' END
                  || CASE WHEN doc_id % 7 = 0 THEN ':8080' ELSE '' END
                  || '/' || source || '/' || CAST(doc_id AS VARCHAR) AS url
              FROM documents
"""

_DOMAIN_SQL = r"""
              SELECT doc_id, n_chars,
                     lower(regexp_extract(url,
                       '^[A-Za-z][A-Za-z0-9+.-]*://(?:[^/?#@]*@)?([^/?#:]+)',
                       1)) AS host,
                     CASE WHEN regexp_matches(
                            lower(regexp_extract(url,
                              '^[A-Za-z][A-Za-z0-9+.-]*://(?:[^/?#@]*@)?([^/?#:]+)',
                              1)),
                            '[^.]+\.(co|com|org|net|ac|gov|edu)\.[A-Za-z]{2}$')
                     THEN regexp_extract(
                            lower(regexp_extract(url,
                              '^[A-Za-z][A-Za-z0-9+.-]*://(?:[^/?#@]*@)?([^/?#:]+)',
                              1)),
                            '([^.]+\.(?:co|com|org|net|ac|gov|edu)\.[A-Za-z]{2})$',
                            1)
                     ELSE regexp_extract(
                            lower(regexp_extract(url,
                              '^[A-Za-z][A-Za-z0-9+.-]*://(?:[^/?#@]*@)?([^/?#:]+)',
                              1)),
                            '([^.]+\.[^.]+)$', 1)
                     END AS domain
              FROM u
"""


def _q_host_rollup(sf_dir: str):
    """Domain-level curation rollup: url -> host -> registered domain
    (vectorized RE2 kernels, heuristic multi-part-TLD handling), then a
    small groupby on the domain key — the aggregation a crawl pipeline
    runs before domain-level sampling/blocking decisions."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from fuzi_rd.functions.urltools import host_stats_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def with_domain(batch: pa.Table) -> pa.Table:
        return host_stats_batch(_doc_url_batch(batch)).select(
            ["domain", "n_chars"]
        )

    out = (
        ds.map_batches(with_domain, batch_format="pyarrow")
        .groupby("domain")
        .aggregate(
            Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars")
        )
    )
    return out


def _q_blocklist_keep(sf_dir: str):
    """Domain blocklist filter: the list ships via ray.put once and each
    task probes it with a vectorized is_in — no shuffle, no join (the
    broadcast-small-side pattern; curation blocklists are ~10k rows)."""
    from fuzi_rd.functions.urltools import domain_blocklist_keep

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])
    with_urls = ds.map_batches(_doc_url_batch, batch_format="pyarrow")
    kept = domain_blocklist_keep(
        with_urls, blocked=["host3.co.uk", "host7.com.au", "host11.com"]
    )
    return kept.select_columns(["doc_id"])


def _q_doc_compress_ratio(sf_dir: str):
    """zlib compression ratio per document (cheap repetitiveness signal;
    rows-only — SQL has no zlib)."""
    from fuzi_rd.functions.textstats import compress_ratio_batch

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        compress_ratio_batch, batch_format="pyarrow"
    )


def _q_domain_sample(sf_dir: str):
    """Stratified per-domain quota sampling (~cap docs per registered
    domain): small groupby fits per-stratum thresholds, thresholds ship
    once via ray.put, the filter pass touches no shuffle.  Deterministic
    md5-byte rule -> exact DuckDB oracle."""
    import pyarrow as pa

    from fuzi_rd.functions.sampling import stratified_sample_keep
    from fuzi_rd.functions.urltools import host_stats_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def with_domain(batch: pa.Table) -> pa.Table:
        return host_stats_batch(_doc_url_batch(batch)).select(
            ["doc_id", "domain"]
        )

    docs = ds.map_batches(with_domain, batch_format="pyarrow")
    return stratified_sample_keep(docs, key_col="domain", cap=2)


def _q_unigram_lm(sf_dir: str):
    """Corpus-fit unigram LM surprisal per document (CCNet-style quality
    signal) — two-stage broadcast pattern: partial counts + small groupby
    fit the model, then the vocabulary ships through the object store ONCE
    and scoring tasks score batches locally.  Integer milli-nat fixed
    point keeps the DuckDB oracle exact."""
    from fuzi_rd.functions.lm_score import unigram_logprob

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    # top_k=None + max_token_chars=None: exact uncapped fit for oracle
    # parity (production defaults cap the broadcast vocabulary and drop
    # degenerate over-long tokens).
    return unigram_logprob(ds, top_k=None, max_token_chars=None)


def _q_bigram_lm(sf_dir: str):
    """Add-one-smoothed corpus bigram surprisal per document — the fluency
    signal one order above unigram_lm (word-order-degenerate text scores
    high here while passing unigram).  Two broadcast fits (unigram +
    bigram combiners, small key groupbys) then one task scoring
    pass; integer milli-nats keep the DuckDB oracle exact."""
    from fuzi_rd.functions.lm_score import bigram_logprob

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bigram_logprob(ds, top_k=None, max_token_chars=None)


def _q_quality_pipeline(sf_dir: str):
    """Multi-stage quality composition, oracle-checked END TO END:
    boilerplate line scrub (corpus-frequency, broadcast set) -> full
    Gopher gate on the SCRUBBED text -> surviving (doc_id, text).  The
    same construction as line_scrub/gopher_gate (3-line docs, stopword
    suffix on every 3rd) so all stages exercise both outcomes.  Scale
    shape: one fixed-width count groupby + one broadcast + two row-local
    passes — document text never crosses an exchange."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fuzi_rd.functions.dedup import line_scrub
    from fuzi_rd.functions.textstats import gopher_gate_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def build(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id")
        v4 = pc.cast(pc.bit_wise_and(did, 3), pa.string())
        v5 = pc.cast(
            pa.array(did.to_numpy(zero_copy_only=False) % 5, pa.int64()),
            pa.string(),
        )
        three = pa.array(
            did.to_numpy(zero_copy_only=False) % 3 == 0, pa.bool_()
        )
        suffix = pc.if_else(three, " of the and that have with.", "")
        full = pc.binary_join_element_wise(
            "Nav menu variant ",
            v4,
            "\n",
            batch.column("text"),
            suffix,
            "\n",
            "Footer links variant ",
            v5,
            "",
        )
        return pa.table({"doc_id": did, "text": full})

    scrubbed = line_scrub(
        ds.map_batches(build, batch_format="pyarrow"), min_docs=3
    )

    def gate(batch: pa.Table) -> pa.Table:
        ok = gopher_gate_batch(batch).column("gopher_ok")
        return batch.filter(pc.fill_null(ok, False))

    return scrubbed.map_batches(gate, batch_format="pyarrow")


def _q_source_quantiles(sf_dir: str):
    """Per-source exact token-count quantiles (the per-domain length
    profile a curation pass thresholds on): grouped_quantiles — per-group
    sorting never happens; ONE fixed-width (source, n_tokens) count
    groupby is the only exchange and the driver holds just that bounded
    histogram.  quantile_disc rank semantics, so DuckDB matches bit for
    bit."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fuzi_rd.functions.vocab import grouped_quantiles

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def tokens(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(pc.fill_null(batch.column("text"), ""))
        n = pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+"))
        n = pc.if_else(
            pc.equal(pc.utf8_length(trimmed), 0), pa.scalar(0, pa.int32()), n
        )
        return pa.table(
            {
                "source": batch.column("source"),
                "n_tokens": pc.cast(n, pa.int64()),
            }
        )

    return grouped_quantiles(
        ds.map_batches(tokens, batch_format="pyarrow"), "source", "n_tokens"
    )


def _q_split_leakage(sf_dir: str):
    """Train/test leakage QA report: exact-text collisions ACROSS the
    deterministic doc_split assignment — digests that appear in more than
    one split, with per-split copy counts (the check a pipeline runs
    after splitting, before shipping an eval set).  The sf texts are all
    unique, so a deterministic build step first adds a shadow copy of
    every doc at doc_id+100000 — the copy draws an independent split
    byte, so ~19% of digests leak across splits and both report outcomes
    are exercised.  Scale shape: one fixed-width (digest, 3 indicator
    ints) groupby; text reduces to 16-byte digests row-locally and the
    report is bounded by the leaking-digest count."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    base = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def shadow(batch: pa.Table) -> pa.Table:
        did = pc.cast(batch.column("doc_id"), pa.int64())
        text = batch.column("text")
        return pa.concat_tables(
            [
                pa.table({"doc_id": did, "text": text}),
                pa.table(
                    {"doc_id": pc.add(did, pa.scalar(100000)), "text": text}
                ),
            ]
        ).combine_chunks()

    ds = base.map_batches(shadow, batch_format="pyarrow")

    def annotate(batch: pa.Table) -> pa.Table:
        digests, tr, va, te = [], [], [], []
        for i, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            digests.append(hashlib.md5((t or "").encode("utf-8")).hexdigest())
            b = hashlib.md5(str(i).encode()).digest()[0]
            tr.append(1 if b < 230 else 0)
            va.append(1 if 230 <= b < 243 else 0)
            te.append(1 if b >= 243 else 0)
        return pa.table(
            {
                "d": pa.array(digests, pa.string()),
                "tr": pa.array(tr, pa.int64()),
                "va": pa.array(va, pa.int64()),
                "te": pa.array(te, pa.int64()),
            }
        )

    agg = (
        ds.map_batches(annotate, batch_format="pyarrow")
        .groupby("d")
        .aggregate(
            Sum("tr", alias_name="n_train"),
            Sum("va", alias_name="n_val"),
            Sum("te", alias_name="n_test"),
        )
    )

    def leaking(batch: pa.Table) -> pa.Table:
        present = pc.add(
            pc.add(
                pc.cast(pc.greater(batch.column("n_train"), 0), pa.int64()),
                pc.cast(pc.greater(batch.column("n_val"), 0), pa.int64()),
            ),
            pc.cast(pc.greater(batch.column("n_test"), 0), pa.int64()),
        )
        return batch.filter(pc.greater(present, 1))

    return agg.map_batches(leaking, batch_format="pyarrow")


def _q_corpus_stats(sf_dir: str):
    """Corpus data-card rollup: ONE row of the headline numbers a dataset
    card reports (docs, sources, languages, token mass, mean doc length,
    empty docs, distinct texts = exact-dup complement).  Scale shape:
    scalar stats ride a per-batch single-row combiner; each distinct
    count is a fixed-width key groupby whose row count (not contents) is
    read — text never crosses an exchange (dup detection uses the same
    16-byte md5 digests as dedup_exact)."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "lang", "text"])

    def scalar_partial(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(pc.fill_null(batch.column("text"), ""))
        n = pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+"))
        empty = pc.equal(pc.utf8_length(trimmed), 0)
        n = pc.if_else(empty, pa.scalar(0, pa.int32()), n)
        return pa.table(
            {
                "n_docs": pa.array([batch.num_rows], pa.int64()),
                "total_tokens": pa.array(
                    [pc.sum(pc.cast(n, pa.int64())).as_py() or 0], pa.int64()
                ),
                "n_empty": pa.array(
                    [pc.sum(pc.cast(empty, pa.int64())).as_py() or 0],
                    pa.int64(),
                ),
            }
        )

    parts = ds.map_batches(scalar_partial, batch_format="pyarrow")
    n_docs = int(parts.sum("n_docs") or 0)
    total_tokens = int(parts.sum("total_tokens") or 0)
    n_empty = int(parts.sum("n_empty") or 0)
    n_sources = ds.groupby("source").count().count()
    n_langs = ds.groupby("lang").count().count()

    def digest(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "d": pa.array(
                    [
                        hashlib.md5((t or "").encode("utf-8")).hexdigest()
                        for t in batch.column("text").to_pylist()
                    ],
                    pa.string(),
                )
            }
        )

    n_distinct = (
        ds.map_batches(digest, batch_format="pyarrow").groupby("d").count().count()
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "n_docs": pa.array([n_docs], pa.int64()),
                "n_sources": pa.array([n_sources], pa.int64()),
                "n_langs": pa.array([n_langs], pa.int64()),
                "total_tokens": pa.array([total_tokens], pa.int64()),
                "mean_doc_tokens": pa.array(
                    [total_tokens // max(n_docs, 1)], pa.int64()
                ),
                "n_empty": pa.array([n_empty], pa.int64()),
                "n_distinct_texts": pa.array([n_distinct], pa.int64()),
            }
        )
    )


def _q_dup_profile(sf_dir: str):
    """Per-source duplication profile (the data-card drill-down of
    corpus_stats: which sources are copy-heavy and how much a dedup pass
    would save): one fixed-width (source, digest) groupby collapses exact
    copies, then a tiny per-source rollup — n_docs, distinct texts, dup
    rows, and duplicated token mass.  Text reduces to 16-byte digests in
    the combiner; nothing else crosses the exchange."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def digest(batch: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(pc.fill_null(batch.column("text"), ""))
        n = pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+"))
        n = pc.if_else(
            pc.equal(pc.utf8_length(trimmed), 0), pa.scalar(0, pa.int32()), n
        )
        return pa.table(
            {
                "source": batch.column("source"),
                "d": pa.array(
                    [
                        hashlib.md5((t or "").encode("utf-8")).hexdigest()
                        for t in batch.column("text").to_pylist()
                    ],
                    pa.string(),
                ),
                "n_tokens": pc.cast(n, pa.int64()),
            }
        )

    per_text = (
        ds.map_batches(digest, batch_format="pyarrow")
        .groupby(["source", "d"])
        .aggregate(Count(), Sum("n_tokens", alias_name="tok"))
    )

    def rollup(batch: pa.Table) -> pa.Table:
        copies = batch.column("count()")
        tok = batch.column("tok")
        extra = pc.subtract(copies, 1)
        # duplicated token mass = (copies-1) * tokens-per-copy
        per_copy = pc.divide(tok, copies)
        return pa.table(
            {
                "source": batch.column("source"),
                "n_docs": pc.cast(copies, pa.int64()),
                "one": pa.array([1] * batch.num_rows, pa.int64()),
                "n_dup_docs": pc.cast(extra, pa.int64()),
                "dup_tokens": pc.cast(pc.multiply(extra, per_copy), pa.int64()),
            }
        )

    return (
        per_text.map_batches(rollup, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("one", alias_name="n_distinct_texts"),
            Sum("n_dup_docs", alias_name="n_dup_docs"),
            Sum("dup_tokens", alias_name="dup_tokens"),
        )
    )


def _q_training_export(sf_dir: str):
    """End-to-end training-export chain, oracle-checked as ONE query:
    token-budget mixture sampling (per-source bucket-prefix subset) ->
    deterministic shuffle-to-shards assignment over the survivors.  The
    composed path from curated corpus to training output; both stages are
    row-local after one fixed-width groupby, so the chain adds no
    exchange beyond mixture_sample's count pass."""
    from fuzi_rd.functions.packing import shard_assign
    from fuzi_rd.functions.sampling import mixture_token_sample

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])
    kept = mixture_token_sample(ds, budgets=700).select_columns(
        ["doc_id", "source", "n_tokens"]
    )
    return shard_assign(kept, n_shards=8, seed=2)


def _q_dsir_weights(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023): weight every document by
    how target-like its hashed unigram+bigram profile is, with the
    English-language subset as the target distribution.  The hashing
    trick bounds BOTH fits to one 8192-entry int64 array regardless of
    corpus size — broadcast once, task scoring, no unbounded
    driver state and no top_k needed.  Buckets follow DuckDB
    md5_number_lower % B exactly, so the oracle is bit-exact."""
    from fuzi_rd.functions.lm_score import dsir_weights

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    target = ds.filter(expr="lang == 'en'")
    return dsir_weights(ds, target, max_token_chars=None)


def _q_c4_filter(sf_dir: str):
    """The published C4 cleaning heuristics (Raffel et al. 2020 §2.2) as
    one vectorized batch pass, oracle-checked END TO END.  The sf docs are
    single-line word soup, so a deterministic build step first shapes each
    into a multi-line page exercising every rule both ways: terminal-punct
    and word-count line drops (doc_id parity / 'Short line'), the
    javascript line drop (doc_id%5), the lorem-ipsum (%11) and curly-brace
    (%13) page drops, and the too-few-surviving-lines page drop (%9).
    Scale shape: row-local Arrow kernels only — no exchange, no state."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from fuzi_rd.functions.textstats import c4_clean_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def build(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id")
        d = did.to_numpy(zero_copy_only=False)

        def mod(k):
            return pa.array(d % k == 0, pa.bool_())

        l3_end = pc.if_else(mod(2), ".", "")
        l4 = pc.if_else(
            mod(5),
            "Enable javascript to view this page.",
            "A perfectly normal sentence appears here!",
        )
        l6 = pc.if_else(
            mod(11),
            "Contains lorem ipsum filler text.",
            "Closing line of the document.",
        )
        l7 = pc.if_else(
            mod(13),
            "var f = function() { return 1; };",
            'He said "It ends with a quote."',
        )
        seven = pc.binary_join_element_wise(
            "This is sentence number ",
            pc.cast(pa.array(d % 7, pa.int64()), pa.string()),
            " of the corpus document.\nShort line\n",
            pc.utf8_slice_codeunits(batch.column("text"), 0, 80),
            l3_end,
            "\n",
            l4,
            "\nIs this really a question?\n",
            l6,
            "\n",
            l7,
            "",
        )
        full = pc.if_else(
            mod(9),
            "no punctuation here at all\nanother line without ending\n"
            "Only one good sentence exists here.",
            seven,
        )
        return pa.table({"doc_id": did, "text": full})

    return ds.map_batches(build, batch_format="pyarrow").map_batches(
        c4_clean_batch, batch_format="pyarrow"
    )


def _q_repetition_profile(sf_dir: str):
    """Gopher Table-A1 repetition signals (dup-line fractions, top-2/3/4-
    gram char fraction, dup-5/10-gram covered-char fraction) — the sf docs
    are single-line, so both engines build the SAME 3-line corpus with
    every 4th document's body line duplicated, exercising the line-repeat
    signals alongside the naturally varying n-gram ones."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fuzi_rd.functions.textstats import repetition_profile_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def build(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id")
        four = pa.array(
            did.to_numpy(zero_copy_only=False) % 4 == 0, pa.bool_()
        )
        last = pc.if_else(four, batch.column("text"), "Footer")
        return pa.table(
            {
                "doc_id": did,
                "text": pc.binary_join_element_wise(
                    "Nav menu\n", batch.column("text"), "\n", last, ""
                ),
            }
        )

    return ds.map_batches(build, batch_format="pyarrow").map_batches(
        repetition_profile_batch, batch_format="pyarrow"
    )


def _q_bpe_tokens(sf_dir: str):
    """Token-count estimation (whitespace + BPE-ish GPT-2-family regex) for
    budget planning — one vectorized RE2 count per doc, no exchange."""
    from fuzi_rd.functions.textstats import bpe_token_count_batch

    return _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        bpe_token_count_batch, batch_format="pyarrow"
    )


def _q_source_quality(sf_dir: str):
    """Per-source corpus quality rollup: docs + Gopher-gate pass count +
    exact milli pass rate — the domain-scoring step that feeds blocklist
    candidates.  Composition: vectorized gate pass -> tiny groupby on the
    source key (fixed-width rows only; text never shuffles)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from fuzi_rd.functions.textstats import gopher_gate_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def _gate(batch: pa.Table) -> pa.Table:
        # same stopword-suffix construction as the gopher_gate query, so
        # the sf word-soup corpus exercises both gate outcomes
        did = batch.column("doc_id")
        three = pa.array(
            did.to_numpy(zero_copy_only=False) % 3 == 0, pa.bool_()
        )
        suffix = pc.if_else(three, " of the and that have with.", "")
        built = pa.table(
            {
                "doc_id": did,
                "text": pc.binary_join_element_wise(
                    batch.column("text"), suffix, ""
                ),
            }
        )
        ok = gopher_gate_batch(built).column("gopher_ok")
        return pa.table(
            {
                "source": batch.column("source"),
                "ok": pc.cast(ok, pa.int64()),
            }
        )

    out = (
        ds.map_batches(_gate, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Count(), Sum("ok", alias_name="n_ok"))
    )

    def _finish(batch: pa.Table) -> pa.Table:
        n = pc.cast(batch.column("count()"), pa.int64())
        n_ok = pc.cast(batch.column("n_ok"), pa.int64())
        return pa.table(
            {
                "source": batch.column("source"),
                "n_docs": n,
                "n_ok": n_ok,
                "ok_milli": pc.divide(pc.multiply(n_ok, 1000), n),
            }
        )

    return out.map_batches(_finish, batch_format="pyarrow")


def _q_gopher_gate(sf_dir: str):
    """The published Gopher/MassiveText quality rule set as one vectorized
    integer-arithmetic pass (no exchange, no state).  The sf word-soup docs
    contain only 'the' from the stopword list, so every third document gets
    a stopword-bearing suffix — both engines build the SAME corpus — making
    all four (word-count x stopword) gate combinations occur."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fuzi_rd.functions.textstats import gopher_gate_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def build(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id")
        three = pa.array(
            did.to_numpy(zero_copy_only=False) % 3 == 0, pa.bool_()
        )
        suffix = pc.if_else(three, " of the and that have with.", "")
        return pa.table(
            {
                "doc_id": did,
                "text": pc.binary_join_element_wise(
                    batch.column("text"), suffix, ""
                ),
            }
        )

    return ds.map_batches(build, batch_format="pyarrow").map_batches(
        gopher_gate_batch, batch_format="pyarrow"
    )


def _q_ppl_buckets(sf_dir: str):
    """CCNet-style perplexity bucketing: per-token unigram surprisal
    quantile thresholds (exact quantile_disc over the integer milli-nat
    signal) split the corpus into head / middle / tail.  The histogram
    reduction bounds the driver table by DISTINCT per-token milli values,
    not corpus rows; assignment is a row-local CASE."""
    from fuzi_rd.functions.lm_score import ppl_buckets

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    # exact uncapped fit for oracle parity (production defaults cap the
    # broadcast vocabulary and drop degenerate over-long tokens)
    return ppl_buckets(ds, top_k=None, max_token_chars=None)


def _q_line_scrub(sf_dir: str):
    """Corpus-frequency boilerplate line removal (RefinedWeb-style): the sf
    docs are single-line, so both engines build the SAME 3-line corpus —
    a nav-menu header (4 variants) and a footer (5 variants) around each
    body — then scrub every line recurring in >= 3 distinct documents
    (headers/footers and any >=3x-duplicated bodies vanish everywhere;
    unique bodies survive)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fuzi_rd.functions.dedup import line_scrub

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def build(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id")
        v4 = pc.cast(pc.bit_wise_and(did, 3), pa.string())
        # Arrow has no modulo kernel; numpy round-trip for doc_id % 5
        v5 = pc.cast(
            pa.array(did.to_numpy(zero_copy_only=False) % 5, pa.int64()),
            pa.string(),
        )
        full = pc.binary_join_element_wise(
            "Nav menu variant ",
            v4,
            "\n",
            batch.column("text"),
            "\n",
            "Footer links variant ",
            v5,
            "",
        )
        return pa.table({"doc_id": did, "text": full})

    return line_scrub(ds.map_batches(build, batch_format="pyarrow"), min_docs=3)


def _q_logodds_score(sf_dir: str):
    """Two-class token log-odds quality classifier (fastText-linear shape):
    fit per-token milli log-odds weights from a bool-labeled corpus
    (per-batch count combiners -> one vocabulary groupby), broadcast the
    weights ONCE via ray.put, score with tasks.  Seed labels here
    are the deterministic doc_id % 7 != 0 split (a stand-in for a curated
    seed set); integer-milli fixed point keeps the DuckDB oracle exact."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from fuzi_rd.functions.lm_score import logodds_score

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def _label(b: pa.Table) -> pa.Table:
        import numpy as np

        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.append_column("is_good", pa.array(ids % 7 != 0))

    labeled = ds.map_batches(_label, batch_format="pyarrow")
    # top_k=None: exact uncapped fit for oracle parity (see unigram_lm)
    return logodds_score(labeled, top_k=None, max_token_chars=None)


def _q_pack_layout(sf_dir: str):
    """Sequence-packing token layout: every document gets a deterministic
    (bin, pack_id, offset) position in fixed-length training sequences —
    one fixed-width-row groupby(bin) shuffle + vectorized per-bin prefix
    sums; text never enters the exchange."""
    from fuzi_rd.functions.packing import pack_layout

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return pack_layout(ds, seq_len=2048, n_bins=16)


def _q_decontam_keep(sf_dir: str):
    """Benchmark decontamination: documents sharing any 8-token window with
    the benchmark corpus (deterministic doc_id % 29 == 0 subset, a stand-in
    for a real eval set) are dropped.  The benchmark reduces to a bounded
    128-bit double-fingerprint array broadcast once; the corpus streams
    through vectorized probe tasks — no shuffle touches text."""
    import pyarrow as pa

    from fuzi_rd.functions.decontam import decontam_keep

    def _bench_only(b: pa.Table) -> pa.Table:
        import numpy as np

        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 29 == 0))

    # independent reads: a shared lazy plan consumed twice re-executes
    # upstream per consumer (and can wedge; see dedup._compact notes)
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    bench = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        _bench_only, batch_format="pyarrow"
    )
    return decontam_keep(ds, bench, w=8)


def _q_warc_ingest(sf_dir: str):
    """Crawl-archive ingestion: documents sharded into WARC segment files
    (sources/warc.py, half per-record-gzip .warc.gz), read back with one
    Ray read task per segment + in-task record expansion (the Common-Crawl
    layout at 100 TB: ~1 GB segments ARE the parallelism unit).  The
    deterministic writer makes the round trip oracle-checkable against
    documents.text."""
    import pathlib

    import pyarrow as pa
    import pyarrow.compute as pc

    from fuzi_rd.sources.warc import (
        DOC_URL_PREFIX,
        read_warc_dataset,
        write_warc_segments_from_documents,
    )

    tier = pathlib.Path(sf_dir).name or "sf"
    seg_dir = write_warc_segments_from_documents(
        f"{sf_dir}/documents.parquet", f"/tmp/fuzi_rd_warc_{tier}"
    )

    def to_docs(batch: pa.Table) -> pa.Table:
        ids = pc.cast(
            pc.utf8_slice_codeunits(
                batch.column("url"), len(DOC_URL_PREFIX), 2**31 - 1
            ),
            pa.int64(),
        )
        return pa.table(
            {
                "doc_id": ids,
                "text": pc.cast(batch.column("payload"), pa.large_string()),
                "n_bytes": pc.cast(
                    pc.binary_length(batch.column("payload")), pa.int64()
                ),
            }
        )

    return read_warc_dataset(seg_dir).map_batches(
        to_docs, batch_format="pyarrow"
    )


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "doc_token_stats": _q_doc_token_stats,
        "doc_quality": _q_doc_quality,
        "doc_fingerprint": _q_doc_fingerprint,
        "dedup_exact": _q_dedup_exact,
        "dedup_keep": _q_dedup_keep,
        "cross_corpus_keep": _q_cross_corpus_keep,
        "bloom_xcorpus_keep": _q_bloom_xcorpus_keep,
        "vocab_topk": _q_vocab_topk,
        "token_df": _q_token_df,
        "tfidf_topk": _q_tfidf_topk,
        "distinct_tokens": _q_distinct_tokens,
        "length_quantiles": _q_length_quantiles,
        "dup_spans": _q_dup_spans,
        "dup_span_scrub": _q_dup_span_scrub,
        "doc_split": _q_doc_split,
        "crawl_diff": _q_crawl_diff,
        "quality_keep": _q_quality_keep,
        "lang_counts": _q_lang_counts,
        "events_rollup": _q_events_rollup,
        "q1_lineitem": _q_q1_lineitem,
        "orders_by_nation": _q_orders_by_nation,
        "sim_topk": _q_sim_topk,
        "ngram_jaccard": _q_ngram_jaccard,
        "emb_near_dup": _q_emb_near_dup,
        "semantic_dedup": _q_semantic_dedup,
        "mixture_sample": _q_mixture_sample,
        "train_shards": _q_train_shards,
        "bigram_lm": _q_bigram_lm,
        "dsir_weights": _q_dsir_weights,
        "training_export": _q_training_export,
        "corpus_stats": _q_corpus_stats,
        "split_leakage": _q_split_leakage,
        "source_quantiles": _q_source_quantiles,
        "dup_profile": _q_dup_profile,
        "doc_chunks": _q_doc_chunks,
        "doc_repetition": _q_doc_repetition,
        "doc_pii_counts": _q_doc_pii_counts,
        "pii_scrub": _q_pii_scrub,
        "doc_normalize": _q_doc_normalize,
        "stopword_stats": _q_stopword_stats,
        "url_normalize": _q_url_normalize,
        "url_canonical": _q_url_canonical,
        "url_dedup": _q_url_dedup,
        "paragraph_dedup": _q_paragraph_dedup,
        "source_rollup": _q_source_rollup,
        "doc_sample": _q_doc_sample,
        "weighted_sample": _q_weighted_sample,
        "length_outliers": _q_length_outliers,
        "docs_top_longest": _q_docs_top_longest,
        "events_hourly": _q_events_hourly,
        "events_hopping": _q_events_hopping,
        "user_sessions": _q_user_sessions,
        "rolling_events": _q_rolling_events,
        "value_histogram": _q_value_histogram,
        "referential_qa": _q_referential_qa,
        "purchase_attribution": _q_purchase_attribution,
        "value_bands": _q_value_bands,
        "top_orders_per_status": _q_top_orders_per_status,
        "parts_by_brand": _q_parts_by_brand,
        "pdf_extract": _q_pdf_extract,
        "pdf_layout": _q_pdf_layout,
        "warc_ingest": _q_warc_ingest,
        "unigram_lm": _q_unigram_lm,
        "gopher_gate": _q_gopher_gate,
        "bpe_tokens": _q_bpe_tokens,
        "source_quality": _q_source_quality,
        "repetition_profile": _q_repetition_profile,
        "quality_pipeline": _q_quality_pipeline,
        "c4_filter": _q_c4_filter,
        "ppl_buckets": _q_ppl_buckets,
        "line_scrub": _q_line_scrub,
        "logodds_score": _q_logodds_score,
        "pack_layout": _q_pack_layout,
        "decontam_keep": _q_decontam_keep,
        "host_rollup": _q_host_rollup,
        "domain_sample": _q_domain_sample,
        "events_json_rollup": _q_events_json_rollup,
        "robots_filter": _q_robots_filter,
        "blocklist_keep": _q_blocklist_keep,
        # rows-only (no SQL equivalent)
        "doc_lang_id": _q_doc_lang_id,
        "doc_compress_ratio": _q_doc_compress_ratio,
        "embedding_clusters": _q_embedding_clusters,
        "embedding_outliers": _q_embedding_outliers,
        "cms_counts": _q_cms_counts,
        "sitemap_ingest": _q_sitemap_ingest,
        "frontier_urls": _q_frontier_urls,
        "postings_lookup": _q_postings_lookup,
        "bm25_topk": _q_bm25_topk,
        "minhash_bands": _q_minhash_bands,
        "minhash_dedup": _q_minhash_dedup,
        "minhash_keep": _q_minhash_keep,
        "simhash_pairs": _q_simhash_pairs,
        "lsh_serving_lookup": _q_lsh_serving_lookup,
        "lsh_topk": _q_lsh_topk,
        "ivf_topk": _q_ivf_topk,
        "emb_near_dup_lsh": _q_emb_near_dup_lsh,
        "extract_pages": _q_extract_pages,
        "page_links": _q_page_links,
        "incremental_extract": _q_incremental_extract,
        "page_markdown": _q_page_markdown,
        "page_metadata": _q_page_metadata,
        "page_tables": _q_page_tables,
        "canonical_keep": _q_canonical_keep,
        "link_graph": _q_link_graph,
        "anchor_rollup": _q_anchor_rollup,
        "domain_pagerank": _q_domain_pagerank,
        "domain_components": _q_domain_components,
        "corpus_webgraph": _q_corpus_webgraph,
        "pages_css_query": _q_pages_css_query,
        "feeds_xpath": _q_feeds_xpath,
        "corpus_pipeline": _q_corpus_pipeline,
        "corpus_training_ready": _q_corpus_training_ready,
        "corpus_job": _q_corpus_job,
        "curation_pipeline": _q_curation_pipeline,
        "media_decode": _q_media_decode,
        "media_features": _q_media_features,
        "media_resize": _q_media_resize,
        "media_frames": _q_media_frames,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "doc_token_stats": r"""
            SELECT doc_id,
                   length(text) AS n_chars,
                   CASE WHEN length(trim(text)) = 0 THEN 0
                        ELSE length(list_filter(string_split_regex(trim(text), '\s+'),
                                                x -> x <> '')) END AS n_tokens,
                   length(regexp_replace(text, '[^.,!?;:]', '', 'g')) AS n_punct,
                   length(regexp_replace(text, '[^0-9]', '', 'g')) AS n_digit,
                   length(regexp_replace(text, '[^A-Z]', '', 'g')) AS n_upper,
                   length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS n_alpha
            FROM documents
        """,
        "doc_quality": r"""
            WITH s AS (
              SELECT doc_id,
                     length(text) AS n_chars,
                     CASE WHEN length(trim(text)) = 0 THEN 0
                          ELSE length(list_filter(string_split_regex(trim(text), '\s+'),
                                                  x -> x <> '')) END AS n_tokens,
                     length(regexp_replace(text, '[^.,!?;:]', '', 'g')) AS n_punct,
                     length(regexp_replace(text, '[^0-9]', '', 'g')) AS n_digit,
                     length(regexp_replace(text, '[^A-Z]', '', 'g')) AS n_upper,
                     length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS n_alpha
              FROM documents)
            SELECT *,
                   (n_tokens >= 5 AND n_chars >= 30
                    AND 2 * n_alpha >= n_chars
                    AND 20 * n_punct <= 3 * n_chars) AS quality_ok
            FROM s
        """,
        "doc_fingerprint": r"""
            SELECT doc_id,
                   md5(regexp_replace(lower(trim(text)), '\s+', ' ', 'g')) AS fingerprint
            FROM documents
        """,
        "dedup_exact": """
            SELECT md5(text) AS text_hash, min(doc_id) AS doc_id
            FROM documents GROUP BY 1
        """,
        "dedup_keep": """
            SELECT doc_id, text FROM documents
            WHERE doc_id IN (SELECT min(doc_id) FROM documents GROUP BY md5(text))
        """,
        "cross_corpus_keep": """
            SELECT doc_id FROM documents d
            WHERE NOT EXISTS (
              SELECT 1 FROM documents r
              WHERE r.doc_id % 3 = 0
                AND coalesce(r.text, '') = coalesce(d.text, '')
            )
        """,
        "bloom_xcorpus_keep": """
            SELECT doc_id FROM documents d
            WHERE NOT EXISTS (
              SELECT 1 FROM documents r
              WHERE r.doc_id % 3 = 0
                AND coalesce(r.text, '') = coalesce(d.text, '')
            )
        """,
        "vocab_topk": """
            SELECT token, count(*) AS freq FROM (
              SELECT unnest(regexp_split_to_array(lower(text), '[^a-z]+')) AS token
              FROM documents
            ) t WHERE token <> ''
            GROUP BY token
            ORDER BY freq DESC, token ASC
            LIMIT 100
        """,
        "token_df": """
            SELECT token, count(DISTINCT doc_id) AS df FROM (
              SELECT doc_id,
                     unnest(regexp_split_to_array(lower(text), '[^a-z]+')) AS token
              FROM documents
            ) t WHERE token <> ''
            GROUP BY token
        """,
        "tfidf_topk": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(lower(text), '[^a-z]+')) AS token
              FROM documents
            ),
            tf AS (
              SELECT doc_id, token, count(*) AS tf
              FROM toks WHERE token <> '' GROUP BY 1, 2
            ),
            df AS (
              SELECT token, count(*) AS df FROM tf GROUP BY 1
            ),
            n AS (SELECT count(*) AS n FROM documents),
            scored AS (
              SELECT tf.doc_id, tf.token, tf.tf,
                     tf.tf * CAST(floor(1000 * ln(n.n / df.df)) AS BIGINT)
                       AS score_milli
              FROM tf JOIN df USING (token), n
            ),
            ranked AS (
              SELECT *, row_number() OVER (
                       PARTITION BY doc_id
                       ORDER BY score_milli DESC, token ASC) AS rnk
              FROM scored
            )
            SELECT doc_id, token, tf, score_milli, rnk
            FROM ranked WHERE rnk <= 5
        """,
        "length_quantiles": """
            SELECT unnest([0.1,0.25,0.5,0.75,0.9,0.99]::DOUBLE[]) AS q,
                   unnest(quantile_disc(length(text),
                                        [0.1,0.25,0.5,0.75,0.9,0.99])) AS n_chars
            FROM documents
        """,
        "dup_spans": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS ts
              FROM documents
            ),
            idx AS (
              SELECT doc_id, ts, unnest(range(1, len(ts) - 8)) AS i
              FROM toks WHERE len(ts) >= 10
            ),
            wins AS (
              SELECT doc_id, i - 1 AS tok_start,
                     array_to_string(ts[i : i + 9], ' ') AS win
              FROM idx
            )
            SELECT doc_id, tok_start FROM wins
            WHERE win IN (
              SELECT win FROM wins GROUP BY win
              HAVING count(DISTINCT doc_id) >= 2
            )
        """,
        "dup_span_scrub": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS ts
              FROM documents
            ),
            idx AS (
              SELECT doc_id, ts, unnest(range(1, len(ts) - 8)) AS i
              FROM toks WHERE len(ts) >= 10
            ),
            wins AS (
              SELECT doc_id, i - 1 AS tok_start,
                     array_to_string(ts[i : i + 9], ' ') AS win
              FROM idx
            ),
            dups AS (
              SELECT doc_id, tok_start FROM wins
              WHERE win IN (
                SELECT win FROM wins GROUP BY win
                HAVING count(DISTINCT doc_id) >= 2
              )
            ),
            covered AS (
              SELECT DISTINCT doc_id,
                     unnest(range(tok_start, tok_start + 10)) AS ti
              FROM dups
            ),
            tokpos AS (
              SELECT doc_id, unnest(ts) AS tok,
                     unnest(range(0, len(ts))) AS ti
              FROM toks
            ),
            clean AS (
              SELECT t.doc_id,
                     string_agg(t.tok, ' ' ORDER BY t.ti) AS clean_text
              FROM tokpos t
              LEFT JOIN covered c ON t.doc_id = c.doc_id AND t.ti = c.ti
              WHERE c.ti IS NULL
              GROUP BY t.doc_id
            )
            SELECT d.doc_id, coalesce(c.clean_text, '') AS clean_text
            FROM documents d LEFT JOIN clean c USING (doc_id)
        """,
        "crawl_diff": """
            WITH old AS (
              SELECT doc_id, coalesce(text, '') AS t
              FROM documents WHERE doc_id % 3 <> 2
            ),
            new AS (
              SELECT doc_id,
                     coalesce(text, '')
                       || CASE WHEN doc_id % 5 = 0 THEN ' v2' ELSE '' END AS t
              FROM documents WHERE doc_id % 3 <> 0
            )
            SELECT coalesce(o.doc_id, n.doc_id) AS doc_id,
                   CASE WHEN o.doc_id IS NULL THEN 'added'
                        WHEN n.doc_id IS NULL THEN 'removed'
                        WHEN o.t = n.t THEN 'same'
                        ELSE 'changed' END AS change
            FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id
        """,
        "doc_split": """
            -- md5 first byte thresholds 230 (0xe6) and 243 (0xf3): the two
            -- leading lowercase hex chars compare lexicographically ==
            -- numerically (same rule as doc_sample)
            SELECT doc_id,
                   CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) < 'e6'
                        THEN 'train'
                        WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) < 'f3'
                        THEN 'val'
                        ELSE 'test' END AS split
            FROM documents
        """,
        "quality_keep": r"""
            WITH s AS (
              SELECT doc_id, text,
                     length(text) AS n_chars,
                     CASE WHEN length(trim(text)) = 0 THEN 0
                          ELSE length(list_filter(string_split_regex(trim(text), '\s+'),
                                                  x -> x <> '')) END AS n_tokens,
                     length(regexp_replace(text, '[^.,!?;:]', '', 'g')) AS n_punct,
                     length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS n_alpha
              FROM documents)
            SELECT doc_id, text FROM s
            WHERE n_tokens >= 5 AND n_chars >= 30
              AND 2 * n_alpha >= n_chars
              AND 20 * n_punct <= 3 * n_chars
        """,
        "lang_counts": """
            SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang
        """,
        "events_rollup": """
            SELECT event_type, count(*) AS n_events,
                   CAST(sum(CAST(round(value * 1000) AS BIGINT)) AS BIGINT) AS total_value_milli
            FROM events GROUP BY event_type
        """,
        "q1_lineitem": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
                       AS sum_base_price_cents,
                   count(*) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "orders_by_nation": """
            SELECT n.n_name, count(*) AS n_orders,
                   CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT)
                       AS total_price_cents
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "ngram_jaccard": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(trim(text)), '\s+'),
                                 x -> x <> '') AS w
              FROM documents),
            sh AS (
              SELECT DISTINCT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS shingle
              FROM toks, unnest(range(1, len(w) - 1)) AS t(i)
              WHERE len(w) >= 3),
            cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
            common AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
              FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
              GROUP BY 1, 2)
            SELECT common.id_a, common.id_b,
                   CAST((1000 * c) // (ca.n + cb.n - c) AS BIGINT) AS jaccard_milli
            FROM common
            JOIN cnt ca ON ca.doc_id = common.id_a
            JOIN cnt cb ON cb.doc_id = common.id_b
            WHERE (1000 * c) // (ca.n + cb.n - c) >= 500
        """,
        "emb_near_dup": """
            WITH p AS (
              SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                     list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                            CAST(b.embedding AS DOUBLE[])) AS raw
              FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id)
            SELECT id_a, id_b, round(raw, 4) AS sim
            FROM p WHERE raw >= 0.45
        """,
        "doc_repetition": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(trim(text)), '\s+'),
                                 x -> x <> '') AS w
              FROM documents),
            sh AS (
              SELECT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS g
              FROM toks, unnest(range(1, len(w) - 1)) AS t(i)
              WHERE len(w) >= 3),
            agg AS (
              SELECT doc_id, count(*) AS total, count(DISTINCT g) AS dist
              FROM sh GROUP BY doc_id)
            SELECT t.doc_id,
                   CAST(COALESCE((1000 * (a.total - a.dist)) // a.total, 0)
                        AS BIGINT) AS dup_ngram_milli
            FROM toks t LEFT JOIN agg a ON t.doc_id = a.doc_id
        """,
        "doc_pii_counts": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))
                       AS BIGINT) AS n_emails,
                   CAST(len(regexp_extract_all(text, 'https?://[^\s]+'))
                       AS BIGINT) AS n_urls
            FROM documents
        """,
        "pdf_extract": r"""
            SELECT doc_id,
                   text AS pdf_text,
                   CAST(floor((length(text) - length(replace(text, chr(10), ''))) / 40) + 1 AS INTEGER) AS n_pages,
                   CAST(length(text) AS BIGINT) AS text_len,
                   'ok' AS status
            FROM documents
        """,
        "host_rollup": f"""
            WITH u AS ({_DOC_URL_SQL}),
            d AS ({_DOMAIN_SQL})
            SELECT domain, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM d GROUP BY domain
        """,
        "robots_filter": r"""
            SELECT doc_id, source FROM documents
            WHERE NOT (
              source = 'src3'
              OR (source = 'src7'
                  AND CAST(doc_id AS VARCHAR) NOT LIKE '1%')
              OR (CAST(doc_id AS VARCHAR) LIKE '%8'
                  AND NOT (source = 'src7'
                           AND CAST(doc_id AS VARCHAR) LIKE '1%'))
            )
        """,
        "events_json_rollup": r"""
            SELECT COALESCE(TRY_CAST(json_extract_string(props, '$.k') AS BIGINT), -1) AS k,
                   count(*) AS n_events,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                       AS sum_value_cents
            FROM events
            GROUP BY 1
        """,
        "domain_sample": f"""
            WITH u AS ({_DOC_URL_SQL}),
            d AS ({_DOMAIN_SQL}),
            c AS (SELECT domain, count(*) AS n FROM d GROUP BY domain)
            SELECT d.doc_id, d.domain
            FROM d JOIN c USING (domain)
            WHERE (256 * 2 // c.n) >= 256
               OR substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 2)
                    < printf('%02x', 256 * 2 // c.n)
        """,
        "blocklist_keep": f"""
            WITH u AS ({_DOC_URL_SQL}),
            d AS ({_DOMAIN_SQL})
            SELECT doc_id FROM d
            WHERE domain NOT IN ('host3.co.uk', 'host7.com.au', 'host11.com')
        """,
        "unigram_lm": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(list_filter(string_split_regex(trim(text), '\s+'),
                                        x -> x <> '')) AS tok
              FROM documents
            ),
            vocab AS (SELECT tok, count(*) AS c FROM tok GROUP BY tok),
            tot AS (SELECT sum(c) AS total FROM vocab),
            scored AS (
              SELECT t.doc_id,
                     CAST(floor(-1000 * ln(v.c / tot.total)) AS BIGINT) AS milli
              FROM tok t, vocab v, tot
              WHERE t.tok = v.tok
            )
            SELECT doc_id,
                   count(*) AS n_tokens,
                   CAST(sum(milli) AS BIGINT) AS surprisal_milli,
                   CAST(sum(milli) // count(*) AS BIGINT)
                       AS mean_surprisal_milli
            FROM scored
            GROUP BY doc_id
        """,
        "source_quantiles": r"""
            WITH t AS (
              SELECT source,
                     CASE WHEN length(trim(text)) = 0 THEN 0
                          ELSE len(string_split_regex(trim(text), '\s+'))
                     END AS v
              FROM documents
            )
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(quantile_disc(v, 0.25) AS BIGINT) AS p25,
                   CAST(quantile_disc(v, 0.50) AS BIGINT) AS p50,
                   CAST(quantile_disc(v, 0.75) AS BIGINT) AS p75
            FROM t GROUP BY source
        """,
        "split_leakage": r"""
            -- split bytes compare as 2-char lowercase hex: 230=0xe6,
            -- 243=0xf3 (the doc_sample lexicographic-hex trick)
            WITH built AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 100000, text FROM documents
            ),
            a AS (
              SELECT md5(coalesce(text, '')) AS d,
                     substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) AS h
              FROM built
            ),
            g AS (
              SELECT d,
                     CAST(sum(CASE WHEN h < 'e6' THEN 1 ELSE 0 END)
                          AS BIGINT) AS n_train,
                     CAST(sum(CASE WHEN h >= 'e6' AND h < 'f3' THEN 1
                              ELSE 0 END) AS BIGINT) AS n_val,
                     CAST(sum(CASE WHEN h >= 'f3' THEN 1 ELSE 0 END)
                          AS BIGINT) AS n_test
              FROM a GROUP BY d
            )
            SELECT d, n_train, n_val, n_test FROM g
            WHERE (CASE WHEN n_train > 0 THEN 1 ELSE 0 END
                 + CASE WHEN n_val > 0 THEN 1 ELSE 0 END
                 + CASE WHEN n_test > 0 THEN 1 ELSE 0 END) > 1
        """,
        "dup_profile": r"""
            WITH t AS (
              SELECT source, md5(coalesce(text, '')) AS d,
                     CASE WHEN length(trim(text)) = 0 THEN 0
                          ELSE len(string_split_regex(trim(text), '\s+'))
                     END AS n_tokens
              FROM documents
            ),
            g AS (
              SELECT source, d, count(*) AS copies, sum(n_tokens) AS tok
              FROM t GROUP BY source, d
            )
            SELECT source,
                   CAST(sum(copies) AS BIGINT) AS n_docs,
                   CAST(count(*) AS BIGINT) AS n_distinct_texts,
                   CAST(sum(copies - 1) AS BIGINT) AS n_dup_docs,
                   CAST(sum((copies - 1) * (tok // copies)) AS BIGINT)
                       AS dup_tokens
            FROM g GROUP BY source
        """,
        "corpus_stats": r"""
            SELECT CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(DISTINCT source) AS BIGINT) AS n_sources,
                   CAST(count(DISTINCT lang) AS BIGINT) AS n_langs,
                   CAST(sum(CASE WHEN length(trim(text)) = 0 THEN 0
                            ELSE len(string_split_regex(trim(text), '\s+'))
                            END) AS BIGINT) AS total_tokens,
                   CAST(sum(CASE WHEN length(trim(text)) = 0 THEN 0
                            ELSE len(string_split_regex(trim(text), '\s+'))
                            END)
                        // greatest(count(*), 1) AS BIGINT)
                       AS mean_doc_tokens,
                   CAST(sum(CASE WHEN length(trim(text)) = 0 THEN 1 ELSE 0
                            END) AS BIGINT) AS n_empty,
                   CAST(count(DISTINCT md5(coalesce(text, ''))) AS BIGINT)
                       AS n_distinct_texts
            FROM documents
        """,
        "training_export": r"""
            WITH t AS (
              SELECT doc_id, source,
                     substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) AS bucket,
                     CASE WHEN length(trim(text)) = 0 THEN 0
                          ELSE len(string_split_regex(trim(text), '\s+'))
                     END AS n_tokens
              FROM documents
            ),
            b AS (
              SELECT source, bucket, sum(n_tokens) AS btok
              FROM t GROUP BY source, bucket
            ),
            c AS (
              SELECT source, bucket,
                     CAST(sum(btok) OVER (
                       PARTITION BY source ORDER BY bucket
                     ) AS BIGINT) AS cum
              FROM b
            ),
            cut AS (
              SELECT source, max(bucket) AS cutoff
              FROM c WHERE cum <= 700 GROUP BY source
            )
            SELECT t.doc_id, t.source, CAST(t.n_tokens AS BIGINT) AS n_tokens,
                   CAST(md5_number_upper('2:' || CAST(t.doc_id AS VARCHAR))
                        % 8 AS BIGINT) AS shard,
                   CAST(md5_number_lower('2:' || CAST(t.doc_id AS VARCHAR))
                        AS UBIGINT) AS sort_key
            FROM t JOIN cut USING (source)
            WHERE t.bucket <= cut.cutoff
        """,
        "dsir_weights": r"""
            WITH w AS (
              SELECT doc_id, lang,
                     list_filter(string_split_regex(trim(text), '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            ),
            feats AS (
              SELECT doc_id, lang,
                     CAST(md5_number_lower(tok) % 8192 AS BIGINT) AS f
              FROM (SELECT doc_id, lang, unnest(w) AS tok FROM w)
              UNION ALL
              SELECT doc_id, lang,
                     CAST(md5_number_lower(
                       w[CAST(i AS BIGINT)] || chr(1)
                         || w[CAST(i AS BIGINT) + 1]
                     ) % 8192 AS BIGINT) AS f
              FROM w, unnest(range(1, len(w))) AS t(i)
            ),
            ct AS (
              SELECT f, count(*) AS c FROM feats WHERE lang = 'en' GROUP BY f
            ),
            cr AS (SELECT f, count(*) AS c FROM feats GROUP BY f),
            nt AS (SELECT count(*) AS n FROM feats WHERE lang = 'en'),
            nr AS (SELECT count(*) AS n FROM feats),
            milli AS (
              SELECT fe.doc_id,
                     CAST(floor(1000 * ln(
                       (coalesce(ct.c, 0) + 1) / (nt.n + 8192)
                     )) AS BIGINT)
                   - CAST(floor(1000 * ln(
                       (cr.c + 1) / (nr.n + 8192)
                     )) AS BIGINT) AS m
              FROM feats fe
              LEFT JOIN ct USING (f)
              JOIN cr USING (f)
              CROSS JOIN nt CROSS JOIN nr
            )
            SELECT doc_id,
                   count(*) AS n_features,
                   CAST(sum(m) AS BIGINT) AS dsir_milli
            FROM milli GROUP BY doc_id
        """,
        "bigram_lm": r"""
            WITH w AS (
              SELECT doc_id,
                     list_filter(string_split_regex(trim(text), '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            ),
            uni AS (
              SELECT tok, count(*) AS cu
              FROM (SELECT unnest(w) AS tok FROM w) GROUP BY tok
            ),
            vsize AS (SELECT count(*) AS v FROM uni),
            pairs AS (
              SELECT doc_id,
                     w[CAST(i AS BIGINT)] AS prev,
                     w[CAST(i AS BIGINT) + 1] AS cur
              FROM w, unnest(range(1, len(w))) AS t(i)
            ),
            bi AS (
              SELECT prev, cur, count(*) AS cb
              FROM pairs GROUP BY prev, cur
            ),
            scored AS (
              SELECT p.doc_id,
                     CAST(floor(-1000 * ln((b.cb + 1) / (u.cu + v.v)))
                          AS BIGINT) AS milli
              FROM pairs p
              JOIN bi b ON b.prev = p.prev AND b.cur = p.cur
              JOIN uni u ON u.tok = p.prev
              CROSS JOIN vsize v
            )
            SELECT doc_id,
                   count(*) AS n_bigrams,
                   CAST(sum(milli) AS BIGINT) AS bigram_surprisal_milli,
                   CAST(sum(milli) // count(*) AS BIGINT)
                       AS mean_bigram_surprisal_milli
            FROM scored
            GROUP BY doc_id
        """,
        "quality_pipeline": r"""
            WITH built AS (
              SELECT doc_id,
                     'Nav menu variant ' || CAST(doc_id % 4 AS VARCHAR)
                       || chr(10) || text
                       || CASE WHEN doc_id % 3 = 0
                               THEN ' of the and that have with.'
                               ELSE '' END
                       || chr(10)
                       || 'Footer links variant ' || CAST(doc_id % 5 AS VARCHAR)
                       AS text
              FROM documents
            ),
            lines AS (
              SELECT doc_id,
                     unnest(string_split(text, chr(10))) AS line,
                     unnest(range(1, len(string_split(text, chr(10))) + 1))
                         AS idx
              FROM built
            ),
            boiler AS (
              SELECT line FROM lines
              GROUP BY line HAVING count(DISTINCT doc_id) >= 3
            ),
            kept AS (
              SELECT l.doc_id, l.line, l.idx FROM lines l
              WHERE l.line NOT IN (SELECT line FROM boiler)
            ),
            scrubbed AS (
              SELECT b.doc_id, coalesce(k.text, '') AS text
              FROM built b LEFT JOIN (
                SELECT doc_id, string_agg(line, chr(10) ORDER BY idx) AS text
                FROM kept GROUP BY doc_id
              ) k USING (doc_id)
            ),
            sig AS (
              SELECT doc_id, text,
                     CASE WHEN length(trim(text)) = 0 THEN 0
                          ELSE len(string_split_regex(trim(text), '\s+'))
                     END AS n_tokens,
                     length(regexp_replace(trim(text), '\s', '', 'g'))
                         AS word_chars,
                     length(text) - length(replace(text, '#', ''))
                       + len(regexp_extract_all(text, '\.\.\.'))
                       + length(text) - length(replace(text, '…', ''))
                         AS n_sym,
                     length(text) - length(replace(text, chr(10), '')) + 1
                         AS n_lines,
                     len(regexp_extract_all(text, '(?m)^[•\-\*]'))
                         AS n_bullet,
                     len(regexp_extract_all(text, '(?m)\.\.\.$'))
                         AS n_ellipsis_end,
                     len(regexp_extract_all(
                         ' ' || regexp_replace(trim(text), '\s+', '  ', 'g')
                             || ' ',
                         ' [^ ]*[A-Za-z][^ ]* ')) AS n_alpha_tokens,
                     (CASE WHEN regexp_matches(lower(text), '\bthe\b')
                           THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bbe\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bto\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bof\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\band\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bthat\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bhave\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bwith\b')
                             THEN 1 ELSE 0 END) AS n_stop_kinds
              FROM scrubbed
            )
            SELECT doc_id, text FROM sig
            WHERE n_tokens BETWEEN 50 AND 100000
              AND 3 * n_tokens <= word_chars
              AND word_chars <= 10 * n_tokens
              AND 10 * n_sym <= n_tokens
              AND 10 * n_bullet < 9 * n_lines
              AND 10 * n_ellipsis_end < 3 * n_lines
              AND 5 * n_alpha_tokens >= 4 * n_tokens
              AND n_stop_kinds >= 2
        """,
        "c4_filter": r"""
            WITH built AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 9 = 0 THEN
                       'no punctuation here at all' || chr(10)
                       || 'another line without ending' || chr(10)
                       || 'Only one good sentence exists here.'
                     ELSE
                       'This is sentence number ' || CAST(doc_id % 7 AS VARCHAR)
                       || ' of the corpus document.' || chr(10)
                       || 'Short line' || chr(10)
                       || substr(text, 1, 80)
                       || CASE WHEN doc_id % 2 = 0 THEN '.' ELSE '' END
                       || chr(10)
                       || CASE WHEN doc_id % 5 = 0
                               THEN 'Enable javascript to view this page.'
                               ELSE 'A perfectly normal sentence appears here!'
                          END
                       || chr(10) || 'Is this really a question?' || chr(10)
                       || CASE WHEN doc_id % 11 = 0
                               THEN 'Contains lorem ipsum filler text.'
                               ELSE 'Closing line of the document.'
                          END
                       || chr(10)
                       || CASE WHEN doc_id % 13 = 0
                               THEN 'var f = function() { return 1; };'
                               ELSE 'He said "It ends with a quote."'
                          END
                     END AS text
              FROM documents
            ),
            lines AS (
              SELECT doc_id,
                     trim(unnest(string_split(text, chr(10))),
                          ' ' || chr(9) || chr(13) || chr(12) || chr(11))
                         AS line,
                     unnest(range(1, len(string_split(text, chr(10))) + 1))
                         AS idx
              FROM built
            ),
            kept AS (
              SELECT doc_id, line, idx FROM lines
              WHERE (line LIKE '%.' OR line LIKE '%!' OR line LIKE '%?'
                     OR line LIKE '%"')
                AND len(regexp_extract_all(line, '\S+')) >= 5
                AND NOT contains(lower(line), 'javascript')
            ),
            pages AS (
              SELECT doc_id,
                     string_agg(line, chr(10) ORDER BY idx) AS text,
                     count(*) AS n_lines
              FROM kept GROUP BY doc_id
            )
            SELECT p.doc_id, p.text, CAST(p.n_lines AS BIGINT) AS n_lines
            FROM pages p JOIN built b USING (doc_id)
            WHERE p.n_lines >= 3
              AND NOT contains(lower(b.text), 'lorem ipsum')
              AND NOT contains(b.text, '{')
        """,
        "repetition_profile": r"""
            WITH built AS (
              SELECT doc_id,
                     'Nav menu' || chr(10) || text || chr(10) ||
                     CASE WHEN doc_id % 4 = 0 THEN text ELSE 'Footer' END
                         AS text
              FROM documents
            ),
            lin AS (
              SELECT doc_id,
                     unnest(string_split(text, chr(10))) AS line,
                     unnest(range(1, len(string_split(text, chr(10))) + 1))
                         AS idx
              FROM built
            ),
            lin_sig AS (
              SELECT doc_id,
                     1000 * count(CASE WHEN rn > 1 THEN 1 END) // count(*)
                         AS dup_line_milli,
                     CASE WHEN sum(length(line)) = 0 THEN 0
                          ELSE 1000 * coalesce(
                                 sum(CASE WHEN rn > 1 THEN length(line) END),
                                 0) // sum(length(line))
                     END AS dup_line_char_milli
              FROM (SELECT doc_id, line,
                           row_number() OVER (PARTITION BY doc_id, line
                                              ORDER BY idx) AS rn
                    FROM lin)
              GROUP BY doc_id
            ),
            ts AS (
              SELECT doc_id,
                     list_filter(string_split_regex(trim(text), '\s+'),
                                 x -> x <> '') AS t
              FROM built
            ),
            tok AS (
              SELECT doc_id, unnest(t) AS tok,
                     unnest(range(1, len(t) + 1)) AS idx
              FROM ts
            ),
            tot AS (SELECT doc_id, sum(length(tok)) AS tot
                    FROM tok GROUP BY doc_id),
            g2 AS (
              SELECT doc_id, idx,
                     tok || chr(1) || lead(tok, 1) OVER w AS gkey,
                     length(tok) + length(lead(tok, 1) OVER w) AS glen
              FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY idx)
              QUALIFY lead(tok, 1) OVER w IS NOT NULL
            ),
            c2 AS (SELECT doc_id, gkey, glen, count(*) AS c
                   FROM g2 GROUP BY ALL),
            m2 AS (SELECT doc_id, max(c) AS mc FROM c2 GROUP BY doc_id),
            t2 AS (
              SELECT c2.doc_id,
                     1000 * first(m2.mc) * max(c2.glen) // first(tot.tot) AS v
              FROM c2 JOIN m2 USING (doc_id) JOIN tot USING (doc_id)
              WHERE c2.c = m2.mc GROUP BY c2.doc_id
            ),
            g3 AS (
              SELECT doc_id, idx,
                     tok || chr(1) || lead(tok, 1) OVER w || chr(1)
                         || lead(tok, 2) OVER w AS gkey,
                     length(tok) + length(lead(tok, 1) OVER w)
                         + length(lead(tok, 2) OVER w) AS glen
              FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY idx)
              QUALIFY lead(tok, 2) OVER w IS NOT NULL
            ),
            c3 AS (SELECT doc_id, gkey, glen, count(*) AS c
                   FROM g3 GROUP BY ALL),
            m3 AS (SELECT doc_id, max(c) AS mc FROM c3 GROUP BY doc_id),
            t3 AS (
              SELECT c3.doc_id,
                     1000 * first(m3.mc) * max(c3.glen) // first(tot.tot) AS v
              FROM c3 JOIN m3 USING (doc_id) JOIN tot USING (doc_id)
              WHERE c3.c = m3.mc GROUP BY c3.doc_id
            ),
            g4 AS (
              SELECT doc_id, idx,
                     tok || chr(1) || lead(tok, 1) OVER w || chr(1)
                         || lead(tok, 2) OVER w || chr(1)
                         || lead(tok, 3) OVER w AS gkey,
                     length(tok) + length(lead(tok, 1) OVER w)
                         + length(lead(tok, 2) OVER w)
                         + length(lead(tok, 3) OVER w) AS glen
              FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY idx)
              QUALIFY lead(tok, 3) OVER w IS NOT NULL
            ),
            c4 AS (SELECT doc_id, gkey, glen, count(*) AS c
                   FROM g4 GROUP BY ALL),
            m4 AS (SELECT doc_id, max(c) AS mc FROM c4 GROUP BY doc_id),
            t4 AS (
              SELECT c4.doc_id,
                     1000 * first(m4.mc) * max(c4.glen) // first(tot.tot) AS v
              FROM c4 JOIN m4 USING (doc_id) JOIN tot USING (doc_id)
              WHERE c4.c = m4.mc GROUP BY c4.doc_id
            ),
            g5 AS (
              SELECT doc_id, idx,
                     tok || chr(1) || lead(tok, 1) OVER w || chr(1)
                         || lead(tok, 2) OVER w || chr(1)
                         || lead(tok, 3) OVER w || chr(1)
                         || lead(tok, 4) OVER w AS gkey
              FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY idx)
              QUALIFY lead(tok, 4) OVER w IS NOT NULL
            ),
            c5 AS (SELECT doc_id, gkey FROM g5
                   GROUP BY doc_id, gkey HAVING count(*) >= 2),
            cov5 AS (SELECT DISTINCT g5.doc_id, g5.idx + r.o AS p
                     FROM g5 JOIN c5 USING (doc_id, gkey), range(0, 5) r(o)),
            d5 AS (
              SELECT cov5.doc_id,
                     1000 * sum(length(tok.tok)) // first(tot.tot) AS v
              FROM cov5
              JOIN tok ON tok.doc_id = cov5.doc_id AND tok.idx = cov5.p
              JOIN tot ON tot.doc_id = cov5.doc_id
              GROUP BY cov5.doc_id
            ),
            g10 AS (
              SELECT doc_id, idx,
                     tok || chr(1) || lead(tok, 1) OVER w || chr(1)
                         || lead(tok, 2) OVER w || chr(1)
                         || lead(tok, 3) OVER w || chr(1)
                         || lead(tok, 4) OVER w || chr(1)
                         || lead(tok, 5) OVER w || chr(1)
                         || lead(tok, 6) OVER w || chr(1)
                         || lead(tok, 7) OVER w || chr(1)
                         || lead(tok, 8) OVER w || chr(1)
                         || lead(tok, 9) OVER w AS gkey
              FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY idx)
              QUALIFY lead(tok, 9) OVER w IS NOT NULL
            ),
            c10 AS (SELECT doc_id, gkey FROM g10
                    GROUP BY doc_id, gkey HAVING count(*) >= 2),
            cov10 AS (SELECT DISTINCT g10.doc_id, g10.idx + r.o AS p
                      FROM g10 JOIN c10 USING (doc_id, gkey),
                           range(0, 10) r(o)),
            d10 AS (
              SELECT cov10.doc_id,
                     1000 * sum(length(tok.tok)) // first(tot.tot) AS v
              FROM cov10
              JOIN tok ON tok.doc_id = cov10.doc_id AND tok.idx = cov10.p
              JOIN tot ON tot.doc_id = cov10.doc_id
              GROUP BY cov10.doc_id
            )
            SELECT b.doc_id,
                   CAST(lin_sig.dup_line_milli AS BIGINT) AS dup_line_milli,
                   CAST(lin_sig.dup_line_char_milli AS BIGINT)
                       AS dup_line_char_milli,
                   CAST(coalesce(t2.v, 0) AS BIGINT) AS top2_char_milli,
                   CAST(coalesce(t3.v, 0) AS BIGINT) AS top3_char_milli,
                   CAST(coalesce(t4.v, 0) AS BIGINT) AS top4_char_milli,
                   CAST(coalesce(d5.v, 0) AS BIGINT) AS dup5_char_milli,
                   CAST(coalesce(d10.v, 0) AS BIGINT) AS dup10_char_milli
            FROM built b
            JOIN lin_sig USING (doc_id)
            LEFT JOIN t2 USING (doc_id)
            LEFT JOIN t3 USING (doc_id)
            LEFT JOIN t4 USING (doc_id)
            LEFT JOIN d5 USING (doc_id)
            LEFT JOIN d10 USING (doc_id)
        """,
        "bpe_tokens": r"""
            SELECT doc_id,
                   CAST(CASE WHEN length(trim(text)) = 0 THEN 0
                             ELSE len(string_split_regex(trim(text), '\s+'))
                        END AS BIGINT) AS n_ws_tokens,
                   CAST(len(regexp_extract_all(text,
                        '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+'))
                        AS BIGINT) AS n_bpe_tokens
            FROM documents
        """,
        "source_quality": r"""
            WITH built AS (
              SELECT doc_id, source,
                     text || CASE WHEN doc_id % 3 = 0
                                  THEN ' of the and that have with.'
                                  ELSE '' END AS text
              FROM documents
            ),
            sig AS (
              SELECT doc_id, source,
                     CASE WHEN length(trim(text)) = 0 THEN 0
                          ELSE len(string_split_regex(trim(text), '\s+'))
                     END AS n_tokens,
                     length(regexp_replace(trim(text), '\s', '', 'g'))
                         AS word_chars,
                     length(text) - length(replace(text, '#', ''))
                       + len(regexp_extract_all(text, '\.\.\.'))
                       + length(text) - length(replace(text, '…', ''))
                         AS n_sym,
                     length(text) - length(replace(text, chr(10), '')) + 1
                         AS n_lines,
                     len(regexp_extract_all(text, '(?m)^[•\-\*]'))
                         AS n_bullet,
                     len(regexp_extract_all(text, '(?m)\.\.\.$'))
                         AS n_ellipsis_end,
                     len(regexp_extract_all(
                         ' ' || regexp_replace(trim(text), '\s+', '  ', 'g')
                             || ' ',
                         ' [^ ]*[A-Za-z][^ ]* ')) AS n_alpha_tokens,
                     (CASE WHEN regexp_matches(lower(text), '\bthe\b')
                           THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bbe\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bto\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bof\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\band\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bthat\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bhave\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bwith\b')
                             THEN 1 ELSE 0 END) AS n_stop_kinds
              FROM built
            ),
            gated AS (
              SELECT source,
                     CASE WHEN n_tokens BETWEEN 50 AND 100000
                           AND 3 * n_tokens <= word_chars
                           AND word_chars <= 10 * n_tokens
                           AND 10 * n_sym <= n_tokens
                           AND 10 * n_bullet < 9 * n_lines
                           AND 10 * n_ellipsis_end < 3 * n_lines
                           AND 5 * n_alpha_tokens >= 4 * n_tokens
                           AND n_stop_kinds >= 2
                          THEN 1 ELSE 0 END AS ok
              FROM sig
            )
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(ok) AS BIGINT) AS n_ok,
                   CAST(sum(ok) * 1000 // count(*) AS BIGINT) AS ok_milli
            FROM gated GROUP BY source
        """,
        "gopher_gate": r"""
            WITH built AS (
              SELECT doc_id,
                     text || CASE WHEN doc_id % 3 = 0
                                  THEN ' of the and that have with.'
                                  ELSE '' END AS text
              FROM documents
            ),
            sig AS (
              SELECT doc_id,
                     CASE WHEN length(trim(text)) = 0 THEN 0
                          ELSE len(string_split_regex(trim(text), '\s+'))
                     END AS n_tokens,
                     length(regexp_replace(trim(text), '\s', '', 'g'))
                         AS word_chars,
                     length(text) - length(replace(text, '#', ''))
                       + len(regexp_extract_all(text, '\.\.\.'))
                       + length(text) - length(replace(text, '…', ''))
                         AS n_sym,
                     length(text) - length(replace(text, chr(10), '')) + 1
                         AS n_lines,
                     len(regexp_extract_all(text, '(?m)^[•\-\*]'))
                         AS n_bullet,
                     len(regexp_extract_all(text, '(?m)\.\.\.$'))
                         AS n_ellipsis_end,
                     len(regexp_extract_all(
                         ' ' || regexp_replace(trim(text), '\s+', '  ', 'g')
                             || ' ',
                         ' [^ ]*[A-Za-z][^ ]* ')) AS n_alpha_tokens,
                     (CASE WHEN regexp_matches(lower(text), '\bthe\b')
                           THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bbe\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bto\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bof\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\band\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bthat\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bhave\b')
                             THEN 1 ELSE 0 END
                      + CASE WHEN regexp_matches(lower(text), '\bwith\b')
                             THEN 1 ELSE 0 END) AS n_stop_kinds
              FROM built
            )
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(word_chars AS BIGINT) AS word_chars,
                   CAST(n_sym AS BIGINT) AS n_sym,
                   CAST(n_lines AS BIGINT) AS n_lines,
                   CAST(n_bullet AS BIGINT) AS n_bullet,
                   CAST(n_ellipsis_end AS BIGINT) AS n_ellipsis_end,
                   CAST(n_alpha_tokens AS BIGINT) AS n_alpha_tokens,
                   CAST(n_stop_kinds AS BIGINT) AS n_stop_kinds,
                   (n_tokens BETWEEN 50 AND 100000
                    AND 3 * n_tokens <= word_chars
                    AND word_chars <= 10 * n_tokens
                    AND 10 * n_sym <= n_tokens
                    AND 10 * n_bullet < 9 * n_lines
                    AND 10 * n_ellipsis_end < 3 * n_lines
                    AND 5 * n_alpha_tokens >= 4 * n_tokens
                    AND n_stop_kinds >= 2) AS gopher_ok
            FROM sig
        """,
        "ppl_buckets": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(list_filter(string_split_regex(trim(text), '\s+'),
                                        x -> x <> '')) AS tok
              FROM documents
            ),
            vocab AS (SELECT tok, count(*) AS c FROM tok GROUP BY tok),
            tot AS (SELECT sum(c) AS total FROM vocab),
            scored AS (
              SELECT t.doc_id,
                     CAST(floor(-1000 * ln(v.c / tot.total)) AS BIGINT) AS milli
              FROM tok t, vocab v, tot
              WHERE t.tok = v.tok
            ),
            docs AS (
              SELECT doc_id,
                     CAST(sum(milli) // count(*) AS BIGINT)
                         AS mean_surprisal_milli
              FROM scored GROUP BY doc_id
            ),
            thr AS (
              SELECT quantile_disc(mean_surprisal_milli, 0.25) AS t1,
                     quantile_disc(mean_surprisal_milli, 0.75) AS t2
              FROM docs
            )
            SELECT d.doc_id, d.mean_surprisal_milli,
                   CASE WHEN d.mean_surprisal_milli <= thr.t1 THEN 'head'
                        WHEN d.mean_surprisal_milli <= thr.t2 THEN 'middle'
                        ELSE 'tail' END AS bucket
            FROM docs d, thr
        """,
        "line_scrub": r"""
            WITH built AS (
              SELECT doc_id,
                     'Nav menu variant ' || CAST(doc_id % 4 AS VARCHAR)
                       || chr(10) || text || chr(10)
                       || 'Footer links variant ' || CAST(doc_id % 5 AS VARCHAR)
                       AS text
              FROM documents
            ),
            lines AS (
              SELECT doc_id,
                     unnest(string_split(text, chr(10))) AS line,
                     unnest(range(1, len(string_split(text, chr(10))) + 1))
                         AS idx
              FROM built
            ),
            boiler AS (
              SELECT line FROM lines
              GROUP BY line HAVING count(DISTINCT doc_id) >= 3
            ),
            kept AS (
              SELECT l.doc_id, l.line, l.idx FROM lines l
              WHERE l.line NOT IN (SELECT line FROM boiler)
            )
            SELECT b.doc_id, coalesce(k.text, '') AS text
            FROM built b LEFT JOIN (
              SELECT doc_id, string_agg(line, chr(10) ORDER BY idx) AS text
              FROM kept GROUP BY doc_id
            ) k USING (doc_id)
        """,
        "postings_lookup": r"""
            SELECT doc_id, count(*) AS tf FROM (
              SELECT doc_id,
                     unnest(regexp_split_to_array(lower(text), '[^a-z]+')) AS token
              FROM documents
            ) t
            WHERE token = 'the'
            GROUP BY doc_id
        """,
        "bm25_topk": r"""
            -- Robertson/Okapi BM25, k1=1.25 b=0.75 (dyadic-exact doubles);
            -- every float sub-expression mirrors postings.bm25_topk's numpy
            -- expression order so the floored micro fixed-point can't drift
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(lower(text), '[^a-z]+')) AS token
              FROM documents
            ),
            tf AS (
              SELECT doc_id, token, count(*) AS tf
              FROM toks WHERE token <> '' GROUP BY 1, 2
            ),
            dl AS (
              SELECT doc_id, count(*) AS dl
              FROM toks WHERE token <> '' GROUP BY 1
            ),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT count(*) FROM toks WHERE token <> '') AS sum_dl
            ),
            q AS (SELECT unnest(['hash', 'join', 'merge']) AS token),
            df AS (
              SELECT tf.token, count(*) AS df
              FROM tf JOIN q USING (token) GROUP BY 1
            ),
            contrib AS (
              SELECT tf.doc_id,
                     CAST(floor(
                       1000000.0
                       * ln((CAST(stats.n - df.df AS DOUBLE) + 0.5)
                            / (CAST(df.df AS DOUBLE) + 0.5) + 1.0)
                       * (CAST(tf.tf AS DOUBLE) * 2.25)
                       / (CAST(tf.tf AS DOUBLE)
                          + 1.25 * (0.25 + 0.75
                            * (CAST(dl.dl AS DOUBLE)
                               / (CAST(stats.sum_dl AS DOUBLE) / stats.n))))
                     ) AS BIGINT) AS c
              FROM tf
              JOIN q USING (token)
              JOIN df ON tf.token = df.token
              JOIN dl ON tf.doc_id = dl.doc_id, stats
            ),
            scored AS (
              SELECT doc_id, CAST(sum(c) AS BIGINT) AS score_micro
              FROM contrib GROUP BY 1
            ),
            ranked AS (
              SELECT doc_id, score_micro,
                     row_number() OVER (
                       ORDER BY score_micro DESC, doc_id ASC) AS rnk
              FROM scored
            )
            SELECT doc_id, score_micro, rnk FROM ranked WHERE rnk <= 10
        """,
        "logodds_score": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(list_filter(string_split_regex(trim(text), '\s+'),
                                        x -> x <> '')) AS tok
              FROM documents
            ),
            lab AS (
              SELECT doc_id, tok, (doc_id % 7 <> 0) AS is_good FROM tok
            ),
            vocab AS (
              SELECT tok,
                     sum(CASE WHEN is_good THEN 1 ELSE 0 END) AS gc,
                     sum(CASE WHEN NOT is_good THEN 1 ELSE 0 END) AS bc
              FROM lab GROUP BY tok
            ),
            tot AS (
              SELECT sum(gc) AS good_tot, sum(bc) AS bad_tot,
                     count(*) AS v
              FROM vocab
            ),
            w AS (
              -- add-1 smoothed milli log-odds; both products cast to
              -- DOUBLE before dividing (the engine mirrors this cast)
              SELECT tok,
                     CAST(floor(1000 * ln(
                         CAST((gc + 1) * (bad_tot + v) AS DOUBLE)
                       / CAST((bc + 1) * (good_tot + v) AS DOUBLE)))
                       AS BIGINT) AS milli
              FROM vocab, tot
            ),
            scored AS (
              SELECT t.doc_id, w.milli FROM lab t JOIN w ON t.tok = w.tok
            )
            SELECT doc_id,
                   count(*) AS n_tokens,
                   CAST(sum(milli) AS BIGINT) AS logodds_milli,
                   -- FLOOR division (Python semantics): subtract the
                   -- positive mod first so negative sums round down, not
                   -- toward zero like DuckDB's bare //
                   CAST((sum(milli)
                    - ((sum(milli) % count(*) + count(*)) % count(*)))
                   // count(*) AS BIGINT) AS mean_logodds_milli
            FROM scored
            GROUP BY doc_id
        """,
        "pack_layout": r"""
            WITH s AS (
              SELECT doc_id,
                     doc_id % 16 AS bin,
                     CASE WHEN length(trim(text)) = 0 THEN 0
                          ELSE length(list_filter(
                                 string_split_regex(trim(text), '\s+'),
                                 x -> x <> '')) END AS n_tokens
              FROM documents
            ),
            o AS (
              SELECT doc_id, bin, n_tokens,
                     CAST(coalesce(SUM(n_tokens) OVER (
                         PARTITION BY bin ORDER BY doc_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING), 0) AS BIGINT)
                         AS tok_offset
              FROM s
            )
            SELECT doc_id, bin, CAST(n_tokens AS BIGINT) AS n_tokens,
                   tok_offset,
                   tok_offset // 2048 AS pack_id,
                   tok_offset % 2048 AS offset_in_pack
            FROM o
        """,
        "decontam_keep": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS ts
              FROM documents
            ),
            idx AS (
              SELECT doc_id, ts, unnest(range(1, len(ts) - 6)) AS i
              FROM toks WHERE len(ts) >= 8
            ),
            wins AS (
              SELECT doc_id, array_to_string(ts[i : i + 7], ' ') AS win
              FROM idx
            ),
            bench AS (
              SELECT DISTINCT win FROM wins WHERE doc_id % 29 = 0
            )
            SELECT doc_id FROM documents
            WHERE doc_id NOT IN (
              SELECT DISTINCT w.doc_id
              FROM wins w JOIN bench b ON w.win = b.win
            )
        """,
        "warc_ingest": r"""
            SELECT doc_id,
                   text,
                   CAST(octet_length(encode(text)) AS BIGINT) AS n_bytes
            FROM documents
        """,
        "pii_scrub": r"""
            SELECT doc_id,
                   regexp_replace(
                       regexp_replace(text,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g'),
                       'https?://[^\s]+', '<URL>', 'g') AS scrubbed_text
            FROM documents
        """,
        "doc_normalize": r"""
            SELECT doc_id,
                   trim(regexp_replace(nfc_normalize(text), '\s+', ' ', 'g'))
                       AS norm_text
            FROM documents
        """,
        "stopword_stats": r"""
            WITH s AS (
              SELECT doc_id,
                CAST(len(regexp_extract_all(lower(text),
                  '\b(the|and|of|to|in|is|that|it|for|with|was|on|are|as|be)\b'))
                  AS BIGINT) AS n_stopwords,
                CAST(CASE WHEN length(trim(text)) = 0 THEN 0
                     ELSE length(list_filter(
                          string_split_regex(trim(text), '\s+'),
                          x -> x <> '')) END AS BIGINT) AS n_tokens
              FROM documents)
            SELECT doc_id, n_stopwords, n_tokens,
                   CAST(CASE WHEN n_tokens = 0 THEN 0
                        ELSE (1000 * n_stopwords) // n_tokens END
                        AS BIGINT) AS stopword_milli
            FROM s
        """,
        "paragraph_dedup": r"""
            WITH d AS (
              SELECT doc_id,
                     'Shared boilerplate paragraph variant '
                       || CAST(doc_id % 4 AS VARCHAR) AS p0,
                     text AS p1
              FROM documents),
            p AS (
              SELECT doc_id, 0 AS para_idx, p0 AS para FROM d
              UNION ALL
              SELECT doc_id, 1 AS para_idx, p1 AS para FROM d),
            w AS (
              SELECT doc_id, para_idx, para,
                     row_number() OVER (PARTITION BY para
                                        ORDER BY doc_id, para_idx) AS rn
              FROM p)
            SELECT doc_id,
                   string_agg(para, chr(10)||chr(10) ORDER BY para_idx) AS text
            FROM w WHERE rn = 1 GROUP BY doc_id
        """,
        "url_normalize": r"""
            WITH u AS (
              SELECT doc_id,
                'HTTPS://WWW.Example.COM/Docs/' || source || '/'
                  || CAST(doc_id AS VARCHAR)
                  || CASE doc_id % 4
                       WHEN 0 THEN '?utm_source=feed'
                       WHEN 1 THEN '?utm_campaign=x&page=2#section-3'
                       WHEN 2 THEN '/?a=1&utm_medium=email&b=2'
                       ELSE '/' END AS url
              FROM documents),
            n1 AS (SELECT doc_id,
                          regexp_replace(url, '#.*$', '') AS s FROM u),
            n2 AS (SELECT doc_id,
                          regexp_replace(
                            regexp_replace(
                              regexp_replace(s, '&utm_[^&#]*', '', 'g'),
                              '\?utm_[^&#]*&', '?'),
                            '\?utm_[^&#]*$', '') AS s FROM n1),
            n3 AS (SELECT doc_id,
                          CASE WHEN regexp_matches(s,
                                 '^[A-Za-z][A-Za-z0-9+.-]*://')
                          THEN lower(regexp_extract(s,
                                 '^([A-Za-z][A-Za-z0-9+.-]*://[^/?#]*)', 1))
                               || regexp_replace(s,
                                 '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*', '')
                          ELSE s END AS s FROM n2)
            SELECT doc_id, regexp_replace(s, '/+$', '') AS url_norm FROM n3
        """,
        "url_canonical": r"""
            WITH u AS (
              SELECT doc_id,
                CASE WHEN (doc_id // 2) % 13 = 0
                  THEN CASE WHEN doc_id % 2 = 0 THEN 'HTTP' ELSE 'http' END
                  ELSE CASE WHEN doc_id % 2 = 0 THEN 'HTTPS'
                       ELSE 'https' END END
                  || '://'
                  || CASE (doc_id // 2) % 3 WHEN 0 THEN 'www.'
                       WHEN 1 THEN CASE WHEN doc_id % 2 = 0
                         THEN 'News.CDN.' ELSE 'news.cdn.' END
                       ELSE '' END
                  || CASE WHEN doc_id % 2 = 0 THEN 'Host' ELSE 'host' END
                  || CAST((doc_id // 2) % 23 AS VARCHAR) || '.'
                  || CASE (doc_id // 2) % 5
                       WHEN 0 THEN 'com' WHEN 1 THEN 'co.uk'
                       WHEN 2 THEN 'org' WHEN 3 THEN 'com.au' ELSE 'io' END
                  || CASE WHEN (doc_id // 2) % 7 = 1 THEN ':8080'
                       WHEN doc_id % 2 = 0 THEN
                         CASE WHEN (doc_id // 2) % 13 = 0
                           THEN ':80' ELSE ':443' END
                       ELSE '' END
                  || CASE WHEN (doc_id // 2) % 11 = 0 THEN ''
                       ELSE '/s' || CAST((doc_id // 2) % 10 AS VARCHAR)
                            || '/p'
                            || CAST((doc_id // 2) % 50 AS VARCHAR) END
                  || CASE (doc_id // 2) % 4
                       WHEN 0 THEN CASE WHEN doc_id % 2 = 0
                         THEN '?utm_source=news&id='
                              || CAST((doc_id // 2) % 10 AS VARCHAR)
                         ELSE '?id='
                              || CAST((doc_id // 2) % 10 AS VARCHAR) END
                       WHEN 1 THEN CASE WHEN doc_id % 2 = 0
                         THEN '?id=' || CAST((doc_id // 2) % 10 AS VARCHAR)
                              || '&utm_campaign=x'
                         ELSE '?id='
                              || CAST((doc_id // 2) % 10 AS VARCHAR) END
                       WHEN 2 THEN CASE WHEN doc_id % 2 = 0
                         THEN '?gclid=g&fbclid=f' ELSE '' END
                       ELSE '' END
                  || CASE WHEN doc_id % 2 = 0
                       THEN '#sec' || CAST((doc_id // 2) % 3 AS VARCHAR)
                       ELSE '' END AS url
              FROM documents),
            s2 AS (SELECT doc_id, url,
                          split_part(url, '#', 1) AS u0 FROM u),
            s3 AS (SELECT doc_id, url,
                     lower(regexp_extract(u0,
                       '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*')) AS pre0,
                     regexp_replace(u0,
                       '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*', '') AS rest
                   FROM s2),
            s4 AS (SELECT doc_id, url,
                     regexp_replace(
                       regexp_replace(pre0,
                         '^(http://[^:/?#]*):80$', '\1'),
                       '^(https://[^:/?#]*):443$', '\1') AS pre,
                     CASE WHEN instr(rest, '?') > 0
                       THEN substr(rest, 1, instr(rest, '?') - 1)
                       ELSE rest END AS path,
                     CASE WHEN instr(rest, '?') > 0
                       THEN substr(rest, instr(rest, '?') + 1)
                       ELSE '' END AS q
                   FROM s3),
            s5 AS (SELECT doc_id, url, pre, path,
                     array_to_string(list_filter(string_split(q, '&'),
                       x -> NOT (starts_with(x, 'utm_') OR
                         list_contains(['gclid','fbclid','msclkid','mc_eid'],
                                       split_part(x, '=', 1)))), '&') AS kept
                   FROM s4)
            SELECT doc_id, url,
                   pre || CASE WHEN pre <> '' AND path = ''
                            THEN '/' ELSE path END
                       || CASE WHEN kept <> ''
                            THEN '?' || kept ELSE '' END AS canon_url
            FROM s5
        """,
        "url_dedup": r"""
            WITH u AS (
              SELECT doc_id,
                CASE WHEN (doc_id // 2) % 13 = 0
                  THEN CASE WHEN doc_id % 2 = 0 THEN 'HTTP' ELSE 'http' END
                  ELSE CASE WHEN doc_id % 2 = 0 THEN 'HTTPS'
                       ELSE 'https' END END
                  || '://'
                  || CASE (doc_id // 2) % 3 WHEN 0 THEN 'www.'
                       WHEN 1 THEN CASE WHEN doc_id % 2 = 0
                         THEN 'News.CDN.' ELSE 'news.cdn.' END
                       ELSE '' END
                  || CASE WHEN doc_id % 2 = 0 THEN 'Host' ELSE 'host' END
                  || CAST((doc_id // 2) % 23 AS VARCHAR) || '.'
                  || CASE (doc_id // 2) % 5
                       WHEN 0 THEN 'com' WHEN 1 THEN 'co.uk'
                       WHEN 2 THEN 'org' WHEN 3 THEN 'com.au' ELSE 'io' END
                  || CASE WHEN (doc_id // 2) % 7 = 1 THEN ':8080'
                       WHEN doc_id % 2 = 0 THEN
                         CASE WHEN (doc_id // 2) % 13 = 0
                           THEN ':80' ELSE ':443' END
                       ELSE '' END
                  || CASE WHEN (doc_id // 2) % 11 = 0 THEN ''
                       ELSE '/s' || CAST((doc_id // 2) % 10 AS VARCHAR)
                            || '/p'
                            || CAST((doc_id // 2) % 50 AS VARCHAR) END
                  || CASE (doc_id // 2) % 4
                       WHEN 0 THEN CASE WHEN doc_id % 2 = 0
                         THEN '?utm_source=news&id='
                              || CAST((doc_id // 2) % 10 AS VARCHAR)
                         ELSE '?id='
                              || CAST((doc_id // 2) % 10 AS VARCHAR) END
                       WHEN 1 THEN CASE WHEN doc_id % 2 = 0
                         THEN '?id=' || CAST((doc_id // 2) % 10 AS VARCHAR)
                              || '&utm_campaign=x'
                         ELSE '?id='
                              || CAST((doc_id // 2) % 10 AS VARCHAR) END
                       WHEN 2 THEN CASE WHEN doc_id % 2 = 0
                         THEN '?gclid=g&fbclid=f' ELSE '' END
                       ELSE '' END
                  || CASE WHEN doc_id % 2 = 0
                       THEN '#sec' || CAST((doc_id // 2) % 3 AS VARCHAR)
                       ELSE '' END AS url
              FROM documents),
            s2 AS (SELECT doc_id, split_part(url, '#', 1) AS u0 FROM u),
            s3 AS (SELECT doc_id,
                     lower(regexp_extract(u0,
                       '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*')) AS pre0,
                     regexp_replace(u0,
                       '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*', '') AS rest
                   FROM s2),
            s4 AS (SELECT doc_id,
                     regexp_replace(
                       regexp_replace(pre0,
                         '^(http://[^:/?#]*):80$', '\1'),
                       '^(https://[^:/?#]*):443$', '\1') AS pre,
                     CASE WHEN instr(rest, '?') > 0
                       THEN substr(rest, 1, instr(rest, '?') - 1)
                       ELSE rest END AS path,
                     CASE WHEN instr(rest, '?') > 0
                       THEN substr(rest, instr(rest, '?') + 1)
                       ELSE '' END AS q
                   FROM s3),
            s5 AS (SELECT doc_id, pre, path,
                     array_to_string(list_filter(string_split(q, '&'),
                       x -> NOT (starts_with(x, 'utm_') OR
                         list_contains(['gclid','fbclid','msclkid','mc_eid'],
                                       split_part(x, '=', 1)))), '&') AS kept
                   FROM s4),
            canon AS (SELECT doc_id,
                   pre || CASE WHEN pre <> '' AND path = ''
                            THEN '/' ELSE path END
                       || CASE WHEN kept <> ''
                            THEN '?' || kept ELSE '' END AS canon_url
              FROM s5)
            SELECT canon_url, CAST(count(*) AS BIGINT) AS n_dups,
                   min(doc_id) AS doc_id
            FROM canon GROUP BY canon_url
        """,
        "source_rollup": """
            SELECT source, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars
            FROM documents GROUP BY source
        """,
        "train_shards": r"""
            SELECT doc_id,
                   CAST(md5_number_upper('1:' || CAST(doc_id AS VARCHAR))
                        % 16 AS BIGINT) AS shard,
                   CAST(md5_number_lower('1:' || CAST(doc_id AS VARCHAR))
                        AS UBIGINT) AS sort_key
            FROM documents
        """,
        "mixture_sample": r"""
            WITH t AS (
              SELECT doc_id, source,
                     substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) AS bucket,
                     CASE WHEN length(trim(text)) = 0 THEN 0
                          ELSE len(string_split_regex(trim(text), '\s+'))
                     END AS n_tokens
              FROM documents
            ),
            b AS (
              SELECT source, bucket, sum(n_tokens) AS btok
              FROM t GROUP BY source, bucket
            ),
            c AS (
              SELECT source, bucket,
                     CAST(sum(btok) OVER (
                       PARTITION BY source ORDER BY bucket
                     ) AS BIGINT) AS cum
              FROM b
            ),
            cut AS (
              SELECT source, max(bucket) AS cutoff
              FROM c WHERE cum <= 700 GROUP BY source
            )
            SELECT t.doc_id, t.source, CAST(t.n_tokens AS BIGINT) AS n_tokens
            FROM t JOIN cut USING (source)
            WHERE t.bucket <= cut.cutoff
        """,
        "doc_sample": """
            -- first md5 byte < 26 (0x1a): the two leading lowercase hex
            -- chars compare lexicographically == numerically
            SELECT doc_id, text FROM documents
            WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) < '1a'
        """,
        "length_outliers": """
            WITH t AS (SELECT doc_id, source, n_chars FROM documents),
            med AS (
              SELECT source,
                     CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS med
              FROM t GROUP BY source
            ),
            d AS (
              SELECT t.doc_id, t.source, t.n_chars,
                     abs(t.n_chars - med.med) AS dev
              FROM t JOIN med USING (source)
            ),
            mad AS (
              SELECT source, CAST(quantile_disc(dev, 0.5) AS BIGINT) AS mad
              FROM d GROUP BY source
            )
            SELECT d.doc_id, d.source, CAST(d.n_chars AS BIGINT) AS n_chars,
                   CAST(d.dev AS BIGINT) AS dev,
                   (d.dev * 1000 > 3000 * mad.mad) AS is_outlier
            FROM d JOIN mad USING (source)
        """,
        "weighted_sample": """
            -- Efraimidis-Spirakis: top-k by ln(u)/w, u = (md5 lower half
            -- + 1)/2^64 (exact dyadic divisor), integer micro fixed-point
            WITH s AS (
              SELECT doc_id, CAST(n_chars AS BIGINT) AS weight,
                     CAST(floor(
                       1000000.0
                       * ln((CAST(md5_number_lower(
                               '0:' || CAST(doc_id AS VARCHAR))
                             AS DOUBLE) + 1.0)
                            / 18446744073709551616.0)
                       / CAST(n_chars AS DOUBLE)
                     ) AS BIGINT) AS key_micro
              FROM documents
              WHERE n_chars > 0
            ),
            ranked AS (
              SELECT *, row_number() OVER (
                       ORDER BY key_micro DESC, doc_id ASC) AS rnk
              FROM s
            )
            SELECT doc_id, weight, key_micro, rnk FROM ranked WHERE rnk <= 100
        """,
        "doc_chunks": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(string_split_regex(trim(text), '\s+'),
                                 x -> x <> '') AS w
              FROM documents),
            c AS (
              SELECT doc_id, CAST(i AS BIGINT) AS chunk_id,
                     w[(i*128+1):(i*128+128)] AS win
              FROM toks,
                   unnest(range(0, CAST(ceil(len(w) / 128.0) AS BIGINT))) AS t(i))
            SELECT doc_id, chunk_id,
                   CAST(len(win) AS BIGINT) AS n_tokens,
                   array_to_string(win, ' ') AS chunk_text
            FROM c
        """,
        "docs_top_longest": """
            SELECT doc_id, length(text) AS n_chars
            FROM documents
            ORDER BY n_chars DESC, doc_id
            LIMIT 10
        """,
        "events_hourly": """
            SELECT CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour_bucket,
                   event_type,
                   count(*) AS n_events,
                   CAST(sum(CAST(round(value * 1000) AS BIGINT)) AS BIGINT)
                       AS total_value_milli
            FROM events
            GROUP BY 1, 2
        """,
        "events_hopping": """
            WITH e AS (
              SELECT epoch_us(ts) AS t,
                     CAST(round(value * 1000) AS BIGINT) AS vm
              FROM events
            ),
            x AS (
              SELECT ((t // 900000000) - u.i) * 900000000 AS window_start_us,
                     vm
              FROM e, unnest(range(0, 4)) AS u(i)
            )
            SELECT window_start_us,
                   count(*) AS n_events,
                   CAST(sum(vm) AS BIGINT) AS total_value_milli
            FROM x GROUP BY 1
        """,
        "user_sessions": """
            WITH g AS (
              SELECT user_id, event_id, ts,
                     CASE WHEN lag(ts) OVER w IS NULL
                               OR epoch_us(ts) - epoch_us(lag(ts) OVER w)
                                  > 30 * 60 * 1000000
                          THEN 1 ELSE 0 END AS new_sess
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            s AS (
              SELECT user_id, ts,
                     SUM(new_sess) OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id
                                         ROWS UNBOUNDED PRECEDING) - 1
                         AS session_id
              FROM g)
            SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
                   count(*) AS n_events,
                   CAST(epoch_us(max(ts)) - epoch_us(min(ts)) AS BIGINT)
                       AS duration_us
            FROM s GROUP BY user_id, session_id
        """,
        "referential_qa": """
            SELECT 'lineitem_orders' AS "check",
                   (SELECT count(*) FROM lineitem l
                    WHERE NOT EXISTS (SELECT 1 FROM orders o
                                      WHERE o.o_orderkey = l.l_orderkey))
                       AS n_orphans
            UNION ALL
            SELECT 'orders_customer',
                   (SELECT count(*) FROM orders o
                    WHERE NOT EXISTS (SELECT 1 FROM customer c
                                      WHERE c.c_custkey = o.o_custkey))
            UNION ALL
            SELECT 'customer_nation',
                   (SELECT count(*) FROM customer c
                    WHERE NOT EXISTS (SELECT 1 FROM nation n
                                      WHERE n.n_nationkey = c.c_nationkey))
            UNION ALL
            SELECT 'supplier_nation',
                   (SELECT count(*) FROM supplier s
                    WHERE NOT EXISTS (SELECT 1 FROM nation n
                                      WHERE n.n_nationkey = s.s_nationkey))
        """,
        "value_histogram": """
            -- floor (not //: DuckDB truncates) over exact integer millis
            WITH m AS (
              SELECT CAST(round(value * 1000) AS BIGINT) AS value_milli
              FROM events
            ),
            b AS (
              SELECT CAST(floor(value_milli / 50000) AS BIGINT) AS bin,
                     value_milli
              FROM m
            )
            SELECT bin, bin * 50000 AS lo_milli,
                   count(*) AS n,
                   CAST(sum(value_milli) AS BIGINT) AS sum_value_milli
            FROM b GROUP BY bin
        """,
        "rolling_events": """
            WITH e AS (
              SELECT event_id, user_id, epoch_us(ts) AS tus,
                     CAST(round(value * 1000) AS BIGINT) AS value_milli
              FROM events
            )
            SELECT event_id, user_id,
                   count(*) OVER w_range AS n_window,
                   CAST(sum(value_milli) OVER w_range AS BIGINT)
                       AS win_value_milli,
                   tus - lag(tus) OVER (PARTITION BY user_id
                                        ORDER BY tus, event_id) AS gap_us
            FROM e
            WINDOW w_range AS (PARTITION BY user_id ORDER BY tus
                               RANGE BETWEEN 3600000000 PRECEDING
                                     AND CURRENT ROW)
        """,
        "purchase_attribution": """
            WITH p AS (SELECT event_id, user_id, ts FROM events
                       WHERE event_type = 'purchase'),
                 s AS (SELECT event_id, user_id, ts FROM events
                       WHERE event_type = 'signup'),
                 j AS (
                   SELECT p.event_id, p.user_id, p.ts,
                          s.event_id AS signup_event_id, s.ts AS signup_ts,
                          row_number() OVER (
                            PARTITION BY p.event_id
                            ORDER BY s.ts DESC, s.event_id DESC) AS rn
                   FROM p JOIN s
                     ON p.user_id = s.user_id AND s.ts <= p.ts)
            SELECT event_id, user_id, signup_event_id,
                   CAST(epoch_us(ts) - epoch_us(signup_ts) AS BIGINT) AS lag_us
            FROM j WHERE rn = 1
        """,
        "value_bands": """
            WITH b AS (
              SELECT * FROM (VALUES
                ('neg', -1e18, 0.0), ('low', 0.0, 50.0), ('mid', 50.0, 100.0),
                ('high', 100.0, 200.0), ('huge', 200.0, 1e18))
              AS t(band, lo, hi))
            SELECT b.band, count(*) AS n_events,
                   CAST(sum(CAST(round(e.value * 1000) AS BIGINT)) AS BIGINT)
                       AS total_value_milli
            FROM events e JOIN b ON e.value >= b.lo AND e.value < b.hi
            GROUP BY b.band
        """,
        "top_orders_per_status": """
            WITH ranked AS (
              SELECT o_orderkey, o_orderstatus,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents,
                     row_number() OVER (
                       PARTITION BY o_orderstatus
                       ORDER BY CAST(round(o_totalprice * 100) AS BIGINT) DESC,
                                o_orderkey
                     ) AS rank
              FROM orders)
            SELECT o_orderkey, o_orderstatus, price_cents, CAST(rank AS BIGINT) AS rank
            FROM ranked WHERE rank <= 3
        """,
        "parts_by_brand": """
            SELECT p_brand,
                   count(*) AS n_parts,
                   CAST(sum(CAST(round(p_retailprice * 100) AS BIGINT)) AS BIGINT)
                       AS total_price_cents,
                   CAST(min(p_size) AS BIGINT) AS min_size,
                   CAST(max(p_size) AS BIGINT) AS max_size
            FROM part
            GROUP BY p_brand
        """,
        "sim_topk": """
            WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings WHERE vec_id = 0),
                 scored AS (
                   SELECT vec_id,
                          list_cosine_similarity(CAST(embedding AS DOUBLE[]),
                                                 (SELECT qe FROM q)) AS raw_sim
                   FROM embeddings)
            SELECT CAST(row_number() OVER (ORDER BY raw_sim DESC, vec_id) AS BIGINT) AS rank,
                   vec_id, round(raw_sim, 4) AS sim
            FROM scored
            ORDER BY raw_sim DESC, vec_id
            LIMIT 10
        """,
    }
