"""Deterministic stratified (per-key quota) sampling.

Web corpora are domain-skewed: a handful of hosts contribute most pages.
Balanced pretraining subsets keep at most ~``cap`` documents per domain,
which a naive global sample can't do.  This is the two-stage broadcast
pattern again:

1. **Quota fit**: ``groupby(key).count()`` — a small shuffle whose output
   is one row per stratum — then per-stratum keep thresholds
   ``min(256, 256 * cap // n)`` (integer math, so the DuckDB oracle is
   exact).  The stratum->threshold dict is bounded by the number of
   domains, NOT corpus size (document-scale guidance: ~10^7 strata ≈ a
   few hundred MB; cap the stratum cardinality upstream if it exceeds
   that).
2. **Filter**: thresholds ship once via ``ray.put``; each task keeps rows
   whose ``md5(id)`` first byte falls under its stratum's threshold — the
   same deterministic no-RNG rule as the global ``doc_sample`` query, so
   the kept set is stable across runs, engines, batch sizes and cluster
   shapes.

Expectation semantics: each stratum keeps ``≈ n * thr / 256`` rows (the
md5 byte is uniform), i.e. ``≈ cap`` for large strata and everything for
strata smaller than the cap.  Exact-count quotas would need a per-stratum
sort — a full shuffle this avoids on purpose.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from fuzi_rd.broadcast import resolve

__all__ = [
    "stratified_sample_keep",
    "split_assign",
    "mixture_token_sample",
]

DEFAULT_MAX_MIXTURE_STRATA = 100_000


def stratified_sample_keep(
    ds,
    key_col: str,
    id_col: str = "doc_id",
    cap: int = 30,
):
    """Keep ~``cap`` rows per ``key_col`` stratum; returns a Dataset."""
    import ray

    counts = ds.groupby(key_col).count()
    thresholds = {
        r[key_col]: min(256, (256 * cap) // max(int(r["count()"]), 1))
        for r in counts.iter_rows()
    }
    thr_ref = ray.put(thresholds)

    def keep(batch: pa.Table) -> pa.Table:
        thr = ray.get(thr_ref)
        keys = batch.column(key_col).to_pylist()
        ids = batch.column(id_col).to_pylist()
        mask = pa.array(
            [
                hashlib.md5(str(i).encode()).digest()[0] < thr.get(k, 0)
                for i, k in zip(ids, keys)
            ],
            pa.bool_(),
        )
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


def split_assign(
    ds,
    id_col: str = "doc_id",
    t_train: int = 230,
    t_val: int = 243,
    col: str = "split",
):
    """Deterministic train/val/test assignment: append a ``split`` column
    keyed on ``md5(id)``'s first byte — ``train`` when ``byte < t_train``,
    ``val`` when ``byte < t_val``, else ``test`` (defaults ≈ 90/5/5).

    The same no-RNG rule as ``doc_sample``: assignment is a pure function
    of the row id, so it is stable across runs, engines, batch sizes,
    cluster shapes and re-shards — a document can never migrate between
    train and test when the corpus is re-processed, which is the property
    that matters for contamination control.  Embarrassingly parallel: one
    ``map_batches``, no shuffle, no driver state."""
    if not 0 <= t_train <= t_val <= 256:
        raise ValueError("need 0 <= t_train <= t_val <= 256")

    def assign(batch: pa.Table) -> pa.Table:
        labels = []
        for i in batch.column(id_col).to_pylist():
            b = hashlib.md5(str(i).encode()).digest()[0]
            labels.append(
                "train" if b < t_train else ("val" if b < t_val else "test")
            )
        return batch.append_column(col, pa.array(labels, pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def _mixture_annotate(
    id_col: str, text_col: str
):
    """Row-local bucket + token-count annotation shared by both passes of
    :func:`mixture_token_sample`.  Bucket = first two md5 hex chars of the
    id ('00'..'ff', 256 buckets) — a STRING, so lexicographic comparison
    equals numeric comparison and the DuckDB oracle needs no hex-to-int
    conversion (same trick as ``doc_sample``)."""
    import pyarrow.compute as pc

    def annotate(batch: pa.Table) -> pa.Table:
        bucket = pa.array(
            [
                hashlib.md5(str(i).encode()).hexdigest()[:2]
                for i in batch.column(id_col).to_pylist()
            ],
            pa.string(),
        )
        trimmed = pc.utf8_trim_whitespace(
            pc.fill_null(batch.column(text_col), "")
        )
        n = pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+"))
        n = pc.if_else(
            pc.equal(pc.utf8_length(trimmed), 0),
            pa.scalar(0, pa.int32()),
            n,
        )
        return batch.append_column("bucket", bucket).append_column(
            "n_tokens", pc.cast(n, pa.int64())
        )

    return annotate


def _keep_under_cutoff(batch: pa.Table, cut_ref, source_col: str) -> pa.Table:
    """Task UDF: keep rows whose bucket is <= their source's broadcast
    cutoff.  Vectorized: dictionary-encode source (few distinct values per
    batch), map cutoffs through the dictionary once, then ONE Arrow string
    comparison per row — no Python zip over rows.  A source with no
    affordable bucket maps to "" which no 2-hex-char bucket can satisfy."""
    import pyarrow.compute as pc

    cut: dict[str, str] = resolve(cut_ref)
    src = batch.column(source_col)
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    enc = src.dictionary_encode()
    cut_by_code = pa.array(
        [cut.get(v, "") for v in enc.dictionary.to_pylist()], pa.string()
    )
    mask = pc.less_equal(batch.column("bucket"), cut_by_code.take(enc.indices))
    return batch.filter(mask).drop_columns(["bucket"])


def mixture_token_sample(
    ds,
    budgets: dict[str, int] | int,
    source_col: str = "source",
    id_col: str = "doc_id",
    text_col: str = "text",
    max_strata: int = DEFAULT_MAX_MIXTURE_STRATA,
):
    """Token-budget mixture sampling — the data-mixing step that turns
    per-source weights (DoReMi / The Pile style mixture proportions) into
    an actual document subset: from every source keep a deterministic
    subset whose total whitespace-token count is the largest achievable
    ``<= budget`` at bucket granularity.

    Exact-at-bucket-granularity semantics (no RNG, no sort of the corpus):
    docs hash into 256 md5 buckets; a source keeps its lexicographically
    first k buckets where k is the largest prefix whose token cumsum fits
    the budget.  Kept set is a pure function of (id, budgets) — stable
    across runs, engines, batch sizes and cluster shapes.

    Scale shape (the stratified-sample two-stage broadcast pattern):

    1. annotate bucket + n_tokens row-local, then ``groupby(source,
       bucket).sum(n_tokens)`` — the ONLY exchange, fixed-width rows,
       output bounded by sources x 256 (hard-fail past ``max_strata``);
    2. per-source bucket cumsum + cutoff on the driver (tiny), cutoffs
       broadcast once via ``ray.put``;
    3. row-local filter ``bucket <= cutoff[source]`` (sources with no
       affordable bucket keep nothing).  Document text never crosses an
       exchange; the corpus is read twice (count pass + filter pass),
       the same documented trade as ``line_scrub``.

    ``budgets`` is per-source token budgets (dict) or one budget for every
    source (int).  Returns the surviving rows plus ``n_tokens``.
    """
    import ray
    from ray.data.aggregate import Sum

    annotate = _mixture_annotate(id_col, text_col)
    btok = (
        ds.map_batches(annotate, batch_format="pyarrow")
        .groupby([source_col, "bucket"])
        .aggregate(Sum("n_tokens", alias_name="btok"))
    )
    per_source: dict[str, list[tuple[str, int]]] = {}
    n_strata = 0
    for row in btok.iter_rows():
        n_strata += 1
        if n_strata > max_strata:
            raise ValueError(
                f"mixture_token_sample: > {max_strata} (source, bucket) "
                "strata; cap source cardinality upstream or raise "
                "max_strata — the cutoff table must stay driver-sized"
            )
        per_source.setdefault(row[source_col], []).append(
            (row["bucket"], int(row["btok"]))
        )

    def budget_for(src: str) -> int:
        if isinstance(budgets, dict):
            return int(budgets.get(src, 0))
        return int(budgets)

    cutoffs: dict[str, str] = {}
    for src, pairs in per_source.items():
        pairs.sort()
        cum = 0
        for bucket, tok in pairs:
            cum += tok
            if cum > budget_for(src):
                break
            cutoffs[src] = bucket
    return ds.map_batches(annotate, batch_format="pyarrow").map_batches(
        _keep_under_cutoff,
        fn_kwargs={"cut_ref": ray.put(cutoffs), "source_col": source_col},
        batch_format="pyarrow",
    )


def weighted_sample_topk(
    ds,
    k: int = 100,
    weight_col: str = "n_chars",
    id_col: str = "doc_id",
    seed: int = 0,
):
    """Weighted sampling WITHOUT replacement via the Efraimidis–Spirakis
    one-pass key rule (Efraimidis & Spirakis 2006, "Weighted random
    sampling with a reservoir"): every row gets key = ln(u)/w with a
    DETERMINISTIC per-row uniform u, and the k largest keys ARE a weighted
    sample without replacement.  Returns (id_col, weight, key_micro, rnk).

    Deterministic + oracle-exact: u = (md5_number_lower("seed:id") + 1) /
    2^64 (the same DuckDB md5 convention as ``shard_assign``; +1 keeps u
    in (0, 1] so ln is finite), and ranking uses integer micro fixed-point
    ``floor(1e6 * ln(u) / w)`` with an id tie-break, so engine and SQL
    sort the SAME integers — membership can't flip on a float rounding
    edge.  Rows with non-positive weight are excluded (both sides).

    Scale shape: the key is a pure row-local function (one map_batches, no
    exchange); each block pre-reduces to its local top-k, so the global
    sort+limit sees at most k x n_blocks fixed-width rows, never the
    corpus."""
    import hashlib
    import struct

    import numpy as np
    import pyarrow.compute as pc

    if k < 1:
        raise ValueError("k must be >= 1")

    def _keys(batch: pa.Table) -> pa.Table:
        w = pc.cast(batch.column(weight_col), pa.float64()).to_numpy(
            zero_copy_only=False
        )
        ids = batch.column(id_col).to_pylist()
        h = np.array(
            [
                struct.unpack(
                    "<Q", hashlib.md5(f"{seed}:{i}".encode()).digest()[8:]
                )[0]
                for i in ids
            ],
            dtype=np.uint64,
        )
        u = (h.astype(np.float64) + 1.0) / 18446744073709551616.0
        keep = w > 0
        key_micro = np.zeros(len(w), dtype=np.int64)
        key_micro[keep] = np.floor(
            1000000.0 * np.log(u[keep]) / w[keep]
        ).astype(np.int64)
        out = pa.table(
            {
                id_col: batch.column(id_col),
                "weight": pc.cast(batch.column(weight_col), pa.int64()),
                "key_micro": pa.array(key_micro, pa.int64()),
            }
        ).filter(pa.array(keep, pa.bool_()))
        # block-local top-k: bounds the global sort to k rows per block
        return out.sort_by(
            [("key_micro", "descending"), (id_col, "ascending")]
        ).slice(0, k)

    topk = (
        ds.map_batches(_keys, batch_format="pyarrow")
        .sort(["key_micro", id_col], descending=[True, False])
        .limit(k)
    )

    def _rank(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "rnk", pa.array(range(1, len(batch) + 1), pa.int64())
        )

    return topk.repartition(1).map_batches(
        _rank, batch_size=None, batch_format="pyarrow"
    )
