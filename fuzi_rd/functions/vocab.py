"""Corpus-level vocabulary and distribution statistics.

  token_counts       global term frequencies (word-count with a per-batch
                     combiner: only (token, partial_count) pairs shuffle)
  vocab_topk         top-k most frequent tokens, deterministic tiebreak
  length_histogram   exact histogram of document character lengths
  length_quantiles   exact length quantiles from the histogram (DuckDB
                     quantile_disc semantics: value at rank ceil(q*n)-1)

Scale notes (100 TB): token counting is the canonical combiner pattern —
each batch collapses to its distinct tokens before the groupby, so the
exchange carries vocabulary-sized partials, not corpus-sized token streams.
The quantile path reduces the corpus to a (distinct-length -> count)
histogram first; distinct lengths are bounded by the max document size
(~1e6 rows worst case), so pulling the histogram to the driver is a
fixed-size reduction, not a dataset materialization.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fuzi_rd.broadcast import resolve

# lowercase alpha runs; everything else is a separator.  Matches the oracle
# `regexp_split_to_array(lower(text), '[^a-z]+')` exactly (both RE2 on UTF-8).
TOKEN_SPLIT_PATTERN = "[^a-z]+"


def _rename_or_empty(names, types):
    """Positional rename that tolerates the schema-less zero-row blocks
    Ray's Aggregate operator emits for empty hash partitions."""
    schema = pa.schema(list(zip(names, types)))

    def _r(b: pa.Table) -> pa.Table:
        if b.num_columns != len(names):
            return schema.empty_table()
        return b.rename_columns(names)

    return _r


def _token_partial_counts(text_col: str):
    def _partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch.column(text_col)), TOKEN_SPLIT_PATTERN
        )
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.combine_chunks().value_counts() if isinstance(
            flat, pa.ChunkedArray
        ) else flat.value_counts()
        return pa.table({"token": vc.field(0), "cnt": vc.field(1)})

    return _partial


def token_counts(ds, text_col: str = "text"):
    """Global term frequencies: (token, freq), one row per distinct token.

    The per-batch ``value_counts`` is the combiner — the groupby shuffles
    at most |batch vocabulary| rows per batch, never one row per token
    occurrence."""
    partials = ds.map_batches(_token_partial_counts(text_col), batch_format="pyarrow")
    summed = partials.groupby("token").sum("cnt")
    return summed.map_batches(
        _rename_or_empty(["token", "freq"], [pa.string(), pa.int64()]),
        batch_format="pyarrow",
    )


def vocab_topk(ds, k: int = 100, text_col: str = "text"):
    """Top-k most frequent tokens with a deterministic tiebreak
    (freq desc, token asc).  The sort input is the global vocabulary —
    tiny next to the corpus — so a full distributed sort + limit is fine
    even when the corpus is 100 TB."""
    return token_counts(ds, text_col).sort(
        ["freq", "token"], descending=[True, False]
    ).limit(k)


def token_df(ds, text_col: str = "text", doc_col: str = "doc_id", min_docs: int = 1):
    """Document frequency per token: (token, df) where df = number of
    DISTINCT documents containing the token — the other half of TF-IDF
    (pair with :func:`token_counts` for the TF side).

    Combiner shape: each row is one document, so deduplicating tokens
    WITHIN the row (one ``unique`` per document, vectorized over the
    batch) makes every batch emit at most |doc vocabulary| rows per doc;
    the groupby then sums plain integers — no distinct-aggregation state
    crosses the exchange."""

    def _partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch.column(text_col)), TOKEN_SPLIT_PATTERN
        )
        # per-document unique: flatten each list through a set once
        out: list[str] = []
        for lst in toks.to_pylist():
            out.extend({t for t in lst if t})
        arr = pa.array(out, pa.string())
        vc = arr.value_counts()
        return pa.table({"token": vc.field(0), "cnt": vc.field(1)})

    partials = ds.map_batches(_partial, batch_format="pyarrow")
    summed = partials.groupby("token").sum("cnt")
    renamed = summed.map_batches(
        _rename_or_empty(["token", "df"], [pa.string(), pa.int64()]),
        batch_format="pyarrow",
    )
    if min_docs > 1:
        renamed = renamed.map_batches(
            lambda b: b.filter(pc.greater_equal(b.column("df"), min_docs)),
            batch_format="pyarrow",
        )
    return renamed


# -- approximate distinct counting (HyperLogLog) -----------------------------

HLL_P = 14  # 2^14 registers = 16 KiB/accumulator, ~0.8% standard error


def _hll_update(registers: np.ndarray, values) -> None:
    """Fold md5-derived 64-bit hashes into HLL registers in place."""
    p = HLL_P
    for v in values:
        h = int.from_bytes(
            hashlib.md5(str(v).encode("utf-8")).digest()[:8], "little"
        )
        idx = h & ((1 << p) - 1)
        rest = h >> p
        # rank: 1 + leading-zero run of the remaining 64-p bits
        rank = (64 - p) - rest.bit_length() + 1 if rest else (64 - p) + 1
        if rank > registers[idx]:
            registers[idx] = rank


def _hll_estimate(registers: np.ndarray) -> int:
    m = float(len(registers))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / float(np.sum(np.exp2(-registers.astype(np.float64))))
    zeros = int(np.count_nonzero(registers == 0))
    if est <= 2.5 * m and zeros:  # small-range linear counting correction
        est = m * np.log(m / zeros)
    return int(round(est))


def approx_distinct(ds, col: str, split_tokens: bool = False):
    """HyperLogLog distinct-count of ``col`` (or of its whitespace-ish
    tokens with ``split_tokens=True``): the corpus reduces to ONE 16 KiB
    register array via per-block accumulate + elementwise-max tree merge
    inside ``Dataset.aggregate`` — the driver never sees a key, so this
    holds at any corpus size (vs the exact ``token_counts().count()``
    path whose exchange is vocabulary-sized).  ~0.8% standard error."""
    from ray.data.aggregate import AggregateFn

    m = 1 << HLL_P

    def _acc(registers: np.ndarray, block) -> np.ndarray:
        if split_tokens:
            toks = pc.split_pattern_regex(
                pc.utf8_lower(block.column(col)), TOKEN_SPLIT_PATTERN
            )
            flat = pc.list_flatten(toks)
            flat = flat.filter(pc.not_equal(flat, ""))
            _hll_update(registers, flat.to_pylist())
        else:
            _hll_update(registers, block.column(col).drop_null().to_pylist())
        return registers

    agg = AggregateFn(
        init=lambda _k: np.zeros(m, dtype=np.uint8),
        merge=lambda a, b: np.maximum(a, b),
        accumulate_block=_acc,
        name="hll",
    )
    result = ds.aggregate(agg)
    if not result or result.get("hll") is None:
        return 0
    return _hll_estimate(result["hll"])


def _tfidf_rows(
    batch: pa.Table, idf_ref, k: int, id_col: str, text_col: str
) -> pa.Table:
    """Task UDF: each document's top-``k`` (token, tf, score_milli, rnk)
    rows against the idf map, resolved once per worker process."""
    import re

    idf = resolve(idf_ref)
    ids = batch.column(id_col).to_pylist()
    texts = batch.column(text_col).to_pylist()
    out = {"doc_id": [], "token": [], "tf": [], "score_milli": [], "rnk": []}
    split = re.compile(TOKEN_SPLIT_PATTERN)
    for did, text in zip(ids, texts):
        tf: dict[str, int] = {}
        for t in split.split((text or "").lower()):
            if t:
                tf[t] = tf.get(t, 0) + 1
        scored = [(t, c, c * idf[t]) for t, c in tf.items() if t in idf]
        scored.sort(key=lambda x: (-x[2], x[0]))
        for rnk, (t, c, s) in enumerate(scored[:k], start=1):
            out["doc_id"].append(did)
            out["token"].append(t)
            out["tf"].append(c)
            out["score_milli"].append(s)
            out["rnk"].append(rnk)
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "token": pa.array(out["token"], pa.string()),
            "tf": pa.array(out["tf"], pa.int64()),
            "score_milli": pa.array(out["score_milli"], pa.int64()),
            "rnk": pa.array(out["rnk"], pa.int64()),
        }
    )


def tfidf_topk(
    ds,
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    top_vocab: int | None = None,
):
    """Top-``k`` TF-IDF terms per document: (doc_id, token, tf, score_milli,
    rnk) — the per-document keyword signal curation and retrieval pipelines
    derive from a corpus (``token_df`` is the fit half; this is the apply).

    Two-stage broadcast, the same shape as ``lm_score.unigram_logprob``:

    1. **Fit**: document frequencies via :func:`token_df` (per-document
       unique combiner, integer partials on the exchange) reduce to a
       vocabulary-sized table; ``top_vocab`` caps what the driver holds at
       crawl scale (tokens outside the cap simply don't rank — they are
       the rare tail whose idf would dominate noise anyway).
    2. **Score**: the idf map crosses the cluster ONCE via ``ray.put``;
       task UDFs score batches locally and emit at most ``k`` rows per
       document.  No shuffle ever carries a per-occurrence token row.

    Scores are integer fixed-point — ``tf * floor(1000 * ln(n_docs/df))``
    milli-nats — so ranking and the DuckDB oracle cannot drift by float
    rounding; ties break (score desc, token asc), matching SQL
    ``row_number() OVER (... ORDER BY score_milli DESC, token ASC)``."""
    import ray

    n_docs = ds.count()
    df_tbl = token_df(ds, text_col=text_col, doc_col=id_col)
    if top_vocab is not None:
        df_tbl = df_tbl.sort(["df", "token"], descending=[True, False]).limit(
            top_vocab
        )
    idf_milli = {
        r["token"]: math.floor(1000.0 * math.log(n_docs / r["df"]))
        for r in df_tbl.iter_rows()
    }
    return ds.map_batches(
        _tfidf_rows,
        fn_kwargs={
            "idf_ref": ray.put(idf_milli),
            "k": k,
            "id_col": id_col,
            "text_col": text_col,
        },
        batch_format="pyarrow",
        batch_size=1024,
    )


def length_histogram(ds, text_col: str = "text"):
    """Exact histogram of document character lengths: (n_chars, n_docs)."""

    def _lens(batch: pa.Table) -> pa.Table:
        lens = pc.cast(pc.utf8_length(batch.column(text_col)), pa.int64())
        # NULL text carries no length — same as quantile_disc's NULL handling
        return pa.table({"n_chars": lens.drop_null()})

    hist = ds.map_batches(_lens, batch_format="pyarrow").groupby("n_chars").count()
    return hist.map_batches(
        _rename_or_empty(["n_chars", "n_docs"], [pa.int64(), pa.int64()]),
        batch_format="pyarrow",
    )


def length_quantiles(ds, qs=(0.1, 0.25, 0.5, 0.75, 0.9, 0.99), text_col: str = "text"):
    """EXACT length quantiles — (q, n_chars), DuckDB ``quantile_disc``
    semantics (the element at sorted rank ``ceil(q*n)-1``).

    Runs as a distributed histogram reduction; only the
    (distinct length, count) table — bounded by the max document length,
    independent of corpus row count — reaches the driver."""
    hist = length_histogram(ds, text_col)
    parts = [b for b in hist.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not parts:
        return pa.table({"q": pa.array([], pa.float64()), "n_chars": pa.array([], pa.int64())})
    tbl = pa.concat_tables(parts)
    lens = tbl.column("n_chars").to_numpy(zero_copy_only=False)
    counts = tbl.column("n_docs").to_numpy(zero_copy_only=False)
    order = np.argsort(lens)
    lens, counts = lens[order], counts[order]
    cum = np.cumsum(counts)
    n = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q in qs:
        if n == 0:
            continue
        rank = max(0, math.ceil(q * n) - 1)  # 0-based rank of quantile_disc
        idx = int(np.searchsorted(cum, rank + 1))
        out_q.append(float(q))
        out_v.append(int(lens[idx]))
    return pa.table(
        {"q": pa.array(out_q, pa.float64()), "n_chars": pa.array(out_v, pa.int64())}
    )


DEFAULT_MAX_QUANTILE_STRATA = 1_000_000


def grouped_quantiles(
    ds,
    key_col: str,
    value_col: str,
    qs=(0.25, 0.5, 0.75),
    max_strata: int = DEFAULT_MAX_QUANTILE_STRATA,
):
    """Per-group EXACT quantiles — the grouped twin of
    :func:`length_quantiles`, same ``quantile_disc`` rank semantics
    (element at 0-based sorted rank ``ceil(q*n)-1`` within each group).

    Scale shape: per-group sorting never happens — ONE fixed-width
    ``(key, value) -> count`` groupby is the only exchange, and the
    driver holds just that histogram (bounded by groups x distinct
    values, independent of corpus rows; hard-fail past ``max_strata``).
    Returns one row per key: ``key, n, p<q> ...`` (int64 columns named
    ``p25``-style from ``qs``)."""
    agg = ds.groupby([key_col, value_col]).count()
    per_key: dict = {}
    n_strata = 0
    for r in agg.iter_rows():
        n_strata += 1
        if n_strata > max_strata:
            raise ValueError(
                f"grouped_quantiles: > {max_strata} (key, value) strata; "
                "bucket the value column or raise max_strata — the "
                "histogram must stay driver-sized"
            )
        per_key.setdefault(r[key_col], []).append(
            (int(r[value_col]), int(r["count()"]))
        )
    keys, ns = [], []
    q_cols: dict[str, list[int]] = {
        f"p{int(q * 100)}": [] for q in qs
    }
    for key in sorted(per_key):
        pairs = sorted(per_key[key])
        vals = np.array([v for v, _ in pairs], dtype=np.int64)
        cum = np.cumsum([c for _, c in pairs])
        n = int(cum[-1])
        keys.append(key)
        ns.append(n)
        for q in qs:
            rank = max(0, math.ceil(q * n) - 1)
            idx = int(np.searchsorted(cum, rank + 1))
            q_cols[f"p{int(q * 100)}"].append(int(vals[idx]))
    cols = {key_col: pa.array(keys), "n": pa.array(ns, pa.int64())}
    for name, vals_list in q_cols.items():
        cols[name] = pa.array(vals_list, pa.int64())
    return pa.table(cols)


def mad_outliers(
    ds,
    key_col: str,
    value_col: str,
    thresh_milli: int = 3000,
    max_strata: int = DEFAULT_MAX_QUANTILE_STRATA,
):
    """Robust per-group outlier flags via median absolute deviation: a row
    is an outlier when ``|v - median| * 1000 > thresh_milli * MAD`` within
    its group — the curation QA gate that survives the heavy-tailed length
    distributions a mean/stddev z-score chokes on.  Pure INTEGER
    arithmetic end to end (no division, no sqrt), so flags are
    oracle-exact.

    Scale shape: two bounded exchanges (the same fixed-width
    ``(key, value) -> count`` histogram groupby as
    :func:`grouped_quantiles`, run once on values and once on
    deviations); each fit reduces to a per-group scalar broadcast via
    ``ray.put``; the flagging pass is row-local.  ``ds`` is consumed
    three times (two fits + the flag pass) — pass a re-readable source
    (a column-pruned ``read_parquet``), not an expensive lazy pipeline.

    Returns a Dataset of (id-and-key columns of ``ds``, value, dev,
    is_outlier).  A group with MAD 0 (over half its rows share the
    median) flags every row off the median, the standard MAD degeneracy.
    """
    import ray

    med_tbl = grouped_quantiles(
        ds, key_col, value_col, qs=(0.5,), max_strata=max_strata
    )
    med = {
        k: int(m)
        for k, m in zip(
            med_tbl.column(key_col).to_pylist(), med_tbl.column("p50").to_pylist()
        )
    }
    med_ref = ray.put(med)

    def _dev(batch: pa.Table) -> pa.Table:
        m = ray.get(med_ref)
        keys = batch.column(key_col).to_pylist()
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        meds = np.array([m[k] for k in keys], dtype=np.int64)
        return pa.table(
            {
                key_col: batch.column(key_col),
                "dev": pa.array(np.abs(v - meds), pa.int64()),
            }
        )

    mad_tbl = grouped_quantiles(
        ds.map_batches(_dev, batch_format="pyarrow"),
        key_col,
        "dev",
        qs=(0.5,),
        max_strata=max_strata,
    )
    mad = {
        k: int(m)
        for k, m in zip(
            mad_tbl.column(key_col).to_pylist(), mad_tbl.column("p50").to_pylist()
        )
    }
    mad_ref = ray.put(mad)

    def _flag(batch: pa.Table) -> pa.Table:
        m = ray.get(med_ref)
        md = ray.get(mad_ref)
        keys = batch.column(key_col).to_pylist()
        v = batch.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        meds = np.array([m[k] for k in keys], dtype=np.int64)
        mads = np.array([md[k] for k in keys], dtype=np.int64)
        dev = np.abs(v - meds)
        out = {c: batch.column(c) for c in batch.column_names}
        out[value_col] = pa.array(v, pa.int64())
        out["dev"] = pa.array(dev, pa.int64())
        out["is_outlier"] = pa.array(
            dev * 1000 > thresh_milli * mads, pa.bool_()
        )
        return pa.table(out)

    return ds.map_batches(_flag, batch_format="pyarrow")


# -- Count-Min sketch (watchlist counting without a vocabulary exchange) -----

CMS_WIDTH = 1 << 14  # 16384 counters/row
CMS_DEPTH = 4  # P(over by > e/width * total) <= exp(-depth) per query


def _cms_hash(row: int, token: str) -> int:
    return int.from_bytes(
        hashlib.md5(f"{row}:{token}".encode("utf-8")).digest()[:8], "little"
    )


def cms_sketch(ds, col: str, split_tokens: bool = False,
               width: int = CMS_WIDTH, depth: int = CMS_DEPTH):
    """Count-Min sketch of ``col`` (or its token stream): the corpus
    reduces to ONE (depth x width) uint64 counter matrix via per-block
    accumulate + elementwise-ADD tree merge inside ``Dataset.aggregate``.

    The point at 100 TB: estimating counts for a bounded WATCHLIST
    (blocklist terms, benchmark markers, competitor names) must not pay
    the vocabulary-sized exchange of exact ``token_counts`` — an unbounded
    crawl vocabulary makes that exchange the bottleneck.  The sketch is a
    fixed 512 KiB regardless of corpus size; estimates overshoot by at
    most ``e/width x total_count`` with probability ``1 - exp(-depth)``
    per query, and never undershoot.

    Returns ``(matrix: np.ndarray[depth, width], total: int)``.
    """
    from ray.data.aggregate import AggregateFn

    def _acc(state, block) -> np.ndarray:
        mat = state
        if split_tokens:
            toks = pc.split_pattern_regex(
                pc.utf8_lower(block.column(col)), TOKEN_SPLIT_PATTERN
            )
            flat = pc.list_flatten(toks)
            flat = flat.filter(pc.not_equal(flat, ""))
        else:
            flat = block.column(col).drop_null()
        vc = (
            flat.combine_chunks().value_counts()
            if isinstance(flat, pa.ChunkedArray)
            else flat.value_counts()
        )
        # per-batch combiner: one update per DISTINCT token in the block
        for tok, cnt in zip(vc.field(0).to_pylist(), vc.field(1).to_pylist()):
            for r in range(depth):
                mat[r, _cms_hash(r, tok) % width] += cnt
        mat[depth, 0] += sum(vc.field(1).to_pylist())  # total row
        return mat

    agg = AggregateFn(
        init=lambda _k: np.zeros((depth + 1, width), dtype=np.uint64),
        merge=lambda a, b: a + b,
        accumulate_block=_acc,
        name="cms",
    )
    result = ds.aggregate(agg)
    if not result or result.get("cms") is None:
        return np.zeros((depth, width), dtype=np.uint64), 0
    mat = result["cms"]
    return mat[:depth], int(mat[depth, 0])


def cms_token_counts(ds, tokens, text_col: str = "text",
                     width: int = CMS_WIDTH, depth: int = CMS_DEPTH) -> pa.Table:
    """Estimated corpus counts for a token watchlist via one Count-Min
    reduction: (token, est_count, total_tokens) — ``est_count`` never
    undershoots the true count and overshoots by at most
    ``~e/width x total_tokens`` w.h.p."""
    mat, total = cms_sketch(
        ds, text_col, split_tokens=True, width=width, depth=depth
    )
    ests = []
    for tok in tokens:
        est = min(
            int(mat[r, _cms_hash(r, tok) % width]) for r in range(depth)
        )
        ests.append(est)
    return pa.table(
        {
            "token": pa.array(list(tokens), pa.string()),
            "est_count": pa.array(ests, pa.int64()),
            "total_tokens": pa.array([total] * len(ests), pa.int64()),
        }
    )
