"""Unigram language-model surprisal scoring.

The CCNet/Gopher-style corpus-quality signal one step up from the
`textstats` ratios: score each document by the negative log-likelihood of
its tokens under a unigram model fit on the corpus itself.  Unusually
fluent or degenerate documents (boilerplate, keyword stuffing, lorem
ipsum) sit in the tails of the per-token mean.

Shape at 100 TB — the canonical two-stage broadcast pattern:

1. **Fit**: per-batch partial token counts (a combiner inside
   ``map_batches``, so only unique-tokens-per-batch rows reach the
   exchange) -> small ``groupby("tok").sum`` -> optional ``top_k`` cap
   (``sort + limit``).  The vocabulary, not the corpus, crosses the wire.
2. **Score**: the vocabulary dict goes to the object store ONCE via
   ``ray.put``; scoring tasks resolve it once per worker process and
   score batches locally.  No shuffle touches document rows.

The driver holds only the (capped) vocabulary — with ``top_k`` set this is
bounded regardless of corpus size; tokens outside the cap score as
count-1 events ("OOV" surprisal).  With ``top_k=None`` (the oracle
setting) the fit is exact and the result matches a DuckDB re-derivation
token for token.

Scores are integer fixed-point — ``floor(-1000 * ln(c / total))`` milli-
nats per token — so sums and means are exact integers and the DuckDB
oracle can't drift by float-summation order.
"""

from __future__ import annotations

import math
import re

import pyarrow as pa
import pyarrow.compute as pc

from fuzi_rd.broadcast import resolve

__all__ = [
    "fit_unigram_vocab",
    "unigram_logprob",
    "ppl_buckets",
    "fit_bigram_counts",
    "bigram_logprob",
    "dsir_weights",
]

_TOKEN_RE = re.compile(r"\s+")

# skew guard, ON by default (the df_cap lesson: production entry points
# must not ship with the hazard live): an unbroken megabyte "token" is
# binary junk, not vocabulary, and would ride the count shuffle as a
# megabyte key.  The oracle query passes None (exact, whitespace-only).
DEFAULT_MAX_TOKEN_CHARS = 1024

# broadcast-vocabulary cap, ON by default (same production-default rule):
# the fit pulls the vocabulary to the driver and ray.put()s it as ONE
# object, so an uncapped fit over a crawl-scale corpus is an unbounded
# driver-memory hazard.  2M entries ≈ a few hundred MB worst case — large
# enough that capping changes nothing on any real natural-language corpus
# (tokens outside the cap score as OOV), small enough to be safe.  The two
# oracle queries pass ``None`` explicitly (exact, DuckDB-checkable).
DEFAULT_TOP_K = 2_000_000


def _tokens(text: str, max_chars: int | None) -> list[str]:
    # mirrors the oracle-proven textstats convention:
    # string_split_regex(trim(text), '\s+') with empties dropped
    if not text or not text.strip():
        return []
    toks = [t for t in _TOKEN_RE.split(text.strip()) if t]
    if max_chars is not None:
        toks = [t for t in toks if len(t) <= max_chars]
    return toks


def _count_batch(batch: pa.Table, text_col: str, max_chars: int | None) -> pa.Table:
    counts: dict[str, int] = {}
    for text in batch.column(text_col).to_pylist():
        for tok in _tokens(text or "", max_chars):
            counts[tok] = counts.get(tok, 0) + 1
    return pa.table(
        {
            "tok": pa.array(list(counts.keys()), pa.string()),
            "c": pa.array(list(counts.values()), pa.int64()),
        }
    )


def fit_unigram_vocab(
    ds,
    text_col: str = "text",
    top_k: int | None = DEFAULT_TOP_K,
    max_token_chars: int | None = DEFAULT_MAX_TOKEN_CHARS,
):
    """Fit the unigram model; returns ``(vocab: dict[str, int], total: int)``.

    ``total`` is the full corpus token count (computed BEFORE the cap, so
    capped and uncapped fits agree on every retained token's probability).
    ``max_token_chars`` drops degenerate over-long "tokens" before they ride
    the count shuffle as keys; pass ``None`` for exact oracle parity.
    """
    from ray.data.aggregate import Sum

    counts = ds.map_batches(
        lambda b: _count_batch(b, text_col, max_token_chars),
        batch_format="pyarrow",
    )
    # materialize the (small) vocabulary table once: lazy plans re-execute
    # the whole upstream per consumer, and we consume it twice below
    agg = counts.groupby("tok").aggregate(Sum("c", alias_name="c")).materialize()
    total = int(agg.sum("c") or 0)
    if top_k is not None:
        # tok tie-break keeps the capped vocabulary deterministic
        agg = agg.sort(["c", "tok"], descending=[True, False]).limit(top_k)
    vocab = {
        r["tok"]: int(r["c"]) for r in agg.iter_rows()
    }
    return vocab, total


def _token_sums(
    batch: pa.Table,
    weights: dict[str, int],
    oov: int,
    id_col: str,
    text_col: str,
    max_token_chars: int | None,
    sum_col: str,
) -> pa.Table:
    """Per document: token count, the sum of its tokens' integer weights
    (``oov`` for a token with none) and the floor mean.  Zero-token
    documents have no evidence and are excluded."""
    ids = batch.column(id_col).to_pylist()
    texts = batch.column(text_col).to_pylist()
    out_ids, n_toks, sums, means = [], [], [], []
    for i, text in zip(ids, texts):
        toks = _tokens(text or "", max_token_chars)
        if not toks:
            continue
        s = sum(weights.get(t, oov) for t in toks)
        out_ids.append(i)
        n_toks.append(len(toks))
        sums.append(s)
        means.append(s // len(toks))  # Python floor division
    return pa.table(
        {
            id_col: pa.array(out_ids, pa.int64()),
            "n_tokens": pa.array(n_toks, pa.int64()),
            sum_col: pa.array(sums, pa.int64()),
            "mean_" + sum_col: pa.array(means, pa.int64()),
        }
    )


def _surprisal_table(vocab: dict[str, int], total: int) -> tuple[dict[str, int], int]:
    """Per-token integer surprisal; OOV = count-1 event."""
    milli = {tok: math.floor(-1000.0 * math.log(c / total)) for tok, c in vocab.items()}
    return milli, math.floor(-1000.0 * math.log(1.0 / max(total, 1)))


def _score_docs(batch: pa.Table, vocab_ref, total: int, **cols) -> pa.Table:
    """Task UDF: unigram surprisal against the vocabulary, whose surprisal
    table is built once per worker process."""
    milli, oov = resolve(vocab_ref, _surprisal_table, total)
    return _token_sums(batch, milli, oov, sum_col="surprisal_milli", **cols)


def unigram_logprob(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    top_k: int | None = DEFAULT_TOP_K,
    max_token_chars: int | None = DEFAULT_MAX_TOKEN_CHARS,
    batch_size: int = 4096,
):
    """Score every document's unigram surprisal; returns a Dataset.

    ``top_k``: cap the broadcast vocabulary to the K most frequent tokens
    (driver + object-store memory bound at crawl scale); uncapped fits are
    exact and oracle-checkable.  ``max_token_chars`` (on by default) drops
    degenerate over-long tokens in BOTH fit and score; the oracle query
    passes ``None``.  Zero-token documents are excluded (they have no
    likelihood under the model).
    """
    import ray

    vocab, total = fit_unigram_vocab(
        ds, text_col=text_col, top_k=top_k, max_token_chars=max_token_chars
    )
    return ds.map_batches(
        _score_docs,
        fn_kwargs={
            "vocab_ref": ray.put(vocab),
            "total": total,
            "id_col": id_col,
            "text_col": text_col,
            "max_token_chars": max_token_chars,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
    )


# -- CCNet-style quantile bucketing over the surprisal signal ---------------


def ppl_buckets(
    ds,
    qs: tuple[float, float] = (0.25, 0.75),
    id_col: str = "doc_id",
    text_col: str = "text",
    top_k: int | None = DEFAULT_TOP_K,
    max_token_chars: int | None = DEFAULT_MAX_TOKEN_CHARS,
):
    """Bucket documents into ``head`` / ``middle`` / ``tail`` by corpus
    quantiles of per-token unigram surprisal (the CCNet perplexity-bucket
    curation step: keep the fluent head, downsample or drop the tail).

    Buckets come from exact ``quantile_disc``-semantics thresholds
    (element at sorted rank ``ceil(q*n)-1``) over the INTEGER
    ``mean_surprisal_milli`` signal, so assignment is deterministic and
    DuckDB-checkable; ``qs`` defaults to exact binary fractions so both
    engines compute identical ranks.

    Scale shape: the scored dataset (4 int64 columns per doc, no text) is
    materialized once and consumed twice — (a) a histogram reduction whose
    driver-side table is bounded by the DISTINCT per-token milli-nat
    values (<= the OOV surprisal ~ 20k at crawl scale, independent of
    corpus rows), (b) a row-local threshold CASE.  No sort, no second fit.
    """
    import math as _math

    import numpy as np

    scores = unigram_logprob(
        ds,
        id_col=id_col,
        text_col=text_col,
        top_k=top_k,
        max_token_chars=max_token_chars,
    ).materialize()

    hist_parts = [
        b
        for b in scores.groupby("mean_surprisal_milli")
        .count()
        .iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    if not hist_parts:
        return scores.map_batches(
            lambda b: pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "mean_surprisal_milli": pa.array([], pa.int64()),
                    "bucket": pa.array([], pa.string()),
                }
            ),
            batch_format="pyarrow",
        )
    hist = pa.concat_tables(hist_parts)
    vals = hist.column("mean_surprisal_milli").to_numpy(zero_copy_only=False)
    counts = hist.column("count()").to_numpy(zero_copy_only=False)
    order = np.argsort(vals)
    vals, counts = vals[order], counts[order]
    cum = np.cumsum(counts)
    n = int(cum[-1])
    lo_q, hi_q = qs
    thresholds = []
    for q in (lo_q, hi_q):
        rank = max(0, _math.ceil(q * n) - 1)  # quantile_disc 0-based rank
        thresholds.append(int(vals[int(np.searchsorted(cum, rank + 1))]))
    t1, t2 = thresholds

    def _assign(batch: pa.Table) -> pa.Table:
        m = batch.column("mean_surprisal_milli")
        bucket = pc.if_else(
            pc.less_equal(m, t1),
            "head",
            pc.if_else(pc.less_equal(m, t2), "middle", "tail"),
        )
        return pa.table(
            {
                id_col: batch.column(id_col),
                "mean_surprisal_milli": m,
                "bucket": pc.cast(bucket, pa.string()),
            }
        )

    return scores.map_batches(_assign, batch_format="pyarrow")


# -- add-one bigram LM (one order up from the unigram signal) ---------------


def _bigram_count_batch(
    batch: pa.Table, text_col: str, max_chars: int | None
) -> pa.Table:
    """Per-batch combiner: one (prev, cur, c) partial per distinct
    adjacent token pair in the batch — pairs, not documents, ride the
    fit exchange.  The pair is a TWO-column key (not a joined string) so
    a token containing an embedded NUL/separator byte can never collide
    two distinct pairs — the same grouping the DuckDB oracle uses."""
    counts: dict[tuple[str, str], int] = {}
    for text in batch.column(text_col).to_pylist():
        toks = _tokens(text or "", max_chars)
        for k in zip(toks, toks[1:]):
            counts[k] = counts.get(k, 0) + 1
    keys = list(counts.keys())
    return pa.table(
        {
            "prev": pa.array([k[0] for k in keys], pa.string()),
            "cur": pa.array([k[1] for k in keys], pa.string()),
            "c": pa.array(list(counts.values()), pa.int64()),
        }
    )


def fit_bigram_counts(
    ds,
    text_col: str = "text",
    top_k: int | None = DEFAULT_TOP_K,
    max_token_chars: int | None = DEFAULT_MAX_TOKEN_CHARS,
):
    """Fit corpus bigram counts; returns ``dict[(prev, cur), int]``.

    Same broadcast contract as :func:`fit_unigram_vocab`: ``top_k`` (ON
    by default) bounds the driver/object-store dict at crawl scale —
    bigrams outside the cap score as unseen (count 0, which add-one
    smoothing handles by construction, so capping degrades smoothly).
    The oracle query passes ``None`` (exact)."""
    from ray.data.aggregate import Sum

    counts = ds.map_batches(
        lambda b: _bigram_count_batch(b, text_col, max_token_chars),
        batch_format="pyarrow",
    )
    agg = counts.groupby(["prev", "cur"]).aggregate(Sum("c", alias_name="c"))
    if top_k is not None:
        agg = agg.sort(
            ["c", "prev", "cur"], descending=[True, False, False]
        ).limit(top_k)
    return {(r["prev"], r["cur"]): int(r["c"]) for r in agg.iter_rows()}


def _bigram_scorer(counts: tuple[dict, dict], v_size: int):
    """Add-one milli-nat price of an adjacent pair, with a bounded per-pair
    memo that collapses the ``math.log`` calls to one per distinct pair
    per worker process (Zipf)."""
    vocab, bigrams = counts
    memo: dict[tuple[str, str], int] = {}

    def milli(pair: tuple[str, str]) -> int:
        m = memo.get(pair)
        if m is None:
            if len(memo) > 2_000_000:
                memo.clear()
            cb = bigrams.get(pair, 0)
            cu = vocab.get(pair[0], 0)
            # DuckDB mirror: BIGINT/BIGINT divides as DOUBLE/DOUBLE
            m = math.floor(-1000.0 * math.log(float(cb + 1) / float(cu + v_size)))
            memo[pair] = m
        return m

    return milli


def _score_bigrams(
    batch: pa.Table,
    counts_ref,
    v_size: int,
    id_col: str,
    text_col: str,
    max_token_chars: int | None,
) -> pa.Table:
    """Task UDF: bigram surprisal against the unigram + bigram count dicts,
    resolved once per worker process."""
    milli = resolve(counts_ref, _bigram_scorer, v_size)
    ids = batch.column(id_col).to_pylist()
    texts = batch.column(text_col).to_pylist()
    out_ids, n_bi, sums, means = [], [], [], []
    for i, text in zip(ids, texts):
        toks = _tokens(text or "", max_token_chars)
        if len(toks) < 2:
            continue  # no transitions to score
        s = sum(milli(k) for k in zip(toks, toks[1:]))
        n = len(toks) - 1
        out_ids.append(i)
        n_bi.append(n)
        sums.append(s)
        means.append(s // n)
    return pa.table(
        {
            id_col: pa.array(out_ids, pa.int64()),
            "n_bigrams": pa.array(n_bi, pa.int64()),
            "bigram_surprisal_milli": pa.array(sums, pa.int64()),
            "mean_bigram_surprisal_milli": pa.array(means, pa.int64()),
        }
    )


def bigram_logprob(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    top_k: int | None = DEFAULT_TOP_K,
    max_token_chars: int | None = DEFAULT_MAX_TOKEN_CHARS,
    batch_size: int = 4096,
):
    """Score every document under an add-one-smoothed corpus bigram model
    (the fluency signal one order above :func:`unigram_logprob` — word-
    order-degenerate text like keyword stuffing scores high here while
    passing unigram): per adjacent pair,

        milli = floor(-1000 * ln((c_bi + 1) / (c_uni(prev) + V)))

    summed over a document's transitions (docs with < 2 tokens are
    excluded — they have no transition to score).  All-integer inputs to
    one ``ln`` per distinct pair keep the DuckDB oracle bit-exact.

    Scale shape — the two-stage broadcast pattern twice over: unigram and
    bigram counts each fit via per-batch combiners + a small key groupby
    (``top_k`` bounds both broadcast dicts at crawl scale; unseen pairs
    are exactly what add-one smoothing prices), then one task scoring
    pass; document text never crosses an exchange."""
    import ray

    vocab, _total = fit_unigram_vocab(
        ds, text_col=text_col, top_k=top_k, max_token_chars=max_token_chars
    )
    # V must be the exact distinct-token count even under a capped
    # broadcast: count it from the fit aggregate's cardinality before the
    # cap would have applied (cheap second aggregate only when capped)
    if top_k is None or len(vocab) < top_k:
        v_size = len(vocab)
    else:
        from ray.data.aggregate import Sum

        uni = ds.map_batches(
            lambda b: _count_batch(b, text_col, max_token_chars),
            batch_format="pyarrow",
        )
        v_size = int(
            uni.groupby("tok").aggregate(Sum("c", alias_name="c")).count()
        )
    bigrams = fit_bigram_counts(
        ds, text_col=text_col, top_k=top_k, max_token_chars=max_token_chars
    )
    return ds.map_batches(
        _score_bigrams,
        fn_kwargs={
            "counts_ref": ray.put((vocab, bigrams)),
            "v_size": v_size,
            "id_col": id_col,
            "text_col": text_col,
            "max_token_chars": max_token_chars,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
    )


# -- DSIR hashed-ngram importance weights -----------------------------------

DEFAULT_DSIR_BUCKETS = 8192

# Per-worker-process feature-hash memo (same Zipf argument as simhash's
# _TOKEN_HASH_CACHE in dedup.py): web text repeats tokens and bigrams, so
# the md5 calls collapse to one per *distinct* feature key per process.
# Values are the raw 64-bit md5_number_lower, so the cache is valid for
# any n_buckets; bounded (cleared at 1M entries) so a pathological
# vocabulary can't grow the heap.
_DSIR_HASH_CACHE: dict[str, int] = {}


def _dsir_feature_buckets(
    toks: list[str], n_buckets: int
) -> list[int]:
    """Unigram + adjacent-bigram features hashed into ``n_buckets`` via
    DuckDB ``md5_number_lower`` semantics (last 8 md5 digest bytes,
    little-endian) so the oracle reproduces every bucket id bit for bit.
    Occurrence counts, not distinct — DSIR weights every feature token."""
    import hashlib
    import struct

    cache = _DSIR_HASH_CACHE
    if len(cache) > 1_000_000:
        cache.clear()
    md5 = hashlib.md5
    unpack = struct.unpack

    def h(key: str) -> int:
        v = cache.get(key)
        if v is None:
            v = unpack("<Q", md5(key.encode("utf-8")).digest()[8:])[0]
            cache[key] = v
        return v

    out = [h(t) % n_buckets for t in toks]
    out.extend(h(a + "\x01" + b) % n_buckets for a, b in zip(toks, toks[1:]))
    return out


def _dsir_count_batch(
    batch: pa.Table, text_col: str, n_buckets: int, max_chars: int | None
) -> pa.Table:
    counts: dict[int, int] = {}
    for text in batch.column(text_col).to_pylist():
        for f in _dsir_feature_buckets(
            _tokens(text or "", max_chars), n_buckets
        ):
            counts[f] = counts.get(f, 0) + 1
    return pa.table(
        {
            "f": pa.array(list(counts.keys()), pa.int64()),
            "c": pa.array(list(counts.values()), pa.int64()),
        }
    )


def _fit_dsir_counts(ds, text_col, n_buckets, max_chars):
    import numpy as np
    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(
            lambda b: _dsir_count_batch(b, text_col, n_buckets, max_chars),
            batch_format="pyarrow",
        )
        .groupby("f")
        .aggregate(Sum("c", alias_name="c"))
    )
    counts = np.zeros(n_buckets, dtype=np.int64)
    for r in agg.iter_rows():
        counts[int(r["f"])] = int(r["c"])
    return counts


def _score_dsir(
    batch: pa.Table,
    milli_ref,
    n_buckets: int,
    id_col: str,
    text_col: str,
    max_token_chars: int | None,
) -> pa.Table:
    """Task UDF: DSIR weight against the per-bucket milli log-ratio table
    (one int64 array of ``n_buckets`` entries, read zero-copy)."""
    milli = resolve(milli_ref)
    ids = batch.column(id_col).to_pylist()
    texts = batch.column(text_col).to_pylist()
    out_ids, n_feat, weights = [], [], []
    for i, text in zip(ids, texts):
        feats = _dsir_feature_buckets(_tokens(text or "", max_token_chars), n_buckets)
        if not feats:
            continue  # nothing to weight
        out_ids.append(i)
        n_feat.append(len(feats))
        weights.append(int(sum(int(milli[f]) for f in feats)))
    return pa.table(
        {
            id_col: pa.array(out_ids, pa.int64()),
            "n_features": pa.array(n_feat, pa.int64()),
            "dsir_milli": pa.array(weights, pa.int64()),
        }
    )


def dsir_weights(
    raw_ds,
    target_ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = DEFAULT_DSIR_BUCKETS,
    max_token_chars: int | None = DEFAULT_MAX_TOKEN_CHARS,
    batch_size: int = 4096,
):
    """DSIR importance weights (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling", arXiv:2302.03169): score
    every raw document by how target-like its hashed n-gram profile is,

        dsir_milli = sum over doc features f of
            floor(1000*ln((ct[f]+1)/(Nt+B))) - floor(1000*ln((cr[f]+1)/(Nr+B)))

    where features are unigrams + adjacent bigrams hashed into ``B =
    n_buckets`` buckets, ``ct``/``cr`` are target/raw bucket occurrence
    counts and ``Nt``/``Nr`` their totals (add-one smoothing over the
    bucket space).  Higher = more target-like; resample/threshold on it
    to tilt a crawl toward the target distribution.

    The hashing trick IS the scale story: both fits reduce to ONE int64
    array of ``n_buckets`` entries (64 KiB at the default) regardless of
    corpus or vocabulary size — no ``top_k`` cap needed, nothing
    unbounded reaches the driver.  Per-batch bucket combiners feed a
    <= B-row groupby per corpus; the milli table broadcasts once; one
    task pass scores raw docs.  Hash buckets follow DuckDB
    ``md5_number_lower % B`` exactly, so the whole operator is
    SQL-oracle-checkable bit for bit (two separate integer floors keep
    the subtraction exact cross-engine).

    Documents with no features (empty/whitespace text) are excluded.
    Returns (id, n_features, dsir_milli)."""
    import numpy as np
    import ray

    ct = _fit_dsir_counts(target_ds, text_col, n_buckets, max_token_chars)
    cr = _fit_dsir_counts(raw_ds, text_col, n_buckets, max_token_chars)
    nt, nr = int(ct.sum()), int(cr.sum())
    milli = np.array(
        [
            math.floor(
                1000.0 * math.log(float(c_t + 1) / float(nt + n_buckets))
            )
            - math.floor(
                1000.0 * math.log(float(c_r + 1) / float(nr + n_buckets))
            )
            for c_t, c_r in zip(ct.tolist(), cr.tolist())
        ],
        dtype=np.int64,
    )
    return raw_ds.map_batches(
        _score_dsir,
        fn_kwargs={
            "milli_ref": ray.put(milli),
            "n_buckets": n_buckets,
            "id_col": id_col,
            "text_col": text_col,
            "max_token_chars": max_token_chars,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
    )


# -- two-class token log-odds classifier ------------------------------------


def _labeled_count_batch(
    batch: pa.Table, text_col: str, label_col: str, max_chars: int | None
) -> pa.Table:
    """Per-batch combiner for the classifier fit: one (tok, gc, bc) partial
    row per distinct token in the batch."""
    gc: dict[str, int] = {}
    bc: dict[str, int] = {}
    labels = batch.column(label_col).to_pylist()
    for text, good in zip(batch.column(text_col).to_pylist(), labels):
        tgt = gc if good else bc
        for tok in _tokens(text or "", max_chars):
            tgt[tok] = tgt.get(tok, 0) + 1
    toks = list(gc.keys() | bc.keys())
    return pa.table(
        {
            "tok": pa.array(toks, pa.string()),
            "gc": pa.array([gc.get(t, 0) for t in toks], pa.int64()),
            "bc": pa.array([bc.get(t, 0) for t in toks], pa.int64()),
        }
    )


def fit_logodds_weights(
    ds,
    text_col: str = "text",
    label_col: str = "is_good",
    top_k: int | None = DEFAULT_TOP_K,
    max_token_chars: int | None = DEFAULT_MAX_TOKEN_CHARS,
):
    """Fit per-token log-odds weights from a bool-labeled corpus; returns
    ``(weights: dict[str, int], oov_milli: int)``.

    Weight (integer milli, add-1 smoothed, floor like the surprisal op):

        w(tok) = floor(1000 * ln( ((gc+1) * (bad_tot + V))
                                / ((bc+1) * (good_tot + V)) ))

    where gc/bc are the token's occurrence counts in good/bad documents,
    good_tot/bad_tot the class token totals and V the distinct-token count
    — all computed BEFORE any ``top_k`` cap, so capped and uncapped fits
    agree on every retained token.  ``top_k`` keeps the K highest-|weight|
    tokens (the discriminative ones), bounding the broadcast at crawl
    scale; the oracle setting is ``None`` (exact).
    """
    from ray.data.aggregate import Sum

    counts = ds.map_batches(
        lambda b: _labeled_count_batch(b, text_col, label_col, max_token_chars),
        batch_format="pyarrow",
    )
    agg = (
        counts.groupby("tok")
        .aggregate(Sum("gc", alias_name="gc"), Sum("bc", alias_name="bc"))
        .materialize()
    )
    good_tot = int(agg.sum("gc") or 0)
    bad_tot = int(agg.sum("bc") or 0)
    v = agg.count()

    # weights are computed INSIDE the dataset (the class totals broadcast
    # as three closure ints) and the top_k cap applies dataset-side via
    # sort+limit, so the driver only ever pulls the capped vocabulary —
    # with the default cap the driver pull is bounded at any corpus size.
    # float() each side BEFORE dividing — DuckDB's BIGINT/BIGINT division
    # casts to DOUBLE then divides, and above 2^53 that differs from
    # Python's correctly-rounded int/int; mirroring the cast keeps the
    # oracle bit-exact at any corpus size
    def _weigh(b: pa.Table) -> pa.Table:
        milli = [
            math.floor(
                1000.0
                * math.log(
                    float((g + 1) * (bad_tot + v))
                    / float((bad + 1) * (good_tot + v))
                )
            )
            for g, bad in zip(b.column("gc").to_pylist(), b.column("bc").to_pylist())
        ]
        return pa.table(
            {
                "tok": b.column("tok"),
                "milli": pa.array(milli, pa.int64()),
            }
        )

    wt = agg.map_batches(_weigh, batch_format="pyarrow")
    if top_k is not None:
        import pyarrow.compute as pc

        wt = (
            wt.map_batches(
                # ascending sort key = (-|milli|, tok): the K most
                # discriminative tokens, deterministic tie-break
                lambda b: b.append_column(
                    "neg_abs", pc.negate_checked(pc.abs_checked(b.column("milli")))
                ),
                batch_format="pyarrow",
            )
            .sort(["neg_abs", "tok"])
            .limit(top_k)
        )
    weights = {r["tok"]: int(r["milli"]) for r in wt.iter_rows()}
    oov = math.floor(1000.0 * math.log(float(bad_tot + v) / float(good_tot + v)))
    return weights, oov


def _score_logodds(batch: pa.Table, weights_ref, **cols) -> pa.Table:
    """Task UDF: log-odds sums against the (weights, oov) broadcast,
    resolved once per worker process.  The mean is FLOOR division, so the
    DuckDB oracle reproduces it bit for bit on negative sums too."""
    weights, oov = resolve(weights_ref)
    return _token_sums(batch, weights, oov, sum_col="logodds_milli", **cols)


def logodds_score(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    label_col: str = "is_good",
    top_k: int | None = DEFAULT_TOP_K,
    max_token_chars: int | None = DEFAULT_MAX_TOKEN_CHARS,
    batch_size: int = 4096,
):
    """fastText-style linear quality classifier over token log-odds.

    ``ds`` must carry a boolean ``label_col`` (the seed labels: a curated
    good/bad split, a heuristic gate, an upstream model — the fit is label
    -source-agnostic).  Fit and scoring follow the unigram_lm two-stage
    broadcast shape: per-batch count combiners -> one vocabulary-sized
    groupby -> weights broadcast ONCE via ``ray.put`` -> scoring tasks;
    document rows never shuffle.  Integer-milli outputs, exact vs
    the DuckDB oracle at ``top_k=None, max_token_chars=None``.
    """
    import ray

    weights, oov = fit_logodds_weights(
        ds,
        text_col=text_col,
        label_col=label_col,
        top_k=top_k,
        max_token_chars=max_token_chars,
    )
    return ds.map_batches(
        _score_logodds,
        fn_kwargs={
            "weights_ref": ray.put((weights, oov)),
            "id_col": id_col,
            "text_col": text_col,
            "max_token_chars": max_token_chars,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
    )
