"""Deduplication operators for training-data pipelines.

  exact_dedup      md5(text) hash-partitioned, first (min doc_id) per group
  minhash_lsh      char-shingle MinHash signatures, banded LSH bucketing,
                   Jaccard verification, min-id cluster representative
  simhash          64-bit SimHash + 4-band blocking for hamming<=3 pairs
  ngram_jaccard    verified n-gram Jaccard similarity for candidate pairs

Scale notes (100 TB): the only all-to-all exchanges are groupbys/joins on
*fixed-width keys* (16-byte md5 / 8-byte band hashes / int64 doc ids) —
document text crosses an exchange at most once (inside the keep-filter's
hash-partitioned semi-join); signatures are computed inside ``map_batches``
so each document's text is read exactly once.  MinHash candidate
verification and clustering are dataset jobs end-to-end: shingle sets are
joined onto candidate pairs (hash join), exact Jaccard runs vectorized per
pair batch, and connected components come from iterative min-label
propagation — the driver holds only per-iteration convergence counters.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fuzi_rd.broadcast import resolve
from fuzi_rd.functions.simsearch import _batch_matrix

# 64 independent-ish hash functions via (a*x+b) mod p over 64-bit space
_MERSENNE = (1 << 61) - 1
_RNG = np.random.RandomState(42)
_A = _RNG.randint(1, _MERSENNE, size=64, dtype=np.int64).astype(np.uint64)
_B = _RNG.randint(0, _MERSENNE, size=64, dtype=np.int64).astype(np.uint64)

N_PERM = 64
BAND_SIZE = 4
N_BANDS = N_PERM // BAND_SIZE  # 16


def _md5_batch(batch: pa.Table) -> pa.Table:
    hashes = [
        hashlib.md5((t or "").encode("utf-8")).hexdigest()
        for t in batch.column("text").to_pylist()
    ]
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "text_hash": pa.array(hashes, pa.string()),
        }
    )


def exact_dedup(ds):
    """Exact dedup: one hash pass + a groupby on the 32-char digest.
    Returns (text_hash, doc_id) with doc_id = min id per distinct text."""
    hashed = ds.map_batches(_md5_batch, batch_format="pyarrow")
    return hashed.groupby("text_hash").min("doc_id")


def min_per_key(ds, key: str, value: str, value_type: pa.DataType):
    """The keep rule of every keep-by-key filter: per ``key``, the minimum
    ``value`` wins.  Returns the winners as a one-column (``value``)
    Dataset, the key side of a ``semi_join``.  Ray's aggregate emits
    schema-less empty blocks for empty hash partitions; they become empty
    tables typed ``value_type``, so no partition of the join misses the
    key column."""
    agg = f"min({value})"

    def _winners(b: pa.Table) -> pa.Table:
        if agg not in b.column_names:
            return pa.schema([(value, value_type)]).empty_table()
        return pa.table({value: b.column(agg)})

    return ds.groupby(key).min(value).map_batches(_winners, batch_format="pyarrow")


def _semi_join_partitions(num_partitions: int | None) -> int:
    """Default hash-join partition count: one per CPU (each partition's two
    sides must fit in an aggregator's heap, so at real scale pass an
    explicit count sized to data volume / target partition size)."""
    if num_partitions is not None:
        return num_partitions
    import ray

    return max(8, int(ray.cluster_resources().get("CPU", 8)))


def _adaptive_partitions(mds, rows_per_partition: int = 65536) -> int:
    """Hash-join partition count sized to a MATERIALIZED dataset's row
    count (a metadata read — no block fetch): one partition per
    ``rows_per_partition`` rows, floor 1, capped at cluster CPUs.

    The iterative tier (connected components, PageRank) runs 2 joins per
    round; a fixed per-CPU partition count makes every round pay a
    32-partition shuffle's actor/task fixed cost even when the edge list
    is a few thousand rows (measured 2x the round wall at small scale),
    while a count proportional to rows keeps per-partition volume bounded
    as the graph grows.  At real scale callers should still pass an
    explicit ``num_partitions`` sized by bytes — rows are a proxy."""
    import ray

    n = mds.count()
    cpus = max(8, int(ray.cluster_resources().get("CPU", 8)))
    return max(1, min(cpus, (n + rows_per_partition - 1) // rows_per_partition))


def hash_join(left, right, join_type: str, num_partitions: int, on: tuple):
    """``left.join(right, ...)`` whose aggregator actors fit the cluster.

    Without a cluster config Ray gives each join aggregator 0.125 CPU per
    partition and sizes its ``memory`` reservation from the 128 MiB target
    block size (7x per partition), so a 16-partition join reserves 2 CPUs
    and 14 GiB.  Aggregators that do not fit stay pending; aggregators
    that take every CPU, or all the memory, leave none for the map and
    shuffle tasks feeding them.  Either way the join never finishes.  Here
    the aggregators get at most 0.125 CPU per partition and together at
    most half the CPUs rounded down to a whole CPU, so one CPU stays free
    for those tasks (Ray's own rule when it knows the cluster size).  Their
    memory is Ray's estimate, capped so that one join reserves at most an
    eighth of the cluster's Ray memory: a plan may run a few joins at once
    (the referential-integrity report runs four), and the shuffle tasks
    feeding them reserve memory too, so four joins leave them half of it.
    Only the reservation changes, not the partitions."""
    import math

    import ray
    from ray.data import DataContext

    ctx = DataContext.get_current()
    n_agg = min(
        num_partitions,
        ctx.max_hash_shuffle_aggregators or ctx.default_hash_shuffle_parallelism,
    )
    block = ctx.target_max_block_size or 128 * 2**20
    resources = ray.cluster_resources()
    cpu_per_partition = min(0.125, (resources.get("CPU", 0) // 2) / num_partitions)
    return left.join(
        right,
        join_type=join_type,
        num_partitions=num_partitions,
        on=on,
        aggregator_ray_remote_args={
            "num_cpus": cpu_per_partition * math.ceil(num_partitions / n_agg),
            "memory": int(
                min(
                    (2 * num_partitions / n_agg + 5) * block,
                    resources.get("memory", 0) / 8 / n_agg,
                )
            ),
            "scheduling_strategy": "SPREAD",
        },
    )


def _null_key_first(ds, keys_ds, key: str, key_type: pa.DataType | None = None):
    """``keys_ds`` behind one row whose ``key`` is null, typed like the
    join key.  Ray's join sends the key side's schema to every partition
    only from the first block it sees, so a key side with no rows, or
    whose first block is empty, leaves partitions without the key column.
    The null row is that first block, and a null key matches nothing, so
    an inner or anti join's result is unchanged.

    The type is ``key_type`` when the caller knows it, else it comes from
    a schema Ray knows without running anything (a read or materialized
    side); only when neither side has one is ``ds`` run up to its first
    non-empty block."""
    import ray

    if key_type is None:
        schema = keys_ds.schema(fetch_if_missing=False)
        if schema is None or key not in schema.names:
            schema = ds.schema()  # runs nothing when Ray can infer it
        if schema is None or key not in schema.names:
            return keys_ds
        key_type = dict(zip(schema.names, schema.types))[key]
    null = pa.nulls(1, key_type)
    return ray.data.from_arrow(pa.table({key: null})).union(keys_ds)


def semi_join(ds, keys_ds, key: str, num_partitions: int | None = None):
    """Distributed semi-join: rows of ``ds`` whose ``key`` appears in
    ``keys_ds`` (which must contain exactly the key column).

    Both sides hash-partition on the key and join per partition — no
    driver-side materialization and no broadcast of the key set, so it
    holds when the key set is a large fraction of the corpus (the exact
    winner set of a dedup IS nearly the whole corpus).  The key side may
    have no rows (see ``_null_key_first``)."""
    return hash_join(
        ds,
        _null_key_first(ds, keys_ds, key),
        "inner",
        _semi_join_partitions(num_partitions),
        (key,),
    )


def anti_join(ds, keys_ds, key: str, num_partitions: int | None = None):
    """Distributed anti-join: rows of ``ds`` whose ``key`` does NOT appear
    in ``keys_ds`` (which must contain exactly the key column).  Same
    hash-partitioned shape as ``semi_join`` — no driver-side key set, no
    broadcast — via the native ``left_anti`` join."""
    return hash_join(
        ds,
        _null_key_first(ds, keys_ds, key),
        "left_anti",
        _semi_join_partitions(num_partitions),
        (key,),
    )


_XHASH = "__xcorpus_hash"


def _with_md5(text_col: str, out_col: str = _XHASH):
    def add(batch: pa.Table) -> pa.Table:
        hashes = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch.column(text_col).to_pylist()
        ]
        return batch.append_column(out_col, pa.array(hashes, pa.string()))

    return add


def cross_corpus_dedup_keep(
    new_ds,
    ref_ds,
    text_col: str = "text",
    num_partitions: int | None = None,
):
    """Incremental-crawl dedup: drop documents of ``new_ds`` whose exact
    text already exists in the reference corpus ``ref_ds`` (the corpus a
    previous crawl produced).  The recurring production shape: each new
    crawl is deduplicated against everything already kept.

    Scale shape: both sides reduce to 32-char digests inside
    ``map_batches``; the reference side collapses to DISTINCT digests via a
    groupby (fixed-width keys), then one hash-partitioned ``left_anti``
    join drops seen documents.  Document text crosses an exchange exactly
    once (inside the anti-join's partition shuffle of ``new_ds``); nothing
    reaches the driver, so this holds when the reference corpus is 100x the
    new crawl."""
    hashed_new = new_ds.map_batches(_with_md5(text_col), batch_format="pyarrow")

    def _ref_hash(batch: pa.Table) -> pa.Table:
        hashes = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch.column(text_col).to_pylist()
        ]
        return pa.table({_XHASH: pa.array(hashes, pa.string())})

    # distinct reference digests: Count aggregate -> project the key only
    ref_keys = (
        ref_ds.map_batches(_ref_hash, batch_format="pyarrow")
        .groupby(_XHASH)
        .count()
        .map_batches(
            lambda b: b.select([_XHASH]), batch_format="pyarrow"
        )
    )
    # anti_join, with the null key typed as the md5 hex string it always
    # is: building the plan runs neither side
    kept = hash_join(
        hashed_new,
        _null_key_first(hashed_new, ref_keys, _XHASH, pa.string()),
        "left_anti",
        _semi_join_partitions(num_partitions),
        (_XHASH,),
    )
    return kept.map_batches(
        lambda b: b.drop_columns([_XHASH]), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# Bloom-prefiltered cross-corpus dedup
#
# The anti-join above shuffles EVERY new-crawl document (text and all) into
# the join exchange even though, in production, the overwhelming majority of
# new documents are not in the reference corpus.  The Bloom form broadcasts
# a fixed-size bit array built from the reference digests (one ray.put, read
# by every probe task), filters each batch locally, and sends ONLY the
# bloom-positive rows (true duplicates + ~2^-n_hashes false positives)
# through the exact anti-join confirm — so the all-to-all exchange carries
# a small fraction of the crawl while the result stays EXACTLY equal to
# the plain anti-join (the confirm removes the false positives).

DEFAULT_BLOOM_BITS = 1 << 22  # 4M bits = 512 KiB; ~350k keys at 12 bits/key
DEFAULT_BLOOM_HASHES = 7


def _bloom_h1h2(texts, out_h1: np.ndarray, out_h2: np.ndarray) -> None:
    """Split each row's md5 digest into two uint64s (the double-hashing
    base): position_i = (h1 + i*h2) mod n_bits."""
    for j, t in enumerate(texts):
        d = hashlib.md5((t or "").encode("utf-8")).digest()
        out_h1[j] = int.from_bytes(d[:8], "little")
        out_h2[j] = int.from_bytes(d[8:16], "little") | 1  # odd -> full cycle


def _bloom_positions(h1: np.ndarray, h2: np.ndarray, n_bits: int, n_hashes: int):
    """(rows, n_hashes) bit positions via double hashing (Kirsch-Mitzenmacher)."""
    i = np.arange(n_hashes, dtype=np.uint64)
    return (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(n_bits)


def bloom_build(ref_ds, text_col: str = "text", n_bits: int = DEFAULT_BLOOM_BITS,
                n_hashes: int = DEFAULT_BLOOM_HASHES) -> np.ndarray:
    """One streaming pass over the reference corpus producing a Bloom bit
    array (uint8 words, little-endian bit order) of its text digests.

    Scale shape: the reduction runs inside Ray Data's aggregate (per-block
    accumulate + tree merge of fixed-size ``n_bits/8``-byte accumulators);
    the driver receives exactly one bitmap, never the keys.  Size ``n_bits``
    to ~10-12 bits per expected distinct reference document (1 GiB of bitmap
    covers ~700M keys at 1% false-positive rate with 7 hashes)."""
    from ray.data.aggregate import AggregateFn

    n_words = n_bits // 8

    def _acc(bitmap: np.ndarray, block) -> np.ndarray:
        texts = block.column(text_col).to_pylist()
        h1 = np.empty(len(texts), dtype=np.uint64)
        h2 = np.empty(len(texts), dtype=np.uint64)
        _bloom_h1h2(texts, h1, h2)
        pos = _bloom_positions(h1, h2, n_bits, n_hashes).ravel()
        np.bitwise_or.at(bitmap, (pos >> 3).astype(np.int64), np.uint8(1) << (pos & 7).astype(np.uint8))
        return bitmap

    agg = AggregateFn(
        init=lambda _k: np.zeros(n_words, dtype=np.uint8),
        merge=lambda a, b: np.bitwise_or(a, b),
        accumulate_block=_acc,
        name="bloom",
    )
    result = ref_ds.aggregate(agg)
    if not result or result.get("bloom") is None:  # empty reference corpus
        return np.zeros(n_words, dtype=np.uint8)
    return result["bloom"]


def bloom_cross_corpus_keep(
    new_ds,
    ref_ds,
    text_col: str = "text",
    n_bits: int = DEFAULT_BLOOM_BITS,
    n_hashes: int = DEFAULT_BLOOM_HASHES,
    num_partitions: int | None = None,
):
    """Exact cross-corpus dedup with a broadcast Bloom prefilter: result is
    row-identical to :func:`cross_corpus_dedup_keep`, but only the
    bloom-positive sliver of ``new_ds`` enters the anti-join exchange.

    Scale shape at 100 TB: the reference corpus reduces to ONE fixed-size
    bitmap (tree-merged inside ``Dataset.aggregate``), broadcast via a
    single ``ray.put``; every probe task reads it zero-copy from the local
    object store.  Bloom-negative documents (the vast majority of a new
    crawl) never leave their map task; bloom-positive candidates — true
    duplicates plus ~(1/2)^n_hashes false positives — go through the same
    hash-partitioned ``left_anti`` digest join as the plain operator, which
    removes the false positives and makes the output exact.

    The two output branches (bloom-negative pass-through; bloom-positive
    confirm join) consume ONE materialized probe pass: the probed blocks
    live in the (spillable) object store and each branch filters them,
    so the new crawl is read+hashed exactly once.  Without the
    materialize, Ray Data's lazy plan would re-execute the whole
    read+probe per consumer — the round-3 read-amplification flag.  The
    probe is a task stage that resolves the bitmap once per worker
    process (a zero-copy local object-store read)."""
    import ray

    bitmap = bloom_build(ref_ds, text_col, n_bits, n_hashes)
    if not bitmap.any():
        # empty reference corpus: nothing can be a duplicate, and the
        # downstream anti-join would see only schema-less empty blocks
        # (Ray's Aggregate emits them for empty partitions) — short-circuit.
        return new_ds
    bitmap_ref = ray.put(bitmap)

    def _probe(batch: pa.Table) -> pa.Table:
        bm = resolve(bitmap_ref)
        texts = batch.column(text_col).to_pylist()
        h1 = np.empty(len(texts), dtype=np.uint64)
        h2 = np.empty(len(texts), dtype=np.uint64)
        _bloom_h1h2(texts, h1, h2)
        pos = _bloom_positions(h1, h2, n_bits, n_hashes)
        bits = bm[(pos >> 3).astype(np.int64)] >> (pos & 7).astype(np.uint8)
        hit = (bits & 1).all(axis=1) if len(texts) else np.zeros(0, dtype=bool)
        return batch.append_column("__bloom_hit", pa.array(hit))

    def _negatives(b: pa.Table) -> pa.Table:
        return b.filter(pc.invert(b.column("__bloom_hit"))).drop_columns(["__bloom_hit"])

    def _positives(b: pa.Table) -> pa.Table:
        return b.filter(b.column("__bloom_hit")).drop_columns(["__bloom_hit"])

    probed = new_ds.map_batches(_probe, batch_format="pyarrow").materialize()
    definitely_new = probed.map_batches(_negatives, batch_format="pyarrow")
    candidates = probed.map_batches(_positives, batch_format="pyarrow")
    confirmed_new = cross_corpus_dedup_keep(
        candidates, ref_ds, text_col, num_partitions
    )
    return definitely_new.union(confirmed_new)


def exact_dedup_keep(ds, num_partitions: int | None = None):
    """The filter form: returns the documents dataset with exact duplicates
    dropped (first doc_id per distinct text wins).

    Scale shape: two exchanges, neither driver-side — (1) the winner scan
    shuffles only (16-byte hash, doc_id) pairs; (2) the winner-id dataset
    semi-joins back against the documents (hash-partitioned on doc_id).
    Document text crosses the exchange exactly once, inside the join's
    partition shuffle; nothing is ever collected to the driver."""
    hashed = ds.map_batches(_md5_batch, batch_format="pyarrow")
    keep_ids = min_per_key(hashed, "text_hash", "doc_id", pa.int64())
    return semi_join(ds, keep_ids, "doc_id", num_partitions)


# -- paragraph-level exact dedup ---------------------------------------------

# packed occurrence key: (doc_id, para_idx) as one int64 so the winner scan
# is a plain Min aggregate.  2^20 paragraphs per doc, 2^43 docs.
_PARA_SHIFT = 20


def paragraph_dedup_keep(ds, sep: str = "\n\n", num_partitions: int | None = None):
    """Sub-document exact dedup (C4/RefinedWeb-style): split each document
    into paragraphs, keep only the FIRST occurrence of every distinct
    paragraph corpus-wide (smallest (doc_id, para_idx)), and reassemble the
    surviving paragraphs per document in original order.

    Returns a Dataset of (doc_id, text); a document whose every paragraph
    was seen earlier is absent from the output entirely.  Repeated
    paragraphs WITHIN one document also dedup (first occurrence wins).

    Scale shape — corpus text crosses exactly ONE exchange: (1) the winner
    scan shuffles (16-byte md5, packed int64) pairs only, and its
    ``min(packed)`` output IS the survivor key set — no join needed to find
    survivors; (2) survivor keys unpack to (doc_id, para_idx) and aggregate
    into one fixed-width keep-set blob per doc (int64-key shuffle); (3) one
    doc_id hash join of documents against their keep-set rows — the only
    exchange text rides — then reassembly is row-local (re-split, filter by
    keep set, re-join), no further shuffle."""

    def _keys(batch: pa.Table) -> pa.Table:
        """(para_hash, packed) fixed-width rows; text stays behind."""
        hashes, packed = [], []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            if doc_id >= 1 << (63 - _PARA_SHIFT) or doc_id < 0:
                raise ValueError(
                    f"doc_id {doc_id} out of packed-key range "
                    f"(< 2^{63 - _PARA_SHIFT})"
                )
            paras = (text or "").split(sep)
            if len(paras) > 1 << _PARA_SHIFT:
                raise ValueError(
                    f"doc {doc_id} has {len(paras)} paragraphs; packed key "
                    f"supports at most 2^{_PARA_SHIFT} — raise _PARA_SHIFT "
                    "or pre-chunk the document"
                )
            base = doc_id << _PARA_SHIFT
            for i, p in enumerate(paras):
                hashes.append(hashlib.md5(p.encode("utf-8")).hexdigest())
                packed.append(base | i)
        return pa.table(
            {
                "para_hash": pa.array(hashes, pa.string()),
                "packed": pa.array(packed, pa.int64()),
            }
        )

    P = _semi_join_partitions(num_partitions)
    keys = ds.map_batches(_keys, batch_format="pyarrow")
    winners = _compact(min_per_key(keys, "para_hash", "packed", pa.int64()))

    def _unpack(batch: pa.Table) -> pa.Table:
        keys = batch.column("packed").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(keys >> _PARA_SHIFT, pa.int64()),
                "para_idx": pa.array(
                    keys & ((1 << _PARA_SHIFT) - 1), pa.int64()
                ),
            }
        )

    def _keep_blob(group: pa.Table) -> pa.Table:
        idx = np.sort(group.column("para_idx").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "doc_id": group.column("doc_id").slice(0, 1),
                # acero rejects list payloads in join non-key fields; a
                # binary blob of sorted int64 indices rides the join fine
                "keep_idx": pa.array([idx.astype(np.int64).tobytes()], pa.large_binary()),
            }
        )

    keep_sets = _compact(
        winners.map_batches(_unpack, batch_format="pyarrow")
        .groupby("doc_id")
        .map_groups(_keep_blob, batch_format="pyarrow")
    )

    joined = hash_join(ds, keep_sets, "inner", P, ("doc_id",))

    def _rebuild(batch: pa.Table) -> pa.Table:
        out_ids, out_texts = [], []
        for doc_id, text, blob in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
            batch.column("keep_idx").to_pylist(),
        ):
            keep = frozenset(np.frombuffer(blob, dtype=np.int64).tolist())
            paras = (text or "").split(sep)
            out_ids.append(doc_id)
            out_texts.append(
                sep.join(p for i, p in enumerate(paras) if i in keep)
            )
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "text": pa.array(out_texts, pa.string()),
            }
        )

    return joined.map_batches(_rebuild, batch_format="pyarrow")


# -- corpus-frequency boilerplate line scrub ---------------------------------

# broadcast-set cap, ON by default (the df_cap / top_k production-default
# rule): the scrub set is pulled to the driver and ray.put() once, so an
# adversarial corpus where MILLIONS of distinct lines recur must hard-fail
# with advice instead of OOMing the driver.  2M md5 hexdigests ~ 300 MB of
# Python set — safe; real boilerplate sets (headers, footers, cookie
# banners, nav text) are orders of magnitude smaller.
DEFAULT_MAX_BOILERPLATE_LINES = 2_000_000


def _scrub_lines(batch: pa.Table, boiler_ref, sep: str) -> pa.Table:
    """Task UDF: drop every line whose md5 is in the broadcast set."""
    boil: frozenset[str] = resolve(boiler_ref)
    texts = [
        sep.join(
            ln
            for ln in (t or "").split(sep)
            if hashlib.md5(ln.encode("utf-8")).hexdigest() not in boil
        )
        for t in batch.column("text").to_pylist()
    ]
    return pa.table(
        {"doc_id": batch.column("doc_id"), "text": pa.array(texts, pa.string())}
    )


def line_scrub(
    ds,
    min_docs: int = 3,
    sep: str = "\n",
    max_boilerplate_lines: int = DEFAULT_MAX_BOILERPLATE_LINES,
):
    """Corpus-frequency boilerplate removal (RefinedWeb/CCNet-style): drop
    every line that occurs in at least ``min_docs`` DISTINCT documents,
    from every document, preserving the order of surviving lines.

    Unlike :func:`paragraph_dedup_keep` (which keeps each duplicate's FIRST
    occurrence), this removes ALL occurrences of corpus-recurrent lines —
    the right semantics for nav bars / cookie banners / share buttons that
    are noise wherever they appear.  Every input document survives (its
    text may become ``""``).

    Scale shape — corpus text never crosses an exchange:

    1. per-batch combiner emits one ``(line_hash, n_docs)`` partial per
       distinct (line, doc) pair in the batch (each doc lives in exactly
       one batch, so summed partials equal exact distinct-doc counts);
       only fixed-width 16-byte-md5 rows ride the groupby;
    2. the ``n_docs >= min_docs`` survivor set — bounded by
       ``max_boilerplate_lines``, hard-fail past it — is pulled to the
       driver ONCE and broadcast via ``ray.put`` (resolved once per
       worker process, never re-shipped per batch);
    3. the scrub is a row-local ``map_batches`` filter: split, drop
       members of the broadcast set, re-join.  No shuffle, no join.
    """
    import ray
    from ray.data.aggregate import Sum

    def _line_counts(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for text in batch.column("text").to_pylist():
            for h in {
                hashlib.md5(ln.encode("utf-8")).hexdigest()
                for ln in (text or "").split(sep)
            }:
                counts[h] = counts.get(h, 0) + 1
        return pa.table(
            {
                "line_hash": pa.array(list(counts.keys()), pa.string()),
                "n_docs": pa.array(list(counts.values()), pa.int64()),
            }
        )

    boiler_ds = (
        ds.map_batches(_line_counts, batch_format="pyarrow")
        .groupby("line_hash")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
        .filter(expr=f"n_docs >= {int(min_docs)}")
    )
    boiler: set[str] = set()
    for b in boiler_ds.iter_batches(batch_format="pyarrow"):
        boiler.update(b.column("line_hash").to_pylist())
        if len(boiler) > max_boilerplate_lines:
            raise ValueError(
                f"line_scrub: > {max_boilerplate_lines} distinct lines recur "
                f"in >= {min_docs} docs; raise min_docs, raise "
                "max_boilerplate_lines, or pre-filter the corpus — "
                "broadcasting a set this large is a driver-memory hazard"
            )
    return ds.map_batches(
        _scrub_lines,
        fn_kwargs={"boiler_ref": ray.put(frozenset(boiler)), "sep": sep},
        batch_format="pyarrow",
        batch_size=4096,
    )


# -- MinHash -----------------------------------------------------------------


_POLY_BASE = np.uint64(1099511628211)  # FNV prime; odd -> bijective mod 2^64


def char_shingles(text: str, k: int = 5) -> np.ndarray:
    """Hashes of the k-char shingles of a document (uint64).

    Vectorized: one numpy sliding-window polynomial hash over the utf-8
    bytes plus a murmur-style finalizer — deterministic across processes
    (unlike Python's seeded hash()) and ~100x faster than hashing each
    shingle with blake2b (measured 1 ms -> 10 us per KB of text)."""
    t = " ".join(text.lower().split())
    if len(t) < k:
        t = t + " " * (k - len(t))
    data = np.frombuffer(t.encode("utf-8", "replace"), dtype=np.uint8)
    win = np.lib.stride_tricks.sliding_window_view(data, k).astype(np.uint64)
    powers = _POLY_BASE ** np.arange(k - 1, -1, -1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = (win * powers[None, :]).sum(axis=1, dtype=np.uint64)
        # fmix64 finalizer spreads the low-entropy polynomial values
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xC4CEB9FE1A85EC53)
        h ^= h >> np.uint64(33)
    return np.unique(h)


def minhash_signature(shingles: np.ndarray) -> np.ndarray:
    """64-permutation MinHash signature (vectorized: 64 x |shingles|)."""
    if len(shingles) == 0:
        return np.zeros(N_PERM, dtype=np.uint64)
    # (a * x + b) mod p, broadcast over permutations
    x = shingles[None, :] % _MERSENNE
    vals = (_A[:, None] * x + _B[:, None]) % _MERSENNE
    return vals.min(axis=1).astype(np.uint64)


def text_signature(text: str | None) -> np.ndarray | None:
    """The MinHash signature of one document's text, or None when the text
    is empty or whitespace.

    Skew guard: every empty/whitespace doc would share one padded-shingle
    signature, so a single LSH bucket would hold all of them and the
    per-bucket pair enumeration would go quadratic on a real crawl (exact
    dedup is the right operator for empty docs — they are byte-identical)."""
    if not (text or "").split():
        return None
    return minhash_signature(char_shingles(text))


def band_hashes(sig: np.ndarray) -> list[str]:
    """The ``N_BANDS`` LSH band hashes of one signature: blake2b-64 hex of
    each ``BAND_SIZE``-row band.  The batch dedup and the serving index
    both bucket by these, so they agree on what 'same bucket' means."""
    return [
        hashlib.blake2b(band.tobytes(), digest_size=8).hexdigest()
        for band in sig.reshape(N_BANDS, BAND_SIZE)
    ]


def _minhash_batch(batch: pa.Table) -> pa.Table:
    """Emit one row per (doc, band): (band, band_hash, doc_id).  The
    follow-up groupby on (band, band_hash) is the LSH bucket shuffle.
    Documents without a signature (``text_signature``) emit no rows."""
    out_doc, out_band, out_hash = [], [], []
    for doc_id, text in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        sig = text_signature(text)
        if sig is None:
            continue
        for b, h in enumerate(band_hashes(sig)):
            out_doc.append(doc_id)
            out_band.append(b)
            out_hash.append(h)
    return pa.table(
        {
            "doc_id": pa.array(out_doc, pa.int64()),
            "band": pa.array(out_band, pa.int32()),
            "band_hash": pa.array(out_hash, pa.string()),
        }
    )


# Buckets beyond this size switch from all-pairs to star pairs (see
# _bucket_pairs); bounds any one bucket's output at O(m) instead of O(m^2).
DEFAULT_MAX_BUCKET = 512
# Hubs per oversized bucket.  One hub loses a component whenever two true
# near-dups both verify below threshold against it (similarity is not
# transitive); k independent hubs make that k-fold less likely at O(k*m)
# edges.  Recall in star mode is still < all-pairs by construction.
DEFAULT_N_HUBS = 2


def _bucket_pairs_capped(max_bucket_size: int | None, n_hubs: int = DEFAULT_N_HUBS):
    def _bucket_pairs(group: pa.Table) -> pa.Table:
        """Candidate pairs within one LSH bucket (map_groups).

        Skew guard: a bucket larger than ``max_bucket_size`` (mass-duplicated
        boilerplate) emits STAR pairs — every member against the bucket's
        ``n_hubs`` smallest ids — instead of all pairs.  O(n_hubs * m) edges
        keep the connected component intact whenever at least one hub
        verifies against each member (exact for true-duplicate blobs, where
        every edge verifies); a pair whose similarity routes only through a
        non-hub member can still be missed — that recall loss is the price
        of bounding a 1M-member bucket at ~2M edges instead of 5*10^11."""
        ids = sorted(set(group.column("doc_id").to_pylist()))
        a, b = [], []
        if max_bucket_size is not None and len(ids) > max_bucket_size:
            for h in range(min(n_hubs, len(ids) - 1)):
                hub = ids[h]
                a.extend([hub] * (len(ids) - h - 1))
                b.extend(ids[h + 1 :])
        else:
            for i in range(len(ids) - 1):
                for j in range(i + 1, len(ids)):
                    a.append(ids[i])
                    b.append(ids[j])
        return pa.table(
            {"id_a": pa.array(a, pa.int64()), "id_b": pa.array(b, pa.int64())}
        )

    return _bucket_pairs


def minhash_candidate_pairs(
    ds,
    max_bucket_size: int | None = DEFAULT_MAX_BUCKET,
    n_hubs: int = DEFAULT_N_HUBS,
):
    """documents -> distinct candidate near-dup pairs via banded LSH."""
    banded = ds.map_batches(_minhash_batch, batch_format="pyarrow")
    pairs = banded.groupby(["band", "band_hash"]).map_groups(
        _bucket_pairs_capped(max_bucket_size, n_hubs), batch_format="pyarrow"
    )
    return pairs.groupby(["id_a", "id_b"]).count()


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 1.0


def verify_jaccard(batch: pa.Table, threshold: float) -> pa.Table:
    """Task UDF: exact Jaccard verification of candidate pairs.

    Input rows carry both sides' shingle sets (joined on by doc id); output
    is the verified (id_a, id_b) edge list.  Visible as
    MapBatches(verify_jaccard) in ds.stats()."""
    sh_a = batch.column("sh_a").to_pylist()
    sh_b = batch.column("sh_b").to_pylist()
    keep = [
        jaccard(np.frombuffer(a, dtype=np.uint64), np.frombuffer(b, dtype=np.uint64))
        >= threshold
        for a, b in zip(sh_a, sh_b)
    ]
    return pa.table(
        {"id_a": batch.column("id_a"), "id_b": batch.column("id_b")}
    ).filter(pa.array(keep, pa.bool_()))


def _shingle_sets(docs_ds):
    """(doc_id, text) -> (doc_id, shingles large_binary).

    The sorted-unique uint64 shingle array is packed to its raw bytes:
    Arrow's acero hash join rejects list-typed payload columns but carries
    binary payloads fine, and ``np.frombuffer`` decodes them zero-copy on
    the verify side."""

    def _sh(batch: pa.Table) -> pa.Table:
        out = [
            char_shingles(t or "").tobytes()
            for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "shingles": pa.array(out, pa.large_binary()),
            }
        )

    return docs_ds.map_batches(_sh, batch_format="pyarrow")


def _rename(ds, names: dict):
    def _r(batch: pa.Table) -> pa.Table:
        return batch.rename_columns([names.get(c, c) for c in batch.column_names])

    return ds.map_batches(_r, batch_format="pyarrow")


def _compact(ds):
    """materialize() + drop the schema-less empty blocks that Join/Aggregate
    operators emit for empty hash partitions — feeding one into a subsequent
    ``Dataset.join`` fails its partitioner with ``ArrowInvalid: No match ...
    for key field reference`` on the empty-schema table.

    Empty blocks are detected from block METADATA
    (``iter_internal_ref_bundles()`` → ``BlockMetadata.num_rows``), so the
    driver re-bundles block *refs* without fetching a single block — no
    block data ever moves to the driver node, which makes this safe inside
    the iterative tier (every connected-components round, every PageRank
    iteration) where labels/edges are O(corpus keys).  A block whose
    metadata lacks a row count (shouldn't happen post-materialize) is kept
    conservatively rather than fetched."""
    import ray

    mds = ds.materialize()
    refs = []
    for bundle in mds.iter_internal_ref_bundles():
        for block_ref, meta in bundle.blocks:
            if meta.num_rows is None or meta.num_rows > 0:
                refs.append(block_ref)
    if not refs:
        return mds
    return ray.data.from_arrow_refs(refs)


def connected_components_min_label(
    edges_ds, num_partitions: int | None = None, stats: dict | None = None
):
    """Connected components of an (id_a, id_b) edge dataset via iterative
    min-label propagation with POINTER JUMPING — every step is a dataset
    join/groupby; the driver holds only a per-iteration changed-row count.

    Returns a Dataset of (doc_id, label) where label = min doc id reachable.
    Each round does (1) one hop of neighbor-min propagation and (2) one
    shortcut step label <- label(label); the shortcut composes paths, so an
    adversarial length-L chain (star-capped buckets can produce A~B~C~...)
    converges in O(log L) rounds instead of O(L).  Pass ``stats`` to get
    ``stats["rounds"]`` back (pinned by the chain test)."""
    import pyarrow.compute as pc

    def _sym(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pa.concat_arrays(
                    [
                        batch.column("id_a").combine_chunks(),
                        batch.column("id_b").combine_chunks(),
                    ]
                ),
                "dst": pa.concat_arrays(
                    [
                        batch.column("id_b").combine_chunks(),
                        batch.column("id_a").combine_chunks(),
                    ]
                ),
            }
        )

    edges = _compact(edges_ds.map_batches(_sym, batch_format="pyarrow"))
    # partition count sized to the (materialized) edge list, not the CPU
    # count: 2 joins/round make the shuffle's fixed cost the round floor
    P = (
        _adaptive_partitions(edges)
        if num_partitions is None
        else num_partitions
    )

    def _init_labels(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch.column("src"), "label": batch.column("src")}
        )

    labels = (
        edges.map_batches(_init_labels, batch_format="pyarrow")
        .groupby("doc_id")
        .min("label")
    )
    labels = _compact(_rename(labels, {"min(label)": "label"}))

    # Convergence is detected by the EXACT total of all labels: labels are
    # monotonically non-increasing (new = min(own, neighbor mins); the jump
    # assigns label(label) <= label because label(v) <= v is an invariant
    # from initialization), so the total strictly decreases until the fixed
    # point and "unchanged total" == "no label changed".  This replaces the
    # old per-round new-vs-old equality JOIN (a third all-to-all exchange
    # per round) with a block-local aggregate over the already-materialized
    # labels — per round: 2 plan executions instead of 3, and the third was
    # the widest.
    prev_total = _label_total(labels)
    rounds = 0
    while True:
        rounds += 1
        # neighbor_min(v) = min label over v's neighbors; new = min(own, that)
        nbr = hash_join(
            edges, _rename(labels, {"doc_id": "src"}), "inner", P, ("src",)
        )
        nbr_min = (
            _rename(nbr, {"dst": "doc_id"})
            .select_columns(["doc_id", "label"])
            .union(labels)
            .groupby("doc_id")
            .min("label")
        )
        new_labels = _compact(_rename(nbr_min, {"min(label)": "label"}))

        # pointer jump: label <- label(label).  Every label is itself a node
        # id (a min over node ids), so the self-join is total; the jump
        # composes two hops into one and halves remaining path lengths.
        jumped = hash_join(
            new_labels,
            _rename(new_labels, {"doc_id": "label", "label": "label2"}),
            "inner",
            P,
            ("label",),
        )
        new_labels = _compact(
            _rename(
                jumped.select_columns(["doc_id", "label2"]), {"label2": "label"}
            )
        )

        total = _label_total(new_labels)
        labels = new_labels
        if total == prev_total:
            if stats is not None:
                stats["rounds"] = rounds
            return labels
        prev_total = total


def _label_total(labels_ds):
    """Exact sum of the ``label`` column as a Python big int, computed
    overflow-free at any scale: each block contributes int64 partial sums
    of the low/high 32-bit halves (block sums stay < 2^52 for realistic
    block row counts), recombined on the driver as arbitrary-precision
    ints.  Runs as a block-local map over an already-materialized dataset —
    no exchange, no block data fetched (the driver sees two ints per
    block)."""
    import pyarrow.compute as pc

    def _sums(batch: pa.Table) -> pa.Table:
        lab = batch.column("label")
        lo = pc.sum(pc.bit_wise_and(lab, 0xFFFFFFFF)).as_py() or 0
        hi = pc.sum(pc.shift_right(lab, 32)).as_py() or 0
        return pa.table(
            {"lo": pa.array([lo], pa.int64()), "hi": pa.array([hi], pa.int64())}
        )

    lo = 0
    hi = 0
    for r in labels_ds.map_batches(_sums, batch_format="pyarrow").take_all():
        lo += r["lo"]
        hi += r["hi"]
    return (hi << 32) + lo


def _empty_labels():
    import ray

    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "label": pa.array([], pa.int64()),
            }
        )
    )


def minhash_dedup(
    ds,
    threshold: float = 0.8,
    num_partitions: int | None = None,
    max_bucket_size: int | None = DEFAULT_MAX_BUCKET,
    n_hubs: int = DEFAULT_N_HUBS,
):
    """Full near-dup pass: LSH candidates -> exact Jaccard verification ->
    min-label connected components.  Returns a DATASET of (doc_id, label)
    for every clustered document, label = the cluster's min doc id (every
    component has >= 2 members by construction).  Use ``minhash_keep`` for
    the filter form.

    Scale shape: a dataset job end-to-end.  Candidate docs' shingle sets
    are joined onto the pair list (hash joins on int64 ids — text never
    crosses an exchange), exact Jaccard runs vectorized inside
    MapBatches(verify_jaccard), clustering is min-label propagation with
    pointer jumping over the verified edge list, and the cluster assignment
    comes back as a Dataset — the driver holds only per-iteration
    convergence counters, never the clustered rows (30% of a crawl can be
    duplicates; a driver-side list would OOM).

    Semantics note: EMPTY / whitespace-only documents are excluded from
    near-dup clustering entirely (the banding stage skips them — all empty
    docs share one degenerate signature and would pool into a single
    quadratic bucket).  Empty docs are byte-identical to each other, so run
    ``exact_dedup`` / ``exact_dedup_keep`` for them; a composed pipeline
    should do exact dedup first anyway."""
    def _pair_cols(b: pa.Table) -> pa.Table:
        return b.select(["id_a", "id_b"])

    def _both_sides(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.concat_arrays(
                    [
                        b.column("id_a").combine_chunks(),
                        b.column("id_b").combine_chunks(),
                    ]
                )
            }
        )

    # Materialize the TINY intermediates (candidate pairs, candidate-doc
    # shingle sets) so each consumer / each hash join executes as its own
    # plan — without this, lazy lineage re-runs the whole LSH pipeline once
    # per consumer and chains every join into one oversubscribed plan.
    pairs = _compact(
        minhash_candidate_pairs(ds, max_bucket_size, n_hubs).map_batches(
            _pair_cols, batch_format="pyarrow"
        )
    )
    if pairs.count() == 0:
        return _empty_labels()
    # shingle sets for candidate docs only: distinct candidate ids
    # semi-join the documents, then shingle that (small) subset
    need_ids = (
        pairs.map_batches(_both_sides, batch_format="pyarrow")
        .groupby("doc_id")
        .count()
        .select_columns(["doc_id"])
    )
    shingles = _compact(
        _shingle_sets(semi_join(ds, need_ids, "doc_id", num_partitions))
    )

    P = _semi_join_partitions(num_partitions)
    with_a = _compact(
        hash_join(
            pairs,
            _rename(shingles, {"doc_id": "id_a", "shingles": "sh_a"}),
            "inner",
            P,
            ("id_a",),
        )
    )
    with_ab = hash_join(
        with_a,
        _rename(shingles, {"doc_id": "id_b", "shingles": "sh_b"}),
        "inner",
        P,
        ("id_b",),
    )
    verified = _compact(
        with_ab.map_batches(
            verify_jaccard, fn_kwargs={"threshold": threshold}, batch_format="pyarrow"
        )
    )
    if verified.count() == 0:
        return _empty_labels()

    # cluster size > 1 by construction: every labeled node has >= 1 verified
    # edge, so each component here has >= 2 members
    return connected_components_min_label(verified, num_partitions)


def minhash_keep(
    ds,
    threshold: float = 0.8,
    num_partitions: int | None = None,
    max_bucket_size: int | None = DEFAULT_MAX_BUCKET,
    n_hubs: int = DEFAULT_N_HUBS,
):
    """Filter form of near-dup removal: the documents dataset with
    near-duplicates dropped — each cluster keeps its min-id representative;
    unclustered documents pass through untouched.

    Scale shape: the loser set (doc_id != label) is tiny relative to the
    corpus only when duplication is low, so it is NOT broadcast — the drop
    filter is a hash-partitioned ``anti_join`` on int64 doc ids, mirroring
    ``exact_dedup_keep``'s semi-join.  Document text crosses the exchange
    exactly once; nothing is collected to the driver."""
    labels = minhash_dedup(ds, threshold, num_partitions, max_bucket_size, n_hubs)

    def _losers(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        losers = ids.filter(pc.not_equal(ids, batch.column("label")))
        return pa.table({"doc_id": losers})

    drop_ids = _compact(labels.map_batches(_losers, batch_format="pyarrow"))
    if drop_ids.count() == 0:
        return ds
    return anti_join(ds, drop_ids, "doc_id", num_partitions)


# -- n-gram Jaccard ----------------------------------------------------------


def _word_ngrams(text: str, n: int) -> set[str]:
    toks = (text or "").lower().split()
    if len(toks) < n:
        return set()
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


DEFAULT_DF_CAP = 10_000


def ngram_jaccard_pairs(
    ds, n: int = 3, threshold_milli: int = 500, df_cap: int | None = DEFAULT_DF_CAP
):
    """All-pairs word n-gram Jaccard similarity >= threshold via an
    inverted shingle index — no O(corpus^2) comparisons.

    Plan: (doc_id, shingle, n_shingles) rows -> groupby(shingle) emits the
    co-occurring pairs -> groupby(pair) counts common shingles -> exact
    integer Jaccard filter.  All shuffles key on fixed-width hashes, never
    text.  Output: (id_a, id_b, jaccard_milli) with
    jaccard_milli = floor(1000 * |A∩B| / |A∪B|) — integer arithmetic so the
    result is bit-identical to the SQL oracle.

    Scale note: a stop-shingle shared by m docs makes m^2 pairs;
    ``df_cap`` drops shingles with document frequency > cap (the group is
    skipped before pair enumeration, bounding any one group at cap^2).
    Capped runs slightly under-count |A∩B| for pairs sharing a stop-shingle,
    so jaccard_milli is a lower bound there.  The cap is ON by default
    (production must never ship the unguarded m^2 hazard); pass
    ``df_cap=None`` for exact, oracle-comparable semantics on bounded
    inputs (the driver's oracle query does)."""
    from ray.data.aggregate import Count, Min

    def _shingle_rows(batch: pa.Table) -> pa.Table:
        ids, sh, nsh = [], [], []
        for d, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            grams = _word_ngrams(t, n)
            for g in grams:
                ids.append(d)
                # fixed-width key: the shuffle moves 8-byte hashes, not text
                sh.append(
                    struct.unpack(
                        "<Q",
                        hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest(),
                    )[0]
                )
                nsh.append(len(grams))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "shingle": pa.array(sh, pa.uint64()),
                "n_sh": pa.array(nsh, pa.int64()),
            }
        )

    def _cooccur_pairs(group: pa.Table) -> pa.Table:
        if df_cap is not None and len(group) > df_cap:
            return pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "n_a": pa.array([], pa.int64()),
                    "n_b": pa.array([], pa.int64()),
                }
            )
        rows = sorted(
            zip(group.column("doc_id").to_pylist(), group.column("n_sh").to_pylist())
        )
        a, b, na, nb = [], [], [], []
        for i in range(len(rows) - 1):
            for j in range(i + 1, len(rows)):
                if rows[i][0] == rows[j][0]:
                    continue
                a.append(rows[i][0])
                b.append(rows[j][0])
                na.append(rows[i][1])
                nb.append(rows[j][1])
        return pa.table(
            {
                "id_a": pa.array(a, pa.int64()),
                "id_b": pa.array(b, pa.int64()),
                "n_a": pa.array(na, pa.int64()),
                "n_b": pa.array(nb, pa.int64()),
            }
        )

    shingled = ds.map_batches(_shingle_rows, batch_format="pyarrow")
    pairs = shingled.groupby("shingle").map_groups(
        _cooccur_pairs, batch_format="pyarrow"
    )
    counted = pairs.groupby(["id_a", "id_b"]).aggregate(
        Count(), Min("n_a"), Min("n_b")
    )

    def _jaccard_filter(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        common = pc.cast(batch.column("count()"), pa.int64())
        union = pc.subtract(
            pc.add(batch.column("min(n_a)"), batch.column("min(n_b)")), common
        )
        milli = pc.divide(pc.multiply(common, 1000), union)  # integer floor div
        keep = pc.greater_equal(milli, threshold_milli)
        out = pa.table(
            {
                "id_a": batch.column("id_a"),
                "id_b": batch.column("id_b"),
                "jaccard_milli": pc.cast(milli, pa.int64()),
            }
        )
        return out.filter(keep)

    return counted.map_batches(_jaccard_filter, batch_format="pyarrow")


# -- embedding cosine near-dup ----------------------------------------------


DEFAULT_EMB_EXACT_MAX_ROWS = 200_000


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """Rows of ``m`` scaled to unit length (zero rows stay zero)."""
    nm = np.linalg.norm(m, axis=1)
    nm[nm == 0] = 1.0
    return m / nm[:, None]


def _pair_scan(batch: pa.Table, ref, threshold: float) -> pa.Table:
    """Task UDF: this batch's (id_a < id_b) pairs against the broadcast
    unit matrix with cosine >= ``threshold``."""
    all_ids, all_mat = resolve(ref)
    bid = batch.column("vec_id").to_numpy()
    sims = _unit_rows(_batch_matrix(batch)) @ all_mat.T
    ii, jj = np.nonzero((sims >= threshold) & (bid[:, None] < all_ids[None, :]))
    return pa.table(
        {
            "id_a": pa.array(bid[ii], pa.int64()),
            "id_b": pa.array(all_ids[jj], pa.int64()),
            "sim": pa.array(np.round(sims[ii, jj], 4), pa.float64()),
        }
    )


def embedding_near_dup(
    ds, threshold: float = 0.9, max_rows: int = DEFAULT_EMB_EXACT_MAX_ROWS
):
    """Exact all-pairs cosine near-duplicates over an embedding column.

    The full (n x dim) matrix is broadcast ONCE via ray.put; each batch
    computes its rows' similarities against the broadcast matrix (numpy
    matmul) and emits only pairs (id_a < id_b) with sim >= threshold —
    O(n^2 / batches) work per task, O(matches) output.  This is the exact
    BASELINE and deliberately materializes the whole embedding table on
    the driver: ``max_rows`` (default 200k ≈ 600 MB at dim=384 float64)
    hard-fails past that instead of OOMing — at corpus scale use
    ``embedding_near_dup_lsh`` (same output schema, LSH-bucketed, no
    driver matrix)."""
    import ray

    mat_tbl = None
    n_rows = 0
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        n_rows += len(b)
        if n_rows > max_rows:
            raise ValueError(
                f"embedding_near_dup is the exact driver-side baseline and "
                f"is capped at max_rows={max_rows} embeddings; this dataset "
                f"exceeds it.  Use embedding_near_dup_lsh (same output "
                f"schema) for corpus-scale near-dup, or raise max_rows "
                f"explicitly if the matrix truly fits in driver memory."
            )
        mat_tbl = b if mat_tbl is None else pa.concat_tables([mat_tbl, b])
    ids = mat_tbl.column("vec_id").to_numpy()
    unit = _unit_rows(_batch_matrix(mat_tbl))
    return ds.map_batches(
        _pair_scan,
        fn_kwargs={"ref": ray.put((ids, unit)), "threshold": threshold},
        batch_format="pyarrow",
    )


def _assign_cluster(batch: pa.Table, cents_ref) -> pa.Table:
    """Task UDF: each row's nearest centroid and its cosine similarity to
    it (floored milli), embedding passed through."""
    cents, cents_n = resolve(cents_ref)
    m = _batch_matrix(batch)
    cluster = ((m[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    cent_sim = (_unit_rows(m) * cents_n[cluster]).sum(axis=1)
    return pa.table(
        {
            "vec_id": batch.column("vec_id"),
            "cluster": pa.array(cluster, pa.int32()),
            "cent_sim_milli": pa.array(
                np.floor(cent_sim * 1000).astype(np.int64), pa.int64()
            ),
            "embedding": batch.column("embedding"),
        }
    )


DEFAULT_SEMDEDUP_MAX_CLUSTER = 100_000


def semantic_dedup(
    ds,
    n_clusters: int = 16,
    threshold: float = 0.95,
    sample_size: int = 2048,
    max_cluster_rows: int = DEFAULT_SEMDEDUP_MAX_CLUSTER,
):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic
    deduplication over an embedding column — remove documents whose
    embeddings are near-identical in meaning even when their text differs
    byte-wise (translations, templated rewrites, boilerplate paraphrases).

    The published algorithm, Ray-Data-shaped:

    1. k-means centroids fit driver-side on a bounded ``sample_size``
       sample (deterministic seed — same quantizer as the IVF index);
    2. centroids broadcast ONCE via ``ray.put``; one ``map_batches`` pass
       assigns each row its nearest centroid (vectorized matmul) and its
       cosine similarity to that centroid;
    3. ``groupby(cluster).map_groups``: exact pairwise cosine INSIDE each
       cluster only (the paper's trick — all-pairs over n/k-sized clusters,
       never the corpus), union-find over pairs with sim >= ``threshold``,
       and from every duplicate group keep exactly one row — the member
       with the LOWEST similarity to its centroid (the paper's keeper
       rule: prefer the least prototypical example; min vec_id tiebreak).

    The only exchange is the cluster groupby; embeddings cross it once.
    ``max_cluster_rows`` hard-fails a pathologically hot cluster instead
    of letting one group go O(n^2) — at corpus scale raise ``n_clusters``
    so expected cluster size stays bounded (the paper uses n/k ~= 1-10k).

    Returns (vec_id, cluster, cent_sim_milli, keep); filter ``keep`` for
    the surviving corpus, or join survivors back by vec_id.  Rows-only
    correctness (iterative k-means has no SQL oracle); keeper semantics
    are pinned by a numpy-reference test.
    """
    import ray

    from .simsearch import _kmeans

    sample_rows = ds.limit(sample_size).take_all()
    sample = np.stack(
        [np.asarray(r["embedding"], dtype=np.float64) for r in sample_rows]
    )
    cents = _kmeans(sample, n_clusters)
    cnorm = np.linalg.norm(cents, axis=1)
    cnorm[cnorm == 0] = 1.0
    cents_ref = ray.put((cents, cents / cnorm[:, None]))

    def _dedupe_cluster(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n > max_cluster_rows:
            raise ValueError(
                f"semantic_dedup: cluster of {n} rows exceeds "
                f"max_cluster_rows={max_cluster_rows}; raise n_clusters so "
                f"per-cluster all-pairs stays bounded (expected size n/k)"
            )
        bid = group.column("vec_id").to_numpy()
        csim = group.column("cent_sim_milli").to_numpy()
        mn = _unit_rows(_batch_matrix(group))
        parent = np.arange(n)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        # All-pairs in ROW BLOCKS: the similarity matrix is never fully
        # allocated — memory is O(blk * n) (~64 MB of float64 per block)
        # instead of O(n^2), so clusters under max_cluster_rows can't OOM
        # a worker before the cap's ValueError would fire.
        blk = max(1, 8_000_000 // max(n, 1))
        for s in range(0, n, blk):
            sims = mn[s : s + blk] @ mn.T
            ii, jj = np.nonzero(sims >= threshold)
            for a, b in zip(ii + s, jj):
                if a < b:
                    ra, rb = find(int(a)), find(int(b))
                    if ra != rb:
                        parent[rb] = ra
        roots = np.array([find(int(i)) for i in range(n)])
        # keeper per duplicate group: lowest centroid similarity, then
        # lowest vec_id — deterministic regardless of shuffle order
        order = np.lexsort((bid, csim))
        keep = np.zeros(n, dtype=bool)
        seen: set[int] = set()
        for i in order:
            r = int(roots[i])
            if r not in seen:
                seen.add(r)
                keep[i] = True
        return pa.table(
            {
                "vec_id": pa.array(bid, pa.int64()),
                "cluster": group.column("cluster"),
                "cent_sim_milli": pa.array(csim, pa.int64()),
                "keep": pa.array(keep, pa.bool_()),
            }
        )

    return (
        ds.map_batches(
            _assign_cluster, fn_kwargs={"cents_ref": cents_ref}, batch_format="pyarrow"
        )
        .groupby("cluster")
        .map_groups(_dedupe_cluster, batch_format="pyarrow")
    )


def embedding_near_dup_lsh(ds, threshold: float = 0.9, n_planes: int = 12):
    """Scale path for embedding near-dup: random-hyperplane signature
    bucketing (groupby on the signature) -> exact cosine verify within each
    bucket.  Approximate: pairs split across all buckets are missed;
    recall is tuned by n_planes / multi-probe."""
    rng = np.random.RandomState(7)
    planes_holder = {}

    def _sig_rows(batch: pa.Table) -> pa.Table:
        bid = batch.column("vec_id").to_numpy()
        col = batch.column("embedding")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        m = (
            col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        ).reshape(len(bid), -1)
        if "p" not in planes_holder:
            planes_holder["p"] = np.random.RandomState(7).standard_normal(
                (n_planes, m.shape[1])
            )
        bits = (m @ planes_holder["p"].T) > 0
        sigs = (bits * (1 << np.arange(n_planes))).sum(axis=1).astype(np.int64)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "sig": pa.array(sigs, pa.int64()),
                "embedding": batch.column("embedding"),
            }
        )

    def _verify(group: pa.Table) -> pa.Table:
        bid = group.column("vec_id").to_numpy()
        col = group.column("embedding")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        m = (
            col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        ).reshape(len(bid), -1)
        nm = np.linalg.norm(m, axis=1)
        nm[nm == 0] = 1.0
        mn = m / nm[:, None]
        sims = mn @ mn.T
        ii, jj = np.nonzero((sims >= threshold) & (bid[:, None] < bid[None, :]))
        return pa.table(
            {
                "id_a": pa.array(bid[ii], pa.int64()),
                "id_b": pa.array(bid[jj], pa.int64()),
                "sim": pa.array(np.round(sims[ii, jj], 4), pa.float64()),
            }
        )

    return (
        ds.map_batches(_sig_rows, batch_format="pyarrow")
        .groupby("sig")
        .map_groups(_verify, batch_format="pyarrow")
    )


# -- SimHash -----------------------------------------------------------------


# Per-worker-process token-hash memo: web text is Zipf-distributed, so the
# blake2b calls collapse to one per *distinct* token per process.  Bounded
# (cleared at 1M entries) so a pathological vocabulary can't grow the heap.
_TOKEN_HASH_CACHE: dict[str, int] = {}


def _token_hashes(tokens: list[str]) -> np.ndarray:
    """blake2b-64 per token, deduplicated: only the batch's *distinct*
    tokens (np.unique) touch Python/blake2b; the flat array comes back via
    the vectorized inverse gather."""
    cache = _TOKEN_HASH_CACHE
    if len(cache) > 1_000_000:
        cache.clear()
    index: dict[str, int] = {}
    inv = np.empty(len(tokens), dtype=np.int64)
    uniq: list[str] = []
    for i, tok in enumerate(tokens):
        j = index.get(tok)
        if j is None:
            j = len(uniq)
            index[tok] = j
            uniq.append(tok)
        inv[i] = j
    uh = np.empty(len(uniq), dtype=np.uint64)
    for i, tok in enumerate(uniq):
        h = cache.get(tok)
        if h is None:
            h = struct.unpack(
                "<Q", hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest()
            )[0]
            cache[tok] = h
        uh[i] = h
    return uh[inv]


def _simhash_many(texts: list[str]) -> np.ndarray:
    """Vectorized SimHash of a batch of documents (uint64 per doc).

    One flat token-hash array for the whole batch; bit expansion is a
    single little-endian ``np.unpackbits``; per-document bit sums are one
    contiguous-slice ``.sum(axis=0)`` per doc (measured 6x faster than
    ``np.add.reduceat`` and 30x faster than a cumsum over axis 0, both of
    which stride badly) — bit-identical to the per-token scalar loop
    (bit i set iff 2 * ones_i > n_tokens)."""
    tok_lists = [(t or "").lower().split() for t in texts]
    counts = np.array([len(t) for t in tok_lists], dtype=np.int64)
    out = np.zeros(len(texts), dtype=np.uint64)
    flat = [tok for toks in tok_lists for tok in toks]
    if not flat:
        return out
    h = _token_hashes(flat)
    shifts = np.arange(64, dtype=np.uint64)
    # little-endian unpack: bits[:, i] == (h >> i) & 1, single C pass
    bits = np.unpackbits(
        h.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    )
    starts = np.zeros(len(texts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    nonempty = np.nonzero(counts > 0)[0]
    ones = np.stack(
        [
            bits[starts[i] : starts[i] + counts[i]].sum(axis=0, dtype=np.int64)
            for i in nonempty
        ]
    )
    acc = 2 * ones - counts[nonempty, None]
    packed = ((acc > 0).astype(np.uint64) << shifts[None, :]).sum(
        axis=1, dtype=np.uint64
    )
    out[nonempty] = packed
    return out


def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens (scalar convenience wrapper
    around the vectorized batch kernel)."""
    return int(_simhash_many([text])[0])


def simhash_batch(batch: pa.Table) -> pa.Table:
    sh = _simhash_many(batch.column("text").to_pylist())
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "simhash": pa.array(sh, pa.uint64()),
        }
    )


def _popcount64(arr: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (one C-level unpackbits pass)."""
    return np.unpackbits(arr.view(np.uint8).reshape(len(arr), 8), axis=1).sum(
        axis=1, dtype=np.int64
    )


def simhash_near_pairs(
    ds,
    max_hamming: int = 3,
    max_bucket_size: int | None = DEFAULT_MAX_BUCKET,
    n_hubs: int = DEFAULT_N_HUBS,
):
    """Blocked simhash near-dup pairs: split the 64-bit hash into 4 16-bit
    blocks; any pair within hamming<=3 shares at least one block (pigeonhole).
    Groupby per block -> candidate pairs -> exact hamming verify.

    Skew guard: a (block, key) bucket larger than ``max_bucket_size`` (a
    mass-duplicated boilerplate blob pools its whole cluster into one
    bucket) emits STAR pairs — each member verified against the bucket's
    ``n_hubs`` min-id hubs with a vectorized XOR+popcount — instead of the
    m^2 all-pairs loop.  Exact for identical blobs (hamming 0 to the hub);
    pairs connected only through a non-hub member can be missed, same
    tradeoff as MinHash's ``_bucket_pairs_capped``."""
    hashed = ds.map_batches(simhash_batch, batch_format="pyarrow")

    def _blocks(batch: pa.Table) -> pa.Table:
        # vectorized 4x row expansion: repeat each (id, hash) 4 times and
        # slice the 16-bit key per block with one shift/mask pass
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        hs = batch.column("simhash").to_numpy(zero_copy_only=False)
        n = len(ids)
        blocks = np.tile(np.arange(4, dtype=np.uint64), n)
        hs4 = np.repeat(hs, 4)
        keys = (hs4 >> (blocks * np.uint64(16))) & np.uint64(0xFFFF)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, 4), pa.int64()),
                "block": pa.array(blocks.astype(np.int32), pa.int32()),
                "key": pa.array(keys.astype(np.int32), pa.int32()),
                "simhash": pa.array(hs4, pa.uint64()),
            }
        )

    def _pairs(group: pa.Table) -> pa.Table:
        rows = sorted(
            set(
                zip(
                    group.column("doc_id").to_pylist(),
                    group.column("simhash").to_pylist(),
                )
            )
        )
        a, b, d = [], [], []
        if max_bucket_size is not None and len(rows) > max_bucket_size:
            ids = np.array([r[0] for r in rows], dtype=np.int64)
            hs = np.array([r[1] for r in rows], dtype=np.uint64)
            for h in range(min(n_hubs, len(rows) - 1)):
                hub_id, hub_hash = rows[h]
                ham = _popcount64(hs[h + 1 :] ^ np.uint64(hub_hash))
                ok = np.nonzero(ham <= max_hamming)[0]
                a.extend([hub_id] * len(ok))
                b.extend(ids[h + 1 :][ok].tolist())
                d.extend(ham[ok].tolist())
        else:
            for i in range(len(rows) - 1):
                for j in range(i + 1, len(rows)):
                    ham = bin(rows[i][1] ^ rows[j][1]).count("1")
                    if ham <= max_hamming and rows[i][0] != rows[j][0]:
                        a.append(rows[i][0])
                        b.append(rows[j][0])
                        d.append(ham)
        return pa.table(
            {
                "id_a": pa.array(a, pa.int64()),
                "id_b": pa.array(b, pa.int64()),
                "hamming": pa.array(d, pa.int32()),
            }
        )

    blocked = hashed.map_batches(_blocks, batch_format="pyarrow")
    pairs = blocked.groupby(["block", "key"]).map_groups(_pairs, batch_format="pyarrow")
    return pairs.groupby(["id_a", "id_b"]).min("hamming")
