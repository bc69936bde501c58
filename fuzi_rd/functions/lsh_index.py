"""MinHash-LSH serving index: persisted band-bucketed index + pruned lookup.

The batch dedup pipeline (`dedup.minhash_dedup`) answers "which documents
in THIS corpus are near-dups of each other" as one job.  The serving path
answers the incremental question a crawl pipeline asks every refresh:
"which documents in the EXISTING corpus is this new page a near-dup of" —
without rescanning the corpus.  Same method (banded MinHash over char
shingles, Broder 1997; Leskovec/Rajaraman/Ullman MMDS ch.3), different
artifact: the signatures are computed ONCE and persisted, and a lookup
reads only the band buckets the query hashes into.

Two parquet artifacts under ``out_dir`` (both hive-partitioned for read
pruning, the same layout discipline as the postings index; see the
``postings`` module docstring):

  ``bands/bucket=K/``  — (band:int32, band_hash:string, doc_id:int64);
                         bucket = first-8-hex of band_hash % n_buckets,
                         so a query band hash names exactly one directory.
  ``sigs/sbucket=K/``  — (doc_id:int64, sig:large_binary 512 B);
                         sbucket = doc_id % n_buckets, so candidate ids
                         name exactly the directories holding their rows.

Scale shape (100 TB):

  1. the corpus is SIGNED ONCE: one ``map_batches`` pass computes each
     doc's 64-permutation signature and writes ``sigs/``; ``bands/`` is
     derived from a column-pruned read-back of ``sigs/`` (520 B/doc rows
     — the html/text never flows twice);
  2. both writes are the hive-partitioned kind — the only exchange is the
     partitioned write itself, no groupby/sort anywhere in the build;
  3. a lookup touches ``<= |queries| * 16`` of the ``bands/`` bucket dirs
     and ``<= |candidates|`` of the ``sigs/`` dirs — never the whole
     artifact — and both probe sets travel as ONE ``ray.put`` broadcast
     read by every read task (never re-shipped per batch);
  4. driver state is bounded by hard-fail caps (``max_queries``,
     ``max_candidates``), the same contract as `line_scrub`'s broadcast
     cap (``dedup.DEFAULT_MAX_BOILERPLATE_LINES``) — a serving lookup
     with a million-doc query set is a batch job and should run
     `minhash_dedup` instead.

Crash-safe build: temp-dir + rename + ``_DONE`` marker, identical to
``postings.build_postings`` — a run that dies mid-write never leaves
partial bucket files behind.  ``_DONE`` is JSON holding the build's
``n_buckets``, which ``lsh_lookup`` reads, so a lookup always probes the
directories the build wrote, and the signing parameters ``n_perm`` and
``band_size``: a build over an index signed with other values rebuilds
it, and a lookup on one raises.  A corpus with no non-empty text builds a
valid empty index.

Similarity is reported EXACTLY as integers so tests and twins can pin it:
``n_agree`` = number of agreeing minhash positions (0..64), and
``est_milli`` = floor(1000 * n_agree / 64) — the standard estimator
E[agree/N_PERM] = Jaccard.  The threshold keeps pairs with
``n_agree >= ceil(threshold * 64)``.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pyarrow as pa

from fuzi_rd.broadcast import resolve
from fuzi_rd.functions.dedup import BAND_SIZE, N_PERM, band_hashes, text_signature

DEFAULT_N_BUCKETS = 64
DEFAULT_MAX_QUERIES = 10_000
DEFAULT_MAX_CANDIDATES = 1_000_000
# what ``_DONE`` records of the signing: an index signed otherwise is stale
_SIGNING = {"n_perm": N_PERM, "band_size": BAND_SIZE}


def _stale_param(done: dict) -> str | None:
    """The first signing parameter whose value in ``done`` differs from
    this code's, if any."""
    return next((k for k, v in _SIGNING.items() if done.get(k) != v), None)


def _band_bucket(band_hash: str, n_buckets: int) -> int:
    return int(band_hash[:8], 16) % n_buckets


def _sig_batch(doc_col: str, text_col: str, n_buckets: int):
    """(doc, text) -> (doc_id, sig bytes, sbucket); docs without a
    signature (``dedup.text_signature``) are skipped."""

    def _s(batch: pa.Table) -> pa.Table:
        out_id, out_sig = [], []
        for doc_id, text in zip(
            batch.column(doc_col).to_pylist(), batch.column(text_col).to_pylist()
        ):
            sig = text_signature(text)
            if sig is not None:
                out_id.append(doc_id)
                out_sig.append(sig.tobytes())
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "sig": pa.array(out_sig, pa.large_binary()),
                "sbucket": pa.array(
                    [i % n_buckets for i in out_id], pa.int32()
                ),
            }
        )

    return _s


def _bands_from_sigs(n_buckets: int):
    def _b(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        sigs = batch.column("sig").to_pylist()
        out_doc, out_band, out_hash, out_bucket = [], [], [], []
        for doc_id, sig_bytes in zip(doc_ids, sigs):
            sig = np.frombuffer(sig_bytes, dtype=np.uint64)
            for b, h in enumerate(band_hashes(sig)):
                out_doc.append(doc_id)
                out_band.append(b)
                out_hash.append(h)
                out_bucket.append(_band_bucket(h, n_buckets))
        return pa.table(
            {
                "band": pa.array(out_band, pa.int32()),
                "band_hash": pa.array(out_hash, pa.string()),
                "doc_id": pa.array(out_doc, pa.int64()),
                "bucket": pa.array(out_bucket, pa.int32()),
            }
        )

    return _b


def build_lsh_index(
    ds,
    out_dir: str,
    doc_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = DEFAULT_N_BUCKETS,
) -> str:
    """Write the two-artifact LSH index; returns ``out_dir``.  Idempotent
    per directory (``_DONE`` marker) and crash-safe (temp dir + rename)."""
    import shutil

    import ray

    out = pathlib.Path(out_dir)
    done = out / "_DONE"
    if done.exists() and _stale_param(json.loads(done.read_text())) is None:
        return str(out)
    tmp = out.with_name(out.name + "._building")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)

    sigs = ds.map_batches(
        _sig_batch(doc_col, text_col, n_buckets), batch_format="pyarrow"
    )
    sigs.write_parquet(str(tmp / "sigs"), partition_cols=["sbucket"])
    # bands derive from the persisted signatures — the text never flows
    # twice, and this read-back is 520 B/doc of fixed-width columns.  No
    # signature written (no non-empty text) leaves an empty index.
    if (tmp / "sigs").is_dir():
        ray.data.read_parquet(
            str(tmp / "sigs"), columns=["doc_id", "sig"]
        ).map_batches(_bands_from_sigs(n_buckets), batch_format="pyarrow").write_parquet(
            str(tmp / "bands"), partition_cols=["bucket"]
        )
    (tmp / "_DONE").write_text(json.dumps({"n_buckets": n_buckets, **_SIGNING}))
    if out.exists():  # partial or stale build: replace it
        shutil.rmtree(out)
    tmp.rename(out)
    return str(out)


def min_agree(threshold: float) -> int:
    """Smallest agreeing-position count that clears ``threshold``:
    ceil(threshold * N_PERM) in exact integer arithmetic."""
    return -((-int(round(threshold * 1000)) * N_PERM) // 1000)


def _probe_bands(batch: pa.Table, probe_ref, query_col: str) -> pa.Table:
    """Task UDF: (query, doc) for every band row whose (band, band_hash)
    a query shares."""
    probe = resolve(probe_ref)
    out_q, out_d = [], []
    for band, h, doc in zip(
        batch.column("band").to_pylist(),
        batch.column("band_hash").to_pylist(),
        batch.column("doc_id").to_pylist(),
    ):
        for qid in probe.get((band, h), ()):
            out_q.append(qid)
            out_d.append(doc)
    return pa.table(
        {query_col: pa.array(out_q, pa.int64()), "doc_id": pa.array(out_d, pa.int64())}
    )


def _verify_candidates(
    batch: pa.Table, verify_ref, need: int, query_col: str
) -> pa.Table:
    """Task UDF: exact signature-position agreement of each candidate
    (query, doc) pair; keeps pairs with at least ``need`` agreeing rows."""
    doc_to_queries, q_sigs = resolve(verify_ref)
    out_q, out_d, out_n = [], [], []
    for doc, sig_bytes in zip(
        batch.column("doc_id").to_pylist(), batch.column("sig").to_pylist()
    ):
        qids = doc_to_queries.get(doc)
        if not qids:
            continue
        sig = np.frombuffer(sig_bytes, dtype=np.uint64)
        for qid in qids:
            n = int((sig == q_sigs[qid]).sum())
            if n >= need:
                out_q.append(qid)
                out_d.append(doc)
                out_n.append(n)
    return pa.table(
        {
            query_col: pa.array(out_q, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
            "n_agree": pa.array(out_n, pa.int64()),
            "est_milli": pa.array([n * 1000 // N_PERM for n in out_n], pa.int64()),
        }
    )


def lsh_lookup(
    index_dir: str,
    queries_ds,
    threshold: float = 0.7,
    query_col: str = "query_id",
    text_col: str = "text",
    max_queries: int = DEFAULT_MAX_QUERIES,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
):
    """Near-dup lookup of ``queries_ds`` (query_id, text) against a built
    index.  Returns a Dataset of
    ``(query_id, doc_id, n_agree, est_milli)`` — one row per (query,
    corpus doc) pair that shares >= 1 LSH band AND whose signature
    agreement clears ``threshold``.  Self-pairs are NOT filtered: if the
    query doc is in the corpus it reports itself at n_agree=64 (callers
    deduplicate on id if they want to).  Query ids must be distinct
    (ValueError otherwise): signatures are keyed by id.

    Driver state is the query signatures and the candidate id->queries
    map, both capped (hard ValueError) — see the module docstring for why
    a lookup is the SMALL-side operation by contract."""
    import ray

    base = pathlib.Path(index_dir)
    done = json.loads((base / "_DONE").read_text())
    stale = _stale_param(done)
    if stale is not None:
        raise ValueError(
            f"lsh_lookup: {index_dir} was signed with {stale}={done.get(stale)}, "
            f"this code signs with {stale}={_SIGNING[stale]}; rebuild the index"
        )
    n_buckets = done["n_buckets"]

    def _pull(ds_small, empty_tbl):
        """Small-result driver pull; Aggregate/Join operators emit
        SCHEMA-LESS blocks for empty hash partitions (the problem
        ``dedup._compact`` solves), so drop zero-row blocks before concat."""
        tbls = [t for t in ray.get(ds_small.to_arrow_refs()) if t.num_rows > 0]
        return pa.concat_tables(tbls) if tbls else empty_tbl

    # 1. sign the queries (distributed), then pull the SMALL signature set
    #    to the driver under a hard cap.
    q_sigs_tbl = _pull(
        queries_ds.map_batches(
            _sig_batch(query_col, text_col, n_buckets), batch_format="pyarrow"
        ).rename_columns({"doc_id": query_col}),
        pa.table(
            {
                query_col: pa.array([], pa.int64()),
                "sig": pa.array([], pa.large_binary()),
                "sbucket": pa.array([], pa.int32()),
            }
        ),
    )
    if len(q_sigs_tbl) > max_queries:
        raise ValueError(
            f"lsh_lookup: {len(q_sigs_tbl)} query docs exceeds "
            f"max_queries={max_queries}; use minhash_dedup for batch jobs"
        )
    q_ids = q_sigs_tbl.column(query_col).to_pylist()
    if len(q_ids) != len(set(q_ids)):
        raise ValueError(
            f"lsh_lookup: duplicate {query_col} values; each query needs its "
            "own id, or all but one of its signatures would be dropped"
        )
    q_sig_arrs = {
        qid: np.frombuffer(s, dtype=np.uint64)
        for qid, s in zip(q_ids, q_sigs_tbl.column("sig").to_pylist())
    }

    # 2. (band, band_hash) -> [query ids]; the bucket set names the dirs.
    probe: dict[tuple[int, str], list[int]] = {}
    buckets: set[int] = set()
    for qid, sig in q_sig_arrs.items():
        for b, h in enumerate(band_hashes(sig)):
            probe.setdefault((b, h), []).append(qid)
            buckets.add(_band_bucket(h, n_buckets))

    # a LIST of paths must be files (ray's read_parquet only expands a
    # directory when given a single path), so glob each pruned bucket dir.
    band_dirs = [
        str(f)
        for k in sorted(buckets)
        for f in sorted((base / "bands" / f"bucket={k}").glob("*.parquet"))
    ]
    empty = pa.table(
        {
            query_col: pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "n_agree": pa.array([], pa.int64()),
            "est_milli": pa.array([], pa.int64()),
        }
    )
    if not band_dirs:
        return ray.data.from_arrow(empty)

    # 3. pruned band read; probe set broadcast ONCE.
    cand = (
        ray.data.read_parquet(band_dirs, columns=["band", "band_hash", "doc_id"])
        .map_batches(
            _probe_bands,
            fn_kwargs={"probe_ref": ray.put(probe), "query_col": query_col},
            batch_format="pyarrow",
        )
        .groupby([query_col, "doc_id"])
        .count()
        .drop_columns(["count()"])
    )
    cand_tbl = _pull(
        cand,
        pa.table(
            {
                query_col: pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
            }
        ),
    )
    if len(cand_tbl) > max_candidates:
        raise ValueError(
            f"lsh_lookup: {len(cand_tbl)} candidate pairs exceeds "
            f"max_candidates={max_candidates}"
        )
    if len(cand_tbl) == 0:
        return ray.data.from_arrow(empty)
    doc_to_queries: dict[int, list[int]] = {}
    sbuckets: set[int] = set()
    for qid, doc in zip(
        cand_tbl.column(query_col).to_pylist(),
        cand_tbl.column("doc_id").to_pylist(),
    ):
        doc_to_queries.setdefault(doc, []).append(qid)
        sbuckets.add(doc % n_buckets)

    # 4. pruned signature read + exact-position verify; both maps ride one
    #    broadcast.
    sig_dirs = [
        str(f)
        for k in sorted(sbuckets)
        for f in sorted((base / "sigs" / f"sbucket={k}").glob("*.parquet"))
    ]
    return ray.data.read_parquet(sig_dirs, columns=["doc_id", "sig"]).map_batches(
        _verify_candidates,
        fn_kwargs={
            "verify_ref": ray.put((doc_to_queries, q_sig_arrs)),
            "need": min_agree(threshold),
            "query_col": query_col,
        },
        batch_format="pyarrow",
    )
