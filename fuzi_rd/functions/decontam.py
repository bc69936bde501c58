"""Benchmark decontamination: drop training documents that overlap an
evaluation/benchmark corpus at the n-gram level.

The standard pre-training hygiene step (GPT-3 App. C / Gopher / Llama
style): any training document sharing a ``w``-token window with a
benchmark document is removed, so eval numbers measure generalization,
not memorization.

Scale shape (100 TB training side, small benchmark side — by definition:
benchmarks are thousands of documents, not billions):

  1. the BENCHMARK corpus reduces to the distinct 128-bit double
     fingerprints of its w-token windows (the same O(n) rolling
     polynomial hashes as `spans.duplicate_spans`) — a bounded array,
     guarded by ``max_bench_windows``;
  2. that array ships to the object store ONCE via ``ray.put``;
  3. probe tasks stream the training corpus: each batch's window
     fingerprints are tested with a vectorized ``np.isin`` prefilter on
     the first 64-bit hash, and only the (rare) prefilter hits are
     pair-verified against the second hash — per-batch work is O(windows)
     numpy, no shuffle ever touches document text.

False positives require a simultaneous 128-bit double-fingerprint
collision (~2^-128 per window pair); there are no false negatives.
Documents shorter than ``w`` tokens have no windows and are always kept.
Benchmark documents present in the training set drop out automatically
(they match their own windows) — no special-casing.

Tokenization is the span convention: lowercase whitespace split
(`spans.window_fingerprint_batch`), matching the DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fuzi_rd.broadcast import resolve
from fuzi_rd.functions.spans import window_fingerprint_batch

# ~16 bytes/window: 5M windows = 80 MB broadcast — a benchmark corpus is
# orders of magnitude smaller; beyond this the "small side" contract is
# broken and the caller should window-dedup the benchmark first.
DEFAULT_MAX_BENCH_WINDOWS = 5_000_000


def _probe_contamination(
    batch: pa.Table, bench_ref, w: int, doc_col: str, text_col: str
) -> pa.Table:
    """Task UDF: the batch's ``doc_col`` ids that share no window with the
    benchmark.  The fingerprints (sorted unique first-hash array for the
    prefilter, frozenset of ``fp1 << 64 | fp2``) resolve once per worker
    process; per batch, one vectorized prefilter + rare pair checks."""
    fp1, pair_set = resolve(bench_ref)
    wins = window_fingerprint_batch(w, text_col=text_col, doc_col=doc_col)(batch)
    fp = wins.column("fp").to_numpy(zero_copy_only=False)
    doc = wins.column(doc_col).to_numpy(zero_copy_only=False)
    bad = np.empty(0, dtype=np.int64)
    if len(fp) and len(fp1):
        cand = np.isin(fp, fp1)  # vectorized prefilter, rare hits
        if cand.any():
            fp2 = wins.column("fp2").to_numpy(zero_copy_only=False)
            hits = [
                int(d)
                for d, a, b in zip(doc[cand], fp[cand], fp2[cand])
                if (int(a) << 64) | int(b) in pair_set
            ]
            bad = np.unique(np.array(hits, dtype=np.int64))
    ids = batch.column(doc_col).to_numpy(zero_copy_only=False)
    keep = ~np.isin(ids, bad)  # vectorized; Python touches only hits
    return pa.table({doc_col: batch.column(doc_col).filter(pa.array(keep))})


def decontam_keep(
    ds,
    bench_ds,
    w: int = 8,
    doc_col: str = "doc_id",
    text_col: str = "text",
    max_bench_windows: int = DEFAULT_MAX_BENCH_WINDOWS,
    batch_size: int = 1024,
):
    """Keep ``ds`` documents sharing NO ``w``-token window with
    ``bench_ds``; returns a Dataset of surviving ``doc_col`` ids.

    ``bench_ds`` is the SMALL side (an eval/benchmark corpus): its distinct
    window fingerprints are collected and broadcast once; ``ds`` streams.
    Raises if the benchmark exceeds ``max_bench_windows`` distinct windows
    (the broadcast-side contract — window-dedup the benchmark or raise the
    cap explicitly).
    """
    import ray

    bench_wins = bench_ds.map_batches(
        window_fingerprint_batch(w, text_col=text_col, doc_col=doc_col),
        batch_format="pyarrow",
    ).select_columns(["fp", "fp2"])

    parts = [b for b in bench_wins.iter_batches(batch_format="pyarrow")]
    if parts:
        all_fps = pa.concat_tables(parts)
        fp1 = all_fps.column("fp").to_numpy(zero_copy_only=False)
        fp2 = all_fps.column("fp2").to_numpy(zero_copy_only=False)
    else:
        fp1 = np.empty(0, np.uint64)
        fp2 = np.empty(0, np.uint64)
    if len(fp1) > max_bench_windows:
        raise ValueError(
            f"benchmark corpus has {len(fp1)} windows > max_bench_windows="
            f"{max_bench_windows}; decontam_keep broadcasts the benchmark "
            "side — window-dedup it or raise the cap explicitly"
        )
    pair_set = frozenset(
        (int(a) << 64) | int(b) for a, b in zip(fp1, fp2)
    )
    return ds.map_batches(
        _probe_contamination,
        fn_kwargs={
            "bench_ref": ray.put((np.unique(fp1), pair_set)),
            "w": w,
            "doc_col": doc_col,
            "text_col": text_col,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
    )
