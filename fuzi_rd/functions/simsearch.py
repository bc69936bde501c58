"""Similarity search over an embedding column (list<float>).

  brute_force_topk   exact cosine top-k: numpy matmul per batch against a
                     broadcast query matrix, per-batch partial top-k, tiny
                     driver-side merge (never materializes the dataset)
  lsh_topk           random-hyperplane LSH bucketing: the scale path — only
                     buckets near the query's signature are scanned

Scale notes: the query matrix is put in the object store ONCE (``ray.put``)
and read zero-copy by every task — never re-shipped per batch.  Per-batch
top-k keeps the shuffle-free reduction at O(batches * k) rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fuzi_rd.broadcast import resolve


def _batch_matrix(batch: pa.Table) -> np.ndarray:
    col = batch.column("embedding")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # zero-copy-ish: flat values + fixed dim reshape
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(col)
    return flat.reshape(n, -1)


def _cosine_scores(mat: np.ndarray, query: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1) * np.linalg.norm(query)
    norms[norms == 0] = 1.0
    return (mat @ query) / norms


def partial_topk(batch: pa.Table, query_ref, k: int) -> pa.Table:
    """Task UDF: this batch's local top-k (vec_id, sim) against the
    broadcast query vector."""
    sims = _cosine_scores(_batch_matrix(batch), resolve(query_ref))
    k = min(k, len(sims))
    idx = np.argpartition(-sims, k - 1)[:k] if k else np.array([], dtype=int)
    return pa.table(
        {
            "vec_id": batch.column("vec_id").take(pa.array(idx)),
            "sim": pa.array(sims[idx], pa.float64()),
        }
    )


def _merged_topk(partial, k: int) -> list[dict]:
    """Global top-k of per-batch partial results: descending similarity,
    vec_id ascending tiebreak (deterministic)."""
    rows = partial.take_all()  # O(num_batches * k) rows only
    rows.sort(key=lambda r: (-r["sim"], r["vec_id"]))
    return [
        {"rank": i + 1, "vec_id": r["vec_id"], "sim": r["sim"]}
        for i, r in enumerate(rows[:k])
    ]


def brute_force_topk(ds, query: np.ndarray, k: int = 10) -> list[dict]:
    """Exact cosine top-k.  Returns [{rank, vec_id, sim}] sorted by
    descending similarity (vec_id ascending tiebreak, deterministic)."""
    import ray

    query_ref = ray.put(np.asarray(query, dtype=np.float64))
    partial = ds.map_batches(
        partial_topk, fn_kwargs={"query_ref": query_ref, "k": k}, batch_format="pyarrow"
    )
    return _merged_topk(partial, k)


# -- IVF variant (scale path) ------------------------------------------------


def _kmeans(sample: np.ndarray, k: int, iters: int = 10) -> np.ndarray:
    """Tiny deterministic k-means (k-means++ seeding off a fixed RNG) for
    the IVF coarse quantizer.  Runs driver-side on a SAMPLE — at corpus
    scale the sample is a bounded ds.random_sample, never the full table."""
    rng = np.random.RandomState(17)
    n = len(sample)
    k = min(k, n)
    # k-means++ seeding
    centroids = [sample[rng.randint(n)]]
    for _ in range(1, k):
        d2 = np.min(
            [((sample - c) ** 2).sum(axis=1) for c in centroids], axis=0
        )
        probs = d2 / d2.sum() if d2.sum() > 0 else None
        centroids.append(sample[rng.choice(n, p=probs)])
    cents = np.stack(centroids)
    for _ in range(iters):
        assign = ((sample[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        for j in range(k):
            members = sample[assign == j]
            if len(members):
                cents[j] = members.mean(axis=0)
    return cents


def _assign_bucket(batch: pa.Table, cents_ref) -> pa.Table:
    """Task UDF: append each row's nearest-centroid ``bucket``."""
    cents = resolve(cents_ref)
    mat = _batch_matrix(batch)
    d2 = ((mat[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return batch.append_column("bucket", pa.array(d2.argmin(axis=1), pa.int32()))


def build_ivf_assignments(ds, n_centroids: int = 16, sample_size: int = 2048):
    """IVF index build: sample -> k-means centroids (driver-side, tiny) ->
    broadcast centroids -> per-batch nearest-centroid assignment.

    Returns (centroids, assigned_ds) where assigned_ds adds a ``bucket``
    column.  At corpus scale the assigned dataset is written partitioned by
    bucket so queries read only the probed buckets' files."""
    import ray

    sample_rows = ds.limit(sample_size).take_all()
    sample = np.stack(
        [np.asarray(r["embedding"], dtype=np.float64) for r in sample_rows]
    )
    cents = _kmeans(sample, n_centroids)
    return cents, ds.map_batches(
        _assign_bucket, fn_kwargs={"cents_ref": ray.put(cents)}, batch_format="pyarrow"
    )


def ivf_topk(
    ds,
    query: np.ndarray,
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 4,
) -> list[dict]:
    """Approximate top-k via an IVF coarse quantizer: scan only the
    ``nprobe`` centroid buckets nearest the query.  Recall/latency tradeoff
    is (n_centroids, nprobe); nprobe = n_centroids degenerates to exact."""
    query = np.asarray(query, dtype=np.float64)
    cents, assigned = build_ivf_assignments(ds, n_centroids)
    d2 = ((cents - query[None, :]) ** 2).sum(axis=1)
    probe = set(int(b) for b in np.argsort(d2)[:nprobe])

    filtered = assigned.filter(expr=f"bucket in {sorted(probe)}")
    return brute_force_topk(filtered, query, k)


# -- LSH variant (scale path) ------------------------------------------------

_N_PLANES = 12


def _planes(dim: int) -> np.ndarray:
    rng = np.random.RandomState(42)
    return rng.standard_normal((_N_PLANES, dim))


def _signature(planes: np.ndarray, v: np.ndarray) -> int:
    bits = (planes @ v) > 0
    out = 0
    for i, b in enumerate(bits):
        if b:
            out |= 1 << i
    return out


def _bucket_scan(batch: pa.Table, ref, qsig: int, max_hamming: int) -> pa.Table:
    """Task UDF: (vec_id, sim) of the rows whose hyperplane signature is
    within ``max_hamming`` bits of the query's."""
    query, planes = resolve(ref)
    mat = _batch_matrix(batch)
    bits = (mat @ planes.T) > 0
    sigs = (bits * (1 << np.arange(_N_PLANES))).sum(axis=1).astype(np.int64)
    # vectorized popcount: one C-level unpackbits pass over the
    # xored signatures (np.vectorize here cost O(batch) Python calls)
    x = (sigs ^ np.int64(qsig)).astype(np.uint64)
    ham = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(
        axis=1, dtype=np.int64
    )
    idx = np.nonzero(ham <= max_hamming)[0]
    if len(idx) == 0:
        return pa.table(
            {"vec_id": pa.array([], pa.int64()), "sim": pa.array([], pa.float64())}
        )
    return pa.table(
        {
            "vec_id": batch.column("vec_id").take(pa.array(idx)),
            "sim": pa.array(_cosine_scores(mat[idx], query), pa.float64()),
        }
    )


def lsh_topk(ds, query: np.ndarray, k: int = 10, max_hamming: int = 2) -> list[dict]:
    """Approximate top-k: scan only vectors whose hyperplane signature is
    within `max_hamming` bits of the query's.  Recall/latency tradeoff is
    controlled by (_N_PLANES, max_hamming)."""
    import ray

    query = np.asarray(query, dtype=np.float64)
    dim = len(query)
    planes = _planes(dim)
    qsig = _signature(planes, query)
    partial = ds.map_batches(
        _bucket_scan,
        fn_kwargs={
            "ref": ray.put((query, planes)),
            "qsig": qsig,
            "max_hamming": max_hamming,
        },
        batch_format="pyarrow",
    )
    return _merged_topk(partial, k)


def embedding_outliers(ds, n_centroids: int = 8, top_n: int = 50, sample_size: int = 2048):
    """Embedding-space outlier detection: documents far from every cluster
    centroid are junk candidates (OCR noise, binary soup, off-distribution
    content) — the embedding-side analog of the perplexity tail.

    Build = the IVF quantizer (bounded driver-side k-means sample,
    centroids broadcast once); score = per-batch vectorized distance to
    the ASSIGNED (nearest) centroid; reduce = per-batch partial top-n so
    only ``batches x top_n`` fixed-width rows reach the final tiny
    sort+limit.  Returns a Dataset of (vec_id, bucket, dist_milli) — the
    ``top_n`` furthest vectors, distance as integer milli (deterministic
    ordering, vec_id tiebreak).
    """
    import ray

    cents, assigned = build_ivf_assignments(
        ds, n_centroids=n_centroids, sample_size=sample_size
    )

    def _partial(batch: pa.Table) -> pa.Table:
        mat = _batch_matrix(batch)
        buckets = batch.column("bucket").to_numpy(zero_copy_only=False)
        d2 = ((mat - cents[buckets]) ** 2).sum(axis=1)
        dist_milli = np.floor(1000.0 * np.sqrt(d2)).astype(np.int64)
        n = min(top_n, len(dist_milli))
        idx = np.argsort(-dist_milli, kind="stable")[:n]
        return pa.table(
            {
                "vec_id": batch.column("vec_id").take(pa.array(idx)),
                "bucket": batch.column("bucket").take(pa.array(idx)),
                "dist_milli": pa.array(dist_milli[idx], pa.int64()),
            }
        )

    partial = assigned.map_batches(_partial, batch_format="pyarrow")
    return (
        partial.sort(["dist_milli", "vec_id"], descending=[True, False])
        .limit(top_n)
    )
