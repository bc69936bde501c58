"""LSH serving index: build + pruned lookup, pinned against a brute-force
numpy twin that recomputes every signature and bucket membership directly.
"""

import hashlib
import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


def _brute_matches(docs, queries, threshold):
    """Exact twin of build+lookup: candidate iff >= 1 equal band, keep iff
    agreeing positions clear ceil(threshold * 64)."""
    from fuzi_rd.functions.dedup import (
        BAND_SIZE,
        N_BANDS,
        N_PERM,
        char_shingles,
        minhash_signature,
    )

    def sig_of(text):
        if not (text or "").split():
            return None
        return minhash_signature(char_shingles(text))

    def bands_of(sig):
        return [
            hashlib.blake2b(
                sig[b * BAND_SIZE : (b + 1) * BAND_SIZE].tobytes(),
                digest_size=8,
            ).hexdigest()
            for b in range(N_BANDS)
        ]

    need = math.ceil(round(threshold * 1000) * N_PERM / 1000)
    doc_sigs = {d: sig_of(t) for d, t in docs}
    expected = {}
    for qid, qtext in queries:
        qsig = sig_of(qtext)
        if qsig is None:
            continue
        qbands = bands_of(qsig)
        for doc, dsig in doc_sigs.items():
            if dsig is None:
                continue
            if not any(
                qb == db for qb, db in zip(qbands, bands_of(dsig))
            ):
                continue
            n = int((qsig == dsig).sum())
            if n >= need:
                expected[(qid, doc)] = (n, n * 1000 // N_PERM)
    return expected


@pytest.mark.usefixtures("ray_session")
def test_lsh_lookup_matches_bruteforce(tmp_path):
    import ray

    from fuzi_rd.functions.lsh_index import build_lsh_index, lsh_lookup

    tbl = pq.read_table(SF_DIR + "/documents.parquet", columns=["doc_id", "text"])
    docs = list(zip(tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist()))

    # queries: a deterministic slice of corpus docs (self-match at 64/64
    # expected) plus one lightly-perturbed near-dup and one novel text.
    q = [(d, t) for d, t in docs if d % 97 == 0][:5]
    near_src = docs[3][1]
    q.append((100_000, near_src + " tail words appended here"))
    q.append((100_001, "entirely novel text that matches nothing at all"))

    idx = build_lsh_index(
        ray.data.read_parquet(SF_DIR + "/documents.parquet", columns=["doc_id", "text"]),
        str(tmp_path / "lsh"),
        n_buckets=8,
    )
    out = lsh_lookup(
        idx,
        ray.data.from_arrow(
            pa.table(
                {
                    "query_id": pa.array([a for a, _ in q], pa.int64()),
                    "text": pa.array([b for _, b in q], pa.string()),
                }
            )
        ),
        threshold=0.5,
    )
    got = {
        (r["query_id"], r["doc_id"]): (r["n_agree"], r["est_milli"])
        for r in out.take_all()
    }

    expected = _brute_matches(docs, q, threshold=0.5)
    assert got == expected
    # sanity: every in-corpus query self-matched perfectly
    for qid, _ in q[:5]:
        assert got[(qid, qid)] == (64, 1000)


@pytest.mark.usefixtures("ray_session")
def test_lsh_build_idempotent_and_crash_safe(tmp_path):
    import ray

    from fuzi_rd.functions.lsh_index import build_lsh_index

    ds = ray.data.read_parquet(
        SF_DIR + "/documents.parquet", columns=["doc_id", "text"]
    ).limit(50)
    out = tmp_path / "lsh"
    p1 = build_lsh_index(ds, str(out), n_buckets=4)
    mtime = (out / "_DONE").stat().st_mtime_ns
    p2 = build_lsh_index(ds, str(out), n_buckets=4)  # no-op rebuild
    assert p1 == p2
    assert (out / "_DONE").stat().st_mtime_ns == mtime
    # stale partial build (no _DONE) is replaced, not appended to
    (out / "_DONE").unlink()
    n_before = len(list((out / "bands").rglob("*.parquet")))
    build_lsh_index(ds, str(out), n_buckets=4)
    assert (out / "_DONE").exists()
    assert len(list((out / "bands").rglob("*.parquet"))) == n_before


@pytest.mark.usefixtures("ray_session")
def test_lsh_index_checks_its_signing_parameters(tmp_path):
    """``_DONE`` records the signing (``n_perm``, ``band_size``) next to
    ``n_buckets``.  A lookup on an index signed otherwise raises, naming
    the parameter, and a build over it rebuilds it."""
    import json

    import ray

    from fuzi_rd.functions.dedup import BAND_SIZE, N_PERM
    from fuzi_rd.functions.lsh_index import build_lsh_index, lsh_lookup

    ds = ray.data.read_parquet(
        SF_DIR + "/documents.parquet", columns=["doc_id", "text"]
    ).limit(50)
    out = tmp_path / "lsh"
    idx = build_lsh_index(ds, str(out), n_buckets=4)
    done = json.loads((out / "_DONE").read_text())
    assert done == {"n_buckets": 4, "n_perm": N_PERM, "band_size": BAND_SIZE}
    queries = pa.table(
        {"query_id": pa.array([1], pa.int64()), "text": pa.array(["some query text"])}
    )
    for key in ("n_perm", "band_size"):
        (out / "_DONE").write_text(json.dumps({**done, key: done[key] // 2}))
        with pytest.raises(ValueError, match=f"{key}={done[key] // 2}"):
            lsh_lookup(idx, ray.data.from_arrow(queries))
        build_lsh_index(ds, str(out), n_buckets=4)
        assert json.loads((out / "_DONE").read_text()) == done
    lsh_lookup(idx, ray.data.from_arrow(queries)).take_all()


@pytest.mark.usefixtures("ray_session")
def test_lsh_lookup_rejects_duplicate_query_ids(tmp_path):
    """Query signatures are keyed by id: two queries sharing one id would
    collapse to the last signature, so the lookup must refuse them."""
    import ray

    from fuzi_rd.functions.lsh_index import build_lsh_index, lsh_lookup

    ds = ray.data.read_parquet(
        SF_DIR + "/documents.parquet", columns=["doc_id", "text"]
    ).limit(50)
    idx = build_lsh_index(ds, str(tmp_path / "lsh"), n_buckets=4)
    queries = pa.table(
        {
            "query_id": pa.array([7, 7], pa.int64()),
            "text": pa.array(["first query text here", "a different one"], pa.string()),
        }
    )
    with pytest.raises(ValueError, match="duplicate query_id"):
        lsh_lookup(idx, ray.data.from_arrow(queries))


@pytest.mark.usefixtures("ray_session")
def test_lsh_lookup_uses_the_built_bucket_count(tmp_path):
    """The lookup probes the bucket dirs of the build's ``n_buckets``
    (recorded in ``_DONE``), not a default of its own."""
    import ray

    from fuzi_rd.functions.lsh_index import build_lsh_index, lsh_lookup

    ds = ray.data.read_parquet(
        SF_DIR + "/documents.parquet", columns=["doc_id", "text"]
    ).limit(50)
    idx = build_lsh_index(ds, str(tmp_path / "lsh"), n_buckets=4)
    # ids 40-44: their default-count signature buckets (id % 64) hold no
    # rows in a 4-bucket index
    tbl = pq.read_table(SF_DIR + "/documents.parquet", columns=["doc_id", "text"])
    queries = tbl.slice(40, 5).rename_columns(["query_id", "text"])
    got = {
        r["query_id"]
        for r in lsh_lookup(idx, ray.data.from_arrow(queries)).take_all()
        if r["query_id"] == r["doc_id"]
    }
    assert got == set(range(40, 45))


@pytest.mark.usefixtures("ray_session")
def test_lsh_empty_corpus_builds_empty_index(tmp_path):
    """A corpus with no non-empty text signs nothing: the build still
    writes a valid index, and a lookup on it returns no rows."""
    import ray

    from fuzi_rd.functions.lsh_index import build_lsh_index, lsh_lookup

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["", "   ", None], pa.string()),
        }
    )
    idx = build_lsh_index(ray.data.from_arrow(docs), str(tmp_path / "lsh"))
    queries = pa.table(
        {
            "query_id": pa.array([9], pa.int64()),
            "text": pa.array(["some query text to look up"], pa.string()),
        }
    )
    assert lsh_lookup(idx, ray.data.from_arrow(queries)).take_all() == []
