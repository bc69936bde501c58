"""Training-shard preparation operators: sequence packing (packing.py),
benchmark decontamination (decontam.py), log-odds classifier (lm_score.py).
"""

from __future__ import annotations

import pyarrow as pa
import pytest


def _docs(rows):
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )


# -- pack_layout -------------------------------------------------------------


def test_pack_layout_prefix_sums_and_boundaries(ray_session):
    import ray

    from fuzi_rd.functions.packing import pack_layout

    rows = [
        (0, "a b c"),          # bin 0, 3 tokens
        (4, "d e f g"),        # bin 0 (n_bins=4), 4 tokens
        (8, " "),              # bin 0, 0 tokens
        (12, "h i j k l m"),   # bin 0, 6 tokens
        (1, "one two"),        # bin 1
        (5, "three"),          # bin 1
    ]
    out = pack_layout(
        ray.data.from_arrow(_docs(rows)), seq_len=5, n_bins=4
    ).take_all()
    by_id = {r["doc_id"]: r for r in out}
    assert len(out) == len(rows)

    # bin 0 ordered by doc_id: 0(3), 4(4), 8(0), 12(6)
    assert by_id[0]["tok_offset"] == 0 and by_id[0]["pack_id"] == 0
    assert by_id[4]["tok_offset"] == 3
    assert by_id[4]["offset_in_pack"] == 3
    assert by_id[8]["tok_offset"] == 7 and by_id[8]["n_tokens"] == 0
    assert by_id[8]["pack_id"] == 1  # zero-width doc at its successor's slot
    assert by_id[12]["tok_offset"] == 7
    assert by_id[12]["pack_id"] == 1 and by_id[12]["offset_in_pack"] == 2

    # bin 1 independent stream
    assert by_id[1]["tok_offset"] == 0
    assert by_id[5]["tok_offset"] == 2
    for r in out:
        assert r["bin"] == r["doc_id"] % 4
        assert r["pack_id"] == r["tok_offset"] // 5
        assert r["offset_in_pack"] == r["tok_offset"] % 5


def test_pack_layout_null_text_is_zero_tokens(ray_session):
    """A null text row must count 0 tokens, not poison the bin's cumsum
    with NaN offsets (ADVICE r3)."""
    import pyarrow as pa
    import ray

    from fuzi_rd.functions.packing import pack_layout

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 4, 8], pa.int64()),
            "text": pa.array(["a b", None, "c d e"], pa.string()),
        }
    )
    out = {
        r["doc_id"]: r
        for r in pack_layout(
            ray.data.from_arrow(tbl), seq_len=4, n_bins=4
        ).take_all()
    }
    assert out[4]["n_tokens"] == 0 and out[4]["tok_offset"] == 2
    assert out[8]["tok_offset"] == 2 and out[8]["pack_id"] == 0


def test_pack_layout_deterministic_across_runs(ray_session):
    import ray

    from fuzi_rd.functions.packing import pack_layout

    rows = [(i, ("tok " * (i % 17 + 1)).strip()) for i in range(200)]
    a = sorted(
        map(tuple, (r.values() for r in pack_layout(
            ray.data.from_arrow(_docs(rows)), seq_len=64, n_bins=8
        ).take_all()))
    )
    b = sorted(
        map(tuple, (r.values() for r in pack_layout(
            ray.data.from_arrow(_docs(rows)), seq_len=64, n_bins=8
        ).take_all()))
    )
    assert a == b
    # every token position within a bin is covered exactly once
    import collections

    per_bin = collections.defaultdict(list)
    for r in pack_layout(
        ray.data.from_arrow(_docs(rows)), seq_len=64, n_bins=8
    ).take_all():
        per_bin[r["bin"]].append((r["tok_offset"], r["n_tokens"]))
    for offs in per_bin.values():
        offs.sort()
        pos = 0
        for off, n in offs:
            assert off == pos
            pos += n


# -- decontam_keep -----------------------------------------------------------

_GRAM = "alpha beta gamma delta epsilon zeta eta theta"  # exactly 8 tokens


def test_shard_assign_matches_md5_reference(ray_session):
    """Shard and sort_key are exact md5_number_upper/lower mirrors — a
    pure function of (seed, id), independent of batching."""
    import hashlib
    import struct

    import ray

    from fuzi_rd.functions.packing import shard_assign

    rows = _docs([(i, "x") for i in range(200)])
    out = shard_assign(
        ray.data.from_arrow(rows), n_shards=8, seed=3
    ).take_all()
    assert len(out) == 200
    for r in out:
        d = hashlib.md5(f"3:{r['doc_id']}".encode()).digest()
        assert r["shard"] == struct.unpack("<Q", d[:8])[0] % 8
        assert r["sort_key"] == struct.unpack("<Q", d[8:])[0]
    # different seed -> different permutation
    out2 = shard_assign(
        ray.data.from_arrow(rows), n_shards=8, seed=4
    ).take_all()
    m1 = {r["doc_id"]: r["shard"] for r in out}
    m2 = {r["doc_id"]: r["shard"] for r in out2}
    assert m1 != m2


def test_write_training_shards_layout(ray_session, tmp_path):
    """Partitioned shard dirs, lossless read-back, and file-local rows in
    shuffle-rank order."""
    import pathlib

    import ray

    from fuzi_rd.functions.packing import write_training_shards

    rows = _docs([(i, f"doc {i}") for i in range(300)])
    out_dir = str(tmp_path / "shards")
    write_training_shards(
        ray.data.from_arrow(rows), out_dir, n_shards=4, seed=0
    )
    shard_dirs = sorted(
        p.name for p in pathlib.Path(out_dir).iterdir() if p.is_dir()
    )
    assert all(d.startswith("shard=") for d in shard_dirs)
    assert len(shard_dirs) == 4  # 300 md5-uniform docs hit all 4 shards

    back = ray.data.read_parquet(out_dir).take_all()
    assert {r["doc_id"] for r in back} == set(range(300))
    # pins today's one-file-per-block writer layout: each file is one
    # batch-locally sorted run (the contract only promises sorted RUNS —
    # see write_training_shards docstring)
    import pyarrow.parquet as pq

    for f in pathlib.Path(out_dir).rglob("*.parquet"):
        keys = pq.read_table(f, columns=["sort_key"]).column(
            "sort_key"
        ).to_pylist()
        assert keys == sorted(keys)


def test_decontam_drops_overlapping_docs(ray_session):
    import ray

    from fuzi_rd.functions.decontam import decontam_keep

    corpus = _docs(
        [
            (1, f"intro words {_GRAM} trailing text here"),  # contaminated
            (2, "totally unrelated document with plenty of words to spare"),
            (3, "Alpha Beta GAMMA delta epsilon zeta eta theta"),  # case-insensitive hit
            (4, "alpha beta gamma delta epsilon zeta eta"),  # only 7 of the 8
            (5, "short doc"),  # < w tokens, always kept
        ]
    )
    bench = _docs([(100, f"the benchmark question is {_GRAM} answer: 42")])
    kept = sorted(
        r["doc_id"]
        for r in decontam_keep(
            ray.data.from_arrow(corpus), ray.data.from_arrow(bench), w=8
        ).take_all()
    )
    assert kept == [2, 4, 5]


def test_decontam_bench_self_match_and_empty_bench(ray_session):
    import ray

    from fuzi_rd.functions.decontam import decontam_keep

    long_doc = (10, "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10")
    corpus = _docs([long_doc, (11, "clean few words")])
    # benchmark containing the same doc: it matches itself and is dropped
    bench = _docs([long_doc])
    kept = sorted(
        r["doc_id"]
        for r in decontam_keep(
            ray.data.from_arrow(corpus), ray.data.from_arrow(bench), w=8
        ).take_all()
    )
    assert kept == [11]

    # an empty benchmark (no windows) keeps everything
    bench0 = _docs([(99, "too short")])
    kept0 = sorted(
        r["doc_id"]
        for r in decontam_keep(
            ray.data.from_arrow(corpus), ray.data.from_arrow(bench0), w=8
        ).take_all()
    )
    assert kept0 == [10, 11]


def test_decontam_bench_window_cap_raises(ray_session):
    import ray

    from fuzi_rd.functions.decontam import decontam_keep

    corpus = _docs([(1, "x")])
    bench = _docs([(2, " ".join(f"t{i}" for i in range(40)))])  # 33 windows
    with pytest.raises(ValueError, match="max_bench_windows"):
        decontam_keep(
            ray.data.from_arrow(corpus),
            ray.data.from_arrow(bench),
            w=8,
            max_bench_windows=10,
        )


# -- logodds_score -----------------------------------------------------------


def test_logodds_scores_separate_classes(ray_session):
    import math

    import ray

    from fuzi_rd.functions.lm_score import logodds_score

    # good docs say "signal", bad docs say "noise"; "shared" is neutral
    rows, labels = [], []
    for i in range(12):
        good = i % 3 != 0
        word = "signal" if good else "noise"
        rows.append((i, f"{word} shared"))
        labels.append(good)
    tbl = _docs(rows).append_column("is_good", pa.array(labels))
    out = {
        r["doc_id"]: r
        for r in logodds_score(
            ray.data.from_arrow(tbl), max_token_chars=None
        ).take_all()
    }
    assert len(out) == 12

    # hand-computed: gc/bc per token, totals, v=3 distinct tokens
    # good docs: 8 -> "signal shared" x8 ; bad docs: 4 -> "noise shared" x4
    good_tot, bad_tot, v = 16, 8, 3
    w = {
        "signal": math.floor(1000 * math.log(float((8 + 1) * (bad_tot + v)) / float((0 + 1) * (good_tot + v)))),
        "noise": math.floor(1000 * math.log(float((0 + 1) * (bad_tot + v)) / float((4 + 1) * (good_tot + v)))),
        "shared": math.floor(1000 * math.log(float((8 + 1) * (bad_tot + v)) / float((4 + 1) * (good_tot + v)))),
    }
    for i, r in out.items():
        word = "signal" if i % 3 != 0 else "noise"
        s = w[word] + w["shared"]
        assert r["n_tokens"] == 2
        assert r["logodds_milli"] == s
        assert r["mean_logodds_milli"] == s // 2  # floor, incl. negative sums
    # classes separate: every good doc outscores every bad doc
    good_scores = [r["mean_logodds_milli"] for i, r in out.items() if i % 3 != 0]
    bad_scores = [r["mean_logodds_milli"] for i, r in out.items() if i % 3 == 0]
    assert min(good_scores) > max(bad_scores)
    assert max(bad_scores) < 0 < min(good_scores)


def test_logodds_top_k_cap_keeps_discriminative_tokens(ray_session):
    import ray

    from fuzi_rd.functions.lm_score import fit_logodds_weights

    rows, labels = [], []
    for i in range(20):
        good = i < 10
        rows.append((i, ("great " if good else "awful ") + "filler words here"))
        labels.append(good)
    tbl = _docs(rows).append_column("is_good", pa.array(labels))
    full, oov_full = fit_logodds_weights(ray.data.from_arrow(tbl))
    capped, oov_capped = fit_logodds_weights(ray.data.from_arrow(tbl), top_k=2)
    assert set(capped) == {"great", "awful"}  # highest |weight|
    # capped weights agree with the uncapped fit (totals pre-cap)
    assert all(capped[t] == full[t] for t in capped)
    assert oov_full == oov_capped


def test_logodds_zero_token_docs_excluded(ray_session):
    import ray

    from fuzi_rd.functions.lm_score import logodds_score

    tbl = _docs([(1, "some words"), (2, "   "), (3, "")]).append_column(
        "is_good", pa.array([True, False, True])
    )
    out = logodds_score(ray.data.from_arrow(tbl)).take_all()
    assert [r["doc_id"] for r in out] == [1]


# -- embedding_outliers -------------------------------------------------------


def test_embedding_outliers_finds_planted_outlier(ray_session):
    import numpy as np
    import ray

    from fuzi_rd.functions.simsearch import embedding_outliers

    rng = np.random.RandomState(7)
    # two tight clusters + one far-away planted outlier
    a = rng.normal(0.0, 0.05, size=(40, 8)) + np.array([1.0] * 8)
    b = rng.normal(0.0, 0.05, size=(40, 8)) - np.array([1.0] * 8)
    outlier = np.full((1, 8), 25.0)
    mat = np.vstack([a, b, outlier])
    tbl = pa.table(
        {
            "vec_id": pa.array(range(len(mat)), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in mat],
                                  pa.list_(pa.float64())),
        }
    )
    # sample excludes the outlier (first 80 rows): the quantizer models
    # the inlier distribution, the outlier scores against it
    out = embedding_outliers(
        ray.data.from_arrow(tbl), n_centroids=2, top_n=5, sample_size=80
    ).take_all()
    assert len(out) == 5
    assert out[0]["vec_id"] == 80  # the planted outlier ranks first
    assert out[0]["dist_milli"] > out[1]["dist_milli"] * 5
    # deterministic across runs
    out2 = embedding_outliers(
        ray.data.from_arrow(tbl), n_centroids=2, top_n=5, sample_size=80
    ).take_all()
    assert [(r["vec_id"], r["dist_milli"]) for r in out] == [
        (r["vec_id"], r["dist_milli"]) for r in out2
    ]


# -- Count-Min sketch ---------------------------------------------------------


def test_cms_counts_bounded_overestimates(ray_session):
    import collections
    import re

    import ray

    from fuzi_rd.functions.vocab import cms_token_counts

    rows = []
    for i in range(300):
        rows.append((i, f"the quick fox {i % 7} jumps over the lazy dog"))
    tbl = _docs(rows)
    exact = collections.Counter()
    for _id, text in rows:
        exact.update(t for t in re.split(r"[^a-z]+", text.lower()) if t)
    total = sum(exact.values())

    watch = ["the", "fox", "dog", "absent_token"]
    out = cms_token_counts(
        ray.data.from_arrow(tbl), watch, width=1 << 12, depth=4
    )
    got = dict(zip(out.column("token").to_pylist(),
                   out.column("est_count").to_pylist()))
    assert out.column("total_tokens").to_pylist() == [total] * 4
    eps_bound = int(2.72 / (1 << 12) * total) + 1
    for tok in watch:
        assert got[tok] >= exact[tok]  # CMS never undershoots
        assert got[tok] <= exact[tok] + eps_bound
    # tiny vocab vs 4096-wide rows: no collisions, estimates are exact
    assert got["the"] == exact["the"] == 600
    assert got["absent_token"] == 0


def test_cms_deterministic_and_empty(ray_session):
    import ray

    from fuzi_rd.functions.vocab import cms_sketch, cms_token_counts

    tbl = _docs([(1, "a b c"), (2, "a a")])
    m1, t1 = cms_sketch(ray.data.from_arrow(tbl), "text", split_tokens=True)
    m2, t2 = cms_sketch(ray.data.from_arrow(tbl), "text", split_tokens=True)
    assert t1 == t2 == 5
    assert (m1 == m2).all()

    empty = _docs([]).cast(_docs([(1, "x")]).schema)
    out = cms_token_counts(ray.data.from_arrow(empty), ["a"])
    assert out.column("est_count").to_pylist() == [0]
    assert out.column("total_tokens").to_pylist() == [0]


def test_decontam_matches_bruteforce_on_random_corpus(ray_session):
    """Differential: fingerprint-probe result == direct n-gram set math."""
    import random

    import ray

    from fuzi_rd.functions.decontam import decontam_keep

    rng = random.Random(11)
    vocab = [f"w{i}" for i in range(30)]  # small vocab -> real collisions
    docs = [
        (i, " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 30))))
        for i in range(80)
    ]
    bench = [
        (1000 + i, " ".join(rng.choice(vocab) for _ in range(rng.randint(5, 25))))
        for i in range(10)
    ]
    w = 5

    def grams(text):
        toks = text.lower().split()
        return {tuple(toks[i : i + w]) for i in range(len(toks) - w + 1)}

    bench_grams = set().union(*(grams(t) for _, t in bench)) if bench else set()
    want = sorted(
        i for i, t in docs if not (grams(t) & bench_grams)
    )
    got = sorted(
        r["doc_id"]
        for r in decontam_keep(
            ray.data.from_arrow(_docs(docs)),
            ray.data.from_arrow(_docs(bench)),
            w=w,
        ).take_all()
    )
    assert got == want


# -- postings index -----------------------------------------------------------


def test_postings_build_and_pruned_lookup(ray_session, tmp_path):
    import pathlib

    import ray

    from fuzi_rd.functions.postings import (
        build_postings,
        lookup_token,
        token_bucket,
    )

    docs = [
        (1, "apple banana apple"),
        (2, "banana cherry"),
        (3, "apple"),
        (4, "unrelated words entirely"),
    ]
    idx = build_postings(
        ray.data.from_arrow(_docs(docs)), str(tmp_path / "idx"), n_buckets=8
    )
    # hive layout: one bucket=K dir per occupied bucket, plus the _DONE
    # marker and the _STATS sidecar (BM25's N / sum_dl, the bucket count)
    buckets = sorted(p.name for p in pathlib.Path(idx).iterdir())
    assert "_DONE" in buckets and "_STATS" in buckets
    assert all(
        b.startswith("bucket=") for b in buckets if b not in ("_DONE", "_STATS")
    )
    import json

    stats = json.loads((pathlib.Path(idx) / "_STATS").read_text())
    # 4 docs; 3+2+1+3 = 9 token occurrences; the build's bucket count
    assert stats == {"n_docs": 4, "sum_dl": 9, "n_buckets": 8}

    got = sorted(
        (r["doc_id"], r["tf"]) for r in lookup_token(idx, "apple").take_all()
    )
    assert got == [(1, 2), (3, 1)]
    # a token hashing to a bucket with no postings yields empty, not error
    for probe in ("zzzmissing", "qqq", "absent"):
        rows = lookup_token(idx, probe).take_all()
        assert rows == [] or all(False for _ in rows)

    # the lookup reads ONLY the token's bucket directory
    b = token_bucket("apple", 8)
    assert (pathlib.Path(idx) / f"bucket={b}").exists()

    # idempotent: rebuild is a no-op (marker short-circuits)
    assert build_postings(
        ray.data.from_arrow(_docs(docs)), str(tmp_path / "idx"), n_buckets=8
    ) == idx


def test_postings_rebuild_replaces_partial_build(ray_session, tmp_path):
    """A crash between write and _DONE leaves partial bucket files; the
    next build must REPLACE them, not append a second copy (ADVICE r3)."""
    import pathlib

    import ray

    from fuzi_rd.functions.postings import build_postings, lookup_token

    docs = [(1, "apple banana"), (2, "apple")]
    idx = pathlib.Path(tmp_path / "idx")
    build_postings(ray.data.from_arrow(_docs(docs)), str(idx), n_buckets=4)
    # simulate the crash: data present, marker missing
    (idx / "_DONE").unlink()
    build_postings(ray.data.from_arrow(_docs(docs)), str(idx), n_buckets=4)
    got = sorted(
        (r["doc_id"], r["tf"])
        for r in lookup_token(str(idx), "apple").take_all()
    )
    assert got == [(1, 1), (2, 1)]  # no duplicated postings


def test_postings_corpus_without_tokens(ray_session, tmp_path):
    """Blank documents write no bucket: the build still commits an index
    (with its _STATS sidecar), and lookups over it return no rows."""
    import json
    import pathlib

    import ray

    from fuzi_rd.functions.postings import bm25_topk, build_postings, lookup_token

    docs = [(1, ""), (2, "   \n\t ")]
    idx = build_postings(
        ray.data.from_arrow(_docs(docs)), str(tmp_path / "idx"), n_buckets=4
    )
    stats = json.loads((pathlib.Path(idx) / "_STATS").read_text())
    assert stats == {"n_docs": 2, "sum_dl": 0, "n_buckets": 4}
    assert lookup_token(idx, "apple").take_all() == []
    assert bm25_topk(idx, "apple", k=3).take_all() == []


def test_bm25_topk_matches_reference_formula(ray_session, tmp_path):
    """BM25 over the bucket-pruned index equals a from-scratch pure-Python
    evaluation of the Robertson formula (k1=1.25, b=0.75, micro
    fixed-point), including rank tie-break (score desc, doc_id asc)."""
    import math

    import ray

    from fuzi_rd.functions.postings import bm25_topk, build_postings

    docs = [
        (1, "apple banana apple cherry"),
        (2, "banana cherry cherry"),
        (3, "apple"),
        (4, "durian fig grape"),
        (5, "apple banana apple banana apple banana"),
    ]
    idx = build_postings(
        ray.data.from_arrow(_docs(docs)), str(tmp_path / "idx"), n_buckets=8
    )
    got = [
        (r["doc_id"], r["score_micro"], r["rnk"])
        for r in bm25_topk(idx, "apple cherry", k=3).take_all()
    ]

    # pure-Python reference evaluation
    toks = {d: t.split() for d, t in docs}
    n = len(docs)
    sum_dl = sum(len(v) for v in toks.values())
    avgdl = float(sum_dl) / float(n)
    k1, b = 1.25, 0.75
    scores = {}
    for term in ("apple", "cherry"):
        df = sum(1 for v in toks.values() if term in v)
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        for d, v in toks.items():
            tf = float(v.count(term))
            if tf:
                dl = float(len(v))
                c = math.floor(
                    1000000.0
                    * idf
                    * (tf * (k1 + 1.0))
                    / (tf + k1 * (1.0 - b + b * (dl / avgdl)))
                )
                scores[d] = scores.get(d, 0) + c
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    assert got == [(d, s, i + 1) for i, (d, s) in enumerate(want)]

    # a query whose tokens hit no postings returns an empty, typed result
    assert bm25_topk(idx, "zzz qqq", k=3).take_all() == []
