"""Pipeline-level tests: byte-identity of the distributed extraction vs the
single-document engine, partitioned output layout, lineage manifests, and
crash-resume (FIXTURES.md §5 / SURVEY.md §5.2)."""

import shutil

import pytest

from fuzi_rd.extract import extract_from_html
from fuzi_rd.sources.pages import row_for_seq, write_pages_parquet
from fuzi_rd.state import manifest as mf

N_ROWS = 120
NUM_PARTS = 8


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pages")
    write_pages_parquet(str(d), N_ROWS, rows_per_file=40)
    return str(d)


@pytest.fixture(scope="module")
def extracted(ray_session, pages_dir, tmp_path_factory):
    from fuzi_rd.pipelines.extraction import run_extraction

    out = str(tmp_path_factory.mktemp("out") / "run1")
    roll = run_extraction(
        pages_dir, out, num_parts=NUM_PARTS, resume=False, batch_size=16
    )
    return out, roll


def test_rollup_counts(extracted):
    _, roll = extracted
    assert roll["rows"] == N_ROWS
    assert roll["ok_rows"] == N_ROWS
    assert roll["error_rows"] == 0
    assert roll["bytes_in"] > 0


def test_part_files_carry_no_column_statistics(extracted):
    """Part files store no footer min/max: a text column's would put whole
    texts in every file's footer, and nothing filters on them."""
    import pathlib

    import pyarrow.parquet as pq

    out, _ = extracted
    files = sorted(pathlib.Path(out).glob("part=*/*.parquet"))
    assert files
    for f in files:
        meta = pq.ParquetFile(f).metadata
        for rg in range(meta.num_row_groups):
            for c in range(meta.num_columns):
                assert not meta.row_group(rg).column(c).is_stats_set, (f, c)


# extract_dataset configs run besides the full job: a recipe forces the
# per-row Python path, emit_links the batched fast path plus fused links
IDENTITY_CONFIGS = {
    "job": None,
    "recipe": {"recipe": {"h1": "css: h1", "n_links": "count(//a)"}},
    "emit_links": {"emit_links": True},
}


@pytest.mark.parametrize("config", list(IDENTITY_CONFIGS))
def test_byte_identity_vs_single_doc(ray_session, extracted, pages_dir, config):
    """The distributed pipeline's extracted_text must be byte-identical per
    url to the single-document engine run driver-side on the same html
    (the north_rule correctness invariant, applied to our own engine)."""
    import ray

    from fuzi_rd.pipelines.extraction import extract_dataset

    kwargs = IDENTITY_CONFIGS[config]
    if kwargs is None:
        rows = ray.data.read_parquet(extracted[0]).take_all()
    else:
        pages = ray.data.read_parquet(pages_dir, columns=["url", "html"])
        rows = extract_dataset(
            pages, num_parts=NUM_PARTS, batch_size=16, **kwargs
        ).take_all()
    got = {r["url"]: (r["extracted_text"], r["title"], r["spans"]) for r in rows}
    assert len(got) == N_ROWS
    for seq in range(N_ROWS):
        url, _, html, _, _ = row_for_seq(seq)
        expected = extract_from_html(html)
        assert got[url][0] == expected["extracted_text"], url
        assert got[url][1] == expected["title"], url
        # spans survive the arrow/parquet round trip byte-for-byte, with
        # utf-8 byte offsets in bounds
        assert got[url][2] == expected["spans"], url
        n = len(expected["extracted_text"].encode("utf-8"))
        for s in got[url][2]:
            assert 0 <= s["start"] <= s["end"] <= n


def test_manifests_complete(extracted):
    out, _ = extracted
    manifests = mf.read_manifests(out)
    assert len(manifests) == NUM_PARTS
    assert sum(m["rows"] for m in manifests) == N_ROWS
    for m in manifests:
        assert m["text_checksum"] >= 0
        assert m["run_id"]


def test_resume_recomputes_only_missing(ray_session, extracted, tmp_path):
    """Simulate a crash: drop two partitions' manifests + data, re-run with
    resume=True, and require the final output to match a fresh run exactly."""
    import ray

    from fuzi_rd.pipelines.extraction import run_extraction

    out, _ = extracted
    crash = str(tmp_path / "crashed")
    shutil.copytree(out, crash)

    victims = [0, 3]
    for part in victims:
        (mf.manifest_dir(crash) / f"part-{part}.json").unlink()
        shutil.rmtree(f"{crash}/part={part}")
    # one partition crashed mid-write: data present but no manifest
    half = 5
    (mf.manifest_dir(crash) / f"part-{half}.json").unlink()

    before = mf.completed_parts(crash)
    assert set(victims) | {half} == set(range(NUM_PARTS)) - before

    # pages_dir is recomputed deterministically from the same fixture module
    pages = str(tmp_path / "pages")
    write_pages_parquet(pages, N_ROWS, rows_per_file=40)
    roll = run_extraction(pages, crash, num_parts=NUM_PARTS, resume=True)
    assert roll["rows"] == N_ROWS

    want = {
        r["url"]: r["extracted_text"] for r in ray.data.read_parquet(out).take_all()
    }
    got = {
        r["url"]: r["extracted_text"] for r in ray.data.read_parquet(crash).take_all()
    }
    assert got == want  # no missing rows, no duplicates, identical bytes
    assert len(mf.read_manifests(crash)) == NUM_PARTS


def test_page_byte_cap(ray_session, tmp_path, monkeypatch):
    """A multi-megabyte page extracts ok through the normal path.  A page
    over the per-page byte cap becomes an error row without a parse, on
    the batched fast path and the per-row Python path alike, and its
    batch-mates are unaffected."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from fuzi_rd import chtml
    from fuzi_rd.pipelines.extraction import extract_dataset
    from fuzi_rd.stages.extractor import ExtractPages

    big_body = b"<p>" + b"huge page content word " * 20000 + b"</p>"
    tbl = pa.table(
        {
            "url": [f"https://x.test/{i}" for i in range(10)]
            + ["https://x.test/huge"],
            "html": [
                b"<html><body><p>small page with plenty of content text</p></body></html>"
            ]
            * 10
            + [b"<html><body>" + big_body + b"</body></html>"],
        }
    )
    p = tmp_path / "huge.parquet"
    pq.write_table(tbl, p)
    ds = ray.data.read_parquet(str(p))
    rows = {r["url"]: r for r in extract_dataset(ds).take_all()}
    assert len(rows) == 11
    assert rows["https://x.test/huge"]["status"] == "ok"
    assert rows["https://x.test/huge"]["text_len"] > 100_000

    monkeypatch.setattr(chtml, "MAX_PAGE_BYTES", 100_000)
    for stage in (ExtractPages(), ExtractPages(recipe={"h1": "css: h1"})):
        capped = {r["url"]: r for r in stage(tbl).to_pylist()}
        huge = capped.pop("https://x.test/huge")
        assert huge["status"] == "error" and "cap" in huge["error"]
        assert huge["n_nodes"] == 0 and huge["extracted_text"] == ""
        for url, r in capped.items():
            assert r["status"] == "ok"
            assert r["extracted_text"] == rows[url]["extracted_text"]


def test_error_rows_do_not_poison(ray_session, tmp_path):
    """A row whose html explodes the parser becomes status='error'; the rest
    of its batch is unaffected (SURVEY.md §4.2 poison-pill tolerance)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from fuzi_rd.pipelines.extraction import extract_dataset

    tbl = pa.table(
        {
            "url": ["https://x.test/ok", "https://x.test/empty", "https://x.test/ok2"],
            "html": [b"<html><body><p>" + b"good content here " * 10 + b"</p></body></html>", b"", b"<html><body>fine</body></html>"],
        }
    )
    p = tmp_path / "in.parquet"
    pq.write_table(tbl, p)
    ds = ray.data.read_parquet(str(p))
    rows = {r["url"]: r for r in extract_dataset(ds).take_all()}
    assert rows["https://x.test/empty"]["status"] == "error"
    assert rows["https://x.test/ok"]["status"] == "ok"
    assert "good content here" in rows["https://x.test/ok"]["extracted_text"]


def test_warm_extractor_once_per_process_and_config(ray_session, monkeypatch):
    """The extraction task UDF keeps one warm ExtractPages per worker process
    and config: two batches with one config build it once, and a different
    recipe config gets its own instance."""
    import ray

    from fuzi_rd.pipelines import extraction
    from fuzi_rd.sources.pages import pages_table

    built = []

    class Counting(extraction.ExtractPages):
        def __init__(self, **kwargs):
            built.append(kwargs)
            super().__init__(**kwargs)

    def shipped_config(**kwargs):
        # the config extract_dataset hands to its tasks
        ds = extraction.extract_dataset(ray.data.range(1), **kwargs)
        return ds._logical_plan.dag._fn_kwargs["config"]

    monkeypatch.setattr(extraction, "ExtractPages", Counting)
    extraction._warm_extractor.cache_clear()
    try:
        batch = pages_table(8)
        plain = shipped_config()
        extraction.extract_pages(batch.slice(0, 4), plain)
        extraction.extract_pages(batch.slice(4, 4), plain)
        assert len(built) == 1
        out = extraction.extract_pages(batch, shipped_config(recipe={"h1": "css: h1"}))
        assert len(built) == 2
        assert built[1]["recipe"] == {"h1": "css: h1"}
        assert "h1" in out.column_names
        extraction.extract_pages(batch, plain)
        assert len(built) == 2
    finally:
        extraction._warm_extractor.cache_clear()


_ONE_CPU_JOB = """
import sys

import ray

ray.init(address="local", num_cpus=1, include_dashboard=False)
from fuzi_rd.pipelines.extraction import run_extraction
from fuzi_rd.stages.links import extract_links_dataset
from fuzi_rd.stages.markdown import markdown_dataset

stage, pages, out = sys.argv[1:]
if stage == "run_extraction":
    rows = run_extraction(pages, out, num_parts=16, resume=False)["rows"]
else:
    stage_fn = {
        "markdown_dataset": markdown_dataset,
        "extract_links_dataset": extract_links_dataset,
    }[stage]
    rows = stage_fn(ray.data.read_parquet(pages, columns=["url", "html"])).count()
print("stage_rows", rows, flush=True)
ray.shutdown()
"""


@pytest.mark.parametrize(
    "stage", ["run_extraction", "markdown_dataset", "extract_links_dataset"]
)
def test_one_cpu_session_does_not_hang(tmp_path, stage):
    """A Ray session with one logical CPU must finish each page stage: a
    fixed actor pool once took the only CPU, so the read tasks never ran.
    The job runs in a child process so a hang cannot wedge this one."""
    import os
    import pathlib
    import re
    import signal
    import subprocess
    import sys

    root = str(pathlib.Path(__file__).resolve().parents[1])
    pages, out = tmp_path / "pages", tmp_path / "out"
    write_pages_parquet(str(pages), 2000, rows_per_file=500)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    with open(tmp_path / "child.log", "w+") as log:
        child = subprocess.Popen(
            [sys.executable, "-c", _ONE_CPU_JOB, stage, str(pages), str(out)],
            cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            child.wait(timeout=180)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            pytest.fail(f"{stage} with 1 logical CPU ran past 180 s")
        log.seek(0)
        output = log.read()
        assert child.returncode == 0, output[-2000:]
    rows = int(re.search(r"stage_rows (\d+)", output).group(1))
    if stage == "extract_links_dataset":
        assert rows > 2000  # row-expanding: several outlinks per page
    else:
        assert rows == 2000
    if stage == "run_extraction":
        assert sum(m["rows"] for m in mf.read_manifests(str(out))) == 2000


_CLUSTER_JOB = """
import os
import subprocess
import sys

import ray
from ray._private.state import jobs
from ray.cluster_utils import Cluster

pages, out = sys.argv[1:]
cluster = Cluster(
    initialize_head=True, head_node_args={"num_cpus": 1, "include_dashboard": False}
)
try:
    cluster.add_node(num_cpus=1)
    cluster.wait_for_nodes()
    # what ray job submit gives its entrypoint: RAY_ADDRESS, no session
    env = dict(os.environ, RAY_ADDRESS=cluster.address)
    job = subprocess.Popen(
        [sys.executable, "-m", "fuzi_rd", "--input", pages, "--out", out,
         "--num-parts", "16", "--run-id", "cluster"],
        env=env,
    )
    job.wait(timeout=240)
    ray.init(address=cluster.address)
    drivers = [j["DriverPid"] for j in jobs()]
    print("cli_exit", job.returncode, "on_cluster", job.pid in drivers, flush=True)
    ray.shutdown()
finally:
    cluster.shutdown()
"""


def test_cli_runs_on_the_cluster_ray_address_names(tmp_path):
    """``python -m fuzi_rd`` with ``RAY_ADDRESS`` set (as ``ray job submit``
    sets it) runs its job on that cluster, here a 2-node
    ``ray.cluster_utils.Cluster``: its driver is one of the cluster's
    jobs, not a private one-node session's."""
    import os
    import pathlib
    import re
    import signal
    import subprocess
    import sys

    root = str(pathlib.Path(__file__).resolve().parents[1])
    pages, out = tmp_path / "pages", tmp_path / "out"
    write_pages_parquet(str(pages), 400, rows_per_file=200)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    with open(tmp_path / "child.log", "w+") as log:
        child = subprocess.Popen(
            [sys.executable, "-c", _CLUSTER_JOB, str(pages), str(out)],
            cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            child.wait(timeout=300)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            pytest.fail("the 2-node cluster job ran past 300 s")
        log.seek(0)
        output = log.read()
    assert child.returncode == 0, output[-2000:]
    got = re.search(r"cli_exit (-?\d+) on_cluster (\w+)", output)
    assert got, output[-2000:]
    assert got.group(1) == "0", output[-2000:]
    assert got.group(2) == "True", "the job did not run on the RAY_ADDRESS cluster"
    assert sum(m["rows"] for m in mf.read_manifests(str(out))) == 400


def test_page_generator_frozen():
    """The bench page tables are cached on disk keyed only by row count —
    if generator output ever drifts, those caches go silently stale.  This
    fingerprint freezes the generators; if you change them intentionally,
    update the crc AND delete /tmp/fuzi_rd_*pages* caches."""
    import zlib

    from fuzi_rd.sources.pages import pages_table, skew_pages_table

    t = pages_table(500, start=0)
    assert zlib.crc32(b"".join(t.column("html").to_pylist())) == 2508026150
    s = skew_pages_table(600, start=0, huge_every=500)
    assert zlib.crc32(b"".join(s.column("html").to_pylist())) == 3265379870


def test_extraction_heuristic_goldens_frozen():
    """Frozen snapshots of the density-heuristic outputs (SURVEY.md §7 step
    6): engine-produced once, reviewed, committed.  Catches regressions the
    pipeline-vs-engine byte-identity test cannot (there both sides drift
    together).  If extraction SEMANTICS change intentionally, regenerate
    tests/fixtures/extraction_goldens.json and review the diff."""
    import json
    import pathlib
    import zlib

    goldens = json.loads(
        (pathlib.Path(__file__).parent / "fixtures" / "extraction_goldens.json")
        .read_text()
    )

    def check(name, html):
        want = goldens[name]
        got = extract_from_html(html)
        assert got["title"] == want["title"], name
        assert len(got["extracted_text"]) == want["text_len"], name
        assert zlib.crc32(got["extracted_text"].encode()) == want["text_crc32"], name
        assert len(got["spans"]) == want["n_spans"], name
        if want["first_span"]:
            assert got["spans"][0] == want["first_span"], name
        assert got["extracted_text"][:160] == want["text_head"], name

    check(
        "web.html",
        (pathlib.Path(__file__).parent / "fixtures" / "web.html").read_bytes(),
    )
    for name in goldens:
        if name.startswith("seq"):
            seq = int(name[3:])
            url, _, html, _, _ = row_for_seq(seq)
            assert url == goldens[name]["url"]
            check(name, html)


def test_resume_prunes_input_partitions(ray_session, tmp_path):
    """VERDICT r2 item 10: with a part=<k> url-hash input layout (our own
    writer's), a resumed run prunes completed partitions at the READ.
    Proof: completed parts' input files are corrupted after the first run —
    an unpruned read would crash; the pruned resume never opens them."""
    import pyarrow.parquet as pq
    import ray

    from fuzi_rd.pipelines.extraction import run_extraction
    from fuzi_rd.sources.pages import pages_table
    from fuzi_rd.stages.extractor import url_part

    # partitioned input: pages laid out by url-hash part (same num_parts)
    inp = tmp_path / "pages_parted"
    tbl = pages_table(N_ROWS)
    parts = [url_part(u, NUM_PARTS) for u in tbl.column("url").to_pylist()]
    import pyarrow as pa

    tbl = tbl.append_column("part", pa.array(parts, pa.int32()))
    for k in sorted(set(parts)):
        sub = tbl.filter(pa.compute.equal(tbl.column("part"), k))
        d = inp / f"part={k}"
        d.mkdir(parents=True)
        pq.write_table(sub.drop_columns(["part"]), d / "data.parquet")

    out = str(tmp_path / "out")
    roll = run_extraction(
        str(inp), out, num_parts=NUM_PARTS, resume=False, batch_size=16,
        input_partitioned=True,
    )
    assert roll["rows"] == N_ROWS
    want = {
        r["url"]: r["extracted_text"]
        for r in ray.data.read_parquet(out).take_all()
    }

    victims = sorted(mf.completed_parts(out))[:2]
    for part in victims:
        (mf.manifest_dir(out) / f"part-{part}.json").unlink()
        shutil.rmtree(f"{out}/part={part}")
    # poison every COMPLETED part's input: reading any of them now fails
    for d in (inp).glob("part=*"):
        k = int(d.name.split("=", 1)[1])
        if k not in victims:
            (d / "data.parquet").write_bytes(b"corrupted, not parquet")

    roll2 = run_extraction(
        str(inp), out, num_parts=NUM_PARTS, resume=True, batch_size=16,
        input_partitioned=True,
    )
    assert roll2["rows"] == N_ROWS
    got = {
        r["url"]: r["extracted_text"]
        for r in ray.data.read_parquet(out).take_all()
    }
    assert got == want

    # fully-complete resume short-circuits without touching the input
    roll3 = run_extraction(
        str(inp), out, num_parts=NUM_PARTS, resume=True,
        input_partitioned=True,
    )
    assert roll3["rows"] == N_ROWS


def test_corpus_job_resume_byte_identity(ray_session, pages_dir, tmp_path):
    """Corpus-level crash resume (VERDICT r2 item 2): kill checkpoint and
    final partitions mid-run, resume, and require manifests + rows to be
    byte-identical to the uninterrupted run.  The checkpoint lives under
    the job's output dir (shared storage), not node-local /tmp.  Both
    stages write run metrics, and a non-resumed rerun into the same
    directory (which holds the checkpoint) reproduces the output."""
    import json

    import ray

    from fuzi_rd.pipelines.corpus import run_corpus

    fresh = str(tmp_path / "fresh")
    roll = run_corpus(
        pages_dir, fresh, num_parts=NUM_PARTS, resume=False, batch_size=16
    )
    assert roll["rows"] > 0
    assert (mf.manifest_dir(f"{fresh}/_checkpoint")).is_dir()
    for stage in (f"{fresh}/_checkpoint", fresh):
        with open(f"{stage}/_metrics/run-run.json") as f:
            metrics = json.load(f)
        assert metrics["rows"] == sum(m["rows"] for m in mf.read_manifests(stage))

    crash = str(tmp_path / "crashed")
    shutil.copytree(fresh, crash)
    # crash scenario: one checkpoint part lost, two final parts lost, one
    # final part half-written (data present, manifest missing)
    ck = f"{crash}/_checkpoint"
    ck_parts = sorted(mf.completed_parts(ck))
    victim_ck = ck_parts[0]
    (mf.manifest_dir(ck) / f"part-{victim_ck}.json").unlink()
    shutil.rmtree(f"{ck}/part={victim_ck}")
    out_parts = sorted(mf.completed_parts(crash))
    for part in out_parts[:2]:
        (mf.manifest_dir(crash) / f"part-{part}.json").unlink()
        shutil.rmtree(f"{crash}/part={part}")
    if len(out_parts) > 3:
        (mf.manifest_dir(crash) / f"part-{out_parts[3]}.json").unlink()

    roll2 = run_corpus(
        pages_dir, crash, num_parts=NUM_PARTS, resume=True, batch_size=16
    )
    assert roll2["rows"] == roll["rows"]

    def _manifests(out):
        return {
            m["part"]: (m["rows"], m["text_checksum"])
            for m in mf.read_manifests(out)
        }

    want_manifests = _manifests(fresh)
    assert _manifests(crash) == want_manifests

    want = {
        r["url"]: r["extracted_text"]
        for r in ray.data.read_parquet(fresh).take_all()
    }
    got = {
        r["url"]: r["extracted_text"]
        for r in ray.data.read_parquet(crash).take_all()
    }
    assert got == want  # no missing rows, no duplicates, identical bytes

    # a fresh rerun over the previous output wipes it once, up front
    run_corpus(pages_dir, fresh, num_parts=NUM_PARTS, resume=False, batch_size=16)
    assert _manifests(fresh) == want_manifests


def test_corpus_pipeline_composition(ray_session, pages_dir, tmp_path, monkeypatch):
    """Composed corpus pipeline: extracted + gated + deduplicated rows with
    the full annotation schema; urls unique; hashes consistent; nothing
    left behind in the temp directory."""
    import hashlib
    import tempfile

    import ray

    from fuzi_rd.pipelines.corpus import corpus_dataset

    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    ds = ray.data.read_parquet(pages_dir, columns=["url", "html"])
    rows = corpus_dataset(ds, batch_size=16).take_all()
    assert list(scratch.iterdir()) == []
    assert 0 < len(rows) <= N_ROWS
    urls = [r["url"] for r in rows]
    assert len(set(urls)) == len(urls)
    hashes = [r["content_hash"] for r in rows]
    assert len(set(hashes)) == len(hashes)  # dedup by extracted text held
    for r in rows[:20]:
        url, _, html, _, _ = row_for_seq(int(r["url"].rsplit("/", 1)[1]))
        assert url == r["url"]
        expected = extract_from_html(html)["extracted_text"]
        assert r["content_hash"] == hashlib.md5(expected.encode()).hexdigest()


def test_corpus_fused_markdown_metadata_identity(ray_session, pages_dir):
    """VERDICT r3 item 9: the opt-in markdown + metadata columns emitted by
    the corpus job (one parse pass inside the extraction tasks) are
    byte-identical to the standalone ConvertMarkdown / ExtractMetadata
    stages."""
    import ray

    from fuzi_rd.pipelines.corpus import corpus_dataset
    from fuzi_rd.stages.markdown import markdown_dataset
    from fuzi_rd.stages.metadata import extract_metadata_dataset

    def _pages():
        return ray.data.read_parquet(pages_dir, columns=["url", "html"])

    fused = {
        r["url"]: r
        for r in corpus_dataset(
            _pages(), batch_size=16, emit_markdown=True, emit_metadata=True
        ).take_all()
    }
    assert fused
    md = {r["url"]: r for r in markdown_dataset(_pages(), batch_size=16).take_all()}
    meta = {
        r["url"]: r
        for r in extract_metadata_dataset(_pages(), batch_size=16).take_all()
    }
    pairs = {
        "meta_title": "title",
        "meta_description": "meta_description",
        "canonical_url": "canonical_url",
        "meta_lang": "lang",
        "robots_noindex": "robots_noindex",
        "robots_nofollow": "robots_nofollow",
        "og_title": "og_title",
        "og_description": "og_description",
        "og_image": "og_image",
        "og_type": "og_type",
    }
    for url, r in fused.items():
        assert r["markdown"] == md[url]["markdown"]
        for fused_col, standalone_col in pairs.items():
            assert r[fused_col] == meta[url][standalone_col], (url, fused_col)


def test_part_writer_leaves_no_torn_file(tmp_path, monkeypatch):
    """A writer that fails partway through a file leaves no ``data-*.parquet``
    under its final name: files are written under a temp name and renamed,
    so none is ever truncated in place (final corpus parts share inodes
    with the checkpoint's)."""
    import pyarrow as pa

    def torn_write(table, where, **kwargs):
        with open(where, "wb") as f:
            f.write(b"PAR1 torn")
        raise OSError("disk full")

    monkeypatch.setattr(mf.pq, "write_table", torn_write)
    batch = pa.table({
        "url": ["a", "b"], "part": pa.array([1, 1], pa.int32()),
        "text_len": [1, 2], "text_hash": [3, 4],
    })
    with pytest.raises(OSError, match="disk full"):
        mf.part_writer(str(tmp_path), {"bytes_out": "text_len"})(batch)
    assert list(tmp_path.rglob("data-*.parquet")) == []


def _pages_with_copies(d, num_parts: int) -> None:
    """40 fixture pages plus 7 copies of 3 of their htmls under other
    hosts: one copy per html sorts before the original url (it wins) and
    one after (it loses), so the losers sit in other parts than their
    winners; the last copy is the only url of its part."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fuzi_rd.sources.pages import pages_table
    from fuzi_rd.stages.extractor import url_part

    t = pages_table(40)
    src = t.take([0, 5, 10])
    copies = [
        src.set_column(0, "url", pa.array(
            [u.replace("fixtures.test", host) for u in src.column("url").to_pylist()]
        ))
        for host in ("a-mirror.test", "z-mirror.test")
    ]
    taken = {url_part(u, num_parts) for c in (t, *copies) for u in c.column("url").to_pylist()}
    solo = next(
        u for u in (f"https://z-solo.test/{i}" for i in range(1000))
        if url_part(u, num_parts) not in taken
    )
    copies.append(src.slice(1, 1).set_column(0, "url", pa.array([solo])))
    d.mkdir()
    pq.write_table(pa.concat_tables([t, *copies]), d / "pages.parquet")


def test_corpus_job_drops_copies_and_links_clean_parts(ray_session, tmp_path):
    """Pages that repeat an html under urls of other parts: the output is
    the min url per content hash; every final manifest counts its losers
    (rows + dup_dropped == checkpoint rows); parts without losers are hard
    links to the checkpoint files, parts with losers are rewritten; a
    resume that lost one part of each kind reproduces the fresh run's
    manifests and rows; a part whose only row lost is committed empty;
    ``corpus_dataset`` keeps the same urls."""
    import os
    import pathlib

    import ray

    from fuzi_rd.pipelines.corpus import corpus_dataset, run_corpus
    from fuzi_rd.stages.extractor import url_part

    num_parts = 64
    pages = tmp_path / "pages"
    _pages_with_copies(pages, num_parts)
    fresh = str(tmp_path / "fresh")
    roll = run_corpus(str(pages), fresh, num_parts=num_parts, resume=False, batch_size=16)
    ck = f"{fresh}/_checkpoint"

    best: dict[str, str] = {}
    ckpt = ray.data.read_parquet(ck, columns=["content_hash", "url"]).take_all()
    for r in ckpt:
        h = r["content_hash"]
        best[h] = min(best.get(h, r["url"]), r["url"])
    want = set(best.values())
    losers = {r["url"] for r in ckpt} - want
    assert len(losers) >= 4 and roll["dup_dropped"] == len(losers)
    loser_parts = {url_part(u, num_parts) for u in losers}
    assert any(  # a copy and its winner in different parts
        url_part(r["url"], num_parts) != url_part(best[r["content_hash"]], num_parts)
        for r in ckpt if r["url"] in losers
    )

    def rows_by_url(out):
        rows = ray.data.read_parquet(out).take_all()
        assert len(rows) == len({r["url"] for r in rows})
        return {r["url"]: r for r in rows}

    got = rows_by_url(fresh)
    assert set(got) == want

    ck_rows = {m["part"]: m["rows"] for m in mf.read_manifests(ck)}
    manifests = {m["part"]: m for m in mf.read_manifests(fresh)}
    assert set(manifests) == set(ck_rows)
    for k, m in manifests.items():
        assert m["rows"] + m["dup_dropped"] == ck_rows[k], k
        assert (m["dup_dropped"] > 0) == (k in loser_parts), k
    assert any(m["rows"] == 0 for m in manifests.values())  # the solo copy
    clean = sorted(set(manifests) - loser_parts)
    assert clean and loser_parts

    def assert_links(out, parts):
        for k in parts:
            for f in pathlib.Path(f"{out}/part={k}").iterdir():
                src = pathlib.Path(f"{out}/_checkpoint/part={k}/{f.name}")
                linked = src.exists() and os.stat(src).st_ino == os.stat(f).st_ino
                assert linked == (k not in loser_parts), (k, f.name)

    assert_links(fresh, manifests)

    crash = str(tmp_path / "crashed")
    shutil.copytree(fresh, crash)
    lost = [min(loser_parts), clean[0]]
    for k in lost:
        (mf.manifest_dir(crash) / f"part-{k}.json").unlink()
        shutil.rmtree(f"{crash}/part={k}")
    run_corpus(str(pages), crash, num_parts=num_parts, resume=True, batch_size=16)
    assert_links(crash, lost)
    assert mf.read_manifests(crash) == mf.read_manifests(fresh)
    assert rows_by_url(crash) == got

    ds = ray.data.read_parquet(str(pages), columns=["url", "html"])
    assert {r["url"] for r in corpus_dataset(ds, batch_size=16).take_all()} == want


def test_corpus_checkpoint_counts_every_dropped_page(ray_session, pages_dir, tmp_path):
    """Every checkpoint manifest accounts for each page that hashed into
    its part: ``rows_in = rows + error_rows + short_rows +
    low_quality_rows``, and the ``rows_in`` sum to the input pages."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fuzi_rd.pipelines.corpus import run_corpus

    # one page per drop reason on top of the fixture pages
    extra = pa.table({
        "url": [f"https://drops.test/{i}" for i in range(3)],
        "html": [
            b"",  # an error row
            b"<html><body><p>too short</p></body></html>",
            b"<html><body><p>" + b"$$$ ### %%% 123 456 789 000 !!! ... " * 4 + b"</p></body></html>",
        ],
    })
    pages = tmp_path / "pages"
    pages.mkdir()
    pq.write_table(pq.read_table(pages_dir, columns=["url", "html"]), pages / "a.parquet")
    pq.write_table(extra, pages / "b.parquet")
    out = str(tmp_path / "out")
    got = run_corpus(str(pages), out, num_parts=NUM_PARTS, resume=False, batch_size=16)
    # the final manifests carry none of the extraction or cleaning counters
    absent = {"ok_rows", "error_rows", "bytes_in", "parse_us_sum", "rows_in",
              "short_rows", "low_quality_rows"}
    assert not absent & got.keys(), got
    ck = mf.read_manifests(f"{out}/_checkpoint")
    assert len(ck) == NUM_PARTS
    for m in ck:
        assert m["rows_in"] == (
            m["rows"] + m["error_rows"] + m["short_rows"] + m["low_quality_rows"]
        ), m
    assert sum(m["rows_in"] for m in ck) == N_ROWS + len(extra)
    for reason in ("error_rows", "short_rows", "low_quality_rows"):
        assert sum(m[reason] for m in ck) > 0, reason
    roll = mf.rollup(f"{out}/_checkpoint")
    assert roll["rows_in"] == N_ROWS + len(extra)
    # the checkpoint carries no dup_dropped; the final roll-up does
    assert "dup_dropped" not in roll
    assert roll["rows"] == sum(m["rows"] for m in mf.read_manifests(out)) + got["dup_dropped"]


def test_corpus_job_resume_of_finished_output_reads_no_input(
    ray_session, tmp_path, monkeypatch
):
    """A resume over a finished corpus job runs no Ray Data job in either
    stage, although some parts receive no page, and leaves the output and
    the manifests byte-identical."""
    import hashlib
    import pathlib

    import ray

    from fuzi_rd.pipelines.corpus import run_corpus
    from fuzi_rd.stages.extractor import url_part

    num_parts = 64
    pages = tmp_path / "pages"
    pages.mkdir()
    write_pages_parquet(str(pages), 40)
    out = tmp_path / "out"
    run_corpus(str(pages), str(out), num_parts=num_parts, resume=False, batch_size=16)
    used = {url_part(row_for_seq(i)[0], num_parts) for i in range(40)}
    assert len(used) < num_parts  # some parts get no page

    def files(d: pathlib.Path) -> dict:
        return {
            str(p.relative_to(d)): hashlib.md5(p.read_bytes()).hexdigest()
            for p in sorted(d.rglob("*"))
            if p.is_file() and "_metrics" not in p.parts
        }

    before = files(out)

    def no_input(*args, **kwargs):
        raise AssertionError("a finished job read its input again")

    monkeypatch.setattr(ray.data, "read_parquet", no_input)
    run_corpus(str(pages), str(out), num_parts=num_parts, resume=True, batch_size=16)
    assert files(out) == before


def test_curation_stage(ray_session):
    """curate_dataset: signal gates drop degenerate docs, the blocklist
    drops its domains, and the per-stratum quota keeps small strata whole."""
    import pyarrow as pa
    import ray

    from fuzi_rd.pipelines.curation import curate_dataset

    prose = (
        "The quick brown fox jumps over the lazy dog near the river bank "
        "while birds sing different songs about distant mountain weather. "
    )
    rows = []
    for i in range(30):
        rows.append(
            {
                "url": f"https://site{i % 3}.example.com/p/{i}",
                "extracted_text": f"{prose} Variation token v{i} ends here.",
                "lang_guess": "en" if i % 2 == 0 else "de",
            }
        )
    # degenerate docs that the signal gates must drop
    rows.append(
        {
            "url": "https://site0.example.com/spam",
            "extracted_text": "buy now " * 200,  # compresses to ~nothing
            "lang_guess": "en",
        }
    )
    rows.append(
        {
            "url": "https://blocked.example.net/x",
            "extracted_text": f"{prose} Blocked domain doc body here.",
            "lang_guess": "en",
        }
    )
    ds = ray.data.from_arrow(
        pa.table(
            {
                "url": [r["url"] for r in rows],
                "extracted_text": [r["extracted_text"] for r in rows],
                "lang_guess": [r["lang_guess"] for r in rows],
            }
        )
    )
    out = curate_dataset(
        ds, cap=1000, blocklist=["example.net"]
    ).take_all()
    urls = {r["url"] for r in out}
    assert "https://site0.example.com/spam" not in urls  # gate
    assert "https://blocked.example.net/x" not in urls  # blocklist
    assert len(out) == 30  # cap >> strata sizes: every clean doc kept
    assert all(r["domain"] == "example.com" for r in out)
    assert all(200 <= r["compress_milli"] <= 950 for r in out)
