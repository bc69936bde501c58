"""Correctness gate: every timed job's output is checked before its time
counts.  A job passes when

* each input url appears exactly once (extraction) or the url set equals
  the dedup winners computed from the authority path (corpus);
* every ``part=K`` directory has a manifest and vice versa, and each
  manifest's ``rows`` and ``text_checksum`` equal a recomputation from the
  written parquet (sum of crc32 of the extracted text, mod 2**63);
* ``extracted_text`` and ``title`` are byte-identical to
  ``fuzi_rd.extract.extract_from_html`` on a seeded sample plus every
  huge, legacy-charset and kernel-declined page (corpus: on every row),
  and for the corpus job sampled ``markdown`` and metadata equal the
  standalone ``ConvertMarkdown`` / ``ExtractMetadata`` stages.

The expected values are computed once per input set and cached next to
it.  ``selftest`` corrupts a copy of a passing output three ways (one raw
byte of the text column, one character of one text value, one manifest
dropped) and reports each corruption the gate failed to catch.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import zlib
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from perfbench.inputs import InputSet

_MOD = 2**63
_META_COLS = {  # corpus output column -> ExtractMetadata column
    "meta_title": "title", "meta_description": "meta_description",
    "canonical_url": "canonical_url", "meta_lang": "lang",
    "robots_noindex": "robots_noindex", "robots_nofollow": "robots_nofollow",
    "og_title": "og_title", "og_description": "og_description",
    "og_image": "og_image", "og_type": "og_type",
}
CORPUS_STAGE_SAMPLE = 48


def _authority(html: bytes) -> dict:
    from fuzi_rd.extract import extract_from_html

    try:
        r = extract_from_html(html)
    except Exception as exc:  # the engine must turn these into error rows
        return {"status": "error", "title": "", "text": "", "error": type(exc).__name__}
    return {"status": "ok", "title": r["title"], "text": r["extracted_text"], "error": ""}


def _input_rows(inp: InputSet, urls: set[str] | None = None):
    for f in sorted(inp.path.glob("*.parquet")):
        t = pq.read_table(f, columns=["url", "html"])
        for u, h in zip(t.column("url").to_pylist(), t.column("html").to_pylist()):
            if urls is None or u in urls:
                yield u, h


def expectations(inp: InputSet) -> dict:
    """Authority results for the urls this input set is checked on
    (cached as JSON next to the input, and on the InputSet)."""
    if inp.expected is not None:
        return inp.expected
    cache = inp.path.parent / "expected.json"
    if cache.exists():
        inp.expected = json.loads(cache.read_text())
        return inp.expected
    corpus = inp.workload == "corpus_fused"
    want = None if corpus else set(inp.special_urls) | set(inp.sample_urls)
    rows, htmls = {}, {}
    for u, h in _input_rows(inp, want):
        rows[u] = _authority(h)
        htmls[u] = h
    exp = {"rows": rows, "all_urls": [u for u, _ in _input_rows(inp)]}
    if corpus:
        exp.update(_corpus_expectations(inp, rows, htmls))
    tmp = cache.with_suffix(".tmp")
    tmp.write_text(json.dumps(exp))
    tmp.replace(cache)
    inp.expected = exp
    return exp


def _corpus_expectations(inp: InputSet, rows: dict, htmls: dict) -> dict:
    """Winners as run_corpus defines them: ok rows with >= 30 chars that
    pass quality_batch, then the min url per md5 of the text; plus the
    standalone markdown / metadata stages on a sample of the winners."""
    from fuzi_rd.functions.textstats import quality_batch
    from fuzi_rd.stages.markdown import ConvertMarkdown
    from fuzi_rd.stages.metadata import ExtractMetadata

    kept = [u for u, r in rows.items() if r["status"] == "ok" and len(r["text"]) >= 30]
    q = quality_batch(
        pa.table({
            "doc_id": pa.array(range(len(kept)), pa.int64()),
            "text": pa.array([rows[u]["text"] for u in kept], pa.string()),
        })
    ).column("quality_ok").to_pylist()
    best: dict[str, str] = {}
    for u, ok in zip(kept, q):
        if ok:
            h = hashlib.md5(rows[u]["text"].encode("utf-8")).hexdigest()
            if h not in best or u < best[h]:
                best[h] = u
    winners = sorted(best.values())
    step = max(1, len(winners) // CORPUS_STAGE_SAMPLE)
    sample = winners[::step][:CORPUS_STAGE_SAMPLE]
    batch = pa.table({
        "url": pa.array(sample, pa.string()),
        "html": pa.array([htmls[u] for u in sample], pa.binary()),
    })
    md = ConvertMarkdown()(batch).to_pylist()
    meta = ExtractMetadata()(batch).to_pylist()
    stages = {
        u: {"markdown": m["markdown"], **{c: x[src] for c, src in _META_COLS.items()}}
        for u, m, x in zip(sample, md, meta)
    }
    return {"winners": winners, "stages": stages}


# -- reading an output directory ---------------------------------------------


def _read_output(out: Path, columns: list[str], problems: list[str]) -> dict[int, list[dict]]:
    parts: dict[int, list[dict]] = {}
    for d in sorted(out.glob("part=*")):
        k = int(d.name.split("=", 1)[1])
        rows = parts.setdefault(k, [])
        for f in sorted(d.glob("*.parquet")):
            try:
                rows.extend(pq.read_table(f, columns=columns).to_pylist())
            except Exception as exc:  # a corrupt file is a gate failure
                problems.append(f"unreadable {f.relative_to(out)}: {type(exc).__name__}: {exc}")
    return parts


def _check_manifests(out: Path, parts: dict[int, list[dict]], problems: list[str]) -> None:
    from fuzi_rd.state import manifest as mf

    manifests = {m["part"]: m for m in mf.read_manifests(str(out))}
    if set(manifests) != set(parts):
        problems.append(
            f"parts without manifest {sorted(set(parts) - set(manifests))[:5]}, "
            f"manifests without data {sorted(set(manifests) - set(parts))[:5]}"
        )
    for k in sorted(set(manifests) & set(parts)):
        rows = parts[k]
        checksum = sum(zlib.crc32(r["extracted_text"].encode("utf-8")) for r in rows) % _MOD
        m = manifests[k]
        if m["rows"] != len(rows) or m["text_checksum"] != checksum:
            problems.append(
                f"part {k}: manifest rows={m['rows']} checksum={m['text_checksum']}, "
                f"data rows={len(rows)} checksum={checksum}"
            )


def _by_url(parts: dict[int, list[dict]], num_parts: int, problems: list[str]) -> dict[str, dict]:
    """Output rows by url; each url must be written once, in its url-hash part."""
    from fuzi_rd.stages.extractor import url_part

    seen: dict[str, dict] = {}
    for k, rows in parts.items():
        for r in rows:
            if r["url"] in seen:
                problems.append(f"{r['url']}: written twice")
            seen[r["url"]] = r
            if url_part(r["url"], num_parts) != k:
                problems.append(f"{r['url']}: in part {k}")
    return seen


def _compare(url: str, row: dict, want: dict, problems: list[str]) -> None:
    status_ok = row.get("status", "ok") == "ok"
    if status_ok != (want["status"] == "ok"):
        problems.append(f"{url}: status {row.get('status')} vs authority {want['status']}")
    elif status_ok and (row["extracted_text"] != want["text"] or row["title"] != want["title"]):
        problems.append(f"{url}: text/title differ from the authority path")


def check_extraction(out: Path, inp: InputSet, num_parts: int) -> tuple[list[str], int]:
    """Returns (problems, failed docs)."""
    exp = expectations(inp)
    problems: list[str] = []
    parts = _read_output(out, ["url", "title", "extracted_text", "status"], problems)
    _check_manifests(out, parts, problems)
    seen = _by_url(parts, num_parts, problems)
    missing = [u for u in exp["all_urls"] if u not in seen]
    extra = set(seen) - set(exp["all_urls"])
    if missing or extra:
        problems.append(f"{len(missing)} input urls missing, {len(extra)} unknown urls written")
    for u, want in exp["rows"].items():
        if u in seen:
            _compare(u, seen[u], want, problems)
    errors = sum(1 for r in seen.values() if r["status"] != "ok")
    return problems, errors + len(missing)


def check_corpus(out: Path, inp: InputSet, num_parts: int) -> tuple[list[str], int]:
    exp = expectations(inp)
    problems: list[str] = []
    cols = ["url", "title", "extracted_text", "content_hash", "markdown", *_META_COLS]
    parts = _read_output(out, cols, problems)
    _check_manifests(out, parts, problems)
    seen = _by_url(parts, num_parts, problems)
    winners = set(exp["winners"])
    missing = winners - set(seen)
    if missing or set(seen) - winners:
        problems.append(
            f"url set differs from the authority winners: {len(missing)} missing, "
            f"{len(set(seen) - winners)} extra"
        )
    for u, r in seen.items():
        want = exp["rows"].get(u)
        if want is None:
            continue
        _compare(u, r, want, problems)
        if r["content_hash"] != hashlib.md5(want["text"].encode("utf-8")).hexdigest():
            problems.append(f"{u}: content_hash differs")
    for u, want in exp["stages"].items():
        r = seen.get(u)
        if r is not None and any(r[c] != v for c, v in want.items()):
            problems.append(f"{u}: markdown/metadata differ from the standalone stages")
    return problems, len(missing)


# -- self-test ---------------------------------------------------------------


def _first_file(out: Path) -> Path:
    return next(f for d in sorted(out.glob("part=*")) for f in sorted(d.glob("*.parquet")))


def _flip_raw_byte(out: Path) -> None:
    """Flip one byte of the extracted_text column chunk: the first byte from
    the middle of the chunk on whose flip the file no longer reads back the
    same (bytes of page statistics change nothing the gate could see)."""
    f = _first_file(out)
    orig = f.read_bytes()
    before = pq.read_table(f)
    rg = pq.ParquetFile(f).metadata.row_group(0)
    col = next(
        rg.column(i) for i in range(rg.num_columns)
        if rg.column(i).path_in_schema == "extracted_text"
    )
    start = col.dictionary_page_offset or col.data_page_offset
    size = col.total_compressed_size
    for pos in range(start + size // 2, start + size):
        data = bytearray(orig)
        data[pos] ^= 0x01
        f.write_bytes(bytes(data))
        try:
            if not pq.read_table(f).equals(before):
                return
        except Exception:  # unreadable is a change too
            return
    raise RuntimeError(f"no single-byte flip changes the text column of {f}")


def _flip_text_char(out: Path) -> None:
    """Rewrite one file with one ASCII letter of one text value changed."""
    f = _first_file(out)
    t = pq.read_table(f)
    texts = t.column("extracted_text").to_pylist()
    i = next(i for i, s in enumerate(texts) if any(c.isascii() and c.isalpha() for c in s))
    s = texts[i]
    j = next(j for j, c in enumerate(s) if c.isascii() and c.isalpha())
    texts[i] = s[:j] + chr(ord(s[j]) ^ 0x20) + s[j + 1 :]
    idx = t.schema.get_field_index("extracted_text")
    t = t.set_column(idx, t.schema.field(idx), pa.array(texts, t.schema.field(idx).type))
    pq.write_table(t, f, compression="zstd")


def _drop_manifest(out: Path) -> None:
    next(iter(sorted((out / "_manifests").glob("part-*.json")))).unlink()


CORRUPTIONS = {
    "raw_byte": _flip_raw_byte,
    "text_char": _flip_text_char,
    "manifest": _drop_manifest,
}


def selftest(out: Path, scratch: Path, check) -> list[str]:
    """Names of the corruptions ``check(dir) -> problems`` did not catch."""
    missed = []
    for name, corrupt in CORRUPTIONS.items():
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(out, scratch, ignore=shutil.ignore_patterns("_checkpoint"))
        corrupt(scratch)
        if not check(scratch):
            missed.append(name)
    shutil.rmtree(scratch, ignore_errors=True)
    return missed
