"""PDF reader (fuzi_rd/pdf.py) + synthetic writer (sources/pdfs.py) +
actor-pool stage (stages/pdf_extract.py).

The load-bearing property is the round-trip contract: the writer's layout
choices and the reader's fixed layout rules are two halves of one spec, so
``pdf_text(make_pdf(text, seq)) == text`` for every text and every writer
mode.  That contract is what makes the ``pdf_extract`` query oracle-checkable
against ``documents.text``.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzi_rd.pdf import PdfError, parse_pdf, pdf_text
from fuzi_rd.sources.pdfs import LINES_PER_PAGE, make_pdf


# ---------------------------------------------------------------------------
# round-trip contract

CASES = [
    "",
    "hello world",
    "a\nb\nc",
    "line with (parens) and \\ backslash",
    "multi  space   runs",
    "\n\nleading and trailing blank lines\n\n",
    "unicode: café 日本語 Ελληνικά математика",
    " leading space\ntrailing space \n  doubled  spaces  ",
    "tabs\tand\x0cother controls kept verbatim",
]


@pytest.mark.parametrize("text", CASES)
def test_roundtrip_all_writer_modes(text):
    # seq sweep covers every (encoding × advance × show-style × xref) mode
    for seq in range(24):
        assert pdf_text(make_pdf(text, seq)) == text, f"seq={seq}"


@given(
    st.text(
        alphabet=st.characters(blacklist_characters="\r", codec="utf-8"),
        max_size=400,
    ),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(text, seq):
    assert pdf_text(make_pdf(text, seq)) == text


def test_multipage_split_and_order():
    text = "\n".join(f"line {i}" for i in range(LINES_PER_PAGE * 2 + 5))
    doc = parse_pdf(make_pdf(text, 3))
    assert doc.n_pages == 3
    assert doc.pages[0].text.startswith("line 0")
    assert doc.pages[2].text.endswith(f"line {LINES_PER_PAGE * 2 + 4}")
    assert doc.text == text


def test_corrupt_xref_is_ignored():
    # seq % 5 == 4 zeroes every xref offset; the object scan must not care
    text = "xref offsets are lies\nsecond line"
    data = make_pdf(text, 9)
    assert b"0000000000 00000 n" in data
    assert pdf_text(data) == text


def test_info_title():
    doc = parse_pdf(make_pdf("body", 42))
    assert doc.info["Title"] == "doc 42"


def test_not_a_pdf_raises():
    with pytest.raises(PdfError):
        parse_pdf(b"<html>not a pdf</html>")
    with pytest.raises(PdfError):
        parse_pdf(b"")


def test_encrypted_raises():
    data = (
        b"%PDF-1.4\n"
        b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
        b"trailer\n<< /Size 3 /Root 1 0 R /Encrypt 5 0 R >>\n%%EOF\n"
    )
    with pytest.raises(PdfError, match="encrypted"):
        parse_pdf(data)


def test_truncated_pdf_yields_partial_text():
    text = "\n".join(f"line {i}" for i in range(10))
    data = make_pdf(text, 0)  # seq 0: uncompressed, visible text ops
    cut = data[: data.rfind(b"endobj")]  # drop the tail objects
    # must not raise; whatever pages remain parse
    doc = parse_pdf(cut)
    assert doc.n_pages >= 0


def _one_page_pdf(content: bytes, length_field: bytes | None = None) -> bytes:
    length = length_field if length_field is not None else str(len(content)).encode()
    return (
        b"%PDF-1.4\n"
        b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
        b"2 0 obj\n<< /Type /Pages /Kids [3 0 R] /Count 1 >>\nendobj\n"
        b"3 0 obj\n<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>\nendobj\n"
        b"4 0 obj\n<< /Length " + length + b" >>\nstream\n"
        + content
        + b"\nendstream\nendobj\n"
        b"trailer\n<< /Size 5 /Root 1 0 R >>\n%%EOF\n"
    )


def test_utf16be_whole_page_string():
    # hand-built page: one UTF-16BE (BOM) hex string
    payload = "Grüße 世界".encode("utf-16-be")
    hexs = (b"\xfe\xff" + payload).hex().encode()
    data = _one_page_pdf(b"BT /F1 12 Tf 72 720 Td <" + hexs + b"> Tj ET")
    assert pdf_text(data) == "Grüße 世界"


def test_tj_kern_threshold():
    # kern at exactly/above the -180 threshold must NOT insert a space
    data = _one_page_pdf(b"BT 72 720 Td [(a) -180 (b) -181 (c) -50 (d)] TJ ET")
    assert pdf_text(data) == "ab cd"


def test_indirect_length_stream():
    # /Length as an indirect ref: reader falls back to endstream search
    content = b"BT 72 720 Td (indirect) Tj ET"
    data = (
        _one_page_pdf(content, length_field=b"5 0 R")
        .replace(
            b"trailer",
            b"5 0 obj\n" + str(len(content)).encode() + b"\nendobj\ntrailer",
        )
    )
    assert pdf_text(data) == "indirect"


def test_compressed_stream_with_obj_pattern_inside():
    # Flate payload may contain byte runs that look like "N 0 obj"; a
    # correct /Length lets the scanner hop over the stream body
    text = "1 0 obj endobj stream endstream trailer"
    assert pdf_text(make_pdf(text, 1)) == text  # seq 1 -> FlateDecode


def test_flate_bomb_rejected():
    # 1 KB of compressed zeros expanding to ~128 MB: stream must be
    # dropped (None -> empty page text), never inflated into the heap
    bomb = zlib.compress(b"\x00" * (128 * 1024 * 1024), 9)
    assert len(bomb) < 200_000
    data = _one_page_pdf(bomb)
    data = data.replace(b"<< /Length", b"<< /Filter /FlateDecode /Length")
    doc = parse_pdf(data)
    assert doc.text == ""


@given(st.binary(max_size=2048))
@settings(max_examples=200, deadline=None)
def test_fuzz_random_bytes_never_hang(blob):
    # any input: clean PdfError or a parsed document, never a hang/crash
    try:
        parse_pdf(b"%PDF-1.4\n" + blob)
    except PdfError:
        pass


@given(st.integers(0, 60), st.integers(0, 2000), st.integers(0, 255))
@settings(max_examples=200, deadline=None)
@example(
    seq=0,  # or any other generated value
    pos=27,
    val=35,
).via('discovered failure')
def test_fuzz_bitflip_valid_pdf(seq, pos, val):
    # single-byte corruption of a valid PDF: parse or clean PdfError
    base = make_pdf("some body text\nsecond line", seq % 24)
    pos = pos % len(base)
    data = base[:pos] + bytes([val]) + base[pos + 1 :]
    try:
        parse_pdf(data)
    except (PdfError, RecursionError):
        pass


# ---------------------------------------------------------------------------
# Ray stage


def test_extract_pdfs_stage(ray_session):
    import pyarrow as pa
    import ray

    from fuzi_rd.sources.pdfs import pdfs_from_documents_batch
    from fuzi_rd.stages.pdf_extract import extract_pdfs_dataset

    texts = [f"doc {i} body\nsecond line {i}" for i in range(50)]
    docs = pa.table(
        {"doc_id": pa.array(range(50), pa.int64()), "text": texts}
    )
    ds = ray.data.from_arrow(docs).map_batches(
        pdfs_from_documents_batch, batch_format="pyarrow"
    )
    out = extract_pdfs_dataset(ds).to_arrow_refs()
    tbl = pa.concat_tables([ray.get(r) for r in out])
    assert tbl.num_rows == 50
    by_id = dict(zip(tbl.column("doc_id").to_pylist(), tbl.column("pdf_text").to_pylist()))
    assert all(by_id[i] == texts[i] for i in range(50))
    assert set(tbl.column("status").to_pylist()) == {"ok"}
    assert set(tbl.column("n_pages").to_pylist()) == {1}
    hashes = tbl.column("text_hash").to_pylist()
    assert hashes[0] == zlib.crc32(by_id[tbl.column("doc_id")[0].as_py()].encode())


def test_extract_pdfs_poison_pill(ray_session):
    import pyarrow as pa
    import ray

    from fuzi_rd.stages.pdf_extract import extract_pdfs_dataset

    rows = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "pdf": pa.array(
                [make_pdf("good", 1), b"not a pdf at all", b""],
                pa.large_binary(),
            ),
        }
    )
    out = extract_pdfs_dataset(ray.data.from_arrow(rows))
    tbl = pa.concat_tables([ray.get(r) for r in out.to_arrow_refs()])
    by_id = {r["doc_id"]: r for r in tbl.to_pylist()}
    assert by_id[1]["status"] == "ok" and by_id[1]["pdf_text"] == "good"
    assert by_id[2]["status"] == "error" and "PdfError" in by_id[2]["error"]
    assert by_id[3]["status"] == "error"


# -- layout blocks -----------------------------------------------------------


def _hand_pdf(content: bytes) -> bytes:
    """Minimal single-page PDF around a hand-written content stream."""
    objs = [
        b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n",
        b"2 0 obj\n<< /Type /Pages /Kids [3 0 R] /Count 1 >>\nendobj\n",
        b"3 0 obj\n<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>\nendobj\n",
        b"4 0 obj\n<< /Length "
        + str(len(content)).encode()
        + b" >>\nstream\n"
        + content
        + b"\nendstream\nendobj\n",
    ]
    return b"%PDF-1.4\n" + b"".join(objs) + b"%%EOF\n"


def test_layout_blocks_split_on_vertical_gap():
    from fuzi_rd.pdf import parse_pdf_layout, pdf_text

    # two 2-line paragraphs separated by a 3x-leading gap, then a footer
    # far below: 3 blocks
    content = (
        b"BT /F1 12 Tf "
        b"1 0 0 1 72 720 Tm (para one line one) Tj "
        b"1 0 0 1 72 706 Tm (para one line two) Tj "
        b"1 0 0 1 72 660 Tm (para two line one) Tj "
        b"1 0 0 1 72 646 Tm (para two line two) Tj "
        b"1 0 0 1 72 100 Tm (footer) Tj "
        b"ET"
    )
    pdf = _hand_pdf(content)
    blocks = parse_pdf_layout(pdf)
    assert [(b.block_idx, b.n_lines, b.y_top, b.y_bottom) for b in blocks] == [
        (0, 2, 720.0, 706.0),
        (1, 2, 660.0, 646.0),
        (2, 1, 100.0, 100.0),
    ]
    assert blocks[0].text == "para one line one\npara one line two"
    assert blocks[2].text == "footer"
    # structure only, content identical
    assert "\n".join(b.text for b in blocks) == pdf_text(pdf)


def test_layout_single_block_and_td_advance():
    from fuzi_rd.pdf import parse_pdf_layout

    # Td-relative advances (no Tm): uniform leading -> one block, y tracked
    content = (
        b"BT /F1 12 Tf 72 720 Td (a line) Tj "
        b"0 -14 Td (b line) Tj 0 -14 Td (c line) Tj ET"
    )
    blocks = parse_pdf_layout(_hand_pdf(content))
    assert len(blocks) == 1
    assert blocks[0].n_lines == 3
    assert blocks[0].y_top == 720.0 and blocks[0].y_bottom == 692.0


def test_layout_fixture_roundtrip_all_styles():
    from fuzi_rd.pdf import parse_pdf_layout, pdf_text
    from fuzi_rd.sources.pdfs import make_pdf

    # every advance style (Td / T* / ' / Tm) via different seqs; block
    # texts joined in order must reproduce the flat extraction exactly
    text = "\n".join(f"line {i} with some words" for i in range(9))
    for seq in range(8):
        pdf = make_pdf(text, seq=seq)
        blocks = parse_pdf_layout(pdf)
        assert blocks, seq
        assert "\n".join(b.text for b in blocks) == pdf_text(pdf), seq
        # per-page block indexes are dense from 0
        from collections import defaultdict

        per_page = defaultdict(list)
        for b in blocks:
            per_page[b.page].append(b.block_idx)
        for idxs in per_page.values():
            assert idxs == list(range(len(idxs)))


def test_layout_stage_over_dataset(ray_session):
    import pyarrow as pa
    import ray

    from fuzi_rd.sources.pdfs import make_pdf
    from fuzi_rd.stages.pdf_extract import pdf_layout_dataset

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "pdf": pa.array(
                [make_pdf("alpha\nbeta", seq=1), b"not a pdf", make_pdf("gamma", seq=2)],
                pa.binary(),
            ),
        }
    )
    out = pdf_layout_dataset(ray.data.from_arrow(tbl), batch_size=2).take_all()
    ids = sorted({r["doc_id"] for r in out})
    assert ids == [1, 3]  # malformed doc 2 contributes zero rows
    d1 = "\n".join(
        r["text"] for r in sorted(
            (r for r in out if r["doc_id"] == 1),
            key=lambda r: (r["page"], r["block_idx"]),
        )
    )
    assert d1 == "alpha\nbeta"
