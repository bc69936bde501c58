"""HTML table extraction (fuzi_rd/stages/tables.py)."""

from __future__ import annotations

import pyarrow as pa

from fuzi_rd.html_parser import parse_html_bytes
from fuzi_rd.stages.tables import _SCHEMA, _page_tables


def _cells(html: bytes, url: str = "u"):
    arena = parse_html_bytes(html, track_lines=False)
    out = {f.name: [] for f in _SCHEMA}
    _page_tables(arena, url, out)
    return [
        tuple(out[c][i] for c in
              ("table_idx", "row_idx", "col_idx", "is_header", "text"))
        for i in range(len(out["url"]))
    ]


def test_basic_table_with_headers():
    html = b"""<html><body><table>
      <tr><th>Name</th><th>Age</th></tr>
      <tr><td>Ada</td><td>36</td></tr>
      <tr><td>Alan</td><td>41</td></tr>
    </table></body></html>"""
    assert _cells(html) == [
        (0, 0, 0, True, "Name"),
        (0, 0, 1, True, "Age"),
        (0, 1, 0, False, "Ada"),
        (0, 1, 1, False, "36"),
        (0, 2, 0, False, "Alan"),
        (0, 2, 1, False, "41"),
    ]


def test_thead_tbody_and_whitespace_collapse():
    html = b"""<table><thead><tr><th> Col  A </th></tr></thead>
      <tbody><tr><td>v<b>1</b>  x</td></tr></tbody></table>"""
    assert _cells(html) == [
        (0, 0, 0, True, "Col A"),
        (0, 1, 0, False, "v1 x"),
    ]


def test_nested_table_gets_own_index():
    html = b"""<table>
      <tr><td>outer1</td><td><table><tr><td>inner</td></tr></table></td></tr>
      <tr><td>outer2</td></tr>
    </table>"""
    got = _cells(html)
    # outer table: the cell containing the nested table still emits (its
    # string_value includes the inner text), and the inner table's own cell
    # is attributed to table_idx 1
    outer = [c for c in got if c[0] == 0]
    inner = [c for c in got if c[0] == 1]
    assert [(c[1], c[2], c[4]) for c in outer] == [
        (0, 0, "outer1"),
        (0, 1, "inner"),
        (1, 0, "outer2"),
    ]
    assert [(c[1], c[2], c[4]) for c in inner] == [(0, 0, "inner")]


def test_colspan_rowspan_surfaced():
    html = b"""<table><tr>
      <td colspan="2">wide</td><td rowspan="3">tall</td>
      <td colspan="x">junk</td><td colspan="0">zero</td>
    </tr></table>"""
    arena = parse_html_bytes(html, track_lines=False)
    out = {f.name: [] for f in _SCHEMA}
    _page_tables(arena, "u", out)
    assert out["colspan"] == [2, 1, 1, 1]
    assert out["rowspan"] == [1, 3, 1, 1]


def test_empty_rows_skipped_and_no_tables_no_rows():
    assert _cells(b"<table><tr></tr><tr><td>a</td></tr></table>") == [
        (0, 0, 0, False, "a")
    ]
    assert _cells(b"<html><body><p>no tables</p></body></html>") == []


def test_caps_bound_output():
    rows = "".join(
        f"<tr><td>r{i}</td></tr>" for i in range(1500)
    )
    got = _cells(f"<table>{rows}</table>".encode())
    assert len(got) == 1000  # MAX_ROWS_PER_TABLE


def test_actor_stage_over_dataset(ray_session):
    import ray

    from fuzi_rd.stages.tables import extract_tables_dataset

    pages = pa.table(
        {
            "url": pa.array(["a", "b", "c"], pa.string()),
            "html": pa.array(
                [
                    b"<table><tr><td>x</td><td>y</td></tr></table>",
                    b"<p>none</p>",
                    b"\xff\xfe garbage \x00",
                ],
                pa.binary(),
            ),
        }
    )
    out = extract_tables_dataset(ray.data.from_arrow(pages), batch_size=2).take_all()
    assert [(r["url"], r["col_idx"], r["text"]) for r in out] == [
        ("a", 0, "x"),
        ("a", 1, "y"),
    ]


def test_web_fixture_has_tables():
    import pathlib

    web = (
        pathlib.Path(__file__).parent / "fixtures" / "web.html"
    ).read_bytes()
    got = _cells(web, "web")
    assert len(got) > 0
    # grid coordinates are well-formed
    for t, r, c, _h, _txt in got:
        assert t >= 0 and r >= 0 and c >= 0


def test_uppercase_tags_normalized():
    assert _cells(b"<TABLE><TR><TH>H</TH><TD>d</TD></TR></TABLE>") == [
        (0, 0, 0, True, "H"),
        (0, 0, 1, False, "d"),
    ]
