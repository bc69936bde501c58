"""Pipeline-level XML query stage (QueryXml over an Atom-flavored corpus):
namespaced XPath recipes, scalar results, poison-pill tolerance."""

import pyarrow as pa

from fuzi_rd.stages.xml_query import QueryXml, query_xml_dataset, synth_feed_table

RECIPE = {
    "feed_title": "/a:feed/a:title",
    "entry_titles": "//a:entry/a:title",
    "n_entries": "count(//a:entry)",
    "first_creator": "string(//dc:creator)",
}
PREFIXES = {
    "a": "http://www.w3.org/2005/Atom",
    "dc": "http://purl.org/dc/elements/1.1/",
}


def test_query_xml_single_process():
    q = QueryXml(recipe=RECIPE, prefixes=PREFIXES)
    out = q(synth_feed_table(8))
    assert out.column("status").to_pylist() == ["ok"] * 8
    assert out.column("feed_title")[0].as_py() == "Feed number 0"
    # doc 0 has 1 entry, doc 3 has 4 (1 + i % 4)
    assert out.column("n_entries")[0].as_py() == "1.0"
    assert out.column("n_entries")[3].as_py() == "4.0"
    titles3 = out.column("entry_titles")[3].as_py().split("\n")
    assert titles3 == [f"Entry 3-{j}" for j in range(4)]
    assert out.column("first_creator")[0].as_py() == "author-0"


def test_query_xml_unbound_prefix_is_empty():
    # unbound prefix -> query error swallowed to empty string (reference:
    # errors swallowed to empty node-set, Sources/Queryable.swift:195-200)
    q = QueryXml(recipe={"bad": "//nope:thing"}, prefixes={})
    out = q(synth_feed_table(2))
    assert out.column("bad").to_pylist() == ["", ""]
    assert out.column("status").to_pylist() == ["ok", "ok"]


def test_query_xml_poison_pill():
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "xml": pa.array([b"", b"<r><x>ok</x></r>"], pa.binary()),
        }
    )
    q = QueryXml(recipe={"x": "//x"})
    out = q(tbl)
    assert out.column("status").to_pylist() == ["error", "ok"]
    assert out.column("x")[1].as_py() == "ok"


def test_query_xml_ray(ray_session):
    import ray

    ds = ray.data.from_arrow(synth_feed_table(100))
    out = query_xml_dataset(ds, RECIPE, PREFIXES).take_all()
    assert len(out) == 100
    assert all(r["status"] == "ok" for r in out)
    by_id = {r["doc_id"]: r for r in out}
    assert by_id[42]["feed_title"] == "Feed number 42"
