"""The text-statistics queries against their DuckDB oracles, compared the
way ``tools/check_oracles.py`` compares every query: schema, row count,
dtypes and type-tagged sorted values."""

import pathlib

import pytest

from test_lsh_index import SF_DIR


@pytest.mark.skipif(not pathlib.Path(SF_DIR).is_dir(), reason="no sf0.001 tables")
@pytest.mark.parametrize("name", ["doc_token_stats", "doc_quality", "quality_keep"])
def test_query_matches_duckdb_oracle(ray_session, name):
    import duckdb

    import __ray_entry__ as entry
    from tools.check_oracles import canon, dtype_mismatches, to_arrow

    got = to_arrow(entry.queries()[name](SF_DIR))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF_DIR}/documents.parquet'")
    want = con.sql(entry.oracle_sql()[name]).fetch_arrow_table()
    assert sorted(got.column_names) == sorted(want.column_names)
    assert len(got) == len(want) > 0
    assert dtype_mismatches(got, want) == []
    assert canon(got) == canon(want)
