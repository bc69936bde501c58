"""Driver-contract self-check: run every queries() entry and, where an
oracle_sql() entry exists, compare row count + schema + values against
DuckDB over the same parquet tables (the same comparison the round driver
performs at sf0.01).  Ray sizes the session from the host.  A query still
running after ``QUERY_TIMEOUT_S`` prints ``FAIL <name>: timed out`` and
counts as a failure (SIGALRM stops the Ray Data pipeline it waits on; a
bare ``ray.get`` inside a query is only cut once it returns).

Usage: python tools/check_oracles.py [sf_dir] [name ...]
"""

from __future__ import annotations

import pathlib
import signal
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import duckdb
import pyarrow as pa

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()
QUERY_TIMEOUT_S = 600


class QueryTimeout(BaseException):
    """Raised by SIGALRM; not an Exception, so a query cannot swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout


def to_arrow(result) -> pa.Table:
    import pandas as pd
    import ray

    if isinstance(result, pa.Table):
        return result
    if isinstance(result, pd.DataFrame):
        return pa.Table.from_pandas(result, preserve_index=False)
    if isinstance(result, ray.data.Dataset):
        tbls = [ray.get(r) for r in result.to_arrow_refs()]
        tbls = [t for t in tbls if len(t)]
        if not tbls:
            return pa.table({})
        return pa.concat_tables(tbls, promote_options="permissive")
    raise TypeError(type(result))


def _norm_type(t: pa.DataType) -> pa.DataType:
    """Normalize only the arrow variants that hash identically everywhere
    (large_string/string, large_binary/binary); everything else — notably
    decimal128 vs int64 from an uncast DuckDB SUM() — must match exactly,
    because the driver's value hash is type-sensitive."""
    if pa.types.is_large_string(t):
        return pa.string()
    if pa.types.is_large_binary(t):
        return pa.binary()
    return t


def dtype_mismatches(got: pa.Table, want: pa.Table) -> list[str]:
    out = []
    for c in sorted(got.column_names):
        a = _norm_type(got.schema.field(c).type)
        b = _norm_type(want.schema.field(c).type)
        if a != b:
            out.append(f"{c}: ray={a} sql={b}")
    return out


def canon(tbl: pa.Table) -> list[tuple]:
    """Column-name-sorted, row-sorted, TYPE-TAGGED values (ints exact,
    floats repr-rounded) — at least as strict as the driver's
    type-sensitive value-hash comparison.  Each cell is (type_name, value)
    so Decimal(511) != 511 here, exactly as in the driver's hash."""
    cols = sorted(tbl.column_names)
    tbl = tbl.select(cols)
    rows = []
    for row in tbl.to_pylist():
        rows.append(
            tuple(
                (
                    ("float", round(v, 6))
                    if isinstance(v, float)
                    else (type(v).__name__, v)
                )
                for v in (row[c] for c in cols)
            )
        )
    return sorted(rows, key=lambda r: tuple(str(x) for x in r))


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )

    import __ray_entry__ as entry

    qs = entry.queries()
    oracles = entry.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
        )

    failures = 0
    signal.signal(signal.SIGALRM, _on_alarm)
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.monotonic()
        signal.alarm(QUERY_TIMEOUT_S)
        try:
            got = to_arrow(fn(sf_dir))
        except (QueryTimeout, Exception) as exc:
            # Ray may re-raise the timeout as another exception type
            if time.monotonic() - t0 >= QUERY_TIMEOUT_S:
                print(f"FAIL {name}: timed out")
            else:
                print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        finally:
            signal.alarm(0)
        if name not in oracles:
            print(f"ok   {name}: rows-only, {len(got)} rows, cols {sorted(got.column_names)}")
            continue
        want = con.sql(oracles[name]).fetch_arrow_table()
        if sorted(got.column_names) != sorted(want.column_names):
            print(
                f"FAIL {name}: schema mismatch ray={sorted(got.column_names)} "
                f"sql={sorted(want.column_names)}"
            )
            failures += 1
            continue
        if len(got) != len(want):
            print(f"FAIL {name}: rows ray={len(got)} sql={len(want)}")
            failures += 1
            continue
        bad_types = dtype_mismatches(got, want)
        if bad_types:
            print(f"FAIL {name}: dtype mismatch {'; '.join(bad_types)}")
            failures += 1
            continue
        cg, cw = canon(got), canon(want)
        if cg != cw:
            diff = [i for i, (a, b) in enumerate(zip(cg, cw)) if a != b][:3]
            print(f"FAIL {name}: value mismatch at sorted rows {diff}")
            for i in diff:
                print(f"   ray: {cg[i]}\n   sql: {cw[i]}")
            failures += 1
            continue
        print(f"ok   {name}: {len(got)} rows MATCH")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
