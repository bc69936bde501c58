"""Relational helpers the reference lacks entirely (SURVEY.md §2.7) —
engine-level operators expressed Ray-Data-first.

  broadcast_join   small-side lookup join: the small table is ray.put into
                   the object store ONCE and read zero-copy by every task
                   (never re-shipped per batch); avoids an all-to-all
                   shuffle when one side fits in memory.  Lookup is fully
                   vectorized (pc.index_in + take), no per-row Python.
  asof_join        inequality join Ray Data lacks: each left row matched to
                   the LATEST right row with right.ts <= left.ts in the
                   same key group.  One hash shuffle on the key (tagged
                   union + groupby), then a vectorized searchsorted per
                   group — no driver state, no broadcast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fuzi_rd.broadcast import resolve


def _lookup_join(batch: pa.Table, lookup_ref, key: str, value_cols: tuple) -> pa.Table:
    """Task UDF: append ``value_cols`` looked up by ``key`` in the broadcast
    small table (null where the key is absent)."""
    small = resolve(lookup_ref)
    idx = pc.index_in(batch.column(key), value_set=small.column(key))
    for c in value_cols:
        batch = batch.append_column(c, pc.take(small.column(c), idx))
    return batch


def broadcast_join(ds, small: pa.Table, key: str, value_cols: list[str]):
    """Join `value_cols` from `small` onto `ds` by `key` without a shuffle.

    Left join semantics: unmatched keys get null values (callers filter if
    they need inner-join behavior)."""
    import ray

    return ds.map_batches(
        _lookup_join,
        fn_kwargs={
            "lookup_ref": ray.put(small.combine_chunks()),
            "key": key,
            "value_cols": tuple(value_cols),
        },
        batch_format="pyarrow",
    )


def asof_join(
    left_ds,
    right_ds,
    key: str,
    ts: str,
    left_cols: list[str],
    right_cols: list[str],
    right_suffix: str = "_right",
):
    """As-of (backward inequality) join: for every left row, attach the
    latest right row whose ``ts`` is <= the left row's ``ts`` within the
    same ``key`` group; left rows with no prior right row are dropped
    (inner-asof).  Equal-timestamp right rows match (inclusive); ties among
    right rows at the same ts resolve to the largest ``right_cols[0]``
    value, so output is deterministic.

    Plan: tag both sides, union, ONE groupby hash shuffle on the key, then
    per group a numpy sort + searchsorted (O((l+r) log r)).  Partitioning
    assumption: one key's rows (both sides) fit in a group task — the same
    assumption as any per-key window; split hot keys upstream (e.g. by
    day) if a key's history is unbounded."""
    import numpy as np

    out_right = [c + right_suffix for c in right_cols]
    all_cols = left_cols + out_right
    # both tagged sides must union with IDENTICAL schemas: null-fill the
    # other side's columns with the owning side's real dtype
    lschema, rschema = left_ds.schema(), right_ds.schema()
    types = {c: lschema.base_schema.field(c).type for c in left_cols}
    types.update(
        {
            c + right_suffix: rschema.base_schema.field(c).type
            for c in right_cols
        }
    )

    def _tag(side: int, cols: list[str]):
        def tag(batch: pa.Table) -> pa.Table:
            t = batch.column(ts)
            if pa.types.is_timestamp(t.type):
                t = t.cast(pa.int64())
            data = {
                key: batch.column(key),
                "__ts": t,
                "__side": pa.array([side] * len(batch), pa.int8()),
            }
            for c in all_cols:
                data[c] = (
                    batch.column(c.removesuffix(right_suffix) if side else c)
                    if c in cols
                    else pa.nulls(len(batch), types[c])
                )
            return pa.table(data)

        return tag

    lt = left_ds.map_batches(_tag(0, left_cols), batch_format="pyarrow")
    rt = right_ds.map_batches(_tag(1, out_right), batch_format="pyarrow")

    def _merge(group: pa.Table) -> pa.Table:
        side = group.column("__side").to_numpy(zero_copy_only=False)
        t = group.column("__ts").to_numpy(zero_copy_only=False)
        left_mask = side == 0
        right_mask = ~left_mask
        empty = {
            key: pa.array([], group.schema.field(key).type),
            **{c: pa.array([], group.schema.field(c).type) for c in all_cols},
        }
        if not left_mask.any() or not right_mask.any():
            return pa.table(empty)
        l_idx = np.nonzero(left_mask)[0]
        r_idx = np.nonzero(right_mask)[0]
        # right side sorted by (ts, tiebreak col) so equal-ts ties resolve
        # to the largest tiebreak value deterministically (take the right
        # rows first: the full column holds left-side nulls)
        r_tie = (
            group.column(out_right[0])
            .take(pa.array(r_idx))
            .to_numpy(zero_copy_only=False)
        )
        r_order = np.lexsort((r_tie, t[r_idx]))
        r_sorted = r_idx[r_order]
        r_ts = t[r_sorted]
        pos = np.searchsorted(r_ts, t[l_idx], side="right") - 1
        matched = pos >= 0
        l_keep = l_idx[matched]
        r_match = r_sorted[pos[matched]]
        data = {key: group.column(key).take(pa.array(l_keep))}
        for c in left_cols:
            data[c] = group.column(c).take(pa.array(l_keep))
        for c in out_right:
            data[c] = group.column(c).take(pa.array(r_match))
        return pa.table(data)

    return lt.union(rt).groupby(key).map_groups(_merge, batch_format="pyarrow")


def _band_rows(
    batch: pa.Table, ref, value_col: str, lo_col: str, hi_col: str, label_cols: tuple
) -> pa.Table:
    """Task UDF: append the ``label_cols`` of the broadcast interval whose
    [lo, hi) contains each row's ``value_col`` (null outside every one)."""
    tbl = resolve(ref)
    lo = tbl.column(lo_col).to_numpy()
    hi = tbl.column(hi_col).to_numpy()
    v = batch.column(value_col).to_numpy(zero_copy_only=False)
    idx = np.searchsorted(lo, v, side="right") - 1
    safe = np.maximum(idx, 0)
    ok = pa.array((idx >= 0) & (v < hi[safe]))
    for c in label_cols:
        taken = pc.take(tbl.column(c), pa.array(safe))
        taken = pc.if_else(ok, taken, pa.scalar(None, taken.type))
        batch = batch.append_column(c, taken)
    return batch


def interval_join(
    ds,
    intervals: pa.Table,
    value_col: str,
    lo_col: str,
    hi_col: str,
    label_cols: list[str],
):
    """Broadcast range join: label each row with the half-open interval
    [lo, hi) that contains ``row[value_col]``; rows outside every interval
    get null labels (left-join semantics).  Intervals must be
    non-overlapping (the banding/classification case).

    Scale shape: the interval table is ray.put ONCE and read zero-copy per
    worker process; the big side streams through one vectorized
    searchsorted per batch — no shuffle at all.  For interval sets too big
    to broadcast, bucket both sides by a range-partitioned key instead (not
    needed for banding tables, which are tiny by construction)."""
    import ray

    intervals = intervals.sort_by(lo_col).combine_chunks()
    if len(intervals) == 0:
        # searchsorted against empty lo/hi would index an empty array in
        # every batch task; left-join semantics say every row is unmatched
        def _all_null(batch: pa.Table) -> pa.Table:
            for c in label_cols:
                batch = batch.append_column(
                    c, pa.nulls(len(batch), intervals.schema.field(c).type)
                )
            return batch

        return ds.map_batches(_all_null, batch_format="pyarrow")
    return ds.map_batches(
        _band_rows,
        fn_kwargs={
            "ref": ray.put(intervals),
            "value_col": value_col,
            "lo_col": lo_col,
            "hi_col": hi_col,
            "label_cols": tuple(label_cols),
        },
        batch_format="pyarrow",
    )


def nested_semi_join(ds, keys_ds, key_col: str, batch_format: str = "pyarrow"):
    """Semi-join that tolerates NESTED payload columns: keep ``ds`` rows
    whose ``key_col`` appears in ``keys_ds``.

    ``Dataset.join`` shuffles through Acero, which rejects list/struct
    non-key fields ("Data type list<...> is not supported in join non-key
    field") — so extraction outputs carrying a ``spans`` list column can't
    use the plain semi-join.  This is the tagged-union groupby form (same
    pattern as :func:`asof_join`): key rows ride the ONE hash shuffle as
    all-null payload rows with a marker column, and each group keeps its
    payload rows iff a marker row is present.  Cost: one groupby shuffle
    of ``ds`` — the same exchange a hash join would do, without Acero's
    type limits.
    """
    schema = ds.schema().base_schema
    _SJ = "__sj_marker"

    def _tag_payload(b: pa.Table) -> pa.Table:
        return b.append_column(_SJ, pa.array(np.zeros(len(b), np.int8())))

    def _tag_keys(b: pa.Table) -> pa.Table:
        cols = {}
        for f in schema:
            if f.name == key_col:
                cols[f.name] = b.column(key_col).cast(f.type)
            else:
                cols[f.name] = pa.nulls(len(b), f.type)
        t = pa.table(cols)
        return t.append_column(_SJ, pa.array(np.ones(len(b), np.int8())))

    tagged = ds.map_batches(_tag_payload, batch_format="pyarrow").union(
        keys_ds.map_batches(_tag_keys, batch_format="pyarrow")
    )

    def _keep(g: pa.Table) -> pa.Table:
        sj = g.column(_SJ)
        payload_mask = pc.equal(sj, 0)
        has_key = bool(pc.max(sj).as_py() or 0)
        if not has_key:
            payload_mask = pa.array(np.zeros(len(g), bool))
        return g.filter(payload_mask).drop_columns([_SJ])

    return tagged.groupby(key_col).map_groups(_keep, batch_format=batch_format)


def fixed_width_histogram(
    ds,
    value_col: str,
    bin_milli: int,
    scale: int = 1000,
):
    """Fixed-width histogram over a float column: (bin, lo_milli, n,
    sum_value_milli) per occupied bin — the one-pass profiling aggregate
    every curation report starts from.

    Bin edges are computed in INTEGER milli space (value scaled by
    ``scale`` with SQL round() tie semantics, then floor-divided by
    ``bin_milli``), so a value landing exactly on an edge bins identically
    in the engine and a DuckDB oracle — no float floor edge.  Combiner
    shape: bin assignment is row-local; the only exchange is the groupby
    on the (bounded) occupied-bin set, with count+sum partials."""
    from ray.data.aggregate import Count, Sum

    if bin_milli < 1:
        raise ValueError("bin_milli must be >= 1")

    def _bin(batch: pa.Table) -> pa.Table:
        milli = pc.cast(
            pc.round(
                pc.multiply(batch.column(value_col), scale),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        # numpy // FLOORS; DuckDB's integer // truncates toward zero, so
        # the oracle must bin via floor(value_milli / bin_milli) (exact in
        # doubles below 2^53) — the floor contract keeps negative values
        # in their mathematically-left bin on both sides
        bins = milli // bin_milli
        return pa.table(
            {
                "bin": pa.array(bins, pa.int64()),
                "value_milli": pa.array(milli, pa.int64()),
            }
        )

    agg = (
        ds.map_batches(_bin, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Count(), Sum("value_milli"))
    )

    def _out(batch: pa.Table) -> pa.Table:
        names = ["bin", "n", "sum_value_milli"]
        if batch.num_columns != 3:
            return pa.schema(
                [
                    ("bin", pa.int64()),
                    ("lo_milli", pa.int64()),
                    ("n", pa.int64()),
                    ("sum_value_milli", pa.int64()),
                ]
            ).empty_table()
        batch = batch.rename_columns(names)
        bins = pc.cast(batch.column("bin"), pa.int64())
        return pa.table(
            {
                "bin": bins,
                "lo_milli": pc.multiply(bins, bin_milli),
                "n": pc.cast(batch.column("n"), pa.int64()),
                "sum_value_milli": pc.cast(
                    batch.column("sum_value_milli"), pa.int64()
                ),
            }
        )

    return agg.map_batches(_out, batch_format="pyarrow")
