"""Incremental-crawl extraction: re-extract only what changed.

THE 100 TB workflow: a monthly crawl re-fetches mostly-unchanged pages,
and re-running extraction (parse + DOM + heuristics, the expensive stage)
over byte-identical HTML is pure waste.  This pipeline diffs the new page
snapshot against the previous one by content digest, reuses the previous
run's extraction rows for unchanged pages, and routes only added/changed
pages through the extractor.

Scale shape:
  1. both snapshots reduce to fixed-width (url, md5(html)) rows inside
     ``map_batches`` — raw HTML never enters the exchange;
  2. ONE hash-partitioned ``full_outer`` join classifies every url
     (:func:`fuzi_rd.functions.diff.crawl_diff` on the html bytes);
  3. the class table (url-count rows, fixed width) is materialized once
     into the object store — required so the two downstream semi-joins
     execute as independent plans (Ray 2.49 lazy multi-consumer plans
     re-execute upstream per consumer and can wedge; see dedup._compact);
  4. ``same`` urls semi-join the PREVIOUS extraction output (reuse —
     no parse); ``added``/``changed`` urls semi-join the new page table
     and flow through the normal extraction tasks;
  5. the union streams to the caller/sink.

Invariant (pinned by tests/test_incremental.py): the result is row-for-row
byte-identical to extracting the new snapshot from scratch, for ANY mix of
added/removed/changed/same pages — reuse is an optimization, never a
semantic change.
"""

from __future__ import annotations

import pyarrow as pa

from fuzi_rd.functions.diff import crawl_diff
from fuzi_rd.functions.relational import nested_semi_join


def incremental_extract(
    prev_pages,
    new_pages,
    prev_extracted,
    extract=None,
    key_col: str = "url",
    html_col: str = "html",
    num_partitions: int = 16,
):
    """Extract ``new_pages``, reusing ``prev_extracted`` rows for pages
    whose HTML bytes are unchanged since ``prev_pages``.

    ``prev_extracted`` must be the extractor's output over ``prev_pages``
    (same recipe/config — the caller owns that contract; a recipe change
    means a full re-run).  ``extract`` defaults to
    :func:`fuzi_rd.pipelines.extraction.extract_dataset`.
    Returns ``(result_ds, classes_ds)`` — the extraction result plus the
    per-url change classification (added/removed/changed/same) for
    lineage/metrics; removed pages appear only in ``classes_ds``.
    """
    from fuzi_rd.functions.dedup import _compact, semi_join

    if extract is None:
        from fuzi_rd.pipelines.extraction import extract_dataset

        def extract(ds):
            return extract_dataset(ds)

    classes = _compact(
        crawl_diff(
            prev_pages,
            new_pages,
            key_col=key_col,
            text_col=html_col,
            num_partitions=num_partitions,
        )
    )

    def _keys_where(*wanted: str):
        def _f(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            mask = pc.is_in(b.column("change"), value_set=pa.array(wanted))
            return pa.table({key_col: b.column(key_col).filter(mask)})

        return _f

    # the keys tables are tiny (url-only); compacting them also surfaces
    # the two all-or-nothing edge cases a bare Dataset.join cannot take
    # (an entirely empty side reaches Acero as schema-less tables)
    same_keys = _compact(
        classes.map_batches(_keys_where("same"), batch_format="pyarrow")
    )
    todo_keys = _compact(
        classes.map_batches(_keys_where("added", "changed"), batch_format="pyarrow")
    )
    n_same = same_keys.count()
    n_todo = todo_keys.count()

    if n_todo == 0:
        # byte-identical crawl: reuse everything, never touch the extractor
        return nested_semi_join(prev_extracted, same_keys, key_col), classes

    # the page table is flat (url, html binary): plain hash semi-join.
    # Compacted so the join's aggregator actors never share a plan with the
    # extraction (that composition once deadlocked small CPU counts;
    # block refs stay in the object store, which spills — at crawl scale a
    # parquet checkpoint à la pipelines/corpus.py is the durable variant).
    todo_pages = _compact(semi_join(new_pages, todo_keys, key_col, num_partitions))
    fresh = extract(todo_pages)
    if n_same == 0:
        return fresh, classes

    # extraction output carries a nested spans column, which Acero joins
    # reject — the reuse side goes through the tagged-union groupby form
    reused = nested_semi_join(prev_extracted, same_keys, key_col)
    return reused.union(fresh), classes
