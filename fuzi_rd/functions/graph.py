"""Webgraph algorithms over edge-list Datasets.

``pagerank`` runs power iteration as a dataset job: each iteration is one
hash join (ranks onto edges, keyed by src) + one groupby (sum of weighted
contributions per dst) + one left join (back onto the node set, so nodes
with no inlinks keep the base rank).  Only (node, rank) and
(src, dst, share) rows cross the exchanges — fixed-size payloads, never
page content — so the iteration cost is O(edges) shuffle per round no
matter how large the corpus the graph came from.

Semantics: the original non-normalized formulation without dangling-mass
redistribution,

    R(v) = (1 - d) + d * sum_{u -> v} R(u) * w(u, v) / outw(u)

with R_0(v) = 1.  Ranks of dangling nodes (no outlinks) converge to their
inlink value; their mass is not re-spread.  Deterministic: fixed ``n_iter``
rounds, no RNG.

Ray 2.49 join gotchas handled here (see fuzi_rd/functions/dedup.py):
intermediates are compacted via ``_compact`` so schema-less empty blocks
from Join/Aggregate never poison the next join, and each iteration's plan
executes on its own instead of chaining every join into one re-executing
lazy dag.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from fuzi_rd.functions.dedup import (
    _adaptive_partitions,
    _compact,
    _rename,
    _semi_join_partitions,
    connected_components_min_label as connected_components,
    hash_join,
)

__all__ = ["pagerank", "connected_components", "domain_components"]


def domain_components(
    graph_ds,
    src_col: str = "src_domain",
    dst_col: str = "dst_domain",
    num_partitions: int | None = None,
    stats: dict | None = None,
):
    """Weakly-connected components of a string-keyed domain graph —
    mirror-cluster / site-family discovery over the webgraph.

    Domains hash to stable int64 ids (md5 lower 63 bits — collision odds
    are ~n^2/2^64, negligible below ~10^8 domains), the edge list feeds
    the same pointer-jumping min-label CC the dedup tier uses (O(log L)
    rounds, driver holds only per-round changed counts), and labels join
    back to domain names with one hash join.  Returns a Dataset of
    (domain, component) where component = min domain-id reachable.

    The input graph is compacted (materialized) up front: it is consumed
    TWICE (CC edges + the id->name mapping), and a lazy upstream — e.g.
    link extraction parsing every page — would re-execute per consumer
    (the multi-consumer re-execution gotcha).  The domain edge list is
    fixed-width rows, bounded by the webgraph, not the corpus.
    """
    import hashlib
    import struct

    graph_ds = _compact(graph_ds)

    def _h64(s: str) -> int:
        return (
            struct.unpack(
                "<Q", hashlib.md5(s.encode("utf-8")).digest()[:8]
            )[0]
            & 0x7FFFFFFFFFFFFFFF
        )

    def _ids(batch: pa.Table) -> pa.Table:
        src = batch.column(src_col).to_pylist()
        dst = batch.column(dst_col).to_pylist()
        return pa.table(
            {
                "id_a": pa.array([_h64(s) for s in src], pa.int64()),
                "id_b": pa.array([_h64(d) for d in dst], pa.int64()),
            }
        )

    edges = graph_ds.map_batches(_ids, batch_format="pyarrow")
    labels = connected_components(edges, num_partitions, stats=stats)

    def _pairs(batch: pa.Table) -> pa.Table:
        src = batch.column(src_col).to_pylist()
        dst = batch.column(dst_col).to_pylist()
        names = src + dst
        return pa.table(
            {
                "doc_id": pa.array([_h64(n) for n in names], pa.int64()),
                "domain": pa.array(names, pa.string()),
            }
        )

    # id -> name mapping: all domains sharing a doc_id are the SAME string
    # (the id is a pure hash of the name; collisions are the documented
    # negligible case), so a hash-aggregate min() picks the one name — much
    # cheaper than the sort-based groupby().map_groups(first) shuffle.
    mapping = _rename(
        graph_ds.map_batches(_pairs, batch_format="pyarrow")
        .groupby("doc_id")
        .min("domain"),
        {"min(domain)": "domain"},
    )
    mapping_c = _compact(mapping)
    labels_c = _compact(labels)
    joined = hash_join(
        mapping_c,
        labels_c,
        "inner",
        (
            _adaptive_partitions(mapping_c)
            if num_partitions is None
            else num_partitions
        ),
        ("doc_id",),
    )

    def _out(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "domain": batch.column("domain"),
                "component": batch.column("label"),
            }
        )

    return joined.map_batches(_out, batch_format="pyarrow")


def pagerank(
    edges_ds,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str | None = None,
    damping: float = 0.85,
    n_iter: int = 10,
    num_partitions: int | None = None,
):
    """PageRank over an edge-list Dataset; returns a Dataset of
    (node, rank) for every node appearing as a src or dst.

    ``weight_col=None`` treats every edge as weight 1 (parallel edges sum).
    """

    def _std(batch: pa.Table) -> pa.Table:
        w = (
            pc.cast(batch.column(weight_col), pa.float64())
            if weight_col is not None
            else pa.array([1.0] * len(batch), pa.float64())
        )
        return pa.table(
            {"src": batch.column(src_col), "dst": batch.column(dst_col), "w": w}
        )

    edges = _compact(edges_ds.map_batches(_std, batch_format="pyarrow"))
    # join partition count sized to the materialized edge list (metadata
    # rows, no block fetch) — per-iteration joins otherwise pay a per-CPU
    # shuffle's fixed cost even on a thousand-row graph
    P = (
        _adaptive_partitions(edges)
        if num_partitions is None
        else num_partitions
    )

    # node set: every distinct src or dst
    def _endpoints(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("src").combine_chunks(),
                        batch.column("dst").combine_chunks(),
                    ]
                )
            }
        )

    nodes = _compact(
        edges.map_batches(_endpoints, batch_format="pyarrow")
        .groupby("node")
        .count()
        .map_batches(lambda b: b.select(["node"]), batch_format="pyarrow")
    )

    # per-src out-weight, joined onto the edges ONCE: share = w / outw.
    # _compact: Aggregate emits schema-less empty blocks for empty hash
    # partitions, which poison the join's partitioner on the right side.
    outw = _compact(
        _rename(edges.groupby("src").sum("w"), {"sum(w)": "outw"})
    )
    edges_sh = _compact(
        hash_join(edges, outw, "inner", P, ("src",))
        .map_batches(
            lambda b: pa.table(
                {
                    "src": b.column("src"),
                    "dst": b.column("dst"),
                    "share": pc.divide(b.column("w"), b.column("outw")),
                }
            ),
            batch_format="pyarrow",
        )
    )

    base = 1.0 - damping
    ranks = _compact(
        nodes.map_batches(
            lambda b: b.append_column(
                "rank", pa.array([1.0] * len(b), pa.float64())
            ),
            batch_format="pyarrow",
        )
    )

    for _ in range(n_iter):
        contrib = (
            hash_join(
                edges_sh, _rename(ranks, {"node": "src"}), "inner", P, ("src",)
            )
            .map_batches(
                lambda b: pa.table(
                    {
                        "node": b.column("dst"),
                        "c": pc.multiply(b.column("rank"), b.column("share")),
                    }
                ),
                batch_format="pyarrow",
            )
            .groupby("node")
            .sum("c")
        )
        joined = hash_join(
            nodes,
            _compact(_rename(contrib, {"sum(c)": "c"})),
            "left_outer",
            P,
            ("node",),
        )
        ranks = _compact(
            joined.map_batches(
                lambda b: pa.table(
                    {
                        "node": b.column("node"),
                        "rank": pc.add(
                            base,
                            pc.multiply(
                                damping,
                                pc.coalesce(b.column("c"), 0.0),
                            ),
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
        )
    return ranks
