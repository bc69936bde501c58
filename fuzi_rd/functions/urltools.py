"""URL canonicalization for crawl dedup/join keys.

A crawl pipeline keys almost everything by url (dedup, resume partitioning,
attribution joins); raw crawl urls differ in case, fragments, tracking
params and trailing slashes without identifying different resources.
``url_normalize_batch`` applies a deterministic, regex-specified
canonicalization that a SQL engine can reproduce exactly (the DuckDB
oracle runs the same RE2 chain), fully vectorized — no per-row Python.

Normalization steps, in order:
  1. strip the fragment            (#... to end)
  2. drop utm_* tracking params    (three-step regex chain, order matters:
                                    '&utm_x' anywhere, then '?utm_x&' -> '?',
                                    then a lone '?utm_x' tail)
  3. lowercase scheme + authority  (host names are case-insensitive; paths
                                    are not — only the prefix is lowered)
  4. strip trailing slashes        ('/+$')
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

_FRAGMENT = r"#.*$"
_UTM_MID = r"&utm_[^&#]*"
_UTM_FIRST_MORE = r"\?utm_[^&#]*&"
_UTM_FIRST_ONLY = r"\?utm_[^&#]*$"
_AUTHORITY = r"^(?P<pre>[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*)(?P<rest>.*)$"
_TRAILING = r"/+$"


def normalize_urls(urls: pa.ChunkedArray | pa.Array) -> pa.Array | pa.ChunkedArray:
    """Vectorized canonicalization of a url string column."""
    s = pc.replace_substring_regex(urls, _FRAGMENT, "")
    s = pc.replace_substring_regex(s, _UTM_MID, "")
    s = pc.replace_substring_regex(s, _UTM_FIRST_MORE, "?")
    s = pc.replace_substring_regex(s, _UTM_FIRST_ONLY, "")
    # lowercase scheme+authority only: capture (prefix)(rest), lower the
    # prefix, rejoin.  Rows without a scheme (relative urls) don't match
    # extract_regex (null struct) and pass through unchanged.
    parts = pc.extract_regex(s, _AUTHORITY)
    pre = pc.utf8_lower(pc.struct_field(parts, "pre"))
    rest = pc.struct_field(parts, "rest")
    joined = pc.binary_join_element_wise(pre, rest, "")
    s = pc.if_else(pc.is_valid(joined), joined, s)
    return pc.replace_substring_regex(s, _TRAILING, "")


def url_normalize_batch(batch: pa.Table, col: str = "url") -> pa.Table:
    """map_batches form: appends ``url_norm`` next to the input columns."""
    return batch.append_column("url_norm", normalize_urls(batch.column(col)))


# ---------------------------------------------------------------------------
# host / registered-domain extraction (domain-level curation keys)

_HOST = r"^[A-Za-z][A-Za-z0-9+.-]*://(?:[^/?#@]*@)?(?P<h>[^/?#:]+)"
# heuristic public-suffix handling: a built-in set of common second-level
# suffixes (co.uk, com.au, ...).  The real PSL is external data this
# sandbox doesn't ship; the two-regex preference below covers the bulk of
# crawl traffic and is exactly reproducible in SQL (both are RE2).
_THREE_LABEL = r"(?P<d>[^.]+\.(?:co|com|org|net|ac|gov|edu)\.[A-Za-z]{2})$"
_TWO_LABEL = r"(?P<d>[^.]+\.[^.]+)$"


def extract_hosts(urls: pa.ChunkedArray | pa.Array):
    """Lowercased host of each url; null when no scheme/authority."""
    h = pc.struct_field(pc.extract_regex(urls, _HOST), "h")
    return pc.utf8_lower(h)


def registered_domains(hosts: pa.ChunkedArray | pa.Array):
    """Registered domain of a (lowercased) host column: prefer the 3-label
    form when the 2-label tail is a known second-level suffix, else the
    2-label tail; bare hosts (no dot) pass through unchanged."""
    three = pc.struct_field(pc.extract_regex(hosts, _THREE_LABEL), "d")
    two = pc.struct_field(pc.extract_regex(hosts, _TWO_LABEL), "d")
    dom = pc.if_else(pc.is_valid(three), three, two)
    return pc.if_else(pc.is_valid(dom), dom, hosts)


def host_stats_batch(batch: pa.Table, col: str = "url") -> pa.Table:
    """map_batches form: appends ``host`` and ``domain`` columns."""
    hosts = extract_hosts(batch.column(col))
    return batch.append_column("host", hosts).append_column(
        "domain", registered_domains(hosts)
    )


# ---------------------------------------------------------------------------
# dedup-grade canonicalization + URL-level dedup
#
# ``normalize_urls`` above is the cheap join-key canon (fragment + utm_* +
# prefix case + trailing slash) used where two spellings of the same fetch
# must compare equal inside ONE pipeline (crawl_diff, attribution).  URL-
# LEVEL DEDUP needs a stricter, RFC-3986-shaped contract — default-port
# drop (§6.2.3), tracking-parameter families beyond utm_*, an exact
# query-string rebuild that preserves survivor order, and ensure-a-path —
# because the keys arrive from MANY crawls/pipelines and near-miss
# spellings each leak a duplicate page into training data.  CCNet /
# RefinedWeb-style pipelines run exactly this tier before any content
# hashing (Penedo et al. 2023 §3.1: URL filtering + dedup happens first,
# on keys alone, no page bytes needed).
#
# Canonicalization contract (mirrored verbatim by the DuckDB oracles for
# ``url_canonical`` / ``url_dedup`` in __ray_entry__.oracle_sql()):
#   1. strip the fragment (everything from the first '#');
#   2. lowercase the scheme://authority prefix (paths/queries stay
#      case-sensitive);
#   3. drop an explicit default port (:80 http, :443 https);
#   4. drop tracking params: names starting 'utm_' plus the exact set
#      TRACKING_EXACT; survivors keep original order and spelling;
#   5. ensure a non-empty path when the URL has a scheme
#      ('https://x.io?a=1' -> 'https://x.io/?a=1');
#   6. drop a now-empty '?'.
#
# Fully Arrow-vectorized; the only per-row state is numpy offset
# arithmetic for the query-parameter rebuild.

TRACKING_EXACT = ("gclid", "fbclid", "msclkid", "mc_eid")

_PRE_GROUP_RE = r"^(?P<pre>[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*)"
_PRE_RE = r"^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*"


def canonicalize_urls(u: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Vectorized dedup-grade canonicalization (6-step contract above).
    Null inputs stay null."""
    import numpy as np

    if isinstance(u, pa.ChunkedArray):
        u = u.combine_chunks()
    n = len(u)
    if n == 0:
        return pa.array([], pa.string())
    null_mask = pc.is_null(u)
    u = pc.fill_null(u, "")

    # 1. fragment strip: everything before the first '#'
    u0 = pc.list_element(pc.split_pattern(u, "#", max_splits=1), 0)

    # 2. scheme://authority prefix, lowercased; '' when there is no scheme
    pre = pc.struct_field(pc.extract_regex(u0, _PRE_GROUP_RE), "pre")
    pre = pc.utf8_lower(pc.fill_null(pre, ""))
    rest = pc.replace_substring_regex(u0, _PRE_RE, "", max_replacements=1)

    # 3. default ports (on the lowercased prefix, like the oracle)
    pre = pc.replace_substring_regex(pre, r"^(http://[^:/?#]*):80$", r"\1")
    pre = pc.replace_substring_regex(pre, r"^(https://[^:/?#]*):443$", r"\1")

    # 4. query split at the FIRST '?' (later '?' belong to the query)
    pq = pc.split_pattern(rest, "?", max_splits=1)
    path = pc.list_element(pq, 0)
    lens = np.asarray(pc.list_value_length(pq), dtype=np.int64)
    cum = np.concatenate(([0], np.cumsum(lens)))
    flat = pc.list_flatten(pq)
    has_q = lens == 2
    # element-1 gather with a safe in-bounds placeholder for rows w/o query
    q_idx = np.where(has_q, cum[:-1] + 1, 0)
    q = pc.if_else(
        pa.array(has_q), pc.take(flat, pa.array(q_idx, pa.int64())), ""
    )

    # tracking-parameter filter, rebuilt with offset arithmetic so the
    # survivors keep their original order and spelling
    qs = pc.split_pattern(q, "&")
    qflat = pc.list_flatten(qs)
    name = pc.replace_substring_regex(
        qflat, r"(?s)=.*$", "", max_replacements=1
    )
    drop = pc.or_(
        pc.starts_with(qflat, "utm_"),
        pc.is_in(name, value_set=pa.array(TRACKING_EXACT, pa.string())),
    )
    keep = pc.invert(drop)
    qlens = np.asarray(pc.list_value_length(qs), dtype=np.int64)
    row_ids = np.repeat(np.arange(n), qlens)
    keep_np = np.asarray(keep)
    kept_vals = pc.filter(qflat, keep)
    if isinstance(kept_vals, pa.ChunkedArray):
        kept_vals = kept_vals.combine_chunks()
    new_lens = np.bincount(row_ids[keep_np], minlength=n)
    new_offsets = np.concatenate(([0], np.cumsum(new_lens)))
    kept_list = pa.ListArray.from_arrays(
        pa.array(new_offsets, pa.int32()), kept_vals
    )
    kept = pc.binary_join(kept_list, "&")

    # 5./6. assemble: ensure a path when there is a scheme; '?' only when
    # the filtered query is non-empty
    path = pc.if_else(
        pc.and_(pc.not_equal(pre, ""), pc.equal(path, "")), "/", path
    )
    qpart = pc.if_else(
        pc.not_equal(kept, ""),
        pc.binary_join_element_wise("?", kept, ""),
        "",
    )
    norm = pc.binary_join_element_wise(pre, path, qpart, "")
    return pc.if_else(null_mask, pa.scalar(None, pa.string()), norm)


def url_canonical_batch(
    batch: pa.Table, col: str = "url", out_col: str = "canon_url"
) -> pa.Table:
    """map_batches form: appends ``out_col`` with the dedup-grade
    canonical form of ``col``.  Pure per-batch map — no state, no
    exchange."""
    return batch.append_column(out_col, canonicalize_urls(batch.column(col)))


def url_dedup(ds, col: str = "url", id_col: str = "doc_id"):
    """URL-level dedup report: one row per canonical URL with the keeper
    (minimum ``id_col``) and the duplicate count.

    Scale shape: canonicalize per batch (no exchange), then ONE groupby
    over the canonical key carrying only (canon_url, id) pairs — the
    exact-content-dedup plan (``dedup.exact_dedup``) with the URL string
    as the digest; no page bytes cross the exchange.  Returns columns
    ``canon_url``, ``doc_id`` (keeper), ``n_dups``."""
    from ray.data.aggregate import Count, Min

    def _canon(batch: pa.Table) -> pa.Table:
        return url_canonical_batch(batch, col=col).select(
            ["canon_url", id_col]
        )

    return (
        ds.map_batches(_canon, batch_format="pyarrow")
        .groupby("canon_url")
        .aggregate(
            Count(alias_name="n_dups"), Min(id_col, alias_name=id_col)
        )
    )


def domain_blocklist_keep(ds, blocked, col: str = "url"):
    """Drop rows whose registered domain is on the blocklist.

    The blocklist is a SMALL side (curation lists are thousands of
    entries): it ships to the object store once via ``ray.put`` and each
    task does a vectorized ``pc.is_in`` probe — no shuffle, no join.
    """
    import ray

    blocked_ref = ray.put(pa.array(sorted(set(blocked)), pa.string()))

    def keep(batch: pa.Table) -> pa.Table:
        bl = ray.get(blocked_ref)
        dom = registered_domains(extract_hosts(batch.column(col)))
        return batch.filter(
            pc.invert(pc.is_in(dom, value_set=bl))
        )

    return ds.map_batches(keep, batch_format="pyarrow")
