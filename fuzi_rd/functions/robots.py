"""robots.txt parsing + crawl-permission filtering.

A compliant webtext pipeline drops pages its crawler should not have kept:
the robots policies of every host are a SMALL side (one rule set per host)
against a HUGE page table — the same broadcast shape as the domain
blocklist.  ``RobotsPolicy`` parses the de-facto standard (RFC 9309
subset), ``robots_keep`` broadcasts the per-host policy map once via
``ray.put`` and filters batches locally; no shuffle.

Parser semantics (RFC 9309 rules the big crawlers agree on):

  - groups start at ``User-agent:`` lines; consecutive UA lines share one
    group; matching prefers the longest UA substring match, with ``*`` as
    the fallback group;
  - ``Allow`` / ``Disallow`` rules match by path prefix; ``*`` wildcards
    inside a rule and a ``$`` end anchor are supported;
  - precedence: the longest matching rule wins; at equal length ``Allow``
    wins; no matching rule = allowed; empty ``Disallow:`` = allow all;
  - unknown directives and comments (``#``) are ignored.
"""

from __future__ import annotations

import re

import pyarrow as pa

from fuzi_rd.broadcast import resolve

__all__ = ["RobotsPolicy", "robots_keep", "robots_sitemaps"]


def _rule_regex(pattern: str) -> re.Pattern | None:
    """Compile a robots path rule to an anchored regex (None = no-op)."""
    if not pattern:
        return None
    anchored = pattern.endswith("$")
    if anchored:
        pattern = pattern[:-1]
    parts = [re.escape(p) for p in pattern.split("*")]
    body = "(?:.*?)".join(parts)
    return re.compile("^" + body + ("$" if anchored else ""))


class RobotsPolicy:
    """Parsed policy for ONE host's robots.txt, queried for one agent."""

    def __init__(self, text: str, agent: str = "fuzi"):
        agent = agent.lower()
        groups: list[tuple[list[str], list[tuple[bool, str]]]] = []
        current_uas: list[str] = []
        current_rules: list[tuple[bool, str]] = []
        ua_open = False  # consecutive UA lines extend the same group
        self.sitemaps: list[str] = []  # Sitemap: is global, not per-group
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line or ":" not in line:
                continue
            key, _, val = line.partition(":")
            key = key.strip().lower()
            val = val.strip()
            if key == "user-agent":
                if not ua_open:
                    if current_uas:
                        groups.append((current_uas, current_rules))
                    current_uas, current_rules = [], []
                    ua_open = True
                current_uas.append(val.lower())
            elif key in ("allow", "disallow"):
                ua_open = False
                if current_uas:
                    current_rules.append((key == "allow", val))
            elif key == "sitemap":
                ua_open = False
                if val:
                    self.sitemaps.append(val)  # frontier discovery (RFC 9309 §2.3)
            else:
                ua_open = False  # crawl-delay, ...: ignored
        if current_uas:
            groups.append((current_uas, current_rules))

        # pick the group with the longest UA token matching our agent;
        # '*' matches with length 0
        best_len, chosen = -1, []
        for uas, rules in groups:
            for ua in uas:
                if ua == "*":
                    if best_len < 0:
                        best_len, chosen = 0, rules
                elif ua in agent or agent in ua:
                    if len(ua) > best_len:
                        best_len, chosen = len(ua), rules
        self.rules = [
            (allow, len(pat), _rule_regex(pat))
            for allow, pat in chosen
            if pat  # empty Disallow: allow-all no-op
        ]
        # longest pattern first; at a tie Allow sorts before Disallow
        self.rules.sort(key=lambda r: (-r[1], not r[0]))

    def allowed(self, path: str) -> bool:
        if not path.startswith("/"):
            path = "/" + path
        for allow, _, rx in self.rules:
            if rx.match(path):
                return allow
        return True


_HOST_RX = re.compile(
    r"^[A-Za-z][A-Za-z0-9+.-]*://(?:[^/?#@]*@)?([^/?#:]+)(?::\d+)?([^?#]*)"
)


def _compile_policies(raw: dict[str, str], agent: str) -> dict[str, RobotsPolicy]:
    return {host: RobotsPolicy(text, agent) for host, text in raw.items()}


def _keep_allowed(batch: pa.Table, policies_ref, agent: str, url_col: str) -> pa.Table:
    """Task UDF: keep the rows whose url the host's policy allows."""
    compiled = resolve(policies_ref, _compile_policies, agent)
    mask = []
    for url in batch.column(url_col).to_pylist():
        m = _HOST_RX.match(url or "")
        if not m:
            mask.append(True)  # relative/unparseable: keep
            continue
        pol = compiled.get(m.group(1).lower())
        mask.append(pol.allowed(m.group(2) or "/") if pol else True)
    return batch.filter(pa.array(mask, pa.bool_()))


def robots_keep(ds, policies: dict[str, str], agent: str = "fuzi", url_col: str = "url"):
    """Drop rows whose url the host's robots.txt disallows for ``agent``.

    ``policies``: host -> robots.txt text (the small side; one entry per
    host).  Hosts with no entry are allowed.  The map ships through the
    object store once, and policies are compiled once per worker process
    (``broadcast.resolve``), not per batch.
    """
    import ray

    return ds.map_batches(
        _keep_allowed,
        fn_kwargs={
            "policies_ref": ray.put(policies),
            "agent": agent,
            "url_col": url_col,
        },
        batch_format="pyarrow",
    )


def robots_sitemaps(policies: dict[str, str]) -> pa.Table:
    """Frontier discovery: collect every ``Sitemap:`` directive from a
    per-host robots.txt map — the seed list `sources.sitemap` ingests.
    Driver-side on purpose: robots policies are the SMALL side (one text
    per host); the output is (host, sitemap_url) in host-then-file order."""
    hosts, urls = [], []
    for host in sorted(policies):
        for sm in RobotsPolicy(policies[host]).sitemaps:
            hosts.append(host)
            urls.append(sm)
    return pa.table(
        {
            "host": pa.array(hosts, pa.string()),
            "sitemap_url": pa.array(urls, pa.string()),
        }
    )
