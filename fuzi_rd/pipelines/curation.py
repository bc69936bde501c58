"""Corpus curation: the selection pass a training-data pipeline runs AFTER
extraction + dedup (pipelines/corpus.py) and BEFORE tokenization.

    corpus (url, extracted_text, lang_guess, ...)
      -> annotate          domain + repetition + compression signals
                           (one fused vectorized batch pass)
      -> gate              signal bands (drop degenerate/boilerplate docs)
      -> blocklist         registered-domain drop (broadcast is_in probe)
      -> stratified sample per-stratum quota (broadcast thresholds)

Every stage is a shuffle-free batch transform: the only exchange in the
whole pass is the tiny ``groupby(stratify_col).count()`` inside the quota
fit, whose output is one row per stratum.  Signals and sampling rules are
the individually oracle-checked operators (textstats / urltools /
sampling); this module is their composition.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from fuzi_rd.functions.sampling import stratified_sample_keep
from fuzi_rd.functions.textstats import compress_ratio_batch, repetition_batch
from fuzi_rd.functions.urltools import extract_hosts, registered_domains

__all__ = ["curate_dataset"]


def curate_dataset(
    ds,
    text_col: str = "extracted_text",
    id_col: str = "url",
    stratify_col: str = "lang_guess",
    cap: int | None = 1000,
    blocklist: list[str] | None = None,
    compress_band: tuple[int, int] = (200, 950),
    max_dup_ngram_milli: int = 300,
):
    """Curated subset of a corpus Dataset (lazy).

    ``compress_band``: keep docs whose zlib milli-ratio falls inside
    (below = machine-repetitive, above = high-entropy junk/binary).
    ``max_dup_ngram_milli``: Gopher-style duplicate-3-gram gate.
    ``cap``: per-stratum quota (None disables sampling).
    ``blocklist``: registered domains to drop (None/[] disables).

    With ``cap`` set the quota fit consumes the pipeline once and the
    filter pass consumes it again (lazy plans re-execute per consumer) —
    feed this from a checkpointed corpus (``run_corpus`` output or the
    ``_checkpoint`` dir), exactly like corpus.py checkpoints before dedup;
    a raw extraction upstream would run twice.
    """

    def annotate_and_gate(batch: pa.Table) -> pa.Table:
        sig_in = pa.table(
            {
                "doc_id": pa.array(range(len(batch)), pa.int64()),
                "text": pc.cast(batch.column(text_col), pa.string()),
            }
        )
        comp = compress_ratio_batch(sig_in).column("compress_milli")
        rep = repetition_batch(sig_in).column("dup_ngram_milli")
        hosts = extract_hosts(batch.column(id_col))
        domain = registered_domains(hosts)
        batch = batch.append_column("domain", domain)
        batch = batch.append_column("compress_milli", comp)
        batch = batch.append_column("dup_ngram_milli", rep)
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(comp, compress_band[0]),
                pc.less_equal(comp, compress_band[1]),
            ),
            pc.less_equal(rep, max_dup_ngram_milli),
        )
        return batch.filter(keep)

    curated = ds.map_batches(annotate_and_gate, batch_format="pyarrow")

    if blocklist:
        import ray

        blocked_ref = ray.put(pa.array(sorted(set(blocklist)), pa.string()))

        def drop_blocked(batch: pa.Table) -> pa.Table:
            bl = ray.get(blocked_ref)
            return batch.filter(
                pc.invert(
                    pc.fill_null(
                        pc.is_in(batch.column("domain"), value_set=bl), False
                    )
                )
            )

        curated = curated.map_batches(drop_blocked, batch_format="pyarrow")

    if cap is not None:
        curated = stratified_sample_keep(
            curated, key_col=stratify_col, id_col=id_col, cap=cap
        )
    return curated
