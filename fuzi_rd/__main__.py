"""Job entry point: ``python -m fuzi_rd --input <pages.parquet dir> --out <dir>``.

This is the script a cluster run submits (``ray job submit -- python -m
fuzi_rd ...``).  On the driver box it initializes a local Ray session if
none exists (guarded — the round driver and tests own their own sessions).

Exit code 0 iff the fraction of error rows is within ``--max-error-rate``
(default 0: every row must extract cleanly) and all partition manifests
were written.  Re-running with ``--resume`` (default) skips
completed partitions; a crashed run leaves incomplete partitions
manifest-less and they are recomputed.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m fuzi_rd")
    ap.add_argument("--input", required=True, help="input parquet file/dir (url, html)")
    ap.add_argument("--out", required=True, help="output directory (partitioned parquet + _manifests)")
    ap.add_argument("--num-parts", type=int, default=256, help="url-hash partition count (stable across runs)")
    ap.add_argument("--batch-size", type=int, default=512)
    ap.add_argument("--recipe", default=None, help='JSON dict of named queries, e.g. {"h1": "css: h1", "n_links": "count(//a)"}')
    ap.add_argument("--no-resume", action="store_true", help="wipe the output dir and recompute everything")
    ap.add_argument("--max-error-rate", type=float, default=0.0, help="max tolerated fraction of error rows before exiting non-zero")
    ap.add_argument("--run-id", default="cli")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)

    from fuzi_rd.pipelines.extraction import run_extraction

    roll = run_extraction(
        args.input,
        args.out,
        recipe=json.loads(args.recipe) if args.recipe else None,
        batch_size=args.batch_size,
        num_parts=args.num_parts,
        resume=not args.no_resume,
        run_id=args.run_id,
    )
    print(json.dumps(roll))
    # a job over no rows commits no manifest, so its roll-up has no counters
    errors = roll.get("error_rows", 0)
    total = roll.get("ok_rows", 0) + errors
    err_rate = errors / total if total else 0.0
    return 0 if err_rate <= args.max_error_rate else 1


if __name__ == "__main__":
    sys.exit(main())
