"""Outside-in benchmark of the fuzi_rd extraction engine (see run.py)."""
