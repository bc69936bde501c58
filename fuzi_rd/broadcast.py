"""Per-process broadcast state for Ray Data task UDFs.

A stage whose batches need a driver-built table (robots policies, LM
counts, centroids) ``ray.put``s it once and passes the ``ObjectRef`` in
``map_batches(fn_kwargs=...)``.  Each task calls :func:`resolve`, which
fetches the object and runs the optional build step once per worker
process; later tasks in that process reuse the result.  That is the work
an actor's ``__init__`` used to do, without a pool width to hand-size and
without an actor holding the CPU its read tasks need.

The cache key is the ref, ``build`` and plain hashable arguments.  A ref
that a task unpickles hashes and compares equal to the driver's, and a
module-level ``build`` unpickles as the same object, so the key hits in
every later task.  A closure unpickles as a new object in every task and
would never hit: ``build`` must be a module-level function.
"""

from __future__ import annotations

import functools


@functools.lru_cache(maxsize=8)
def resolve(ref, build=None, *args):
    """``build(ray.get(ref), *args)``, or the object itself when ``build``
    is None, computed once per worker process.  Bounded, so a long-lived
    worker lets go of finished stages' state."""
    import ray

    value = ray.get(ref)
    return value if build is None else build(value, *args)
