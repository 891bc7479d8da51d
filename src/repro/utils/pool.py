"""Process-wide worker pool for the cold operator build.

The cold build fans out once per view group (trace, coalesce and, for
CSCV, pack); spawning a fresh ``ThreadPoolExecutor`` per fan-out costs
more than the compute on small work items.
:class:`SharedPool` keeps one lazily-created executor and resizes it
against a config-driven ceiling:

* **grow** whenever a caller asks for more workers than the pool has;
* **shrink** (recreate smaller) when the config ceiling was lowered at
  runtime and the request fits under the new ceiling — so lowering e.g.
  ``config.runtime.build_workers`` actually releases the extra OS threads
  instead of fanning work over a stale oversized pool;
* **reuse** for explicit larger-than-ceiling requests that the current
  pool already covers (a caller passing ``workers=3`` against a pool of
  4 keeps the pool of 4).

The pool registers an ``atexit`` teardown.

:func:`run_resilient` is the fan-out entry point the build uses: it
degrades gracefully when a worker task crashes (retry once on the pool,
then run that task serially on the caller thread), so one bad worker —
real or injected via ``REPRO_FAULTS`` ``pool.task.*`` rules — costs
wall-clock, never correctness.
"""

from __future__ import annotations

import atexit
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor


class SharedPool:
    """A lazily-created, resizable, process-wide thread pool.

    Parameters
    ----------
    prefix : str
        ``thread_name_prefix`` for the executor's workers.
    ceiling : callable
        Returns the config-driven size ceiling (e.g.
        ``lambda: config.runtime.build_workers``); re-read on every
        :meth:`get` so runtime changes take effect immediately.
    """

    def __init__(self, prefix: str, ceiling: Callable[[], int]):
        self._prefix = prefix
        self._ceiling = ceiling
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._size = 0
        atexit.register(self.shutdown)

    @property
    def size(self) -> int:
        """Current pool width (0 when not yet created)."""
        return self._size

    def get(self, workers: int) -> ThreadPoolExecutor:
        """Executor with at least *workers* threads (bounded reuse)."""
        limit = int(self._ceiling())
        target = max(int(workers), limit)
        with self._lock:
            grow = self._pool is None or self._size < workers
            # the ceiling dropped below the pool width and this request
            # fits under it: recreate so the extra threads actually die
            shrink = (
                self._pool is not None
                and self._size > target
                and workers <= limit
            )
            if grow or shrink:
                if self._pool is not None:
                    self._pool.shutdown(wait=True)
                self._pool = ThreadPoolExecutor(
                    max_workers=target, thread_name_prefix=self._prefix
                )
                self._size = target
            return self._pool

    def shutdown(self) -> None:
        """Tear the pool down (atexit hook and test hook)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
                self._size = 0


def run_resilient(shared: SharedPool, fn, items, workers: int, *, label: str) -> list:
    """``[fn(item) for item in items]`` over the pool, degradation-hardened.

    Policy per item: run on the pool; on any exception retry once on the
    pool; on a second failure fall back to running that item serially on
    the caller thread.  The serial path calls *fn* directly (outside the
    ``pool.task.<label>`` injection point), so injected worker crashes
    always degrade to the serial result while a deterministic real bug
    still propagates from the serial run.

    Item order (and therefore any downstream reduction order) is
    preserved, so results are bitwise-identical to the fault-free run
    whenever *fn* is idempotent per item — which every repro fan-out
    (view-group traces and packs) guarantees.
    """
    from repro.obs import metrics as obs_metrics
    from repro.obs.trace import tracer
    from repro.resilience import faults

    site = f"pool.task.{label}"

    # Propagate the submitting span to the workers: without this every
    # span a worker opens becomes a root and the trace tree shatters.
    ctx = tracer.current_context() if tracer.enabled else None

    def wrapped(item):
        with tracer.attach(ctx):
            faults.fire(site)
            return fn(item)

    items = list(items)
    pool = shared.get(workers)
    futures = [pool.submit(wrapped, item) for item in items]
    out = []
    for item, future in zip(items, futures):
        try:
            out.append(future.result())
            continue
        except Exception:
            obs_metrics.counter(
                f"retry.{site}.attempts", "pool tasks retried after a crash"
            ).inc()
        try:
            out.append(pool.submit(wrapped, item).result())
            continue
        except Exception:
            obs_metrics.counter(
                f"retry.{site}.serial_fallbacks",
                "pool tasks degraded to serial execution after two crashes",
            ).inc()
        out.append(fn(item))
    return out


# The cold-build view-group pool (ceiling = config.runtime.build_workers),
# imported lazily at the call sites so `repro.config` stays import-light.


def _build_ceiling() -> int:
    from repro import config

    return config.runtime.build_workers


build_pool = SharedPool("repro-build", _build_ceiling)
