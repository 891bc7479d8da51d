"""Persistent content-addressed operator cache with zero-copy mmap loads.

Building a CT system matrix (projector sweep -> COO -> IOBLR -> CSCVE/VxG
packing) dominates end-to-end time, yet the result is a pure function of
(geometry, projector, dtype, CSCV parameters, format, kernel ABI).  The
paper amortises the conversion over thousands of SpMV iterations (Fig 7);
this module amortises it over *processes*: the first build persists the
format's arrays on disk, every later construction memory-maps them back
read-only in milliseconds, and any number of worker processes mapping the
same entry share one physical copy through the OS page cache.

Layout on disk (``REPRO_CACHE_DIR``, default ``~/.cache/repro``)::

    <root>/operators/
        entries/<key>/           one cache entry (atomic dir rename)
            entry.json           meta + per-file sha256 checksums
            <array>.npy          raw arrays, np.load(..., mmap_mode="r")
            stamp                mtime = last use (LRU eviction order)
        locks/<key>.lock         cross-process build stampede protection
        stats.json               lifetime hit/miss/eviction counters
        stats.lock               flock serialising stats.json updates

Keys are sha256 hashes over a canonical JSON encoding of every input the
arrays depend on, so *any* change — one geometry field, the projector,
the dtype, a CSCV parameter, the serialization schema, or the kernel ABI
version — lands in a different entry.  Integrity is belt-and-braces: the
per-format validation that :func:`repro.core.io.load_cscv` applies runs
on every load, plus (by default) a sha256 check of each array file; any
mismatch evicts the corrupt entry and falls back to a fresh build.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import config
from repro.errors import FormatError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience import faults
from repro.resilience.retry import backoff_delays
from repro.utils.durable import fsync_file, replace_durable, write_bytes_durable

try:
    import fcntl
except ImportError:  # no POSIX file locks: stats.json is serialised per process
    fcntl = None

#: bump when the entry layout (entry.json schema, file naming) changes
CACHE_SCHEMA = 1

#: serialises the read-modify-write of ``stats.json`` across threads
#: (``stats.lock`` serialises it across processes)
_STATS_LOCK = threading.Lock()

#: seconds a builder may hold the per-key lock before waiters give up and
#: build redundantly (safe: stores are atomic renames, last writer wins)
LOCK_TIMEOUT = float(os.environ.get("REPRO_CACHE_LOCK_TIMEOUT", "120"))

_ENTRY_JSON = "entry.json"
_STAMP = "stamp"

# np.load parses each .npy header with ast.literal_eval.  CPython 3.11
# keeps the AST conversion's recursion counter per interpreter, so a
# thread switch mid-parse (a GC finalizer can force one) lets two loading
# threads corrupt it: SystemError "AST constructor recursion depth
# mismatch".  Parsing is microseconds; the arrays stay memory-mapped.
_NPY_HEADER_LOCK = threading.Lock()


def _abi_version() -> int:
    from repro.kernels import KERNELS_ABI_VERSION

    return KERNELS_ABI_VERSION


def geometry_signature(geom) -> dict:
    """Canonical JSON-safe description of a geometry object.

    Uses the dataclass fields (every geometry in :mod:`repro.geometry` is
    a frozen dataclass), prefixed with the class name so two geometry
    types with coincidentally equal fields cannot collide.
    """
    import dataclasses

    if dataclasses.is_dataclass(geom):
        fields = {
            f.name: getattr(geom, f.name) for f in dataclasses.fields(geom)
        }
    else:  # out-of-tree geometry: fall back to its public dict
        fields = {
            k: v for k, v in sorted(vars(geom).items()) if not k.startswith("_")
        }
    safe = {}
    for k, v in fields.items():
        if isinstance(v, (bool, int, str)) or v is None:
            safe[k] = v
        elif isinstance(v, float):
            # hex round-trips exactly; repr could collapse distinct floats
            safe[k] = np.float64(v).hex()
        else:
            safe[k] = repr(v)
    return {"class": type(geom).__name__, "fields": safe}


def operator_key(
    *,
    geom,
    fmt: str,
    projector: str,
    dtype,
    params=None,
    reference_mode: str = "ioblr",
    kind: str = "operator",
    extra: dict | None = None,
) -> str:
    """Stable content hash identifying one cached operator build.

    Two processes (today or months apart) computing the key from the same
    inputs get the same hex string; changing any input — including the
    serialization schema or the kernel ABI version — changes it.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "abi": _abi_version(),
        "kind": kind,
        "geom": geometry_signature(geom),
        "format": fmt,
        "projector": projector,
        "dtype": str(np.dtype(dtype)),
        "params": list(params.as_tuple()) if params is not None else None,
        "reference_mode": reference_mode,
    }
    if extra:
        payload["extra"] = extra
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class EntryInfo:
    """One on-disk cache entry, as listed by ``repro cache ls``."""

    key: str
    path: Path
    kind: str
    format: str
    shape: tuple[int, int] | None
    nbytes: int
    created: float
    last_used: float


class OperatorCache:
    """Content-addressed store of built operators (and related results).

    Parameters default to the process configuration
    (:mod:`repro.config`); tests pass explicit values for hermeticity.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        *,
        max_bytes: int | None = None,
        verify: bool | None = None,
        enabled: bool | None = None,
    ):
        self.root = Path(root if root is not None else config.operator_cache_dir())
        self.max_bytes = (
            config.runtime.cache_max_bytes if max_bytes is None else int(max_bytes)
        )
        self.verify = config.runtime.cache_verify if verify is None else bool(verify)
        self.enabled = (
            config.runtime.cache_enabled if enabled is None else bool(enabled)
        )

    # ------------------------------------------------------------------ #
    # paths

    @property
    def entries_dir(self) -> Path:
        return self.root / "entries"

    def _entry_path(self, key: str) -> Path:
        return self.entries_dir / key

    def _lock_path(self, key: str) -> Path:
        return self.root / "locks" / f"{key}.lock"

    # ------------------------------------------------------------------ #
    # lifetime counters (advisory; survive across processes)

    def _bump(self, what: str, n: int = 1) -> None:
        obs_metrics.counter(
            f"cache.{what}", "persistent operator cache events"
        ).inc(n)
        stats_path = self.root / "stats.json"
        # serialised, or concurrent threads (serve workers) and processes
        # sharing the root overwrite each other's increments
        with _STATS_LOCK, self._stats_flock():
            try:
                stats = json.loads(stats_path.read_text())
            except (OSError, ValueError):
                stats = {}
            stats[what] = int(stats.get(what, 0)) + n
            try:
                write_bytes_durable(stats_path,
                                    json.dumps(stats).encode("utf-8"))
            except OSError:  # read-only cache dir: keep serving, drop the count
                pass

    @contextlib.contextmanager
    def _stats_flock(self):
        """Exclusive ``flock`` on ``<root>/stats.lock`` while held; a
        no-op without ``fcntl`` or on a read-only root (the stats write
        then fails and is dropped anyway)."""
        fd = None
        if fcntl is not None:
            with contextlib.suppress(OSError):
                self.root.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.root / "stats.lock", os.O_CREAT | os.O_RDWR, 0o644)
                fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            if fd is not None:
                os.close(fd)  # releases the lock

    def lifetime_stats(self) -> dict:
        """Hit/miss/eviction counters accumulated across all processes."""
        try:
            return json.loads((self.root / "stats.json").read_text())
        except (OSError, ValueError):
            return {}

    # ------------------------------------------------------------------ #
    # store / load

    def store(self, key: str, fmt, *, note: dict | None = None) -> Path | None:
        """Persist *fmt* (via its ``cache_state`` hook) under *key*.

        Returns the entry path, or ``None`` when the cache is disabled.
        The entry directory is staged fully (arrays + checksums +
        ``entry.json``) and renamed into place in one ``os.replace``.
        """
        if not self.enabled:
            return None
        meta, arrays = fmt.cache_state()
        with span("cache.store", key=key, format=fmt.name):
            path = self._entry_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = Path(
                tempfile.mkdtemp(prefix=key + ".", suffix=".tmp", dir=path.parent)
            )
            try:
                files = {}
                for name, arr in arrays.items():
                    f = tmp / f"{name}.npy"
                    faults.fire("cache.store.write", key=key, file=name)
                    np.save(f, np.ascontiguousarray(arr))
                    files[name] = {
                        "sha256": _sha256_file(f),
                        "nbytes": f.stat().st_size,
                    }
                entry = {
                    "schema": CACHE_SCHEMA,
                    "key": key,
                    "abi": _abi_version(),
                    "format": fmt.name,
                    "class": type(fmt).__name__,
                    "kind": meta.get("kind", "unknown"),
                    "meta": meta,
                    "shape": [int(fmt.shape[0]), int(fmt.shape[1])],
                    "dtype": str(fmt.dtype),
                    "nnz": int(fmt.nnz),
                    "created": time.time(),
                    "note": note or {},
                    "files": files,
                }
                (tmp / _ENTRY_JSON).write_text(json.dumps(entry, indent=1))
                (tmp / _STAMP).touch()
                for staged in tmp.iterdir():
                    fsync_file(staged)
                if path.exists():
                    shutil.rmtree(path)
                replace_durable(tmp, path)
            except BaseException:
                shutil.rmtree(tmp, ignore_errors=True)
                raise
        self._bump("stores")
        self.prune(protect={key})
        return path

    def load(self, key: str, cls, *, threads=None, count_miss: bool = True):
        """Reconstruct a format from entry *key*, or ``None`` on miss.

        Arrays come back memory-mapped read-only.  Corrupt entries (bad
        checksum, failed validation, unreadable files) are evicted and
        reported as a miss so the caller rebuilds.
        """
        if not self.enabled:
            return None
        path = self._entry_path(key)
        if not (path / _ENTRY_JSON).is_file():
            if count_miss:
                self._bump("misses")
            return None
        with span("cache.load", key=key):
            try:
                directive = faults.fire("cache.load.read", key=key)
                if directive == "corrupt":
                    raise FormatError(f"fault injected: corrupt entry {key}")
                if directive == "short-read":
                    raise EOFError(f"fault injected: truncated entry {key}")
                entry = json.loads((path / _ENTRY_JSON).read_text())
                if entry.get("schema") != CACHE_SCHEMA:
                    raise FormatError(
                        f"cache entry schema {entry.get('schema')} != "
                        f"{CACHE_SCHEMA}"
                    )
                arrays = {}
                for name, info in entry["files"].items():
                    f = path / f"{name}.npy"
                    if self.verify and _sha256_file(f) != info["sha256"]:
                        raise FormatError(f"checksum mismatch in {f.name}")
                    with _NPY_HEADER_LOCK:
                        arrays[name] = np.load(f, mmap_mode="r")
                fmt = cls.from_cache_state(entry["meta"], arrays, threads=threads)
            except (OSError, ValueError, KeyError, EOFError, FormatError):
                # corrupt, truncated or unreadable: evict, caller rebuilds
                # (EOFError: np.load raises it on a short .npy body)
                self._bump("corrupt")
                self.evict(key)
                if count_miss:
                    self._bump("misses")
                return None
        with contextlib.suppress(OSError):
            (path / _STAMP).touch()
        self._bump("hits")
        return fmt

    def get_or_build(self, key: str, cls, builder, *, threads=None):
        """Load *key*, or build (stampede-protected), store and return.

        Returns ``(fmt, cached)`` where *cached* says whether the result
        came off disk.  With the cache disabled this is just
        ``(builder(), False)``.
        """
        if not self.enabled:
            return builder(), False
        fmt = self.load(key, cls, threads=threads)
        if fmt is not None:
            return fmt, True
        with self._lock(key):
            # another process may have built while we waited on the lock
            fmt = self.load(key, cls, threads=threads, count_miss=False)
            if fmt is not None:
                return fmt, True
            with span("cache.build", key=key):
                built = builder()
            try:
                self.store(key, built)
            except OSError:
                # disk full / unwritable cache: serve the fresh build and
                # keep going — persistence is an optimisation, not a need
                self._bump("store_errors")
        return built, False

    # ------------------------------------------------------------------ #
    # JSON payloads (autotune results ride in the same store)

    def store_json(self, key: str, payload: dict) -> Path | None:
        """Persist a small JSON payload (e.g. an autotune result)."""
        if not self.enabled:
            return None
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(
            tempfile.mkdtemp(prefix=key + ".", suffix=".tmp", dir=path.parent)
        )
        try:
            entry = {
                "schema": CACHE_SCHEMA,
                "key": key,
                "kind": "json",
                "format": "",
                "created": time.time(),
                "payload": payload,
                "files": {},
            }
            (tmp / _ENTRY_JSON).write_text(json.dumps(entry, indent=1))
            (tmp / _STAMP).touch()
            for staged in tmp.iterdir():
                fsync_file(staged)
            if path.exists():
                shutil.rmtree(path)
            replace_durable(tmp, path)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self._bump("stores")
        return path

    def load_json(self, key: str) -> dict | None:
        """Fetch a JSON payload stored by :meth:`store_json`."""
        if not self.enabled:
            return None
        path = self._entry_path(key)
        if not (path / _ENTRY_JSON).is_file():
            self._bump("misses")
            return None
        try:
            entry = json.loads((path / _ENTRY_JSON).read_text())
            if entry.get("schema") != CACHE_SCHEMA or entry.get("kind") != "json":
                raise ValueError("wrong schema/kind")
            payload = entry["payload"]
        except (OSError, ValueError, KeyError):
            self._bump("corrupt")
            self.evict(key)
            self._bump("misses")
            return None
        with contextlib.suppress(OSError):
            (path / _STAMP).touch()
        self._bump("hits")
        return payload

    # ------------------------------------------------------------------ #
    # inventory / eviction

    def entries(self) -> list[EntryInfo]:
        """All entries, least-recently-used first."""
        out = []
        if not self.entries_dir.is_dir():
            return out
        for path in sorted(self.entries_dir.iterdir()):
            ej = path / _ENTRY_JSON
            if not ej.is_file():
                continue
            try:
                entry = json.loads(ej.read_text())
            except (OSError, ValueError):
                continue
            nbytes = sum(
                f.stat().st_size for f in path.iterdir() if f.is_file()
            )
            stamp = path / _STAMP
            last = stamp.stat().st_mtime if stamp.exists() else 0.0
            shape = entry.get("shape")
            out.append(
                EntryInfo(
                    key=path.name,
                    path=path,
                    kind=entry.get("kind", "?"),
                    format=entry.get("format", ""),
                    shape=tuple(shape) if shape else None,
                    nbytes=nbytes,
                    created=float(entry.get("created", 0.0)),
                    last_used=last,
                )
            )
        out.sort(key=lambda e: e.last_used)
        return out

    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self.entries())

    def evict(self, key: str) -> bool:
        """Remove one entry; returns True when something was deleted."""
        path = self._entry_path(key)
        if not path.exists():
            return False
        shutil.rmtree(path, ignore_errors=True)
        self._bump("evictions")
        return True

    def prune(self, *, protect: set[str] | None = None) -> list[str]:
        """Evict LRU entries until the cache fits ``max_bytes``.

        Entries named in *protect* (typically the one just stored) are
        kept even when the budget is exceeded, so a store can never evict
        its own result.
        """
        protect = protect or set()
        entries = self.entries()
        total = sum(e.nbytes for e in entries)
        evicted: list[str] = []
        for e in entries:
            if total <= self.max_bytes:
                break
            if e.key in protect:
                continue
            if self.evict(e.key):
                evicted.append(e.key)
                total -= e.nbytes
        obs_metrics.gauge(
            "cache.bytes", "total bytes stored in the operator cache"
        ).set(float(total))
        return evicted

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        for e in self.entries():
            if self.evict(e.key):
                n += 1
        return n

    def stats(self) -> dict:
        """Summary used by ``repro cache info`` and ``repro info``."""
        entries = self.entries()
        life = self.lifetime_stats()
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "entries": len(entries),
            "bytes": sum(e.nbytes for e in entries),
            "max_bytes": self.max_bytes,
            "verify": self.verify,
            "hits": int(life.get("hits", 0)),
            "misses": int(life.get("misses", 0)),
            "stores": int(life.get("stores", 0)),
            "evictions": int(life.get("evictions", 0)),
            "corrupt": int(life.get("corrupt", 0)),
        }

    # ------------------------------------------------------------------ #
    # cross-process stampede protection

    @contextlib.contextmanager
    def _lock(self, key: str, timeout: float | None = None):
        """Exclusive per-key build lock (lockfile + polling + staleness).

        If the lock cannot be acquired within *timeout* seconds — or a
        ``cache.lock:timeout`` fault fires — the caller proceeds
        unlocked: a redundant build is wasteful but correct, because
        stores are atomic renames.  Waiters poll with capped exponential
        backoff plus pid-seeded jitter so a stampede of processes
        contending for one key decorrelates instead of thundering in
        lockstep.
        """
        timeout = LOCK_TIMEOUT if timeout is None else timeout
        path = self._lock_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + timeout
        delays = backoff_delays(base=0.01, cap=min(0.5, max(timeout / 4, 0.01)))
        acquired = False
        if faults.fire("cache.lock", key=key) == "timeout":
            obs_metrics.counter(
                "cache.lock_timeouts",
                "cache build locks that timed out (redundant build)",
            ).inc()
        else:
            while True:
                try:
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                    os.write(fd, str(os.getpid()).encode())
                    os.close(fd)
                    acquired = True
                    break
                except FileExistsError:
                    with contextlib.suppress(OSError):
                        if time.time() - path.stat().st_mtime > timeout:
                            # holder died: break the stale lock and retry
                            path.unlink()
                            continue
                    if time.monotonic() >= deadline:
                        obs_metrics.counter(
                            "cache.lock_timeouts",
                            "cache build locks that timed out (redundant build)",
                        ).inc()
                        break
                    time.sleep(min(next(delays), max(deadline - time.monotonic(), 0.0)))
        try:
            yield
        finally:
            if acquired:
                with contextlib.suppress(OSError):
                    path.unlink()


def default_cache() -> OperatorCache:
    """An :class:`OperatorCache` bound to the process configuration.

    Constructed fresh on every call (construction does no I/O), so
    changes to ``repro.config.runtime`` or the environment take effect
    immediately — important for tests and long-lived services.
    """
    return OperatorCache()
