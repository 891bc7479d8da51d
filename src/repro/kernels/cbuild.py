"""Build machinery for the compiled kernel library.

Compiles ``c_src/kernels.c`` into a shared object on first use, caching by
a hash of (source, flags, compiler, platform) under ``<cache_root>/kernels``
(:func:`repro.config.cache_dir`; ``~/.cache/repro/kernels`` by default).
Mirrors the paper's build: ``-O3`` plus the host-ISA flag
(``-march=native``, their ``-xHost`` equivalent) so the compiler
auto-vectorises the scalar loops.

A library is named ``libreprokernels-<source tag>-<key>.so``; each
compile writes a temporary file of its own and renames it into place,
then removes the libraries of every other kernel source.

Build failures are remembered twice over: in-process (reported once,
callers fall back to the NumPy backend) and *persistently* via a failure
marker file keyed on (source, compiler set, platform) — so a box without
a working toolchain pays for the compile attempt once, not on every
import.  An explicit :func:`build_library` call (``repro kernels
build``) always retries for real and clears the marker on success.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from repro import config
from repro.errors import KernelError

_SRC = Path(__file__).parent / "c_src" / "kernels.c"

#: Flag sets tried in order; the first that compiles wins.
_FLAG_SETS = [
    ["-O3", "-march=native", "-fopenmp", "-fPIC", "-shared", "-std=c11"],
    ["-O3", "-march=native", "-fPIC", "-shared", "-std=c11"],
    ["-O3", "-fPIC", "-shared", "-std=c11"],
]


def _compilers() -> list[str]:
    env = os.environ.get("REPRO_CC")
    if env:
        return [env]
    return ["cc", "gcc", "clang"]


def _source_tag(source: bytes) -> str:
    return hashlib.sha256(source).hexdigest()[:12]


def _cache_key(cc: str, flags: list[str], source: bytes) -> str:
    h = hashlib.sha256()
    h.update(source)
    h.update(" ".join(flags).encode())
    h.update(cc.encode())
    h.update(sys.platform.encode())
    return h.hexdigest()[:16]


def failure_marker_path() -> Path:
    """Persistent compile-failure marker for the current toolchain.

    Keyed like the .so cache (source hash, compiler candidates,
    platform): editing the kernels, pointing ``REPRO_CC`` elsewhere, or
    installing on a new platform all invalidate the marker naturally.
    """
    h = hashlib.sha256()
    h.update(_SRC.read_bytes() if _SRC.exists() else b"")
    h.update(",".join(_compilers()).encode())
    h.update(sys.platform.encode())
    return Path(config.cache_dir()) / f"build-failed-{h.hexdigest()[:16]}.marker"


def build_library(verbose: bool = False) -> str:
    """Compile the kernel library if needed; return the .so path.

    Raises
    ------
    KernelError
        When no compiler/flag combination produces a loadable library.
    """
    if not _SRC.exists():  # pragma: no cover - packaging error
        raise KernelError(f"kernel source missing: {_SRC}")
    from repro.resilience import faults

    if faults.fire("kernel.build") is not None:
        _record_failure("fault injected: compiler unavailable")
        raise KernelError("fault injected: compiler unavailable")
    source = _SRC.read_bytes()
    cache = Path(config.cache_dir())
    cache.mkdir(parents=True, exist_ok=True)
    tag = _source_tag(source)

    errors: list[str] = []
    for cc in _compilers():
        for flags in _FLAG_SETS:
            key = _cache_key(cc, flags, source)
            out = cache / f"libreprokernels-{tag}-{key}.so"
            if out.exists():
                _clear_failure()
                return str(out)
            error = _compile(cc, flags, out)
            if error is None:
                _clear_failure()
                _prune_other_sources(cache, tag)
                if verbose:  # pragma: no cover - diagnostics
                    print(f"[repro.kernels] built {out} with {cc} {' '.join(flags)}")
                return str(out)
            errors.append(f"{cc} {' '.join(flags)}: {error}")
    message = (
        "could not compile kernel library; attempts:\n" + "\n".join(errors)
    )
    _record_failure(message)
    raise KernelError(message)


def _compile(cc: str, flags: list[str], out: Path) -> str | None:
    """Compile into *out* via a temporary file; None, else the error."""
    fd, tmp = tempfile.mkstemp(dir=out.parent, prefix=out.name, suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run([cc, *flags, str(_SRC), "-lm", "-o", tmp],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode == 0:
            os.replace(tmp, out)
            return None
        error = proc.stderr.strip()[:500]
    except (OSError, subprocess.TimeoutExpired) as exc:
        error = str(exc)
    with contextlib.suppress(OSError):
        os.unlink(tmp)
    return error


def _prune_other_sources(cache: Path, tag: str) -> None:
    """Remove the libraries of every kernel source but *tag*'s (a process
    that has one loaded keeps its mapping)."""
    for lib in cache.glob("libreprokernels-*.so"):
        if not lib.name.startswith(f"libreprokernels-{tag}-"):
            with contextlib.suppress(OSError):
                lib.unlink()


def _record_failure(message: str) -> None:
    """Write the persistent marker so later imports skip the compile."""
    with contextlib.suppress(OSError):
        marker = failure_marker_path()
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.write_text(message)


def _clear_failure() -> None:
    with contextlib.suppress(OSError):
        failure_marker_path().unlink()


_build_result: str | None = None
_build_failed = False


def library_path() -> str | None:
    """Cached :func:`build_library`; returns None after a failed build.

    A persistent failure marker (written by an earlier failed build, in
    this process or any previous one) short-circuits the compile attempt
    entirely: one warning, NumPy fallback, no compiler invocation.  Run
    ``repro kernels build`` (which calls :func:`build_library` directly)
    to retry for real after fixing the toolchain.
    """
    global _build_result, _build_failed
    if _build_failed:
        return None
    if _build_result is None:
        marker = failure_marker_path()
        if marker.is_file():
            from repro.obs import metrics as obs_metrics

            obs_metrics.counter(
                "kernel.build.marker_skips",
                "kernel builds skipped due to a persistent failure marker",
            ).inc()
            _build_failed = True
            warnings.warn(
                "repro C kernels unavailable (previous compile failed; "
                f"using NumPy backend). Retry with 'repro kernels build' "
                f"or delete {marker}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        try:
            _build_result = build_library()
        except KernelError as exc:
            _build_failed = True
            warnings.warn(
                f"repro C kernels unavailable, using NumPy backend: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
    return _build_result


def reset_cache_state() -> None:
    """Forget build success/failure (test hook)."""
    global _build_result, _build_failed
    _build_result = None
    _build_failed = False
