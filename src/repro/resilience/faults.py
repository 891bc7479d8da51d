"""Deterministic, seedable fault injection for the CSCV pipeline.

Production failure modes — a corrupt cache entry, a disk that fills up
mid-store, a crashed pool worker, a kernel library that no longer loads,
a sinogram with a NaN — are rare enough in the lab that the code paths
handling them rot.  This module lets tests (and whole CI jobs) *inject*
those failures at named points so every degradation path runs on every
commit instead of for the first time in production.

Injection points
----------------
Call sites declare a point with :func:`fire` (raise-or-directive) or
:func:`corrupt_array` (input poisoning).  The wired points:

================================ =========================================
site                             actions understood by the call site
================================ =========================================
``cache.load.read``              ``corrupt`` (checksum-style failure),
                                 ``short-read`` (truncated array file)
``cache.store.write``            ``enospc`` (disk full while staging)
``cache.lock``                   ``timeout`` (stampede lock never freed)
``kernel.build``                 any action (compiler failure)
``kernel.load``                  ``missing`` (.so vanished), ``corrupt``
                                 (unloadable .so)
``pool.task.<subsystem>``        ``raise`` (worker crash); subsystems:
                                 ``pack``, ``trace``
``operator.input.<direction>``   ``nan`` / ``inf`` (poisoned operand);
                                 directions: ``forward``, ``adjoint``
``journal.append``               ``oserror`` / ``enospc`` (job-journal
                                 record cannot be written; the service
                                 degrades and keeps serving)
``journal.fsync``                ``oserror`` (fsync of a journal record
                                 fails after the write)
``ckpt.store``                   ``enospc`` / ``oserror`` (solver
                                 checkpoint persistence fails; the
                                 solve itself continues)
``serve.crash``                  ``exit`` (hard ``os._exit(137)`` from
                                 the solver event callback, right after
                                 a checkpoint boundary — models a
                                 kill -9 mid-iteration for the
                                 crash-recovery CI job)
================================ =========================================

Plans
-----
A plan is a comma-separated rule list.  Each rule is
``site-pattern:action[:opt]...`` where the pattern may use ``*``
wildcards (:mod:`fnmatch`) and the options bound *when* the rule fires:

* ``p=0.3``     — fire with probability 0.3 (seeded PRNG, deterministic);
* ``every=4``   — fire on every 4th match of this rule;
* ``times=2``   — fire at most twice, then the rule is exhausted;
* ``after=5``   — skip the first 5 matches.

A global ``seed=N`` entry seeds the PRNGs (default 0); every rule gets
an independent stream derived from the seed and its own index, so two
runs of the same workload under the same plan inject identically.

Plans come from ``REPRO_FAULTS`` (a raw rule list or a profile name from
:data:`PROFILES`), from :func:`configure`, or — scoped — from the
:func:`inject` context manager, which *replaces* the active plan so
tests stay hermetic under a CI-wide chaos profile.  :func:`disabled`
scopes a no-fault window (for clean baselines).

Every firing increments ``faults.injected.<site>`` in the metrics
registry, so injected failures are observable exactly like real ones.
"""

from __future__ import annotations

import contextlib
import errno
import fnmatch
import random
import threading
from dataclasses import dataclass, field

import numpy as np

from repro import config

#: Named rule sets selectable via ``REPRO_FAULTS=<profile>``.  ``chaos``
#: only includes faults whose recovery is bitwise-safe (cache rebuilds,
#: lock timeouts, pool degradation, journal/checkpoint persistence
#: failures — durability degrades, results don't), so a reconstruction
#: under it must equal the clean run exactly.  ``kernel-chaos`` adds
#: backend degradation, which changes the execution path (NumPy
#: fallback).
PROFILES = {
    "chaos": (
        "cache.load.read:corrupt:every=3,"
        "cache.store.write:enospc:every=4,"
        "cache.lock:timeout:every=3,"
        "pool.task.*:raise:every=5,"
        "journal.append:oserror:every=7,"
        "ckpt.store:enospc:every=3"
    ),
    "kernel-chaos": "kernel.build:fail,kernel.load:corrupt",
}


class FaultInjected(RuntimeError):
    """The exception raised for ``raise``-action injection points.

    Deliberately *not* a :class:`~repro.errors.ReproError`: an injected
    worker crash models an arbitrary bug, and resilience code must not
    get to special-case it.
    """


#: Actions that raise at the injection point instead of returning a
#: directive for the call site to act on.
_RAISING_ACTIONS = {
    "raise": lambda site: FaultInjected(f"fault injected at {site}"),
    "enospc": lambda site: OSError(
        errno.ENOSPC, f"fault injected at {site}: no space left on device"
    ),
    "oserror": lambda site: OSError(f"fault injected at {site}"),
    "eof": lambda site: EOFError(f"fault injected at {site}"),
}


@dataclass
class FaultRule:
    """One parsed plan rule; mutable state tracks fire bookkeeping."""

    pattern: str
    action: str
    p: float = 1.0
    every: int = 1
    times: int | None = None
    after: int = 0
    matches: int = 0
    fires: int = 0
    rng: random.Random = field(default_factory=random.Random)

    def should_fire(self) -> bool:
        self.matches += 1
        if self.times is not None and self.fires >= self.times:
            return False
        if self.matches <= self.after:
            return False
        if (self.matches - self.after) % self.every != 0:
            return False
        if self.p < 1.0 and self.rng.random() >= self.p:
            return False
        self.fires += 1
        return True


class FaultPlan:
    """A compiled set of rules plus the lock serialising their state."""

    def __init__(self, rules: list[FaultRule]):
        self.rules = rules
        self._lock = threading.Lock()

    def match(self, site: str) -> FaultRule | None:
        """First rule whose pattern matches *site* and which elects to
        fire (bookkeeping updated under the plan lock)."""
        if not self.rules:
            return None
        with self._lock:
            for rule in self.rules:
                if not _site_matches(rule.pattern, site):
                    continue
                if rule.should_fire():
                    return rule
                return None  # first matching rule owns the site
        return None


def _site_matches(pattern: str, site: str) -> bool:
    if pattern == site:
        return True
    return fnmatch.fnmatchcase(site, pattern)


def parse_plan(spec: str) -> FaultPlan:
    """Compile a plan string (or profile name) into a :class:`FaultPlan`.

    Raises
    ------
    ValueError
        On malformed rules, unknown options, or out-of-range values.
    """
    spec = (spec or "").strip()
    if not spec:
        return FaultPlan([])
    spec = PROFILES.get(spec, spec)
    seed = 0
    raw_rules: list[tuple[str, str, dict]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if part.startswith("seed="):
            seed = int(part[len("seed="):])
            continue
        pieces = part.split(":")
        if len(pieces) < 2:
            raise ValueError(
                f"fault rule {part!r} must look like site:action[:opt]..."
            )
        pattern, action, opts = pieces[0], pieces[1], {}
        for opt in pieces[2:]:
            if "=" not in opt:
                raise ValueError(f"fault option {opt!r} must be key=value")
            k, v = opt.split("=", 1)
            if k == "p":
                opts["p"] = float(v)
                if not (0.0 <= opts["p"] <= 1.0):
                    raise ValueError(f"fault p={v} outside [0, 1]")
            elif k in ("every", "times", "after"):
                opts[k] = int(v)
                if opts[k] < (1 if k == "every" else 0):
                    raise ValueError(f"fault {k}={v} out of range")
            else:
                raise ValueError(f"unknown fault option {k!r} in {part!r}")
        raw_rules.append((pattern, action, opts))
    rules = [
        FaultRule(
            pattern=pattern,
            action=action,
            rng=random.Random(f"{seed}:{idx}"),
            **opts,
        )
        for idx, (pattern, action, opts) in enumerate(raw_rules)
    ]
    return FaultPlan(rules)


# --------------------------------------------------------------------- #
# active plan (config-seeded, overridable, scopable)

_active: FaultPlan | None = None
_active_spec: str | None = None
_state_lock = threading.Lock()


def _plan() -> FaultPlan:
    """The active plan, rebuilt whenever ``config.runtime.faults`` moves."""
    global _active, _active_spec
    spec = config.runtime.faults
    if _active is None or spec != _active_spec:
        with _state_lock:
            if _active is None or spec != _active_spec:
                _active = parse_plan(spec)
                _active_spec = spec
    return _active


def configure(spec: str) -> None:
    """Install *spec* as the process plan (also updates the config)."""
    config.runtime.faults = spec
    _plan()


def reset() -> None:
    """Drop any configured plan (nothing fires until reconfigured)."""
    configure("")


def active_spec() -> str:
    """The plan string currently in force (after profile expansion)."""
    return PROFILES.get(config.runtime.faults, config.runtime.faults)


@contextlib.contextmanager
def inject(spec: str):
    """Scoped plan override: *replaces* the active plan, restores on exit.

    Replacement (not stacking) keeps tests deterministic even when a
    CI-wide ``REPRO_FAULTS`` profile is active around them.
    """
    prev = config.runtime.faults
    configure(spec)
    try:
        yield _plan()
    finally:
        configure(prev)


def disabled():
    """Scoped no-fault window (clean baselines inside chaos runs)."""
    return inject("")


# --------------------------------------------------------------------- #
# injection points

def _count(site: str, action: str) -> None:
    from repro.obs import metrics as obs_metrics

    obs_metrics.counter(
        f"faults.injected.{site}",
        "fault-injection firings by site (see repro.resilience.faults)",
    ).inc()
    obs_metrics.counter(
        "faults.injected.total", "total fault-injection firings"
    ).inc()


def fire(site: str, **ctx) -> str | None:
    """Evaluate injection point *site*; raise or return a directive.

    Returns ``None`` (the overwhelmingly common case — one dict lookup
    and a truthiness check when no plan is active), raises the mapped
    exception for raising actions, or returns the action string for the
    call site to interpret (``corrupt``, ``timeout``, ``missing``, ...).
    """
    plan = _plan()
    if not plan.rules:
        return None
    rule = plan.match(site)
    if rule is None:
        return None
    _count(site, rule.action)
    builder = _RAISING_ACTIONS.get(rule.action)
    if builder is not None:
        raise builder(site)
    return rule.action


def corrupt_array(site: str, arr: np.ndarray) -> np.ndarray:
    """Return *arr*, or a poisoned copy when a ``nan``/``inf`` rule fires.

    The poison lands in a deterministic position (element 0 of the
    flattened view) so repeated runs corrupt identically.
    """
    act = fire(site)
    if act is None:
        return arr
    if act not in ("nan", "inf"):
        return arr
    poisoned = np.array(arr, dtype=arr.dtype if np.issubdtype(
        np.asarray(arr).dtype, np.floating) else np.float64, copy=True)
    poisoned.reshape(-1)[0] = np.nan if act == "nan" else np.inf
    return poisoned
