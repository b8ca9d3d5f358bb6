"""On-disk cache of sampled latency traces.

Sampling a trace is the expensive half of every measured figure, and the
traces are pure functions of ``(profile, n, rounds, round_length, seed)``
— so they are cached by a content hash of those parameters and reloaded
bit-identically on every later run.  Re-running ``python -m
repro.experiments`` (with ``--charts``, a new figure, or a different
analysis) then never re-simulates an unchanged cell.

Layout and invalidation
-----------------------

Each trace lives at ``<root>/<profile>/<sha256[:32]>.npy``.  The key is a
SHA-256 hash of the canonical parameter string, versioned twice over:
``trace:v2`` covers the trace *format*, and a ``sampler=`` field carries
:data:`repro.experiments.measurement.TRACE_SAMPLER_VERSION` so a change
to the sampler's draw order (e.g. the v2 move to per-link RNG
substreams) retires entries sampled by older code.  Changing *any*
parameter — including the root seed — changes the key, so stale entries
are never read, only orphaned.  Deleting the cache directory is always
safe.

Writes go through a temp file plus :func:`os.replace`, so concurrent
sweep workers racing on the same key are harmless: both compute the same
bytes and the rename is atomic.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from repro.experiments import measurement

#: Profiles the cache knows how to (re)sample, by name.
PROFILE_SAMPLERS = ("wan", "lan")


def _digest(blob: str) -> str:
    """The cache's canonical hash: sha256, truncated to 32 hex chars."""
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def content_key(kind: str, version: str, **params: object) -> str:
    """A content hash over a canonical ``kind:version:k=v:...`` blob.

    The same discipline as :func:`trace_key`, generalized: every
    parameter that could change the result is folded into the hash in
    sorted order (via ``repr``, so floats keep full precision), and a
    version field retires keys when the computation itself changes.
    The sweep service (:mod:`repro.service`) uses this for its in-flight
    dedup keys, so "the same request" means exactly what it means for
    cached traces: identical parameters, hence bit-identical results.
    """
    parts = ":".join(f"{k}={params[k]!r}" for k in sorted(params))
    return _digest(f"{kind}:{version}:{parts}")


def trace_key(
    profile: str, n: int, rounds: int, round_length: float, seed: int
) -> str:
    """Content hash identifying one trace's full parameter set."""
    blob = (
        f"trace:v2:sampler={measurement.TRACE_SAMPLER_VERSION}"
        f":{profile}:n={int(n)}:rounds={int(rounds)}"
        f":round_length={float(round_length)!r}:seed={int(seed)}"
    )
    return _digest(blob)


class TraceCache:
    """A directory of ``.npy`` traces keyed by :func:`trace_key`."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path(self, profile: str, key: str) -> Path:
        return self.root / profile / f"{key}.npy"

    def load(self, profile: str, key: str) -> Optional[np.ndarray]:
        """The cached trace, or ``None`` on a miss (never raises).

        A missing, truncated or zero-byte file is a miss: ``np.load``
        raises ``EOFError`` on an empty file, which must not abort the
        sweep any more than a corrupt header does."""
        path = self.path(profile, key)
        try:
            trace = np.load(path)
        except (OSError, ValueError, EOFError):
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def store(self, profile: str, key: str, trace: np.ndarray) -> None:
        """Atomically persist ``trace`` under ``key``."""
        path = self.path(profile, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                np.save(handle, trace)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def entries(self) -> int:
        """Number of traces currently on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.npy"))


#: The process-wide active cache; ``None`` means caching is off.
_active: Optional[TraceCache] = None


def activate(root: Path | str) -> TraceCache:
    """Install (and return) the process-wide cache rooted at ``root``."""
    global _active
    _active = TraceCache(root)
    return _active


def deactivate() -> None:
    """Turn caching off for this process."""
    global _active
    _active = None


def install(cache: Optional[TraceCache]) -> Optional[TraceCache]:
    """Install a :class:`TraceCache` *object* (or ``None``) process-wide.

    Unlike :func:`activate`, this preserves the object's hit/miss
    counters, so a scope that temporarily swaps caches (the serial sweep
    path with an explicit ``cache_root``) can restore the previous cache
    without resetting its statistics.  Returns the previously active
    cache so the caller can restore it later.
    """
    global _active
    previous = _active
    _active = cache
    return previous


def active_cache() -> Optional[TraceCache]:
    """The process-wide cache, if one is active."""
    return _active


def cached_trace(
    profile: str,
    n: int,
    rounds: int,
    round_length: float,
    seed: int,
    cache: Optional[TraceCache] = None,
) -> np.ndarray:
    """The trace for these parameters, from cache when possible.

    With no cache (neither ``cache`` nor an active process-wide one) this
    is exactly a call to the profile's sampler.  The sampler is looked up
    on :mod:`repro.experiments.measurement` at call time so test spies
    installed there observe (the absence of) re-simulation.
    """
    if profile not in PROFILE_SAMPLERS:
        raise KeyError(
            f"unknown trace profile {profile!r}; known: {PROFILE_SAMPLERS}"
        )
    sampler = getattr(measurement, f"sample_{profile}_trace")
    if cache is None:
        cache = _active
    if cache is None:
        return _validated_n(profile, sampler(rounds, round_length, seed), n)
    key = trace_key(profile, n, rounds, round_length, seed)
    trace = cache.load(profile, key)
    if trace is None:
        trace = _validated_n(profile, sampler(rounds, round_length, seed), n)
        cache.store(profile, key, trace)
    return _validated_n(profile, trace, n)


def _validated_n(profile: str, trace: np.ndarray, n: int) -> np.ndarray:
    """Reject an ``n`` the profile's sampler cannot honor.

    ``n`` is hashed into :func:`trace_key` but the profile samplers draw
    traces of their own fixed size (the paper's 8 nodes), so a mismatched
    ``n`` used to mint a *distinct* cache entry holding a trace of the
    wrong size — silently, since nothing downstream rechecked the shape.
    Raising here keeps the key's contract honest: every parameter in the
    hash is a parameter of the stored bytes.
    """
    if trace.shape[1] != int(n):
        raise ValueError(
            f"profile {profile!r} samples {trace.shape[1]}-node traces, "
            f"but n={n} was requested; the profile's node count is fixed"
        )
    return trace
