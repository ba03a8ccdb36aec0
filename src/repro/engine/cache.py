"""On-disk + in-memory result cache for engine tasks.

Every engine task (one ``(generation config, trace spec)`` simulation,
one warmup-prefix checkpoint, or one Figure 1 predictor measurement) is
memoized under a stable fingerprint
of its full payload plus the model version (see
:func:`repro.engine.tasks.task_fingerprint`).  The cache has three modes:

``"off"``
    Never read or write; every task executes.
``"memory"``
    Process-local dict shared by all engines in this interpreter — the
    successor of the old ``harness.population._CACHE`` module global.
``"disk"``
    The memory tier plus a JSON file store under ``~/.cache/repro``
    (override with the ``REPRO_CACHE_DIR`` environment variable), so
    repeated CLI/bench invocations across processes reuse results.

Disk layout: ``<cache_dir>/tasks/<fp[:2]>/<fp>.json`` — one small JSON
payload per task, sharded by fingerprint prefix to keep directories flat.
Writes are atomic (temp file + ``os.replace``); unreadable entries are
treated as misses and deleted.  Invalidation is purely key-based: a new
package version, schema version, or any config/trace field change yields
a different fingerprint, and stale entries are simply never read again.

The cache root also hosts the **compiled-trace store**
(:class:`CompiledTraceStore`): binary :class:`~repro.traces.compiled
.CompiledTrace` blobs under ``<cache_dir>/ctraces/<fp[:2]>/<fp>.ctrace``,
keyed by :func:`~repro.traces.compiled.compiled_fingerprint` (spec
triple + compiled format version + package version), so workers load a
decoded trace instead of regenerating and re-decoding it.  Same write
discipline as the task tier — atomic writes, corrupt/truncated entries
deleted and treated as misses (the caller regenerates from the spec).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

CACHE_MODES = ("off", "memory", "disk")

#: Process-wide memory tier, shared across engine instances.
_MEMORY: Dict[str, Dict[str, Any]] = {}


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


def clear_caches() -> None:
    """Drop all in-memory engine results: the process-wide memory tier,
    which holds result rows and warmup checkpoints alike (tests;
    long-lived sessions).  The disk tier is untouched; see
    :func:`clear_disk`."""
    _MEMORY.clear()


def clear_disk(cache_dir: Optional[os.PathLike] = None) -> int:
    """Delete all on-disk task entries; returns the number removed."""
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    removed = 0
    task_root = root / "tasks"
    if not task_root.is_dir():
        return 0
    for path in task_root.glob("*/*.json"):
        try:
            path.unlink()
            removed += 1
        except OSError:  # pragma: no cover - racing deleters
            pass
    return removed


class TaskCache:
    """One engine run's view of the task cache (mode + hit counters)."""

    def __init__(self, mode: str = "memory",
                 cache_dir: Optional[os.PathLike] = None) -> None:
        if mode not in CACHE_MODES:
            raise ValueError(
                f"unknown cache mode {mode!r}; expected one of {CACHE_MODES}"
            )
        self.mode = mode
        self.cache_dir = (Path(cache_dir) if cache_dir is not None
                          else default_cache_dir())
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def _path(self, fingerprint: str) -> Path:
        return self.cache_dir / "tasks" / fingerprint[:2] / (
            fingerprint + ".json")

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        if self.mode == "off":
            return None
        hit = _MEMORY.get(fingerprint)
        if hit is not None:
            self.memory_hits += 1
            return dict(hit)
        if self.mode == "disk":
            path = self._path(fingerprint)
            try:
                with open(path, "r", encoding="utf-8") as f:
                    payload = json.load(f)
            except (OSError, ValueError):
                payload = None
                try:  # corrupt entry: drop it so it is rewritten
                    path.unlink()
                except OSError:
                    pass
            if isinstance(payload, dict):
                _MEMORY[fingerprint] = payload
                self.disk_hits += 1
                return dict(payload)
        self.misses += 1
        return None

    def put(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        if self.mode == "off":
            return
        _MEMORY[fingerprint] = dict(payload)
        if self.mode != "disk":
            return
        path = self._path(fingerprint)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    json.dump(payload, f, sort_keys=True)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):  # pragma: no cover - replace failed
                    os.unlink(tmp)
        except OSError:  # pragma: no cover - read-only cache dir etc.
            pass


# ---------------------------------------------------------------------------
# Compiled-trace store
# ---------------------------------------------------------------------------

#: Compiled-trace blobs live beside (never inside) the task tier.
CTRACE_DIRNAME = "ctraces"


class CompiledTraceStore:
    """On-disk store of decode-once compiled traces (see module doc).

    Unlike :class:`TaskCache` this tier has no memory mode of its own —
    the in-process layer is ``repro.engine.tasks._CTRACE_MEMO`` (a thin
    LRU over this store); the store's job is cross-process and
    cross-invocation reuse.  All IO failures degrade to misses: the
    caller always holds the spec and can regenerate.
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None) -> None:
        self.cache_dir = (Path(cache_dir) if cache_dir is not None
                          else default_cache_dir())
        self.hits = 0
        self.misses = 0

    def _path(self, fingerprint: str) -> Path:
        return self.cache_dir / CTRACE_DIRNAME / fingerprint[:2] / (
            fingerprint + ".ctrace")

    def get(self, fingerprint: str):
        """The stored :class:`~repro.traces.compiled.CompiledTrace`, or
        ``None``; corrupt/truncated entries are deleted on the way out
        so the caller's regeneration rewrites them."""
        from ..traces.compiled import CompiledTraceError, load_bytes

        path = self._path(fingerprint)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            compiled = load_bytes(data)
        except CompiledTraceError:
            try:  # corrupt entry: drop it so it is rewritten
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return compiled

    def put(self, fingerprint: str, compiled) -> None:
        """Atomically persist one compiled trace (best effort — an
        unwritable store must never fail a run)."""
        from ..traces.compiled import dump_bytes

        path = self._path(fingerprint)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(dump_bytes(compiled))
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):  # pragma: no cover - replace failed
                    os.unlink(tmp)
        except OSError:  # pragma: no cover - read-only cache dir etc.
            pass


def clear_ctrace_disk(cache_dir: Optional[os.PathLike] = None) -> int:
    """Delete all stored compiled traces; returns the number removed."""
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    removed = 0
    ctrace_root = root / CTRACE_DIRNAME
    if not ctrace_root.is_dir():
        return 0
    for path in ctrace_root.glob("*/*.ctrace"):
        try:
            path.unlink()
            removed += 1
        except OSError:  # pragma: no cover - racing deleters
            pass
    return removed
