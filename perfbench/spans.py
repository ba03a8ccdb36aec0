"""In-memory span tracer that wraps the simulator's layer entry points.

The benchmark records spans from its own files: :class:`Tracer` replaces
each entry point listed in :data:`ENTRY_POINTS` with a wrapper at class
or module level, records one span per call (name, start, end, parent)
into flat arrays, and restores the originals on :meth:`Tracer.uninstall`.
Nothing inside ``src/repro`` is edited.

A span's parent is the innermost span open when it started, so a layer's
*self* time is its spans' durations minus the time their child spans
cover (for example ``MemoryHierarchy.access`` minus the prefetcher calls
it makes).  Spans are written out once, at the end, by :meth:`dump`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: span name -> (module, attribute path) of the wrapped callable.  The
#: layer is the part of the span name before the first dot.
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "frontend.process_branch": ("repro.frontend.predictor",
                                "BranchUnit.process_branch"),
    "memory.access": ("repro.memory.hierarchy", "MemoryHierarchy.access"),
    "memory.icache_fetch": ("repro.memory.icache",
                            "InstructionCache.fetch_line"),
    "prefetch.standalone_observe": ("repro.prefetch.standalone",
                                    "StandalonePrefetcher.observe"),
    "prefetch.stride_train": ("repro.prefetch.stride",
                              "MultiStridePrefetcher.train"),
    "prefetch.sms_train_miss": ("repro.prefetch.sms",
                                "SmsPrefetcher.train_miss"),
    "prefetch.buddy_demand": ("repro.prefetch.buddy",
                              "BuddyPrefetcher.on_demand_access"),
    "core.scoreboard_run": ("repro.core.scoreboard", "Scoreboard.run"),
    "uop_cache.on_block": ("repro.uop_cache.modes", "UocController.on_block"),
    "traces.generate": ("repro.traces.spec", "TraceSpec.build"),
    "traces.compile": ("repro.traces.compiled", "compile_trace"),
    "engine.run_payloads": ("repro.engine.runner",
                            "PopulationEngine.run_payloads"),
    # One engine task; its self time (simulator construction, result
    # row) belongs to no layer below.
    "task.execute": ("repro.engine.tasks", "execute_task"),
    "engine.fingerprint": ("repro.engine.tasks", "task_fingerprint"),
    "engine.cache_get": ("repro.engine.cache", "TaskCache.get"),
    "engine.cache_put": ("repro.engine.cache", "TaskCache.put"),
    "engine.ctrace_store_get": ("repro.engine.cache",
                                "CompiledTraceStore.get"),
    "engine.ctrace_store_put": ("repro.engine.cache",
                                "CompiledTraceStore.put"),
    "observe.ledger_append": ("repro.observe.ledger", "append_record"),
    "serialization.archive": ("repro.serialization", "population_to_json"),
    "metrics.window": ("repro.metrics.windows", "WindowRecorder.take"),
}

#: Spans the benchmark itself opens: around set-up, and around each
#: timed region of a pass (one ``repro.run`` call of a sweep, one engine
#: call with its archive and ledger for a population).
BENCH_SPANS = ("bench.setup", "bench.timed")

_SPAN_MAGIC = b"PBSP"


class Tracer:
    """Records spans into parallel arrays: name id, parent index, start
    and end (``time.perf_counter`` seconds).  Parent ``-1`` is a root."""

    def __init__(self) -> None:
        self.names: List[str] = list(BENCH_SPANS) + list(ENTRY_POINTS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_ids = array("B")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = [-1]
        self._restore: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_ids)

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A ``with`` block recorded as one span (benchmark phases)."""
        idx = len(self.name_ids)
        self.name_ids.append(self._ids[name])
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name}: cannot time a generator function")
        name_id = self._ids[name]
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point.  A module-level function is replaced in
        its own module and in every loaded ``repro`` module that imported
        it by name, so ``from x import f`` call sites are traced too."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, (module_name, attr) in ENTRY_POINTS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original,
                            self._wrap(original, name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object,
               wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self, span: Optional[str] = None) -> Iterator[None]:
        """Entry points wrapped for the block (inside one ``span`` if
        given), restored afterwards."""
        self.install()
        try:
            if span is None:
                yield
            else:
                with self.span(span):
                    yield
        finally:
            self.uninstall()

    # -- analysis ---------------------------------------------------------

    def summarize(self, within: Optional[str] = "bench.timed"
                  ) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total`` and ``self`` seconds.

        With ``within`` set, only spans nested (at any depth) inside a
        span of that name count, so set-up work traced beside the timed
        passes stays out of the pass shares; the extra ``"wall"`` row is
        the summed duration of the ``within`` spans themselves.  With
        ``within=None`` every span counts.
        """
        n = len(self.name_ids)
        within_id = self._ids[within] if within is not None else -1
        names, parents = self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        child = array("d", bytes(8 * n))
        inside = bytearray(n)
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
                inside[i] = inside[p] or names[p] == within_id
        out: Dict[str, Dict[str, float]] = {
            name: {"count": 0, "total": 0.0, "self": 0.0}
            for name in self.names}
        wall = 0.0
        for i in range(n):
            dur = ends[i] - starts[i]
            if names[i] == within_id:
                wall += dur
            if within is not None and not inside[i]:
                continue
            row = out[self.names[names[i]]]
            row["count"] += 1
            row["total"] += dur
            row["self"] += dur - child[i]
        out["wall"] = {"count": 0, "total": wall, "self": wall}
        return out

    # -- output -----------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write every span: magic, one JSON header line (names, count,
        byte order), then the name-id, parent, start and end arrays."""
        header = {"names": self.names, "count": len(self.name_ids),
                  "byteorder": sys.byteorder,
                  "arrays": [["name_id", "B"], ["parent", "i"],
                             ["start", "d"], ["end", "d"]]}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            f.write(_SPAN_MAGIC)
            f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(f)


def load_spans(path: Path) -> Iterator[Tuple[str, int, float, float]]:
    """Read a :meth:`Tracer.dump` file back as ``(name, parent, start,
    end)`` tuples, in recording order."""
    data = Path(path).read_bytes()
    if not data.startswith(_SPAN_MAGIC):
        raise ValueError(f"{path}: not a span file")
    head_end = data.index(b"\n")
    header = json.loads(data[len(_SPAN_MAGIC):head_end])
    if header["byteorder"] != sys.byteorder:
        raise ValueError(f"{path}: written on a {header['byteorder']}"
                         "-endian host")
    n = header["count"]
    offset = head_end + 1
    columns = []
    for _name, code in header["arrays"]:
        arr = array(code)
        size = arr.itemsize * n
        arr.frombytes(data[offset:offset + size])
        offset += size
        columns.append(arr)
    names = header["names"]
    for name_id, parent, start, end in zip(*columns):
        yield names[name_id], parent, start, end

