"""Engine task payloads, fingerprints, and the worker entry point.

A *task* is a self-contained, picklable, JSON-able dict describing one
unit of simulation work.  Workers receive only the payload — traces are
shipped as ``(family, seed, n_instructions)`` specs and regenerated in
the worker (regeneration is deterministic and orders of magnitude cheaper
to transport than pickling tens of thousands of trace records).

Task kinds:

``"population"``
    One ``(generation config, trace spec)`` full-simulator run; the result
    dict is exactly the :class:`~repro.engine.results.SliceMetrics` field
    set.
``"ghist"``
    One Figure 1 measurement: conditional MPKI of a standalone SHP with a
    given GHIST hash range over one trace.
``"pipetrace"``
    One flight-recorded run: the same full-simulator pass as
    ``"population"`` but with a :class:`~repro.observe.TraceSink`
    attached; the result carries the serialized event stream.  Because
    events flow through the ordinary task machinery, the determinism
    tests can compare serial vs. worker event streams byte for byte.

The fingerprint of a task hashes its *entire* payload (full nested config
dict included) together with the package version and an engine schema
version, so any config field change, trace change, model release, or
result-format change invalidates cached entries by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Tuple

from .. import __version__
from ..config import GenerationConfig
from ..metrics.windows import DEFAULT_WINDOW_INSTRUCTIONS
from ..serialization import config_from_dict, config_to_dict
from ..traces.compiled import (CompiledTrace, compile_trace,
                               compiled_fingerprint)
from ..traces.spec import TraceSpec
from .cache import CompiledTraceStore

#: Bump when the result payload format or task semantics change.
#: History: 1 = flat scalar rows; 2 = schema-versioned rows carrying
#: per-window metric series (window_interval joined the payload);
#: 3 = configurable window counters joined the population payload and
#: the "pipetrace" task kind landed; 4 = default windows carry the
#: stall-bucket counters (result schema 3) and "pipetrace" accepts an
#: unbounded capture (``capacity=None``); 5 = the "warmup" task kind
#: landed (results are simulator checkpoint documents) and ``warmup``
#: joined the population payload.
ENGINE_SCHEMA_VERSION = 5


def population_task(config: GenerationConfig, spec: TraceSpec,
                    corunners: int = 0,
                    window_interval: int = DEFAULT_WINDOW_INSTRUCTIONS,
                    window_counters: Optional[Sequence[str]] = None,
                    warmup: int = 0,
                    ) -> Dict[str, Any]:
    """One full-simulator run.  With ``warmup`` > 0 the engine splits it
    into a cached warmup-prefix checkpoint (see :func:`warmup_task`) plus
    a measure phase resumed from that snapshot, shipped as the
    transport-only ``_warmup_state`` field; a payload without the field
    runs its whole trace.  Results are bit-identical either way — warmup
    only changes how the work is scheduled and cached.
    """
    if not 0 <= warmup < spec.n_instructions:
        raise ValueError(
            f"warmup must be in [0, {spec.n_instructions}) for this "
            f"trace, got {warmup}")
    return {
        "kind": "population",
        "config": config_to_dict(config),
        "trace": spec.to_dict(),
        "corunners": corunners,
        "window_interval": window_interval,
        "window_counters": (list(window_counters)
                            if window_counters is not None else None),
        "warmup": warmup,
    }


def warmup_task(config: GenerationConfig, spec: TraceSpec,
                corunners: int = 0,
                window_interval: int = DEFAULT_WINDOW_INSTRUCTIONS,
                window_counters: Optional[Sequence[str]] = None,
                warmup: int = 0,
                ) -> Dict[str, Any]:
    """Simulate the first ``warmup`` instructions and return the
    simulator checkpoint document — the snapshot measure phases resume
    from.  The window configuration rides along because the checkpoint
    carries the (partially filled) window recorder."""
    if not 0 < warmup < spec.n_instructions:
        raise ValueError(
            f"warmup must be in (0, {spec.n_instructions}) for this "
            f"trace, got {warmup}")
    return {
        "kind": "warmup",
        "config": config_to_dict(config),
        "trace": spec.to_dict(),
        "corunners": corunners,
        "window_interval": window_interval,
        "window_counters": (list(window_counters)
                            if window_counters is not None else None),
        "warmup": warmup,
    }


def pipetrace_task(config: GenerationConfig, spec: TraceSpec,
                   corunners: int = 0,
                   capacity: Optional[int] = 65536) -> Dict[str, Any]:
    """One flight-recorded simulator run (events in the result).

    ``capacity`` bounds the ring; ``None`` captures the complete stream
    (the mode chunked streaming and ``repro tracediff`` use — nothing
    is dropped no matter how long the trace is).
    """
    return {
        "kind": "pipetrace",
        "config": config_to_dict(config),
        "trace": spec.to_dict(),
        "corunners": corunners,
        "capacity": capacity,
    }


def ghist_task(spec: TraceSpec, ghist_bits: int, tables: int = 8,
               rows: int = 1024, phist_bits: int = 80) -> Dict[str, Any]:
    return {
        "kind": "ghist",
        "trace": spec.to_dict(),
        "ghist_bits": ghist_bits,
        "tables": tables,
        "rows": rows,
        "phist_bits": phist_bits,
    }


def task_fingerprint(payload: Dict[str, Any]) -> str:
    """Stable SHA-256 over the canonical JSON of (payload, versions).

    Top-level keys starting with ``_`` are transport-only (data shipped
    to the worker that is itself derived from the fingerprinted fields,
    e.g. a warmup checkpoint) and are excluded from the hash.
    """
    envelope = {
        "payload": {k: v for k, v in payload.items()
                    if not k.startswith("_")},
        "version": __version__,
        "schema": ENGINE_SCHEMA_VERSION,
    }
    text = json.dumps(envelope, sort_keys=True, default=list)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Worker-side trace-preparation accounting.  A fork-local counter dict
#: (sanctioned by simlint SIM012's ``worker_state_allow``): per-task
#: *deltas* ride the heartbeat channel back to the host (see
#: :func:`execute_task_heartbeat`), where ``EngineStats`` folds them
#: into ``phase_breakdown``/``trace_stats`` — the counters themselves
#: never touch a result payload.
_TRACE_STATS: Dict[str, float] = {
    "generate_seconds": 0.0,  # spec.build() wall time
    "compile_seconds": 0.0,   # compile_trace() wall time
    "generated": 0,           # traces materialized from specs
    "compiled": 0,            # compile passes performed
    "memo_hits": 0,           # in-process compiled-memo reuses
    "store_hits": 0,          # compiled-trace store loads
    "store_misses": 0,        # store lookups that fell through
}


def trace_stats_snapshot() -> Dict[str, float]:
    """A copy of this process's trace-preparation counters."""
    return dict(_TRACE_STATS)


#: Per-process memo of compiled traces — the thin LRU over
#: :class:`~repro.engine.cache.CompiledTraceStore`.  Tasks are submitted
#: trace-major (all generations of a trace adjacent), so one compiled
#: trace serves every generation of a population sweep on this worker.
_CTRACE_MEMO: "OrderedDict[Tuple[str, int, int], CompiledTrace]" = \
    OrderedDict()
_CTRACE_MEMO_CAP = 16


def _build_compiled(spec_dict: Dict[str, Any]) -> CompiledTrace:
    """Memo -> store -> generate+compile, cheapest source first."""
    spec = TraceSpec(**spec_dict)
    key = spec.key()
    compiled = _CTRACE_MEMO.get(key)
    if compiled is not None:
        _CTRACE_MEMO.move_to_end(key)
        _TRACE_STATS["memo_hits"] += 1
        return compiled
    store = CompiledTraceStore()
    fp = compiled_fingerprint(*key)
    compiled = store.get(fp)
    if compiled is not None and (len(compiled) != spec.n_instructions
                                 or compiled.family != spec.family):
        compiled = None  # fingerprint collision / foreign entry
    if compiled is not None:
        _TRACE_STATS["store_hits"] += 1
    else:
        _TRACE_STATS["store_misses"] += 1
        t0 = time.perf_counter()
        trace = spec.build()
        _TRACE_STATS["generate_seconds"] += time.perf_counter() - t0
        _TRACE_STATS["generated"] += 1
        t0 = time.perf_counter()
        compiled = compile_trace(trace)
        _TRACE_STATS["compile_seconds"] += time.perf_counter() - t0
        _TRACE_STATS["compiled"] += 1
        store.put(fp, compiled)
    _CTRACE_MEMO[key] = compiled
    while len(_CTRACE_MEMO) > _CTRACE_MEMO_CAP:
        _CTRACE_MEMO.popitem(last=False)
    return compiled


def _run_warmup_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    from ..core import GenerationSimulator

    config = config_from_dict(payload["config"])
    trace = _build_compiled(payload["trace"])
    sim = GenerationSimulator(config, corunners=payload.get("corunners", 0))
    sim.run(trace.slice(0, int(payload["warmup"])),
            window_interval=payload.get(
                "window_interval", DEFAULT_WINDOW_INSTRUCTIONS),
            window_counters=payload.get("window_counters"),
            finalize=False)
    return sim.save_state()


def _run_population_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    from ..core import GenerationSimulator
    from ..core.interval import estimate_from_simulation
    from .results import SliceMetrics

    config = config_from_dict(payload["config"])
    trace = _build_compiled(payload["trace"])
    sim = GenerationSimulator(config, corunners=payload.get("corunners", 0))
    counters = payload.get("window_counters")
    warmup = int(payload.get("warmup", 0) or 0)
    state = payload.get("_warmup_state")
    if warmup > 0 and state is not None:
        # Resume the measure phase from the warmup-prefix snapshot the
        # engine shipped as a transport field.  Without one the whole
        # trace runs uninterrupted — bit-identical by the warmup
        # contract, and no checkpoint is kept in this process.
        sim.restore(state)
        trace = trace.slice(warmup)
    r = sim.run(trace,
                window_interval=payload.get(
                    "window_interval", DEFAULT_WINDOW_INSTRUCTIONS),
                window_counters=counters)
    stack = estimate_from_simulation(r).cpi_stack
    row = SliceMetrics(
        trace_name=trace.name,
        family=trace.family,
        generation=config.name,
        ipc=r.ipc,
        mpki=r.mpki,
        average_load_latency=r.average_load_latency,
        bubbles_per_branch=r.branch.bubbles_per_branch,
        cpi_base=stack["base"],
        cpi_mispredict=stack["mispredict"],
        cpi_frontend=stack["frontend_bubbles"],
        cpi_memory=stack["memory"],
        windows=r.windows,
    )
    return row.to_dict()


def _run_ghist_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    from ..frontend.baselines import (ShpDirectionAdapter,
                                      measure_conditional_mpki)
    from ..frontend.shp import ScaledHashedPerceptron

    trace = _build_compiled(payload["trace"])
    shp = ShpDirectionAdapter(
        ScaledHashedPerceptron(payload["tables"], payload["rows"],
                               ghist_bits=payload["ghist_bits"],
                               phist_bits=payload["phist_bits"]))
    return {"conditional_mpki": measure_conditional_mpki(shp, trace)}


def _run_pipetrace_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    from ..core import GenerationSimulator
    from ..observe.sink import TraceSink

    config = config_from_dict(payload["config"])
    trace = _build_compiled(payload["trace"])
    sink = TraceSink(capacity=payload.get("capacity", 65536))
    sim = GenerationSimulator(config, corunners=payload.get("corunners", 0),
                              trace_sink=sink)
    r = sim.run(trace, window_interval=0)
    return {
        "generation": config.name,
        "trace_name": trace.name,
        "cycles": r.core.cycles,
        "ipc": r.ipc,
        "emitted": sink.emitted,
        "dropped": sink.dropped,
        "events": [e.to_dict() for e in r.events],
    }


_EXECUTORS = {
    "population": _run_population_task,
    "ghist": _run_ghist_task,
    "pipetrace": _run_pipetrace_task,
    "warmup": _run_warmup_task,
}


def task_label(payload: Dict[str, Any]) -> str:
    """Short human label for one payload (profiling reports)."""
    kind = payload.get("kind", "?")
    parts = [str(kind)]
    config = payload.get("config")
    if isinstance(config, dict) and config.get("name"):
        parts.append(str(config["name"]))
    spec = payload.get("trace")
    if isinstance(spec, dict):
        fam = spec.get("family", "?")
        parts.append(f"{fam}/s{spec.get('seed', '?')}"
                     f"x{spec.get('n_instructions', '?')}")
    if kind == "ghist":
        parts.append(f"ghist={payload.get('ghist_bits')}")
    if payload.get("warmup"):
        parts.append(f"warmup={payload['warmup']}")
    return " ".join(parts)


def task_instructions(payload: Dict[str, Any]) -> int:
    """Instructions one payload will simulate (telemetry throughput).

    A pure function of the payload — warmup tasks run the prefix,
    measure tasks with ``warmup`` run the remainder, everything else
    runs the full spec length.  Payloads without a trace spec count 0.
    """
    spec = payload.get("trace")
    if not isinstance(spec, dict):
        return 0
    n = int(spec.get("n_instructions", 0) or 0)
    warmup = int(payload.get("warmup", 0) or 0)
    if payload.get("kind") == "warmup":
        return min(n, warmup)
    return max(0, n - warmup)


def execute_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one task payload to completion (worker-process entry point)."""
    try:
        runner = _EXECUTORS[payload["kind"]]
    except KeyError:
        raise ValueError(f"unknown task kind {payload.get('kind')!r}")
    return runner(payload)


def execute_task_heartbeat(payload: Dict[str, Any]
                           ) -> Tuple[Dict[str, Any], float, int,
                                      Dict[str, float]]:
    """:func:`execute_task` plus the task's wall seconds, the executing
    pid and this task's trace-preparation stats delta.

    The ``(seconds, pid)`` pair is the worker-side half of an engine
    telemetry heartbeat (:mod:`repro.observe.telemetry`): it rides the
    ordinary result channel back to the host, which stamps arrival time
    and task context.  The fourth element is the delta of
    :data:`_TRACE_STATS` across the task (only changed keys) — the
    host folds it into ``EngineStats.trace_stats``/``phase_breakdown``.
    Everything travels *beside* the result, so cached result payloads
    stay bit-identical run to run.  Host-side profiling only —
    simulated timing comes exclusively from the payload.
    """
    before = trace_stats_snapshot()
    t0 = time.perf_counter()
    result = execute_task(payload)
    seconds = time.perf_counter() - t0
    after = trace_stats_snapshot()
    delta = {k: after[k] - before.get(k, 0)
             for k in after if after[k] != before.get(k, 0)}
    return result, seconds, os.getpid(), delta
