"""Workload inputs and timed passes.

Every input comes from the ``--seed`` argument: the benchmark draws its
own :class:`~repro.traces.spec.TraceSpec` lists here and never calls
``standard_suite_specs``, so a change to the standard population does
not change what the benchmark measures.

Slices are drawn *matched to a fixed profile*.  Each slot of a workload
has a reference slice drawn from a seed-independent stream.  The
``--seed`` stream then draws candidate slices of the same family, and
each slot takes a candidate whose :func:`signature` (IPC, branch MPKI
and load latency of a pilot run on M1) is within ``MATCH_TOLERANCE`` of
its reference's.  The families pick their footprint and branch mix from
their seed (``stream_like`` its stride, ``dense_branch`` its branch
behaviours), so a plain draw of a few slices lands in a different mix
on every seed and every end-to-end metric swings with the mix; matched
draws keep the mix fixed while every slice still comes from the seed.
Choosing inputs is the benchmark's own work: it runs once per run,
before set-up is timed, and pilot runs use neither the engine's caches
nor the ledger.

Every simulation starts with empty modelled caches (``warmup=0``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, ContextManager, Dict, List, Optional,
                    Sequence, Tuple)

import repro
from repro.config import GENERATION_ORDER, get_generation
from repro.core import GenerationSimulator
from repro.engine import PopulationEngine, clear_caches, population_task
from repro.engine import tasks as engine_tasks
from repro.engine.cache import CompiledTraceStore
from repro.engine.results import PopulationResult, SliceMetrics
from repro.observe import ledger as ledger_mod
from repro.traces import compiled as compiled_mod
from repro.traces.compiled import (CompiledTrace, compile_trace,
                                   compiled_fingerprint)
from repro.traces.spec import TraceSpec

#: The ten families of the standard suite, interleaved one slice each in
#: the population workloads (the order tasks are submitted in).
POPULATION_FAMILIES = (
    "loop_kernel", "specint_like", "btb_stress", "stream_like",
    "web_like", "dense_branch", "specfp_like", "pointer_chase",
    "mobile_like", "hard_random",
)

#: Largest relative signature difference accepted by
#: :func:`matched_specs`, and the most candidates drawn per slot.
MATCH_TOLERANCE = 0.12
MAX_DRAWS = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which slices, and how they are run (see
    ``README.md`` for why each exists)."""

    name: str
    #: (family, slices)
    mix: Tuple[Tuple[str, int], ...]
    #: µops per slice
    length: int
    #: "sweep" = serial ``repro.run`` loop; "population" = engine passes.
    kind: str
    #: population only: every pass starts from an empty cache root.
    cold: bool = False

    @property
    def simulates(self) -> bool:
        return self.kind == "sweep" or self.cold


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "frontend_sweep",
        (("btb_stress", 2), ("dense_branch", 4), ("loop_kernel", 1)), 2500,
        "sweep"),
    Workload(
        "memory_sweep",
        (("stream_like", 8), ("pointer_chase", 4)), 2500, "sweep"),
    Workload(
        "population_cold",
        tuple((family, 1) for family in POPULATION_FAMILIES), 2000,
        "population", cold=True),
    Workload(
        "population_warm",
        tuple((family, 1) for family in POPULATION_FAMILIES), 2000,
        "population"),
)}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def signature(compiled: CompiledTrace) -> Tuple[float, float, float]:
    """A pilot run of the slice on M1 alone: (IPC, branch MPKI, average
    load latency).  The other generations' statistics track M1's, so
    slices with equal pilots load every layer alike."""
    result = GenerationSimulator(get_generation("M1")).run(
        compiled, window_interval=0)
    return result.ipc, result.mpki, result.average_load_latency


def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Largest relative difference of two signatures (``b`` the target;
    a floor of 1 keeps near-zero MPKI and latency from dominating)."""
    return max(abs(x - y) / max(y, floor)
               for x, y, floor in zip(a, b, (0.0, 1.0, 1.0)))


def _draw(family: str, rng: random.Random, length: int
          ) -> Tuple[TraceSpec, Tuple[float, float, float]]:
    spec = TraceSpec(family, rng.randrange(1 << 30), length)
    return spec, signature(compile_trace(spec.build()))


def matched_specs(rng: random.Random, family: str, count: int,
                  length: int) -> List[TraceSpec]:
    """``count`` slices of ``family`` drawn from ``rng``, each matched to
    the signature of its slot's reference slice (module docstring).

    Candidates are drawn one at a time; each fills the open slot it is
    closest to, if within ``MATCH_TOLERANCE``.  After ``MAX_DRAWS`` per
    slot, each open slot takes its closest unused candidate."""
    reference = random.Random(f"reference:{family}:{length}")
    targets = [_draw(family, reference, length)[1] for _ in range(count)]
    chosen: List[Optional[TraceSpec]] = [None] * count
    pool: List[Tuple[TraceSpec, Tuple[float, float, float]]] = []
    for _ in range(MAX_DRAWS * count):
        if all(spec is not None for spec in chosen):
            break
        spec, sig = _draw(family, rng, length)
        open_slots = [i for i in range(count) if chosen[i] is None]
        slot = min(open_slots, key=lambda i: _distance(sig, targets[i]))
        if _distance(sig, targets[slot]) <= MATCH_TOLERANCE:
            chosen[slot] = spec
        else:
            pool.append((spec, sig))
    for i in range(count):
        if chosen[i] is None:
            best = min(pool, key=lambda c: _distance(c[1], targets[i]))
            pool.remove(best)
            chosen[i] = best[0]
    return [spec for spec in chosen if spec is not None]


def workload_specs(workload: Workload, seed: int) -> List[TraceSpec]:
    """The workload's slices for ``seed`` (same seed, same slices)."""
    # Keyed by the inputs, not the name: population_warm reads back
    # exactly the payloads population_cold simulates.
    rng = random.Random(repr((seed, workload.mix, workload.length)))
    return [spec for family, count in workload.mix
            for spec in matched_specs(rng, family, count, workload.length)]


def reset_process_memos() -> None:
    """Empty every in-process memo the engine keeps.

    ``clear_caches`` drops the population memo and the task memory tier;
    the per-process trace memos in :mod:`repro.engine.tasks` are cleared
    here too, so a cold pass run in this process, or in pool workers
    forked from it, really starts cold.  Memos that a later version of
    the engine no longer has are skipped.
    """
    clear_caches()
    for name in ("_CTRACE_MEMO", "_TRACE_MEMO", "_WARMUP_MEMO"):
        memo = getattr(engine_tasks, name, None)
        if memo is not None:
            memo.clear()


def use_cache_root(root: Path) -> None:
    """Point every cache tier (task cache, compiled-trace store, ledger)
    at ``root``; pool workers inherit it through the environment."""
    root.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(root)


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Registry counters behind the simulated end-to-end statistics.
SIM_COUNTERS = ("core.branch_mispredicts", "core.instructions",
                "mem.loads", "mem.load_latency_sum")


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    """One timed pass over all of a workload's tasks."""

    wall_s: float
    #: simulated µops delivered (cached results count for warm passes)
    uops: int
    #: host seconds per (slice, generation) task, by task label
    task_seconds: Dict[str, float]
    #: task label -> result digest
    digests: Dict[str, str]
    #: per task: (IPC, {counter in SIM_COUNTERS: value})
    sim: List[Tuple[float, Dict[str, float]]]
    #: tasks that raised
    errors: int = 0
    #: engine statistics (population passes only)
    stats: Optional[Any] = None
    #: trace-preparation counter deltas over the pass
    trace_stats: Optional[Dict[str, float]] = None


class SweepRunner:
    """Serial closed loop, one caller: ``repro.run(spec, gen)`` over every
    slice and generation, one simulation at a time."""

    def __init__(self, specs: Sequence[TraceSpec]) -> None:
        self.specs = list(specs)
        self.tasks = len(self.specs) * len(GENERATION_ORDER)

    def run_pass(self, timed: Callable[[], ContextManager] = nullcontext
                 ) -> PassResult:
        """One pass; ``timed`` wraps each timed simulation (the traced
        run's span)."""
        digests: Dict[str, str] = {}
        seconds: Dict[str, float] = {}
        sim: List[Tuple[float, Dict[str, float]]] = []
        uops = errors = 0
        before = engine_tasks.trace_stats_snapshot()
        for spec in self.specs:
            for gen in GENERATION_ORDER:
                label = f"{spec.family}/{spec.seed}/{gen}"
                try:
                    with timed():
                        t0 = time.perf_counter()
                        result = repro.run(spec, gen)
                        seconds[label] = time.perf_counter() - t0
                except Exception:  # counted, reported as a failure
                    traceback.print_exc()
                    errors += 1
                    continue
                uops += spec.n_instructions
                counters = result.metrics.as_dict()
                digests[label] = _digest(counters)
                sim.append((result.ipc,
                            {c: counters[c] for c in SIM_COUNTERS}))
        after = engine_tasks.trace_stats_snapshot()
        delta = {k: after[k] - before.get(k, 0) for k in after}
        # Host time is the simulations' own; digesting stays outside it.
        return PassResult(sum(seconds.values()), uops, seconds, digests,
                          sim, errors, trace_stats=delta)


def prepare_sweep(specs: Sequence[TraceSpec]) -> None:
    """Set-up of a sweep: generate and compile the slices and put them in
    the compiled-trace store of the current cache root, so the timed loop
    never generates a trace."""
    store = CompiledTraceStore()
    for spec in specs:
        # Through the module, so a traced run sees the compile.
        compiled = compiled_mod.compile_trace(spec.build())
        store.put(compiled_fingerprint(*spec.key()), compiled)


class PopulationRunner:
    """One population pass through :class:`PopulationEngine`, the way
    ``execute_population`` runs the standard suite: run the payloads,
    assemble the generation-major :class:`PopulationResult`, and append
    its ledger record (which serializes the archive)."""

    def __init__(self, specs: Sequence[TraceSpec], workers: int) -> None:
        self.specs = list(specs)
        self.configs = [get_generation(g) for g in GENERATION_ORDER]
        self.payloads = [population_task(config, spec)
                         for spec in self.specs for config in self.configs]
        self.tasks = len(self.payloads)
        self.workers = workers

    def run_pass(self, root: Path, workers: Optional[int] = None,
                 timed: Callable[[], ContextManager] = nullcontext
                 ) -> PassResult:
        """One pass in cache root ``root``; ``timed`` wraps the timed
        region (the traced run's span)."""
        reset_process_memos()
        use_cache_root(root)
        engine = PopulationEngine(
            workers=self.workers if workers is None else workers,
            cache="disk", cache_dir=root)
        try:
            with timed():
                t0 = time.perf_counter()
                rows, stats = engine.run_payloads(self.payloads)
                result = self._assemble(rows)
                self._ledger(result, stats, root)
                wall = time.perf_counter() - t0
        except Exception:  # the whole pass failed; counted per task
            traceback.print_exc()
            return PassResult(0.0, 0, {}, {}, [], errors=self.tasks)
        uops = sum(int(p["trace"]["n_instructions"]) for p in self.payloads)
        n_gens = len(self.configs)
        digests = {}
        sim = []
        for s, spec in enumerate(self.specs):
            for g, config in enumerate(self.configs):
                row = rows[s * n_gens + g]
                digests[f"{spec.family}/{spec.seed}/{config.name}"] = \
                    _digest(row)
                totals = {c: 0.0 for c in SIM_COUNTERS}
                for window in row["windows"]:
                    for c in SIM_COUNTERS:
                        totals[c] += window["values"][c]
                sim.append((row["ipc"], totals))
        if stats.executed:
            seconds = {t.label: t.seconds for t in stats.task_timings}
        else:  # warm: every task is a cache read inside one engine call
            seconds = {"cached": wall / self.tasks}
        return PassResult(wall, uops, seconds, digests, sim,
                          stats=stats, trace_stats=dict(stats.trace_stats))

    def _assemble(self, rows: Sequence[Dict[str, Any]]) -> PopulationResult:
        result = PopulationResult()
        n_gens = len(self.configs)
        for g in range(n_gens):
            for s in range(len(self.specs)):
                result.metrics.append(
                    SliceMetrics.from_dict(rows[s * n_gens + g]))
        return result

    def _ledger(self, result: PopulationResult, stats: Any,
                root: Path) -> None:
        record = ledger_mod.population_record(
            result, stats,
            params={"benchmark": "perfbench",
                    "specs": [s.to_dict() for s in self.specs],
                    "generations": list(GENERATION_ORDER), "warmup": 0},
            config_fingerprints={c.name: c.fingerprint()
                                 for c in self.configs},
            task_fingerprints=[engine_tasks.task_fingerprint(p)
                               for p in self.payloads])
        ledger_mod.append_record(record, cache_dir=root)

