"""Run the benchmark: ``python3 perfbench/run.py --workload NAME``.

Runs one workload (or ``--workload all``, each in its own process),
checks every simulated result against the first pass, and prints each
metric by name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Exits 1 when a result does not
match, 2 when the checkout has no ``src/repro`` to measure.

See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-run cache roots (deleted at
#: exit) and ``out/`` (results, span files).
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("frontend_sweep", "memory_sweep", "population_cold",
                  "population_warm")

#: Set-up runs per measurement; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed passes per run: two, so every task is checked against
#: the first pass at least once.  Warm passes are ~0.05 s each, so fifty
#: always fit and give the tail percentile fifty samples.
MIN_PASSES = {"frontend_sweep": 2, "memory_sweep": 2,
              "population_cold": 2, "population_warm": 50}
#: Fewest untraced and traced passes in a traced run: three, so the
#: tracing overhead is a median, not one pass.
TRACE_MIN_PASSES = 3
#: ``run_s_tail`` is the highest percentile with at least this many
#: samples beyond it.
TAIL_SAMPLES = 10
#: Environment switches that change what the engine does; the benchmark
#: measures the defaults.
_ENGINE_ENV = ("REPRO_FAST", "REPRO_TRACE_STORE", "REPRO_LEDGER",
               "REPRO_CACHE_DIR")


def calibrate(repeats: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop: host context, so runs
    on different hosts compare as ratios.  Not a benchmark metric."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFF
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail_percentile(n_min: int) -> int:
    """Highest whole percentile whose nearest-rank sample still has
    ``TAIL_SAMPLES`` samples beyond it in ``n_min`` samples.  Fixed per
    workload from the samples every run is guaranteed, so the same
    percentile is reported whatever the number of passes."""
    return max(0, math.floor(100 * (n_min - TAIL_SAMPLES) / n_min))


def percentile(values: List[float], pct: int) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Larger ``ru_maxrss`` of this process and its waited-for children
    (kilobytes on Linux)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(spec: Dict[str, Any]) -> Dict[str, Dict[str, str]]:
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

class Checker:
    """Checks each pass as it completes: a task fails if it raised or if
    its digest differs from the first pass's digest of the same task.
    Later passes drop their digests and statistics once checked, so a
    long run's memory does not grow with its pass count."""

    def __init__(self) -> None:
        self.reference: Optional[Dict[str, str]] = None
        self.attempted = 0
        self.failed = 0

    def __call__(self, result: Any, tasks: int) -> None:
        self.attempted += tasks
        self.failed += result.errors
        if self.reference is None:
            self.reference = result.digests
            return
        self.failed += sum(
            1 for label, digest in result.digests.items()
            if label in self.reference and self.reference[label] != digest)
        result.digests = {}
        result.sim = []


def run_passes(do_pass: Callable[[], Any], check: Callable[[Any], None],
               budget: float, min_passes: int) -> List[Any]:
    """Closed loop: whole passes until ``budget`` seconds have gone by
    and at least ``min_passes`` have run; each is checked on arrival."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < budget:
        result = do_pass()
        check(result)
        passes.append(result)
    return passes


def measure(name: str, seed: int, seconds: float, trace: bool,
            import_s: float) -> Dict[str, Any]:
    from spans import Tracer
    import workloads as wmod

    wl = wmod.WORKLOADS[name]
    # The traced population run is serial so every span stays in this
    # process; untraced population passes use one worker per CPU.
    workers = 1 if trace else (os.cpu_count() or 1)
    tracer = Tracer()
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK / "tmp"))
    try:
        specs = wmod.workload_specs(wl, seed)
        setup_times = []
        fill = None
        for rep in range(1 if trace else SETUP_REPEATS):
            root = tmp / f"setup{rep}"
            t0 = time.perf_counter()
            with tracer.active("bench.setup") if trace else nullcontext():
                runner, fill = _setup(wmod, wl, specs, root, workers)
            setup_times.append(time.perf_counter() - t0)
        setup_root = root
        pass_ids = itertools.count()

        timed = nullcontext

        def do_pass(pass_workers: Optional[int] = None):
            if wl.kind == "sweep":
                return runner.run_pass(timed)
            root = (tmp / f"pass{next(pass_ids)}" if wl.cold
                    else setup_root)
            return runner.run_pass(root, pass_workers, timed)

        min_passes = MIN_PASSES[name]
        checker = Checker()

        def check(result) -> None:
            checker(result, runner.tasks)

        out: Dict[str, Any] = {"workload": name, "seed": seed,
                               "workers": workers, "trace": int(trace)}
        if trace:
            untraced = run_passes(do_pass, check, seconds / 2,
                                  TRACE_MIN_PASSES)
            timed = functools.partial(tracer.span, "bench.timed")
            with tracer.active():
                traced = run_passes(do_pass, check, seconds / 2,
                                    TRACE_MIN_PASSES)
            passes = untraced + traced
            out["layers"] = layer_metrics(wl, tracer, untraced, traced,
                                          fill)
            WORK.joinpath("out").mkdir(parents=True, exist_ok=True)
            span_path = WORK / "out" / f"spans-{name}-seed{seed}.bin"
            tracer.dump(span_path)
            out["span_file"] = str(span_path.relative_to(ROOT))
            out["spans"] = len(tracer)
        else:
            passes = run_passes(do_pass, check, seconds, min_passes)
            # A warm pass yields one timing sample; the others one per task.
            per_pass = runner.tasks if wl.simulates else 1
            out.update(end_to_end(wl, passes, min_passes * per_pass,
                                  setup_times, import_s))
            if wl.cold:
                # The same payloads once more, serially in this process:
                # sharding must not change a single result.
                check(do_pass(1))
        out["pass_wall_s"] = [p.wall_s for p in passes]
        out["passes"] = len(passes)
        out["tasks_per_pass"] = runner.tasks
        out["attempted"] = checker.attempted
        out["failed"] = checker.failed
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _setup(wmod, wl, specs, root: Path, workers: int):
    """Everything the simulator needs before the first timed pass: for
    sweeps, generate the slices and compile them into the store; for
    populations, build the payloads, and for the warm population fill
    the cache."""
    wmod.reset_process_memos()
    wmod.use_cache_root(root)
    if wl.kind == "sweep":
        wmod.prepare_sweep(specs)
        return wmod.SweepRunner(specs), None
    runner = wmod.PopulationRunner(specs, workers)
    fill = None
    if not wl.cold:
        fill = runner.run_pass(root)
        if fill.errors:
            raise RuntimeError("population_warm: cache fill failed")
    return runner, fill


def kips(wl, passes: List[Any]) -> float:
    """Simulated kilo-µops per host second.  A sweep is one caller, so
    each task's host time is its median over the passes and the pass
    throughput is computed from those; a population pass runs tasks in
    parallel, so its throughput is µops over pass wall time, and the
    median is taken over passes."""
    if wl.kind == "sweep":
        labels = passes[0].task_seconds
        busy = sum(statistics.median(p.task_seconds[label] for p in passes
                                     if label in p.task_seconds)
                   for label in labels)
        return passes[0].uops / 1000.0 / busy
    return statistics.median(p.uops / 1000.0 / p.wall_s for p in passes)


def end_to_end(wl, passes: List[Any], min_samples: int,
               setup_times: List[float], import_s: float) -> Dict[str, Any]:
    samples = [s for p in passes for s in p.task_seconds.values()]
    pct = tail_percentile(min_samples)
    sim = passes[0].sim
    if not sim:
        raise RuntimeError("the first pass produced no results")
    totals = {c: sum(counters[c] for _, counters in sim)
              for c in sim[0][1]}
    return {
        "metrics": {
            "kips": kips(wl, passes),
            "run_s_p50": statistics.median(samples),
            "run_s_tail": percentile(samples, pct),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "sim_ipc_geomean": statistics.geometric_mean(
                ipc for ipc, _ in sim),
            "sim_branch_mpki": (1000.0 * totals["core.branch_mispredicts"]
                                / totals["core.instructions"]),
            "sim_load_latency_cyc": (totals["mem.load_latency_sum"]
                                     / totals["mem.loads"]),
        },
        "tail_percentile": pct,
        "tail_samples": len(samples),
        "setup_runs_s": setup_times,
        "import_s": import_s,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced passes
# ---------------------------------------------------------------------------

PREFETCH_SPANS = ("prefetch.standalone_observe", "prefetch.stride_train",
                  "prefetch.sms_train_miss", "prefetch.buddy_demand")
LAYERS = ("frontend", "memory", "prefetch", "core", "uop_cache", "traces",
          "engine", "observe", "serialization", "metrics")


def layer_metrics(wl, tracer, untraced: List[Any], traced: List[Any],
                  fill: Optional[Any]) -> Dict[str, float]:
    """Shares are layer self time over the traced timed regions.
    Per-event costs and counts cover everything traced — set-up too, so
    work that only set-up does (trace generation for the sweeps, the
    warm population's cache fill) still gets a per-event cost."""
    passes = tracer.summarize("bench.timed")
    everything = tracer.summarize(None)
    wall = passes["wall"]["total"]

    def count(*names: str) -> int:
        return sum(int(everything[n]["count"]) for n in names)

    def per_event(scale: float, *names: str) -> float:
        n = count(*names)
        return (sum(everything[x]["self"] for x in names) * scale / n
                if n else 0.0)

    def share(layer: str) -> float:
        busy = sum(row["self"] for span, row in passes.items()
                   if span.split(".")[0] == layer)
        return busy / wall if wall else 0.0

    simulated = sum(p.uops for p in traced) if wl.simulates else 0
    if fill is not None:
        simulated += fill.uops
    length = wl.length
    tstats: Dict[str, float] = {}
    for p in traced:
        for key, value in (p.trace_stats or {}).items():
            tstats[key] = tstats.get(key, 0) + value
    reused = tstats.get("memo_hits", 0) + tstats.get("store_hits", 0)
    lookups = reused + tstats.get("compiled", 0)
    engine_stats = [p.stats for p in traced if p.stats is not None]
    looked_up = sum(s.tasks_total for s in engine_stats)
    payload_s = passes["engine.run_payloads"]["total"]
    task_s = passes["task.execute"]["total"]
    kips_untraced = kips(wl, untraced)
    kips_traced = kips(wl, traced)
    layers = {
        "frontend.self_ns_per_branch":
            per_event(1e9, "frontend.process_branch"),
        "frontend.branches": count("frontend.process_branch"),
        "memory.self_ns_per_access": per_event(1e9, "memory.access"),
        "memory.icache_ns_per_fetch": per_event(1e9, "memory.icache_fetch"),
        "memory.accesses": count("memory.access"),
        "prefetch.self_ns_per_call": per_event(1e9, *PREFETCH_SPANS),
        "prefetch.calls": count(*PREFETCH_SPANS),
        "core.self_ns_per_uop": (
            everything["core.scoreboard_run"]["self"] * 1e9 / simulated
            if simulated else 0.0),
        "core.uops": simulated,
        "uop_cache.ns_per_block": per_event(1e9, "uop_cache.on_block"),
        "uop_cache.blocks": count("uop_cache.on_block"),
        "traces.generate_ns_per_uop":
            per_event(1e9 / length, "traces.generate"),
        "traces.compile_ns_per_uop": per_event(1e9 / length,
                                               "traces.compile"),
        "traces.reuse_ratio": reused / lookups if lookups else 0.0,
        "engine.fingerprint_us_per_task":
            per_event(1e6, "engine.fingerprint"),
        "engine.cache_get_us": per_event(1e6, "engine.cache_get"),
        "engine.cache_put_us": per_event(1e6, "engine.cache_put"),
        "engine.ctrace_store_get_us":
            per_event(1e6, "engine.ctrace_store_get"),
        "engine.ctrace_store_put_us":
            per_event(1e6, "engine.ctrace_store_put"),
        "engine.overhead_frac": (1.0 - task_s / payload_s
                                 if payload_s else 0.0),
        "engine.cache_hit_ratio": (
            sum(s.cache_hits for s in engine_stats) / looked_up
            if looked_up else 0.0),
        "observe.ledger_append_ms": per_event(1e3, "observe.ledger_append"),
        "serialization.archive_ms": per_event(1e3, "serialization.archive"),
        "metrics.window_us": per_event(1e6, "metrics.window"),
        "trace.kips_untraced": kips_untraced,
        "trace.kips_traced": kips_traced,
        "trace.overhead_ratio": kips_untraced / kips_traced,
    }
    for layer in LAYERS:
        layers[f"{layer}.share"] = share(layer)
    layers["other.share"] = max(0.0, 1.0 - sum(
        layers[f"{layer}.share"] for layer in LAYERS))
    return layers


def design_check(name: str, layers: Dict[str, float]) -> str:
    """The layer shares each workload was chosen to produce."""
    front = layers["frontend.share"]
    mem = layers["memory.share"] + layers["prefetch.share"]
    checks = {
        "frontend_sweep": ("frontend.share > memory.share + prefetch.share",
                           front > mem),
        "memory_sweep": ("memory.share + prefetch.share > frontend.share",
                         mem > front),
        "population_warm": ("core.share == 0", layers["core.share"] == 0),
        "population_cold": ("core.share > 0", layers["core.share"] > 0),
    }
    text, ok = checks[name]
    return f"design check: {text}: {'ok' if ok else 'NOT MET'}"


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def report(result: Dict[str, Any], units: Dict[str, Dict[str, str]],
           calibration_s: float) -> Dict[str, Any]:
    name = result["workload"]
    trace = result["trace"]
    print(f"perfbench: workload={name} seed={result['seed']} "
          f"trace={trace} workers={result['workers']} "
          f"passes={result['passes']} tasks/pass={result['tasks_per_pass']}")
    print(f"calibration_ms = {calibration_s * 1e3:.3f} ms "
          "(fixed pure-Python loop; compare hosts as ratios)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} tasks)")
    if trace:
        section = "per_layer"
        values = result["layers"]
        print("traced run: population work runs serially (workers=1) so "
              "every span stays in one process" if name.startswith(
                  "population") else "traced run: serial closed loop")
        print(f"spans: {result['spans']} written to {result['span_file']}")
        print(design_check(name, values))
    else:
        section = "end_to_end"
        values = result["metrics"]
        print(f"run_s_tail is p{result['tail_percentile']} of "
              f"{result['tail_samples']} samples")
    metrics = {}
    for metric, unit in units[section].items():
        value = values[metric]
        metrics[metric] = {"value": value, "unit": unit}
        print(f"{metric} = {value:.6g} {unit}")
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    WORK.joinpath("out").mkdir(parents=True, exist_ok=True)
    record = dict(result, calibration_s=calibration_s, summary=summary)
    (WORK / "out" / f"result-{name}-seed{result['seed']}-trace{trace}"
     ".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return summary


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process (no memo survives from one
    workload into the next); prints each run and one combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 2
        summary = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] = combined["correct"] and summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for metric, value in summary["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = load_benchmark()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    units = metric_units(spec)
    calibration_s = calibrate()
    for var in _ENGINE_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # noqa: F401  (imports repro; timed as set-up)
    import_s = time.perf_counter() - t0
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), import_s)
    except RuntimeError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    summary = report(result, units, calibration_s)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
