"""Throughput gate: the flat-array scoreboard loop must pay its way.

Every run takes ``Scoreboard.run``, a flat loop over compiled columns.
The single-run bench times it on a spec against the record-object
reference loop (``tests/reference_scoreboard.py``) over the same plain
``Trace``, checks the results are identical, and *gates* on the median
speedup over alternating pairs.  The population bench records
end-to-end KIPS.  Every number lands in ``BENCH_engine.json`` (via the
session ``bench_metrics`` channel); ``single_run_kips_record`` is the
reference loop's.

Timing protocol: generate and compile the trace first (untimed), warm
each loop once, then time only simulation, alternating reference/flat
so slow drift on the host hits both sides alike.  Single pairs are
noisy (one pair in eight can read 1.0x), so the gate is on the median.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.core import Scoreboard
from repro.engine import run_population
from repro.engine.runner import clear_caches, run
from repro.traces import TraceSpec
from tests.reference_scoreboard import reference_run

#: Population-bench shape: small enough for CI, big enough that the
#: per-instruction loop dominates the measurement.
POP = dict(n_slices=3, slice_length=6000, seed=2020, cache="off",
           workers=1)

SINGLE = dict(spec=TraceSpec("specint_like", 29, 40_000), generation="M3")

#: Alternating (reference, flat) timing pairs for the single-run gate.
PAIRS = 8

#: Floor on the median per-pair speedup of the flat loop over the
#: reference loop; the gate the CI throughput job enforces.
MIN_SPEEDUP = 1.15


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _snap(result):
    return json.dumps(result.metrics.snapshot().values, sort_keys=True)


def _quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def test_single_run_throughput_gate(bench_metrics, monkeypatch):
    spec, gen = SINGLE["spec"], SINGLE["generation"]
    n = spec.n_instructions
    trace = spec.build()

    def run_reference():
        with monkeypatch.context() as patch:
            patch.setattr(Scoreboard, "run", reference_run)
            return run(trace, gen, ledger=False)

    ref = run_reference()                  # warm the reference loop
    flat = run(spec, gen, ledger=False)    # compile + warm the flat loop
    assert _snap(flat) == _snap(ref)

    t_reference, t_flat = [], []
    for _ in range(PAIRS):
        t_reference.append(_timed(run_reference)[1])
        t_flat.append(_timed(lambda: run(spec, gen, ledger=False))[1])
    speedups = [r / f for r, f in zip(t_reference, t_flat)]
    median = statistics.median(speedups)
    q1, q3 = _quartiles(speedups)

    bench_metrics["single_run_kips_record"] = (
        n / 1000.0 / statistics.median(t_reference))
    bench_metrics["single_run_kips_flat"] = (
        n / 1000.0 / statistics.median(t_flat))
    bench_metrics["single_run_speedup"] = median
    bench_metrics["single_run_speedup_q1"] = q1
    bench_metrics["single_run_speedup_q3"] = q3

    assert median >= MIN_SPEEDUP, (
        f"flat loop median speedup {median:.2f}x over {PAIRS} pairs "
        f"(IQR {q1:.2f}-{q3:.2f}) < {MIN_SPEEDUP}x the reference loop")


def test_population_throughput(bench_metrics):
    n_instr = POP["n_slices"] * POP["slice_length"] * 6  # six generations

    def _run():
        clear_caches()
        return run_population(**POP)

    _run()  # warm the worker-side compiled-trace memo
    times = [_timed(_run)[1] for _ in range(3)]
    bench_metrics["population_kips"] = (
        n_instr / 1000.0 / statistics.median(times))
