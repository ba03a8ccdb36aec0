"""Tracing-layer acceptance: the flight recorder costs nothing when off.

Pipeline tracing is opt-in: every emission site is guarded by a single
``if sink is not None`` on a local alias, so a simulator built without
a sink must run at the same speed as one built before the tracing
layer existed.  Traced and untraced runs share the one scoreboard loop,
so this guard covers every run.  It pins that contract at 2% and
separately bounds the enabled-mode cost so the recorder stays usable
on full-length traces.

Disabled-mode timing protocol (the alternating paired median of
``test_throughput.py``, at a finer grain): the trace is generated and
compiled untimed, a warm-up pair runs first, then each pair runs a
fresh simulator per side through the whole trace in lockstep, one
``CHUNK``-µop slice at a time (resumed runs are bit-identical),
alternating which side runs each slice first.  The gate is on the
median per-pair time ratio, and the failure message reports the
interquartile range.  Whole-run pairs put ~0.4 s between the two
sides, and host drift over that span gave ratio IQRs of ~11% on a
shared 2-vCPU VM, too wide for a 2% bound; lockstep slices put ~10 ms
between them (IQR ~3%).  Time is process CPU time (time spent
descheduled is not the code's cost), with the collector run before and
paused during each pair (collections land wherever allocation counts
cross a threshold, not where the code under test is).
"""

import gc
import statistics
import time

from repro.config import get_generation
from repro.core import GenerationSimulator
from repro.observe import TraceSink
from repro.traces import compile_trace, make_trace

TRIALS = 5
PAIRS = 16
CHUNK = 2000
LENGTH = 60_000
MAX_DISABLED_OVERHEAD = 0.02
MAX_ENABLED_OVERHEAD = 2.50


def _best_of(sim_factory, trace):
    best = float("inf")
    for _ in range(TRIALS):
        sim = sim_factory()
        t0 = time.perf_counter()
        sim.run(trace, window_interval=0)
        best = min(best, time.perf_counter() - t0)
    return best


def _lockstep_pair(sim_factory, chunks):
    """CPU seconds each of two fresh simulators spends on ``chunks``."""
    sims = (sim_factory(), sim_factory())
    spent = [0.0, 0.0]
    gc.collect()
    gc.disable()
    try:
        for n, chunk in enumerate(chunks):
            for side in ((0, 1) if n % 2 == 0 else (1, 0)):
                t0 = time.process_time()
                sims[side].run(chunk, window_interval=0, finalize=False)
                spent[side] += time.process_time() - t0
    finally:
        gc.enable()
    return spent


def test_disabled_tracing_overhead_within_2pct():
    # loop_kernel on M6 is the worst case: the highest event density per
    # wall-clock second (tight loops, uop-cache mode machine active), so
    # the per-iteration None checks are the largest fraction of the run.
    trace = compile_trace(make_trace("loop_kernel", seed=3,
                                     n_instructions=LENGTH))
    config = get_generation("M6")
    factory = lambda: GenerationSimulator(config)  # noqa: E731

    chunks = [trace.slice(start, start + CHUNK)
              for start in range(0, len(trace), CHUNK)]

    _lockstep_pair(factory, chunks)  # warm caches/interpreter
    ratios = []
    for _ in range(PAIRS):
        plain, untraced = _lockstep_pair(factory, chunks)
        ratios.append(untraced / plain)
    median = statistics.median(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4)

    overhead = median - 1.0
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"tracing-disabled runs are {overhead:.1%} slower than baseline "
        f"(median ratio of {PAIRS} pairs {median:.3f}, IQR "
        f"{q1:.3f}-{q3:.3f}; budget {MAX_DISABLED_OVERHEAD:.0%})")


def test_enabled_tracing_cost_is_bounded():
    trace = compile_trace(make_trace("loop_kernel", seed=3,
                                     n_instructions=LENGTH))
    config = get_generation("M6")
    plain_factory = lambda: GenerationSimulator(config)  # noqa: E731
    traced_factory = lambda: GenerationSimulator(  # noqa: E731
        config, trace_sink=TraceSink(capacity=LENGTH * 4))

    _best_of(plain_factory, trace)  # warm up
    plain = _best_of(plain_factory, trace)
    traced = _best_of(traced_factory, trace)

    overhead = traced / plain - 1.0
    assert overhead <= MAX_ENABLED_OVERHEAD, (
        f"tracing-enabled run {traced:.3f}s is {overhead:.1%} slower than "
        f"plain {plain:.3f}s (budget {MAX_ENABLED_OVERHEAD:.0%})")
