"""Engine acceptance: warmup-snapshot fan-out beats cold full reruns.

Repeated measurement of the same workload — tracing passes, counter
sweeps, A/B reruns — re-executes an identical warmup prefix every time.
With ``warmup=N`` the prefix is simulated once, checkpointed into the
task cache's memory tier, and every subsequent run restores the snapshot
and simulates only the measure suffix.  The guard times three full cold
runs against three snapshot runs with a dominant warmup fraction (16k of
20k instructions): the snapshot side simulates 16k once plus 3 x 4k
suffixes (~28k) where the cold side simulates 3 x 20k (~60k), so it must
win outright while producing bit-identical results.
"""

import time

import repro
from repro.engine import clear_caches

SPEC = ("specint_like", 13, 20_000)
RERUNS = 3


def _timed(warmup):
    t0 = time.perf_counter()
    results = [repro.run(SPEC, "M6", warmup=warmup)
               for _ in range(RERUNS)]
    return results, time.perf_counter() - t0


def test_warmup_snapshot_fanout_beats_cold_reruns():
    clear_caches()
    cold, cold_s = _timed(0)
    warm, warm_s = _timed(16_000)

    for c, w in zip(cold, warm):
        assert w.core.cycles == c.core.cycles
        assert w.metrics.as_dict() == c.metrics.as_dict()
    assert warm_s < cold_s, (
        f"{RERUNS} snapshot runs took {warm_s:.3f}s, "
        f"not faster than {RERUNS} cold runs at {cold_s:.3f}s")
