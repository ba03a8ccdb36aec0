"""Golden corpus: simulated results pinned across commits.

One short slice of every standard-suite family runs on all six
generations through the ordinary engine path, and the canonical
population archive must match ``tests/golden/population.json`` byte for
byte.  Any change that moves a simulated number fails here, whichever
execution path produced it.

A change that moves results *on purpose* regenerates the corpus and
says why in CHANGES.md::

    PYTHONPATH=src python -c "from tests.test_golden import write_corpus; write_corpus()"
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.config import GENERATION_ORDER, get_generation
from repro.engine.results import PopulationResult, SliceMetrics
from repro.engine.runner import PopulationEngine
from repro.engine.tasks import population_task
from repro.serialization import population_to_json
from repro.traces import SUITE_WEIGHTS, TraceSpec

CORPUS = Path(__file__).parent / "golden" / "population.json"

#: One explicit slice per ``SUITE_WEIGHTS`` family (every family, unlike
#: a small ``standard_suite_specs`` population).
SPECS = (
    TraceSpec("loop_kernel", 101, 1500),
    TraceSpec("specint_like", 102, 1500),
    TraceSpec("specfp_like", 103, 1500),
    TraceSpec("web_like", 104, 1500),
    TraceSpec("mobile_like", 105, 1500),
    TraceSpec("pointer_chase", 106, 1500),
    TraceSpec("stream_like", 107, 1500),
    TraceSpec("hard_random", 108, 1500),
    TraceSpec("dense_branch", 109, 1500),
    TraceSpec("btb_stress", 110, 1500),
)


def build_corpus() -> str:
    """The corpus archive text, simulated from scratch (no caches)."""
    configs = [get_generation(g) for g in GENERATION_ORDER]
    payloads = [population_task(config, spec)
                for spec in SPECS for config in configs]
    rows, _ = PopulationEngine(workers=1, cache="off").run_payloads(payloads)
    result = PopulationResult()
    n_gens = len(configs)
    for g in range(n_gens):  # generation-major, like execute_population
        for s in range(len(SPECS)):
            result.metrics.append(SliceMetrics.from_dict(rows[s * n_gens + g]))
    return population_to_json(result)


def write_corpus() -> None:
    CORPUS.parent.mkdir(parents=True, exist_ok=True)
    CORPUS.write_text(build_corpus())


def _cells(row, prefix=()):
    """Flatten one archive row into ``(path, value)`` leaf cells."""
    if isinstance(row, dict):
        for key in sorted(row):
            yield from _cells(row[key], prefix + (str(key),))
    elif isinstance(row, list):
        for i, item in enumerate(row):
            yield from _cells(item, prefix + (str(i),))
    else:
        yield ".".join(prefix), row


def _first_differences(expected: str, actual: str, limit: int = 10):
    """The first differing (family, generation, metric) cells."""
    want = json.loads(expected)["metrics"]
    got = json.loads(actual)["metrics"]
    out = []
    if len(want) != len(got):
        out.append(f"row count: golden {len(want)}, now {len(got)}")
    for w, g in zip(want, got):
        cells = dict(_cells(g))
        for metric, value in _cells(w):
            if cells.get(metric, "<missing>") != value:
                out.append(f"({w['family']}, {w['generation']}, {metric}): "
                           f"golden {value!r}, now {cells.get(metric)!r}")
                if len(out) >= limit:
                    return out
    return out


def test_specs_cover_every_suite_family():
    assert sorted(s.family for s in SPECS) == sorted(SUITE_WEIGHTS)


def test_population_matches_golden_corpus():
    expected = CORPUS.read_text()
    actual = build_corpus()
    if actual != expected:
        diffs = _first_differences(expected, actual) or [
            "archives differ only in encoding"]
        raise AssertionError(
            "simulated results moved from the golden corpus; first "
            "differing cells:\n  " + "\n  ".join(diffs))
