"""Golden per-access memory outcomes, pinned across commits.

The population corpus (``tests/test_golden.py``) pins aggregate
results and ``tests/test_event_streams.py`` the traced event stream of
three generations; two memory-layer errors can cancel in an aggregate,
and a traced run is not the path the simulator usually takes.  This
test pins what ``MemoryHierarchy.access`` does for every demand access
of the golden corpus's slices (all ten families, M1–M6), run through
the ordinary untraced simulator: the sequence of ``(level, latency,
tlb_level, prefetch_touch)``.

An untraced access reports only its latency, so the wrapper reads the
rest from the counters the access moved (see :func:`_level`); the
traced cross-check below confirms that reading against the
``MemEvent`` fields.  Each stream is stored as one token per access —
the level code, the TLB code, ``:``, the latency, then ``p`` on the
first demand touch of a prefetched line — with the SHA-256 of the
token text and the per-prefetcher issue counts.  Level codes: ``1``
L1 hit, ``L`` late-prefetch L1 hit, ``F`` in-flight fill, ``2`` L2,
``3`` L3, ``D`` DRAM.  TLB codes: none for an L1 TLB hit, ``t`` for
the L1.5 TLB, ``T`` for the L2 TLB, ``W`` for a page walk.  A change
that moves outcomes *on purpose* regenerates the file and says why in
CHANGES.md::

    PYTHONPATH=src python -c "from tests.test_memory_outcomes import write_outcomes; write_outcomes()"
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.config import GENERATION_ORDER, get_generation
from repro.core import GenerationSimulator
from repro.memory import MemoryHierarchy
from repro.observe.events import MemEvent
from repro.observe.sink import TraceSink
from repro.traces.compiled import compile_trace

from .test_golden import SPECS

OUTCOMES = Path(__file__).parent / "golden" / "memory_outcomes.json"

_LEVELS = {"l1": "1", "l1_late": "L", "inflight": "F", "l2": "2",
           "l3": "3", "dram": "D"}
_TLBS = {"l1": "", "l1.5": "t", "l2": "T", "walk": "W"}


def _token(level: str, latency: float, tlb_level: str,
           prefetch_touch: bool) -> str:
    lat = repr(float(latency))
    if lat.endswith(".0"):
        lat = lat[:-2]
    return (_LEVELS[level] + _TLBS[tlb_level] + ":" + lat
            + ("p" if prefetch_touch else ""))


def _counters(mem) -> tuple:
    """The counters one demand access moves, in :func:`_level` order."""
    s, tlb = mem.stats, mem.tlb
    return (s.l1_hits, s.l1_late_prefetch_hits, mem.l1.hits, s.l2_hits,
            s.l3_hits, s.dram_accesses,
            tlb.l1.hits, tlb.l15.hits if tlb.l15 is not None else 0,
            tlb.l2.hits, tlb.walks, mem.reorder.inserted)


def _level(before: tuple, after: tuple) -> tuple:
    """``(level, tlb_level, prefetch_touch)`` of one access from the
    counter deltas it left."""
    d = [a - b for a, b in zip(after, before)]
    if d[0]:
        level = "l1"
    elif d[1]:
        # Both bump the late counter; only the late L1 hit hits the L1.
        level = "l1_late" if d[2] else "inflight"
    elif d[3]:
        level = "l2"
    elif d[4]:
        level = "l3"
    elif d[5]:
        level = "dram"
    else:
        raise AssertionError(f"access moved no level counter: {d}")
    tlb = ("l1" if d[6] else "l1.5" if d[7] else "l2" if d[8]
           else "walk" if d[9] else None)
    if tlb is None:
        raise AssertionError(f"access moved no TLB counter: {d}")
    # L1 hits train the prefetchers only on a first prefetch touch.
    touch = level in ("l1", "l1_late") and bool(d[10])
    return level, tlb, touch


def _issue_counts(mem) -> dict:
    return {
        "hierarchy": mem.stats.prefetches_issued,
        "stride": mem.stride.issued,
        "sms_l1": mem.sms.issued_l1 if mem.sms is not None else 0,
        "sms_l2": mem.sms.issued_l2 if mem.sms is not None else 0,
        "buddy": mem.buddy.issued if mem.buddy is not None else 0,
        "standalone": (mem.standalone.issued
                       if mem.standalone is not None else 0),
    }


def _recording(mem, tokens: list):
    """``mem.access`` wrapped to append one token per call."""
    access = mem.access

    def recording(pc, addr, now, is_store=False):
        before = _counters(mem)
        latency = access(pc, addr, now, is_store)
        level, tlb, touch = _level(before, _counters(mem))
        tokens.append(_token(level, latency, tlb, touch))
        return latency

    return recording


def outcome_stream(spec, generation: str) -> tuple:
    """One token per demand access ``MemoryHierarchy.access`` served
    while the untraced simulator ran ``spec`` on ``generation``, and the
    run's prefetch issue counts."""
    sim = GenerationSimulator(get_generation(generation))
    tokens: list[str] = []
    # The scoreboard looks the entry point up on the hierarchy, so an
    # instance attribute observes every call.
    sim.memory.access = _recording(sim.memory, tokens)
    sim.run(compile_trace(spec.build()))
    return tokens, _issue_counts(sim.memory)


def synthetic_stream(generation: str, accesses: int = 2000) -> tuple:
    """Tokens of a seeded address stream driven straight into one
    generation's hierarchy.  The corpus slices are short and never
    reach an in-flight fill or an L2 TLB hit; four strided streams, a
    3000-line random working set over 600 pages and scattered stores
    reach both."""
    rng = random.Random(7)
    mem = MemoryHierarchy(get_generation(generation))
    tokens: list[str] = []
    access = _recording(mem, tokens)
    streams = [rng.randrange(1 << 30) & ~63 for _ in range(4)]
    now = 0.0
    for _ in range(accesses):
        r = rng.random()
        if r < 0.5:
            k = rng.randrange(4)
            streams[k] += 64 * rng.choice((1, 1, 1, 2))
            addr = streams[k]
        elif r < 0.8:
            if rng.random() < 0.6:
                addr = (1 << 33) + (rng.randrange(3000) << 6)
            else:
                addr = (rng.randrange(600) << 12) | (rng.randrange(64) << 6)
        else:
            addr = rng.randrange(1 << 32) & ~7
        pc = 0x1000 + 4 * rng.randrange(16)
        access(pc, addr, now, rng.random() < 0.2)
        now += rng.choice((0.5, 1.0, 2.0, 8.0))
    return tokens, _issue_counts(mem)


def traced_stream(spec, generation: str) -> list[str]:
    """The same tokens, read from a traced run's ``MemEvent`` fields."""
    sink = TraceSink(capacity=None)
    GenerationSimulator(get_generation(generation),
                        trace_sink=sink).run(compile_trace(spec.build()))
    return [_token(e.level, e.latency, e.tlb_level, e.prefetch_touch)
            for e in sink.events() if isinstance(e, MemEvent)]


def _runs():
    """``(family, generation, thunk)`` per stream, in file order: the
    corpus slices, then the synthetic stream per generation."""
    for spec in SPECS:
        for gen in GENERATION_ORDER:
            yield spec.family, gen, (lambda s=spec, g=gen:
                                     outcome_stream(s, g))
    for gen in GENERATION_ORDER:
        yield "synthetic", gen, lambda g=gen: synthetic_stream(g)


def build_outcomes() -> str:
    """The outcome file's text, simulated from scratch."""
    streams = []
    for family, gen, run in _runs():
        tokens, issued = run()
        text = " ".join(tokens)
        streams.append({
            "family": family,
            "generation": gen,
            "accesses": len(tokens),
            "issued": issued,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "outcomes": text,
        })
    return json.dumps({"streams": streams}, indent=1, sort_keys=True) + "\n"


def write_outcomes() -> None:
    OUTCOMES.parent.mkdir(parents=True, exist_ok=True)
    OUTCOMES.write_text(build_outcomes())


def _first_difference(expected: str, actual: str) -> str:
    want = json.loads(expected)["streams"]
    got = json.loads(actual)["streams"]
    if len(want) != len(got):
        return f"stream count: golden {len(want)}, now {len(got)}"
    for w, g in zip(want, got):
        where = (w["family"], w["generation"])
        if (g["family"], g["generation"]) != where:
            return f"stream order: golden {where}, now " \
                   f"{(g['family'], g['generation'])}"
        a, b = w["outcomes"].split(), g["outcomes"].split()
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return (f"({where[0]}, {where[1]}, access {i}): "
                        f"golden {x!r}, now {y!r}")
        if len(a) != len(b):
            return (f"({where[0]}, {where[1]}): golden {len(a)} "
                    f"accesses, now {len(b)}")
        if w["issued"] != g["issued"]:
            return (f"({where[0]}, {where[1]}) prefetch issue counts: "
                    f"golden {w['issued']}, now {g['issued']}")
    return "files differ only in encoding"


def test_golden_hashes_match_their_streams():
    for s in json.loads(OUTCOMES.read_text())["streams"]:
        digest = hashlib.sha256(s["outcomes"].encode()).hexdigest()
        assert digest == s["sha256"], (s["family"], s["generation"])
        assert len(s["outcomes"].split()) == s["accesses"]


def test_streams_cover_every_family_and_generation():
    streams = json.loads(OUTCOMES.read_text())["streams"]
    assert [(s["family"], s["generation"]) for s in streams] == [
        (family, gen) for family, gen, _ in _runs()]
    # Only the two branch-only families issue no memory access.
    assert {s["family"] for s in streams if not s["accesses"]} == {
        "dense_branch", "btb_stress"}
    # Every serving level and every TLB level is reached.
    text = " ".join(s["outcomes"] for s in streams)
    for code in list(_LEVELS.values()) + ["t", "T", "W", "p"]:
        assert code in text, code


@pytest.mark.parametrize("family", ["pointer_chase", "stream_like"])
def test_counter_reading_matches_traced_events(family):
    spec = next(s for s in SPECS if s.family == family)
    for gen in GENERATION_ORDER:
        assert outcome_stream(spec, gen)[0] == traced_stream(spec, gen), gen


def test_memory_outcomes_match_golden():
    expected = OUTCOMES.read_text()
    actual = build_outcomes()
    if actual != expected:
        raise AssertionError(
            "per-access memory outcomes moved from the golden streams; "
            "first difference: " + _first_difference(expected, actual))
