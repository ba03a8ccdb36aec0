"""Golden traced event streams, pinned across commits.

The population corpus (``tests/test_golden.py``) pins aggregate
results and ``tests/test_branch_outcomes.py`` per-branch outcomes;
neither sees the flight recorder.  This test pins the full event
stream of a traced run — instruction, branch, memory and uop-cache
events, every field — for each golden-corpus slice on M1, M3 and M6
(the first generation, the first with zero-cycle moves, the last; all
six would double the test's run time):
``repro.run(spec, gen, trace_to=True)`` rendered with
:func:`~repro.observe.events.events_to_jsonl`, stored as the event
count and the SHA-256 of that text.

A change that moves events *on purpose* regenerates the file and says
why in CHANGES.md::

    PYTHONPATH=src python -c "from tests.test_event_streams import write_streams; write_streams()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import repro
from repro.observe.events import events_to_jsonl

from .test_golden import SPECS

STREAMS = Path(__file__).parent / "golden" / "event_streams.json"

GENERATIONS = ("M1", "M3", "M6")


def stream_digest(spec, generation: str) -> dict:
    """Event count and SHA-256 of one traced run's JSONL rendering."""
    events = repro.run(spec, generation, trace_to=True, ledger=False).events
    text = events_to_jsonl(events)
    return {
        "family": spec.family,
        "generation": generation,
        "events": len(events),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def build_streams() -> str:
    """The golden file's text, simulated from scratch."""
    streams = [stream_digest(spec, gen)
               for spec in SPECS for gen in GENERATIONS]
    return json.dumps({"streams": streams}, indent=1, sort_keys=True) + "\n"


def write_streams() -> None:
    STREAMS.parent.mkdir(parents=True, exist_ok=True)
    STREAMS.write_text(build_streams())


def test_streams_cover_every_family_and_generation():
    streams = json.loads(STREAMS.read_text())["streams"]
    assert [(s["family"], s["generation"]) for s in streams] == [
        (spec.family, g) for spec in SPECS for g in GENERATIONS]
    assert all(s["events"] > 0 for s in streams)


def test_event_streams_match_golden():
    expected = STREAMS.read_text()
    actual = build_streams()
    if actual == expected:
        return
    for want, got in zip(json.loads(expected)["streams"],
                         json.loads(actual)["streams"]):
        if want != got:
            raise AssertionError(
                f"traced event stream moved from the golden file; first "
                f"difference at ({want['family']}, {want['generation']}): "
                f"golden {want['events']} events sha256 "
                f"{want['sha256'][:12]}, now {got['events']} events "
                f"sha256 {got['sha256'][:12]}")
    raise AssertionError("golden event-stream file differs in layout")
