"""Golden per-branch outcome streams, pinned across commits.

The population corpus (``tests/test_golden.py``) pins aggregate
results; two branch-unit errors can cancel in an aggregate.  This test
pins what ``BranchUnit.process_branch`` returns for every branch of
the golden corpus's slices (all ten families, M1–M6), run through the
ordinary simulator: the sequence of ``(mispredicted, bubbles,
mrb_assisted, path)``.

Each stream is stored as one token per branch — the bubble count,
then ``x`` when mispredicted, ``r`` when MRB-assisted and ``u`` when
the uBTB drove — plus the SHA-256 of the token text.  A change that
moves outcomes *on purpose* regenerates the file and says why in
CHANGES.md::

    PYTHONPATH=src python -c "from tests.test_branch_outcomes import write_outcomes; write_outcomes()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.config import GENERATION_ORDER, get_generation
from repro.core import GenerationSimulator
from repro.traces.compiled import compile_trace

from .test_golden import SPECS

OUTCOMES = Path(__file__).parent / "golden" / "branch_outcomes.json"

_PATHS = {"main": "", "ubtb": "u"}


def _token(result) -> str:
    return (f"{int(result.bubbles)}"
            + ("x" if result.mispredicted else "")
            + ("r" if result.mrb_assisted else "")
            + _PATHS[result.path])


def outcome_stream(spec, generation: str) -> list[str]:
    """One token per branch ``process_branch`` resolved while the
    simulator ran ``spec`` on ``generation``."""
    sim = GenerationSimulator(get_generation(generation))
    unit = sim.branch_unit
    process = unit.process_branch
    tokens: list[str] = []

    def recording(rec, now=0.0):
        result = process(rec, now)
        tokens.append(_token(result))
        return result

    # The scoreboard looks the entry point up on the unit, so an
    # instance attribute observes every call.
    unit.process_branch = recording
    sim.run(compile_trace(spec.build()))
    return tokens


def build_outcomes() -> str:
    """The outcome file's text, simulated from scratch."""
    streams = []
    for spec in SPECS:
        for gen in GENERATION_ORDER:
            text = " ".join(outcome_stream(spec, gen))
            streams.append({
                "family": spec.family,
                "generation": gen,
                "branches": text.count(" ") + 1 if text else 0,
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
                return (f"({where[0]}, {where[1]}, branch {i}): "
                        f"golden {x!r}, now {y!r}")
        if len(a) != len(b):
            return (f"({where[0]}, {where[1]}): golden {len(a)} "
                    f"branches, now {len(b)}")
    return "files differ only in encoding"


def test_golden_hashes_match_their_streams():
    for s in json.loads(OUTCOMES.read_text())["streams"]:
        digest = hashlib.sha256(s["outcomes"].encode()).hexdigest()
        assert digest == s["sha256"], (s["family"], s["generation"])


def test_streams_cover_every_family_and_generation():
    streams = json.loads(OUTCOMES.read_text())["streams"]
    seen = {(s["family"], s["generation"]) for s in streams}
    assert seen == {(spec.family, g)
                    for spec in SPECS for g in GENERATION_ORDER}
    assert all(s["branches"] > 0 for s in streams)


def test_branch_outcomes_match_golden():
    expected = OUTCOMES.read_text()
    actual = build_outcomes()
    if actual != expected:
        raise AssertionError(
            "per-branch outcomes moved from the golden streams; first "
            "difference: " + _first_difference(expected, actual))
