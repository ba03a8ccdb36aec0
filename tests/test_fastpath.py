"""Tests for the compiled-trace path (docs/performance.md).

Every run takes one production loop, ``Scoreboard.run``: a spec
compiles to a :class:`~repro.traces.compiled.CompiledTrace`, and a
plain :class:`~repro.traces.types.Trace` is compiled on entry.  The
contract under test: swapping in the record-object reference loop
(``tests/reference_scoreboard.py``) changes nothing — metrics
snapshots, window series, event streams, checkpoints and population
archives are byte-identical, serial or sharded, warm or cold, whether
the input is a spec or a plain ``Trace``.  Alongside that: the
compiled-trace binary format round-trips and fails closed (corrupt
store entries regenerate), the lane-hashed SHP/LHP indices equal the
direct hash composition, and the two-slot port tracker issues
bit-identically to the old O(ports) scan.
"""

from __future__ import annotations

import json
import random

import pytest

import repro
from repro.config import get_generation
from repro.core import GenerationSimulator, Scoreboard
from repro.core.scoreboard import _PortGroup
from repro.engine import execute_population, run_population
from repro.engine.cache import CTRACE_DIRNAME, CompiledTraceStore
from repro.engine.runner import clear_caches
from repro.engine.tasks import _CTRACE_MEMO, _build_compiled
from repro.frontend import BranchUnit
from repro.frontend.history import fold_bits, mix_segment, pc_hash
from repro.frontend.lhp import LocalHashedPerceptron
from repro.frontend.shp import ScaledHashedPerceptron
from repro.memory import MemoryHierarchy
from repro.memory.icache import InstructionCache
from repro.observe.events import events_to_jsonl
from repro.serialization import population_to_json
from repro.traces import SUITE_WEIGHTS, TraceSpec, make_trace
from repro.traces.compiled import (CompiledTraceError, compile_trace,
                                   compiled_fingerprint, dump_bytes,
                                   load_bytes)

from .reference_scoreboard import reference_run


def _snap(result):
    """Canonical text of one SimulationResult's metric snapshot."""
    return json.dumps(result.metrics.snapshot().values, sort_keys=True)


def _fields(rec):
    """TraceRecord as a comparable tuple (records compare by identity)."""
    return (rec.pc, rec.kind, rec.taken, rec.target, rec.addr, rec.size,
            rec.src1_dist, rec.src2_dist)


def _all_fields(trace_like):
    return [_fields(r) for r in trace_like]


# ---------------------------------------------------------------------------
# Port group: two-slot tracker == reference first-minimum scan
# ---------------------------------------------------------------------------

class _NaivePortGroup:
    """The pre-optimisation issue policy: rescan every port, pick the
    first minimum."""

    def __init__(self, count):
        self.free = [0.0] * max(1, count)

    def issue(self, ready, occupancy=1.0):
        best = 0
        for i in range(1, len(self.free)):
            if self.free[i] < self.free[best]:
                best = i
        t = max(self.free[best], ready)
        self.free[best] = t + occupancy
        return t


def _port_counts():
    """Every port-group size any generation has (1, 2, 3, 4 and 6)."""
    from repro.config import GENERATION_ORDER

    return sorted({len(getattr(Scoreboard(get_generation(g)), name).free)
                   for g in GENERATION_ORDER
                   for name in Scoreboard._PORT_GROUPS})


@pytest.mark.parametrize("ports", _port_counts())
def test_port_group_matches_reference_scan(ports):
    rng = random.Random(1234 + ports)
    fast, ref = _PortGroup(ports), _NaivePortGroup(ports)
    ready = 0.0
    for _ in range(3000):
        ready = max(0.0, ready + rng.uniform(-0.5, 1.5))
        occupancy = rng.choice([1.0, 1.0, 2.0, 12.0])
        assert fast.issue(ready, occupancy) == ref.issue(ready, occupancy)
        assert fast.free == ref.free


def test_port_group_rescan_after_bulk_edit():
    group = _PortGroup(3)
    group.free[:] = [7.0, 2.0, 5.0]
    group._rescan()
    assert group.issue(0.0) == 2.0  # picks the true minimum, port 1


# ---------------------------------------------------------------------------
# CompiledTrace: decode-once columns and the binary round trip
# ---------------------------------------------------------------------------

def test_compile_trace_preserves_every_record():
    trace = make_trace("specint_like", seed=3, n_instructions=4000)
    compiled = compile_trace(trace)
    assert len(compiled) == len(trace)
    assert compiled.branch_count == trace.branch_count
    assert _all_fields(compiled) == _all_fields(trace.records)
    # Exact field types: the branch unit sees Kind members and bools.
    rec = next(r for r in compiled if r.taken)
    assert isinstance(rec.taken, bool)
    assert rec.kind.__class__ is trace.records[0].kind.__class__


def test_compiled_slice_matches_trace_slice():
    trace = make_trace("pointer_chase", seed=5, n_instructions=3000)
    compiled = compile_trace(trace)
    sub, ref = compiled.slice(500, 2000), trace.slice(500, 2000)
    assert _all_fields(sub) == _all_fields(ref.records)


def test_dump_load_roundtrip():
    trace = make_trace("specfp_like", seed=9, n_instructions=2500)
    compiled = compile_trace(trace)
    loaded = load_bytes(dump_bytes(compiled))
    assert loaded.name == compiled.name
    assert loaded.family == compiled.family
    assert loaded.seed == compiled.seed
    for col in ("pc", "kind", "taken", "target", "addr", "size",
                "src1", "src2", "line", "is_branch", "is_mem"):
        assert list(getattr(loaded, col)) == list(getattr(compiled, col))
    assert _all_fields(loaded.to_trace().records) == \
        _all_fields(trace.records)


@pytest.mark.parametrize("mutate", [
    lambda b: b"XXXX" + b[4:],                    # wrong magic
    lambda b: b[:40],                             # truncated header
    lambda b: b[:-8],                             # truncated body
    lambda b: b + b"\x00" * 8,                    # trailing bytes
    lambda b: b[:-4] + bytes(x ^ 0xFF for x in b[-4:]),  # flipped body
])
def test_load_bytes_rejects_corruption(mutate):
    compiled = compile_trace(make_trace("specint_like", seed=1,
                                        n_instructions=600))
    with pytest.raises(CompiledTraceError):
        load_bytes(mutate(dump_bytes(compiled)))


# ---------------------------------------------------------------------------
# Compiled-trace store: disk reuse and regeneration fallback
# ---------------------------------------------------------------------------

def test_store_round_trip_and_hit_counters(tmp_path):
    store = CompiledTraceStore(tmp_path)
    compiled = compile_trace(make_trace("specint_like", seed=2,
                                        n_instructions=800))
    fp = compiled_fingerprint("specint_like", 2, 800)
    assert store.get(fp) is None and store.misses == 1
    store.put(fp, compiled)
    got = store.get(fp)
    assert got is not None and store.hits == 1
    assert _all_fields(got) == _all_fields(compiled)


def test_build_compiled_regenerates_over_corrupt_store(monkeypatch,
                                                       tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec = TraceSpec(family="specint_like", seed=21, n_instructions=1200)
    _CTRACE_MEMO.clear()
    first = _build_compiled(spec.to_dict())
    blobs = list(tmp_path.glob(f"{CTRACE_DIRNAME}/*/*.ctrace"))
    assert len(blobs) == 1

    # Corrupt the blob; a fresh process (cleared memo) must fall back to
    # regeneration, produce identical records, and rewrite the entry.
    blobs[0].write_bytes(b"RPCT garbage that is not a compiled trace")
    _CTRACE_MEMO.clear()
    again = _build_compiled(spec.to_dict())
    assert _all_fields(again) == _all_fields(first)
    repaired = blobs[0].read_bytes()
    assert repaired[:4] == b"RPCT" and len(repaired) > 100
    assert _all_fields(load_bytes(repaired)) == _all_fields(first)


def test_store_disk_hit_skips_regeneration(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec = TraceSpec(family="pointer_chase", seed=8, n_instructions=1000)
    _CTRACE_MEMO.clear()
    first = _build_compiled(spec.to_dict())
    _CTRACE_MEMO.clear()  # simulate a fresh worker process
    from repro.engine.tasks import _TRACE_STATS
    before = dict(_TRACE_STATS)
    second = _build_compiled(spec.to_dict())
    assert _TRACE_STATS["store_hits"] == before["store_hits"] + 1
    assert _TRACE_STATS["generated"] == before["generated"]
    assert _all_fields(second) == _all_fields(first)


# ---------------------------------------------------------------------------
# SHP/LHP: lane-hashed indices == the direct hash composition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_tables,rows,ghist_bits", [(8, 1024, 165),
                                                      (16, 2048, 206)])
def test_shp_indices_match_direct_hashes(n_tables, rows, ghist_bits):
    for seed_salt in (0, 0x2F1):
        _check_shp_indices(n_tables, rows, ghist_bits, seed_salt)


def _check_shp_indices(n_tables, rows, ghist_bits, seed_salt):
    rng = random.Random(n_tables + seed_salt)
    shp = ScaledHashedPerceptron(n_tables, rows, ghist_bits=ghist_bits,
                                 phist_bits=80, seed_salt=seed_salt)
    # Both segment regimes: one-word segments (the fold is the
    # identity) and multi-word segments (the fold XORs words).
    widths = [hi - lo for lo, hi in
              shp.ghist_intervals + shp.phist_intervals]
    assert min(widths) <= 64 < max(widths)
    pcs = [rng.randrange(1 << 20) << 2 for _ in range(40)]
    fresh_pcs = 0
    for _ in range(2000):
        if rng.random() < 0.2:
            pc = rng.randrange(1 << 46) << 2  # never seen: the miss path
            assert pc not in shp._pc_memo
            fresh_pcs += 1
        else:
            pc = rng.choice(pcs)  # repeats exercise the memo hit path
        shp.ghist.restore(rng.getrandbits(ghist_bits))
        shp.phist.restore(rng.getrandbits(80))
        want = []
        for t in range(n_tables):
            glo, ghi = shp.ghist_intervals[t]
            plo, phi = shp.phist_intervals[t]
            g = mix_segment(shp.ghist.segment(glo, ghi), ghi - glo,
                            shp.index_bits, salt=t + 1)
            p = mix_segment(shp.phist.segment(plo, phi), phi - plo,
                            shp.index_bits, salt=0x40 + t)
            h = pc_hash(pc, shp.index_bits,
                        salt=(t + 1) * 0x51 + seed_salt)
            want.append((g ^ p ^ h) & (rows - 1))
        assert shp._indices(pc) == tuple(want)
    assert fresh_pcs > 100


def test_lhp_indices_match_direct_hashes():
    rng = random.Random(7)
    lhp = LocalHashedPerceptron()
    pcs = [rng.randrange(1 << 20) << 2 for _ in range(40)]
    for _ in range(2000):
        pc = rng.choice(pcs)
        lhist = rng.getrandbits(lhp.local_bits) & rng.choice([0xF, 0xFFFF])
        want = []
        for t in range(lhp.n_tables):
            lo, hi = lhp.intervals[t]
            seg = (lhist >> lo) & ((1 << (hi - lo)) - 1)
            h = fold_bits(seg, hi - lo, lhp.index_bits)
            p = pc_hash(pc, lhp.index_bits, salt=(t + 3) * 0x2B)
            want.append((h ^ p) & (lhp.rows - 1))
        assert lhp._indices(pc, lhist) == tuple(want)
        assert lhp._history_slot(pc) == pc_hash(
            pc, lhp.history_entries.bit_length() - 1, salt=0x77)


def test_lhp_update_returns_the_prediction_it_trained_on():
    rng = random.Random(11)
    lhp = LocalHashedPerceptron()
    pcs = [rng.randrange(1 << 20) << 2 for _ in range(12)]
    for _ in range(3000):
        pc = rng.choice(pcs)
        before = lhp.predict(pc)
        assert lhp.update(pc, rng.random() < 0.7) == before


# ---------------------------------------------------------------------------
# Bit-identity: production loop vs the record-object reference, every mode
# ---------------------------------------------------------------------------

_GENS = ("M1", "M6")


@pytest.fixture
def reference(monkeypatch):
    """``reference(fn, *args, **kwargs)`` calls ``fn`` with every
    in-process ``Scoreboard`` running :func:`reference_run` instead of
    ``Scoreboard.run`` (worker processes keep the production loop, so
    reference-side populations run with ``workers=1``)."""
    def call(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(Scoreboard, "run", reference_run)
            return fn(*args, **kwargs)
    return call


@pytest.mark.parametrize("gen", _GENS)
def test_single_run_identical(reference, gen):
    for i, family in enumerate(SUITE_WEIGHTS):
        spec = TraceSpec(family, 11 + i, 4000)
        ref = reference(repro.run, spec.build(), gen)
        prod = repro.run(spec, gen)
        assert _snap(prod) == _snap(ref), family
        assert prod.windows == ref.windows, family


def test_single_run_warmup_identical(reference):
    spec = TraceSpec("mobile_like", 6, 4000)
    ref = reference(repro.run, spec.build(), "M5")
    prod = repro.run(spec, "M5", warmup=1500)
    assert _snap(prod) == _snap(ref)


def test_event_stream_identical(reference):
    # Spec and plain-Trace inputs both reach the production loop; each
    # must stream exactly the reference's events, and tracing must not
    # move the untraced numbers.  pointer_chase on M4 has load-load
    # cascades and mispredicts.
    spec = TraceSpec("pointer_chase", 2, 1500)
    ref = reference(repro.run, spec.build(), "M4", trace_to=True)
    want = events_to_jsonl(ref.events)
    for trace in (spec, spec.build()):
        traced = repro.run(trace, "M4", trace_to=True)
        assert events_to_jsonl(traced.events) == want
        assert _snap(traced) == _snap(ref)
    assert _snap(repro.run(spec, "M4")) == _snap(ref)


def test_checkpoint_resume_identical_on_compiled_trace(reference):
    spec = TraceSpec(family="pointer_chase", seed=13, n_instructions=4000)
    compiled = _build_compiled(spec.to_dict())
    ref = reference(lambda: GenerationSimulator("M6").run(spec.build()))

    assert _snap(GenerationSimulator("M6").run(compiled)) == _snap(ref)

    # Resume on the production loop from a checkpoint taken by either
    # loop: both leave the same state behind.
    for first_run in (lambda sim, t: sim.run(t, finalize=False),
                      lambda sim, t: reference(sim.run, t, finalize=False)):
        first = GenerationSimulator("M6")
        first_run(first, compiled.slice(0, 1700))
        doc = json.loads(json.dumps(first.save_state()))
        resumed = GenerationSimulator("M6")
        resumed.restore(doc)
        assert _snap(resumed.run(compiled.slice(1700))) == _snap(ref)


def test_plain_trace_into_scoreboard_identical():
    cfg = get_generation("M6")
    trace = make_trace("web_like", seed=4, n_instructions=4000)

    def snapshot(run):
        memory = MemoryHierarchy(cfg)
        sb = Scoreboard(cfg, branch_unit=BranchUnit(cfg), memory=memory,
                        icache=InstructionCache(cfg, memory))
        run(sb)
        return json.dumps(sb.stats.registry.snapshot().values,
                          sort_keys=True)

    assert snapshot(lambda sb: sb.run(trace)) == \
        snapshot(lambda sb: reference_run(sb, trace))


def _population(workers, warmup=0):
    clear_caches()
    return run_population(n_slices=2, slice_length=3000, seed=2020,
                          generations=("M2", "M6"), workers=workers,
                          cache="off", warmup=warmup)


def test_population_archives_identical_serial_and_sharded(reference):
    ref = population_to_json(reference(_population, workers=1))
    assert population_to_json(_population(workers=1)) == ref
    assert population_to_json(_population(workers=2)) == ref
    assert population_to_json(_population(workers=1, warmup=1000)) == ref


# ---------------------------------------------------------------------------
# Observability: throughput lands in stats, ledger, profile, CLI
# ---------------------------------------------------------------------------

def test_engine_stats_track_instructions_and_kips():
    clear_caches()
    _, stats = execute_population(n_slices=1, slice_length=2000,
                                  generations=("M1",), cache="off")
    assert stats.instructions_total == 2000
    assert stats.instructions_executed == 2000
    assert stats.kips > 0.0
    text = __import__("repro.observe.profile",
                      fromlist=["describe_profile"]).describe_profile(stats)
    assert "trace prep:" in text
    assert "throughput:" in text and "kips" in text


def test_ledger_records_and_cli_show_kips(tmp_path, capsys, monkeypatch):
    import argparse

    from repro.cli import runs as runs_cli
    from repro.observe.ledger import read_ledger

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    repro.run(("specint_like", 17, 2000), "M3", ledger=True)
    records = read_ledger(tmp_path)
    assert len(records) == 1
    engine = records[0]["engine"]
    assert engine["instructions"] == 2000
    assert engine["kips"] > 0.0

    parser = argparse.ArgumentParser()
    runs_cli.configure_parser(parser)
    args = parser.parse_args(["--cache-dir", str(tmp_path), "list"])
    assert runs_cli.run(args) == 0
    out = capsys.readouterr().out
    assert "1 ledger records" in out
    assert "k" in out.splitlines()[-1]  # the KIPS column
