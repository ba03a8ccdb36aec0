"""Set-associative cache (incl. sectoring) and TLB hierarchy."""

import gzip
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import get_generation
from repro.memory.cache import CacheLine, SetAssocCache
from repro.memory.tlb import PAGE_WALK_LATENCY, Tlb, TranslationHierarchy
from repro.config import TlbConfig


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def test_cache_miss_then_hit():
    c = SetAssocCache(4096, 4)
    assert c.probe(0x100) is None
    c.fill(0x100)
    assert c.probe(0x100) is not None
    assert c.hits == 1 and c.misses == 1


def test_cache_same_line_offsets_hit():
    c = SetAssocCache(4096, 4)
    c.fill(0x1000)
    assert c.probe(0x103F) is not None  # same 64B line
    assert c.probe(0x1040) is None      # next line


def test_cache_lru_eviction():
    c = SetAssocCache(4 * 64, 4)  # one set of four ways
    for i in range(4):
        c.fill(i * 64)
    c.probe(0)           # touch line 0 (now MRU)
    victim = c.fill(4 * 64)
    assert victim is not None
    assert victim.address == 64  # LRU was line 1
    assert c.probe(0) is not None


def test_sectored_cache_buddy_slot_invalid():
    """Section VIII-B: a 128B sector tag with only one 64B line valid —
    the buddy slot is a miss until buddy-prefetched."""
    c = SetAssocCache(8192, 4, sector_bytes=128)
    c.fill(0x1000)
    assert c.probe(0x1000) is not None
    assert c.probe(0x1040) is None  # buddy subline invalid
    c.fill(0x1040, prefetched=True)
    assert c.probe(0x1040) is not None
    # Both sublines share one tag entry.
    assert c.resident_count == 1


def test_sector_evicted_as_unit():
    c = SetAssocCache(2 * 128, 2, sector_bytes=128)  # one set, 2 ways
    c.fill(0x0)
    c.fill(0x40)
    c.fill(0x80)
    victim = c.fill(0x100)
    assert victim is not None and victim.address == 0x0
    assert victim.valid_mask == 0b11


def test_insert_lru_position():
    c = SetAssocCache(4 * 64, 4)
    for i in range(4):
        c.fill(i * 64)
    c.fill(4 * 64, insert_lru=True)  # "ordinary" insertion
    # Inserting one more evicts the ordinary-state line first.
    c.fill(5 * 64)
    assert c.peek(4 * 64) is None


def test_invalidate():
    c = SetAssocCache(4096, 4)
    c.fill(0x200)
    assert c.invalidate(0x200) is not None
    assert c.probe(0x200) is None
    assert c.invalidate(0x200) is None


def test_dirty_and_metadata_bits():
    c = SetAssocCache(4096, 4)
    c.fill(0x300, dirty=True, prefetched=True)
    line = c.probe(0x300)
    assert line.dirty and line.prefetched
    assert line.hit_count == 1


def test_cache_line_is_slotted():
    line = CacheLine(0x40, 0b1, True)
    assert not hasattr(line, "__dict__")
    with pytest.raises(AttributeError):
        line.colour = 1
    assert (line.dirty, line.prefetched, line.accessed, line.hit_count,
            line.reallocated, line.rrpv) == (True, False, False, 0, False, 0)
    assert repr(line).startswith("CacheLine(address=64, valid_mask=1, ")


def test_cache_validation():
    with pytest.raises(ValueError):
        SetAssocCache(0, 4)
    with pytest.raises(ValueError):
        SetAssocCache(4096, 4, line_bytes=64, sector_bytes=96)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                max_size=200))
def test_cache_capacity_invariant(addresses):
    c = SetAssocCache(2048, 4, sector_bytes=128)
    for a in addresses:
        if c.probe(a) is None:
            c.fill(a)
    assert c.resident_count <= c.num_entries
    # Every resident sector base is sector-aligned.
    for line in c.iter_lines():
        assert line.address % c.sector_bytes == 0


# ---------------------------------------------------------------------------
# TLB
# ---------------------------------------------------------------------------

def test_tlb_miss_then_hit():
    t = Tlb(TlbConfig(entries=16, ways=4))
    assert not t.probe(0x1000)
    t.fill(0x1000)
    assert t.probe(0x1FFF)  # same 4KB page
    assert not t.probe(0x2000)


def test_sectored_tlb_covers_multiple_pages():
    t = Tlb(TlbConfig(entries=16, ways=4, sectors=4))
    t.fill(0x0000)
    assert t.probe(0x3FFF)  # fourth page of the sector
    assert not t.probe(0x4000)


def test_translation_hierarchy_levels_and_latency():
    h = TranslationHierarchy(get_generation("M3"))
    r = h.translate(0x10_0000)
    assert r.level == "walk" and r.latency == PAGE_WALK_LATENCY
    r2 = h.translate(0x10_0000)
    assert r2.level == "l1" and r2.latency == 0.0


def test_l15_tlb_catches_l1_capacity_spill():
    h = TranslationHierarchy(get_generation("M3"))
    # Fill beyond L1 capacity (32 pages on M3) but within L1.5 (512).
    for i in range(64):
        h.translate(i * 4096)
    r = h.translate(0)
    assert r.level in ("l1", "l1.5")  # not a walk


def test_m1_has_no_l15():
    h = TranslationHierarchy(get_generation("M1"))
    assert h.l15 is None


def test_prefetch_fill_avoids_future_walk():
    h = TranslationHierarchy(get_generation("M3"))
    h.prefetch_fill(0x80_0000)
    r = h.translate(0x80_0000)
    assert r.level != "walk"


# ---------------------------------------------------------------------------
# Storage layout: lazy sets, state_dict shape, modulo geometries
# ---------------------------------------------------------------------------

def test_fresh_cache_state_lists_every_set():
    c = SetAssocCache(3 * 1024 * 1024, 16, name="L3")  # 3072 sets
    state = c.state_dict()
    assert len(state["sets"]) == c.num_sets == 3072
    assert all(s == [] for s in state["sets"])
    assert c.resident_count == 0 and list(c.iter_lines()) == []


def test_partly_filled_cache_state_roundtrips():
    c = SetAssocCache(64 * 1024, 4, sector_bytes=128, name="L2")
    for addr in (0x0, 0x40, 0x80, 0x12340, 0x99900, 0x12340 + 128 * 128):
        c.fill(addr, prefetched=addr == 0x80)
    c.probe(0x12340)
    state = c.state_dict()
    assert len(state["sets"]) == c.num_sets
    # Every resident sector is listed under its own set index, in order.
    for idx, s in enumerate(state["sets"]):
        for sector, _ in s:
            assert (sector // 128) % c.num_sets == idx
    fresh = SetAssocCache(64 * 1024, 4, sector_bytes=128, name="L2")
    fresh.load_state_dict(state)
    assert fresh.state_dict() == state
    assert fresh.resident_count == c.resident_count == 5
    assert [ln.address for ln in fresh.iter_lines()] == \
        [ln.address for ln in c.iter_lines()]
    # The loaded cache keeps working: same hits, same victims.
    for addr in range(0, 1 << 20, 4096 + 64):
        a, b = c.fill(addr), fresh.fill(addr)
        assert (a and a.address) == (b and b.address)
    assert c.state_dict() == fresh.state_dict()


def test_tlb_state_lists_every_set_and_roundtrips():
    cfg = TlbConfig(1024, 4, 4)
    t = Tlb(cfg)
    assert t.state_dict()["sets"] == [[] for _ in range(t.num_sets)]
    for page in (0, 5, 17, 300, 4096, 70000):
        t.fill(page * 4096)
    state = t.state_dict()
    assert len(state["sets"]) == t.num_sets
    fresh = Tlb(cfg)
    fresh.load_state_dict(state)
    assert fresh.state_dict() == state
    assert fresh.probe(300 * 4096) and not fresh.probe(301 * 4096 * 4)


class _NaiveCache:
    """Reference LRU cache: ``%``/``//`` set indexing, one list per set."""

    def __init__(self, num_sets, ways, sector_bytes):
        self.num_sets, self.ways, self.sb = num_sets, ways, sector_bytes
        self.sets = [[] for _ in range(num_sets)]  # [sector, ...] LRU first

    def _where(self, addr):
        sector = addr - addr % self.sb
        return sector, self.sets[(sector // self.sb) % self.num_sets]

    def probe(self, addr):
        sector, s = self._where(addr)
        if sector in s:
            s.remove(sector)
            s.append(sector)
            return True
        return False

    def fill(self, addr, insert_lru=False):
        sector, s = self._where(addr)
        if sector in s:
            s.remove(sector)
            s.append(sector)
            return None
        victim = s.pop(0) if len(s) >= self.ways else None
        if insert_lru:
            s.insert(0, sector)
        else:
            s.append(sector)
        return victim

    def invalidate(self, addr):
        sector, s = self._where(addr)
        if sector in s:
            s.remove(sector)
            return sector
        return None


@pytest.mark.parametrize("gen,level", [("M4", "l3"), ("M6", "l3"),
                                       ("M6", "l2")])
def test_cache_matches_naive_reference(gen, level):
    """M4's 3 MiB L3 has 3072 sets (the modulo path); M6's L3 and
    sectored L2 are powers of two (the shift/mask path)."""
    import random

    geo = getattr(get_generation(gen), level)
    sector = geo.sector_bytes if level == "l2" else 64
    c = SetAssocCache(geo.size_bytes, geo.ways, sector_bytes=sector)
    ref = _NaiveCache(c.num_sets, c.ways, sector)
    assert (c.num_sets == 3072) == (gen == "M4")
    rng = random.Random(99)
    hot = [rng.randrange(1 << 34) for _ in range(c.num_sets * 3)]
    for _ in range(60000):
        addr = rng.choice(hot) if rng.random() < 0.7 \
            else rng.randrange(1 << 34)
        op = rng.random()
        if op < 0.5:
            # Fills install a sector's base line, so probing the base
            # line sees exactly the tag presence the naive model tracks.
            sector_base = addr - addr % sector
            assert (c.probe(sector_base) is not None) == ref.probe(addr)
        elif op < 0.95:
            lru = rng.random() < 0.3
            victim = c.fill(addr - addr % sector, insert_lru=lru)
            assert (victim and victim.address) == ref.fill(addr, lru)
        else:
            gone = c.invalidate(addr)
            assert (gone and gone.address) == ref.invalidate(addr)
    for idx, s in enumerate(c.state_dict()["sets"]):
        assert [sector for sector, _ in s] == ref.sets[idx]


@pytest.mark.parametrize("gen", ["M4", "M5", "M6"])
def test_l1d_tlb_matches_naive_reference(gen):
    """The M4/M5 L1D TLB is 48-way fully associative; M6's has 128."""
    import random

    cfg = get_generation(gen).l1d_tlb
    t = Tlb(cfg)
    assert t.num_sets == 1
    ref = _NaiveCache(1, t.ways, 4096 * cfg.sectors)
    rng = random.Random(5)
    for _ in range(20000):
        addr = rng.randrange(t.ways * 3) * 4096 + rng.randrange(4096)
        hit = t.probe(addr)
        assert hit == ref.probe(addr)
        if not hit:
            t.fill(addr)
            ref.fill(addr)
    assert t.state_dict()["sets"][0] == [
        s // (4096 * cfg.sectors) for s in ref.sets[0]]


# ---------------------------------------------------------------------------
# Checkpoints written by an earlier build still load and resume
# ---------------------------------------------------------------------------

CHECKPOINTS = Path(__file__).parent / "golden"
_CKPT_SPEC = ("specint_like", 7, 2000)
_CKPT_SPLIT = 1000


def _ckpt_path(gen):
    return CHECKPOINTS / f"checkpoint_{gen}.json.gz"


def write_checkpoints() -> None:
    """Regenerate the golden checkpoints (specint_like, 2000 µops, cut at
    µop 1000) — only when the state layout changes on purpose."""
    from repro.core import GenerationSimulator
    from repro.state import checkpoint_to_json
    from repro.traces import TraceSpec

    trace = TraceSpec(*_CKPT_SPEC).build()
    for gen in ("M4", "M6"):
        sim = GenerationSimulator(gen)
        sim.run(trace.slice(0, _CKPT_SPLIT), finalize=False)
        text = checkpoint_to_json(sim.save_state())
        _ckpt_path(gen).write_bytes(
            gzip.compress(text.encode(), compresslevel=9, mtime=0))


@pytest.mark.parametrize("gen", ["M4", "M6"])
def test_golden_checkpoint_loads_and_resumes(gen):
    from repro.core import GenerationSimulator
    from repro.state import checkpoint_to_json
    from repro.traces import TraceSpec

    doc = json.loads(gzip.decompress(_ckpt_path(gen).read_bytes()))
    trace = TraceSpec(*_CKPT_SPEC).build()
    resumed = GenerationSimulator(gen)
    resumed.restore(doc)
    # The layout is unchanged: the loaded state saves back to the same
    # document, field for field.
    again = json.loads(checkpoint_to_json(resumed.save_state()))
    assert again["components"] == doc["components"]
    mem = resumed.memory
    for cache in (mem.l1, mem.l2, mem.l3):
        assert cache.resident_count == sum(
            len(s) for s in doc["components"]["memory"][
                {"L1D": "l1", "L2": "l2", "L3": "l3"}[cache.name]]["sets"])
        assert sum(1 for _ in cache.iter_lines()) == cache.resident_count
    result = resumed.run(trace.slice(_CKPT_SPLIT))
    full = GenerationSimulator(gen).run(trace)
    assert result.metrics.as_dict() == full.metrics.as_dict()
    assert result.core.cycles == full.core.cycles
