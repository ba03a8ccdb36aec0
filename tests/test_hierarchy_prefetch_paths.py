"""Prefetch-engine paths through the full MemoryHierarchy."""

from repro.config import get_generation
from repro.core import GenerationSimulator
from repro.memory import MemoryHierarchy
from repro.traces import make_trace


def test_sms_covers_pointer_chase_fields_on_m3():
    """M3's SMS engine is the only mechanism that helps linked-structure
    field accesses; M1 has nothing for them."""
    t = make_trace("pointer_chase", seed=6, n_instructions=12_000)
    m1 = GenerationSimulator(get_generation("M1")).run(t)
    m3 = GenerationSimulator(get_generation("M3")).run(t)
    sim3 = GenerationSimulator(get_generation("M3"))
    sim3.run(t)
    assert sim3.memory.sms is not None
    assert (sim3.memory.sms.issued_l1 + sim3.memory.sms.issued_l2) > 0
    assert m3.average_load_latency <= m1.average_load_latency * 1.05


def test_stride_confirmations_suppress_sms():
    """On a pure stream the stride engine owns the pattern; SMS should be
    mostly suppressed (Section VII-C)."""
    t = make_trace("stream_like", seed=2, n_instructions=10_000)
    sim = GenerationSimulator(get_generation("M3"))
    sim.run(t)
    sms = sim.memory.sms
    assert sms.suppressed > sms.trainings * 0.3


def test_virtual_prefetcher_preloads_tlb():
    """The L1 prefetcher crossing a page boundary preloads the
    translation (Section VII-A: 'inherently acts as a simple TLB
    prefetcher')."""
    cfg = get_generation("M3")
    m = MemoryHierarchy(cfg)
    now = 0.0
    walks_mid = None
    for i in range(600):
        m.access(0x0, 0x70_0000 + i * 64, now=now)
        now += 25.0
        if i == 300:
            walks_mid = m.tlb.walks
    # After the stream is established, page crossings stop walking.
    assert m.tlb.walks == walks_mid


def test_integrated_confirmation_keeps_degree_up():
    """M3's integrated queue confirms from the pattern even when issue
    lags; the stride engine's degree should ramp on a clean stream."""
    t = make_trace("stream_like", seed=3, n_instructions=10_000)
    sim = GenerationSimulator(get_generation("M3"))
    sim.run(t)
    stride = sim.memory.stride
    assert stride.confirmed > 0
    assert any(s.degree.degree > sim.config.prefetch.min_degree
               for s in stride.streams)


def test_exclusive_l3_never_duplicates_l2_lines():
    """Exclusivity invariant: after any access, a line never sits in both
    the L2 and the L3."""
    t = make_trace("specint_like", seed=4, n_instructions=10_000)
    sim = GenerationSimulator(get_generation("M3"))
    sim.run(t)
    m = sim.memory
    l3_sectors = {line.address for line in m.l3.iter_lines()}
    dups = 0
    for line in m.l2.iter_lines():
        for off in range(0, m.l2.sector_bytes, 64):
            if line.valid_mask & (1 << (off // 64)):
                addr = line.address + off
                if m.l3.peek(addr):
                    dups += 1
    # Buddy/standalone fills can transiently overlap; demand lines do not.
    assert dups <= m.stats.prefetches_issued * 0.05 + 2


def test_mab_pressure_shows_on_m1_streaming():
    """M1's 8 miss buffers saturate on DRAM streams; M4's 32-entry MAB
    does not."""
    t = make_trace("stream_like", seed=5, n_instructions=8000)
    sim1 = GenerationSimulator(get_generation("M1"))
    sim1.run(t)
    sim4 = GenerationSimulator(get_generation("M4"))
    sim4.run(t)
    rate1 = sim1.memory.mab.stalls / max(1, sim1.memory.mab.allocations)
    rate4 = sim4.memory.mab.stalls / max(1, sim4.memory.mab.allocations)
    assert rate1 >= rate4
