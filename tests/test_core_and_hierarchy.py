"""Scoreboard timing model, memory hierarchy integration, BranchUnit and
the whole-generation simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import get_generation
from repro.core import GenerationSimulator, Scoreboard, simulate
from repro.frontend import BranchUnit
from repro.memory import MemoryHierarchy
from repro.traces import Kind, Trace, TraceRecord, make_trace


def _alu_trace(n, dep=0):
    return Trace("alu", "micro",
                 [TraceRecord(pc=i * 4, kind=Kind.ALU, src1_dist=dep)
                  for i in range(n)])


# ---------------------------------------------------------------------------
# Scoreboard
# ---------------------------------------------------------------------------

def test_independent_alus_reach_width():
    cfg = get_generation("M3")  # 6-wide, 4 S-capable integer pipes
    stats = Scoreboard(cfg).run(_alu_trace(4000))
    assert stats.ipc > 3.0


def test_serial_chain_is_ipc_one():
    cfg = get_generation("M3")
    stats = Scoreboard(cfg).run(_alu_trace(2000, dep=1))
    assert 0.8 < stats.ipc <= 1.1


def test_wider_machine_faster_on_parallel_code():
    t = _alu_trace(4000)
    ipc1 = Scoreboard(get_generation("M1")).run(t).ipc
    ipc6 = Scoreboard(get_generation("M6")).run(t).ipc
    assert ipc6 > ipc1


def test_ipc_never_exceeds_fetch_width():
    for gen in ("M1", "M3", "M6"):
        cfg = get_generation(gen)
        stats = Scoreboard(cfg).run(_alu_trace(3000))
        assert stats.ipc <= cfg.fetch_width + 1e-6


def test_zero_cycle_moves_only_on_m3_plus():
    t = Trace("movs", "micro",
              [TraceRecord(pc=i * 4, kind=Kind.MOV) for i in range(1000)])
    m1 = Scoreboard(get_generation("M1")).run(t)
    m3 = Scoreboard(get_generation("M3")).run(t)
    assert m1.zero_cycle_moves == 0
    assert m3.zero_cycle_moves == 1000


def test_div_occupies_pipe():
    cfg = get_generation("M1")
    divs = Trace("divs", "micro",
                 [TraceRecord(pc=i * 4, kind=Kind.DIV) for i in range(200)])
    stats = Scoreboard(cfg).run(divs)
    assert stats.ipc < 0.2  # non-pipelined divide serialises


def test_load_load_cascading_counted_on_m4():
    recs = []
    for i in range(400):
        recs.append(TraceRecord(pc=i * 8, kind=Kind.LOAD, addr=0x1000,
                                src1_dist=1))
    t = Trace("ll", "micro", recs)
    m1 = Scoreboard(get_generation("M1")).run(t)
    m4 = Scoreboard(get_generation("M4")).run(t)
    assert m1.cascaded_loads == 0
    assert m4.cascaded_loads > 0
    assert m4.ipc > m1.ipc  # 3-cycle effective latency beats 4


def test_rob_limits_outstanding_window():
    # Long-latency load followed by a sea of independent ALUs: a tiny ROB
    # stalls dispatch behind the load.
    from dataclasses import replace
    cfg = get_generation("M1")
    small = replace(cfg, rob_size=8)
    recs = [TraceRecord(pc=0, kind=Kind.DIV)]
    recs += [TraceRecord(pc=4 + 4 * i, kind=Kind.ALU) for i in range(500)]
    t = Trace("rob", "micro", recs)
    big_ipc = Scoreboard(cfg).run(t).ipc
    small_ipc = Scoreboard(small).run(t).ipc
    assert small_ipc <= big_ipc


def test_mispredict_penalty_slows_core():
    # Unpredictable branches through the real branch unit.
    t = make_trace("hard_random", seed=3, n_instructions=6000)
    cfg = get_generation("M1")
    with_bu = Scoreboard(cfg, branch_unit=BranchUnit(cfg)).run(t)
    perfect = Scoreboard(cfg).run(t)
    assert with_bu.branch_mispredicts > 0
    assert with_bu.ipc < perfect.ipc


# ---------------------------------------------------------------------------
# Memory hierarchy integration
# ---------------------------------------------------------------------------

def test_l1_hit_costs_hit_latency():
    m = MemoryHierarchy(get_generation("M1"))
    m.access(0x0, 0x1000, now=0.0)            # cold miss
    lat = m.access(0x0, 0x1000, now=1000.0)   # warm hit
    assert lat == m.config.l1_hit_latency
    assert m.stats.l1_hits == 1


def test_miss_descends_hierarchy():
    m = MemoryHierarchy(get_generation("M3"))
    lat = m.access(0x0, 0x40_0000, now=0.0)
    assert lat > m.config.l2_avg_latency
    assert m.stats.dram_accesses == 1


def test_exclusive_l3_swaps_inward():
    m = MemoryHierarchy(get_generation("M3"))
    m.access(0x0, 0x9000, now=0.0)
    m.l1.invalidate(0x9000)
    m.access(0x0, 0x9000, now=50.0)  # L2 hit marks the line reused
    # Force the line out of L1 and L2 into the L3.
    m.l1.invalidate(0x9000)
    victim = m.l2.invalidate(0x9000)
    assert victim is not None
    m._handle_l2_castout(victim)
    assert m.l3.contains(0x9000)
    m.access(0x0, 0x9000, now=200.0)
    assert not m.l3.contains(0x9000)  # exclusivity: swapped back inward
    assert m.stats.l3_hits == 1


def test_stream_prefetching_reduces_latency():
    cfg = get_generation("M5")
    m = MemoryHierarchy(cfg)
    lats = []
    now = 0.0
    for i in range(600):
        lat = m.access(0x0, 0x100_0000 + i * 64, now=now)
        lats.append(lat)
        now += 30.0
    cold = sum(lats[:50]) / 50
    warm = sum(lats[-100:]) / 100
    assert warm < cold * 0.5
    assert m.stats.prefetches_issued > 0


def test_m1_vs_m5_prefetch_coverage_on_stream():
    t = make_trace("stream_like", seed=4, n_instructions=10000)
    res = {}
    for gen in ("M1", "M5"):
        r = GenerationSimulator(get_generation(gen)).run(t)
        res[gen] = r.average_load_latency
    assert res["M5"] < res["M1"]


def test_tlb_walks_counted():
    m = MemoryHierarchy(get_generation("M1"))
    for i in range(8):
        m.access(0x0, i * (1 << 20), now=float(i))
    assert m.tlb.walks > 0


# ---------------------------------------------------------------------------
# BranchUnit end-to-end
# ---------------------------------------------------------------------------

def test_branch_unit_stats_consistent():
    t = make_trace("specint_like", seed=11, n_instructions=15000)
    u = BranchUnit(get_generation("M3"))
    s = u.run_trace(t)
    assert s.instructions == 15000
    assert s.mispredicts <= s.branches
    assert s.conditional_mispredicts <= s.conditional_branches
    assert 0 <= s.mpki < 1000
    assert s.taken_branches <= s.branches


def test_branch_unit_learns_loop_kernel():
    t = make_trace("loop_kernel", seed=2, n_instructions=12000)
    u = BranchUnit(get_generation("M1"))
    s = u.run_trace(t)
    assert s.mpki < 5.0


def test_zero_bubble_redirects_grow_with_generation():
    t = make_trace("loop_kernel", seed=2, n_instructions=12000)
    m1 = BranchUnit(get_generation("M1"))
    m5 = BranchUnit(get_generation("M5"))
    s1 = m1.run_trace(t)
    s5 = m5.run_trace(t)
    assert s5.bubbles_per_branch <= s1.bubbles_per_branch


def test_ras_predicts_call_return_perfectly():
    recs = []
    pc_call, pc_ret, body = 0x1000, 0x8000, 0x8004
    for i in range(300):
        recs.append(TraceRecord(pc=pc_call, kind=Kind.BR_CALL, taken=True,
                                target=pc_ret - 4))
        recs.append(TraceRecord(pc=pc_ret - 4, kind=Kind.ALU))
        recs.append(TraceRecord(pc=pc_ret, kind=Kind.BR_RET, taken=True,
                                target=pc_call + 4))
        recs.append(TraceRecord(pc=pc_call + 4, kind=Kind.BR_UNCOND,
                                taken=True, target=pc_call))
    t = Trace("callret", "micro", recs)
    u = BranchUnit(get_generation("M1"))
    s = u.run_trace(t)
    assert s.return_mispredicts <= 1  # first encounter at most


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_branch_unit_never_crashes_on_any_family_slice(seed):
    t = make_trace("mobile_like", seed=seed, n_instructions=1500)
    u = BranchUnit(get_generation("M5"))
    s = u.run_trace(t)
    assert s.instructions == 1500


# ---------------------------------------------------------------------------
# Whole-generation simulator
# ---------------------------------------------------------------------------

def test_simulate_end_to_end():
    r = simulate("M5", make_trace("specint_like", seed=1,
                                  n_instructions=8000))
    assert r.generation == "M5"
    assert 0 < r.ipc <= 6.0
    assert r.mpki >= 0
    assert r.average_load_latency >= 3.0


def test_generational_ipc_ordering_on_suite_sample():
    t = make_trace("specint_like", seed=9, n_instructions=10000)
    ipcs = [GenerationSimulator(get_generation(g)).run(t).ipc
            for g in ("M1", "M3", "M5", "M6")]
    assert ipcs == sorted(ipcs)  # monotone across the sampled generations


def test_simulator_determinism():
    t = make_trace("web_like", seed=5, n_instructions=5000)
    a = GenerationSimulator(get_generation("M4")).run(t)
    b = GenerationSimulator(get_generation("M4")).run(t)
    assert a.ipc == b.ipc and a.mpki == b.mpki


def test_uoc_only_engages_on_m5_plus():
    t = make_trace("loop_kernel", seed=1, n_instructions=8000)
    r4 = GenerationSimulator(get_generation("M4")).run(t)
    r5 = GenerationSimulator(get_generation("M5")).run(t)
    assert r4.uoc_fetch_fraction == 0.0
    assert r5.uoc_fetch_fraction > 0.2  # repeatable kernel mostly from UOC


def test_uoc_saves_frontend_energy_on_kernel():
    t = make_trace("loop_kernel", seed=1, n_instructions=8000)
    r4 = GenerationSimulator(get_generation("M4")).run(t)
    r5 = GenerationSimulator(get_generation("M5")).run(t)
    def fe(r):
        return (r.ledger.energy("icache_fetch") + r.ledger.energy("decode")
                + r.ledger.energy("uoc_fetch") + r.ledger.energy("uoc_build"))
    assert fe(r5) < fe(r4)


GAUGES = ("frontend.btb.misses", "mem.tlb.walks", "mem.dram.page_hits",
          "core.icache.misses", "mem.l2.cache.hits")


@pytest.mark.parametrize("gen", ["M1", "M4", "M6"])
def test_finished_simulator_is_freed_by_reference_counting(gen):
    """No reference cycle runs through the metric registry: its gauges
    hold the structures they read, never their owners, so dropping a
    simulator frees it at once instead of leaving it (caches, BTBs and
    all) for the cyclic collector.  The result's registry keeps
    reading the same values afterwards."""
    import gc
    import weakref
    t = make_trace("specint_like", seed=3, n_instructions=3000)
    gc.collect()
    gc.disable()
    try:
        sim = GenerationSimulator(get_generation(gen))
        result = sim.run(t)
        before = [result.metrics.value(name) for name in GAUGES]
        alive = weakref.ref(sim)
        del sim
        assert alive() is None
        assert [result.metrics.value(name) for name in GAUGES] == before
    finally:
        gc.enable()


def test_branch_gauges_follow_a_flush():
    cfg = get_generation("M5")
    sim = GenerationSimulator(cfg)
    sim.run(make_trace("btb_stress", seed=2, n_instructions=3000))
    reg = sim.metrics
    assert reg.value("frontend.btb.misses") > 0
    sim.branch_unit.context_switch("flush")
    assert reg.value("frontend.btb.misses") == sim.branch_unit.btb.misses == 0
