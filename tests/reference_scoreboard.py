"""The record-object scoreboard loop: the reference for ``Scoreboard.run``.

``repro.core.scoreboard.Scoreboard.run`` compiles its input into flat
columns and indexes per-kind latency and port tables.  This module keeps
the loop it replaced: one ``TraceRecord`` at a time, per-record
``Kind`` comparisons through :func:`_exec_latency` and
:func:`_port_for`, and the instruction counter bumped per record.  It
reads and writes the same scoreboard state (registry cells, port
groups, completion and ROB rings, the scalars ``state_dict`` saves), so
a scoreboard driven by :func:`reference_run` can be checkpointed,
resumed, windowed and traced exactly like one driven by ``run``.

``tests/test_fastpath.py`` swaps it in for ``Scoreboard.run`` and
requires byte-identical metrics, windows, event streams, checkpoints
and population archives; ``benchmarks/test_throughput.py`` times the
production loop against it.  Both loops compute every value with the
same expressions in the same order.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.scoreboard import (_DEP_WINDOW, _LAT_ALU, _LAT_DIV,
                                   _LAT_MUL, CoreStats, Scoreboard,
                                   _PortGroup)
from repro.observe.events import InstEvent
from repro.traces.types import Kind, TraceRecord


def _exec_latency(sb: Scoreboard, rec: TraceRecord) -> float:
    k = rec.kind
    if k == Kind.ALU or k == Kind.NOP:
        return _LAT_ALU
    if k == Kind.MOV:
        return 0.0 if sb.config.has_zero_cycle_moves else _LAT_ALU
    if k == Kind.MUL:
        return _LAT_MUL
    if k == Kind.DIV:
        return _LAT_DIV
    fmac, fmul, fadd = sb.config.fp_latencies
    if k == Kind.FP_MAC:
        return fmac
    if k == Kind.FP_MUL:
        return fmul
    if k == Kind.FP_ADD:
        return fadd
    return _LAT_ALU  # branches resolve in one cycle once issued


def _port_for(sb: Scoreboard, rec: TraceRecord) -> Optional[_PortGroup]:
    k = rec.kind
    if k in (Kind.ALU, Kind.NOP):
        return sb._simple
    if k == Kind.MOV:
        return None if sb.config.has_zero_cycle_moves else sb._simple
    if k == Kind.MUL:
        return sb._complex
    if k == Kind.DIV:
        return sb._div
    if k in (Kind.FP_ADD, Kind.FP_MUL):
        return sb._fp
    if k == Kind.FP_MAC:
        return sb._fmac
    if k == Kind.LOAD:
        return sb._load
    if k == Kind.STORE:
        return sb._store
    return sb._branch


def reference_run(sb: Scoreboard, trace,
                  on_window: Optional[Callable[[], None]] = None,
                  window_interval: int = 0) -> CoreStats:
    """``Scoreboard.run`` as the record-object loop: same signature
    (with the scoreboard first), same state, same results."""
    cfg = sb.config
    stats = sb.stats
    c_instr = stats.cell("instructions")
    c_cycles = stats.cell("cycles")
    c_loads = stats.cell("loads")
    c_stores = stats.cell("stores")
    c_mispredicts = stats.cell("branch_mispredicts")
    c_bubbles = stats.cell("fetch_bubble_cycles")
    c_mp_stall = stats.cell("mispredict_stall_cycles")
    c_ic_stall = stats.cell("icache_stall_cycles")
    c_cascaded = stats.cell("cascaded_loads")
    c_zcm = stats.cell("zero_cycle_moves")
    c_st_mp = stats.cell("stall_mispredict_cycles")
    c_st_fe = stats.cell("stall_frontend_cycles")
    c_st_mem = stats.cell("stall_memory_cycles")

    # Local aliases of the resumable execution state (list state is
    # shared in place; scalars are written back after the loop).
    completions = sb._completions  # ring buffer
    is_load_at = sb._is_load_at
    rob = sb._rob  # retire-time ring
    rob_pos = sb._rob_pos
    fetch_time = sb._fetch_time
    group_count = sb._group_count
    group_branches = sb._group_branches
    last_completion = sb._last_completion
    current_fetch_line = sb._current_fetch_line
    i = sb._index
    # Window countdown; 0 disables windowing entirely.  The countdown
    # carries across run segments so a checkpoint/resume pair closes
    # windows at the same absolute instruction counts.
    windowing = window_interval > 0 and on_window is not None
    if windowing and sb._until_window < 0:
        sb._until_window = window_interval
    until_window = sb._until_window if windowing else -1
    # Flight recorder (None = tracing off).  Tracing only *reads*
    # values the loop computed anyway, so attaching a sink never
    # changes simulated timing.
    trc = sb.sink
    on_branch = sb.on_branch

    for rec in trace:
        c_instr.value += 1
        ic_stall = 0.0
        branch_result = None

        # ---- fetch/dispatch supply -----------------------------------
        if group_count >= cfg.fetch_width:
            fetch_time += 1.0
            group_count = 0
            group_branches = 0
        if sb.icache is not None:
            line = rec.pc & ~63
            if line != current_fetch_line:
                current_fetch_line = line
                stall = sb.icache.fetch_line(rec.pc, now=fetch_time)
                if stall:
                    fetch_time += stall
                    c_ic_stall.value += stall
                    group_count = 0
                    group_branches = 0
                    ic_stall = stall
        dispatch = fetch_time
        if trc is not None:
            ev_fetch = dispatch  # fetch supply before ROB backpressure
        # ROB occupancy: the slot reused now must have retired.
        oldest = rob[rob_pos]
        if oldest > dispatch:
            dispatch = oldest
            fetch_time = oldest  # front end backs up behind the ROB
            group_count = 0
            group_branches = 0
        group_count += 1

        # ---- dependences ---------------------------------------------
        ready = dispatch
        cascade_ok = (cfg.has_load_load_cascading
                      and rec.kind == Kind.LOAD)
        for dist in (rec.src1_dist, rec.src2_dist):
            if 0 < dist <= _DEP_WINDOW and dist <= i:
                t = completions[(i - dist) % _DEP_WINDOW]
                if cascade_ok and is_load_at[(i - dist) % _DEP_WINDOW]:
                    # Load-load cascading: forwarded one cycle early.
                    t -= 1.0
                    c_cascaded.value += 1
                if t > ready:
                    ready = t

        # ---- issue + execute -----------------------------------------
        port = _port_for(sb, rec)
        if port is None:
            issue = ready
            c_zcm.value += 1
        else:
            occupancy = _LAT_DIV if rec.kind == Kind.DIV else 1.0
            issue = port.issue(ready, occupancy)
        if rec.kind == Kind.LOAD:
            c_loads.value += 1
            if sb.memory is not None:
                latency = sb.memory.access(rec.pc, rec.addr,
                                       now=issue, is_store=False)
            else:
                latency = cfg.l1_hit_latency
        elif rec.kind == Kind.STORE:
            c_stores.value += 1
            if sb.memory is not None:
                sb.memory.access(rec.pc, rec.addr, now=issue,
                                   is_store=True)
            latency = 1.0  # store-buffer commit, off the critical path
        else:
            latency = _exec_latency(sb, rec)
        completion = issue + latency
        completions[i % _DEP_WINDOW] = completion
        is_load_at[i % _DEP_WINDOW] = rec.kind == Kind.LOAD

        # ---- retirement bookkeeping ----------------------------------
        rob[rob_pos] = completion
        rob_pos = (rob_pos + 1) % cfg.rob_size
        if completion > last_completion:
            last_completion = completion

        # ---- branch outcome into the front end ------------------------
        if rec.is_branch:
            group_branches += 1
            if sb.branch_unit is not None:
                result = sb.branch_unit.process_branch(rec, now=completion)
                branch_result = result
                if result.mispredicted:
                    c_mispredicts.value += 1
                    restart = completion + cfg.mispredict_penalty
                    c_mp_stall.value += max(0.0, restart - fetch_time)
                    fetch_time = max(fetch_time, restart)
                    group_count = 0
                    group_branches = 0
                elif rec.taken:
                    if result.bubbles:
                        c_bubbles.value += result.bubbles
                        fetch_time += result.bubbles
                    # A taken branch ends the fetch group.
                    fetch_time += 1.0
                    group_count = 0
                    group_branches = 0
                elif group_branches >= 2:
                    # Two predictions per cycle max; a second
                    # not-taken branch closes the group
                    # (Section IV-A's dual-prediction support).
                    fetch_time += 1.0
                    group_count = 0
                    group_branches = 0
            else:
                if rec.taken:
                    fetch_time += 1.0
                    group_count = 0
                    group_branches = 0
            if on_branch is not None:
                on_branch(rec, i)

        # ---- stall attribution (CPI-stack buckets) -------------------
        # Mirrors the interval model's CPI buckets; priority
        # mispredict > front end > memory.  Computed every retire —
        # the counters feed windowed stall buckets with tracing off,
        # and the same (bucket, stall) pair stamps the InstEvent, so
        # a trace histogram reconciles with the counters exactly.
        bucket = "base"
        stall = 0.0
        if ic_stall:
            bucket = "frontend_bubbles"
            stall = ic_stall
        if rec.kind == Kind.LOAD:
            exposed = latency - cfg.l1_hit_latency
            if exposed > stall:
                bucket = "memory"
                stall = exposed
        if branch_result is not None:
            if branch_result.mispredicted:
                bucket = "mispredict"
                stall = float(cfg.mispredict_penalty)
            elif branch_result.bubbles > stall:
                bucket = "frontend_bubbles"
                stall = float(branch_result.bubbles)
        if stall:
            if bucket == "mispredict":
                c_st_mp.value += stall
            elif bucket == "frontend_bubbles":
                c_st_fe.value += stall
            else:
                c_st_mem.value += stall

        # ---- flight recorder -----------------------------------------
        if trc is not None:
            trc.emit(InstEvent(
                seq=-1, cycle=completion, index=i, pc=rec.pc,
                kind=rec.kind.name, fetch=ev_fetch, dispatch=dispatch,
                ready=ready, issue=issue, complete=completion,
                retire=completion, stall=bucket,
                stall_cycles=float(stall)))

        # ---- metrics window boundary ---------------------------------
        i += 1
        if windowing:
            until_window -= 1
            if until_window == 0:
                until_window = window_interval
                # Publish a provisional cycle count so the window
                # delta sees elapsed cycles; overwritten at end of
                # run and at every later boundary, so timing is
                # unaffected.
                c_cycles.value = max(last_completion, fetch_time, 1.0)
                on_window()

    # Write the scalar execution state back for checkpoint/resume.
    sb._rob_pos = rob_pos
    sb._fetch_time = fetch_time
    sb._group_count = group_count
    sb._group_branches = group_branches
    sb._last_completion = last_completion
    sb._current_fetch_line = current_fetch_line
    sb._index = i
    if windowing:
        sb._until_window = until_window
    c_cycles.value = max(last_completion, fetch_time, 1.0)
    return stats
