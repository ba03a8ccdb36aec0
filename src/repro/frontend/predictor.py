"""The composed per-generation branch prediction unit (Section IV).

:class:`BranchUnit` wires together everything the paper describes — SHP,
mBTB/vBTB/L2BTB, uBTB (with LHP), RAS, VPC (plus M6's indirect hash),
1AT/ZAT/ZOT accelerators, the confidence estimator and the MRB — according
to a :class:`~repro.config.GenerationConfig`, and processes a trace's
retired branch stream.  For each branch it reports whether the front end
mispredicted and how many fetch bubbles the (correct) prediction cost,
which is exactly the interface the core timing model consumes.

Trace-driven semantics: only the retired path is visible, so wrong-path
pollution of predictor state is not modelled (the same methodological
simplification the paper's own trace-driven model makes for speed).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Optional

from ..config import GenerationConfig
from ..metrics import formulas
from ..metrics.registry import MetricRegistry, StatsView
from ..observe.events import BranchEvent
from ..observe.sink import TraceSink
from ..power import EnergyLedger
from ..traces.types import INDIRECT_KINDS, Kind, Trace, TraceRecord
from .accel import RedirectAccelerator
from .btb import BTBHierarchy, LINE_BYTES
from .confidence import ConfidenceEstimator
from .history import IndirectTargetHistory
from .mrb import MispredictRecoveryBuffer
from .ras import ReturnAddressStack
from .shp import ScaledHashedPerceptron
from .ubtb import MicroBTB
from .vpc import VPCPredictor

#: Instruction size for fallthrough/return-address arithmetic.
_INSTR = 4

_BR_COND = Kind.BR_COND
_BR_RET = Kind.BR_RET
#: Kinds whose fallthrough is pushed on the RAS.
_PUSHES_RAS = frozenset({Kind.BR_CALL, Kind.BR_INDIRECT_CALL})
#: ``pc & _LINE_MASK`` is ``BTBHierarchy.line_base(pc)``.
_LINE_MASK = ~(LINE_BYTES - 1)

#: Redirect cost when a *direct* taken branch misses the BTB: the decoder
#: computes the target and resteers fetch — several bubbles, but not an
#: execute-time misprediction (MPKI counts only direction/indirect/return
#: failures, as silicon counters do).
DECODE_REDIRECT_BUBBLES = 6


class BranchResult:
    """Outcome of one branch through the front end."""

    __slots__ = ("mispredicted", "bubbles", "mrb_assisted", "path")

    def __init__(self, mispredicted: bool, bubbles: int,
                 mrb_assisted: bool = False, path: str = "main") -> None:
        self.mispredicted = mispredicted
        #: Fetch bubbles charged for a correct taken prediction (0 for
        #: correct not-taken); irrelevant when mispredicted (the penalty
        #: dominates).
        self.bubbles = bubbles
        #: True when the bubbles were saved by an MRB replay hit.
        self.mrb_assisted = mrb_assisted
        #: Which engine drove the prediction: "ubtb", "main".
        self.path = path


class BranchStats(StatsView):
    """Registry-backed view of the ``frontend.*`` stats hierarchy.

    ``btb_miss_redirects`` counts decode-time resteers for direct taken
    branches missing the BTB (cost bubbles, not mispredicts);
    ``ras_repairs`` counts RAS checkpoint repairs on mispredict
    recovery.  The derived MPKI / bubbles-per-branch properties route
    through the shared formula definitions.
    """

    _FIELDS = {
        "instructions": "frontend.instructions",
        "branches": "frontend.branches",
        "conditional_branches": "frontend.conditional_branches",
        "taken_branches": "frontend.taken_branches",
        "mispredicts": "frontend.mispredicts",
        "conditional_mispredicts": "frontend.conditional_mispredicts",
        "indirect_mispredicts": "frontend.indirect_mispredicts",
        "return_mispredicts": "frontend.return_mispredicts",
        "btb_miss_redirects": "frontend.btb.miss_redirects",
        "ras_repairs": "frontend.ras.repairs",
        "total_bubbles": "frontend.bubbles.total",
        "mrb_saved_bubbles": "frontend.bubbles.mrb_saved",
        "zero_bubble_redirects": "frontend.bubbles.zero_redirects",
    }
    _DERIVED = {
        "mpki": "frontend.mpki",
        "conditional_mpki": "frontend.conditional_mpki",
        "bubbles_per_branch": "frontend.bubbles_per_branch",
    }
    _FORMULAS = (
        ("frontend.mpki", ("frontend.mispredicts", "frontend.instructions"),
         formulas.mpki),
        ("frontend.conditional_mpki",
         ("frontend.conditional_mispredicts", "frontend.instructions"),
         formulas.mpki),
        ("frontend.bubbles_per_branch",
         ("frontend.bubbles.total", "frontend.branches"), formulas.ratio),
    )


class BranchUnit:
    """Per-generation front-end branch prediction model."""

    def __init__(self, config: GenerationConfig,
                 ledger: Optional[EnergyLedger] = None,
                 encrypt: Optional[Callable[[int], int]] = None,
                 decrypt: Optional[Callable[[int], int]] = None,
                 registry: Optional[MetricRegistry] = None,
                 sink: Optional[TraceSink] = None) -> None:
        self.config = config
        bp = config.branch
        self.stats = BranchStats(registry)
        #: Optional flight recorder for branch-resolution events.
        self.sink = sink
        #: (predicted_taken, predicted_target) of the branch in flight,
        #: captured by the predict paths only while tracing.
        self._pred_snapshot: "tuple[Optional[bool], Optional[int]]" = \
            (None, None)
        self.ledger = (ledger if ledger is not None
                       else EnergyLedger(registry=self.stats.registry))
        # Configuration and metric cells the per-branch path reads,
        # hoisted once: none changes over the unit's life (a flush
        # rebuilds structures, not the registry).
        self._zat_zot = bp.has_zat_zot
        self._mbtb_taken_bubbles = bp.mbtb_taken_bubbles
        cell = self.stats.cell
        self._c_branches = cell("branches")
        self._c_conditional = cell("conditional_branches")
        self._c_taken = cell("taken_branches")
        self._c_mispredicts = cell("mispredicts")
        self._c_cond_mispredicts = cell("conditional_mispredicts")
        self._c_ind_mispredicts = cell("indirect_mispredicts")
        self._c_ret_mispredicts = cell("return_mispredicts")
        self._c_miss_redirects = cell("btb_miss_redirects")
        self._c_ras_repairs = cell("ras_repairs")
        self._c_bubbles = cell("total_bubbles")
        self._c_mrb_saved = cell("mrb_saved_bubbles")
        self._c_zero_bubble = cell("zero_bubble_redirects")
        energy = self.ledger.registry.counter
        self._e_ubtb_lookup = energy("energy.ubtb_lookup")
        self._e_mbtb_lookup = energy("energy.mbtb_lookup")
        self._e_shp_lookup = energy("energy.shp_lookup")
        self._e_shp_update = energy("energy.shp_update")
        #: The structures the registry gauges read; `_build_structures`
        #: repoints it (see `_bind_structure_gauges`).
        self._live = SimpleNamespace()
        self._build_structures(encrypt, decrypt)
        self._bind_structure_gauges()
        #: Zero-bubble arbiter decisions (Section IV-E): times the uBTB
        #: was suppressed in favour of the ZAT/ZOT path.
        self.arbiter_suppressions = 0

    def _build_structures(self,
                          encrypt: Optional[Callable[[int], int]] = None,
                          decrypt: Optional[Callable[[int], int]] = None
                          ) -> None:
        """(Re)build every predictor structure and learning coupler in
        its initial state — the constructor and ``context_switch
        ("flush")`` share this, so a flushed unit equals a fresh one."""
        bp = self.config.branch
        self.shp = ScaledHashedPerceptron(
            n_tables=bp.shp_tables,
            rows=bp.shp_rows,
            ghist_bits=bp.ghist_bits,
            phist_bits=bp.phist_bits,
        )
        self.btb = BTBHierarchy(
            mbtb_entries=bp.mbtb_entries,
            vbtb_entries=bp.vbtb_entries,
            l2btb_entries=bp.l2btb_entries,
            l2btb_fill_latency=bp.l2btb_fill_latency,
            l2btb_fill_bandwidth=bp.l2btb_fill_bandwidth,
            has_empty_line_opt=bp.has_empty_line_opt,
        )
        self.ubtb = MicroBTB(
            entries=bp.ubtb_entries,
            uncond_only_entries=bp.ubtb_uncond_only_entries,
        )
        self.ras = ReturnAddressStack(bp.ras_entries, encrypt=encrypt,
                                      decrypt=decrypt)
        self.vpc = VPCPredictor(
            self.shp,
            max_targets=bp.vpc_max_targets,
            hybrid_hash_entries=bp.indirect_hash_entries,
            hybrid_vpc_targets=bp.vpc_hybrid_targets,
            vbtb_chain_slots=bp.vbtb_entries // 2,
        )
        self.accel = RedirectAccelerator(bp.has_1at, bp.has_zat_zot, self.btb)
        self._live.btb, self._live.ubtb, self._live.ras = (
            self.btb, self.ubtb, self.ras)
        self.confidence = ConfidenceEstimator()
        self.mrb = MispredictRecoveryBuffer(bp.mrb_entries)
        self._mrb_enabled = self.mrb.enabled
        #: Whether the previous retired branch was taken (ZAT/ZOT learning).
        self._prev_taken = False
        self._prev_line = -1

    def _bind_structure_gauges(self) -> None:
        """Expose sub-structure counters as pull metrics.

        The gauges read through ``self._live``, which
        ``_build_structures`` repoints, so a ``context_switch("flush")``,
        which rebuilds the predictor structures, never leaves a gauge
        pointing at a dead object.  They do not read through ``self``:
        the unit holds the registry, so a gauge holding the unit would
        make every finished unit cyclic garbage, freed only by the
        cyclic collector instead of by reference counting.
        """
        reg = self.stats.registry
        live = self._live
        reg.gauge("frontend.btb.mbtb.hits", lambda: live.btb.hits_mbtb)
        reg.gauge("frontend.btb.vbtb.hits", lambda: live.btb.hits_vbtb)
        reg.gauge("frontend.btb.l2btb.hits", lambda: live.btb.hits_l2btb)
        reg.gauge("frontend.btb.misses", lambda: live.btb.misses)
        reg.gauge("frontend.btb.vbtb.spills", lambda: live.btb.spills_to_vbtb)
        reg.gauge("frontend.btb.l2btb.fills", lambda: live.btb.l2btb_fills)
        reg.gauge("frontend.btb.empty_line_skips",
                  lambda: live.btb.empty_line_skips)
        reg.gauge("frontend.ubtb.lock_events", lambda: live.ubtb.lock_events)
        reg.gauge("frontend.ubtb.unlock_events",
                  lambda: live.ubtb.unlock_events)
        reg.gauge("frontend.ubtb.locked_predictions",
                  lambda: live.ubtb.locked_predictions)
        reg.gauge("frontend.ubtb.locked_mispredicts",
                  lambda: live.ubtb.locked_mispredicts)
        reg.gauge("frontend.ubtb.gated_lookups",
                  lambda: live.ubtb.gated_lookups)
        reg.gauge("frontend.ras.overflows", lambda: live.ras.overflows)
        reg.gauge("frontend.ras.underflows", lambda: live.ras.underflows)

    #: Arbiter heuristic: if recent uBTB lock episodes average fewer
    #: branches than this, the graph is thrashing (locking and immediately
    #: losing the kernel) and the two-cycle startup is never amortised —
    #: the ZAT/ZOT path (no startup) serves such code better.  Set at the
    #: lock threshold itself: shorter episodes are pure churn.
    ARBITER_MIN_EPISODE = 8.0

    def _arbiter_prefers_ubtb(self) -> bool:
        """The M5+ heuristic arbiter between the two zero-bubble engines.

        Generations without ZAT/ZOT have no alternative zero-bubble path,
        so the uBTB always drives when locked.
        """
        if not self._zat_zot:
            return True
        if len(self.ubtb.episode_lengths) < 4:
            return True  # not enough history: let the uBTB try
        return self.ubtb.mean_episode_length() >= self.ARBITER_MIN_EPISODE

    def set_target_cipher(self, encrypt: Callable[[int], int],
                          decrypt: Callable[[int], int]) -> None:
        """Install CONTEXT_HASH target encryption on RAS (and, in hardware,
        BTB indirect targets; the BTB direct path is unaffected because a
        wrong-context direct target mispredicts identically)."""
        self.ras.set_cipher(encrypt, decrypt)

    def context_switch(self, mode: str = "encrypt",
                       encrypt: Optional[Callable[[int], int]] = None,
                       decrypt: Optional[Callable[[int], int]] = None) -> None:
        """Model one OS context switch under a chosen protection policy.

        Section V weighs three options: erasing all branch prediction state
        ("at the cost of having to retrain when going back"), per-context
        tagging/partitioning ("a significant area cost" — not modelled),
        and the shipped compromise — CONTEXT_HASH target encryption with
        "minimal performance, timing, and area impact".

        - ``"none"``: nothing happens (the vulnerable baseline).
        - ``"encrypt"``: the incoming context's cipher is installed; state
          learned by other contexts decrypts to junk targets for secrets
          (RAS/indirect) while direct-branch learning survives.
        - ``"flush"``: every predictor structure is erased: rebuilt as
          a fresh unit without a target cipher builds it.
        """
        if mode == "none":
            return
        if mode == "encrypt":
            if encrypt is None or decrypt is None:
                raise ValueError("encrypt mode needs the context's cipher")
            self.set_target_cipher(encrypt, decrypt)
            return
        if mode != "flush":
            raise ValueError(f"unknown context-switch mode {mode!r}")
        self._build_structures()

    # -- main per-branch flow -----------------------------------------------------

    def process_branch(self, rec: TraceRecord,
                       now: float = 0.0) -> BranchResult:
        """Predict + update for one retired branch record.

        ``now`` is only a timestamp for emitted trace events (the cycle
        the owning core resolved this branch at); it never influences a
        prediction or an update.
        """
        pc = rec.pc
        kind = rec.kind
        taken = rec.taken
        target = rec.target
        is_cond = kind == _BR_COND
        self._c_branches.value += 1
        if is_cond:
            self._c_conditional.value += 1
        if taken:
            self._c_taken.value += 1

        ubtb = self.ubtb
        result = None
        if ubtb.locked:
            if self._arbiter_prefers_ubtb():
                result = self._predict_ubtb(pc, kind, taken, target, is_cond)
            else:
                self.arbiter_suppressions += 1
        if result is None:
            result = self._predict_main(pc, kind, taken, target, is_cond)

        # --- shared updates -----------------------------------------------
        self.shp.push_history(pc, is_cond, taken)
        ubtb.observe(pc, kind, taken, target)
        if ubtb.step_lock_state(pc):
            # Two-cycle startup when the uBTB takes over the pipe.
            result.bubbles += MicroBTB.STARTUP_BUBBLES
        if kind in _PUSHES_RAS:
            self.ras.push(pc + _INSTR)
        mispredicted = result.mispredicted
        self.confidence.record(pc, not mispredicted)

        if mispredicted:
            ubtb.notify_mispredict()
            # Wrong-path speculation between the prediction and the
            # redirect may have pushed/popped the RAS; the checkpoint
            # repair restores it ("standard mechanisms to repair multiple
            # speculative pushes and pops", Section IV).  The retired
            # stream carries no wrong-path records, so we model the repair
            # itself: snapshot, perturb, restore.
            ras = self.ras
            snap = ras.checkpoint()
            ras.push(pc ^ 0x5A5A)  # wrong-path junk
            ras.pop()
            ras.pop()
            ras.restore(snap)
            self._c_ras_repairs.value += 1
            self._c_mispredicts.value += 1
            if is_cond:
                self._c_cond_mispredicts.value += 1
            elif kind == _BR_RET:
                self._c_ret_mispredicts.value += 1
            elif kind in INDIRECT_KINDS:
                self._c_ind_mispredicts.value += 1
            # MRB: arm replay / start recording for low-confidence branches.
            if self._mrb_enabled:
                armed = self.mrb.begin_replay(pc)
                if not armed and self.confidence.is_low_confidence(pc):
                    self.mrb.start_recording(pc)
        elif taken and self._mrb_enabled:
            # Feed post-redirect fetch addresses to recording/replay.
            self.mrb.observe_fetch_address(target)

        # ZAT/ZOT replication learning follows the *actual* control flow,
        # from the entry a lookup would now serve for this branch.
        btb = self.btb
        line = btb.mbtb.lines.get(pc & _LINE_MASK)
        entry = line.get(pc) if line is not None else None
        if entry is None:
            entry = btb.vbtb.get(pc)
        if self._prev_taken and entry is not None and self._zat_zot:
            self.accel.learn_replication(entry)
        if taken:
            self.accel.observe_taken(entry)
        self._prev_taken = taken

        bubbles = result.bubbles
        self._c_bubbles.value += bubbles
        if bubbles == 0 and taken and not mispredicted:
            self._c_zero_bubble.value += 1
        if self.sink is not None:
            taken_pred, target_pred = self._pred_snapshot
            if result.path == "ubtb":
                unit = "ubtb"
            elif kind == _BR_RET:
                unit = "ras"
            elif kind in INDIRECT_KINDS:
                unit = "vpc"
            elif is_cond:
                unit = "shp"
            else:
                unit = "mbtb"
            self.sink.emit(BranchEvent(
                seq=-1, cycle=float(now), pc=pc, kind=kind.name,
                unit=unit, predicted_taken=taken_pred,
                actual_taken=taken, predicted_target=target_pred,
                actual_target=target if taken else 0,
                mispredicted=mispredicted,
                bubbles=int(bubbles)))
        return result

    # -- uBTB (locked) path ---------------------------------------------------------

    def _predict_ubtb(self, pc: int, kind: Kind, taken: bool, target: int,
                      is_cond: bool) -> Optional[BranchResult]:
        ubtb = self.ubtb
        pred = ubtb.predict(pc)
        if pred is None:
            return None  # unlocked on unknown branch; fall to main path
        taken_pred, target_pred, gated = pred
        self._e_ubtb_lookup.value += 1
        bubbles = 0
        if kind == _BR_RET:
            ras_target = self.ras.pop()
            target_pred = ras_target if ras_target is not None else 0
            taken_pred = True
        if not gated:
            # mBTB/SHP check the uBTB's predictions in the shadow
            # (Section IV-B); a stage-3 disagreement resteers to the SHP's
            # direction at the usual redirect cost.
            self._e_mbtb_lookup.value += 1
            if is_cond:
                self._e_shp_lookup.value += 1
                shadow = self.shp.predict(pc)
                if shadow.taken != taken_pred:
                    taken_pred = shadow.taken
                    bubbles += self._mbtb_taken_bubbles
                self.shp.update(pc, taken, shadow)
                self._e_shp_update.value += 1
        if self.sink is not None:
            self._pred_snapshot = (bool(taken_pred), target_pred)
        mispredicted = (taken_pred != taken) or (
            taken and taken_pred and target_pred != target
        )
        if mispredicted:
            ubtb.locked_mispredicts += 1
        return BranchResult(mispredicted, bubbles, False, "ubtb")

    # -- main (mBTB + SHP) path --------------------------------------------------------

    def _predict_main(self, pc: int, kind: Kind, taken: bool, target: int,
                      is_cond: bool) -> BranchResult:
        btb = self.btb
        lookup = btb.lookup(pc)
        self._e_mbtb_lookup.value += 1
        if lookup.source == "vbtb":
            self.ledger.record("vbtb_lookup")
        elif lookup.source == "l2btb":
            self.ledger.record("l2btb_fill")
        entry = lookup.entry
        bubbles = lookup.extra_bubbles
        mispredicted = False
        mrb_assisted = False

        # Direction.
        if is_cond:
            self._e_shp_lookup.value += 1
            pred = self.shp.predict(pc)
            taken_pred = pred.taken
        else:
            pred = None
            taken_pred = True

        # Target.  (Returns are indirect kinds too.)
        is_ret = kind == _BR_RET
        is_indirect = kind in INDIRECT_KINDS
        target_pred: Optional[int] = None
        indirect_latency = 0
        if is_ret:
            target_pred = self.ras.pop()
        elif is_indirect:
            ipred = self.vpc.predict(pc)
            target_pred = ipred.target
            indirect_latency = max(0, ipred.latency - 1)
        elif entry is not None:
            target_pred = entry.target

        if entry is None and not is_indirect:
            # Undiscovered direct branch: no BTB entry means no prediction
            # at all — fetch falls through (implicit not-taken).  A taken
            # outcome costs a decode-time resteer, not a misprediction.
            if taken:
                bubbles += DECODE_REDIRECT_BUBBLES
                self._c_miss_redirects.value += 1
        elif taken_pred:
            if taken:
                if target_pred != target or target_pred is None:
                    mispredicted = True
                else:
                    base = self._mbtb_taken_bubbles
                    if entry is not None:
                        bubbles += self.accel.taken_bubbles(entry, base)
                    else:
                        bubbles += base
                    bubbles += indirect_latency
                    # MRB replay can hide this block's redirect bubbles.
                    if self._mrb_enabled and bubbles > 0:
                        verdict = self.mrb.verify_next(target)
                        if verdict:
                            self._c_mrb_saved.value += bubbles
                            bubbles = 0
                            mrb_assisted = True
            else:
                mispredicted = True  # predicted taken, was not taken
        else:
            mispredicted = taken  # predicted not-taken

        if self.sink is not None:
            pred_known = entry is not None or is_indirect
            self._pred_snapshot = (
                bool(taken_pred) if pred_known else None, target_pred)

        # --- updates ---------------------------------------------------------
        if entry is None:
            entry = btb.discover(pc, target, kind)
        elif taken and not is_indirect:
            entry.target = target
        entry.record_outcome(taken)
        if is_cond:
            self.shp.update(pc, taken, pred)
            self._e_shp_update.value += 1
        if is_indirect and not is_ret:
            self.vpc.update(pc, target)

        return BranchResult(mispredicted, bubbles, mrb_assisted, "main")

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        """Aggregate front-end state: every predictor structure plus the
        unit's own learning couplers.  The ``frontend.*`` counters live
        in the metric registry and are checkpointed there."""
        return {
            "shp": self.shp.state_dict(),
            "btb": self.btb.state_dict(),
            "ubtb": self.ubtb.state_dict(),
            "ras": self.ras.state_dict(),
            "vpc": self.vpc.state_dict(),
            "accel": self.accel.state_dict(),
            "confidence": self.confidence.state_dict(),
            "mrb": self.mrb.state_dict(),
            "prev_taken": self._prev_taken,
            "prev_line": self._prev_line,
            "arbiter_suppressions": self.arbiter_suppressions,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore in place.  The structures are loaded rather than
        replaced, so bound gauges and the VPC's shared-SHP alias stay
        wired; the BTB loads before the accelerator so the latter can
        re-resolve its live entry reference."""
        self.shp.load_state_dict(state["shp"])
        self.btb.load_state_dict(state["btb"])
        self.ubtb.load_state_dict(state["ubtb"])
        self.ras.load_state_dict(state["ras"])
        self.vpc.load_state_dict(state["vpc"])
        self.accel.load_state_dict(state["accel"])
        self.confidence.load_state_dict(state["confidence"])
        self.mrb.load_state_dict(state["mrb"])
        self._prev_taken = bool(state["prev_taken"])
        self._prev_line = int(state["prev_line"])
        self.arbiter_suppressions = int(state["arbiter_suppressions"])

    # -- trace-level driver ------------------------------------------------------------

    def run_trace(self, trace: Trace) -> BranchStats:
        """Process every branch in a trace; returns the aggregate stats."""
        for rec in trace:
            self.stats.instructions += 1
            if rec.is_branch:
                self.process_branch(rec)
        return self.stats
