"""Scaled Hashed Perceptron conditional-branch predictor (Section IV-A).

The first-generation SHP is eight tables of 1,024 sign/magnitude weights,
each indexed by an XOR hash of (a) a GHIST interval, (b) a PHIST interval
and (c) the branch PC, plus a per-branch "local BIAS" weight that lives in
the BTB entry and is *doubled* before being added to the table sum.  A
non-negative sum predicts TAKEN.

Training follows the O-GEHL dynamic-threshold scheme: update on a
mispredict, or on a correct prediction whose |sum| fails to exceed the
adaptive threshold.  Always-taken branches (unconditional, or conditional
never yet observed not-taken) do not update the weight tables, reducing
aliasing (Section IV-A).

M3 doubled the rows (8x2048); M5 went to sixteen tables of 2,048 weights
and stretched GHIST by 25% with rebalanced intervals.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from .history import GlobalHistory, PathHistory, geometric_intervals

#: 8-bit sign/magnitude weights: magnitude 0..127 plus a sign bit.
WEIGHT_MAX = 127
WEIGHT_MIN = -127

#: Per-branch BIAS weight range (kept in the BTB entry).
BIAS_MAX = 31
BIAS_MIN = -31

#: Hash memo size bound; hitting it clears the memo (the
#: memos are pure caches, so clearing is always safe).
_MEMO_CAP = 1 << 16

#: ``history.mix_segment``/``pc_hash`` constants, inlined below.
_GOLDEN = 0x9E3779B9
_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xBF58476D1CE4E5B9
_WORD = (1 << 64) - 1


def pc_hash_lanes(pc: int, ones: int, salts: int, folds: Tuple[int, ...],
                  index_mask: int) -> int:
    """``history.pc_hash(pc, bits, salt)`` for every lane of a lane
    vector at once.  ``ones`` has a 1 at the bottom of each (>= 64-bit)
    lane, ``salts`` each lane's salt (low 32 bits), ``folds`` the
    ``fold_bits`` shifts (multiples of ``bits`` below 32) and
    ``index_mask`` ``2**bits - 1`` in each lane."""
    x = ((((pc >> 2) & 0xFFFFFFFF) * ones ^ salts) * _GOLDEN) \
        & (0xFFFFFFFF * ones)
    lanes = x
    for shift in folds:
        lanes ^= x >> shift
    return lanes & index_mask


class ShpPrediction:
    """Everything the front end needs from one SHP lookup."""

    __slots__ = ("taken", "total", "indices", "bias",
                 "filtered_always_taken")

    def __init__(self, taken: bool, total: int, indices: Tuple[int, ...],
                 bias: int, filtered_always_taken: bool = False) -> None:
        self.taken = taken
        self.total = total
        self.indices = indices
        self.bias = bias
        #: True when the branch is in the always-taken filter state.
        self.filtered_always_taken = filtered_always_taken

    @property
    def confidence_margin(self) -> int:
        """|sum|, a proxy for prediction confidence (used by the JRS
        estimator feeding the MRB)."""
        return abs(self.total)


class ScaledHashedPerceptron:
    """The SHP proper.

    Parameters mirror :class:`repro.config.BranchPredictorConfig`; the
    per-branch BIAS/always-taken state conceptually lives in the BTB but is
    owned here for cohesion (the BTB stores an opaque reference to it).
    """

    def __init__(
        self,
        n_tables: int = 8,
        rows: int = 1024,
        ghist_bits: int = 165,
        phist_bits: int = 80,
        theta_init: Optional[int] = None,
        seed_salt: int = 0,
    ) -> None:
        if n_tables < 1 or rows < 2:
            raise ValueError("SHP needs >=1 table and >=2 rows")
        if rows & (rows - 1):
            raise ValueError("rows must be a power of two")
        self.n_tables = n_tables
        self.rows = rows
        self.index_bits = rows.bit_length() - 1
        self.ghist = GlobalHistory(ghist_bits)
        self.phist = PathHistory(phist_bits)
        self.ghist_intervals = geometric_intervals(n_tables, ghist_bits)
        self.phist_intervals = geometric_intervals(n_tables, phist_bits)
        self.tables: List[List[int]] = [[0] * rows for _ in range(n_tables)]
        self.seed_salt = seed_salt
        # Lane-parallel hashing: table t's hash inputs live in bits
        # [t*lane, (t+1)*lane) of one int, so each step of ``pc_hash``
        # and ``mix_segment`` runs for every table at once as a single
        # big-int operation.  A lane holds a whole history register (for
        # the replicate-and-mask step) and at least 128 bits (so the
        # 64x64-bit finaliser products never carry into the next lane).
        # Every interval starts at bit 0, so a table's segment is its
        # history value under a mask.
        assert all(lo == 0 for lo, _ in
                   self.ghist_intervals + self.phist_intervals)
        lane = max(128, -(-max(ghist_bits, phist_bits) // 64) * 64)
        ones = sum(1 << (lane * t) for t in range(n_tables))
        self._ones = ones
        self._low64 = _WORD * ones
        self._index_mask = (rows - 1) * ones
        self._pc_salts = sum(
            (((t + 1) * 0x51 + seed_salt) & 0xFFFFFFFF) << (lane * t)
            for t in range(n_tables))
        self._pc_folds = tuple(range(self.index_bits, 32, self.index_bits))
        self._g_plan = self._lane_plan(self.ghist_intervals, ghist_bits,
                                       lane, salt=1)
        self._p_plan = self._lane_plan(self.phist_intervals, phist_bits,
                                       lane, salt=0x40)
        self._lane_words = lane // 64
        self._lane_bytes = lane // 8 * n_tables
        self._unpack = struct.Struct(
            f"<{n_tables * self._lane_words}Q").unpack
        #: Per-PC memo of the ``pc_hash`` lanes (a pure function of the
        #: PC, so caching changes how often it is evaluated, never any
        #: value; excluded from ``state_dict``).  The history segments
        #: need no memo: hashing every table's pair costs less than one
        #: memo probe per table did.
        self._pc_memo: Dict[int, int] = {}

        # O-GEHL adaptive threshold: theta tracks history length scale.
        self.theta = theta_init if theta_init is not None else (
            int(1.93 * n_tables + 14)
        )
        self._theta_counter = 0
        self._theta_counter_max = 63

        # Per-branch BTB-resident state: bias weight + always-taken filter.
        self._bias: Dict[int, int] = {}
        self._seen_not_taken: Dict[int, bool] = {}

        # Statistics.
        self.lookups = 0
        self.updates = 0
        self.filtered_lookups = 0

    # -- indexing -----------------------------------------------------------

    @staticmethod
    def _lane_plan(intervals: List[Tuple[int, int]], bits: int, lane: int,
                   salt: int) -> Tuple[int, Tuple[int, ...], int]:
        """(segment masks, fold shifts, salt words) of one history's
        lanes: ``mix_segment(segment, width, ·, salt=salt + t)`` for
        table t."""
        masks = sum(((1 << hi) - 1) << (lane * t)
                    for t, (_, hi) in enumerate(intervals))
        salts = sum((((salt + t) * _GOLDEN) & 0xFFFFFFFF) << (lane * t)
                    for t in range(len(intervals)))
        return masks, tuple(range(64, bits, 64)), salts

    def _mix_lanes(self, value: int, masks: int, folds: Tuple[int, ...],
                   salts: int) -> int:
        """``mix_segment`` of every table's segment of ``value`` at once
        (high lane bits unmasked: the caller masks the result)."""
        low64 = self._low64
        seg = (value * self._ones) & masks
        folded = seg
        for shift in folds:  # XOR-fold each lane to its low word
            folded ^= seg >> shift
        x = (((folded & low64) ^ salts) * _MIX1) & low64
        x ^= x >> 31
        return ((x & low64) * _MIX2) >> 24

    def _indices(self, pc: int) -> Tuple[int, ...]:
        """Per-table row indices: ``mix_segment`` of each table's GHIST
        and PHIST interval XOR a salted ``pc_hash``, computed for all
        tables at once in lanes (see ``__init__``)."""
        lanes = self._pc_memo.get(pc)
        if lanes is None:
            lanes = pc_hash_lanes(pc, self._ones, self._pc_salts,
                                  self._pc_folds, self._index_mask)
            if len(self._pc_memo) > _MEMO_CAP:
                self._pc_memo.clear()
            self._pc_memo[pc] = lanes
        lanes ^= (self._mix_lanes(self.ghist.value, *self._g_plan)
                  ^ self._mix_lanes(self.phist.value, *self._p_plan)
                  ) & self._index_mask
        return self._unpack(
            lanes.to_bytes(self._lane_bytes, "little"))[::self._lane_words]

    # -- prediction -----------------------------------------------------------

    def predict(self, pc: int) -> ShpPrediction:
        """Compute the SHP sum for the branch at ``pc``.

        The BIAS weight is doubled before being added to the eight (or
        sixteen) table weights; sum >= 0 predicts TAKEN.
        """
        self.lookups += 1
        indices = self._indices(pc)
        bias = self._bias.get(pc)
        if bias is None:
            bias = 1  # fresh branches lean weakly taken
            filtered = False
        else:
            filtered = not self._seen_not_taken.get(pc, False)
        total = 2 * bias + sum(map(list.__getitem__, self.tables, indices))
        if filtered:
            self.filtered_lookups += 1
            return ShpPrediction(taken=True, total=total, indices=indices,
                                 bias=bias, filtered_always_taken=True)
        return ShpPrediction(taken=total >= 0, total=total, indices=indices,
                             bias=bias)

    # -- training -------------------------------------------------------------

    def _adjust_theta(self, mispredicted: bool, margin_low: bool) -> None:
        """O-GEHL threshold fitting: keep the rate of mispredict-driven
        updates balanced against low-margin-driven updates."""
        if mispredicted:
            self._theta_counter += 1
            if self._theta_counter >= self._theta_counter_max:
                self._theta_counter = 0
                self.theta += 1
        elif margin_low:
            self._theta_counter -= 1
            if self._theta_counter <= -self._theta_counter_max:
                self._theta_counter = 0
                if self.theta > 1:
                    self.theta -= 1

    def update(self, pc: int, taken: bool,
               prediction: Optional[ShpPrediction] = None) -> None:
        """Train on the resolved outcome of the branch at ``pc``.

        Must be called for every retired conditional branch; history
        updates happen separately via :meth:`push_history` so that
        prediction and history advance in the same order the hardware does.
        """
        if prediction is None:
            prediction = self.predict(pc)
            self.lookups -= 1  # internal re-lookup, not a real access

        # Maintain the always-taken filter state.
        first_time = pc not in self._bias
        if first_time:
            self._bias[pc] = 1 if taken else -1
            self._seen_not_taken[pc] = not taken
            return  # discovery; no weight training yet
        if not taken:
            self._seen_not_taken[pc] = True

        if not self._seen_not_taken[pc]:
            # Still in always-taken state: do not touch the weight tables
            # (Section IV-A aliasing reduction); keep bias saturating up.
            if self._bias[pc] < BIAS_MAX:
                self._bias[pc] += 1
            return

        mispredicted = prediction.taken != taken
        margin_low = prediction.confidence_margin <= self.theta
        if not mispredicted and not margin_low:
            return

        self.updates += 1
        self._adjust_theta(mispredicted, margin_low)
        delta = 1 if taken else -1
        bias = self._bias[pc] + delta
        self._bias[pc] = max(BIAS_MIN, min(BIAS_MAX, bias))
        for table, i in zip(self.tables, prediction.indices):
            w = table[i] + delta
            if WEIGHT_MIN <= w <= WEIGHT_MAX:  # else it stays saturated
                table[i] = w

    # -- history maintenance ----------------------------------------------------

    def push_history(self, pc: int, is_conditional: bool, taken: bool) -> None:
        """Advance GHIST (conditionals only) and PHIST (every branch)."""
        if is_conditional:
            self.ghist.push(taken)
        self.phist.push(pc)

    # -- checkpointing (for speculation repair in the full front end) ---------

    def snapshot(self) -> Tuple[int, int]:
        return (self.ghist.snapshot(), self.phist.snapshot())

    def restore(self, snap: Tuple[int, int]) -> None:
        self.ghist.restore(snap[0])
        self.phist.restore(snap[1])

    # -- checkpointing (the whole-predictor state_dict protocol) --------------

    def state_dict(self) -> dict[str, object]:
        from ..state import to_pairs

        return {
            "ghist": self.ghist.state_dict(),
            "phist": self.phist.state_dict(),
            "tables": [list(t) for t in self.tables],
            "theta": self.theta,
            "theta_counter": self._theta_counter,
            "bias": to_pairs(self._bias),
            "seen_not_taken": to_pairs(self._seen_not_taken),
            "lookups": self.lookups,
            "updates": self.updates,
            "filtered_lookups": self.filtered_lookups,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        from ..state import dict_from_pairs

        tables = [list(t) for t in state["tables"]]
        if len(tables) != self.n_tables or \
                any(len(t) != self.rows for t in tables):
            raise ValueError("SHP table geometry mismatch vs checkpoint")
        self.ghist.load_state_dict(state["ghist"])
        self.phist.load_state_dict(state["phist"])
        self.tables = tables
        self.theta = int(state["theta"])
        self._theta_counter = int(state["theta_counter"])
        self._bias = {int(k): int(v)
                      for k, v in dict_from_pairs(state["bias"]).items()}
        self._seen_not_taken = {
            int(k): bool(v)
            for k, v in dict_from_pairs(state["seen_not_taken"]).items()}
        self.lookups = int(state["lookups"])
        self.updates = int(state["updates"])
        self.filtered_lookups = int(state["filtered_lookups"])

    # -- accounting -------------------------------------------------------------

    @property
    def storage_bits(self) -> int:
        """Weight-table storage (the Table II "SHP" column); the BIAS lives
        in the BTB entry and is counted there."""
        return self.n_tables * self.rows * 8
