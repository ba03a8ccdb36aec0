"""Local-history hashed perceptron (LHP) used inside the uBTB.

Difficult-to-predict branch nodes in the uBTB graph are "augmented with use
of a local-history hashed perceptron" (Section IV-B, Figure 4).  Unlike the
SHP, which correlates with *global* outcome history, the LHP keeps a short
per-branch outcome history and hashes segments of it into small weight
tables — ideal for the loop/pattern branches that dominate uBTB-resident
kernels.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from .history import geometric_intervals, pc_hash
from .shp import pc_hash_lanes

_WEIGHT_MAX = 31
_WEIGHT_MIN = -31

#: Hash memo size bound; hitting it clears the memo (the
#: memos are pure caches, so clearing is always safe).
_MEMO_CAP = 1 << 16


class LocalHashedPerceptron:
    """Small hashed perceptron over per-branch local history."""

    def __init__(self, n_tables: int = 3, rows: int = 128,
                 local_bits: int = 16, history_entries: int = 64) -> None:
        if rows & (rows - 1):
            raise ValueError("rows must be a power of two")
        self.n_tables = n_tables
        self.rows = rows
        self.index_bits = rows.bit_length() - 1
        self.local_bits = local_bits
        self.history_entries = history_entries
        self.intervals = geometric_intervals(n_tables, local_bits, first=2)
        self.tables: List[List[int]] = [[0] * rows for _ in range(n_tables)]
        # Per-branch local history, hash-indexed with bounded capacity.
        self._local: Dict[int, int] = {}
        self.theta = int(1.93 * n_tables + 4)
        self._local_mask = (1 << local_bits) - 1
        self._slot_bits = history_entries.bit_length() - 1
        # Lane-parallel indexing, as in the SHP: table t's index is
        # computed in bits [t*lane, (t+1)*lane) of one int.  A lane holds
        # the whole local history plus room for the fold shifts to
        # carry the next lane's bits only above the index bits.
        assert all(lo == 0 for lo, _ in self.intervals)
        lane = 64 * -(-(local_bits + self.index_bits) // 64)
        self._ones = sum(1 << (lane * t) for t in range(n_tables))
        self._seg_masks = sum(((1 << hi) - 1) << (lane * t)
                              for t, (_, hi) in enumerate(self.intervals))
        step = max(1, self.index_bits)  # rows == 1 masks every index to 0
        self._folds = tuple(range(step, local_bits, step))
        self._pc_folds = tuple(range(step, 32, step))
        self._pc_salts = sum(((t + 3) * 0x2B) << (lane * t)
                             for t in range(n_tables))
        self._index_mask = (rows - 1) * self._ones
        self._lane_words = lane // 64
        self._lane_bytes = lane // 8 * n_tables
        self._unpack = struct.Struct(
            f"<{n_tables * self._lane_words}Q").unpack
        #: Per-PC memo of the pure ``pc_hash`` values: the history slot
        #: and the per-table index salts (as lanes).  A derivable cache —
        #: excluded from ``state_dict``.
        self._pc_memo: Dict[int, Tuple[int, int]] = {}

    def _pc_entry(self, pc: int) -> Tuple[int, int]:
        """(history slot, per-table ``pc_hash`` lanes) of ``pc``."""
        entry = self._pc_memo.get(pc)
        if entry is None:
            entry = (pc_hash(pc, self._slot_bits, salt=0x77),
                     pc_hash_lanes(pc, self._ones, self._pc_salts,
                                   self._pc_folds, self._index_mask))
            if len(self._pc_memo) > _MEMO_CAP:
                self._pc_memo.clear()
            self._pc_memo[pc] = entry
        return entry

    def _history_slot(self, pc: int) -> int:
        return self._pc_entry(pc)[0]

    def _lane_indices(self, pc_lanes: int, lhist: int) -> Tuple[int, ...]:
        """Per-table row indices: each table folds its local-history
        segment (``fold_bits``) and XORs its ``pc_hash`` — every table
        at once, one lane each."""
        seg = (lhist * self._ones) & self._seg_masks
        folded = seg
        for shift in self._folds:
            folded ^= seg >> shift
        lanes = (folded ^ pc_lanes) & self._index_mask
        return self._unpack(
            lanes.to_bytes(self._lane_bytes, "little"))[::self._lane_words]

    def _indices(self, pc: int, lhist: int) -> Tuple[int, ...]:
        return self._lane_indices(self._pc_entry(pc)[1], lhist)

    def predict(self, pc: int) -> Tuple[bool, int]:
        """Return (taken, sum) for the branch at ``pc``."""
        slot, pc_lanes = self._pc_entry(pc)
        indices = self._lane_indices(pc_lanes, self._local.get(slot, 0))
        total = sum(map(list.__getitem__, self.tables, indices))
        return total >= 0, total

    def update(self, pc: int, taken: bool) -> Tuple[bool, int]:
        """Train and advance the branch's local history.

        Returns the ``(taken, sum)`` prediction the update trained on —
        what :meth:`predict` returns just before the call — so a caller
        needing both does one lookup."""
        slot, pc_lanes = self._pc_entry(pc)
        lhist = self._local.get(slot, 0)
        indices = self._lane_indices(pc_lanes, lhist)
        total = sum(map(list.__getitem__, self.tables, indices))
        predicted = total >= 0
        if predicted != taken or abs(total) <= self.theta:
            delta = 1 if taken else -1
            for table, i in zip(self.tables, indices):
                w = table[i] + delta
                if _WEIGHT_MIN <= w <= _WEIGHT_MAX:  # else stays saturated
                    table[i] = w
        self._local[slot] = (((lhist << 1) | (1 if taken else 0))
                             & self._local_mask)
        return predicted, total

    def state_dict(self) -> dict[str, object]:
        from ..state import to_pairs

        return {
            "tables": [list(t) for t in self.tables],
            "local": to_pairs(self._local),
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        from ..state import dict_from_pairs

        tables = [list(t) for t in state["tables"]]
        if len(tables) != self.n_tables or \
                any(len(t) != self.rows for t in tables):
            raise ValueError("LHP table geometry mismatch vs checkpoint")
        self.tables = tables
        self._local = {int(k): int(v)
                       for k, v in dict_from_pairs(state["local"]).items()}

    @property
    def storage_bits(self) -> int:
        weight_bits = self.n_tables * self.rows * 6
        history_bits = self.history_entries * self.local_bits
        return weight_bits + history_bits
