"""Local-history hashed perceptron (LHP) used inside the uBTB.

Difficult-to-predict branch nodes in the uBTB graph are "augmented with use
of a local-history hashed perceptron" (Section IV-B, Figure 4).  Unlike the
SHP, which correlates with *global* outcome history, the LHP keeps a short
per-branch outcome history and hashes segments of it into small weight
tables — ideal for the loop/pattern branches that dominate uBTB-resident
kernels.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .history import fold_bits, geometric_intervals, pc_hash

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
        #: Memo layer over the pure hashes: ``_history_slot`` and
        #: ``_indices`` are pure functions of their keys, and the
        #: predict/update flow recomputes the same ``(pc, lhist)`` pair
        #: two to three times per branch.  Derivable caches — excluded
        #: from ``state_dict``.
        self._slot_memo: Dict[int, int] = {}
        self._pc_memo: Dict[int, Tuple[int, ...]] = {}
        self._index_memo: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def _history_slot(self, pc: int) -> int:
        slot = self._slot_memo.get(pc)
        if slot is None:
            if len(self._slot_memo) > _MEMO_CAP:
                self._slot_memo.clear()
            slot = self._slot_memo[pc] = pc_hash(
                pc, self.history_entries.bit_length() - 1, salt=0x77)
        return slot

    def _indices(self, pc: int, lhist: int) -> Tuple[int, ...]:
        """Per-table row indices: each table folds its local-history
        interval and XORs a salted ``pc_hash``, masked to the row count.
        Computed once per distinct ``(pc, lhist)``; the computation is
        the memo's miss path."""
        key = (pc, lhist)
        idx = self._index_memo.get(key)
        if idx is not None:
            return idx
        bits = self.index_bits
        ps = self._pc_memo.get(pc)
        if ps is None:
            ps = tuple(pc_hash(pc, bits, salt=(t + 3) * 0x2B)
                       for t in range(self.n_tables))
            if len(self._pc_memo) > _MEMO_CAP:
                self._pc_memo.clear()
            self._pc_memo[pc] = ps
        out = []
        mask = self.rows - 1
        for t in range(self.n_tables):
            lo, hi = self.intervals[t]
            seg = (lhist >> lo) & ((1 << (hi - lo)) - 1)
            h = fold_bits(seg, hi - lo, bits)
            out.append((h ^ ps[t]) & mask)
        idx = tuple(out)
        if len(self._index_memo) > _MEMO_CAP:
            self._index_memo.clear()
        self._index_memo[key] = idx
        return idx

    def predict(self, pc: int) -> Tuple[bool, int]:
        """Return (taken, sum) for the branch at ``pc``."""
        lhist = self._local.get(self._history_slot(pc), 0)
        total = 0
        for t, i in enumerate(self._indices(pc, lhist)):
            total += self.tables[t][i]
        return total >= 0, total

    def update(self, pc: int, taken: bool) -> None:
        """Train and advance the branch's local history."""
        slot = self._history_slot(pc)
        lhist = self._local.get(slot, 0)
        indices = self._indices(pc, lhist)
        total = sum(self.tables[t][i] for t, i in enumerate(indices))
        predicted = total >= 0
        if predicted != taken or abs(total) <= self.theta:
            delta = 1 if taken else -1
            for t, i in enumerate(indices):
                w = self.tables[t][i] + delta
                self.tables[t][i] = max(_WEIGHT_MIN, min(_WEIGHT_MAX, w))
        mask = (1 << self.local_bits) - 1
        self._local[slot] = ((lhist << 1) | (1 if taken else 0)) & mask

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
