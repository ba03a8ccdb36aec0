"""Open-page DRAM model with banks and the early-page-activate hint.

Latency-critical reads on M5 can send "an early page activate command to
the memory controller to speculatively open a new DRAM page" over a
dedicated sideband that bypasses two asynchronous crossings with one
(Section IX); the command "is a hint the memory controller may ignore
under heavy load".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Address bits: 64B line, bank interleave on line address.
_BANK_SHIFT = 6
_ROW_SHIFT = 14  # 16KB row buffer


@dataclass(frozen=True)
class DramAccessResult:
    latency: float
    page_hit: bool
    #: The early-activate hint removed the activate latency.
    early_activated: bool = False


class DramModel:
    """Per-bank open row tracking; uniform timing otherwise."""

    def __init__(self, n_banks: int = 16, base_latency: float = 100.0,
                 page_miss_penalty: float = 40.0,
                 activate_ignore_load: int = 12) -> None:
        self.n_banks = n_banks
        self.base_latency = base_latency
        self.page_miss_penalty = page_miss_penalty
        #: Outstanding-request count above which activate hints are ignored.
        self.activate_ignore_load = activate_ignore_load
        self._open_row: Dict[int, int] = {}
        self._pending_activates: Dict[int, int] = {}
        self.accesses = 0
        self.page_hits = 0
        self.page_misses = 0
        self.early_activates_honored = 0
        self.early_activates_ignored = 0
        self.outstanding = 0
        # Timing is uniform per outcome, so every access returns one of
        # three immutable results.
        self._page_hit = DramAccessResult(base_latency, page_hit=True)
        self._early_miss = DramAccessResult(base_latency, page_hit=False,
                                            early_activated=True)
        self._page_miss = DramAccessResult(base_latency + page_miss_penalty,
                                           page_hit=False)

    def early_activate(self, addr: int) -> bool:
        """Speculatively open the page for ``addr``; may be ignored under
        heavy load.  Returns True when honoured."""
        if self.outstanding > self.activate_ignore_load:
            self.early_activates_ignored += 1
            return False
        self._pending_activates[(addr >> _BANK_SHIFT) % self.n_banks] = \
            addr >> _ROW_SHIFT
        self.early_activates_honored += 1
        return True

    def access(self, addr: int) -> DramAccessResult:
        """One read/write; returns device latency (controller queueing and
        interconnect latency are added by the caller)."""
        self.accesses += 1
        bank = (addr >> _BANK_SHIFT) % self.n_banks
        row = addr >> _ROW_SHIFT
        early = self._pending_activates.pop(bank, None)
        if self._open_row.get(bank) == row:
            self.page_hits += 1
            return self._page_hit
        self.page_misses += 1
        self._open_row[bank] = row
        if early == row:
            # Activation already in flight thanks to the sideband hint.
            return self._early_miss
        return self._page_miss

    @property
    def page_hit_rate(self) -> float:
        total = self.page_hits + self.page_misses
        return self.page_hits / total if total else 0.0

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        from ..state import to_pairs

        return {
            "open_row": to_pairs(self._open_row),
            "pending_activates": to_pairs(self._pending_activates),
            "accesses": self.accesses,
            "page_hits": self.page_hits,
            "page_misses": self.page_misses,
            "early_activates_honored": self.early_activates_honored,
            "early_activates_ignored": self.early_activates_ignored,
            "outstanding": self.outstanding,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self._open_row = {int(b): int(r) for b, r in state["open_row"]}
        self._pending_activates = {
            int(b): int(r) for b, r in state["pending_activates"]}
        self.accesses = int(state["accesses"])
        self.page_hits = int(state["page_hits"])
        self.page_misses = int(state["page_misses"])
        self.early_activates_honored = int(state["early_activates_honored"])
        self.early_activates_ignored = int(state["early_activates_ignored"])
        self.outstanding = int(state["outstanding"])
