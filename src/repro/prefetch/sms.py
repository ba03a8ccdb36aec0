"""Spatial Memory Streaming prefetcher (Section VII-C, M3+).

The multi-stride engine cannot cover linked-structure traversals.  SMS
"tracks a primary load (the first miss to a region), and attaches
associated accesses to it (any misses with a different PC).  When the
primary load PC appears again, prefetches for the associated loads will be
generated based off the remembered offsets."

Per-offset confidence filters transient co-travellers: only high-
confidence offsets prefetch; at lower confidence the engine issues only
the first-pass (L2) prefetch.  Confirmations from the multi-stride engine
suppress SMS training so the two engines do not duplicate work.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_CONF_MAX = 3
#: Confidence required to issue a full (L1) prefetch.
_CONF_FULL = 2
#: Confidence at which only the first-pass (L2) prefetch issues.
_CONF_L2_ONLY = 1


@dataclass
class SmsPrefetch:
    address: int
    #: True: full prefetch into L1; False: first-pass (L2) only.
    to_l1: bool


@dataclass
class _ActiveRegion:
    primary_pc: int
    base: int
    offsets: Dict[int, bool] = field(default_factory=dict)


class SmsPrefetcher:
    """Active-generation table + PC-indexed pattern table."""

    def __init__(self, regions: int = 64, region_bytes: int = 1024,
                 pattern_entries: int = 256, line_bytes: int = 64) -> None:
        self.region_bytes = region_bytes
        self.line_bytes = line_bytes
        self.active_capacity = regions
        self.pattern_capacity = pattern_entries
        self._active: "OrderedDict[int, _ActiveRegion]" = OrderedDict()
        #: primary PC -> {offset -> confidence}
        self._patterns: "OrderedDict[int, Dict[int, int]]" = OrderedDict()
        self.suppressed = 0
        self.trainings = 0
        self.issued_l1 = 0
        self.issued_l2 = 0

    # -- training ---------------------------------------------------------------

    def train_miss(self, pc: int, addr: int,
                   stride_covered: bool = False) -> List[SmsPrefetch]:
        """Feed one demand L1 miss.  ``stride_covered`` marks misses the
        multi-stride engine confirmed — SMS training is suppressed for
        those (Section VII-C's duplicate-avoidance scheme)."""
        if stride_covered:
            self.suppressed += 1
            return []
        self.trainings += 1
        offset = addr % self.region_bytes
        base = addr - offset
        active = self._active
        region = active.get(base)
        if region is not None:
            if pc != region.primary_pc:
                region.offsets[offset] = True
            active.move_to_end(base)
            return []
        # First miss to the region: this PC is the primary load.  A
        # reappearing primary also *closes* its previous generation —
        # the natural generation boundary in SMS.
        for obase, oregion in list(active.items()):
            if oregion.primary_pc == pc:
                del active[obase]
                self._commit(oregion)
        while len(active) >= self.active_capacity:
            self._commit(active.popitem(last=False)[1])
        active[base] = _ActiveRegion(primary_pc=pc, base=base)
        # Predict from the pattern this PC left last time.
        pat = self._patterns.get(pc)
        if not pat:
            return []
        self._patterns.move_to_end(pc)
        line_bytes = self.line_bytes
        out: List[SmsPrefetch] = []
        for off, conf in pat.items():
            if conf >= _CONF_FULL:
                line = base + off
                out.append(SmsPrefetch(line - line % line_bytes, True))
                self.issued_l1 += 1
            elif conf >= _CONF_L2_ONLY:
                line = base + off
                out.append(SmsPrefetch(line - line % line_bytes, False))
                self.issued_l2 += 1
        return out

    def _commit(self, region: _ActiveRegion) -> None:
        """Fold an ended generation's observed offsets into the pattern
        table, adjusting per-offset confidence."""
        pat = self._patterns.get(region.primary_pc)
        if pat is None:
            pat = {}
            self._patterns[region.primary_pc] = pat
            while len(self._patterns) > self.pattern_capacity:
                self._patterns.popitem(last=False)
        self._patterns.move_to_end(region.primary_pc)
        seen = set(region.offsets)
        for off in seen:
            pat[off] = min(_CONF_MAX, pat.get(off, 0) + 1)
        for off in list(pat):
            if off not in seen:
                pat[off] -= 1
                if pat[off] <= 0:
                    del pat[off]

    def flush(self) -> None:
        """Commit every active generation (end-of-interval housekeeping)."""
        while self._active:
            _, region = self._active.popitem(last=False)
            self._commit(region)

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        from ..state import to_pairs

        return {
            "active": [[base, region.primary_pc,
                        sorted(region.offsets)]
                       for base, region in self._active.items()],
            "patterns": [[pc, to_pairs(pat)]
                         for pc, pat in self._patterns.items()],
            "suppressed": self.suppressed,
            "trainings": self.trainings,
            "issued_l1": self.issued_l1,
            "issued_l2": self.issued_l2,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self._active = OrderedDict()
        for base, primary_pc, offsets in state["active"]:
            self._active[int(base)] = _ActiveRegion(
                primary_pc=int(primary_pc), base=int(base),
                offsets={int(off): True for off in offsets})
        self._patterns = OrderedDict(
            (int(pc), {int(off): int(conf) for off, conf in pat})
            for pc, pat in state["patterns"])
        self.suppressed = int(state["suppressed"])
        self.trainings = int(state["trainings"])
        self.issued_l1 = int(state["issued_l1"])
        self.issued_l2 = int(state["issued_l2"])
