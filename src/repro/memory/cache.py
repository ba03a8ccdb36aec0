"""Set-associative cache with optional sectored tags and rich metadata.

The building block for L1D/L1I/L2/L3.  The L2's tags are "sectored at a
128B granule for a default data line size of 64B", which "reduces the tag
area and allows a lower latency for tag lookups" (Section VIII-B) — here a
sector entry carries a per-64B-line valid mask, so the Buddy prefetcher can
fill the neighbour line with zero pollution (the buddy slot would stay
invalid otherwise).

Lines carry the coordinated-management metadata of Section VIII-A:
prefetched/accessed bits (adaptive prefetcher accuracy tracking) and reuse
hints passed between cache levels on castout.
"""

from __future__ import annotations

from collections import OrderedDict
from types import MappingProxyType
from typing import Iterator, List, Mapping, Optional, Tuple

#: Stand-in for every set that has never been filled.  Sets are
#: allocated on their first fill, so building a cache costs one list of
#: references instead of one ``OrderedDict`` per set; the stand-in is
#: read-only, so a lookup path can never write into it by mistake.
NO_LINES: Mapping = MappingProxyType(OrderedDict())


def set_geometry(num_sets: int) -> Tuple[int, int]:
    """``(mask, modulus)`` for indexing ``num_sets`` sets: a power of two
    takes ``key & mask`` (modulus 0); any other count, such as the M4
    L3's 3072 sets, takes ``key % modulus``.  Chosen once per instance,
    so lookups branch on a constant instead of dividing."""
    if num_sets & (num_sets - 1) == 0:
        return num_sets - 1, 0
    return 0, num_sets


def log2_exact(value: int, what: str) -> int:
    """``log2(value)`` for a power of two; ``ValueError`` otherwise."""
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{what} must be a power of two, got {value}")
    return value.bit_length() - 1


class CacheLine:
    """One resident line (or sector, for sectored caches).

    A plain ``__slots__`` class rather than a dataclass: no per-line
    ``__dict__``, on every supported Python (``dataclass(slots=True)``
    needs 3.10).  Lines compare by identity; nothing compares their
    values.
    """

    __slots__ = ("address", "valid_mask", "dirty", "prefetched",
                 "accessed", "hit_count", "reallocated", "rrpv")

    def __init__(self, address: int, valid_mask: int = 0b1,
                 dirty: bool = False, prefetched: bool = False,
                 accessed: bool = False, hit_count: int = 0,
                 reallocated: bool = False, rrpv: int = 0) -> None:
        #: Line/sector base address.
        self.address = address
        #: Per-64B-subline valid bits (bit 0 = low line); plain caches
        #: use 0b1.
        self.valid_mask = valid_mask
        self.dirty = dirty
        #: Filled by a prefetch and not yet touched by demand.
        self.prefetched = prefetched
        #: Touched by a demand access since fill.
        self.accessed = accessed
        #: Hits observed while resident at this level (reuse tracking).
        self.hit_count = hit_count
        #: Came back from the L3 after a previous castout (re-allocation).
        self.reallocated = reallocated
        #: Replacement state for multi-state insertion: 0 = elevated
        #: (MRU), 1 = ordinary, used by the coordinated L3 policy.
        self.rrpv = rrpv

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"CacheLine({body})"


class SetAssocCache:
    """LRU set-associative cache over line (or sector) granules.

    Each set is an ``OrderedDict`` from sector base address to its
    :class:`CacheLine`, least recently used first.  Address arithmetic
    is fixed at construction: ``addr & sector_mask`` is the sector base,
    ``addr >> set_shift`` the set key, and ``(addr >> line_shift) &
    subline_mask`` the 64B subline inside a sector.  Line and sector
    sizes must be powers of two; set counts need not be (see
    :func:`set_geometry`).
    """

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = 64,
                 sector_bytes: Optional[int] = None,
                 name: str = "cache") -> None:
        if size_bytes <= 0 or ways <= 0:
            raise ValueError("size and ways must be positive")
        self.name = name
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes or line_bytes
        if self.sector_bytes % line_bytes:
            raise ValueError("sector must be a multiple of the line size")
        self.lines_per_sector = self.sector_bytes // line_bytes
        #: Number of tag entries (sectors), preserving total data capacity.
        self.num_entries = size_bytes // self.sector_bytes
        self.ways = min(ways, self.num_entries)
        self.num_sets = max(1, self.num_entries // self.ways)
        self.line_shift = log2_exact(line_bytes, "line size")
        self.set_shift = log2_exact(self.sector_bytes, "sector size")
        self.sector_mask = ~(self.sector_bytes - 1)
        self.subline_mask = self.lines_per_sector - 1
        self.set_mask, self.set_modulus = set_geometry(self.num_sets)
        self._sets: List[Mapping[int, CacheLine]] = [NO_LINES] * self.num_sets
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.prefetch_fills = 0

    # -- operations ---------------------------------------------------------------

    def probe(self, addr: int) -> Optional[CacheLine]:
        """Demand lookup: return the resident line covering ``addr`` (made
        most recently used, its hit counted) or None (a counted miss).

        A sector tag hit with the subline invalid is a miss (the Buddy
        case: the neighbour slot exists but holds no data).
        """
        key = addr >> self.set_shift
        mod = self.set_modulus
        s = self._sets[key % mod if mod else key & self.set_mask]
        sector = addr & self.sector_mask
        entry = s.get(sector)
        if entry is not None and entry.valid_mask >> (
                (addr >> self.line_shift) & self.subline_mask) & 1:
            s.move_to_end(sector)
            self.hits += 1
            entry.hit_count += 1
            return entry
        self.misses += 1
        return None

    def peek(self, addr: int) -> Optional[CacheLine]:
        """The resident line covering ``addr`` or None, without touching
        LRU order or the hit/miss counters (prefetch filters, tag
        checks)."""
        key = addr >> self.set_shift
        mod = self.set_modulus
        entry = self._sets[key % mod if mod else key & self.set_mask].get(
            addr & self.sector_mask)
        if entry is not None and entry.valid_mask >> (
                (addr >> self.line_shift) & self.subline_mask) & 1:
            return entry
        return None

    def contains(self, addr: int) -> bool:
        return self.peek(addr) is not None

    def fill(self, addr: int, dirty: bool = False, prefetched: bool = False,
             reallocated: bool = False,
             insert_lru: bool = False) -> Optional[CacheLine]:
        """Install the 64B line covering ``addr``; returns the evicted
        victim (a whole sector) or None.

        ``insert_lru`` inserts at LRU position (the "ordinary" replacement
        state of the coordinated policy); default insertion is MRU
        ("elevated").
        """
        key = addr >> self.set_shift
        mod = self.set_modulus
        idx = key % mod if mod else key & self.set_mask
        s = self._sets[idx]
        sector = addr & self.sector_mask
        bit = 1 << ((addr >> self.line_shift) & self.subline_mask)
        if prefetched:
            self.prefetch_fills += 1
        entry = s.get(sector)
        if entry is not None:
            entry.valid_mask |= bit
            if dirty:
                entry.dirty = True
            if prefetched and not entry.accessed:
                entry.prefetched = True
            s.move_to_end(sector)
            return None
        victim: Optional[CacheLine] = None
        if not s:
            # First fill of this set (or refill after invalidations).
            s = self._sets[idx] = OrderedDict()
        elif len(s) >= self.ways:
            victim = s.popitem(last=False)[1]
            self.evictions += 1
        s[sector] = CacheLine(sector, bit, dirty, prefetched, False, 0,
                              reallocated)
        if insert_lru:
            s.move_to_end(sector, last=False)
        return victim

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Remove (and return) the sector covering ``addr``, if resident."""
        key = addr >> self.set_shift
        mod = self.set_modulus
        s = self._sets[key % mod if mod else key & self.set_mask]
        return s.pop(addr & self.sector_mask, None) if s else None

    def iter_lines(self) -> Iterator[CacheLine]:
        for s in self._sets:
            yield from s.values()

    @property
    def resident_count(self) -> int:
        return sum(map(len, self._sets))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- checkpointing (state_dict protocol) --------------------------------
    # Every set index ``0..num_sets-1`` is listed, never-filled ones as
    # ``[]``, so the layout does not depend on when sets were allocated.

    def state_dict(self) -> dict[str, object]:
        return {
            "sets": [
                [[sector, {
                    "address": line.address,
                    "valid_mask": line.valid_mask,
                    "dirty": line.dirty,
                    "prefetched": line.prefetched,
                    "accessed": line.accessed,
                    "hit_count": line.hit_count,
                    "reallocated": line.reallocated,
                    "rrpv": line.rrpv,
                }] for sector, line in s.items()]
                for s in self._sets
            ],
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "prefetch_fills": self.prefetch_fills,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        sets = state["sets"]
        if len(sets) != self.num_sets:
            raise ValueError(
                f"{self.name}: checkpoint has {len(sets)} sets, this "
                f"geometry {self.num_sets}")
        rebuilt: List[Mapping[int, CacheLine]] = []
        for s in sets:
            if not s:
                rebuilt.append(NO_LINES)
                continue
            out: "OrderedDict[int, CacheLine]" = OrderedDict()
            for sector, d in s:
                out[int(sector)] = CacheLine(
                    address=int(d["address"]),
                    valid_mask=int(d["valid_mask"]),
                    dirty=bool(d["dirty"]),
                    prefetched=bool(d["prefetched"]),
                    accessed=bool(d["accessed"]),
                    hit_count=int(d["hit_count"]),
                    reallocated=bool(d["reallocated"]),
                    rrpv=int(d["rrpv"]),
                )
            rebuilt.append(out)
        self._sets = rebuilt
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.evictions = int(state["evictions"])
        self.prefetch_fills = int(state["prefetch_fills"])
