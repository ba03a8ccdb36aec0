"""One-pass/two-pass prefetch issue scheme (Section VII-B, Figure 14).

To keep large prefetch degrees from exhausting the scarce L1 miss buffers,
a first-pass prefetch does not allocate an L1 miss buffer: it is sent as a
fill request into the L2 (steps 1-4 of Figure 14) while its address waits
in a queue; when an L1 miss buffer frees up, the second pass allocates it
and fills the L1 (steps 5-7).

When the working set fits in the L2, every first pass hits there and the
scheme wastes L2 bandwidth; a watermark of first-pass L2 hits flips the
engine into one-pass mode (only the queue step happens up front, and the
L1 fill runs directly when buffers allow), "saving both power and L2
bandwidth".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class PrefetchIssuePlan:
    """How one L1 prefetch request should be executed."""

    #: Fill the L2 first (two-pass first pass).
    fill_l2_first: bool
    #: Extra cycles before the L1 fill completes (second-pass re-request).
    second_pass_delay: float
    mode: str  # "two" or "one"


class TwoPassController:
    """Watermark-driven mode switch between two-pass and one-pass."""

    #: First-pass L2 hits (within the window) that flip to one-pass mode.
    WATERMARK = 16
    #: Window of first-pass probes per evaluation.
    WINDOW = 32

    #: The one-pass plan (no second-pass delay).
    ONE_PASS = PrefetchIssuePlan(fill_l2_first=False, second_pass_delay=0.0,
                                 mode="one")

    def __init__(self, second_pass_delay: float = 8.0) -> None:
        self.mode = "two"
        self.second_pass_delay = second_pass_delay
        #: Plans are immutable, so `plan()` hands out one of two objects.
        self._two_pass = PrefetchIssuePlan(
            fill_l2_first=True, second_pass_delay=second_pass_delay,
            mode="two")
        self._window_probes = 0
        self._window_l2_hits = 0
        self.mode_switches = 0
        self.first_pass_issues = 0
        self.one_pass_issues = 0

    def plan(self) -> PrefetchIssuePlan:
        if self.mode == "two":
            self.first_pass_issues += 1
            return self._two_pass
        self.one_pass_issues += 1
        return self.ONE_PASS

    def observe_first_pass(self, l2_hit: bool) -> None:
        """Track where first passes land; adjust the mode at window ends."""
        self._window_probes += 1
        if l2_hit:
            self._window_l2_hits += 1
        if self._window_probes < self.WINDOW:
            return
        if self.mode == "two" and self._window_l2_hits >= self.WATERMARK:
            self.mode = "one"
            self.mode_switches += 1
        elif self.mode == "one" and self._window_l2_hits < self.WATERMARK // 2:
            self.mode = "two"
            self.mode_switches += 1
        self._window_probes = 0
        self._window_l2_hits = 0

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        return {
            "mode": self.mode,
            "window_probes": self._window_probes,
            "window_l2_hits": self._window_l2_hits,
            "mode_switches": self.mode_switches,
            "first_pass_issues": self.first_pass_issues,
            "one_pass_issues": self.one_pass_issues,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        if state["mode"] not in ("two", "one"):
            raise ValueError(f"bad two-pass mode {state['mode']!r}")
        self.mode = str(state["mode"])
        self._window_probes = int(state["window_probes"])
        self._window_l2_hits = int(state["window_l2_hits"])
        self.mode_switches = int(state["mode_switches"])
        self.first_pass_issues = int(state["first_pass_issues"])
        self.one_pass_issues = int(state["one_pass_issues"])
