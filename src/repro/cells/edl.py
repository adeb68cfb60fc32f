"""Behavioural models of the two error-detecting latches of Fig. 2.

Both latches are time-borrowing: they pass late-arriving data through
while raising an error flag if the data was still changing inside the
timing-resiliency window.

* :class:`ShadowFlipFlopLatch` — a latch with a shadow master-slave
  flip-flop.  The shadow FF samples D at the opening edge of the
  resiliency window; an XOR continuously compares the sampled value
  with live data during the window and any mismatch is latched as an
  error.
* :class:`TransitionDetectingLatch` (TDTB) — a conventional latch, an
  XOR transition detector on D, and an asymmetric C-element that holds
  the error value: any D transition inside the window raises the error.

For clean input data (no glitches that cancel within the window
sampling), the two designs flag errors for exactly the same cycles;
they differ in their response to a glitch that returns to the sampled
value: the shadow-FF design sees a transient mismatch (latched by its
error C-element) and the TDTB sees two transitions — both still flag.
The benchmark ``test_fig2_edl_behaviour`` checks this equivalence.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: A (time, value) pair describing a transition on the data input.
EdlEvent = Tuple[float, int]


def _value_at(events: Sequence[EdlEvent], time: float, initial: int) -> int:
    """Value of a piecewise-constant waveform at ``time`` (inclusive)."""
    value = initial
    for when, new_value in events:
        if when <= time:
            value = new_value
        else:
            break
    return value


def _check_events(events: Sequence[EdlEvent]) -> List[EdlEvent]:
    ordered = list(events)
    for earlier, later in zip(ordered, ordered[1:]):
        if later[0] < earlier[0]:
            raise ValueError("data events must be sorted by time")
    for _, value in ordered:
        if value not in (0, 1):
            raise ValueError("data values must be 0 or 1")
    return ordered


@dataclass(frozen=True)
class EdlResult:
    """Outcome of one resiliency-window evaluation."""

    error: bool
    captured: int
    #: Time the error signal asserted (None when no error).
    error_time: float = float("nan")


class ShadowFlipFlopLatch:
    """Time-borrowing latch with a shadow MSFF comparator (Fig. 2a)."""

    name = "shadow_msff"

    def evaluate(
        self,
        events: Sequence[EdlEvent],
        window_open: float,
        window_close: float,
        initial: int = 0,
    ) -> EdlResult:
        """Evaluate one cycle.

        ``events`` are D transitions (sorted by time).  The shadow FF
        samples D at ``window_open``; the XOR flags any instant in
        ``(window_open, window_close]`` where live data differs from
        the sample, and the error C-element holds the first mismatch.
        """
        ordered = _check_events(events)
        if window_close < window_open:
            raise ValueError("window_close must be >= window_open")
        sampled = _value_at(ordered, window_open, initial)
        error_time = float("nan")
        for when, value in ordered:
            if window_open < when <= window_close and value != sampled:
                error_time = when
                break
        captured = _value_at(ordered, window_close, initial)
        has_error = error_time == error_time  # NaN check
        return EdlResult(error=has_error, captured=captured, error_time=error_time)


class TransitionDetectingLatch:
    """Transition-detecting time-borrowing latch, TDTB (Fig. 2b)."""

    name = "tdtb"

    def evaluate(
        self,
        events: Sequence[EdlEvent],
        window_open: float,
        window_close: float,
        initial: int = 0,
    ) -> EdlResult:
        """Flag an error on *any* D transition inside the window."""
        ordered = _check_events(events)
        if window_close < window_open:
            raise ValueError("window_close must be >= window_open")
        error_time = float("nan")
        previous = _value_at(ordered, window_open, initial)
        for when, value in ordered:
            if when <= window_open:
                continue
            if when > window_close:
                break
            if value != previous:
                error_time = when
                break
            previous = value
        captured = _value_at(ordered, window_close, initial)
        has_error = error_time == error_time
        return EdlResult(error=has_error, captured=captured, error_time=error_time)


def window_has_transition(
    transition_times: Sequence[float], window_open: float, window_close: float
) -> bool:
    """True when any transition time falls in ``(open, close]``.

    This is the abstract error condition both Fig. 2 latches implement;
    the error-rate estimator uses it directly on simulator traces.
    """
    times = sorted(transition_times)
    index = bisect_right(times, window_open)
    return index < len(times) and times[index] <= window_close


#: Amortized area overheads of published EDL schemes, relative to a
#: plain latch (the paper sweeps c over [0.5, 2] "similar to [12],
#: representing the fact that the amortized area of different proposed
#: EDL schemes can range from 50% to 2X larger than a normal latch").
#: The anchors below give the sweep physical reference points.
EDL_SCHEME_OVERHEADS = {
    # Transition-detecting time-borrowing latch (Fig. 2b): one XOR and
    # an asymmetric C-element amortized over the error tree.
    "tdtb": 0.5,
    # Razor-style shadow master-slave flip-flop (Fig. 2a).
    "shadow_msff": 1.0,
    # Low-power in-situ detector with clock gating support [14].
    "low_power": 0.75,
    # Metastability-hardened detector with synchronizer chain [8].
    "metastability_hardened": 2.0,
}
