"""The shared trailing-window SLO burn signal.

One class answers "what counts as an SLO violation right now" for both
the autoscaler and the monitor: the
:class:`~repro.scale.controller.BurnRateController` owns a live
instance fed in event order during the run, and the monitor's series
builder replays an identical instance post-hoc from the causal record.
A test pins that the replay reproduces, at every control tick, the
burn the controller acted on (the elastic loop records it on each tick
action).

A window counts two kinds of violation:

* completions inside the trailing window whose TTI exceeds the SLO
  (per-class deques of ``(completion time, violated)``);
* admitted, still unresolved requests already older than the SLO.
  These cannot finish in budget any more.  A monotone cursor over the
  admissions counts them in amortised ``O(1)`` per request: admissions
  arrive in time order, windows are asked for at non-decreasing
  ``now``, and ``now - arrival > slo`` stays true once it holds, so the
  cursor never backs up.  It applies the identical float comparison a
  full scan of the admitted records would, so both count the same
  requests at every instant.

Fault timestamps (deaths, stall onsets) are kept for one window too.
Windows are answered with the same
:class:`~repro.telemetry.metrics.BurnWindow` arithmetic the post-run
telemetry pipeline reports.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Tuple

from ..telemetry.metrics import BurnWindow

__all__ = ["BurnSignal"]


class BurnSignal:
    """Trailing-window completion/violation/fault bookkeeping.

    ``window_s`` is the trailing-window width (the controller passes
    its control interval), ``slo_s`` the latency objective that
    classifies a completion as violating, ``n_classes`` the number of
    priority classes tracked independently.
    """

    def __init__(self, window_s: float, slo_s: float, n_classes: int = 1):
        if not (math.isfinite(window_s) and window_s > 0):
            raise ValueError(
                f"window_s must be finite and positive, got {window_s!r}")
        if not (math.isfinite(slo_s) and slo_s > 0):
            raise ValueError(
                f"slo_s must be finite and positive, got {slo_s!r}")
        if n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {n_classes!r}")
        self.window_s = window_s
        self.slo_s = slo_s
        self.n_classes = n_classes
        #: Per-class (completion time, violated) in completion order.
        self._completions: List[Deque[Tuple[float, bool]]] = [
            deque() for _ in range(n_classes)]
        #: Fault-event timestamps (deaths, stall onsets) in event order.
        self._faults: Deque[float] = deque()
        #: Admissions in admission order, and each open one's position.
        self._arrivals: List[float] = []
        self._classes: List[int] = []
        self._resolved: List[bool] = []
        self._pos: Dict[int, int] = {}
        #: Admissions before the cursor are older than the SLO.
        self._cursor = 0
        self._overdue = [0] * n_classes

    def note_admission(self, req_id: int, arrival_s: float,
                       priority: int = 0) -> None:
        """Record one admitted request (call in admission order)."""
        self._pos[req_id] = len(self._arrivals)
        self._arrivals.append(arrival_s)
        self._classes.append(priority)
        self._resolved.append(False)

    def note_completion(self, req_id: int, done_s: float,
                        tti_latency_s: float, priority: int = 0) -> None:
        """Record one resolved request (call in completion order).

        Resolves ``req_id``'s admission, if it was noted, so it stops
        counting as overdue.
        """
        self._completions[priority].append(
            (done_s, tti_latency_s > self.slo_s))
        index = self._pos.pop(req_id, None)
        if index is not None:
            self._resolved[index] = True
            if index < self._cursor:
                # Already counted overdue; it no longer is.
                self._overdue[self._classes[index]] -= 1

    def note_fault(self, t_s: float) -> None:
        """Record one fault event (call in event order)."""
        self._faults.append(t_s)

    def advance(self, start_s: float) -> None:
        """Drop completions and faults older than ``start_s``."""
        for completions in self._completions:
            while completions and completions[0][0] < start_s:
                completions.popleft()
        while self._faults and self._faults[0] < start_s:
            self._faults.popleft()

    def recent_faults(self) -> int:
        """Fault events still inside the last-advanced window."""
        return len(self._faults)

    def overdue(self, now_s: float) -> List[int]:
        """Per-class count of open admissions older than the SLO.

        Calls must come at non-decreasing ``now_s``.
        """
        arrivals = self._arrivals
        cursor = self._cursor
        end = len(arrivals)
        slo = self.slo_s
        while cursor < end and now_s - arrivals[cursor] > slo:
            if not self._resolved[cursor]:
                self._overdue[self._classes[cursor]] += 1
            cursor += 1
        self._cursor = cursor
        return list(self._overdue)

    def class_windows(self, index: int, now_s: float
                      ) -> Tuple[BurnWindow, ...]:
        """One trailing window per priority class, ending at ``now_s``.

        Each class's overdue requests count as violations the window
        has effectively observed even though they have no completion
        timestamp yet.  The caller supplies the shared window ``index``
        (the controller's tick counter; the monitor's sample counter on
        replay).
        """
        start_s = now_s - self.window_s
        self.advance(start_s)
        windows = []
        for completions, overdue in zip(self._completions,
                                        self.overdue(now_s)):
            n_violations = sum(1 for _, violated in completions
                               if violated)
            windows.append(BurnWindow(
                index=index,
                start_s=start_s,
                end_s=now_s,
                n_requests=len(completions) + overdue,
                n_violations=n_violations + overdue,
            ))
        return tuple(windows)
