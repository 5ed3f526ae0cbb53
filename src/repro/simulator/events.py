"""A small discrete-event core used by the network simulation.

Events are (time, sequence, callback) triples in a binary heap; ties are
broken by insertion order so simulations are fully deterministic.

The heap supports callbacks that schedule further events; the network's
``loop``-engine drain (:meth:`repro.simulator.network.Network.transfer`) runs
on it.

:func:`batch_order` is the array-resident form of the heap's ordering: given
a structure-of-arrays phase (start times, sources, destinations) it returns
the heap-equivalent dispatch permutation in one stable ``lexsort``, for the
array drain, which never materialises per-event callbacks at all.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)


class EventQueue:
    """Deterministic discrete-event queue."""

    def __init__(self) -> None:
        self._heap: list[_Event] = []
        self._seq = 0
        self.now = 0.0
        self.processed = 0

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule *callback* to run at absolute simulated time *time*."""
        if time < self.now:
            time = self.now
        heapq.heappush(self._heap, _Event(time=time, seq=self._seq, callback=callback))
        self._seq += 1

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        self.schedule(self.now + max(delay, 0.0), callback)

    def empty(self) -> bool:
        return not self._heap

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        self.now = event.time
        event.callback()
        self.processed += 1
        return True

    def run(self, max_events: int | None = None) -> int:
        """Run until the queue drains (or *max_events* is hit). Returns events processed."""
        count = 0
        while self._heap:
            if max_events is not None and count >= max_events:
                break
            self.step()
            count += 1
        return count

    def reset(self) -> None:
        self._heap.clear()
        self._seq = 0
        self.now = 0.0
        self.processed = 0


def batch_order(start: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Dispatch order of a structure-of-arrays message batch.

    Returns the permutation that visits messages in ascending
    ``(start_time, src, dst)`` order with input order breaking exact ties —
    the same contract as the event heap, but computed with one stable
    ``np.lexsort`` instead of a python ``sorted`` over tuples.  The array
    network drain uses this to order its colliding stages.
    """
    return np.lexsort((dst, src, start))

