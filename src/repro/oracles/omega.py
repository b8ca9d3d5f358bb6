"""An implementable Ω failure detector driven by observed deliveries.

The paper treats Ω as given, citing linear-message implementations
[22, 24] and stable-election results [1, 16]; its analysis deliberately
excludes election cost because "the same leader may persist for numerous
instances of consensus".  This module provides the implementation those
citations stand for, at the abstraction GIRAF uses:

:class:`HeartbeatOmega` watches which processes' messages actually arrive
(the runner reports each round's delivery matrix through
:meth:`observe`) and trusts the smallest-id process heard within the last
``suspicion_rounds`` rounds.  Properties:

- **Eventual agreement**: once the system stabilizes and some correct
  process's messages reach everyone each round (true under ES/◊LM/◊WLM
  for the leader, and eventually for the min-id correct process under
  any model where it is a source), all processes converge on one leader.
- **Crash detection**: a crashed leader stops being heard and is dropped
  after ``suspicion_rounds`` rounds, after which the next process takes
  over — exercising consensus through leader re-election.
- **Stability**: the output changes only when the current leader goes
  quiet or a smaller-id process reappears, matching the stable-election
  goal of [1, 24].

The detector is *local*: each process's view depends only on its own row
of the delivery matrices, as a real implementation's would.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.giraf.oracle import Oracle
from repro.obs.registry import MetricsRegistry, registry_or_null


class HeartbeatOmega(Oracle):
    """Ω from observed heartbeats: trust the smallest-id recently-heard process."""

    def __init__(
        self,
        n: int,
        suspicion_rounds: int = 3,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if n < 1:
            raise ValueError("n must be positive")
        if suspicion_rounds < 1:
            raise ValueError("suspicion_rounds must be at least 1")
        self.n = n
        self.suspicion_rounds = suspicion_rounds
        # Plain Python rows, one per process: the event-driven stack
        # observes and queries one row of n entries at a time, where a
        # NumPy call costs more than the work itself.
        # _heard[dst][src] = last round in which dst heard src.
        self._heard: list[list[int]] = [[0] * n for _ in range(n)]
        # _suspects[dst][src]: was src outside dst's window at dst's last
        # observation?  Round 0 starts with nothing suspected.
        self._suspects: list[list[bool]] = [[False] * n for _ in range(n)]
        self._metrics = registry_or_null(metrics)
        self._suspicions_raised = self._metrics.counter("omega.suspicions_raised")
        self._suspicions_cleared = self._metrics.counter(
            "omega.suspicions_cleared"
        )
        self._leader_changes = self._metrics.counter("omega.leader_changes")
        self._last_output: dict[int, int] = {}

    @property
    def _last_heard(self) -> np.ndarray:
        """The freshness map ``[dst, src]`` as an ``(n, n)`` array (a copy)."""
        return np.array(self._heard, dtype=int)

    @property
    def _suspected(self) -> np.ndarray:
        """The suspicion map ``[dst, src]`` as an ``(n, n)`` array (a copy)."""
        return np.array(self._suspects, dtype=bool)

    def _observe(self, pid: int, round_number: int, heard: Sequence) -> None:
        """Row ``pid``'s update for one round; ``heard[src]`` is truthy
        iff ``pid`` heard ``src`` (``pid`` always hears itself)."""
        last = self._heard[pid]
        flags = self._suspects[pid]
        horizon = round_number - self.suspicion_rounds
        raised = cleared = 0
        for src in range(self.n):
            # Monotone: an old round can confirm, never roll back.
            if (heard[src] or src == pid) and last[src] < round_number:
                last[src] = round_number
            suspect = last[src] < horizon
            if suspect != flags[src]:
                flags[src] = suspect
                if suspect:
                    raised += 1
                else:
                    cleared += 1
        if raised:
            self._suspicions_raised.inc(raised)
        if cleared:
            self._suspicions_cleared.inc(cleared)

    def observe(self, round_number: int, delivered: np.ndarray) -> None:
        """Feed one round's delivery matrix (``delivered[dst, src]``).

        The lockstep runner calls this at the end of every round; each
        process always "hears" itself.  The freshness map is monotone:
        a repeated or out-of-order observation (replayed matrices, a
        fault-injected runner re-driving a round) can only confirm that a
        process was heard, never roll its last-heard round backwards and
        resurrect suspicion of a live process.
        """
        if delivered.shape != (self.n, self.n):
            raise ValueError("delivery matrix has wrong shape")
        rows = delivered.tolist()
        for pid in range(self.n):
            self._observe(pid, round_number, rows[pid])

    def observe_row(
        self, pid: int, round_number: int, heard_row: Sequence[bool]
    ) -> None:
        """Feed one process's view of one round: ``heard_row[src]`` says
        whether ``pid`` heard ``src`` this round (a 1-D array or a list
        of ``n`` booleans).

        The detector is local — :meth:`query`/:meth:`trusted`/:meth:`alive`
        for ``pid`` read only row ``pid`` of the freshness map — so the
        event-driven path can report each node's round observation the
        moment that node's round ends, instead of waiting to assemble the
        full matrix.  A sequence of per-row observations is exactly
        equivalent to :meth:`observe` of the assembled matrix: same
        freshness map, same suspicion counters (summed per row).
        """
        if isinstance(heard_row, np.ndarray):
            if heard_row.shape != (self.n,):
                raise ValueError("delivery row has wrong shape")
            heard_row = heard_row.tolist()
        elif len(heard_row) != self.n:
            raise ValueError("delivery row has wrong shape")
        self._observe(pid, round_number, heard_row)

    def observe_rows(
        self,
        round_number: int,
        delivered: np.ndarray,
        rows: Optional[Sequence[int]] = None,
    ) -> None:
        """Feed one round's delivery matrix for a subset of receivers:
        exactly :meth:`observe_row` for each pid in ``rows`` (all of them
        when ``rows`` is ``None``), in order."""
        delivered = np.asarray(delivered)
        if delivered.shape != (self.n, self.n):
            raise ValueError("delivery matrix has wrong shape")
        matrix = delivered.tolist()
        for pid in range(self.n) if rows is None else rows:
            self._observe(pid, round_number, matrix[pid])

    def replay_rounds(
        self,
        delivered: np.ndarray,
        ended: np.ndarray,
        queried: np.ndarray,
    ) -> np.ndarray:
        """Observe and query a whole run's rounds ``1..R`` in one pass.

        ``delivered[k - 1, dst, src]`` is round ``k``'s delivery matrix;
        process ``pid`` reports rounds ``1..ended[pid]``; ``queried[k - 1]``
        says whether round ``k``'s queries reach this detector (a leader
        churn wrapper answers them itself).  Equivalent to, for each round
        ``k`` and each reporting ``pid`` in order, :meth:`observe_row`
        of row ``pid`` followed, if queried, by :meth:`query`: the same
        freshness and suspicion maps, counters and last outputs.  This is
        the bulk seam of the batched round-sync executor.

        Returns the ``(R, n)`` leaders ``query(pid, k)`` answers (entries
        past a process's last reported round are meaningless).
        """
        rounds = delivered.shape[0]
        n = self.n
        if delivered.shape != (rounds, n, n):
            raise ValueError("delivery matrices have wrong shape")
        k_index = np.arange(1, rounds + 1)
        reporting = k_index[:, None] <= np.asarray(ended)[None, :]
        heard = delivered.astype(bool)
        heard[:, np.arange(n), np.arange(n)] = True
        heard &= reporting[:, :, None]
        # fresh[k] is the freshness map after round k (fresh[0]: before).
        fresh = np.empty((rounds + 1, n, n), dtype=np.int64)
        fresh[0] = self._heard
        fresh[1:] = np.where(heard, k_index[:, None, None], 0)
        np.maximum.accumulate(fresh, axis=0, out=fresh)
        horizon = (k_index - self.suspicion_rounds)[:, None, None]
        suspect = fresh[1:] < horizon
        before = np.empty_like(suspect)
        before[0] = self._suspects
        before[1:] = suspect[:-1]
        live = reporting[:, :, None]
        raised = int(np.count_nonzero(suspect & ~before & live))
        cleared = int(np.count_nonzero(~suspect & before & live))
        if raised:
            self._suspicions_raised.inc(raised)
        if cleared:
            self._suspicions_cleared.inc(cleared)
        alive = fresh[1:] >= horizon
        leaders = np.where(
            alive.any(axis=2), alive.argmax(axis=2), np.arange(n)[None, :]
        )
        asked = reporting & np.asarray(queried, dtype=bool)[:, None]
        changes = 0
        for pid in range(n):
            answers = leaders[asked[:, pid], pid]
            if answers.size == 0:
                continue
            previous = self._last_output.get(pid)
            if previous is not None and previous != answers[0]:
                changes += 1
            changes += int(np.count_nonzero(answers[1:] != answers[:-1]))
            self._last_output[pid] = int(answers[-1])
        if changes:
            self._leader_changes.inc(changes)
        self._heard = fresh[-1].tolist()
        for pid in range(n):
            if ended[pid] > 0:
                self._suspects[pid] = suspect[ended[pid] - 1, pid].tolist()
        return leaders

    def alive(self, pid: int, round_number: int) -> np.ndarray:
        """Mask of processes inside ``pid``'s trust window at ``round_number``.

        This is the window :meth:`trusted` selects from; it must be the
        exact complement of :meth:`suspected` at every round, or trust
        and suspicion accounting drift apart at the window boundary.
        """
        return np.array(self._heard[pid]) >= round_number - self.suspicion_rounds

    def suspected(self, pid: int, round_number: int) -> np.ndarray:
        """Mask of processes outside ``pid``'s window at ``round_number``.

        The same windowed comparison :meth:`observe` uses for the
        suspicion metrics, exposed per-process for inspection and tests.
        """
        return np.array(self._heard[pid]) < (round_number - self.suspicion_rounds)

    def trusted(self, pid: int, round_number: int) -> int:
        """The smallest-id process ``pid`` heard within the suspicion window."""
        horizon = round_number - self.suspicion_rounds
        for src, last in enumerate(self._heard[pid]):
            if last >= horizon:
                return src
        return pid  # heard nobody recently — trust self

    def query(self, pid: int, round_number: int) -> int:
        leader = self.trusted(pid, round_number)
        previous = self._last_output.get(pid)
        if previous is not None and previous != leader:
            self._leader_changes.inc()
        self._last_output[pid] = leader
        return leader
