"""The entanglement sources' bank: every attempt fired in NumPy windows.

:class:`~repro.sim.processes.EntanglementSource` keeps no events of its own;
the first source a simulator starts attaches a :class:`SourceBank` as the
simulator's :class:`~repro.sim.engine.Bank`, and the bank fires every
source's attempts between two heap events in one vectorized pass.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.sim.engine import ARMED, Bank, Window
from repro.sim.processes import PRIORITY_PHYSICS, AllocationState, EntanglementSource

__all__ = ["RNG_CHUNK", "SLICE_ATTEMPTS", "SourceBank"]

#: Bulk-draw size for the entanglement sources' RNG buffers.  A link at
#: β = 100 pairs/s refills every ~2.5 simulated seconds; the draw cost per
#: event drops from one Generator call to an amortized array index.
RNG_CHUNK = 256

#: About how many attempts :class:`SourceBank` fires in one vectorized pass.
SLICE_ATTEMPTS = 4096


class SourceBank(Bank):
    """Every :class:`~repro.sim.processes.EntanglementSource` of one
    simulator, fired in windows.

    Only heap events change what a source reads (its link's allocation,
    its pause flag), so between two heap events the sources' attempts are
    independent of each other.  Before the run loop pops a heap entry,
    :meth:`advance` takes every pending attempt in the engine's
    :class:`~repro.sim.engine.Window` (ordered before that entry and at or
    before the horizon) and fires them in one vectorized pass:

    * per source, it extends the chain of attempt times
      ``t_k = t_{k-1} + d_k`` (``np.add.accumulate`` along a row makes the
      same float64 additions the heap path made) and parses the decision
      uniforms into attempts (one uniform, or two when a success on a
      routed link picks its route), refilling either buffer at exactly the
      attempt where the heap path refilled it;
    * across sources, :meth:`Simulator.fire_block
      <repro.sim.engine.Simulator.fire_block>` puts the attempts in heap
      order, gives each fired attempt's successor the seq it would have
      been armed with, counts and traces them and runs
      :meth:`~repro.sim.processes.RouteBuffers.on_pair` for the routed
      successes in event order.

    Per-source state is held in arrays shared by the bank, one row per
    source: the pending attempt's time and seq, the delay and uniform
    buffers with their read positions, and the counters.  A paused
    source's pending attempt is handed to the heap as an inert event under
    its own key, so it still fires, traced, and does nothing.
    :meth:`release` drops everything but the counters.
    """

    priority = PRIORITY_PHYSICS

    def __init__(self, sim) -> None:
        self.sim = sim
        self.chunk = RNG_CHUNK
        self.sources: List[EntanglementSource] = []
        self._names = set()  # one source per named stream
        #: started sources not yet in the arrays: (source, seq, armed at)
        self._staged: List[Tuple[EntanglementSource, int, float]] = []
        self.time = np.empty(0)  # pending attempt per row; inf while paused
        self.seq = np.empty(0, np.int64)
        self.beta = np.empty(0)
        # The buffers are row views of flat arrays padded past the last row,
        # so a window of any row's next reads is one strided slice (reads
        # past a row's end see the next row or the padding: finite and
        # non-negative, and never used, see _round).
        self._delay_cells = np.zeros(self.chunk)
        self.delays = self._delay_cells[:0].reshape(0, self.chunk)
        self.dpos = np.empty(0, np.intp)  # next unread delay
        #: column 0 holds a uniform carried over a refill (see _refill_uniforms)
        self._uniform_cells = np.zeros(2 * self.chunk + 1)
        self.uniforms = self._uniform_cells[:0].reshape(0, self.chunk + 1)
        self.upos = np.empty(0, np.intp)  # next unread uniform
        self.attempts = np.empty(0, np.int64)
        self.pairs = np.empty(0, np.int64)
        self.codes = np.empty(0, "L")  # trace tag codes
        #: earliest pending attempt (a lower bound while sources are staged)
        self.next_time = np.inf
        self._states: List[AllocationState] = []
        self._versions: Optional[List[int]] = None
        self._p = np.empty(0)  # success probability per row
        self._routed = np.empty(0, bool)  # the row's link carries route shares

    # -- sources ----------------------------------------------------------------

    def register(self, source: EntanglementSource) -> None:
        """Arm a starting source's first attempt from now."""
        if source.name in self._names:
            raise ValueError(f"two sources draw from stream {source.name!r}")
        self._names.add(source.name)
        sim = self.sim
        source._slot = len(self.sources) + len(self._staged)
        self._staged.append((source, sim.reserve_seq(), sim.now))
        self.next_time = min(self.next_time, sim.now)
        if not source.active:  # paused before it started
            self.pause(source)

    def sync(self) -> None:
        """Move the staged sources into the arrays, drawing their delays."""
        staged = self._staged
        if not staged:
            return
        sim, chunk = self.sim, self.chunk
        sources = [source for source, _, _ in staged]
        old, rows = len(self.sources), len(self.sources) + len(sources)
        self.sources.extend(sources)
        # Each row is drawn into place: no second copy of the buffers.
        cells = np.zeros(rows * chunk + chunk)
        cells[:self.delays.size] = self.delays.ravel()
        self._delay_cells = cells
        self.delays = cells[:rows * chunk].reshape(rows, chunk)
        for row, source in enumerate(sources, old):
            self.delays[row] = self._draw_delays(source)
        cells = np.zeros(rows * (chunk + 1) + 2 * chunk + 1)
        cells[:self.uniforms.size] = self.uniforms.ravel()
        self._uniform_cells = cells
        self.uniforms = cells[:rows * (chunk + 1)].reshape(rows, chunk + 1)
        armed_at = np.array([now for _, _, now in staged])
        codes = [sim.tag_code(source.name) for source in sources]
        n = len(sources)
        self.time = np.concatenate([self.time, armed_at + self.delays[old:, 0]])
        self.seq = np.concatenate([self.seq, [seq for _, seq, _ in staged]])
        self.beta = np.concatenate([self.beta, [s.beta for s in sources]])
        self.dpos = np.concatenate([self.dpos, np.ones(n, np.intp)])
        self.upos = np.concatenate([self.upos, np.full(n, chunk + 1)])
        self.attempts = np.concatenate([self.attempts, np.zeros(n, np.int64)])
        self.pairs = np.concatenate([self.pairs, np.zeros(n, np.int64)])
        self.codes = np.concatenate([self.codes, np.array(codes, "L")])
        self._states = list({id(s.state): s.state for s in self.sources}.values())
        self._versions = None
        staged.clear()
        self.next_time = float(self.time.min())

    def pause(self, source: EntanglementSource) -> None:
        """Hand the source's pending attempt to the heap as an inert event."""
        self.sync()
        slot = source._slot
        time = float(self.time[slot])
        self.sim.push_inert(time, self.priority, int(self.seq[slot]), source.name)
        self.time[slot] = np.inf
        if time == self.next_time:
            self.next_time = float(self.time.min())

    def arm(self, source: EntanglementSource) -> None:
        """Arm a resumed source's next attempt from now."""
        self.sync()
        slot = source._slot
        if self.dpos[slot] == self.chunk:
            self._refill_delays(slot)
        time = self.sim.now + float(self.delays[slot, self.dpos[slot]])
        self.dpos[slot] += 1
        self.time[slot] = time
        self.seq[slot] = self.sim.reserve_seq()
        self.next_time = min(self.next_time, time)

    def release(self) -> None:
        """Drop the buffers and references of a finished run.

        The counters stay, so the sources' ``attempts`` and
        ``pairs_generated`` still read; the bank cannot fire again.
        """
        self.sim = None
        self.sources, self._staged, self._states = [], [], []
        self.time = self.seq = self.beta = self.codes = None
        self.delays = self.dpos = self.uniforms = self.upos = None
        self._delay_cells = self._uniform_cells = None
        self._p = self._routed = None
        self.next_time = np.inf

    # -- draws ------------------------------------------------------------------

    def _draw_delays(self, source: EntanglementSource) -> np.ndarray:
        return self.sim.stream(source.name).exponential(
            1.0 / source.beta, size=self.chunk
        )

    def _refill_delays(self, slot: int) -> None:
        self.delays[slot] = self._draw_delays(self.sources[slot])
        self.dpos[slot] = 0

    def _refill_uniforms(self, slot: int, carry: bool) -> None:
        """Draw the next uniforms.  With ``carry`` the attempt in progress
        read its first uniform from the old buffer's last cell and needs
        its second from the new one: that cell moves to column 0."""
        row = self.uniforms[slot]
        if carry:
            row[0] = row[-1]
        row[1:] = self.sim.stream(self.sources[slot].name).random(size=self.chunk)
        self.upos[slot] = 0 if carry else 1

    def _read_state(self) -> None:
        """Re-read the success tables after any allocation update."""
        versions = [state.version for state in self._states]
        if versions != self._versions:
            self._versions = versions
            self._p = np.array(
                [s.state.success_prob[s.link_index] for s in self.sources]
            )
            self._routed = np.array(
                [bool(s.state.assignment[s.link_index][0]) for s in self.sources]
            )

    # -- firing -----------------------------------------------------------------

    def advance(self, window: Window) -> None:
        """Fire every pending attempt in ``window``.

        A window of more than about ``SLICE_ATTEMPTS`` attempts is fired in
        time slices, each taking every attempt strictly before its end, so
        the order is the same and the temporaries stay small.
        """
        self.sync()
        self._read_state()
        while True:
            rows = np.flatnonzero(self.time <= window.limit)
            if not len(rows):
                return
            start = float(self.time[rows].min())
            cut = start + SLICE_ATTEMPTS / float(self.beta[rows].sum())
            if not start < cut < window.limit:
                self._fire(rows, window)
                return
            self._fire(rows, window.before(cut))

    def _fire(self, rows, window: Window) -> None:
        """Fire the rows' attempts in ``window``."""
        pieces = []
        # Rows whose link cannot succeed need no uniform values.  Each
        # row's attempts enter the pieces in firing order.
        can_win = self._p[rows] > 0
        for group, decide in ((rows[~can_win], False), (rows[can_win], True)):
            t0, k0 = self.time[group], np.zeros(len(group), np.intp)
            while len(group):
                piece, group, t0, k0 = self._round(group, t0, k0, window, decide)
                pieces.append(piece)
        times, slots, last, won, second = map(np.concatenate, zip(*pieces))
        del pieces
        if not len(times):
            return
        routed = np.flatnonzero(second == second)  # not NaN: routed successes
        actions = [(int(e), self._assign, (int(slots[e]), float(second[e])))
                   for e in routed]
        armed = self.sim.fire_block(times, slots, self.seq, self.codes, actions)
        # The successor of each row's last fired attempt is its pending one.
        self.seq[slots[last]] = armed[last]
        self.attempts += np.bincount(slots, minlength=len(self.sources))
        self.pairs += np.bincount(slots[won], minlength=len(self.sources))
        self.next_time = float(self.time.min())

    def _round(self, rows, t0, k0, window: Window, decide):
        """Fire each row's attempts until its window ends, a buffer runs
        out or the round's width is used up; refill the buffers that ran
        out.

        ``t0`` and ``k0`` are each row's next attempt time and its index in
        the window; ``decide`` says whether the rows' attempts can succeed
        (if not, their uniforms are counted but not read).  Returns the
        fired attempts, row by row (time, row, whether it is the row's last
        in the window, success, second uniform or NaN), and the rows still
        due, with their ``t0`` and ``k0``.  A row that goes on fires at
        least once more, so its last attempt is in the round it ends in.
        """
        chunk = self.chunk
        m = len(rows)
        dpos, upos = self.dpos[rows], self.upos[rows]
        left_d = chunk - dpos  # arms the delay buffer still serves
        left_u = chunk + 1 - upos  # uniforms still unread
        # Wide enough for a row at the mean rate; faster rows go on in a
        # later, narrower round.
        span = window.limit - float(t0.min())
        width = chunk if span == np.inf else int(
            min(chunk, 8 + 1.25 * span * float(self.beta[rows].mean()))
        )
        cols = np.arange(width)

        # Times: t_0 is pending, attempt j's arm reads delay j to give t_j+1.
        # Past the row's last delay the chain is garbage but non-decreasing:
        # attempt left_d is then still counted due if it is, and the round
        # stops there for a refill before any garbage time is used.
        chain = np.empty((m, width + 1))
        chain[:, 0] = t0
        chain[:, 1:] = sliding_window_view(self._delay_cells, width)[
            rows * chunk + dpos
        ]
        chain = np.add.accumulate(chain, axis=1)
        # Only a row's pending attempt (k0 == 0) was armed before the window.
        due = window.count_due(
            chain, self.priority, np.where(k0 == 0, self.seq[rows], ARMED)
        )

        if decide:
            first, won, second, fits = self._decisions(rows, upos, left_u, width)
        else:
            fits = left_u
        n = np.minimum(due, np.minimum(np.minimum(fits, left_d), width))
        mask = cols < n[:, None]
        fired_times = chain[:, :width][mask]
        if decide:
            won, second = won[:, :width][mask], second[:, :width][mask]
            self.upos[rows] = upos + first[np.arange(m), n]
        else:
            won = np.zeros(len(fired_times), bool)
            second = np.full(len(fired_times), np.nan)
            self.upos[rows] = upos + n
        ends = n == due  # the next attempt is past the window
        last = np.zeros(len(fired_times), bool)
        last[np.cumsum(n)[ends & (n > 0)] - 1] = True
        piece = (fired_times, np.repeat(rows, n), last, won, second)
        self.dpos[rows] = dpos + n
        self.time[rows[ends]] = chain[ends, n[ends]]
        going = np.flatnonzero(~ends)
        # One refill per stopped row, the first its attempt k needs in read
        # order (step, then arm); the next round finds any other.
        for i in going:
            k = n[i]
            if k == fits[i]:  # attempt k's uniforms run out
                carry = decide and first[i, k] < left_u[i]
                self._refill_uniforms(rows[i], carry=bool(carry))
            elif k == left_d[i]:  # attempt k's arm needs a fresh delay
                self._refill_delays(rows[i])
        return piece, rows[going], chain[going, n[going]], k0[going] + n[going]

    def _decisions(self, rows, upos, left_u, width):
        """Parse the rows' unread uniforms into their next ``width + 1``
        attempts.

        Attempt j reads its first uniform at offset ``first[:, j]``, and a
        second right after it when it succeeds on a routed link.  Offset i
        is a first read unless offset i-1 was a first read that needed a
        second, so runs of such offsets alternate first, second.  Returns
        ``first``, the successes, the second uniforms (NaN where none) and
        the number of leading attempts whose reads fit the buffer.
        """
        m = len(rows)
        offsets = np.arange(2 * width + 1)
        # Past the buffer the values are garbage; they only decide reads of
        # attempts that do not fit, which do not fire.
        u = sliding_window_view(self._uniform_cells, len(offsets))[
            rows * (self.chunk + 1) + upos
        ]
        hit = u < self._p[rows, None]
        routed = self._routed[rows, None]
        pairs = hit & routed
        starts = np.ones(u.shape, bool)
        starts[:, 1:] = ~pairs[:, :-1]
        run = np.maximum.accumulate(np.where(starts, offsets, 0), axis=1)
        is_first = (offsets - run) % 2 == 0
        nth = np.cumsum(is_first, axis=1) - 1
        r, c = np.nonzero(is_first & (nth <= width))
        first = np.empty((m, width + 1), np.intp)
        first[r, nth[r, c]] = c
        line = np.arange(m)[:, None]
        won = hit[line, first]
        two = won & routed
        second = np.where(two, u[line, np.minimum(first + 1, 2 * width)], np.nan)
        fits = (first + 1 + two <= left_u[:, None]).sum(axis=1)
        return first, won, second, fits

    def _assign(self, slot: int, u: float) -> None:
        """Hand a routed success to the route its second uniform picks."""
        source = self.sources[slot]
        thresholds, targets = source.state.assignment[source.link_index]
        for threshold, (route_index, position) in zip(thresholds, targets):
            if u < threshold:
                source.buffers.on_pair(route_index, position)
                return
        # u beyond the allocated shares: surplus pair, discarded.
