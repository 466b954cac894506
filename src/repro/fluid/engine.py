"""The fluid fast-forward engine: queue-level arithmetic over proven periods.

Event simulation of a steady-state middlebox burns most of its cycles
re-deriving a pattern that repeats exactly: the same packet classes, the
same queue occupancies, the same arbiter decisions, period after period.
This engine detects that repetition *empirically* and then replaces
whole periods with arithmetic:

1. **Boundary capture.** After every emission event of the reference
   source whose ``sent`` counter crosses a multiple of its template
   cycle length, the engine records a boundary: the congruence signature
   (:func:`repro.fluid.signature.state_signature`), the queue-occupancy
   vector (:func:`repro.fluid.signature.queue_occupancy`), the value of
   every integer ledger cell, and the latency samples recorded since the
   previous boundary.

2. **Period confirmation.** Boundaries live in a long phase-indexed
   history (:data:`_HISTORY_LEN` entries) with a signature-hash index,
   so candidate periods are found in O(1) rather than by scanning — a
   rotating or contended regime whose orbit only recurs after hundreds
   of template cycles (the hyperperiod of all source template cycles
   interleaved with the service pattern) is as provable as a trivial
   one-boundary loop.  When the newest boundary's signature equals the
   one ``j`` boundaries back *and* the one ``2j`` back, and the
   integer-counter deltas across the two windows are **exactly** equal,
   the window is a proven period: the system's discrete state is
   congruent and its observable effects repeat.

3. **Warp.** At a confirmed boundary the engine advances the clock by
   ``k`` whole periods in one step (:meth:`Simulator.warp`), adds
   ``k x delta`` to every ledger cell — counters, meters, drop
   counters, ``events_processed`` — shifts in-flight packet
   timestamps and RPU progress marks, and bulk-records ``k`` copies of
   the period's latency samples.  Event times are floats (ROADMAP item
   23), so a tie can flip after a warp: on ``CONTENDED`` in
   ``tests/test_fluid_contended.py`` the per-port MAC counters then
   differ from the event run while every total agrees.

4. **Phase-indexed re-arming.** Because counter deltas over one *full*
   period are the same from any phase of the orbit (a cyclic sum), the
   proven period licenses a warp from *every* boundary of the orbit,
   not just the phase it was confirmed at.  After a warp the history is
   translated into the warped frame, so the very next event-wise
   boundary re-arms by matching one period back — long-period regimes
   warp repeatedly without re-paying the 2j-boundary detection cost.

``k`` is capped so that every externally meaningful transition — a
measurement phase change, an ``until_ts`` bound (which is how cluster
warps clip to the sync-horizon barrier), any scheduled event beyond the
periodicity horizon (fault triggers, watchdog polls) — still happens
*event-wise* at its exact event boundary.  Anything aperiodic therefore
de-optimizes the engine naturally: a control action or injection calls
:meth:`FluidEngine.notify_transient`, a cross-board packet exchange
calls :meth:`FluidEngine.note_cross_traffic` (and any pending
``xboard`` delivery blocks the warp outright), a drifting queue changes
the signature, and either way the engine falls back to pure event
simulation until a new steady state is proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .signature import queue_occupancy, state_signature

#: boundaries kept for period detection; max detectable period spans
#: ``(_HISTORY_LEN - 1) // 2`` boundaries.  Sized for contended
#: multi-hundred-boundary hyperperiods (the artifact's 4-RPU contended
#: point recurs every 275 template cycles) with headroom.
_HISTORY_LEN = 1408
#: signature-hash candidate matches tried per boundary before giving up
#: (bounds worst-case work under adversarial hash collisions)
_MAX_CANDIDATES = 12
#: de-opt records kept in stats
_MAX_DEOPTS = 16
#: relative tolerance for period durations across windows
_FLOAT_RTOL = 1e-6
#: event name used by the cluster harness for cross-board deliveries;
#: a pending event with this name pins absolute time and blocks warps
_XBOARD_EVENT = "xboard"


@dataclass
class _Boundary:
    time: float
    signature: Optional[Tuple]
    sig_hash: Optional[int]
    occupancy: Tuple[int, ...]
    ints: Tuple[int, ...]
    completions: Optional[int]
    host_rx_len: int
    hist_id: int
    hist_len: int
    hist_slice: Optional[Tuple[float, ...]]


@dataclass
class _Steady:
    """A proven period: duration plus the per-period ledger deltas."""

    period: float
    period_boundaries: int
    sig: Tuple
    int_deltas: Tuple[int, ...]
    completions_delta: Optional[int]
    period_samples: Tuple[float, ...]
    horizon: float


class FluidEngine:
    """Fourth fidelity tier, attached to one :class:`SimSession`."""

    def __init__(self, session, gate) -> None:
        self.session = session
        self.system = session.system
        self.sim = session.system.sim
        self.gate = gate
        self.enabled = gate.eligible
        self.reasons: List[str] = list(gate.reasons)
        self.sources: List[Any] = []

        # -- dynamic structural eligibility --------------------------------
        for feed in session._feeds:
            source = getattr(feed, "source", None)
            if source is None:
                self._block(f"feed {type(feed).__name__} is not introspectable")
                break
            self.sources.append(source)
        if self.enabled and not self.sources:
            self._block("no traffic sources attached")
        for src in self.sources:
            if not self.enabled:
                break
            if src.fluid_profile() is None:
                self._block(f"{type(src).__name__} emission is not provably periodic")
            elif getattr(src, "n_packets", None) is not None:
                self._block("finite source drains; no steady state exists")
        if self.enabled and self.system.on_delivery is not None:
            self._block("on_delivery callback observes individual packets")

        if self.enabled:
            # latency continuity across warps needs live-packet tracking
            self.system.track_live_packets = True

        # -- stats ----------------------------------------------------------
        self.warps = 0
        self.periods_warped = 0
        self.warped_cycles = 0.0
        self.measured_pps: Optional[float] = None
        self.deopts: List[Dict[str, Any]] = []
        self.cross_deopts = 0
        self.conservation_refusals = 0
        self.backlog_peak = 0
        self.backlog_now = 0

        # -- detection state ------------------------------------------------
        self._hist: List[_Boundary] = []
        self._hist_base = 0  # absolute index of _hist[0]
        self._sig_index: Dict[int, List[int]] = {}  # sig hash -> abs indices
        self._steady: Optional[_Steady] = None
        self._armed = False
        self._horizon: Optional[float] = None
        self._last_boundary_sent = -1
        self._boundary_src = self.sources[0] if self.sources else None
        self._boundary_every = 0
        if self.enabled and self._boundary_src is not None:
            profile = self._boundary_src.fluid_profile()
            self._boundary_every = max(1, profile[0])
        self._int_cells: List[Tuple[str, Any, str]] = []
        self._sent_ix: List[int] = []
        self._drop_ix: List[int] = []
        self._done_ix: List[int] = []
        if self.enabled:
            self._build_cells()

    # -- eligibility / de-opt ----------------------------------------------

    def _block(self, reason: str) -> None:
        self.enabled = False
        self.reasons.append(reason)

    def notify_transient(self, reason: str, rebuild_cells: bool = True) -> None:
        """A live control action / injection / new feed happened: discard
        all periodicity evidence and recalibrate from scratch."""
        if not self.enabled:
            return
        if self._hist or self._steady is not None:
            if len(self.deopts) < _MAX_DEOPTS:
                self.deopts.append({"t": self.sim.now, "reason": reason})
        self._hist.clear()
        self._hist_base = 0
        self._sig_index.clear()
        self._steady = None
        self._armed = False
        self._horizon = None
        if rebuild_cells:
            # firmware/policy objects may have been swapped: re-enumerate
            self._build_cells()

    def note_cross_traffic(self, reason: str) -> None:
        """A packet crossed a board boundary (either direction): the
        period evidence no longer describes a closed system, so de-opt.
        Deliberately cheap when there is no evidence to discard — a
        hash-affine cluster board calls this on every remote steer."""
        if not self.enabled:
            return
        self.cross_deopts += 1
        if self._hist or self._steady is not None:
            self.notify_transient(reason, rebuild_cells=False)

    def notify_feed(self, feed) -> None:
        """A feed was added mid-run: extend the source set or bail out."""
        if not self.enabled:
            return
        source = getattr(feed, "source", None)
        if source is None:
            self._block(f"feed {type(feed).__name__} is not introspectable")
        elif source.fluid_profile() is None:
            self._block(f"{type(source).__name__} emission is not provably periodic")
        elif getattr(source, "n_packets", None) is not None:
            self._block("finite source drains; no steady state exists")
        else:
            self.sources.append(source)
            self.notify_transient("feed added")

    # -- ledger cells --------------------------------------------------------

    def _build_cells(self) -> None:
        """Enumerate every integer that event simulation would advance
        during a period and someone reads: the host-visible counters,
        meters, firmware state and ``events_processed``.  The warp adds
        ``k x per-period-delta`` to each, so this inventory is exactly the
        engine's claim of observational equivalence."""
        system = self.system
        ints: List[Tuple[str, Any, str]] = []

        def counters(label: str, cset) -> None:
            for name in sorted(cset._counters):
                ints.append((f"{label}.{name}", cset._counters[name], "value"))

        ints.append(("sim.events_processed", self.sim, "events_processed"))
        counters("system", system.counters)
        for i, mac in enumerate(system.macs):
            counters(f"mac{i}", mac.counters)
        for i, ing in enumerate(system.port_ingress):
            counters(f"ingress{i}", ing.counters)
        for name in ("dispatched", "deferred"):
            ints.append((f"lb.{name}", system.lb, name))
        for i, rpu in enumerate(system.rpus):
            counters(f"rpu{i}", rpu.counters)
            for attr in sorted(vars(rpu.firmware)):
                value = getattr(rpu.firmware, attr)
                if isinstance(value, int) and not isinstance(value, bool):
                    ints.append((f"rpu{i}.fw.{attr}", rpu.firmware, attr))
        ints.append(("host_meter.bytes", system.host_meter, "bytes_total"))
        ints.append(("host_meter.packets", system.host_meter, "packets_total"))
        for src in self.sources:
            ints.append((f"src.p{src.port}.sent", src, "sent"))

        self._int_cells = ints
        # index sets for the contended conservation cross-check: offered
        # emissions, MAC-level drop sinks, and completion sinks
        self._sent_ix = [
            i for i, (lbl, _o, _a) in enumerate(ints) if lbl.startswith("src.")
        ]
        self._drop_ix = [
            i
            for i, (lbl, _o, _a) in enumerate(ints)
            if lbl.count(".") == 1 and lbl.startswith("mac") and lbl.endswith("drops")
        ]
        self._done_ix = [
            i
            for i, (lbl, _o, _a) in enumerate(ints)
            if lbl in ("system.delivered", "system.to_host",
                       "system.dropped_by_firmware")
        ]

    def _read_ints(self) -> Tuple[int, ...]:
        return tuple(getattr(obj, attr) for _l, obj, attr in self._int_cells)

    # -- boundary capture & period confirmation ------------------------------

    def after_event(self) -> None:
        """Called by the session after every fired event; captures a
        boundary whenever the reference source just completed a template
        cycle, and un-arms the warp otherwise (any event between
        boundaries means the next warp decision needs a fresh match)."""
        if not self.enabled:
            return
        sent = self._boundary_src.sent
        if sent != self._last_boundary_sent and sent % self._boundary_every == 0:
            self._last_boundary_sent = sent
            self._capture_boundary()
        else:
            self._armed = False

    def _evict_oldest(self) -> None:
        old = self._hist.pop(0)
        if old.sig_hash is not None:
            bucket = self._sig_index.get(old.sig_hash)
            if bucket and bucket[0] == self._hist_base:
                bucket.pop(0)
                if not bucket:
                    del self._sig_index[old.sig_hash]
        self._hist_base += 1

    def _capture_boundary(self) -> None:
        hist = self._hist
        now = self.sim.now
        self._armed = False
        if self._horizon is None and hist:
            spacing = now - hist[-1].time
            if spacing <= 0:
                self.notify_transient("non-positive boundary spacing")
                return
            # events recurring within ~2 periods are part of the pattern;
            # anything further out is a one-shot appointment we warp up to
            self._horizon = 2.0 * spacing

        sig = None
        sig_hash = None
        if self._horizon is not None:
            sig = state_signature(self.system, self.sources, self._horizon)
            sig_hash = hash(sig)

        occupancy = queue_occupancy(self.system)
        self.backlog_now = sum(occupancy)
        if self.backlog_now > self.backlog_peak:
            self.backlog_peak = self.backlog_now

        latency = self.system.latency_us
        hist_id = id(latency)
        hist_len = latency.raw_count
        hist_slice: Optional[Tuple[float, ...]] = None
        if hist and hist[-1].hist_id == hist_id and hist_len >= hist[-1].hist_len:
            hist_slice = tuple(latency.samples_tail(hist[-1].hist_len))

        driver = self.session._measurement
        completions = driver.completions() if driver is not None else None

        hist.append(
            _Boundary(
                time=now,
                signature=sig,
                sig_hash=sig_hash,
                occupancy=occupancy,
                ints=self._read_ints(),
                completions=completions,
                host_rx_len=len(self.system.host_rx),
                hist_id=hist_id,
                hist_len=hist_len,
                hist_slice=hist_slice,
            )
        )
        while len(hist) > _HISTORY_LEN:
            self._evict_oldest()
        if sig is None:
            return
        self._sig_index.setdefault(sig_hash, []).append(
            self._hist_base + len(hist) - 1
        )
        self._try_confirm()
        if not self._armed and self._steady is not None and sig == self._steady.sig:
            # congruent with the proven period even though this window
            # didn't re-confirm (e.g. right after a transient cleared
            # the history)
            self._armed = True

    def _try_confirm(self) -> None:
        hist = self._hist
        cur = hist[-1]
        if cur.signature is None:
            return
        n = self._hist_base + len(hist) - 1

        # fast path: the orbit is already proven; counter deltas over one
        # full period are a cyclic sum, identical from any phase, so a
        # match one period back re-arms the warp at this phase without
        # re-paying triple confirmation
        st = self._steady
        if st is not None:
            i = n - st.period_boundaries
            if i >= self._hist_base:
                b = hist[i - self._hist_base]
                if (
                    cur.occupancy == b.occupancy
                    and cur.host_rx_len == b.host_rx_len
                    and cur.sig_hash == b.sig_hash
                    and math.isclose(
                        cur.time - b.time, st.period, rel_tol=_FLOAT_RTOL
                    )
                    and tuple(x - y for x, y in zip(cur.ints, b.ints))
                    == st.int_deltas
                    and cur.signature == b.signature
                ):
                    self._armed = True
                    return

        # full search: hash-indexed candidate phases, most recent first
        candidates = self._sig_index.get(cur.sig_hash, ())
        tried = 0
        for i in reversed(candidates):
            if i >= n:
                continue
            j = n - i
            back2 = n - 2 * j
            if back2 < self._hist_base:
                break  # older candidates only push back2 further out
            tried += 1
            if tried > _MAX_CANDIDATES:
                return
            b = hist[i - self._hist_base]
            c = hist[back2 - self._hist_base]
            if self._confirm_window(cur, b, c, j):
                return

    def _confirm_window(self, a: _Boundary, b: _Boundary, c: _Boundary,
                        j: int) -> bool:
        if a.occupancy != b.occupancy or b.occupancy != c.occupancy:
            return False
        if a.signature is None or a.signature != b.signature:
            return False
        if b.signature != c.signature:
            return False
        d_ab = tuple(x - y for x, y in zip(a.ints, b.ints))
        d_bc = tuple(x - y for x, y in zip(b.ints, c.ints))
        if d_ab != d_bc:
            return False
        p_ab = a.time - b.time
        p_bc = b.time - c.time
        if p_ab <= 0 or not math.isclose(p_ab, p_bc, rel_tol=_FLOAT_RTOL):
            return False
        if a.host_rx_len != b.host_rx_len:
            # host_rx accumulates real packet objects; extrapolating a
            # growing list is not possible, so never warp across it
            return False
        samples = self._window_samples(j)
        if samples is None:
            return False
        completions_delta = None
        if a.completions is not None and b.completions is not None:
            completions_delta = a.completions - b.completions
        steady = _Steady(
            period=p_ab,
            period_boundaries=j,
            sig=a.signature,
            int_deltas=d_ab,
            completions_delta=completions_delta,
            period_samples=samples,
            horizon=self._horizon,
        )
        if not self._feasible(steady):
            return False
        self._steady = steady
        self._armed = True
        return True

    def _window_samples(self, j: int) -> Optional[Tuple[float, ...]]:
        """Latency samples recorded across the last ``j`` boundaries, or
        None if any slice is unusable (histogram swapped mid-window)."""
        out: List[float] = []
        hist_id = self._hist[-1].hist_id
        for boundary in self._hist[-j:]:
            if boundary.hist_slice is None or boundary.hist_id != hist_id:
                return None
            out.extend(boundary.hist_slice)
        return tuple(out)

    def _feasible(self, steady: _Steady) -> bool:
        """Cross-check the observed period against the static analysis:
        a measured rate above the verified analytic WCET bound, or a
        contended window whose drop ledger violates packet conservation,
        would mean the period evidence contradicts the proof — refuse
        to engage rather than extrapolate a contradiction."""
        drops = sum(steady.int_deltas[i] for i in self._drop_ix)
        if drops > 0:
            # contended window: every offered packet must land in exactly
            # one sink (delivered / host / firmware drop / MAC drop) for
            # the drop counters to extrapolate exactly
            sent = sum(steady.int_deltas[i] for i in self._sent_ix)
            done = sum(steady.int_deltas[i] for i in self._done_ix)
            if sent != done + drops:
                self.conservation_refusals += 1
                return False
        if steady.completions_delta is None or steady.completions_delta <= 0:
            self.measured_pps = None
            return True
        seconds = self.system.config.clock.cycles_to_seconds(steady.period)
        if seconds <= 0:
            return False
        self.measured_pps = steady.completions_delta / seconds
        analytic = self.gate.analytic_pps
        if analytic is not None and self.measured_pps > analytic * 1.01:
            self._block(
                f"measured {self.measured_pps:.3e} pps exceeds analytic "
                f"WCET bound {analytic:.3e} pps"
            )
            return False
        return True

    # -- the warp ------------------------------------------------------------

    def pre_step(self, until_ts: Optional[float] = None) -> None:
        """If armed at a confirmed boundary, warp as many whole periods as
        the caps allow.  Called by the session between events (after the
        measurement pump when an event reached a phase target)."""
        if not (self.enabled and self._armed and self._steady is not None):
            return
        st = self._steady
        now = self.sim.now
        caps: List[int] = []

        driver = self.session._measurement
        if driver is not None and not driver.done:
            if st.completions_delta is not None and st.completions_delta > 0:
                # stop one completion short of every phase transition so
                # the transition itself is crossed event-wise: baselines
                # and final readings land on exact event boundaries
                room = driver.target() - 1 - driver.completions()
                caps.append(room // st.completions_delta)
            caps.append(int((driver.deadline - now) / st.period))
        if until_ts is not None:
            caps.append(int((until_ts - now) / st.period))
        if not caps:
            # free-running session with no bound: nothing requests the
            # future, so there is no budget to warp against
            return

        far_min: Optional[float] = None
        for t, name in self.sim.iter_pending():
            if name == _XBOARD_EVENT:
                # a cross-board delivery is pinned to absolute time;
                # warping would shift or skip it — hard de-opt
                return
            if t - now > st.horizon and (far_min is None or t < far_min):
                far_min = t
        if far_min is not None:
            k_far = int((far_min - now) / st.period)
            while k_far > 0 and now + k_far * st.period >= far_min:
                k_far -= 1
            caps.append(k_far)

        k = min(caps)
        if k < 1:
            return
        self._warp(k, far_min)

    def _warp(self, k: int, far_min: Optional[float]) -> None:
        st = self._steady
        delta = k * st.period
        freeze_after = None if far_min is None else self.sim.now + st.horizon
        self.sim.warp(delta, freeze_after=freeze_after)

        for (label, obj, attr), d in zip(self._int_cells, st.int_deltas):
            if d:
                setattr(obj, attr, getattr(obj, attr) + k * d)
        self.system.shift_clock(delta)
        if st.period_samples:
            self.system.latency_us.record_repeated(st.period_samples, k)

        # translate the boundary history into the warped frame so the
        # very next event-wise boundary re-confirms against it (otherwise
        # every warp would cost 2j periods of re-detection).  Only the
        # most recent 2j+4 boundaries can ever take part in a future
        # confirmation at this period, so older ones are dropped instead
        # of translated — that keeps per-warp work proportional to the
        # period, not the history capacity.
        keep = 2 * st.period_boundaries + 4
        while len(self._hist) > keep:
            self._evict_oldest()
        for boundary in self._hist:
            boundary.time += delta
            boundary.ints = tuple(
                v + k * d for v, d in zip(boundary.ints, st.int_deltas)
            )
            if boundary.completions is not None and st.completions_delta is not None:
                boundary.completions += k * st.completions_delta

        self.warps += 1
        self.periods_warped += k
        self.warped_cycles += delta
        self._armed = False  # next boundary must re-match before warping again

    # -- reporting -----------------------------------------------------------

    def occupancy(self) -> Dict[str, float]:
        now = self.sim.now
        fluid = self.warped_cycles / now if now > 0 else 0.0
        return {"event": 1.0 - fluid, "fluid": fluid}

    def stats(self) -> Dict[str, Any]:
        st = self._steady
        # runtime contention: the gate's static flag predicts contention
        # from offered vs WCET capacity, but the real bottleneck can sit
        # upstream of the firmware (e.g. MAC rx FIFO overflow), so a
        # proven period with a nonzero drop ledger is contended no matter
        # what the static prediction said
        period_drops = (
            sum(st.int_deltas[i] for i in self._drop_ix)
            if st is not None
            else None
        )
        return {
            "requested": True,
            "eligible": self.enabled,
            "engaged": self.warps > 0,
            "reasons": list(self.reasons),
            "warps": self.warps,
            "periods_warped": self.periods_warped,
            "warped_cycles": self.warped_cycles,
            "occupancy": self.occupancy(),
            "period_cycles": st.period if st is not None else None,
            "period_boundaries": (
                st.period_boundaries if st is not None else None
            ),
            "packets_per_period": (
                st.completions_delta if st is not None else None
            ),
            "measured_pps": self.measured_pps,
            "wcet_cycles": self.gate.wcet_cycles,
            "analytic_pps": self.gate.analytic_pps,
            "offered_pps": getattr(self.gate, "offered_pps", None),
            "contended": bool(
                getattr(self.gate, "contended", False)
                or (period_drops or 0) > 0
            ),
            "drops_per_period": period_drops,
            "backlog": {"current": self.backlog_now, "peak": self.backlog_peak},
            "lint_classification": self.gate.lint_classification,
            "deopts": list(self.deopts),
            "cross_deopts": self.cross_deopts,
            "conservation_refusals": self.conservation_refusals,
        }
