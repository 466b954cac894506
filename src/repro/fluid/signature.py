"""Congruence fingerprints for the fluid fast-forward detector.

A *boundary signature* captures everything that determines the future
event-by-event evolution of a :class:`~repro.core.system.RosebudSystem`
up to a time translation: the pending event multiset (as offsets from
now), every queue's per-packet class composition, every busy flag, and
the hidden cursors of the stateful policies (round-robin pointers, slot
free-lists, source flow-cycle phases).  Two boundaries with equal
signatures evolve identically modulo the clock — which is exactly the
license the engine needs to replace simulated periods with arithmetic.

Packets are identified by their *class key*
(:mod:`repro.packet.template`), the flyweight signature byte-identical
frames on one ingress port share.

Pending-event offsets are rounded to 1e-3 cycles before comparison:
steady-state offsets reproduce exactly up to float accumulation noise
(~ulp of the absolute clock), which is orders of magnitude below any
two distinct event separations in the model.
"""

from __future__ import annotations

from typing import Any, Tuple

#: decimal places kept of event offsets (see module docstring)
_REL_DIGITS = 3


def _packet_key(packet) -> Any:
    key = packet.class_key
    if key is not None:
        return key
    return ("anon", packet.size, packet.ingress_port)


def _link_state(link) -> Tuple:
    return (
        bool(link.busy),
        bool(link.paused),
        tuple(_packet_key(item) for item, _n in link.queue),
    )


def _fabric_state(fabric) -> Tuple:
    switches = tuple(
        (
            sw._busy,
            getattr(sw._arbiter, "_last", None),
            tuple(
                tuple(_packet_key(p) for p in sw._queues[cls])
                for cls in sw.INPUT_CLASSES
            ),
        )
        for sw in fabric.cluster_switches
    )
    links = tuple(_link_state(link) for link in fabric.rpu_links)
    return switches, links


def queue_occupancy(system) -> Tuple[int, ...]:
    """Per-queue packet depths in a fixed structural order.

    This is the *bounded-growth ledger* view of the system: a cheap
    integer vector the engine stores at every boundary.  It serves as
    (a) a fast pre-filter before full-signature comparison (occupancy
    equality is implied by signature equality, and comparing a few
    dozen ints rejects most non-matching phases without touching the
    big nested tuples), (b) the backlog telemetry surfaced in
    :meth:`FluidEngine.stats`, and (c) the growth gate: a proven period
    has zero occupancy growth *by construction* (queue contents are
    part of the signature), so warps can never extrapolate across an
    unboundedly growing backlog — such a regime simply never proves.
    """
    out = []
    for mac in system.macs:
        out.append(len(mac.rx_fifo._items))
        out.append(len(mac._rx_link.queue))
        out.append(len(mac._tx_link.queue))
    for ing in system.port_ingress:
        out.append(0 if ing._current is None else 1)
    for fabric in (system.fabric_in, system.fabric_out):
        for sw in fabric.cluster_switches:
            out.append(sum(len(sw._queues[cls]) for cls in sw.INPUT_CLASSES))
        for link in fabric.rpu_links:
            out.append(len(link.queue))
    for rpu in system.rpus:
        out.append(len(rpu._in_queue))
        out.append(len(rpu._accel_queue))
        out.append(len(rpu._results))
    out.append(len(system.host_link.queue))
    out.append(len(system.loopback.link.queue))
    out.append(len(system.host_rx))
    return tuple(out)


def state_signature(system, sources, horizon: float) -> Tuple:
    """The full congruence fingerprint of ``system`` at this instant.

    ``horizon`` bounds which pending events are part of the recurring
    pattern: events further than ``horizon`` cycles out are one-shot
    appointments (fault triggers, watchdog polls on a different period)
    — the engine never warps across them, so they may differ between
    matching boundaries without breaking congruence.
    """
    sim = system.sim
    now = sim.now
    events = sorted(
        (round(t - now, _REL_DIGITS), name)
        for t, name in sim.iter_pending()
        if t - now <= horizon
    )

    lb = system.lb
    policy = lb.policy
    lb_state = (
        type(policy).__name__,
        getattr(policy, "_next", None),
        getattr(policy, "_tiebreak", None),
        tuple(lb.enabled),
        tuple(tuple(free) for free in lb.slots._free),
    )

    macs = tuple(
        (
            bool(mac.link_up),
            tuple(_packet_key(p) for p, _n in mac.rx_fifo._items),
            _link_state(mac._rx_link),
            _link_state(mac._tx_link),
        )
        for mac in system.macs
    )

    ingress = tuple(
        (
            ing._busy,
            ing._waiting_for_slot,
            None if ing._current is None else _packet_key(ing._current),
        )
        for ing in system.port_ingress
    )

    rpus = tuple(
        (
            rpu._sw_busy,
            rpu._accel_busy,
            bool(rpu.paused),
            rpu._wedged,
            rpu._evicted,
            rpu._generation,
            len(rpu._stuck),
            tuple(_packet_key(p) for p in rpu._in_queue),
            tuple(_packet_key(p) for p in rpu._accel_queue),
            len(rpu._results),
        )
        for rpu in system.rpus
    )

    return (
        tuple(events),
        tuple(src.fluid_profile() for src in sources),
        lb_state,
        macs,
        ingress,
        _fabric_state(system.fabric_in),
        _fabric_state(system.fabric_out),
        rpus,
        _link_state(system.host_link),
        _link_state(system.loopback.link),
    )
