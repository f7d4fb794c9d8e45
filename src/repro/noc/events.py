"""Link-transfer event objects for the event NoC.

Arrivals, ejections, and lazy filter deregistrations fire hundreds of
thousands of times per run.  Each is a small ``__slots__`` callable
built with its payload and handed to ``Scheduler.at``; reference
counting frees it once it has run.

The classes only duck-type against :class:`repro.noc.network.Network`
(they touch its scheduler and wake bookkeeping) — no import, so the
router and the network interfaces can construct them without a cycle.
"""

from __future__ import annotations


class LinkArrival:
    """Event: a packet head reaching the downstream input VC."""

    __slots__ = ("router", "packet", "in_dir", "vc")

    def __init__(self, router, packet, in_dir: int, vc) -> None:
        self.router = router
        self.packet = packet
        self.in_dir = in_dir
        self.vc = vc

    def __call__(self) -> None:
        self.router.accept(self.packet, self.in_dir, self.vc)


class Ejection:
    """Event: a packet tail arriving at its destination tile."""

    __slots__ = ("network", "tile", "packet")

    def __init__(self, network, tile: int, packet) -> None:
        self.network = network
        self.tile = tile
        self.packet = packet

    def __call__(self) -> None:
        self.network._eject(self.tile, self.packet)


class Deregister:
    """Event: lazy removal of a push's filter registration.

    Also wakes the owning router — an OrdPush INV stalled behind the
    registered line (the only dormancy cause with no time-known wake
    besides credits) may become grantable this very cycle.
    """

    __slots__ = ("network", "router", "filter", "pid", "line_addr")

    def __init__(self, network, router, filter, pid: int,
                 line_addr: int) -> None:
        self.network = network
        self.router = router
        self.filter = filter
        self.pid = pid
        self.line_addr = line_addr

    def __call__(self) -> None:
        network = self.network
        router = self.router
        self.filter.deregister(self.pid, self.line_addr)
        now = network.scheduler.now
        if now < router.next_tick:
            router.next_tick = now
        if now < network._next_work:
            network._next_work = now
