"""Network packets: the unit the routers move around.

A packet wraps one :class:`~repro.common.messages.CoherenceMsg`.  Control
messages are single-flit; data messages carry a 64-byte line and occupy
``NoCParams.data_packet_flits`` flits (5 at 128-bit links).  Multicast
packets (pushes and coalesced responses) list several destinations; when
a router replicates one, each replica shares the underlying message but
owns its destination subset.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

from repro.common.messages import CoherenceMsg

_packet_ids = itertools.count()


class Packet:
    """One packet instance travelling through the network.

    Attributes mutated by the routers are kept here rather than on the
    message so a multicast replica has independent routing state.
    """

    __slots__ = ("msg", "dests", "flits", "injected_at", "pid",
                 "arrival_cycle", "pending_ports",
                 "vnet", "line_addr", "msg_type", "traffic_idx",
                 "vc_bucket", "ring")

    def __init__(self, msg: CoherenceMsg, flits: int,
                 dests: Optional[Tuple[int, ...]] = None,
                 injected_at: int = 0) -> None:
        self.msg = msg
        self.dests: Tuple[int, ...] = dests if dests is not None else msg.dests
        self.flits = flits
        self.injected_at = injected_at
        self.pid = next(_packet_ids)
        #: cycle this packet finished buffer-write at the current router
        self.arrival_cycle = injected_at
        #: output ports not yet granted (asynchronous multicast residue)
        self.pending_ports = None
        # Cached per-hop routing keys (read once per hop per flit).
        self.vnet = msg.vnet
        self.line_addr = msg.line_addr
        self.msg_type = msg.msg_type
        self.traffic_idx = msg.traffic_idx
        # Dateline deadlock-avoidance state (torus/ring fabrics only;
        # mesh-like routers never read these).  ``vc_bucket`` is the VC
        # bucket occupied at the current router, ``ring`` the out-port
        # of the link just traversed (-1 straight after injection) —
        # staying on the same unidirectional ring keeps the VC class,
        # turning resets it, crossing a dateline link bumps it.
        self.vc_bucket = msg.vnet
        self.ring = -1

    def replica(self, dests: Tuple[int, ...]) -> "Packet":
        """A copy of this packet carrying a destination subset."""
        twin = Packet(self.msg, self.flits, dests=dests,
                      injected_at=self.injected_at)
        return twin

    def __repr__(self) -> str:
        dests = ",".join(map(str, self.dests))
        return (f"Packet(pid={self.pid}, {self.msg.msg_type.name}, "
                f"line=0x{self.line_addr:x}, dests=[{dests}], "
                f"flits={self.flits})")
