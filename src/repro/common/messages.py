"""Coherence message vocabulary shared by caches and the NoC.

A :class:`CoherenceMsg` is the protocol-level unit; the network wraps it
in a packet (see :mod:`repro.noc.packet`) and serializes it into flits.
Message types carry a static vnet assignment and a control/data size
class, matching Table I:

=============  ======  =======  =====================================
vnet           class   types    purpose
=============  ======  =======  =====================================
0 (request)    control GETS, GETM, MEM_READ      requests
1 (data)       data    DATA_S, DATA_E, PUSH,     responses, pushes,
                       PUTM, MEM_DATA, MEM_WB    writebacks
2 (control)    control INV, INV_ACK, PUSH_ACK,   invalidations and
                       WB_ACK                    acknowledgments
=============  ======  =======  =====================================

Keeping invalidations (vnet 2) and pushes (vnet 1) in separate virtual
networks is what makes the OrdPush ordering rule deadlock-free (§III-F).

Messages are plain objects: each is constructed fresh and freed by
reference counting once its last holder drops it.  A multicast push is
one message shared by every destination's replica.
"""

from __future__ import annotations

import itertools
from enum import IntEnum, auto
from typing import List, Optional, Tuple


class MsgType(IntEnum):
    """Every protocol message exchanged over the NoC.

    An ``IntEnum`` so the many per-message table lookups (vnet map,
    dispatch sets, handler dicts) hash at C level instead of through
    ``Enum.__hash__``.
    """

    GETS = auto()        #: read request (may carry the need_push bit)
    GETM = auto()        #: write / read-for-ownership request
    PUTM = auto()        #: writeback of a dirty line (carries data)
    DATA_S = auto()      #: shared-state data response (unicast)
    DATA_E = auto()      #: exclusive/modified data response
    PUSH = auto()        #: speculative pushed data (multicast-capable)
    INV = auto()         #: invalidation from the directory
    INV_ACK = auto()     #: invalidation acknowledgment
    DOWNGRADE = auto()   #: directory asks an exclusive owner to drop to S
    PUSH_ACK = auto()    #: push receipt acknowledgment (PushAck protocol)
    WB_ACK = auto()      #: writeback acknowledgment
    UNBLOCK = auto()     #: exclusive-grant receipt ack: unblocks the line
                         #: at the directory (prevents a later write's
                         #: invalidation overtaking the grant)
    MEM_READ = auto()    #: LLC miss fill request to a memory controller
    MEM_DATA = auto()    #: memory fill data to an LLC slice
    MEM_WB = auto()      #: LLC dirty eviction to memory


_VNET_OF = {
    MsgType.GETS: 0,
    MsgType.GETM: 0,
    MsgType.MEM_READ: 0,
    MsgType.PUTM: 1,
    MsgType.DATA_S: 1,
    MsgType.DATA_E: 1,
    MsgType.PUSH: 1,
    MsgType.MEM_DATA: 1,
    MsgType.MEM_WB: 1,
    MsgType.INV: 2,
    MsgType.INV_ACK: 2,
    MsgType.DOWNGRADE: 2,
    MsgType.PUSH_ACK: 2,
    MsgType.WB_ACK: 2,
    MsgType.UNBLOCK: 2,
}

_DATA_TYPES = frozenset({
    MsgType.PUTM, MsgType.DATA_S, MsgType.DATA_E, MsgType.PUSH,
    MsgType.MEM_DATA, MsgType.MEM_WB,
})


class TrafficClass(IntEnum):
    """NoC traffic categories used by the paper's breakdowns (Figs 3/13)."""

    READ_SHARED_DATA = auto()
    READ_REQUEST = auto()
    EXCLUSIVE_DATA = auto()
    WRITEBACK_DATA = auto()
    PUSH_ACK = auto()
    OTHER = auto()


def traffic_class_of(msg_type: MsgType) -> TrafficClass:
    """Classify a message for the bandwidth-breakdown figures."""
    if msg_type in (MsgType.DATA_S, MsgType.PUSH):
        return TrafficClass.READ_SHARED_DATA
    if msg_type is MsgType.GETS:
        return TrafficClass.READ_REQUEST
    if msg_type is MsgType.DATA_E:
        return TrafficClass.EXCLUSIVE_DATA
    if msg_type in (MsgType.PUTM, MsgType.MEM_WB):
        return TrafficClass.WRITEBACK_DATA
    if msg_type is MsgType.PUSH_ACK:
        return TrafficClass.PUSH_ACK
    return TrafficClass.OTHER


#: flat lookup tables indexed by the MsgType value — the per-message
#: construction path reads these instead of hashing enum members.
_VNET_TABLE: List[int] = [0] * (max(MsgType) + 1)
_DATA_TABLE: List[bool] = [False] * (max(MsgType) + 1)
_TRAFFIC_TABLE: List[TrafficClass] = [TrafficClass.OTHER] * (
    max(MsgType) + 1)
for _mt in MsgType:
    _VNET_TABLE[_mt] = _VNET_OF[_mt]
    _DATA_TABLE[_mt] = _mt in _DATA_TYPES
    _TRAFFIC_TABLE[_mt] = traffic_class_of(_mt)

_uid_counter = itertools.count()


class CoherenceMsg:
    """One protocol message.

    ``dests`` is a tuple of destination tile ids; only :data:`MsgType.PUSH`
    uses more than one destination (multicast).  ``payload`` carries the
    simulated data value used by the coherence invariant checks — the
    model tracks a single integer "value" per line so the data-value
    invariant is machine-checkable.
    """

    __slots__ = ("msg_type", "line_addr", "src", "dests", "requester",
                 "need_push", "reset_push_counters", "ack_required",
                 "is_prefetch", "payload", "uid",
                 "vnet", "carries_data", "traffic_class", "traffic_idx")

    def __init__(self, msg_type: MsgType, line_addr: int, src: int,
                 dests: Tuple[int, ...],
                 requester: Optional[int] = None,
                 need_push: bool = True,
                 reset_push_counters: bool = False,
                 ack_required: bool = False,
                 is_prefetch: bool = False,
                 payload: int = 0) -> None:
        self.msg_type = msg_type
        self.line_addr = line_addr
        self.src = src
        self.dests = dests
        #: original requester (set on responses so stats attribute latency)
        self.requester = requester
        #: on GETS: requester's pause-knob feedback (paper Fig. 8)
        self.need_push = need_push
        #: on responses during the LLC Resume phase: clear TPC/UPC (Fig. 9)
        self.reset_push_counters = reset_push_counters
        #: on PUSH under the PushAck protocol: recipient must send PUSH_ACK
        self.ack_required = ack_required
        self.is_prefetch = is_prefetch
        self.payload = payload
        self.uid = next(_uid_counter)
        # Derived routing attributes, resolved once at construction: the
        # NoC reads them per flit/hop, and a message's type never changes.
        self.vnet = _VNET_TABLE[msg_type]
        self.carries_data = _DATA_TABLE[msg_type]
        self.traffic_class = _TRAFFIC_TABLE[msg_type]
        #: ``traffic_class.value`` cached as a plain int — the NoC's
        #: per-flit accounting indexes a list with it
        self.traffic_idx = self.traffic_class.value

    def __repr__(self) -> str:
        dests = ",".join(map(str, self.dests))
        return (f"{self.msg_type.name}(line=0x{self.line_addr:x}, "
                f"src={self.src}, dests=[{dests}], uid={self.uid})")

