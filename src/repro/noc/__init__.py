"""Cycle-level network-on-chip substrate (Garnet-3.0 equivalent).

The model is packet-granular with flit-accurate timing: a packet occupies
one virtual channel per hop (virtual cut-through), output ports serialize
packets at one flit per cycle, and router pipeline / link latencies match
Table I of the paper (2-stage routers, 1-cycle links).  The fabric is
pluggable — mesh (the paper's default), torus and concentrated mesh
(one :class:`Grid` class) and ring all run the same router; see
:mod:`repro.noc.topology`.
"""

from repro.noc.filter import InNetworkFilter, filter_area_overhead
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.routing import Direction, multicast_output_ports, route_compute
from repro.noc.topology import Grid, Ring, Topology, build_topology


def __getattr__(name: str):
    # ArrayNetwork is resolved lazily so importing the package (and
    # every event-engine run) never pays the numpy import.
    if name == "ArrayNetwork":
        from repro.noc.arrayengine import ArrayNetwork
        return ArrayNetwork
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArrayNetwork",
    "Direction",
    "Grid",
    "InNetworkFilter",
    "Network",
    "Packet",
    "Ring",
    "Topology",
    "build_topology",
    "filter_area_overhead",
    "multicast_output_ports",
    "route_compute",
]
