"""Fixed-latency, infinite-bandwidth NoC stand-in for functional warming.

Checkpoint warmup (see :mod:`repro.sim.checkpoint`) only needs the
*architectural* warm state — cache contents, directory entries, push and
prefetch tables, trace cursors — not cycle-accurate transport timing.
:class:`FunctionalNetwork` duck-types :class:`repro.noc.network.Network`
for :class:`repro.sim.system.System` but replaces routers, virtual
channels, and credits with a single scheduler event per destination at a
fixed latency:

* every message reaches each of its destinations ``FIXED_LATENCY``
  cycles after injection, regardless of distance, size, or contention;
* messages injected on the same cycle are delivered in injection order
  (the time-wheel's FIFO-per-cycle guarantee), which is *stronger* than
  the detailed fabrics' per-vnet ordering — so every protocol ordering
  assumption (OrdPush included) holds trivially;
* the fabric is never ``active``: all in-flight work is plain scheduler
  events, so the system's drain/quiesce loops need no special casing.

The topology is the *canonical* squarest mesh for the tile count,
independent of the detailed run's fabric — warm state built functionally
is therefore shareable across topology and link knobs (the checkpoint
key drops ``NoCParams``; see ``checkpoint_key``).  Memory-controller
placement and the home-slice map only depend on that canonical grid.

Traffic accounting is intentionally zero: functional warmup cycles and
flit counts are not meaningful measurements, and the checkpoint baseline
subtracts whatever the warm phase recorded anyway.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.errors import SimulationError
from repro.common.messages import CoherenceMsg, TrafficClass
from repro.common.scheduler import NEVER, Scheduler
from repro.common.stats import StatGroup
from repro.noc.topology import Grid, squarest_shape


class _FunctionalInterface:
    """Per-tile endpoint: just a settable ejection hook."""

    __slots__ = ("tile", "eject_hook")

    def __init__(self, tile: int) -> None:
        self.tile = tile
        self.eject_hook = None


class _Delivery:
    """Scheduler event: hand one message to one tile's hook."""

    __slots__ = ("interface", "msg")

    def __init__(self, interface: _FunctionalInterface,
                 msg: CoherenceMsg) -> None:
        self.interface = interface
        self.msg = msg

    def __call__(self) -> None:
        self.interface.eject_hook(self.msg)


class FunctionalNetwork:
    """Duck-typed ``Network`` replacement with fixed-latency delivery."""

    #: injection-to-ejection latency applied to every hop-free delivery;
    #: roughly an average mesh traversal (serialization + a few hops) so
    #: warm-phase MSHR/window dynamics stay in a plausible regime
    FIXED_LATENCY = 12

    def __init__(self, params, scheduler: Scheduler) -> None:
        self.params = params
        self.scheduler = scheduler
        self.topology = Grid("mesh", *squarest_shape(params.num_tiles))
        self.interfaces = [_FunctionalInterface(tile)
                           for tile in range(params.num_tiles)]
        self.routers: Tuple = ()
        self.stats = StatGroup("network")
        self.request_filtered_hook = None
        self.inflight = 0

    # -- endpoint API ------------------------------------------------------

    def interface(self, tile: int) -> _FunctionalInterface:
        return self.interfaces[tile]

    def send(self, msg: CoherenceMsg) -> None:
        """Deliver ``msg`` to every destination at the fixed latency."""
        scheduler = self.scheduler
        when = scheduler.now + self.FIXED_LATENCY
        interfaces = self.interfaces
        for dest in msg.dests:
            scheduler.at(when, _Delivery(interfaces[dest], msg))

    # -- System run-loop surface ------------------------------------------

    @property
    def active(self) -> bool:
        return False

    def next_work_cycle(self) -> int:
        return NEVER

    def watchdog_deadline(self) -> int:
        return NEVER

    def tick(self, cycle: int) -> None:
        pass

    # -- stats surface -----------------------------------------------------

    def total_flits(self) -> int:
        return 0

    def traffic_breakdown(self) -> Dict[TrafficClass, int]:
        return {cls: 0 for cls in TrafficClass}

    def link_load_matrix(self) -> Dict[Tuple[int, str], int]:
        return {}

    # -- checkpoint state (see repro.sim.checkpoint) ------------------------

    def state(self) -> Dict:
        return {"functional": True}

    def restore_state(self, snap: Dict, cycle: int) -> None:
        """A functional image may continue warming here (the chained
        capture path); the fabric carries no restorable state.  A
        *detailed* image never restores functionally — its timing
        context would be silently discarded."""
        if not snap.get("functional"):
            raise SimulationError(
                "detailed warm images restore into detailed systems only")
