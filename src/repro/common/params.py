"""Configuration dataclasses for the simulated manycore system.

The defaults mirror Table I of the paper.  All parameter objects are
frozen: a configuration is fixed once the system is built, and sharing a
params object between components is safe.

Every class validates its fields in ``__post_init__`` and raises
:class:`~repro.common.errors.ConfigError` eagerly, so a bad configuration
fails at construction rather than deep inside a simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError

LINE_BYTES = 64
"""Cache line size in bytes; fixed, as in the paper's gem5 setup."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CoreParams:
    """Processor core timing model parameters.

    The paper uses a detailed out-of-order core (8-wide, 336-entry ROB).
    We approximate it with a bounded-outstanding-miss model: the core can
    continue past cache misses until ``max_outstanding`` memory operations
    are in flight, which captures the memory-level parallelism that an
    out-of-order window provides.
    """

    max_outstanding: int = 16
    """Maximum in-flight memory operations (models ROB/LSQ capacity)."""

    l1_hit_cycles: int = 2
    """Load-to-use latency for an L1D hit, in system (2 GHz) cycles."""

    retire_width: int = 4
    """Memory operations that can retire per cycle."""

    def __post_init__(self) -> None:
        _require(self.max_outstanding >= 1, "max_outstanding must be >= 1")
        _require(self.l1_hit_cycles >= 1, "l1_hit_cycles must be >= 1")
        _require(self.retire_width >= 1, "retire_width must be >= 1")


@dataclass(frozen=True)
class CacheParams:
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    hit_latency: int
    """Lookup latency in cycles."""

    mshrs: int = 16
    """Outstanding-miss capacity of this cache."""

    def __post_init__(self) -> None:
        _require(self.size_bytes >= LINE_BYTES, "cache smaller than a line")
        _require(self.assoc >= 1, "associativity must be >= 1")
        _require(self.size_bytes % (self.assoc * LINE_BYTES) == 0,
                 "size must be a multiple of assoc * line size")
        _require(_is_pow2(self.num_sets), "number of sets must be a power of two")
        _require(self.hit_latency >= 1, "hit_latency must be >= 1")
        _require(self.mshrs >= 1, "mshrs must be >= 1")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * LINE_BYTES)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // LINE_BYTES


#: interconnect fabrics understood by ``repro.noc.topology.build_topology``
#: (the only list of them: ``NoCParams`` rejects any other name).
TOPOLOGIES = ("mesh", "torus", "ring", "cmesh")

#: NoC execution backends (``repro.noc``): the object-granular event
#: engine is the golden reference; the array engine advances the whole
#: fabric as NumPy arrays and is gated on statistical equivalence.
ENGINES = ("event", "array")


@dataclass(frozen=True)
class NoCParams:
    """Interconnect parameters (Garnet-3.0 equivalents from Table I).

    ``rows``/``cols`` describe the tile grid; how tiles map onto routers
    is the chosen ``topology``'s business (a ring linearizes the grid, a
    concentrated mesh groups ``concentration`` tiles per router)."""

    rows: int = 4
    cols: int = 4
    link_bits: int = 128
    """Link width; a flit is ``link_bits`` wide."""

    vcs_per_vnet: int = 4
    num_vnets: int = 3
    """vnet 0 = requests, vnet 1 = data/responses/pushes, vnet 2 = control
    (invalidations and acknowledgments)."""

    router_stages: int = 2
    link_latency: int = 1
    vc_depth_flits: int = 16
    """Buffer depth of one virtual channel, in flits.  Must hold a whole
    data packet for virtual cut-through."""

    topology: str = "mesh"
    """Fabric connecting the tiles: mesh (paper default), torus, ring,
    or cmesh (concentrated mesh)."""

    concentration: int = 4
    """Tiles per router under the ``cmesh`` topology (ignored elsewhere)."""

    engine: str = "event"
    """NoC execution backend: ``event`` (the object-granular reference
    engine) or ``array`` (the vectorized whole-fabric NumPy engine,
    statistically equivalent and much faster on large saturated
    fabrics)."""

    def __post_init__(self) -> None:
        _require(self.rows >= 1 and self.cols >= 1, "mesh must be at least 1x1")
        _require(self.link_bits in (64, 128, 256, 512),
                 "link_bits must be one of 64/128/256/512 (paper Fig. 18 sweep)")
        _require(self.vcs_per_vnet >= 1, "vcs_per_vnet must be >= 1")
        _require(self.num_vnets == 3, "the protocol requires exactly 3 vnets")
        _require(self.router_stages >= 1, "router_stages must be >= 1")
        _require(self.link_latency >= 1, "link_latency must be >= 1")
        _require(self.vc_depth_flits >= self.data_packet_flits,
                 "VC depth must hold a full data packet (virtual cut-through)")
        _require(self.topology in TOPOLOGIES,
                 f"topology must be one of {TOPOLOGIES}, got {self.topology!r}")
        _require(self.engine in ENGINES,
                 f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.topology in ("torus", "ring"):
            _require(self.vcs_per_vnet >= 2 and self.vcs_per_vnet % 2 == 0,
                     f"{self.topology} needs an even vcs_per_vnet >= 2 "
                     "(two dateline VC classes per vnet)")
        if self.topology == "cmesh":
            _require(self.concentration >= 1, "concentration must be >= 1")
            _require(self.num_tiles % self.concentration == 0,
                     f"{self.num_tiles} tiles do not split into routers "
                     f"of {self.concentration}")

    @property
    def num_tiles(self) -> int:
        return self.rows * self.cols

    @property
    def control_packet_flits(self) -> int:
        """Single-flit control packets, regardless of link width."""
        return 1

    @property
    def data_packet_flits(self) -> int:
        """Flits per data packet: header + 64-byte line over the link width.

        At the paper's default 128-bit links this is 5 flits (1 head +
        512/128 body), matching Table I.  Wider links shrink the packet.
        """
        line_bits = LINE_BYTES * 8
        body = (line_bits + self.link_bits - 1) // self.link_bits
        return 1 + body


@dataclass(frozen=True)
class PrefetchParams:
    """L1 Bingo and L2 stride prefetcher settings (Table I)."""

    enabled: bool = False
    bingo_region_bytes: int = 2048
    bingo_pht_entries: int = 256
    """Pattern-history-table entries; the paper's 16 KiB PHT scaled to the
    synthetic footprint sizes used here."""

    stride_streams: int = 16
    stride_degree: int = 4
    """Prefetches issued per detected stream."""

    def __post_init__(self) -> None:
        _require(self.bingo_region_bytes % LINE_BYTES == 0,
                 "bingo region must be a multiple of the line size")
        _require(self.bingo_region_bytes >= LINE_BYTES,
                 "bingo region must hold at least one line")
        _require(self.bingo_pht_entries >= 1, "bingo_pht_entries must be >= 1")
        _require(self.stride_streams >= 1, "stride_streams must be >= 1")
        _require(self.stride_degree >= 1, "stride_degree must be >= 1")


@dataclass(frozen=True)
class PushParams:
    """Push Multicast policy knobs (paper §III-B and §III-D, Table I)."""

    mode: str = "off"
    """One of ``off``, ``pushack``, ``ordpush``, ``coalesce``, ``msp``."""

    multicast: bool = True
    """Replicate pushes as a single multicast packet (False = unicasts)."""

    network_filter: bool = True
    """Enable the coherent in-network filter."""

    dynamic_knob: bool = True
    """Enable the per-core pause / periodic resume mechanism."""

    push_on_prefetch: bool = False
    """§VI extension: let prefetch read requests from existing sharers
    trigger speculative multicasts too.  The paper's preliminary finding
    is that this helps high-sharing/medium-load cases but is not a
    consistent win; it is off by default."""

    tpc_threshold: int = 64
    """Pushes received before the pause knob may trigger (TPC Threshold)."""

    time_window: int = 500
    """Cycles per Disable-Accepting / Resume phase at each LLC slice."""

    useful_ratio_log2: int = 1
    """Pause when UPC < TPC >> useful_ratio_log2 (1 => 50 % threshold)."""

    counter_bits: int = 10
    """Width of the TPC / UPC saturating counters."""

    shadow_cycles: int = 120
    """LLC-side filter window: after a push is triggered for a line, a
    GETS from one of its destinations arriving within this window is
    dropped at the slice — its response is embedded in the in-flight
    push.  This models the home router's stationary filtering of
    requests that, in the real system, back up into the router while
    the LLC is busy (our network-interface model sinks ejections
    unboundedly, so those requests would otherwise slip past the
    filter).  Only active when the in-network filter is enabled."""

    _MODES = ("off", "pushack", "ordpush", "coalesce", "msp")

    def __post_init__(self) -> None:
        _require(self.mode in self._MODES,
                 f"mode must be one of {self._MODES}, got {self.mode!r}")
        _require(self.tpc_threshold >= 1, "tpc_threshold must be >= 1")
        _require(self.time_window >= 1, "time_window must be >= 1")
        _require(1 <= self.useful_ratio_log2 <= 4,
                 "useful_ratio_log2 must be in [1, 4]")
        _require(self.shadow_cycles >= 0, "shadow_cycles must be >= 0")
        _require(4 <= self.counter_bits <= 16, "counter_bits must be in [4, 16]")

    @property
    def pushes(self) -> bool:
        """True when this mode speculatively pushes data (PushAck/OrdPush/MSP)."""
        return self.mode in ("pushack", "ordpush", "msp")


@dataclass(frozen=True)
class MemoryParams:
    """Main memory model (DDR3-1600, 12.8 GB/s as in Table I)."""

    latency: int = 100
    """Fixed access latency in cycles (row activation + transfer)."""

    num_controllers: int = 4
    """Memory controllers at the four mesh corners."""

    bandwidth_lines_per_cycle: float = 0.2
    """Sustained line transfers per cycle per controller (throughput cap)."""

    def __post_init__(self) -> None:
        _require(self.latency >= 1, "latency must be >= 1")
        _require(self.num_controllers >= 1, "num_controllers must be >= 1")
        _require(self.bandwidth_lines_per_cycle > 0,
                 "bandwidth_lines_per_cycle must be positive")


@dataclass(frozen=True)
class SystemParams:
    """Complete system configuration: one object wires the whole model."""

    noc: NoCParams = field(default_factory=NoCParams)
    core: CoreParams = field(default_factory=CoreParams)
    l1: CacheParams = field(default_factory=lambda: CacheParams(
        size_bytes=32 * 1024, assoc=8, hit_latency=2, mshrs=8))
    l2: CacheParams = field(default_factory=lambda: CacheParams(
        size_bytes=256 * 1024, assoc=16, hit_latency=8, mshrs=16))
    llc_slice: CacheParams = field(default_factory=lambda: CacheParams(
        size_bytes=1024 * 1024, assoc=16, hit_latency=20, mshrs=32))
    prefetch: PrefetchParams = field(default_factory=PrefetchParams)
    push: PushParams = field(default_factory=PushParams)
    memory: MemoryParams = field(default_factory=MemoryParams)

    def __post_init__(self) -> None:
        _require(self.l1.size_bytes <= self.l2.size_bytes,
                 "L1 must not be larger than L2")

    @property
    def num_cores(self) -> int:
        return self.noc.num_tiles
