"""Named system configurations (Table I and the evaluation's schemes).

``make_params`` builds a :class:`SystemParams` for one of the paper's
evaluated configurations:

==================  ====================================================
name                meaning
==================  ====================================================
baseline            L1Bingo-L2Stride: hardware prefetchers, no pushes
noprefetch          plain MESI system (ablation reference, §IV-E)
coalesce            LLC request coalescing + multicast replies [38]
msp                 memory-sharing-predictor-style unicast pushes [41]
pushack             Push Multicast with the PushAck protocol
ordpush             Push Multicast with the OrdPush ordered network
push_only           ablation: pushes only (no multicast/filter/knob)
push_multicast      ablation: + multicast packets
push_mc_filter      ablation: + in-network filter
==================  ====================================================

The TPC Threshold / Time Window defaults follow Table I: PushAck uses
64/500 on 16 cores and 8/1500 on 64 cores; OrdPush uses 16/500 and
16/1500.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.params import (
    CacheParams,
    CoreParams,
    MemoryParams,
    NoCParams,
    PrefetchParams,
    PushParams,
    SystemParams,
)
from repro.noc.topology import squarest_shape

CONFIG_NAMES = (
    "baseline", "noprefetch", "coalesce", "msp", "pushack", "ordpush",
    "push_only", "push_multicast", "push_mc_filter",
    "ordpush_prefetch",
)

#: Fig. 20 ablation ladder, in presentation order.
ABLATION_STEPS = ("push_only", "push_multicast", "push_mc_filter", "ordpush")


#: Scaled cache profile used by the benchmark harness.  The paper's
#: 256 KB L2 / 1 MB LLC-slice sizes (Table I) are kept for the library
#: defaults; the benchmarks shrink caches and workload footprints by
#: the same factor (8x) so each run completes in seconds under Python
#: while preserving every working-set-to-cache ratio.
BENCH_PROFILE = dict(l1_kb=4, l2_kb=32, llc_slice_kb=128)


def bench_kwargs(**overrides) -> dict:
    """The scaled-cache keyword set for `make_params`/`run_workload`."""
    merged = dict(BENCH_PROFILE)
    merged.update(overrides)
    return merged


def mesh_shape(num_cores: int,
               shape: Optional[str] = None) -> Tuple[int, int]:
    """The ``(rows, cols)`` tile grid for a core count.

    With ``shape`` (a ``"RxC"`` string such as ``"4x8"``, as passed by
    ``--shape``) the explicit grid is used after checking it holds
    exactly ``num_cores`` tiles.  Otherwise the squarest factorization
    is chosen: perfect squares stay square (16 -> 4x4, 64 -> 8x8) and
    other counts get the most-square factor pair (12 -> 3x4; primes
    degenerate to 1xN).
    """
    if shape is not None:
        parts = str(shape).lower().replace("×", "x").split("x")
        try:
            rows, cols = (int(part) for part in parts)
        except ValueError:
            raise ConfigError(
                f"shape {shape!r} is not of the form ROWSxCOLS") from None
        if rows < 1 or cols < 1:
            raise ConfigError(f"shape {shape!r} has a non-positive side")
        if rows * cols != num_cores:
            raise ConfigError(
                f"shape {rows}x{cols} holds {rows * cols} tiles, "
                f"but {num_cores} cores were requested")
        return rows, cols
    if num_cores < 1:
        raise ConfigError("core count must be >= 1")
    return squarest_shape(num_cores)


def _table1_knobs(mode: str, num_cores: int) -> Tuple[int, int]:
    """(TPC Threshold, Time Window) from Table I."""
    if mode == "pushack":
        return (64, 500) if num_cores <= 16 else (8, 1500)
    return (16, 500) if num_cores <= 16 else (16, 1500)


def _push_params(name: str, num_cores: int,
                 tpc_threshold: Optional[int],
                 time_window: Optional[int],
                 shadow_cycles: Optional[int] = None) -> PushParams:
    recipes: Dict[str, dict] = {
        "baseline": dict(mode="off"),
        "noprefetch": dict(mode="off"),
        "coalesce": dict(mode="coalesce"),
        "msp": dict(mode="msp", multicast=False, network_filter=False,
                    dynamic_knob=False),
        "pushack": dict(mode="pushack"),
        "ordpush": dict(mode="ordpush"),
        "push_only": dict(mode="ordpush", multicast=False,
                          network_filter=False, dynamic_knob=False),
        "push_multicast": dict(mode="ordpush", network_filter=False,
                               dynamic_knob=False),
        "push_mc_filter": dict(mode="ordpush", dynamic_knob=False),
        # §VI "Interplay of Push and Prefetch": full OrdPush running
        # alongside the L1Bingo-L2Stride prefetchers, with prefetch
        # requests allowed to trigger pushes.
        "ordpush_prefetch": dict(mode="ordpush", push_on_prefetch=True),
    }
    recipe = recipes[name]
    mode = recipe["mode"]
    default_tpc, default_window = _table1_knobs(mode, num_cores)
    extra = {}
    if shadow_cycles is not None:
        extra["shadow_cycles"] = shadow_cycles
    return PushParams(
        tpc_threshold=(tpc_threshold if tpc_threshold is not None
                       else default_tpc),
        time_window=(time_window if time_window is not None
                     else default_window),
        **extra, **recipe)


def make_params(config: str = "baseline", num_cores: int = 16,
                link_bits: int = 128, l2_kb: int = 256,
                llc_slice_kb: int = 1024, l1_kb: int = 32,
                tpc_threshold: Optional[int] = None,
                time_window: Optional[int] = None,
                shadow_cycles: Optional[int] = None,
                max_outstanding: int = 16,
                topology: str = "mesh",
                shape: Optional[str] = None,
                concentration: int = 4,
                engine: str = "event") -> SystemParams:
    """Build the full parameter set for a named configuration.

    ``l2_kb``/``llc_slice_kb`` support the Fig. 19 cache sweep and the
    scaled-down sizes the Python-speed benchmarks use; ``link_bits``
    supports the Fig. 18 link-width sweep.  ``topology`` selects the
    interconnect fabric (mesh/torus/ring/cmesh), ``shape`` pins an
    explicit ``"RxC"`` tile grid, and ``concentration`` sets the tiles
    per router under ``cmesh``.  ``engine`` picks the NoC backend: the
    ``"event"`` reference or the vectorized ``"array"`` engine for
    large-fabric sweeps.
    """
    if config not in CONFIG_NAMES:
        raise ConfigError(
            f"unknown config {config!r}; expected one of {CONFIG_NAMES}")
    rows, cols = mesh_shape(num_cores, shape)
    return SystemParams(
        noc=NoCParams(rows=rows, cols=cols, link_bits=link_bits,
                      topology=topology, concentration=concentration,
                      engine=engine),
        core=CoreParams(max_outstanding=max_outstanding),
        l1=CacheParams(size_bytes=l1_kb * 1024, assoc=8, hit_latency=2,
                       mshrs=8),
        l2=CacheParams(size_bytes=l2_kb * 1024, assoc=16, hit_latency=8,
                       mshrs=16),
        llc_slice=CacheParams(size_bytes=llc_slice_kb * 1024, assoc=16,
                              hit_latency=20, mshrs=32),
        prefetch=PrefetchParams(
            enabled=config in ("baseline", "ordpush_prefetch")),
        push=_push_params(config, num_cores, tpc_threshold, time_window,
                          shadow_cycles),
        memory=MemoryParams(),
    )
