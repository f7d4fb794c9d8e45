"""Full-system statistics dump (gem5 ``stats.txt`` style).

``dump_stats(system)`` renders every counter in the system's stat tree
plus the network's link/traffic state into a flat, sorted, text report —
the debugging view for protocol work, and diffable across runs.
"""

from __future__ import annotations

import io


from repro.common.stats import StatGroup


def _write_group(out: io.StringIO, prefix: str, group: StatGroup) -> None:
    for key, value in sorted(group.counters().items()):
        if isinstance(value, float):
            out.write(f"{prefix}.{key:<40s} {value:.4f}\n")
        else:
            out.write(f"{prefix}.{key:<40s} {value}\n")
    for key, hist in sorted(group.histograms().items()):
        out.write(f"{prefix}.{key}.count{'':<34s} {hist.count}\n")
        out.write(f"{prefix}.{key}.mean{'':<35s} {hist.mean:.2f}\n")
        out.write(f"{prefix}.{key}.p95{'':<36s} "
                  f"{hist.percentile(0.95)}\n")
    for child in group.children():
        _write_group(out, f"{prefix}.{child.name}", child)


def dump_stats(system, aggregate: bool = True) -> str:
    """Render a system's statistics as sorted ``path value`` lines.

    With ``aggregate`` (the default) per-tile controller groups are also
    folded into ``agg.l2`` / ``agg.llc`` totals at the top of the dump.
    """
    out = io.StringIO()
    out.write("---------- Begin Simulation Statistics ----------\n")
    out.write(f"sim.cycles{'':<34s} {system.scheduler.now}\n")
    restored_at = getattr(system, "restored_at", None)
    if restored_at is not None:
        out.write(f"sim.restored_at{'':<29s} {restored_at}\n")
    out.write(f"sim.cores_finished{'':<26s} "
              f"{sum(1 for c in system.cores if c.finished)}\n")

    if aggregate:
        for kind, groups in (("l2", system.caches), ("llc", system.slices)):
            total = StatGroup(kind)
            for controller in groups:
                total.merge(controller.stats)
            _write_group(out, f"agg.{kind}", total)

    _write_group(out, "network", system.network.stats)
    for traffic_class, flits in sorted(
            system.network.traffic_breakdown().items(),
            key=lambda item: item[0].name):
        out.write(f"network.traffic.{traffic_class.name.lower():<28s} "
                  f"{flits}\n")
    for router in system.network.routers:
        flits = sum(port.flits_tx for port in router.output_ports
                    if port is not None)
        out.write(f"router{router.id}.flits_tx{'':<30s} {flits}\n")
        _write_group(out, f"router{router.id}", router.stats)
    _write_group(out, "system", system.stats)
    out.write("---------- End Simulation Statistics ----------\n")
    return out.getvalue()


def save_stats(system, path, aggregate: bool = True) -> None:
    """Write :func:`dump_stats` output to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_stats(system, aggregate=aggregate))


def dump_sampled(sampled) -> str:
    """Render a :class:`~repro.sim.sampling.SampledResult` summary in
    the same flat ``path value`` idiom as :func:`dump_stats`.

    One ``sim.sampled.*`` block makes sampled runs self-describing:
    region count, convergence flag, and per-stat mean / CI half-width
    at the policy's confidence level.
    """
    out = io.StringIO()
    est = sampled.headline
    out.write(f"sim.sampled.regions{'':<25s} {est.count}\n")
    out.write(f"sim.sampled.planned{'':<25s} {sampled.policy.samples}\n")
    out.write(f"sim.sampled.region_cycles{'':<19s} "
              f"{sampled.policy.sample_cycles}\n")
    out.write(f"sim.sampled.confidence{'':<22s} "
              f"{sampled.policy.confidence:.4f}\n")
    out.write(f"sim.sampled.converged{'':<23s} "
              f"{int(sampled.converged)}\n")
    out.write(f"sim.sampled.headline{'':<24s} {est.name}\n")
    for name, stat in sorted(sampled.stats.items()):
        out.write(f"sim.sampled.{name}.mean{'':<{max(1, 27 - len(name))}s} "
                  f"{stat.mean:.6f}\n")
        out.write(f"sim.sampled.{name}.ci_half"
                  f"{'':<{max(1, 24 - len(name))}s} {stat.ci_half:.6f}\n")
    return out.getvalue()
