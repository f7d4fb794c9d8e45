"""Lightweight hierarchical statistics collection.

Components own a :class:`StatGroup`; counters are :class:`Counter`
objects stored under string keys.  Cold paths use ``inc``/``add`` with a
string key (one dict operation); hot paths bind the counter object once
via :meth:`StatGroup.counter` and bump ``counter.value`` directly, which
skips the string hash + dict probe per event.  Groups nest, and
:meth:`StatGroup.flatten` produces the flat
``group.subgroup.counter -> value`` mapping used by the experiment
harnesses and by ``results.py``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple, Union

Number = Union[int, float]


class Counter:
    """One mutable counter cell.

    Hot paths hold a reference and mutate :attr:`value` in place; the
    owning :class:`StatGroup` reads it back when reporting.
    """

    __slots__ = ("value",)

    def __init__(self, value: Number = 0) -> None:
        self.value = value

    def add(self, amount: Number = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Histogram:
    """A fixed-bucket histogram for latency / interval distributions."""

    __slots__ = ("bucket_width", "buckets", "overflow", "count", "total")

    def __init__(self, bucket_width: int, num_buckets: int = 64) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        self.bucket_width = bucket_width
        self.buckets = [0] * num_buckets
        self.overflow = 0
        self.count = 0
        self.total = 0

    def record(self, value: Number) -> None:
        """Add one sample; negative samples clamp to the first bucket."""
        self.count += 1
        self.total += value
        index = int(value) // self.bucket_width
        if index < 0:
            index = 0
        if index >= len(self.buckets):
            self.overflow += 1
        else:
            self.buckets[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> int:
        """Upper edge of the bucket containing the given quantile."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.count == 0:
            return 0
        target = fraction * self.count
        seen = 0
        for index, bucket in enumerate(self.buckets):
            seen += bucket
            if seen >= target:
                return (index + 1) * self.bucket_width
        return (len(self.buckets) + 1) * self.bucket_width

    def __repr__(self) -> str:
        return (f"Histogram(count={self.count}, mean={self.mean:.1f}, "
                f"p95<={self.percentile(0.95)})")


class StatGroup:
    """A named bag of counters and nested groups."""

    __slots__ = ("name", "_counters", "_histograms", "_children")

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._children: Dict[str, "StatGroup"] = {}

    # -- counters ---------------------------------------------------------

    def counter(self, key: str) -> Counter:
        """Get or create the named counter as a bindable object."""
        cell = self._counters.get(key)
        if cell is None:
            cell = self._counters[key] = Counter()
        return cell

    def inc(self, key: str, amount: Number = 1) -> None:
        """Increment counter ``key`` by ``amount`` (creates it at zero)."""
        cell = self._counters.get(key)
        if cell is None:
            cell = self._counters[key] = Counter()
        cell.value += amount

    def set(self, key: str, value: Number) -> None:
        self.counter(key).value = value

    def get(self, key: str, default: Number = 0) -> Number:
        cell = self._counters.get(key)
        return cell.value if cell is not None else default

    def counters(self) -> Dict[str, Number]:
        """A copy of this group's own counter values (no children)."""
        return {key: cell.value for key, cell in self._counters.items()}

    # -- histograms -------------------------------------------------------

    def histogram(self, key: str, bucket_width: int = 64,
                  num_buckets: int = 64) -> Histogram:
        """Get or create the named histogram."""
        hist = self._histograms.get(key)
        if hist is None:
            hist = Histogram(bucket_width, num_buckets)
            self._histograms[key] = hist
        return hist

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    # -- hierarchy --------------------------------------------------------

    def child(self, name: str) -> "StatGroup":
        """Get or create a nested group."""
        group = self._children.get(name)
        if group is None:
            group = StatGroup(name)
            self._children[name] = group
        return group

    def children(self) -> List["StatGroup"]:
        return list(self._children.values())

    def flatten(self, prefix: str = "") -> Dict[str, Number]:
        """All counters in this subtree as ``dotted.path -> value``."""
        base = f"{prefix}{self.name}"
        flat: Dict[str, Number] = {}
        for key, cell in self._counters.items():
            flat[f"{base}.{key}"] = cell.value
        for child in self._children.values():
            flat.update(child.flatten(prefix=f"{base}."))
        return flat

    def walk(self) -> Iterator[Tuple[str, "StatGroup"]]:
        """Depth-first iteration of ``(dotted_name, group)`` pairs."""
        yield self.name, self
        for child in self._children.values():
            for name, group in child.walk():
                yield f"{self.name}.{name}", group

    # -- checkpointing ----------------------------------------------------

    def state(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of this subtree.

        Captures counter values and full histogram contents recursively;
        the inverse is :meth:`restore_state`.  Used by
        ``repro.sim.checkpoint`` to carry warm-run statistics across a
        save/restore boundary so measured-region deltas are exact.
        """
        return {
            "counters": {key: cell.value
                         for key, cell in self._counters.items()},
            "histograms": {
                key: {
                    "bucket_width": hist.bucket_width,
                    "buckets": list(hist.buckets),
                    "overflow": hist.overflow,
                    "count": hist.count,
                    "total": hist.total,
                }
                for key, hist in self._histograms.items()
            },
            "children": {name: child.state()
                         for name, child in self._children.items()},
        }

    def restore_state(self, snap: Dict[str, object]) -> None:
        """Overwrite this subtree from a :meth:`state` snapshot.

        Existing :class:`Counter` cells and :class:`Histogram` objects
        are mutated **in place** — hot paths hold bound references to
        them, so the objects must never be replaced.  Keys present in
        the snapshot but absent here are created; keys present here but
        absent in the snapshot are reset to zero (the snapshot is
        authoritative).
        """
        counters = snap.get("counters", {})
        for key, cell in self._counters.items():
            if key not in counters:
                cell.value = 0
        for key, value in counters.items():
            self.counter(key).value = value
        for key, hsnap in snap.get("histograms", {}).items():
            buckets = hsnap["buckets"]
            hist = self.histogram(key, hsnap["bucket_width"], len(buckets))
            hist.bucket_width = hsnap["bucket_width"]
            if len(hist.buckets) == len(buckets):
                hist.buckets[:] = buckets
            else:
                hist.buckets = list(buckets)
            hist.overflow = hsnap["overflow"]
            hist.count = hsnap["count"]
            hist.total = hsnap["total"]
        for name, csnap in snap.get("children", {}).items():
            self.child(name).restore_state(csnap)

    def merge(self, other: "StatGroup") -> None:
        """Accumulate another group's counters into this one (recursively).

        Used to aggregate per-tile stats into system-wide totals.
        Histograms are not merged; aggregate at recording time instead.
        """
        for key, cell in other._counters.items():
            self.inc(key, cell.value)
        for name, child in other._children.items():
            self.child(name).merge(child)

    def __repr__(self) -> str:
        return (f"StatGroup({self.name!r}, counters={len(self._counters)}, "
                f"children={len(self._children)})")
