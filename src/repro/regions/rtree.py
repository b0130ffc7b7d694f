"""A Hilbert-packed R-tree over REGION bounding boxes.

The one spatial index in the tree (it backs ``CREATE SPATIAL INDEX``): a
candidates-then-refine structure built the way Kamel and Faloutsos pack
R-trees: sort the entries along a Hilbert curve, chunk consecutive runs
into fully packed leaves, and stack parent levels until one root
remains.  Because entries that are close on the curve are close in
space, the packed leaves have small, well-separated bounding boxes and
searches touch few nodes.

The stored REGIONs already *are* Hilbert run lists (``repro.curves.
hilbert`` is the default linearization), so the packing key falls out of
the representation for free: the midpoint of a region's curve-id interval.
Regions linearized along another curve get a key by mapping their bounding
-box center through the grid's Hilbert curve, which keeps mixed-encoding
populations (the Table 4 ablations store z- and naive-order bands) in one
tree.

Trees are immutable once packed — the DBMS layer rebuilds one wholesale
the first time it is needed after the population of *distinct* region
values changed (at most once per commit), which for the QBISM workload
(tens of structures, dozens of bands) is cheaper and simpler than
R*-style incremental maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.curves import curve_for_grid
from repro.regions.region import Region

__all__ = ["RTreeEntry", "RegionRTree", "hilbert_sort_key"]

#: default leaf/node fan-out; packed nodes are full except the last
DEFAULT_CAPACITY = 8


def hilbert_sort_key(region: Region) -> int:
    """The Hilbert packing key of one region.

    For regions already linearized along the Hilbert curve this is the
    midpoint of the curve-id interval (no geometry needed).  Other
    linearizations map their (memoized) bounding-box center through the
    grid's Hilbert curve — every grid a region's own curve covers has one.
    """
    intervals = region.intervals
    if not intervals.run_count:
        return 0
    if region.curve.name == "hilbert":
        return (int(intervals.min_index) + int(intervals.max_index)) // 2
    lower, upper = region.bounding_box()
    center = [(lo + up - 1) // 2 for lo, up in zip(lower, upper)]
    return curve_for_grid(region.grid, "hilbert").index_point(*center)


@dataclass(frozen=True)
class RTreeEntry:
    """One indexed region: an opaque key plus its box and packing key."""

    key: object                 #: caller-chosen handle (hashable)
    lower: tuple[int, ...]      #: bounding box lower corner (inclusive)
    upper: tuple[int, ...]      #: bounding box upper corner (exclusive)
    hilbert: int                #: packing key along the Hilbert curve

    @classmethod
    def for_region(cls, key: object, region: Region) -> "RTreeEntry":
        """Build the entry for one non-empty region."""
        lower, upper = region.bounding_box()
        return cls(key, lower, upper, hilbert_sort_key(region))


class _Node:
    """One packed node: a combined box over leaf entries or child nodes."""

    __slots__ = ("lower", "upper", "entries", "children")

    def __init__(self, lower, upper, entries=None, children=None):
        self.lower = lower
        self.upper = upper
        self.entries = entries
        self.children = children


def _combined_box(boxes: Sequence[tuple[tuple, tuple]]):
    lower = tuple(min(b[0][d] for b in boxes) for d in range(len(boxes[0][0])))
    upper = tuple(max(b[1][d] for b in boxes) for d in range(len(boxes[0][0])))
    return lower, upper


def _overlaps(a_lower, a_upper, b_lower, b_upper) -> bool:
    return all(al < bu and au > bl
               for al, au, bl, bu in zip(a_lower, a_upper, b_lower, b_upper))


class RegionRTree:
    """An immutable Hilbert-packed R-tree over :class:`RTreeEntry` values.

    Build once from the full entry population; :meth:`search` returns the
    keys of every entry whose bounding box overlaps a half-open probe box
    (false positives by construction, never false negatives).
    """

    def __init__(self, entries: Iterable[RTreeEntry],
                 capacity: int = DEFAULT_CAPACITY):
        ordered = sorted(entries, key=lambda e: (e.hilbert, e.lower, e.upper))
        self._count = len(ordered)
        self._height = 0
        self._root = None
        if not ordered:
            return
        level: list[_Node] = []
        for i in range(0, len(ordered), capacity):
            chunk = ordered[i:i + capacity]
            lower, upper = _combined_box([(e.lower, e.upper) for e in chunk])
            level.append(_Node(lower, upper, entries=chunk))
        self._height = 1
        while len(level) > 1:
            parents: list[_Node] = []
            for i in range(0, len(level), capacity):
                chunk = level[i:i + capacity]
                lower, upper = _combined_box([(n.lower, n.upper) for n in chunk])
                parents.append(_Node(lower, upper, children=chunk))
            level = parents
            self._height += 1
        self._root = level[0]

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Number of node levels (0 for an empty tree)."""
        return self._height

    def bounding_box(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """The combined box of every entry, or None when empty."""
        if self._root is None:
            return None
        return self._root.lower, self._root.upper

    def search(self, lower: Sequence[int], upper: Sequence[int]) -> list:
        """Keys of entries whose box overlaps the half-open probe box.

        Results come back in packed (Hilbert) order, which is also
        deterministic for a fixed entry population.
        """
        if self._root is None:
            return []
        lower = tuple(int(v) for v in lower)
        upper = tuple(int(v) for v in upper)
        hits: list = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not _overlaps(node.lower, node.upper, lower, upper):
                continue
            if node.entries is not None:
                for entry in node.entries:
                    if _overlaps(entry.lower, entry.upper, lower, upper):
                        hits.append(entry.key)
            else:
                # reversed: keep left-to-right (Hilbert) output order
                stack.extend(reversed(node.children))
        return hits

    def __repr__(self) -> str:
        return f"RegionRTree({self._count} entries, height {self._height})"
