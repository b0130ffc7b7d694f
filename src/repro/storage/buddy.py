"""Buddy allocator (the Starburst LFM allocation scheme).

The Long Field Manager "stores long fields directly in an operating system
disk device ... using a buddy allocation scheme to promote contiguity"
(§5.1).  Contiguity is what lets the Hilbert curve's clustering reach the
disk: consecutive curve positions are consecutive bytes in one extent.

Buddy blocks trimmed to the page: blocks are ``2^k * min_block`` bytes,
and an allocation takes the smallest free block that fits, then gives
every buddy past its last used ``min_block`` back to the free lists, as
the Starburst LFM frees the unused end of a field's last segment.  An
allocation of ``n`` pages is the binary split of ``n``: contiguous
pieces, largest first, each aligned to its own size, at an offset aligned
to the power-of-two ceiling of ``n``.  Freeing an allocation frees its
pieces, merging buddies back together.
"""

from __future__ import annotations

from repro.errors import AllocationError, ValidationError

__all__ = ["BuddyAllocator"]


class BuddyAllocator:
    """Allocates page-rounded extents from a fixed arena of buddy blocks."""

    def __init__(self, capacity: int, min_block: int = 4096):
        if min_block <= 0 or min_block & (min_block - 1):
            raise ValidationError("min_block must be a positive power of two")
        if capacity < min_block or capacity & (capacity - 1):
            raise ValidationError("capacity must be a power-of-two multiple of min_block")
        self.capacity = capacity
        self.min_block = min_block
        self._min_order = min_block.bit_length() - 1
        self._max_order = capacity.bit_length() - 1
        # free_lists[order] holds offsets of free blocks of size 2^order
        self._free_lists: dict[int, set[int]] = {
            order: set() for order in range(self._min_order, self._max_order + 1)
        }
        self._free_lists[self._max_order].add(0)
        self._allocated: dict[int, int] = {}  # offset -> page-rounded size

    # ------------------------------------------------------------------ #

    def _extent(self, size: int) -> tuple[int, int]:
        """``size`` rounded up to whole pages, and its power-of-two ceiling's order."""
        if size <= 0:
            raise AllocationError("allocation size must be positive")
        rounded = -(-size // self.min_block) * self.min_block
        order = (rounded - 1).bit_length()
        if order > self._max_order:
            raise AllocationError(
                f"request of {size} bytes exceeds arena capacity {self.capacity}"
            )
        return rounded, order

    def _pieces(self, offset: int, size: int) -> list[tuple[int, int]]:
        """The binary split of the extent: ``(offset, order)``, largest first."""
        pieces = []
        while size:
            order = size.bit_length() - 1
            pieces.append((offset, order))
            offset += 1 << order
            size -= 1 << order
        return pieces

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes rounded up to whole pages; returns the offset.

        Picks the smallest free block that fits and takes the extent's
        pieces from its start: the buddies past the last used page stay
        free.
        """
        rounded, order = self._extent(size)
        source = order
        while source <= self._max_order and not self._free_lists[source]:
            source += 1
        if source > self._max_order:
            raise AllocationError(
                f"arena exhausted: no free block of {1 << order} bytes "
                f"(capacity {self.capacity}, allocated {self.allocated_bytes})"
            )
        offset = next(iter(self._free_lists[source]))
        # Each piece after the first is the buddy its predecessor's split
        # left free, so it is taken from a block of that piece's order.
        for piece, order in self._pieces(offset, rounded):
            self._take(piece, order, source)
            source = order
        self._allocated[offset] = rounded
        return offset

    def free(self, offset: int) -> None:
        """Release an allocation, merging each piece with free buddies."""
        try:
            size = self._allocated.pop(offset)
        except KeyError:
            raise AllocationError(f"offset {offset} is not an allocated block") from None
        for piece, order in self._pieces(offset, size):
            while order < self._max_order:
                buddy = piece ^ (1 << order)
                if buddy not in self._free_lists[order]:
                    break
                self._free_lists[order].remove(buddy)
                piece = min(piece, buddy)
                order += 1
            self._free_lists[order].add(piece)

    def _take(self, piece: int, order: int, source: int) -> None:
        """Split the free block of order ``source`` holding ``(piece, order)`` down to it."""
        block = piece & ~((1 << source) - 1)
        self._free_lists[source].remove(block)
        while source > order:
            source -= 1
            half = block + (1 << source)
            if piece >= half:
                self._free_lists[source].add(block)
                block = half
            else:
                self._free_lists[source].add(half)

    def _covering(self, offset: int, order: int) -> int | None:
        """Order of the free block that contains the block ``(offset, order)``."""
        for source in range(order, self._max_order + 1):
            if (offset & ~((1 << source) - 1)) in self._free_lists[source]:
                return source
        return None

    def carve(self, offset: int, size: int) -> None:
        """Mark the extent of ``size`` bytes at ``offset`` allocated.

        Splits whichever free block contains each of the extent's pieces,
        which leaves the free lists as :meth:`alloc` left them.  Used by
        crash/restart recovery: the saved field table records where every
        long field lives and how long it is, and the allocator is rebuilt
        by carving those extents back out, so an extent saved with its
        whole buddy block comes back with its tail free.
        """
        rounded, order = self._extent(size)
        if offset & ((1 << order) - 1):
            raise AllocationError(
                f"offset {offset} is not aligned for a {1 << order}-byte block"
            )
        if offset in self._allocated:
            raise AllocationError(f"offset {offset} is already allocated")
        pieces = self._pieces(offset, rounded)
        if any(self._covering(*piece) is None for piece in pieces):
            raise AllocationError(f"no free block covers [{offset}, {offset + rounded})")
        for piece, order in pieces:
            self._take(piece, order, self._covering(piece, order))
        self._allocated[offset] = rounded

    def validate(self) -> None:
        """Check every structural invariant; raises :class:`AllocationError`.

        Verified: every allocation page-rounded and aligned to its size's
        power-of-two ceiling; all blocks (allocated pieces and free blocks)
        aligned to their size and inside the arena, disjoint, and summing
        to the arena capacity; and no two free buddies left uncoalesced.
        The property tests call this after every random operation.
        """
        covered = 0
        seen: list[tuple[int, int, bool]] = []  # (offset, size, is_free)
        for offset, size in self._allocated.items():
            if size % self.min_block or offset & ((1 << (size - 1).bit_length()) - 1):
                raise AllocationError(
                    f"allocation of {size} bytes at {offset} is not page-rounded "
                    "and aligned to its power-of-two ceiling"
                )
            seen.extend((piece, 1 << order, False)
                        for piece, order in self._pieces(offset, size))
        for order, offsets in self._free_lists.items():
            for offset in offsets:
                seen.append((offset, 1 << order, True))
        seen.sort()
        prev_end = 0
        for offset, size, _ in seen:
            if offset % size:
                raise AllocationError(
                    f"block at {offset} is misaligned for its size {size}"
                )
            if offset < prev_end:
                raise AllocationError(
                    f"block at {offset} overlaps the block ending at {prev_end}"
                )
            if offset + size > self.capacity:
                raise AllocationError(
                    f"block [{offset}, {offset + size}) exceeds arena capacity"
                )
            prev_end = offset + size
            covered += size
        if covered != self.capacity:
            raise AllocationError(
                f"blocks cover {covered} of {self.capacity} arena bytes"
            )
        for order in range(self._min_order, self._max_order):
            for offset in self._free_lists[order]:
                if (offset ^ (1 << order)) in self._free_lists[order]:
                    raise AllocationError(
                        f"free buddies at order {order} left uncoalesced "
                        f"({offset} and {offset ^ (1 << order)})"
                    )

    def allocations(self) -> dict[int, int]:
        """Snapshot of allocations: offset -> page-rounded size in bytes."""
        return dict(self._allocated)

    def block_size(self, offset: int) -> int:
        """Page-rounded size of the allocation at ``offset``."""
        try:
            return self._allocated[offset]
        except KeyError:
            raise AllocationError(f"offset {offset} is not an allocated block") from None

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def allocated_bytes(self) -> int:
        """Bytes currently allocated (page-rounded)."""
        return sum(self._allocated.values())

    def __repr__(self) -> str:
        return (
            f"BuddyAllocator({len(self._allocated)} extents, "
            f"{self.allocated_bytes}/{self.capacity} bytes used)"
        )
