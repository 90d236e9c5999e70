"""Flash translation layer: page-level mapping, allocation, garbage collection.

The FTL maps logical page numbers (LPNs) to physical flash pages and
implements the two mechanisms that shape SSD write behaviour:

* **Write allocation / striping** — new physical pages are allocated
  round-robin across channels and dies so that sequential writes exploit the
  full internal parallelism (Section II-C, "FTL/FIL can stripe the requests
  across multiple internal resources").
* **Garbage collection** — blocks are append-only; overwrites invalidate the
  old physical page.  When the pool of free blocks in a plane falls below a
  threshold, a greedy collector picks the block with the fewest valid pages,
  relocates those pages and erases the block.  The relocation work is
  returned to the caller so the device model can charge its time.

Internally a physical page is a plain integer, its *physical page number*
``PPN = plane_index * pages_per_plane + block * pages_per_block + page``,
where ``plane_index`` enumerates planes channel-major (so the flat die index
is ``plane_index // planes_per_die`` and the channel is
``plane_index // planes_per_channel``).  :class:`PhysicalAddress` objects
exist only at the API edge: :meth:`FlashTranslationLayer.lookup`, the return
value of :meth:`FlashTranslationLayer.write` and
:attr:`GCResult.page_moves`.

The mapping table is lazy (two dictionaries, LPN → PPN and PPN → LPN) so an
800 GB device can be modelled without allocating 200 M entries up front;
only pages actually touched by a workload consume memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..config import FlashGeometry


@dataclass(frozen=True)
class PhysicalAddress:
    """A physical flash page address."""

    channel: int
    package: int
    die: int
    plane: int
    block: int
    page: int

    def block_id(self) -> Tuple[int, int, int, int, int]:
        return (self.channel, self.package, self.die, self.plane, self.block)


@dataclass
class GCResult:
    """Work performed by one garbage-collection invocation."""

    page_moves: List[Tuple[PhysicalAddress, PhysicalAddress]] = field(
        default_factory=list)
    blocks_erased: int = 0

    @property
    def pages_moved(self) -> int:
        return len(self.page_moves)


class _Plane:
    """Allocation state of one flash plane (a set of blocks)."""

    __slots__ = ("channel", "package", "die", "plane", "base",
                 "pages_per_block", "free_blocks", "open_block", "next_page",
                 "valid_pages", "erase_count", "gc_pressed")

    def __init__(self, channel: int, package: int, die: int, plane: int,
                 base: int, blocks_per_plane: int,
                 pages_per_block: int) -> None:
        self.channel = channel
        self.package = package
        self.die = die
        self.plane = plane
        #: PPN of this plane's block 0, page 0.
        self.base = base
        self.pages_per_block = pages_per_block
        self.free_blocks: List[int] = list(range(blocks_per_plane))
        self.open_block: Optional[int] = None
        self.next_page = 0
        # block index -> set of page indices currently holding valid data
        self.valid_pages: Dict[int, Set[int]] = {}
        self.erase_count = 0
        #: Maintained by the FTL: ``len(free_blocks) < gc_threshold_blocks``.
        self.gc_pressed = False

    def allocate_page(self) -> Optional[int]:
        """Return the PPN of the next append point, or ``None`` if full."""
        if self.open_block is None or self.next_page >= self.pages_per_block:
            if not self.free_blocks:
                return None
            self.open_block = self.free_blocks.pop(0)
            self.next_page = 0
            self.valid_pages.setdefault(self.open_block, set())
        page = self.next_page
        self.valid_pages[self.open_block].add(page)
        self.next_page = page + 1
        return self.base + self.open_block * self.pages_per_block + page

    def invalidate(self, ppn: int) -> None:
        block, page = divmod(ppn - self.base, self.pages_per_block)
        pages = self.valid_pages.get(block)
        if pages is not None:
            pages.discard(page)

    def victim_block(self) -> Optional[int]:
        """Block with the fewest valid pages, excluding the open block."""
        candidates = [
            (len(pages), block)
            for block, pages in self.valid_pages.items()
            if block != self.open_block
        ]
        if not candidates:
            return None
        candidates.sort()
        return candidates[0][1]

    def erase_block(self, block: int) -> None:
        self.valid_pages.pop(block, None)
        self.free_blocks.append(block)
        self.erase_count += 1


class FlashTranslationLayer:
    """Page-mapping FTL with greedy garbage collection."""

    def __init__(self, geometry: FlashGeometry,
                 gc_threshold_blocks: int = 2) -> None:
        self.geometry = geometry
        self.gc_threshold_blocks = gc_threshold_blocks
        # The geometry is a frozen dataclass whose derived quantities are
        # recomputed property chains; the LPN bound is checked on every
        # translation, so hoist it (and the PPN radices) once.
        self._logical_pages = geometry.logical_pages
        self._pages_per_block = geometry.pages_per_block
        self._pages_per_plane = geometry.pages_per_plane
        #: ``ppn // _pages_per_die`` is the flat die index (channel-major,
        #: as :meth:`ZNANDArray.flat_index`) and ``ppn //
        #: _pages_per_channel`` the channel; the SSD walk decodes with these.
        self._pages_per_die = self._pages_per_plane * geometry.planes_per_die
        self._pages_per_channel = self._pages_per_die * (
            geometry.packages_per_channel * geometry.dies_per_package)
        self._mapping: Dict[int, int] = {}
        self._reverse: Dict[int, int] = {}
        self._planes: List[_Plane] = []
        for channel in range(geometry.channels):
            for package in range(geometry.packages_per_channel):
                for die in range(geometry.dies_per_package):
                    for plane in range(geometry.planes_per_die):
                        self._planes.append(
                            _Plane(channel, package, die, plane,
                                   len(self._planes) * self._pages_per_plane,
                                   geometry.blocks_per_plane,
                                   geometry.pages_per_block))
        self._allocation_cursor = 0
        self.gc_invocations = 0
        self.gc_pages_moved = 0
        self.host_writes = 0
        #: Number of planes currently under GC pressure (fewer free blocks
        #: than the threshold).  When it is zero the per-write GC scan is
        #: provably a no-op — every plane's ``while`` loop would fall
        #: through — so :meth:`_write_ppn` skips it.
        self._gc_pressure_planes = 0
        for plane in self._planes:
            self._note_free_blocks(plane)

    # -- lookup ---------------------------------------------------------------

    def lookup(self, lpn: int) -> Optional[PhysicalAddress]:
        """Translate a logical page number; ``None`` if never written."""
        self._check_lpn(lpn)
        ppn = self._mapping.get(lpn)
        return None if ppn is None else self._address(ppn)

    def lookup_batch(self, lpns) -> List[Optional[PhysicalAddress]]:
        """Translate a vector of LPNs (any int sequence, e.g. int64 arrays).

        Pure: no state changes, so the batch is trivially order-exact.
        Range validation happens once over the whole vector.
        """
        lpn_list = [int(lpn) for lpn in lpns]
        if lpn_list:
            low, high = min(lpn_list), max(lpn_list)
            if low < 0 or high >= self._logical_pages:
                bad = low if low < 0 else high
                raise ValueError(
                    f"LPN {bad} out of range [0, {self._logical_pages})")
        get = self._mapping.get
        address = self._address
        return [None if ppn is None else address(ppn)
                for ppn in map(get, lpn_list)]

    def is_mapped(self, lpn: int) -> bool:
        return lpn in self._mapping

    @property
    def mapped_pages(self) -> int:
        return len(self._mapping)

    # -- writes ----------------------------------------------------------------

    def write(self, lpn: int) -> Tuple[PhysicalAddress, GCResult]:
        """Map *lpn* to a fresh physical page.

        Any previous mapping is invalidated.  Returns the new physical
        address together with the garbage-collection work (possibly empty)
        triggered by this allocation.
        """
        ppn, gc_result = self._write_ppn(lpn)
        return (self._address(ppn),
                GCResult() if gc_result is None else gc_result)

    def _write_ppn(self, lpn: int) -> Tuple[int, Optional[GCResult]]:
        """:meth:`write` on integer PPNs; the GC result is ``None`` when no
        plane is under GC pressure (the collection scan is then a no-op)."""
        self._check_lpn(lpn)
        self.host_writes += 1
        gc_result = self._collect() if self._gc_pressure_planes else None
        old = self._mapping.get(lpn)
        if old is not None:
            self._planes[old // self._pages_per_plane].invalidate(old)
            self._reverse.pop(old, None)
        ppn = self._allocate()
        self._mapping[lpn] = ppn
        self._reverse[ppn] = lpn
        return ppn, gc_result

    def fill(self, lpns) -> None:
        """Map a vector of LPNs in order (int sequence or int64 array).

        Leaves the FTL state-identical to ``for lpn in lpns: write(lpn)``.
        When no plane is under GC pressure, the LPNs are in range, unique
        and unmapped, and no plane would end the fill short of
        ``gc_threshold_blocks`` free blocks, that loop never collects and
        never skips a plane, so allocation is a pure round-robin stripe:
        plane ``(cursor + k) % planes`` takes the *k*-th LPN.  The fill is
        then computed in closed form — each plane's quota extends its
        append point block by block — and the dictionaries are updated in
        bulk.  Otherwise it runs the per-LPN loop.
        """
        lpn_list = lpns.tolist() if hasattr(lpns, "tolist") else list(lpns)
        stripes = self._stripe_plan(lpn_list)
        if stripes is None:
            write = self._write_ppn
            for lpn in lpn_list:
                write(lpn)
            return
        count = len(lpn_list)
        total = len(self._planes)
        pages_per_block = self._pages_per_block
        ppns = [0] * count
        for offset, (plane, quota, opened) in enumerate(stripes):
            column: List[int] = []
            page = plane.next_page
            if plane.open_block is not None and page < pages_per_block:
                take = min(quota, pages_per_block - page)
                start = plane.base + plane.open_block * pages_per_block + page
                column.extend(range(start, start + take))
                plane.valid_pages[plane.open_block].update(
                    range(page, page + take))
                plane.next_page = page + take
            for block in plane.free_blocks[:opened]:
                take = min(quota - len(column), pages_per_block)
                start = plane.base + block * pages_per_block
                column.extend(range(start, start + take))
                plane.valid_pages.setdefault(block, set()).update(range(take))
                plane.open_block = block
                plane.next_page = take
            del plane.free_blocks[:opened]
            ppns[offset::total] = column
        self._mapping.update(zip(lpn_list, ppns))
        self._reverse.update(zip(ppns, lpn_list))
        self.host_writes += count
        self._allocation_cursor = (self._allocation_cursor + count) % total

    def _stripe_plan(self, lpn_list: List[int]
                     ) -> Optional[List[Tuple[_Plane, int, int]]]:
        """Per-stripe-offset ``(plane, quota, blocks opened)`` of a
        closed-form :meth:`fill`, or ``None`` when the loop must run."""
        count = len(lpn_list)
        if not count or self._gc_pressure_planes:
            return None
        if min(lpn_list) < 0 or max(lpn_list) >= self._logical_pages:
            return None
        unique = set(lpn_list)
        if len(unique) != count or not self._mapping.keys().isdisjoint(unique):
            return None
        planes = self._planes
        total = len(planes)
        cursor = self._allocation_cursor
        rounds, extra = divmod(count, total)
        pages_per_block = self._pages_per_block
        stripes = []
        for offset in range(total):
            plane = planes[(cursor + offset) % total]
            quota = rounds + (offset < extra)
            room = (0 if plane.open_block is None
                    else pages_per_block - plane.next_page)
            opened = -(-max(0, quota - room) // pages_per_block)
            free_after = len(plane.free_blocks) - opened
            if free_after < 0 or free_after < self.gc_threshold_blocks:
                return None
            stripes.append((plane, quota, opened))
        return stripes

    def trim(self, lpn: int) -> None:
        """Drop the mapping for *lpn* (discard / TRIM)."""
        self._check_lpn(lpn)
        old = self._mapping.pop(lpn, None)
        if old is not None:
            self._planes[old // self._pages_per_plane].invalidate(old)
            self._reverse.pop(old, None)

    # -- garbage collection -----------------------------------------------------

    def _collect(self) -> GCResult:
        result = GCResult()
        for plane in self._planes:
            while len(plane.free_blocks) < self.gc_threshold_blocks:
                victim = plane.victim_block()
                if victim is None:
                    break
                moved = self._collect_block(plane, victim, result)
                if not moved and not plane.free_blocks:
                    # Nothing reclaimable: the plane is genuinely full of
                    # valid data; stop rather than loop forever.
                    break
        if result.pages_moved or result.blocks_erased:
            self.gc_invocations += 1
            self.gc_pages_moved += result.pages_moved
        return result

    def _collect_block(self, plane: _Plane, block: int,
                       result: GCResult) -> bool:
        valid = sorted(plane.valid_pages.get(block, set()))
        block_base = plane.base + block * self._pages_per_block
        moved_any = False
        for page in valid:
            old = block_base + page
            lpn = self._reverse.get(old)
            if lpn is None:
                plane.invalidate(old)
                continue
            new = self._allocate(exclude_plane=plane)
            plane.invalidate(old)
            self._reverse.pop(old, None)
            self._mapping[lpn] = new
            self._reverse[new] = lpn
            result.page_moves.append((self._address(old), self._address(new)))
            moved_any = True
        plane.erase_block(block)
        self._note_free_blocks(plane)
        result.blocks_erased += 1
        return moved_any or not valid

    # -- allocation ---------------------------------------------------------------

    def _allocate(self, exclude_plane: Optional[_Plane] = None) -> int:
        """Round-robin allocation across planes (channel/die striping)."""
        total = len(self._planes)
        for offset in range(total):
            plane = self._planes[(self._allocation_cursor + offset) % total]
            if exclude_plane is not None and plane is exclude_plane:
                continue
            ppn = plane.allocate_page()
            if ppn is not None:
                self._note_free_blocks(plane)
                self._allocation_cursor = (
                    self._allocation_cursor + offset + 1) % total
                return ppn
        # Fall back to the excluded plane before declaring the device full.
        if exclude_plane is not None:
            ppn = exclude_plane.allocate_page()
            if ppn is not None:
                self._note_free_blocks(exclude_plane)
                return ppn
        raise RuntimeError("flash device is full: no free pages in any plane")

    def _note_free_blocks(self, plane: _Plane) -> None:
        """Re-derive *plane*'s GC-pressure flag after a free-list change."""
        pressed = len(plane.free_blocks) < self.gc_threshold_blocks
        if pressed != plane.gc_pressed:
            plane.gc_pressed = pressed
            self._gc_pressure_planes += 1 if pressed else -1

    # -- helpers ---------------------------------------------------------------

    def _address(self, ppn: int) -> PhysicalAddress:
        """Decode a PPN into its :class:`PhysicalAddress` (the API edge)."""
        plane_index, offset = divmod(ppn, self._pages_per_plane)
        block, page = divmod(offset, self._pages_per_block)
        plane = self._planes[plane_index]
        return PhysicalAddress(plane.channel, plane.package, plane.die,
                               plane.plane, block, page)

    def _check_lpn(self, lpn: int) -> None:
        if lpn < 0 or lpn >= self._logical_pages:
            raise ValueError(
                f"LPN {lpn} out of range [0, {self._logical_pages})")

    def erase_counts(self) -> List[int]:
        """Per-plane erase counts (wear indicator)."""
        return [plane.erase_count for plane in self._planes]

    def statistics(self) -> Dict[str, float]:
        return {
            "mapped_pages": float(self.mapped_pages),
            "host_writes": float(self.host_writes),
            "gc_invocations": float(self.gc_invocations),
            "gc_pages_moved": float(self.gc_pages_moved),
            "write_amplification": (
                (self.host_writes + self.gc_pages_moved) / self.host_writes
                if self.host_writes else 1.0),
        }
