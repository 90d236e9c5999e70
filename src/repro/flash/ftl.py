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
  returned to the caller so the device model can charge its time.  A
  plane keeps only a valid-page *count* per block: the collector walks
  the victim's pages in order and asks the reverse map which are live.

Internally a physical page is a plain integer, its *physical page number*
``PPN = plane_index * pages_per_plane + block * pages_per_block + page``,
where ``plane_index`` enumerates planes channel-major (so the flat die index
is ``plane_index // planes_per_die`` and the channel is
``plane_index // planes_per_channel``).  :class:`PhysicalAddress` objects
exist only at the API edge: :meth:`FlashTranslationLayer.lookup`, the return
value of :meth:`FlashTranslationLayer.write` and
:attr:`GCResult.page_moves`.

The mapping table is lazy, so an 800 GB device can be modelled without
allocating 200 M entries up front.  It has two parts:

* the **base stripe** — the LPN range a pristine FTL was preconditioned
  with by one :meth:`FlashTranslationLayer.fill`.  A fresh device
  stripes it round-robin from plane 0, so LPN ``start + k`` sits at PPN
  ``(k % planes) * pages_per_plane + k // planes``; the FTL keeps only
  the range and the set of base LPNs that have since left it
  (overwritten or relocated by GC).  A base LPN is live exactly
  while its base PPN still holds it;
* two dictionaries, LPN → PPN and PPN → LPN, for every page written
  after that.

Every reader goes through one lookup pair,
:meth:`FlashTranslationLayer._lpn_to_ppn` and
:meth:`FlashTranslationLayer._ppn_to_lpn`; the two per-page hot paths
inline the former (the SSD walk's read translation and
:meth:`FlashTranslationLayer._write_ppn`).
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
                 "valid_counts", "erase_count", "gc_pressed")

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
        #: Block index -> number of its pages holding valid data, from the
        #: block's opening to its erase.  Exactly the block's PPNs that
        #: :meth:`FlashTranslationLayer._ppn_to_lpn` maps to an LPN.
        self.valid_counts: Dict[int, int] = {}
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
            self.valid_counts.setdefault(self.open_block, 0)
        page = self.next_page
        self.valid_counts[self.open_block] += 1
        self.next_page = page + 1
        return self.base + self.open_block * self.pages_per_block + page

    def victim_block(self) -> Optional[int]:
        """Block with the fewest valid pages (the lowest index on a tie),
        excluding the open block."""
        victim = min(((count, block)
                      for block, count in self.valid_counts.items()
                      if block != self.open_block), default=None)
        return None if victim is None else victim[1]

    def erase_block(self, block: int) -> None:
        self.valid_counts.pop(block, None)
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
        #: Pages written after the base stripe: LPN -> PPN and PPN -> LPN.
        self._mapping: Dict[int, int] = {}
        self._reverse: Dict[int, int] = {}
        #: The base stripe ``[_base_start, _base_end)`` and the base LPNs
        #: that have left it.  The set is only ever mutated in place, so
        #: callers (the SSD walk) may hoist it.
        self._base_start = 0
        self._base_end = 0
        self._base_gone: Set[int] = set()
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
        self._plane_count = len(self._planes)
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

    def _lpn_to_ppn(self, lpn: int) -> Optional[int]:
        """The PPN holding *lpn*, or ``None`` if it is unmapped."""
        k = lpn - self._base_start
        if 0 <= k < self._base_end - self._base_start and (
                lpn not in self._base_gone):
            return ((k % self._plane_count) * self._pages_per_plane
                    + k // self._plane_count)
        return self._mapping.get(lpn)

    def _ppn_to_lpn(self, ppn: int) -> Optional[int]:
        """The LPN whose data *ppn* holds, or ``None`` if it holds none.

        The dictionary comes first: once GC erases and reuses a block that
        held base pages, its new PPNs decode to base positions.
        """
        lpn = self._reverse.get(ppn)
        if lpn is None:
            plane_index, column = divmod(ppn, self._pages_per_plane)
            lpn = self._base_start + column * self._plane_count + plane_index
            if lpn >= self._base_end or lpn in self._base_gone:
                return None
        return lpn

    def lookup(self, lpn: int) -> Optional[PhysicalAddress]:
        """Translate a logical page number; ``None`` if never written."""
        self._check_lpn(lpn)
        ppn = self._lpn_to_ppn(lpn)
        return None if ppn is None else self._address(ppn)

    def unmapped_lpns(self, start: int, stop: int) -> List[int]:
        """The unmapped LPNs of ``[start, stop)``, in order, read off the
        maps: every LPN outside the base stripe that the mapping lacks.
        A base-stripe LPN is always mapped, since a rewrite or a GC move
        that takes it off the stripe maps it again."""
        mapping = self._mapping
        low = min(max(start, self._base_start), stop)
        high = max(min(stop, self._base_end), low)
        return ([lpn for lpn in range(start, low) if lpn not in mapping]
                + [lpn for lpn in range(high, stop) if lpn not in mapping])

    @property
    def mapped_pages(self) -> int:
        return (len(self._mapping) + self._base_end - self._base_start
                - len(self._base_gone))

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
        plane is under GC pressure (the collection scan is then a no-op).

        One flat body, as every programmed host page runs it: the bounds
        check, the invalidation of the LPN's old page (:meth:`_lpn_to_ppn`
        and its block's valid count) and the open-block append of
        :meth:`_allocate` are inlined; a block turnover falls back to
        :meth:`_allocate` and GC pressure to :meth:`_collect`.
        """
        if lpn < 0 or lpn >= self._logical_pages:
            raise ValueError(
                f"LPN {lpn} out of range [0, {self._logical_pages})")
        self.host_writes += 1
        gc_result = self._collect() if self._gc_pressure_planes else None
        mapping = self._mapping
        reverse = self._reverse
        planes = self._planes
        pages_per_plane = self._pages_per_plane
        pages_per_block = self._pages_per_block
        # Invalidate the page holding lpn, if any.
        k = lpn - self._base_start
        if 0 <= k < self._base_end - self._base_start and (
                lpn not in self._base_gone):
            plane_count = self._plane_count
            old = (k % plane_count) * pages_per_plane + k // plane_count
        else:
            old = mapping.get(lpn)
        if old is not None:
            if reverse.pop(old, None) is None:
                self._base_gone.add(lpn)
            else:
                del mapping[lpn]
            plane = planes[old // pages_per_plane]
            plane.valid_counts[(old - plane.base) // pages_per_block] -= 1
        # _allocate: append to the cursor plane's open block; its free list
        # is untouched, so its GC-pressure flag cannot change.
        cursor = self._allocation_cursor
        plane = planes[cursor]
        block = plane.open_block
        page = plane.next_page
        if block is not None and page < pages_per_block:
            plane.valid_counts[block] += 1
            plane.next_page = page + 1
            ppn = plane.base + block * pages_per_block + page
            self._allocation_cursor = (cursor + 1) % self._plane_count
        else:
            ppn = self._allocate()
        mapping[lpn] = ppn
        reverse[ppn] = lpn
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
        append point block by block.  On a pristine FTL (no host writes
        yet, so the cursor is 0 and every free list is in order) a
        contiguous ``range`` becomes the base stripe and no mapping entry
        is stored; otherwise the dictionaries are updated in bulk.  When
        the stripe does not apply it runs the per-LPN loop.
        """
        if (isinstance(lpns, range) and lpns.step == 1 and lpns
                and not self.host_writes and lpns.start >= 0
                and lpns.stop <= self._logical_pages):
            # In range on a pristine FTL: unique and unmapped.
            stripes = self._stripe_plan(len(lpns))
            if stripes is not None:
                self._apply_stripes(stripes, len(lpns))
                self._base_start, self._base_end = lpns.start, lpns.stop
                return
        lpn_list = lpns.tolist() if hasattr(lpns, "tolist") else list(lpns)
        stripes = (self._stripe_plan(len(lpn_list))
                   if self._fresh_unique(lpn_list) else None)
        if stripes is None:
            write = self._write_ppn
            for lpn in lpn_list:
                write(lpn)
            return
        count = len(lpn_list)
        total = self._plane_count
        ppns = [0] * count
        for offset, runs in enumerate(self._apply_stripes(stripes, count)):
            ppns[offset::total] = [ppn for run in runs for ppn in run]
        self._mapping.update(zip(lpn_list, ppns))
        self._reverse.update(zip(ppns, lpn_list))

    def _fresh_unique(self, lpn_list: List[int]) -> bool:
        """Whether *lpn_list* is non-empty, in range, unique and unmapped."""
        if not lpn_list:
            return False
        if min(lpn_list) < 0 or max(lpn_list) >= self._logical_pages:
            return False
        unique = set(lpn_list)
        return len(unique) == len(lpn_list) and not any(
            self._lpn_to_ppn(lpn) is not None for lpn in unique)

    def _stripe_plan(self, count: int
                     ) -> Optional[List[Tuple[_Plane, int, int]]]:
        """Per-stripe-offset ``(plane, quota, blocks opened)`` of a
        closed-form :meth:`fill` of *count* fresh LPNs, or ``None`` when
        the loop must run."""
        if self._gc_pressure_planes:
            return None
        planes = self._planes
        total = self._plane_count
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

    def _apply_stripes(self, stripes: List[Tuple[_Plane, int, int]],
                       count: int) -> List[List[range]]:
        """Write *count* LPNs' worth of *stripes* into the plane state:
        extend each plane's append point by its quota and advance the
        cursor.  Returns, per stripe offset, the PPN runs it took."""
        pages_per_block = self._pages_per_block
        columns = []
        for plane, quota, opened in stripes:
            runs = []
            page = plane.next_page
            if plane.open_block is not None and page < pages_per_block:
                take = min(quota, pages_per_block - page)
                start = plane.base + plane.open_block * pages_per_block + page
                runs.append(range(start, start + take))
                plane.valid_counts[plane.open_block] += take
                plane.next_page = page + take
                quota -= take
            for block in plane.free_blocks[:opened]:
                take = min(quota, pages_per_block)
                start = plane.base + block * pages_per_block
                runs.append(range(start, start + take))
                plane.valid_counts[block] = (
                    plane.valid_counts.get(block, 0) + take)
                plane.open_block = block
                plane.next_page = take
                quota -= take
            del plane.free_blocks[:opened]
            columns.append(runs)
        self.host_writes += count
        self._allocation_cursor = (
            self._allocation_cursor + count) % self._plane_count
        return columns

    # -- garbage collection -----------------------------------------------------

    def _collect(self) -> GCResult:
        result = GCResult()
        for plane in self._planes:
            while len(plane.free_blocks) < self.gc_threshold_blocks:
                victim = plane.victim_block()
                if victim is None or self._collection_cycles(plane, victim):
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

    def _collection_cycles(self, plane: _Plane, victim: int) -> bool:
        """Whether collecting *victim* would leave *plane* as it was.

        So it is when no page of the plane is invalid (the victim, the
        closed block with the fewest valid pages, is fully live, and so is
        the open block), no other plane has a free page, and the plane
        has a block's worth of free pages: the victim's pages then move
        back into the plane and its erase frees just what they took, on
        every step.
        """
        per_block = self._pages_per_block
        counts = plane.valid_counts
        open_block = plane.open_block
        room = 0 if open_block is None else per_block - plane.next_page
        if (counts[victim] < per_block
                or (open_block is not None
                    and counts[open_block] < plane.next_page)
                or room + per_block * len(plane.free_blocks) < per_block):
            return False
        return not any(other.free_blocks
                       or (other.open_block is not None
                           and other.next_page < per_block)
                       for other in self._planes if other is not plane)

    def _collect_block(self, plane: _Plane, block: int,
                       result: GCResult) -> bool:
        """Relocate *block*'s live pages in page order, then erase it.

        The block's valid count is not decremented per move: the erase
        drops it.
        """
        valid = plane.valid_counts.get(block, 0)
        block_base = plane.base + block * self._pages_per_block
        moved_any = False
        for old in range(block_base, block_base + self._pages_per_block):
            lpn = self._ppn_to_lpn(old)
            if lpn is None:
                continue
            new = self._allocate(exclude_plane=plane)
            if self._reverse.pop(old, None) is None:
                self._base_gone.add(lpn)
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
