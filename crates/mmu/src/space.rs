//! The four-level page-table address space.

use core::cell::Cell;
use core::fmt;
use std::sync::Arc;

use crate::addr::{PhysAddr, VirtAddr};
use crate::error::MmuError;
use crate::flags::PteFlags;
use crate::pte::Pte;
use crate::table::{FrameId, Level, PageTable};

/// Supported architectural page sizes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PageSize {
    /// 4 KiB page mapped by a PT entry.
    Size4K,
    /// 2 MiB page mapped by a PD entry with PS set.
    Size2M,
    /// 1 GiB page mapped by a PDPT entry with PS set.
    Size1G,
}

impl PageSize {
    /// Size in bytes.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Size4K => 4 * 1024,
            PageSize::Size2M => 2 * 1024 * 1024,
            PageSize::Size1G => 1024 * 1024 * 1024,
        }
    }

    /// log2 of the size in bytes.
    #[must_use]
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Size4K => 12,
            PageSize::Size2M => 21,
            PageSize::Size1G => 30,
        }
    }

    /// The paging-structure level whose entry maps a leaf of this size.
    #[must_use]
    pub const fn leaf_level(self) -> Level {
        match self {
            PageSize::Size4K => Level::Pt,
            PageSize::Size2M => Level::Pd,
            PageSize::Size1G => Level::Pdpt,
        }
    }

    /// The page size mapped by a leaf at `level`, if leaves are legal there.
    #[must_use]
    pub const fn from_leaf_level(level: Level) -> Option<Self> {
        match level {
            Level::Pt => Some(PageSize::Size4K),
            Level::Pd => Some(PageSize::Size2M),
            Level::Pdpt => Some(PageSize::Size1G),
            Level::Pml4 => None,
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PageSize::Size4K => "4KiB",
            PageSize::Size2M => "2MiB",
            PageSize::Size1G => "1GiB",
        };
        write!(f, "{name}")
    }
}

/// One leaf mapping, as yielded by [`AddressSpace::iter_regions`] and
/// taken by [`AddressSpace::map_pages`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MappedRegion {
    /// First virtual address of the page.
    pub start: VirtAddr,
    /// Page size of the leaf entry.
    pub size: PageSize,
    /// Leaf entry flags.
    pub flags: PteFlags,
    /// Backing physical address.
    pub phys: PhysAddr,
}

impl MappedRegion {
    /// One past the last byte of the page.
    #[must_use]
    pub fn end(&self) -> VirtAddr {
        self.start.wrapping_add(self.size.bytes())
    }
}

/// A simulated x86-64 address space: a PML4 root plus the paging
/// structures hanging off it, with auto-allocated backing frames.
///
/// Mapping semantics follow the architecture: a leaf may live at PT
/// (4 KiB), PD (2 MiB, PS=1) or PDPT (1 GiB, PS=1); intermediate entries
/// carry the union of the permissions required below them (as OS kernels
/// configure them in practice).
///
/// ```
/// use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};
/// # fn main() -> Result<(), avx_mmu::MmuError> {
/// let mut space = AddressSpace::new();
/// let text = VirtAddr::new(0xffff_ffff_a1e0_0000)?;
/// space.map(text, PageSize::Size2M, PteFlags::kernel_rx() | PteFlags::HUGE)?;
/// assert!(space.lookup(text).is_some());
/// # Ok(())
/// # }
/// ```
///
/// # Snapshots and copy-on-write
///
/// The paging-structure arena is reference-counted per table:
/// [`Clone`]ing an `AddressSpace` is a cheap snapshot (one `Arc` bump
/// per table, no page data copied), and the first write to any table in
/// a clone copies just that 4 KiB structure. Campaign engines exploit
/// this to build a randomized layout once and hand every trial its own
/// isolated O(1) copy.
///
/// # Mutation epoch
///
/// Every *effective* PTE change (map, unmap, protect, A/D-bit update
/// that actually flips bits) bumps [`AddressSpace::epoch`]. Derived
/// structures — notably the shadow translation index the execution
/// engine keeps — use the epoch to invalidate themselves; rewriting an
/// entry with its current value is a no-op and leaves the epoch alone.
#[derive(Clone)]
pub struct AddressSpace {
    tables: Vec<Arc<PageTable>>,
    root: FrameId,
    /// Next simulated physical frame number handed to data pages.
    next_data_frame: u64,
    mapped_pages: usize,
    epoch: u64,
    shape_epoch: u64,
}

/// Data-page physical frames are handed out from this base so they never
/// collide with the paging-structure arena (which uses small indices).
const DATA_FRAME_BASE: u64 = 0x10_0000;

impl AddressSpace {
    /// Creates an empty address space with a zeroed PML4.
    #[must_use]
    pub fn new() -> Self {
        Self {
            tables: vec![Arc::new(PageTable::new())],
            root: FrameId(0),
            next_data_frame: DATA_FRAME_BASE,
            mapped_pages: 0,
            epoch: 0,
            shape_epoch: 0,
        }
    }

    /// Monotonic mutation counter: bumped exactly when some PTE's raw
    /// value actually changed (or a new paging structure was allocated).
    /// Rewriting an entry with its current value is a no-op.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Monotonic *walk-shape* counter: bumped only by mutations that can
    /// change where a walk goes or terminates — entry zero↔non-zero
    /// transitions, Present flips, huge-leaf flips, and new paging
    /// structures. Flags-only rewrites (Accessed/Dirty settling, `USER`
    /// upgrades, `mprotect` permission changes that keep Present) leave
    /// it alone, so shape-derived caches like
    /// [`crate::ShadowIndex`] survive the A/D-bit churn of steady-state
    /// probing.
    #[must_use]
    pub fn shape_epoch(&self) -> u64 {
        self.shape_epoch
    }

    /// Number of paging structures physically shared with `other`
    /// (diagnostics for the copy-on-write snapshot tests).
    #[must_use]
    pub fn shared_tables_with(&self, other: &Self) -> usize {
        self.tables
            .iter()
            .zip(other.tables.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Writes `pte` into slot `idx` of table `id`: the one-entry case
    /// of [`TableRun`], the batched writer every PTE change goes through.
    fn write_entry(&mut self, id: FrameId, idx: usize, pte: Pte) {
        self.run(id).write(idx, pte);
    }

    /// Opens a write run on table `id` (see [`TableRun`]).
    fn run(&mut self, id: FrameId) -> TableRun<'_> {
        TableRun {
            slot: Some(&mut self.tables[id.index()]),
            table: None,
            epoch: &mut self.epoch,
            shape_epoch: &mut self.shape_epoch,
        }
    }

    /// The root (PML4) table id.
    #[must_use]
    pub fn root(&self) -> FrameId {
        self.root
    }

    /// Read access to a paging structure.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name an allocated table.
    #[must_use]
    pub fn table(&self, id: FrameId) -> &PageTable {
        &self.tables[id.index()]
    }

    /// Number of live leaf mappings.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.mapped_pages
    }

    /// Number of allocated paging structures (incl. the PML4).
    #[must_use]
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    fn alloc_table(&mut self) -> Result<FrameId, MmuError> {
        let id = u32::try_from(self.tables.len()).map_err(|_| MmuError::OutOfFrames)?;
        self.tables.push(Arc::new(PageTable::new()));
        self.epoch += 1;
        self.shape_epoch += 1;
        Ok(FrameId(id))
    }

    fn alloc_data_frame(&mut self, size: PageSize) -> PhysAddr {
        let frames = size.bytes() >> 12;
        // Align the allocation cursor to the page size.
        let align = frames;
        self.next_data_frame = (self.next_data_frame + align - 1) & !(align - 1);
        let frame = self.next_data_frame;
        self.next_data_frame += frames;
        PhysAddr::from_frame_number(frame)
    }

    /// Maps one page of `size` at `va`, auto-allocating a backing frame.
    ///
    /// The `HUGE` flag is set automatically for 2 MiB / 1 GiB sizes and
    /// must not be set for 4 KiB pages. Returns the backing physical
    /// address.
    ///
    /// # Errors
    ///
    /// * [`MmuError::Misaligned`] — `va` not aligned to `size`,
    /// * [`MmuError::AlreadyMapped`] — a leaf already exists at `va`,
    /// * [`MmuError::HugePageConflict`] — a huge leaf covers `va` at a
    ///   higher level, or a lower-level table is already populated where a
    ///   huge leaf should go.
    pub fn map(
        &mut self,
        va: VirtAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<PhysAddr, MmuError> {
        let pa = self.alloc_data_frame(size);
        self.map_at(va, pa, size, flags)?;
        Ok(pa)
    }

    /// Maps `va` → `pa` with the given size and flags.
    ///
    /// # Errors
    ///
    /// See [`AddressSpace::map`]; additionally the physical address must be
    /// aligned to `size`.
    pub fn map_at(
        &mut self,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), MmuError> {
        self.map_pages([MappedRegion {
            start: va,
            size,
            flags,
            phys: pa,
        }])
    }

    /// Maps `count` consecutive pages of `size` starting at `va`.
    ///
    /// # Errors
    ///
    /// Fails fast on the first page that cannot be mapped (earlier pages
    /// stay mapped).
    pub fn map_range(
        &mut self,
        va: VirtAddr,
        count: u64,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), MmuError> {
        // Frames are handed out as `count` calls to `map` would: the
        // cursor aligns once, then advances one page for every page
        // attempted, the failing page included.
        let frames = size.bytes() >> 12;
        let first = self.next_data_frame.next_multiple_of(frames);
        let attempted = Cell::new(0);
        let result = self.map_pages((0..count).map(|i| {
            attempted.set(i + 1);
            MappedRegion {
                start: va.wrapping_add(i * size.bytes()),
                size,
                flags,
                phys: PhysAddr::from_frame_number(first + i * frames),
            }
        }));
        if attempted.get() > 0 {
            self.next_data_frame = first + attempted.get() * frames;
        }
        result
    }

    /// Maps an ordered list of pages, each at its own physical address:
    /// the batched form of [`AddressSpace::map_at`].
    ///
    /// The result is exactly that of calling `map_at` once per page in
    /// order — the same entries, the same paging structures allocated in
    /// the same order, the same `epoch` / `shape_epoch` accounting — but
    /// consecutive pages whose leaves share a table share one descent
    /// from the root and one copy-on-write of that table.
    ///
    /// # Errors
    ///
    /// The error `map_at` returns for the first page that cannot be
    /// mapped; the pages before it stay mapped.
    pub fn map_pages<I>(&mut self, pages: I) -> Result<(), MmuError>
    where
        I: IntoIterator<Item = MappedRegion>,
    {
        let mut pages = pages.into_iter();
        let mut pending = pages.next();
        while let Some(mut page) = pending {
            let window = self.descend_for_map(&page)?;
            let mut run = self.run(window.table);
            let mut placed = 0;
            let outcome = loop {
                if let Err(e) = run.place_leaf(&page, window.level) {
                    break Err(e);
                }
                placed += 1;
                pending = pages.next();
                match pending {
                    // The descent for `next` would revisit the same
                    // intermediates with nothing to allocate or upgrade.
                    Some(next)
                        if check_alignment(next.start, Some(next.phys), next.size).is_ok()
                            && window.admits(next.start, next.size)
                            && (window.user || !next.flags.is_user()) =>
                    {
                        page = next;
                    }
                    _ => break Ok(()),
                }
            };
            self.mapped_pages += placed;
            outcome?;
        }
        Ok(())
    }

    /// Checks `page`'s alignment and descends to the table its leaf goes
    /// in, allocating missing intermediates and granting them `USER` for
    /// a user page: every side effect of a one-page map before its leaf
    /// write.
    fn descend_for_map(&mut self, page: &MappedRegion) -> Result<LeafWindow, MmuError> {
        let va = page.start;
        check_alignment(va, Some(page.phys), page.size)?;
        let user = page.flags.is_user();
        let mut window = LeafWindow::at_root(self.root, va);
        window.user = user;
        for level in Level::WALK_ORDER {
            if level == page.size.leaf_level() {
                window.enter(va, level);
                return Ok(window);
            }
            let idx = va.index_for(level);
            let entry = self.tables[window.table.index()].entry(idx);
            if entry.is_huge_leaf() || (entry.raw() != 0 && !entry.is_present()) {
                // A present huge leaf — or a non-present guard left by
                // mprotect(PROT_NONE) on a huge page, which keeps PS but
                // clears Present and must not be dereferenced as a
                // table pointer (its address is a data frame).
                return Err(MmuError::HugePageConflict { addr: va.as_u64() });
            }
            let next = if entry.raw() == 0 {
                let new_id = self.alloc_table()?;
                let mut inter = PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::ACCESSED;
                if user {
                    inter |= PteFlags::USER;
                }
                self.write_entry(
                    window.table,
                    idx,
                    Pte::new(PhysAddr::from_frame_number(new_id.0 as u64), inter),
                );
                new_id
            } else {
                // Upgrade intermediate permissions if this mapping needs them.
                if user && !entry.flags().is_user() {
                    self.write_entry(window.table, idx, entry.with_flags_set(PteFlags::USER));
                }
                FrameId(u32::try_from(entry.addr().frame_number()).expect("table frame id"))
            };
            window.descend(idx, next);
        }
        unreachable!("leaf level is always reached in WALK_ORDER");
    }

    /// Unmaps `count` consecutive pages of `size` starting at `va`.
    ///
    /// # Errors
    ///
    /// Fails fast on the first page that cannot be unmapped (earlier
    /// pages stay unmapped).
    pub fn unmap_range(
        &mut self,
        va: VirtAddr,
        count: u64,
        size: PageSize,
    ) -> Result<(), MmuError> {
        self.unmap_pages((0..count).map(|i| (va.wrapping_add(i * size.bytes()), size)))
    }

    /// Re-protects `count` consecutive pages of `size` starting at `va`
    /// (an `mprotect` over a whole VMA).
    ///
    /// # Errors
    ///
    /// Fails fast on the first page that cannot be re-protected.
    pub fn protect_range(
        &mut self,
        va: VirtAddr,
        count: u64,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), MmuError> {
        for i in 0..count {
            self.protect(va.wrapping_add(i * size.bytes()), size, flags)?;
        }
        Ok(())
    }

    /// Removes the leaf mapping of `size` at `va`.
    ///
    /// # Errors
    ///
    /// * [`MmuError::Misaligned`] — `va` not aligned to `size`,
    /// * [`MmuError::NotMapped`] — nothing mapped there,
    /// * [`MmuError::SizeMismatch`] — mapped with a different page size.
    pub fn unmap(&mut self, va: VirtAddr, size: PageSize) -> Result<(), MmuError> {
        self.unmap_pages([(va, size)])
    }

    /// Removes an ordered list of leaf mappings, given as (first address,
    /// page size): the batched form of [`AddressSpace::unmap`].
    ///
    /// The result is exactly that of calling `unmap` once per page in
    /// order, including freeing each paging structure at the moment its
    /// last entry goes, but consecutive pages whose leaves share a table
    /// share one descent from the root and one copy-on-write of that
    /// table.
    ///
    /// # Errors
    ///
    /// The error `unmap` returns for the first page that cannot be
    /// unmapped; the pages before it stay unmapped.
    pub fn unmap_pages<I>(&mut self, pages: I) -> Result<(), MmuError>
    where
        I: IntoIterator<Item = (VirtAddr, PageSize)>,
    {
        let mut pages = pages.into_iter();
        let mut pending = pages.next();
        while let Some((mut va, size)) = pending {
            check_alignment(va, None, size)?;
            let window = self.locate_leaf(va, size)?;
            let mut run = self.run(window.table);
            let mut removed = 0;
            let emptied = loop {
                run.write(va.index_for(window.level), Pte::zero());
                removed += 1;
                if run.is_empty() {
                    break true;
                }
                pending = pages.next();
                match pending {
                    // `locate_leaf(next)` would walk the same
                    // intermediates to this slot and accept it.
                    Some((next, next_size))
                        if check_alignment(next, None, next_size).is_ok()
                            && window.admits(next, next_size)
                            && run.holds_leaf(next.index_for(window.level), window.level) =>
                    {
                        va = next;
                    }
                    _ => break false,
                }
            };
            self.mapped_pages -= removed;
            if emptied {
                // Free empty paging structures, as OS kernels do on
                // munmap — otherwise a stale empty PT/PD would block a
                // later huge-page mapping of the same range.
                self.prune(&window);
                pending = pages.next();
            }
        }
        Ok(())
    }

    /// Clears the link to the (empty) leaf table of `window`, then to
    /// each ancestor that this empties, bottom-up along the recorded
    /// descent path. (Arena slots are not recycled; correctness only
    /// needs the links gone.)
    fn prune(&mut self, window: &LeafWindow) {
        let mut child = window.table;
        for &(parent, idx) in window.path[..window.depth].iter().rev() {
            if !self.tables[child.index()].is_empty() {
                break;
            }
            self.write_entry(parent, idx, Pte::zero());
            child = parent;
        }
    }

    /// Replaces the flags of the existing leaf at `va` (e.g. `mprotect`).
    ///
    /// The `HUGE` bit is managed automatically and the physical target is
    /// preserved. As with [`AddressSpace::map`], granting `USER` upgrades
    /// the intermediate entries on the path so the *effective* permission
    /// (the AND across levels) actually becomes user-accessible.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AddressSpace::unmap`].
    pub fn protect(
        &mut self,
        va: VirtAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), MmuError> {
        let (table_id, idx) = self.locate_leaf(va, size)?.slot(va);
        let entry = self.tables[table_id.index()].entry(idx);
        let mut new_flags = flags;
        if size != PageSize::Size4K {
            new_flags |= PteFlags::HUGE;
        }
        self.write_entry(table_id, idx, entry.with_flags(new_flags));
        if flags.is_user() {
            self.upgrade_intermediates_to_user(va);
        }
        Ok(())
    }

    /// Sets `USER` on every present intermediate entry on the walk path
    /// of `va` (leaf excluded).
    fn upgrade_intermediates_to_user(&mut self, va: VirtAddr) {
        let mut table_id = self.root;
        for level in Level::WALK_ORDER {
            let idx = va.index_for(level);
            let entry = self.tables[table_id.index()].entry(idx);
            if level == Level::Pt || entry.is_huge_leaf() || !entry.is_present() {
                return;
            }
            if !entry.flags().is_user() {
                self.write_entry(table_id, idx, entry.with_flags_set(PteFlags::USER));
            }
            table_id = FrameId(u32::try_from(entry.addr().frame_number()).expect("table frame"));
        }
    }

    /// Sets the Accessed (and optionally Dirty) bit on the leaf at `va`,
    /// as the MMU does on a successful translation.
    ///
    /// Returns the previous flags so callers (the timing engine) can see
    /// whether a dirty-bit microcode assist was required.
    ///
    /// # Errors
    ///
    /// [`MmuError::NotMapped`] if no present leaf covers `va`.
    pub fn mark_accessed(&mut self, va: VirtAddr, write: bool) -> Result<PteFlags, MmuError> {
        let (table_id, idx) = self
            .terminal_leaf(va)
            .ok_or(MmuError::NotMapped { addr: va.as_u64() })?
            .slot(va);
        let entry = self.tables[table_id.index()].entry(idx);
        if !entry.is_present() {
            return Err(MmuError::NotMapped { addr: va.as_u64() });
        }
        let old = entry.flags();
        let mut set = PteFlags::ACCESSED;
        if write {
            set |= PteFlags::DIRTY;
        }
        // Steady-state probes re-set already-set bits; `write_entry`
        // recognizes the no-op and leaves the epoch untouched.
        self.write_entry(table_id, idx, entry.with_flags_set(set));
        Ok(old)
    }

    /// Clears Accessed/Dirty on the leaf covering `va` (used by tests and
    /// by OS-model page reclaim).
    ///
    /// # Errors
    ///
    /// [`MmuError::NotMapped`] if no leaf covers `va`.
    pub fn clear_accessed_dirty(&mut self, va: VirtAddr) -> Result<(), MmuError> {
        let (table_id, idx) = self
            .terminal_leaf(va)
            .ok_or(MmuError::NotMapped { addr: va.as_u64() })?
            .slot(va);
        let entry = self.tables[table_id.index()].entry(idx);
        self.write_entry(
            table_id,
            idx,
            entry.with_flags_cleared(PteFlags::ACCESSED | PteFlags::DIRTY),
        );
        Ok(())
    }

    /// Returns the leaf mapping covering `va`, if one is present.
    #[must_use]
    pub fn lookup(&self, va: VirtAddr) -> Option<MappedRegion> {
        let leaf = self.terminal_leaf(va)?;
        let (table_id, idx) = leaf.slot(va);
        let entry = self.tables[table_id.index()].entry(idx);
        if !entry.is_present() {
            return None;
        }
        let size = PageSize::from_leaf_level(leaf.level)?;
        Some(MappedRegion {
            start: va.align_down(size.bytes()),
            size,
            flags: entry.flags(),
            phys: entry.addr(),
        })
    }

    /// Iterates every leaf mapping in ascending virtual-address order.
    pub fn iter_regions(&self) -> Vec<MappedRegion> {
        let mut out = Vec::with_capacity(self.mapped_pages);
        self.collect_regions(self.root, Level::Pml4, 0, &mut out);
        out.sort_by_key(|r| r.start);
        out
    }

    fn collect_regions(
        &self,
        table_id: FrameId,
        level: Level,
        va_prefix: u64,
        out: &mut Vec<MappedRegion>,
    ) {
        for (idx, entry) in self.tables[table_id.index()].iter_live() {
            let va = VirtAddr::new_truncate(va_prefix | ((idx as u64) << level_shift(level)));
            // A non-present entry is never followed: above the PT it is
            // a PROT_NONE huge-page guard whose address is a data frame.
            let is_leaf = match level {
                Level::Pt => true,
                Level::Pml4 => false,
                _ => entry.is_huge_leaf() || !entry.is_present(),
            };
            if is_leaf {
                if entry.is_present() {
                    if let Some(size) = PageSize::from_leaf_level(level) {
                        out.push(MappedRegion {
                            start: va,
                            size,
                            flags: entry.flags(),
                            phys: entry.addr(),
                        });
                    }
                }
            } else if let Some(next) = level.next() {
                let next_id =
                    FrameId(u32::try_from(entry.addr().frame_number()).expect("table frame id"));
                self.collect_regions(next_id, next, va.as_u64(), out);
            }
        }
    }

    /// Descends to the leaf slot of (`va`, `size`), verifying the mapping
    /// exists with exactly that size.
    fn locate_leaf(&self, va: VirtAddr, size: PageSize) -> Result<LeafWindow, MmuError> {
        let not_mapped = MmuError::NotMapped { addr: va.as_u64() };
        let leaf = self.terminal_leaf(va).ok_or(not_mapped)?;
        let found = PageSize::from_leaf_level(leaf.level).ok_or(not_mapped)?;
        if found != size {
            return Err(MmuError::SizeMismatch {
                addr: va.as_u64(),
                found,
                expected: size,
            });
        }
        Ok(leaf)
    }

    /// Descends to the leaf entry that terminates the walk for `va` — a
    /// non-zero PT entry (present or not) or a present huge leaf — or
    /// `None` when the walk ends at a zero or non-present entry above
    /// the PT instead.
    fn terminal_leaf(&self, va: VirtAddr) -> Option<LeafWindow> {
        let mut window = LeafWindow::at_root(self.root, va);
        for level in Level::WALK_ORDER {
            let idx = va.index_for(level);
            let entry = self.tables[window.table.index()].entry(idx);
            if level == Level::Pt {
                if entry.raw() == 0 {
                    return None;
                }
                window.enter(va, level);
                return Some(window);
            }
            if entry.is_huge_leaf() {
                window.enter(va, level);
                return Some(window);
            }
            if entry.raw() == 0 || !entry.is_present() {
                return None;
            }
            window.descend(
                idx,
                FrameId(u32::try_from(entry.addr().frame_number()).ok()?),
            );
        }
        None
    }
}

/// A run of entry writes into one paging structure: the one place PTE
/// values change.
///
/// The table is copied on write at most once per run, at the run's
/// first effective write, while the epoch accounting stays per entry:
/// rewriting an entry with its current raw value is skipped, any other
/// write bumps `epoch`, and one that can change where a walk goes or
/// terminates (zero↔non-zero, Present flip, huge-leaf flip) also bumps
/// `shape_epoch`.
struct TableRun<'a> {
    /// The arena slot, until the first effective write.
    slot: Option<&'a mut Arc<PageTable>>,
    /// The writable table, from the first effective write on.
    table: Option<&'a mut PageTable>,
    epoch: &'a mut u64,
    shape_epoch: &'a mut u64,
}

impl TableRun<'_> {
    fn table(&self) -> &PageTable {
        match (&self.table, &self.slot) {
            (Some(table), _) => table,
            (None, Some(slot)) => slot,
            (None, None) => unreachable!("a run holds its table in one of the two fields"),
        }
    }

    fn is_empty(&self) -> bool {
        self.table().is_empty()
    }

    fn write(&mut self, idx: usize, pte: Pte) {
        let old = self.table().entry(idx);
        if old.raw() == pte.raw() {
            return;
        }
        *self.epoch += 1;
        if (old.raw() == 0) != (pte.raw() == 0)
            || old.is_present() != pte.is_present()
            || old.is_huge_leaf() != pte.is_huge_leaf()
        {
            *self.shape_epoch += 1;
        }
        let slot = &mut self.slot;
        self.table
            .get_or_insert_with(|| {
                Arc::make_mut(slot.take().expect("the slot is held until the first write"))
            })
            .set_entry(idx, pte);
    }

    /// Writes `page`'s leaf into this run's table, a leaf table at
    /// `level`, refusing an occupied slot as [`AddressSpace::map_at`]
    /// does.
    fn place_leaf(&mut self, page: &MappedRegion, level: Level) -> Result<(), MmuError> {
        let addr = page.start.as_u64();
        let idx = page.start.index_for(level);
        let existing = self.table().entry(idx);
        if existing.raw() != 0 {
            return Err(if existing.is_huge_leaf() || level == Level::Pt {
                MmuError::AlreadyMapped { addr }
            } else {
                // A next-level table hangs here; cannot place a huge
                // leaf over it.
                MmuError::HugePageConflict { addr }
            });
        }
        let mut flags = page.flags;
        if page.size != PageSize::Size4K {
            flags |= PteFlags::HUGE;
        } else if flags.is_huge() {
            // On PT entries bit 7 is PAT, not PS; reject to avoid
            // silently mapping something surprising.
            return Err(MmuError::HugePageConflict { addr });
        }
        self.write(idx, Pte::new(page.phys, flags));
        Ok(())
    }

    /// Whether slot `idx` of this table, at `level`, holds a leaf that a
    /// walk would stop at.
    fn holds_leaf(&self, idx: usize, level: Level) -> bool {
        let entry = self.table().entry(idx);
        if level == Level::Pt {
            entry.raw() != 0
        } else {
            entry.is_huge_leaf()
        }
    }
}

/// Where a descent for one address ended: the table holding its leaf
/// slot, and the parent entries on the way there. Every page whose
/// leaf sits in the same table shares the descent.
#[derive(Clone, Copy)]
struct LeafWindow {
    table: FrameId,
    level: Level,
    /// The address bits above the table's span: equal for every page
    /// whose leaf slot is in `table`.
    key: u64,
    /// (table, index) of each intermediate entry read, root first; the
    /// first `depth` are live.
    path: [(FrameId, usize); 3],
    depth: usize,
    /// Every intermediate entry on the path grants `USER`.
    user: bool,
}

impl LeafWindow {
    fn at_root(root: FrameId, va: VirtAddr) -> Self {
        Self {
            table: root,
            level: Level::Pml4,
            key: window_key(va, Level::Pml4),
            path: [(root, 0); 3],
            depth: 0,
            user: false,
        }
    }

    /// Follows the entry at `idx` of the current table into `next`.
    fn descend(&mut self, idx: usize, next: FrameId) {
        self.path[self.depth] = (self.table, idx);
        self.depth += 1;
        self.table = next;
    }

    /// Marks the current table as the leaf table, at `level`.
    fn enter(&mut self, va: VirtAddr, level: Level) {
        self.level = level;
        self.key = window_key(va, level);
    }

    /// Whether a page of `size` at `va` has its leaf slot in this table.
    fn admits(&self, va: VirtAddr, size: PageSize) -> bool {
        size.leaf_level() == self.level && window_key(va, self.level) == self.key
    }

    /// The (table, index) slot of `va`'s leaf.
    fn slot(&self, va: VirtAddr) -> (FrameId, usize) {
        (self.table, va.index_for(self.level))
    }
}

/// The address bits above the span of one table at `level`.
fn window_key(va: VirtAddr, level: Level) -> u64 {
    va.as_u64() >> (level_shift(level) + 9)
}

/// The alignment checks of a one-page map (with its physical address)
/// or unmap (without).
fn check_alignment(va: VirtAddr, pa: Option<PhysAddr>, size: PageSize) -> Result<(), MmuError> {
    if !va.is_aligned(size.bytes()) {
        return Err(MmuError::Misaligned {
            addr: va.as_u64(),
            size,
        });
    }
    if let Some(pa) = pa {
        if pa.as_u64() & (size.bytes() - 1) != 0 {
            return Err(MmuError::Misaligned {
                addr: pa.as_u64(),
                size,
            });
        }
    }
    Ok(())
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AddressSpace({} pages, {} tables)",
            self.mapped_pages,
            self.tables.len()
        )
    }
}

const fn level_shift(level: Level) -> u32 {
    match level {
        Level::Pml4 => 39,
        Level::Pdpt => 30,
        Level::Pd => 21,
        Level::Pt => 12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn va(raw: u64) -> VirtAddr {
        VirtAddr::new_truncate(raw)
    }

    #[test]
    fn map_and_lookup_4k() {
        let mut s = AddressSpace::new();
        let a = va(0x5555_5555_4000);
        let pa = s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        let m = s.lookup(a).unwrap();
        assert_eq!(m.start, a);
        assert_eq!(m.size, PageSize::Size4K);
        assert_eq!(m.phys, pa);
        assert!(m.flags.is_user());
        assert_eq!(s.mapped_pages(), 1);
    }

    #[test]
    fn map_and_lookup_2m_huge() {
        let mut s = AddressSpace::new();
        let a = va(0xffff_ffff_a1e0_0000);
        s.map(a, PageSize::Size2M, PteFlags::kernel_rx()).unwrap();
        let m = s.lookup(a).unwrap();
        assert_eq!(m.size, PageSize::Size2M);
        assert!(m.flags.is_huge());
        // Interior addresses resolve to the same page.
        let inner = va(0xffff_ffff_a1e1_2345);
        let mi = s.lookup(inner).unwrap();
        assert_eq!(mi.start, a);
    }

    #[test]
    fn map_1g_page() {
        let mut s = AddressSpace::new();
        let a = va(0xffff_c000_0000_0000);
        s.map(a, PageSize::Size1G, PteFlags::kernel_rw()).unwrap();
        let m = s.lookup(va(0xffff_c000_3fff_f000)).unwrap();
        assert_eq!(m.size, PageSize::Size1G);
        assert_eq!(m.start, a);
    }

    #[test]
    fn misaligned_map_rejected() {
        let mut s = AddressSpace::new();
        assert_eq!(
            s.map(va(0x1000), PageSize::Size2M, PteFlags::user_rw()),
            Err(MmuError::Misaligned {
                addr: 0x1000,
                size: PageSize::Size2M
            })
        );
    }

    #[test]
    fn double_map_rejected() {
        let mut s = AddressSpace::new();
        let a = va(0x7f00_0000_0000);
        s.map(a, PageSize::Size4K, PteFlags::user_ro()).unwrap();
        assert_eq!(
            s.map(a, PageSize::Size4K, PteFlags::user_ro()),
            Err(MmuError::AlreadyMapped { addr: a.as_u64() })
        );
    }

    #[test]
    fn huge_leaf_blocks_4k_below_it() {
        let mut s = AddressSpace::new();
        let big = va(0xffff_ffff_8000_0000);
        s.map(big, PageSize::Size2M, PteFlags::kernel_rx()).unwrap();
        let small = va(0xffff_ffff_8000_3000);
        assert_eq!(
            s.map(small, PageSize::Size4K, PteFlags::kernel_rx()),
            Err(MmuError::HugePageConflict {
                addr: small.as_u64()
            })
        );
    }

    #[test]
    fn populated_pt_blocks_huge_leaf_above_it() {
        let mut s = AddressSpace::new();
        let small = va(0xffff_ffff_8000_3000);
        s.map(small, PageSize::Size4K, PteFlags::kernel_rx())
            .unwrap();
        let big = va(0xffff_ffff_8000_0000);
        assert_eq!(
            s.map(big, PageSize::Size2M, PteFlags::kernel_rx()),
            Err(MmuError::HugePageConflict { addr: big.as_u64() })
        );
    }

    #[test]
    fn explicit_huge_flag_on_4k_rejected() {
        let mut s = AddressSpace::new();
        assert!(s
            .map(
                va(0x1000),
                PageSize::Size4K,
                PteFlags::user_rw() | PteFlags::HUGE
            )
            .is_err());
    }

    #[test]
    fn unmap_then_lookup_none() {
        let mut s = AddressSpace::new();
        let a = va(0x4000_0000);
        s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        s.unmap(a, PageSize::Size4K).unwrap();
        assert!(s.lookup(a).is_none());
        assert_eq!(s.mapped_pages(), 0);
    }

    #[test]
    fn unmap_wrong_size_reports_mismatch() {
        let mut s = AddressSpace::new();
        let a = va(0x4000_0000);
        s.map(a, PageSize::Size2M, PteFlags::user_rw()).unwrap();
        assert_eq!(
            s.unmap(a, PageSize::Size4K),
            Err(MmuError::SizeMismatch {
                addr: a.as_u64(),
                found: PageSize::Size2M,
                expected: PageSize::Size4K
            })
        );
    }

    #[test]
    fn unmap_not_mapped_errors() {
        let mut s = AddressSpace::new();
        assert_eq!(
            s.unmap(va(0x9000), PageSize::Size4K),
            Err(MmuError::NotMapped { addr: 0x9000 })
        );
    }

    #[test]
    fn protect_changes_flags_keeps_phys() {
        let mut s = AddressSpace::new();
        let a = va(0x7f12_3456_7000);
        let pa = s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        s.protect(a, PageSize::Size4K, PteFlags::user_ro()).unwrap();
        let m = s.lookup(a).unwrap();
        assert_eq!(m.phys, pa);
        assert!(!m.flags.is_writable());
    }

    #[test]
    fn protect_to_non_present_makes_lookup_fail() {
        let mut s = AddressSpace::new();
        let a = va(0x7f12_3456_7000);
        s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        s.protect(a, PageSize::Size4K, PteFlags::none_guard())
            .unwrap();
        // Entry exists but is non-present: lookup (present leaf) fails...
        assert!(s.lookup(a).is_none());
        // ...yet re-protecting back to present works (VMA semantics).
        s.protect(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        assert!(s.lookup(a).is_some());
    }

    #[test]
    fn protect_to_user_upgrades_intermediates() {
        // Map as supervisor-only, then mprotect to user: the effective
        // permission (AND across levels) must become user-accessible.
        let mut s = AddressSpace::new();
        let a = va(0x6000_0000_0000);
        s.map(a, PageSize::Size4K, PteFlags::PRESENT).unwrap();
        s.protect(a, PageSize::Size4K, PteFlags::user_ro()).unwrap();
        let walk = crate::walk::Walker::new().walk(&s, a);
        assert!(walk.is_mapped());
        assert!(walk.perms.user, "intermediates upgraded");
    }

    #[test]
    fn mark_accessed_sets_a_and_d_bits() {
        let mut s = AddressSpace::new();
        let a = va(0x6000_0000);
        s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        let before = s.mark_accessed(a, true).unwrap();
        assert!(!before.is_dirty());
        let m = s.lookup(a).unwrap();
        assert!(m.flags.contains(PteFlags::ACCESSED | PteFlags::DIRTY));
        // Second write reports the dirty state from the first.
        let before2 = s.mark_accessed(a, true).unwrap();
        assert!(before2.is_dirty());
    }

    #[test]
    fn clear_accessed_dirty_resets() {
        let mut s = AddressSpace::new();
        let a = va(0x6000_0000);
        s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        s.mark_accessed(a, true).unwrap();
        s.clear_accessed_dirty(a).unwrap();
        let m = s.lookup(a).unwrap();
        assert!(!m.flags.is_dirty());
        assert!(!m.flags.contains(PteFlags::ACCESSED));
    }

    #[test]
    fn map_range_maps_consecutive_pages() {
        let mut s = AddressSpace::new();
        let a = va(0xffff_ffff_c000_0000);
        s.map_range(a, 5, PageSize::Size4K, PteFlags::kernel_rx())
            .unwrap();
        for i in 0..5 {
            assert!(s.lookup(a.wrapping_add(i * 4096)).is_some(), "page {i}");
        }
        assert!(s.lookup(a.wrapping_add(5 * 4096)).is_none());
    }

    #[test]
    fn unmap_range_clears_all_pages() {
        let mut s = AddressSpace::new();
        let a = va(0xffff_ffff_c000_0000);
        s.map_range(a, 8, PageSize::Size4K, PteFlags::kernel_rx())
            .unwrap();
        s.unmap_range(a, 8, PageSize::Size4K).unwrap();
        for i in 0..8 {
            assert!(s.lookup(a.wrapping_add(i * 4096)).is_none(), "page {i}");
        }
        assert_eq!(s.mapped_pages(), 0);
    }

    #[test]
    fn guarded_huge_page_is_not_mistaken_for_a_table() {
        // mprotect(PROT_NONE) on a 2 MiB page keeps the PS bit but
        // clears Present; a later 4 KiB map (or unmap-driven prune)
        // below it must treat the slot as a conflict, not follow its
        // data-frame address as a paging-structure pointer.
        let mut s = AddressSpace::new();
        let big = va(0x6000_0000_0000);
        s.map(big, PageSize::Size2M, PteFlags::user_rw()).unwrap();
        s.protect(big, PageSize::Size2M, PteFlags::none_guard())
            .unwrap();
        let small = va(0x6000_0000_3000);
        assert_eq!(
            s.map(small, PageSize::Size4K, PteFlags::user_rw()),
            Err(MmuError::HugePageConflict {
                addr: small.as_u64()
            })
        );
        // Prune paths triggered by a sibling unmap stay on the tables.
        let sibling = va(0x6000_0020_0000);
        s.map(sibling, PageSize::Size2M, PteFlags::user_rw())
            .unwrap();
        s.unmap(sibling, PageSize::Size2M).unwrap();
        assert!(s.lookup(big).is_none(), "guard stays non-present");
    }

    #[test]
    fn unmap_prunes_empty_tables_for_later_huge_maps() {
        // 2 MiB map + unmap leaves an empty PD behind; a subsequent
        // 1 GiB map over the same range must succeed (OS kernels free
        // empty tables on munmap).
        let mut s = AddressSpace::new();
        let a = va(0x6000_0000_0000);
        s.map(a, PageSize::Size2M, PteFlags::user_rw()).unwrap();
        s.unmap(a, PageSize::Size2M).unwrap();
        s.map(a, PageSize::Size1G, PteFlags::user_rw()).unwrap();
        assert_eq!(s.lookup(a).unwrap().size, PageSize::Size1G);
        // And the other direction: 4 KiB after an unmapped 2 MiB works
        // because the huge leaf is really gone.
        let b = va(0x6080_0000_0000);
        s.map(b, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        s.unmap(b, PageSize::Size4K).unwrap();
        s.map(b, PageSize::Size2M, PteFlags::user_rw()).unwrap();
    }

    #[test]
    fn prune_stops_at_non_empty_tables() {
        let mut s = AddressSpace::new();
        let a = va(0x6000_0000_0000);
        let sibling = va(0x6000_0020_0000); // same PD, next 2 MiB slot
        s.map(a, PageSize::Size2M, PteFlags::user_rw()).unwrap();
        s.map(sibling, PageSize::Size2M, PteFlags::user_rw())
            .unwrap();
        s.unmap(a, PageSize::Size2M).unwrap();
        // Sibling must survive the prune.
        assert!(s.lookup(sibling).is_some());
        // And a 1 GiB map over the range is still (correctly) blocked.
        assert!(s
            .map(a.align_down(1 << 30), PageSize::Size1G, PteFlags::user_rw())
            .is_err());
    }

    #[test]
    fn unmap_range_fails_fast_on_hole() {
        let mut s = AddressSpace::new();
        let a = va(0x4000_0000);
        s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        // Second page missing: range unmap of 2 fails after the first.
        assert!(s.unmap_range(a, 2, PageSize::Size4K).is_err());
        assert!(s.lookup(a).is_none(), "first page already unmapped");
    }

    #[test]
    fn protect_range_rewrites_flags() {
        let mut s = AddressSpace::new();
        let a = va(0x7f00_0000_0000);
        s.map_range(a, 4, PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        s.protect_range(a, 4, PageSize::Size4K, PteFlags::user_ro())
            .unwrap();
        for i in 0..4 {
            let m = s.lookup(a.wrapping_add(i * 4096)).unwrap();
            assert!(!m.flags.is_writable(), "page {i}");
        }
    }

    #[test]
    fn iter_regions_sorted_and_complete() {
        let mut s = AddressSpace::new();
        s.map(
            va(0xffff_ffff_a000_0000),
            PageSize::Size2M,
            PteFlags::kernel_rx(),
        )
        .unwrap();
        s.map(va(0x5555_5555_4000), PageSize::Size4K, PteFlags::user_rx())
            .unwrap();
        s.map(va(0x7fff_f7a0_0000), PageSize::Size4K, PteFlags::user_ro())
            .unwrap();
        let regions = s.iter_regions();
        assert_eq!(regions.len(), 3);
        assert!(regions.windows(2).all(|w| w[0].start < w[1].start));
        assert_eq!(regions[0].start, va(0x5555_5555_4000));
        assert_eq!(regions[2].size, PageSize::Size2M);
    }

    #[test]
    fn iter_regions_skips_non_present_guards() {
        let mut s = AddressSpace::new();
        let a = va(0x7f00_0000_0000);
        s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        s.protect(a, PageSize::Size4K, PteFlags::none_guard())
            .unwrap();
        assert!(s.iter_regions().is_empty());
        // A huge-page guard keeps PS and a data-frame address: it must
        // not be followed as a table link either.
        let big = va(0x7f00_0020_0000);
        s.map(big, PageSize::Size2M, PteFlags::user_rw()).unwrap();
        s.protect(big, PageSize::Size2M, PteFlags::none_guard())
            .unwrap();
        assert!(s.iter_regions().is_empty());
    }

    #[test]
    fn user_and_kernel_mappings_coexist() {
        let mut s = AddressSpace::new();
        s.map(va(0x5555_5555_4000), PageSize::Size4K, PteFlags::user_rx())
            .unwrap();
        s.map(
            va(0xffff_ffff_a1e0_0000),
            PageSize::Size2M,
            PteFlags::kernel_rx(),
        )
        .unwrap();
        assert_eq!(s.mapped_pages(), 2);
        assert!(s.lookup(va(0x5555_5555_4000)).unwrap().flags.is_user());
        assert!(!s.lookup(va(0xffff_ffff_a1e0_0000)).unwrap().flags.is_user());
    }

    #[test]
    fn data_frames_do_not_collide_across_sizes() {
        let mut s = AddressSpace::new();
        let p1 = s
            .map(va(0x1000), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        let p2 = s
            .map(va(0x20_0000), PageSize::Size2M, PteFlags::user_rw())
            .unwrap();
        let p3 = s
            .map(va(0x2000), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        assert!(p2.as_u64() >= p1.as_u64() + 4096);
        assert!(p3.as_u64() >= p2.as_u64() + PageSize::Size2M.bytes());
        assert_eq!(p2.as_u64() % PageSize::Size2M.bytes(), 0);
    }
}
