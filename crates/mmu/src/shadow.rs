//! The shadow translation index: an epoch-cached interval map over an
//! [`AddressSpace`].
//!
//! Sweep-shaped attacks walk millions of candidate addresses through
//! page-table regions that are overwhelmingly static: tables only change
//! at setup time and (once) while Accessed/Dirty bits settle. Yet every
//! probe re-walked up to four `Vec`-backed structures, re-deriving the
//! same table chain each time. The shadow index derives, once per
//! [`AddressSpace::shape_epoch`], a sorted interval map in which every
//! canonical address belongs to exactly one interval whose *walk shape*
//! — the chain of paging structures visited and the level at which the
//! walk terminates — is constant. A walk becomes an O(log n) interval
//! lookup (O(1) for the sequential-sweep common case, via a caller-held
//! hint) plus a replay of the stored chain that reads the live PTE at
//! each level.
//!
//! Reading entry *values* live is what keeps the index valid across the
//! flags-only churn of steady-state probing: the first access to a user
//! page sets its Accessed bit, which changes the PTE value but not the
//! walk shape, so only [`AddressSpace::shape_epoch`] (structural
//! mutations: map/unmap/alloc/Present flips) invalidates the index.
//!
//! # Bit-exactness contract
//!
//! [`ShadowIndex::walk_hinted`] must be observably identical to
//! [`Walker::walk_with_psc`] / [`Walker::walk`] in every respect the
//! timing engine can see: the returned [`WalkOutcome`] (terminal level,
//! access list, access count, resume level, entry, mapping, perms) and
//! the PSC lookup/insert sequence, including LRU clock advancement on
//! misses. Two details make this subtle:
//!
//! * The PSC is consulted **exactly once** per walk — its replacement
//!   clocks advance on lookup, so the index may not "peek and retry".
//! * A stale PSC entry (inserted before a later mutation, never
//!   invalidated — exactly like hardware without `INVLPG`) may resume
//!   the walk somewhere the current tables do not reach. When the
//!   cached resume point disagrees with the stored chain, the index
//!   falls back to `Walker::walk_from` *continuing from the PSC state
//!   already obtained*, which is precisely what the slow walker does.
//!
//! The property suite in `tests/shadow_props.rs` pins this equivalence
//! under randomized map/unmap/protect/A-D-bit/probe interleavings.

use crate::addr::VirtAddr;
use crate::psc::{PagingStructureCache, PscEntry};
use crate::space::{AddressSpace, MappedRegion, PageSize};
use crate::table::{FrameId, Level, ENTRIES_PER_TABLE};
use crate::walk::{EffectivePerms, WalkAccessList, WalkOutcome, Walker};

/// One interval of the index: a maximal canonical address range whose
/// walk shape (table chain + terminal level) is constant.
#[derive(Clone, Copy, Debug)]
struct ShadowInterval {
    /// First covered address.
    start: u64,
    /// Last covered address (inclusive; avoids overflow at the top of
    /// the kernel half).
    last: u64,
    /// Paging structures visited, walk order; `tables[0]` is the root.
    tables: [FrameId; 4],
    /// Number of levels visited (1..=4). The entry the walk reads at
    /// `WALK_ORDER[depth - 1]` terminates it: a leaf, a non-present
    /// guard, or zero.
    depth: u8,
}

impl ShadowInterval {
    fn covers(&self, va: u64) -> bool {
        self.start <= va && va <= self.last
    }
}

/// The epoch-cached shadow translation index over one address space.
#[derive(Clone, Debug)]
pub struct ShadowIndex {
    shape_epoch: u64,
    intervals: Vec<ShadowInterval>,
}

/// Lean walk verdict for the execution engine's hot path: everything a
/// timing model needs from a walk, with no access-list or
/// [`WalkOutcome`] materialization. Structure accesses are streamed to
/// the caller through the `on_access` callback of
/// [`ShadowIndex::walk_costed`] in walk order instead.
#[derive(Clone, Copy, Debug)]
pub struct ShadowWalk {
    /// Level whose entry terminated the walk.
    pub terminal_level: Level,
    /// Number of paging-structure accesses performed.
    pub structures_accessed: u8,
    /// `true` when the walk resumed from a PSC entry (level extras do
    /// not apply, exactly as for `WalkOutcome::psc_resume_level`).
    pub resumed: bool,
    /// `true` when a present leaf was found.
    pub present_leaf: bool,
    /// Accumulated permissions (meaningful when `present_leaf`).
    pub perms: EffectivePerms,
    /// Leaf page size (meaningful when `present_leaf`).
    pub page_size: PageSize,
    /// Leaf physical frame number (meaningful when `present_leaf`).
    pub frame_number: u64,
    /// `true` when this walk ran through the pure shadow replay with
    /// the PSC engaged and **no** stale-PSC fallback. For such a walk,
    /// an immediately repeated walk of the same address (the engine's
    /// non-present retry) is fully determined: it resumes from the
    /// deepest intermediate this walk left in the PSC (or the root for
    /// a PML4-terminated walk), reads exactly the terminal entry again,
    /// and finds its line warm — so the engine may charge it
    /// analytically. See `Machine::translate_page` in `avx-uarch`.
    pub clean_replay: bool,
}

/// Outcome of the O(log n) point query ([`ShadowIndex::lookup`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowLookup {
    /// Level whose entry terminates the walk for this address.
    pub terminal_level: Level,
    /// The present leaf covering the address, if any.
    pub mapping: Option<MappedRegion>,
    /// Permissions accumulated over a root walk (meaningful when
    /// `mapping.is_some()`).
    pub perms: EffectivePerms,
}

impl ShadowIndex {
    /// Derives the index from the current state of `space`.
    #[must_use]
    pub fn build(space: &AddressSpace) -> Self {
        let mut intervals = Vec::with_capacity(64);
        let mut chain = [FrameId::default(); 4];
        build_table(space, space.root(), 0, 0, &mut chain, &mut intervals);
        debug_assert!(intervals.windows(2).all(|w| w[0].last < w[1].start));
        Self {
            shape_epoch: space.shape_epoch(),
            intervals,
        }
    }

    /// The [`AddressSpace::shape_epoch`] this index was derived at.
    #[must_use]
    pub fn shape_epoch(&self) -> u64 {
        self.shape_epoch
    }

    /// `true` while `space`'s walk shape has not changed since the
    /// index was built (flags-only PTE rewrites keep it current).
    #[must_use]
    pub fn is_current(&self, space: &AddressSpace) -> bool {
        self.shape_epoch == space.shape_epoch()
    }

    /// Number of intervals in the index.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// `true` for an index with no intervals (cannot happen for a real
    /// space: even an empty one yields a whole-space interval).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// O(log n) point query: where does the walk for `va` terminate, and
    /// what does it find? Pure — no translation-cache state is touched.
    #[must_use]
    pub fn lookup(&self, space: &AddressSpace, va: VirtAddr) -> ShadowLookup {
        let iv = &self.intervals[self.find(va.as_u64(), &mut 0)];
        let depth = iv.depth as usize;
        let mut perms = EffectivePerms::most_permissive();
        for i in 0..depth - 1 {
            let entry = space
                .table(iv.tables[i])
                .entry(va.index_for(Level::WALK_ORDER[i]));
            perms = perms.and_level(entry.flags());
        }
        let (mapping, perms) = resolve_terminal(space, iv, va, perms);
        ShadowLookup {
            terminal_level: Level::WALK_ORDER[depth - 1],
            mapping,
            perms,
        }
    }

    /// Bit-exact replacement for [`Walker::walk`] /
    /// [`Walker::walk_with_psc`].
    ///
    /// `hint` is a caller-held cursor into the interval list; sequential
    /// sweeps hit the same or the next interval almost every time, which
    /// turns the lookup O(1). Any `usize` value is safe.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the index is current for `space`; a stale
    /// index would silently replay outdated translations.
    #[must_use]
    pub fn walk_hinted(
        &self,
        space: &AddressSpace,
        va: VirtAddr,
        mut psc: Option<&mut PagingStructureCache>,
        hint: &mut usize,
    ) -> WalkOutcome {
        debug_assert!(self.is_current(space), "stale shadow index");
        let iv = &self.intervals[self.find(va.as_u64(), hint)];
        let depth = iv.depth as usize;

        let (start_idx, mut perms, psc_resume_level) =
            match resume_from_psc(iv, space, va, psc.as_deref_mut()) {
                Ok(resume) => resume,
                Err(fallback) => return fallback,
            };

        let mut accesses = WalkAccessList::default();
        for i in start_idx..depth {
            accesses.push(iv.tables[i], va.index_for(Level::WALK_ORDER[i]));
        }

        // Intermediate levels: accumulate perms and refill the PSC with
        // the same entries the slow walker would insert. Entry values
        // are read live — only the *shape* is cached.
        for i in start_idx..depth - 1 {
            let entry = space
                .table(iv.tables[i])
                .entry(va.index_for(Level::WALK_ORDER[i]));
            perms = perms.and_level(entry.flags());
            if let Some(psc) = psc.as_deref_mut() {
                psc.insert(
                    Level::WALK_ORDER[i],
                    va,
                    PscEntry {
                        next_table: iv.tables[i + 1],
                        perms,
                    },
                );
            }
        }

        let terminal = space
            .table(iv.tables[depth - 1])
            .entry(va.index_for(Level::WALK_ORDER[depth - 1]));
        let (mapping, perms) = resolve_terminal(space, iv, va, perms);
        WalkOutcome {
            va,
            terminal_level: Level::WALK_ORDER[depth - 1],
            structures_accessed: (depth - start_idx) as u8,
            accesses,
            psc_resume_level,
            entry: terminal,
            mapping,
            perms,
        }
    }

    /// Fused variant of [`ShadowIndex::walk_hinted`] for the timing
    /// engine: identical translation semantics and PSC evolution, but
    /// structure accesses are streamed to `on_access` (in walk order —
    /// the engine charges line-cache costs there) and the result is the
    /// lean [`ShadowWalk`] instead of a full [`WalkOutcome`].
    pub fn walk_costed<F: FnMut(FrameId, usize)>(
        &self,
        space: &AddressSpace,
        va: VirtAddr,
        mut psc: Option<&mut PagingStructureCache>,
        hint: &mut usize,
        on_access: &mut F,
    ) -> ShadowWalk {
        debug_assert!(self.is_current(space), "stale shadow index");
        let iv = &self.intervals[self.find(va.as_u64(), hint)];
        let depth = iv.depth as usize;

        let (start_idx, mut perms, resume_level) =
            match resume_from_psc(iv, space, va, psc.as_deref_mut()) {
                Ok(resume) => resume,
                Err(fallback) => {
                    for (table, idx) in fallback.accesses.iter() {
                        on_access(table, idx);
                    }
                    return ShadowWalk::from(&fallback);
                }
            };
        let resumed = resume_level.is_some();

        for i in start_idx..depth - 1 {
            let idx = va.index_for(Level::WALK_ORDER[i]);
            on_access(iv.tables[i], idx);
            let entry = space.table(iv.tables[i]).entry(idx);
            perms = perms.and_level(entry.flags());
            if let Some(psc) = psc.as_deref_mut() {
                psc.insert(
                    Level::WALK_ORDER[i],
                    va,
                    PscEntry {
                        next_table: iv.tables[i + 1],
                        perms,
                    },
                );
            }
        }

        let level = Level::WALK_ORDER[depth - 1];
        let terminal_idx = va.index_for(level);
        on_access(iv.tables[depth - 1], terminal_idx);
        let terminal = space.table(iv.tables[depth - 1]).entry(terminal_idx);

        // An immediate re-walk is analytically determined only when the
        // deepest intermediate of this walk is guaranteed to sit in the
        // PSC afterwards: either there is no intermediate (PML4
        // termination) or its level is actually cacheable.
        let clean_replay = match &psc {
            Some(psc) => depth == 1 || psc.can_cache(Level::WALK_ORDER[depth - 2]),
            None => false,
        };
        let mut walk = ShadowWalk {
            terminal_level: level,
            structures_accessed: (depth - start_idx) as u8,
            resumed,
            present_leaf: false,
            perms,
            page_size: PageSize::Size4K,
            frame_number: 0,
            clean_replay,
        };
        if terminal.is_present() {
            let is_leaf = match level {
                Level::Pt => true,
                Level::Pml4 => false,
                _ => terminal.is_huge_leaf(),
            };
            if is_leaf {
                walk.present_leaf = true;
                walk.perms = perms.and_level(terminal.flags());
                walk.page_size =
                    PageSize::from_leaf_level(level).expect("leaf levels map to a page size");
                walk.frame_number = terminal.addr().frame_number();
            }
        }
        walk
    }

    /// The (table, entry index) slot whose entry terminates the walk
    /// for `va` — the leaf slot when `va` is mapped. Pure; `hint` as in
    /// [`ShadowIndex::walk_hinted`]. The engine uses this to test
    /// Accessed/Dirty bits without re-walking.
    #[must_use]
    pub fn terminal_slot(&self, va: VirtAddr, hint: &mut usize) -> (FrameId, usize) {
        let iv = &self.intervals[self.find(va.as_u64(), hint)];
        let level = Level::WALK_ORDER[iv.depth as usize - 1];
        (iv.tables[iv.depth as usize - 1], va.index_for(level))
    }

    /// Locates the interval covering `va`, preferring the hint and its
    /// successor before falling back to binary search.
    fn find(&self, va: u64, hint: &mut usize) -> usize {
        if let Some(iv) = self.intervals.get(*hint) {
            if iv.covers(va) {
                return *hint;
            }
        }
        if let Some(iv) = self.intervals.get(*hint + 1) {
            if iv.covers(va) {
                *hint += 1;
                return *hint;
            }
        }
        let idx = match self.intervals.partition_point(|iv| iv.start <= va) {
            0 => 0,
            n => n - 1,
        };
        debug_assert!(
            self.intervals[idx].covers(va),
            "index covers every canonical address"
        );
        *hint = idx;
        idx
    }
}

impl From<&WalkOutcome> for ShadowWalk {
    /// Lean view of a full [`WalkOutcome`] (the stale-PSC fallback and
    /// the reference-walker path produce outcomes; the timing engine
    /// consumes this form).
    fn from(outcome: &WalkOutcome) -> Self {
        ShadowWalk {
            terminal_level: outcome.terminal_level,
            structures_accessed: outcome.structures_accessed,
            resumed: outcome.psc_resume_level.is_some(),
            present_leaf: outcome.mapping.is_some(),
            perms: outcome.perms,
            page_size: outcome.mapping.map_or(PageSize::Size4K, |m| m.size),
            frame_number: outcome.mapping.map_or(0, |m| m.phys.frame_number()),
            clean_replay: false,
        }
    }
}

/// Consults the PSC for `va` — exactly once, as in the slow walker (the
/// lookup advances replacement clocks even on a miss) — and validates
/// the resume point against the interval's chain.
///
/// `Ok((start_idx, perms, resume_level))` resumes the replay at
/// `start_idx` with the cached perms; a stale resume point (mutation
/// since the entry was cached, never `INVLPG`ed — exactly like
/// hardware) yields `Err` with the completed live walk, continued from
/// the already-obtained PSC state via `Walker::walk_from`.
fn resume_from_psc(
    iv: &ShadowInterval,
    space: &AddressSpace,
    va: VirtAddr,
    psc: Option<&mut PagingStructureCache>,
) -> Result<(usize, EffectivePerms, Option<Level>), WalkOutcome> {
    let Some(psc) = psc else {
        return Ok((0, EffectivePerms::most_permissive(), None));
    };
    let Some((cached_level, entry)) = psc.lookup_deepest(va) else {
        return Ok((0, EffectivePerms::most_permissive(), None));
    };
    let resume_idx = cached_level as usize + 1;
    if resume_idx >= iv.depth as usize || entry.next_table != iv.tables[resume_idx] {
        return Err(Walker::new().walk_from(
            space,
            va,
            cached_level
                .next()
                .expect("PSC never caches PT entries, so next() exists"),
            entry.next_table,
            entry.perms,
            Some(cached_level),
            Some(psc),
        ));
    }
    Ok((resume_idx, entry.perms, Some(cached_level)))
}

/// Reads and applies the terminal entry of `iv` for `va`: present leaf →
/// mapping + final perms accumulation, otherwise no mapping.
fn resolve_terminal(
    space: &AddressSpace,
    iv: &ShadowInterval,
    va: VirtAddr,
    mut perms: EffectivePerms,
) -> (Option<MappedRegion>, EffectivePerms) {
    let depth = iv.depth as usize;
    let level = Level::WALK_ORDER[depth - 1];
    let terminal = space.table(iv.tables[depth - 1]).entry(va.index_for(level));
    if !terminal.is_present() {
        return (None, perms);
    }
    let is_leaf = match level {
        Level::Pt => true,
        Level::Pml4 => false,
        _ => terminal.is_huge_leaf(),
    };
    if !is_leaf {
        // Unreachable while the index is current (a present intermediate
        // would have recursed at build time, and turning a terminal slot
        // into an intermediate bumps the shape epoch), but mirror the
        // walker's semantics defensively.
        return (None, perms);
    }
    perms = perms.and_level(terminal.flags());
    let size = PageSize::from_leaf_level(level).expect("leaf levels always map to a page size");
    (
        Some(MappedRegion {
            start: va.align_down(size.bytes()),
            size,
            flags: terminal.flags(),
            phys: terminal.addr(),
        }),
        perms,
    )
}

const fn level_shift(level: Level) -> u32 {
    match level {
        Level::Pml4 => 39,
        Level::Pdpt => 30,
        Level::Pd => 21,
        Level::Pt => 12,
    }
}

/// Emits intervals for every slot of `table_id`, recursing into present
/// intermediates. Consecutive slots that terminate the walk at this
/// level — zero, guard, or leaf alike — merge into one interval: the
/// walk shape is identical across them and values are read live.
fn build_table(
    space: &AddressSpace,
    table_id: FrameId,
    depth_idx: usize,
    va_prefix: u64,
    chain: &mut [FrameId; 4],
    out: &mut Vec<ShadowInterval>,
) {
    let level = Level::WALK_ORDER[depth_idx];
    let shift = level_shift(level);
    let span = level.entry_span();
    chain[depth_idx] = table_id;

    if level == Level::Pt {
        // No PT slot descends, so all 512 merge into one run whatever
        // they hold: emit it without reading them.
        let table_span = span * ENTRIES_PER_TABLE as u64;
        flush_run(
            (va_prefix, va_prefix + (table_span - 1)),
            depth_idx,
            chain,
            out,
        );
        return;
    }

    let mut run: Option<(u64, u64)> = None; // (start, last) of a terminal run
    for idx in 0..ENTRIES_PER_TABLE {
        // Canonicalize: at the PML4 level bit 47 sign-extends.
        let va = VirtAddr::new_truncate(va_prefix | (idx as u64) << shift).as_u64();
        let last = va + (span - 1);
        let entry = space.table(table_id).entry(idx);

        let descends = entry.is_present() && (level == Level::Pml4 || !entry.is_huge_leaf());

        if !descends {
            run = match run {
                Some((start, prev_last)) if prev_last.wrapping_add(1) == va => Some((start, last)),
                Some(done) => {
                    flush_run(done, depth_idx, chain, out);
                    Some((va, last))
                }
                None => Some((va, last)),
            };
            continue;
        }

        if let Some(done) = run.take() {
            flush_run(done, depth_idx, chain, out);
        }
        let next =
            FrameId::new(u32::try_from(entry.addr().frame_number()).expect("table frame id"));
        build_table(space, next, depth_idx + 1, va, chain, out);
        chain[depth_idx] = table_id;
    }
    if let Some(done) = run {
        flush_run(done, depth_idx, chain, out);
    }
}

fn flush_run(
    (start, last): (u64, u64),
    depth_idx: usize,
    chain: &[FrameId; 4],
    out: &mut Vec<ShadowInterval>,
) {
    out.push(ShadowInterval {
        start,
        last,
        tables: *chain,
        depth: depth_idx as u8 + 1,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::PteFlags;
    use crate::psc::PscConfig;

    fn va(raw: u64) -> VirtAddr {
        VirtAddr::new_truncate(raw)
    }

    fn sample_space() -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map(
            va(0xffff_ffff_a1e0_0000),
            PageSize::Size2M,
            PteFlags::kernel_rx(),
        )
        .unwrap();
        s.map(
            va(0xffff_ffff_c012_3000),
            PageSize::Size4K,
            PteFlags::kernel_rx(),
        )
        .unwrap();
        s.map(va(0x5555_5555_4000), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        s
    }

    fn assert_same_outcome(a: &WalkOutcome, b: &WalkOutcome) {
        assert_eq!(a.va, b.va);
        assert_eq!(a.terminal_level, b.terminal_level);
        assert_eq!(a.structures_accessed, b.structures_accessed);
        assert_eq!(a.psc_resume_level, b.psc_resume_level);
        assert_eq!(a.entry.raw(), b.entry.raw());
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.perms, b.perms);
        let al: Vec<_> = a.accesses.iter().collect();
        let bl: Vec<_> = b.accesses.iter().collect();
        assert_eq!(al, bl);
    }

    #[test]
    fn index_covers_full_canonical_space_in_order() {
        let index = ShadowIndex::build(&sample_space());
        let first = index.intervals.first().unwrap();
        let last = index.intervals.last().unwrap();
        assert_eq!(first.start, 0);
        assert_eq!(last.last, u64::MAX);
        for w in index.intervals.windows(2) {
            assert!(w[0].last < w[1].start, "sorted and non-overlapping");
        }
    }

    #[test]
    fn walk_matches_walker_without_psc() {
        let space = sample_space();
        let index = ShadowIndex::build(&space);
        let walker = Walker::new();
        let mut hint = 0usize;
        for addr in [
            0u64,
            0x5555_5555_4000,
            0x5555_5555_4fff,
            0x5555_5555_5000,
            0xffff_ffff_a1e0_0000,
            0xffff_ffff_a1ff_ffff,
            0xffff_ffff_a000_0000,
            0xffff_ffff_c012_3000,
            0xffff_ffff_c012_4000,
            0xffff_8000_0000_0000,
            u64::MAX,
        ] {
            let slow = walker.walk(&space, va(addr));
            let fast = index.walk_hinted(&space, va(addr), None, &mut hint);
            assert_same_outcome(&fast, &slow);
        }
    }

    #[test]
    fn walk_matches_walker_with_psc_warmup_and_resume() {
        let space = sample_space();
        let index = ShadowIndex::build(&space);
        let walker = Walker::new();
        let mut psc_slow = PagingStructureCache::new(PscConfig::default());
        let mut psc_fast = PagingStructureCache::new(PscConfig::default());
        let mut hint = 0usize;
        let addrs = [
            0xffff_ffff_c012_3000u64,
            0xffff_ffff_c012_3000, // resume from PDE on repeat
            0xffff_ffff_a1e0_0000,
            0xffff_ffff_a000_0000, // sibling resumes from PDPTE
            0x5555_5555_4000,
            0x1234_5678_9000,
        ];
        for addr in addrs {
            let slow = walker.walk_with_psc(&space, va(addr), &mut psc_slow);
            let fast = index.walk_hinted(&space, va(addr), Some(&mut psc_fast), &mut hint);
            assert_same_outcome(&fast, &slow);
            assert_eq!(psc_fast.len(), psc_slow.len());
            assert_eq!(psc_fast.hits(), psc_slow.hits());
            assert_eq!(psc_fast.misses(), psc_slow.misses());
        }
    }

    #[test]
    fn stale_psc_resume_falls_back_to_live_walk() {
        let mut space = sample_space();
        let walker = Walker::new();
        let mut psc_slow = PagingStructureCache::new(PscConfig::default());
        let mut psc_fast = PagingStructureCache::new(PscConfig::default());
        let target = va(0xffff_ffff_c012_3000);
        // Warm both PSCs, then unmap without any PSC invalidation — the
        // cached PDE now points at a pruned table, like hardware without
        // INVLPG.
        let _ = walker.walk_with_psc(&space, target, &mut psc_slow);
        let _ = ShadowIndex::build(&space).walk_hinted(&space, target, Some(&mut psc_fast), &mut 0);
        space.unmap(target, PageSize::Size4K).unwrap();
        let index = ShadowIndex::build(&space);
        let slow = walker.walk_with_psc(&space, target, &mut psc_slow);
        let fast = index.walk_hinted(&space, target, Some(&mut psc_fast), &mut 0);
        assert_same_outcome(&fast, &slow);
    }

    #[test]
    fn lookup_reports_mapping_and_terminal_level() {
        let space = sample_space();
        let index = ShadowIndex::build(&space);
        let hit = index.lookup(&space, va(0xffff_ffff_a1e1_2345));
        assert_eq!(hit.terminal_level, Level::Pd);
        let m = hit.mapping.expect("mapped");
        assert_eq!(m.start, va(0xffff_ffff_a1e0_0000));
        assert!(!hit.perms.user);

        let miss = index.lookup(&space, va(0x1234_5678_9000));
        assert!(miss.mapping.is_none());
        assert_eq!(miss.terminal_level, Level::Pml4);
    }

    #[test]
    fn flags_only_mutations_keep_the_index_current() {
        let mut space = sample_space();
        let index = ShadowIndex::build(&space);
        assert!(index.is_current(&space));
        // A/D-bit settling and permission rewrites change PTE values but
        // not the walk shape: the index stays valid and reads the new
        // values live.
        space.mark_accessed(va(0x5555_5555_4000), true).unwrap();
        assert!(index.is_current(&space));
        let hit = index.lookup(&space, va(0x5555_5555_4000));
        assert!(hit.mapping.unwrap().flags.is_dirty());
        space
            .protect(va(0x5555_5555_4000), PageSize::Size4K, PteFlags::user_ro())
            .unwrap();
        assert!(index.is_current(&space), "present-preserving mprotect");
        // Structural mutations invalidate it.
        space
            .map(va(0x7000_0000_0000), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        assert!(!index.is_current(&space));
    }

    #[test]
    fn present_flip_invalidates_the_index() {
        let mut space = sample_space();
        let index = ShadowIndex::build(&space);
        space
            .protect(
                va(0x5555_5555_4000),
                PageSize::Size4K,
                PteFlags::none_guard(),
            )
            .unwrap();
        assert!(!index.is_current(&space), "Present flip is a shape change");
    }

    #[test]
    fn hint_accelerates_sequential_sweeps_correctly() {
        let space = sample_space();
        let index = ShadowIndex::build(&space);
        let walker = Walker::new();
        let mut hint = 0usize;
        for slot in 0..512u64 {
            let addr = va(0xffff_ffff_8000_0000 + slot * 0x20_0000);
            let slow = walker.walk(&space, addr);
            let fast = index.walk_hinted(&space, addr, None, &mut hint);
            assert_same_outcome(&fast, &slow);
        }
    }

    #[test]
    fn merged_terminal_runs_keep_the_index_small() {
        // A whole PT of 4 KiB leaves collapses into one interval.
        let mut space = AddressSpace::new();
        space
            .map_range(
                va(0x7f00_0000_0000),
                512,
                PageSize::Size4K,
                PteFlags::user_ro(),
            )
            .unwrap();
        let index = ShadowIndex::build(&space);
        assert!(
            index.len() <= 8,
            "512 leaves must not mean 512 intervals: {}",
            index.len()
        );
    }
}
