//! Property suite pinning the shadow translation index to the reference
//! walker, and the copy-on-write snapshot isolation contract.
//!
//! The shadow index is only allowed to exist because it is observably
//! identical to [`Walker`]: same [`WalkOutcome`] (termination level,
//! access list, access count, PSC resume level, terminal entry, mapping,
//! perms) and same PSC evolution (contents, hit/miss counters), under
//! *any* interleaving of structural mutations, flags-only mutations and
//! probes — including the stale-PSC resumes that arise when the tables
//! mutate without `INVLPG`, exactly as on hardware.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use avx_mmu::{
    AddressSpace, EffectivePerms, FrameId, Level, MappedRegion, PageSize, PagingStructureCache,
    PhysAddr, PscConfig, PteFlags, ShadowIndex, ShadowLookup, VirtAddr, WalkOutcome, Walker,
    ENTRIES_PER_TABLE,
};

/// Candidate page bases the mutation driver works over: a mix of user,
/// kernel-text, module-area and wild addresses, various alignments.
const SITES: [u64; 8] = [
    0x5555_5555_4000,      // user 4K
    0x7f00_0000_0000,      // user 4K
    0x6000_0000_0000,      // user, also used at 2M/1G alignment
    0xffff_ffff_8000_0000, // kernel-text region start (2M)
    0xffff_ffff_a1e0_0000, // kernel 2M slot
    0xffff_ffff_c012_3000, // module-area 4K
    0xffff_c000_0000_0000, // 1G-aligned kernel
    0x1234_5678_9000,      // wild hole
];

fn assert_same_outcome(a: &WalkOutcome, b: &WalkOutcome, step: usize) {
    assert_eq!(a.va, b.va, "step {step}");
    assert_eq!(a.terminal_level, b.terminal_level, "step {step}");
    assert_eq!(a.structures_accessed, b.structures_accessed, "step {step}");
    assert_eq!(a.psc_resume_level, b.psc_resume_level, "step {step}");
    assert_eq!(a.entry.raw(), b.entry.raw(), "step {step}");
    assert_eq!(a.mapping, b.mapping, "step {step}");
    assert_eq!(a.perms, b.perms, "step {step}");
    let al: Vec<_> = a.accesses.iter().collect();
    let bl: Vec<_> = b.accesses.iter().collect();
    assert_eq!(al, bl, "step {step}");
}

/// Applies one random mutation or probe step; probes compare the shadow
/// index (rebuilt only on shape-epoch change, like the engine does)
/// against the reference walker on the same evolving PSC pair.
fn drive(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut space = AddressSpace::new();
    let walker = Walker::new();
    let mut psc_slow = PagingStructureCache::new(PscConfig::default());
    let mut psc_fast = PagingStructureCache::new(PscConfig::default());
    let mut shadow = ShadowIndex::build(&space);
    let mut hint = 0usize;

    for step in 0..steps {
        let site = SITES[rng.gen_range(0..SITES.len())];
        match rng.gen_range(0u32..10) {
            // Structural mutations (shape epoch bumps).
            0 | 1 => {
                let size = match rng.gen_range(0u32..4) {
                    0 => PageSize::Size2M,
                    1 if site.is_multiple_of(1 << 30) => PageSize::Size1G,
                    _ => PageSize::Size4K,
                };
                let flags = match rng.gen_range(0u32..3) {
                    0 => PteFlags::user_rw(),
                    1 => PteFlags::user_ro(),
                    _ => PteFlags::kernel_rx(),
                };
                let va = VirtAddr::new_truncate(site).align_down(size.bytes());
                let _ = space.map(va, size, flags);
            }
            2 => {
                for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
                    let va = VirtAddr::new_truncate(site).align_down(size.bytes());
                    if space.unmap(va, size).is_ok() {
                        break;
                    }
                }
            }
            // Flags-only and Present-flipping mutations.
            3 => {
                let flags = if rng.gen_range(0u32..4) == 0 {
                    PteFlags::none_guard()
                } else {
                    PteFlags::user_ro()
                };
                for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
                    let va = VirtAddr::new_truncate(site).align_down(size.bytes());
                    if space.protect(va, size, flags).is_ok() {
                        break;
                    }
                }
            }
            // A/D-bit churn (must never invalidate the index).
            4 => {
                let va = VirtAddr::new_truncate(site);
                let _ = space.mark_accessed(va, rng.gen_range(0u32..2) == 0);
            }
            5 => {
                let va = VirtAddr::new_truncate(site);
                let _ = space.clear_accessed_dirty(va);
            }
            // INVLPG-style PSC invalidation, applied to both PSCs.
            6 => {
                let va = VirtAddr::new_truncate(site);
                psc_slow.invlpg(va);
                psc_fast.invlpg(va);
            }
            // Probes: walk and compare.
            _ => {
                let offset = rng.gen_range(0u64..0x40_0000);
                let va = VirtAddr::new_truncate(site.wrapping_add(offset));
                if !shadow.is_current(&space) {
                    shadow = ShadowIndex::build(&space);
                }
                let (slow, fast) = if rng.gen_range(0u32..4) == 0 {
                    (
                        walker.walk(&space, va),
                        shadow.walk_hinted(&space, va, None, &mut hint),
                    )
                } else {
                    (
                        walker.walk_with_psc(&space, va, &mut psc_slow),
                        shadow.walk_hinted(&space, va, Some(&mut psc_fast), &mut hint),
                    )
                };
                assert_same_outcome(&fast, &slow, step);
                assert_eq!(psc_fast.len(), psc_slow.len(), "step {step}");
                assert_eq!(psc_fast.hits(), psc_slow.hits(), "step {step}");
                assert_eq!(psc_fast.misses(), psc_slow.misses(), "step {step}");
            }
        }
    }
}

/// One interval of the per-slot reference scan: a maximal range whose
/// walk visits `tables[..depth]` and stops at the last of them.
struct RefInterval {
    start: u64,
    last: u64,
    tables: [FrameId; 4],
    depth: usize,
}

/// The index layout as a scan of every slot of every table derives it,
/// PTs included: consecutive slots that do not descend merge into one
/// interval. `ShadowIndex::build` must resolve exactly like this while
/// emitting each PT whole.
fn per_slot_intervals(space: &AddressSpace) -> Vec<RefInterval> {
    fn scan(
        space: &AddressSpace,
        table: FrameId,
        depth: usize,
        prefix: u64,
        chain: &mut [FrameId; 4],
        out: &mut Vec<RefInterval>,
    ) {
        let level = Level::WALK_ORDER[depth];
        let span = level.entry_span();
        chain[depth] = table;
        let mut run: Option<(u64, u64)> = None;
        for idx in 0..ENTRIES_PER_TABLE {
            let va = VirtAddr::new_truncate(prefix | (idx as u64 * span)).as_u64();
            let entry = space.table(table).entry(idx);
            let descends = entry.is_present()
                && match level {
                    Level::Pt => false,
                    Level::Pml4 => true,
                    _ => !entry.is_huge_leaf(),
                };
            if !descends {
                run = match run {
                    Some((start, last)) if last.wrapping_add(1) == va => {
                        Some((start, va + (span - 1)))
                    }
                    Some((start, last)) => {
                        out.push(RefInterval {
                            start,
                            last,
                            tables: *chain,
                            depth: depth + 1,
                        });
                        Some((va, va + (span - 1)))
                    }
                    None => Some((va, va + (span - 1))),
                };
                continue;
            }
            if let Some((start, last)) = run.take() {
                out.push(RefInterval {
                    start,
                    last,
                    tables: *chain,
                    depth: depth + 1,
                });
            }
            let next = FrameId::new(u32::try_from(entry.addr().frame_number()).unwrap());
            scan(space, next, depth + 1, va, chain, out);
            chain[depth] = table;
        }
        if let Some((start, last)) = run {
            out.push(RefInterval {
                start,
                last,
                tables: *chain,
                depth: depth + 1,
            });
        }
    }
    let mut out = Vec::new();
    scan(
        space,
        space.root(),
        0,
        0,
        &mut [FrameId::default(); 4],
        &mut out,
    );
    out
}

/// What `ShadowIndex::lookup` must answer for `va` inside `iv`.
fn reference_lookup(space: &AddressSpace, iv: &RefInterval, va: VirtAddr) -> ShadowLookup {
    let mut perms = EffectivePerms::most_permissive();
    for i in 0..iv.depth - 1 {
        let entry = space
            .table(iv.tables[i])
            .entry(va.index_for(Level::WALK_ORDER[i]));
        perms = perms.and_level(entry.flags());
    }
    let level = Level::WALK_ORDER[iv.depth - 1];
    let terminal = space
        .table(iv.tables[iv.depth - 1])
        .entry(va.index_for(level));
    let is_leaf = terminal.is_present()
        && match level {
            Level::Pt => true,
            Level::Pml4 => false,
            _ => terminal.is_huge_leaf(),
        };
    let mut mapping = None;
    if is_leaf {
        perms = perms.and_level(terminal.flags());
        let size = PageSize::from_leaf_level(level).unwrap();
        mapping = Some(MappedRegion {
            start: va.align_down(size.bytes()),
            size,
            flags: terminal.flags(),
            phys: terminal.addr(),
        });
    }
    ShadowLookup {
        terminal_level: level,
        mapping,
        perms,
    }
}

/// A space whose PTs are full (512 leaves), partial, guard-only
/// (non-present leaves) or linked but all-zero, beside 2 MiB leaves.
fn pt_mix_space(rng: &mut StdRng) -> AddressSpace {
    let mut space = AddressSpace::new();
    for _ in 0..rng.gen_range(1u32..10) {
        let site = SITES[rng.gen_range(0..SITES.len())] & !0x1f_ffff;
        let pt = VirtAddr::new_truncate(site + rng.gen_range(0u64..8) * 0x20_0000);
        let flags = if rng.gen_range(0u32..2) == 0 {
            PteFlags::user_rw()
        } else {
            PteFlags::kernel_rx()
        };
        let _ = match rng.gen_range(0u32..5) {
            0 => space.map_range(pt, 512, PageSize::Size4K, flags),
            1 => (0..rng.gen_range(1u64..6)).try_for_each(|_| {
                let page = pt.wrapping_add(rng.gen_range(0u64..512) * 0x1000);
                space.map(page, PageSize::Size4K, flags).map(drop)
            }),
            2 => space
                .map_range(pt, 3, PageSize::Size4K, flags)
                .and_then(|()| {
                    space.protect_range(pt, 3, PageSize::Size4K, PteFlags::none_guard())
                }),
            // A zero leaf value links a PT that holds nothing.
            3 => space.map_at(pt, PhysAddr::new(0), PageSize::Size4K, PteFlags::empty()),
            _ => space.map(pt, PageSize::Size2M, flags).map(drop),
        };
    }
    space
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Shadow index ≡ reference walker — outcome, access list and PSC
    /// evolution — under randomized map/unmap/protect/A-D/probe
    /// interleavings with hardware-style stale PSC state.
    #[test]
    fn shadow_index_is_bit_exact_with_walker(seed in 0u64..1 << 32) {
        drive(seed, 160);
    }

    /// The point query agrees with the walker's view after arbitrary
    /// mutation histories.
    #[test]
    fn shadow_lookup_agrees_with_walker(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ab);
        let mut space = AddressSpace::new();
        for _ in 0..24 {
            let site = SITES[rng.gen_range(0..SITES.len())];
            let size = if rng.gen_range(0u32..3) == 0 {
                PageSize::Size2M
            } else {
                PageSize::Size4K
            };
            let va = VirtAddr::new_truncate(site).align_down(size.bytes());
            let _ = space.map(va, size, PteFlags::user_rw());
        }
        let shadow = ShadowIndex::build(&space);
        let walker = Walker::new();
        for _ in 0..64 {
            let site = SITES[rng.gen_range(0..SITES.len())];
            let va = VirtAddr::new_truncate(site.wrapping_add(rng.gen_range(0u64..0x20_0000)));
            let walk = walker.walk(&space, va);
            let hit = shadow.lookup(&space, va);
            prop_assert_eq!(hit.terminal_level, walk.terminal_level);
            prop_assert_eq!(hit.mapping, walk.mapping);
            if walk.is_mapped() {
                prop_assert_eq!(hit.perms, walk.perms);
            }
        }
    }

    /// Emitting each PT as one interval without reading its slots
    /// resolves exactly like the per-slot scan: same interval count, and
    /// the same `lookup` at every interval boundary and one page either
    /// side of it, over full, partial, guard-only and all-zero PTs.
    #[test]
    fn pt_shortcut_resolves_like_the_per_slot_scan(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5107);
        let space = pt_mix_space(&mut rng);
        let index = ShadowIndex::build(&space);
        let reference = per_slot_intervals(&space);
        prop_assert_eq!(index.len(), reference.len());
        for iv in &reference {
            for edge in [iv.start, iv.last & !0xfff] {
                for va in [edge.wrapping_sub(0x1000), edge, edge.wrapping_add(0x1000)] {
                    let va = VirtAddr::new_truncate(va);
                    let holder = reference
                        .iter()
                        .find(|r| r.start <= va.as_u64() && va.as_u64() <= r.last)
                        .unwrap();
                    prop_assert_eq!(index.lookup(&space, va), reference_lookup(&space, holder, va));
                }
            }
        }
    }

    /// Copy-on-write snapshot isolation: mutating a clone never changes
    /// the parent or a sibling, while unmutated structures stay
    /// physically shared.
    #[test]
    fn cow_snapshots_isolate_clones(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0e0);
        let mut parent = AddressSpace::new();
        for _ in 0..16 {
            let site = SITES[rng.gen_range(0..SITES.len())];
            let _ = parent.map(
                VirtAddr::new_truncate(site),
                PageSize::Size4K,
                PteFlags::user_rw(),
            );
        }
        let parent_regions = parent.iter_regions();

        let mut a = parent.clone();
        let b = parent.clone();
        prop_assert_eq!(a.shared_tables_with(&parent), parent.table_count());

        // Mutate clone A heavily: new mappings, unmaps, A/D churn.
        for _ in 0..32 {
            let site = SITES[rng.gen_range(0..SITES.len())];
            let va = VirtAddr::new_truncate(site.wrapping_add(rng.gen_range(0u64..8) * 0x1000));
            match rng.gen_range(0u32..3) {
                0 => {
                    let _ = a.map(va, PageSize::Size4K, PteFlags::user_rw());
                }
                1 => {
                    let _ = a.unmap(va.align_down(4096), PageSize::Size4K);
                }
                _ => {
                    let _ = a.mark_accessed(va, true);
                }
            }
        }

        // Parent and sibling B are untouched, bit for bit.
        prop_assert_eq!(parent.iter_regions(), parent_regions.clone());
        prop_assert_eq!(b.iter_regions(), parent_regions);
        // The walker agrees: B translates exactly like the parent.
        let walker = Walker::new();
        for &site in &SITES {
            let va = VirtAddr::new_truncate(site);
            let pw = walker.walk(&parent, va);
            let bw = walker.walk(&b, va);
            prop_assert_eq!(pw.mapping, bw.mapping);
            prop_assert_eq!(pw.terminal_level, bw.terminal_level);
        }
    }
}
