//! Property suite pinning the batched page-table writers to the
//! page-by-page loop they replace.
//!
//! `map_pages` / `unmap_pages` (and `map_range` / `unmap_range` on top of
//! them) descend once per leaf table instead of once per page. That is
//! only allowed because the resulting space is indistinguishable from
//! calling `map_at` / `unmap` / `map` once per page in order: the same raw
//! entries in every table, the same tables allocated in the same order
//! (so the same `FrameId`s), the same `mapped_pages`, `epoch` and
//! `shape_epoch`, the same copy-on-write sharing with a fixture the space
//! was cloned from — and, on bad input, the same error after the same
//! partially applied prefix.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use avx_mmu::{
    AddressSpace, FrameId, MappedRegion, MmuError, PageSize, PhysAddr, PteFlags, VirtAddr,
    ENTRIES_PER_TABLE,
};

/// Run starting points: user and kernel halves, runs that start a few
/// pages before a PT (2 MiB) or PD (1 GiB) boundary so they straddle
/// leaf tables, and one site under the guards the fixture plants.
const SITES: [u64; 7] = [
    0x5555_5555_4000,
    0x7f00_001f_c000,      // 4 pages before a PT boundary
    0x6000_3fe0_0000,      // one 2 MiB page before a PD boundary
    0xffff_ffff_8000_0000, // kernel text
    0xffff_ffff_c01f_8000, // module area, straddles a PT boundary
    0xffff_ffff_a1e0_0000,
    0x4000_0000_0000, // the fixture's guard site
];

const FLAGS: [PteFlags; 4] = [
    PteFlags::user_rw(),
    PteFlags::user_ro(),
    PteFlags::kernel_rx(),
    PteFlags::kernel_rw(),
];

/// Every table's raw entries, then the counters, must agree; so must
/// the copy-on-write sharing with the fixture both were cloned from.
fn assert_same_space(batch: &AddressSpace, reference: &AddressSpace, fixture: &AddressSpace) {
    assert_eq!(batch.table_count(), reference.table_count(), "table count");
    for id in 0..batch.table_count() {
        let id = FrameId::new(u32::try_from(id).unwrap());
        let (a, b) = (batch.table(id), reference.table(id));
        assert_eq!(a.live_entries(), b.live_entries(), "{id} live entries");
        for idx in 0..ENTRIES_PER_TABLE {
            assert_eq!(a.entry(idx).raw(), b.entry(idx).raw(), "{id}[{idx}]");
        }
    }
    assert_eq!(
        batch.mapped_pages(),
        reference.mapped_pages(),
        "mapped pages"
    );
    assert_eq!(batch.epoch(), reference.epoch(), "epoch");
    assert_eq!(batch.shape_epoch(), reference.shape_epoch(), "shape epoch");
    assert_eq!(
        batch.shared_tables_with(fixture),
        reference.shared_tables_with(fixture),
        "copy-on-write sharing"
    );
}

/// A random starting space: mixed 4 KiB / 2 MiB mappings plus
/// PROT_NONE guards on huge pages (non-present entries that keep PS).
fn fixture(rng: &mut StdRng) -> AddressSpace {
    let mut space = AddressSpace::new();
    for _ in 0..rng.gen_range(0u32..24) {
        let site = SITES[rng.gen_range(0..SITES.len())];
        let size = if rng.gen_range(0u32..3) == 0 {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        };
        let va = VirtAddr::new_truncate(site + rng.gen_range(0u64..64) * size.bytes());
        let _ = space.map(va, size, FLAGS[rng.gen_range(0..FLAGS.len())]);
    }
    for i in 0..rng.gen_range(0u64..3) {
        let va = VirtAddr::new_truncate(0x4000_0000_0000 + 2 * i * PageSize::Size2M.bytes());
        if space.map(va, PageSize::Size2M, PteFlags::user_rw()).is_ok() {
            space
                .protect(va, PageSize::Size2M, PteFlags::none_guard())
                .unwrap();
        }
    }
    space
}

/// An ordered page list of a few runs of consecutive pages, mostly
/// well-formed; with `faulty`, one page somewhere is made bad
/// (misaligned address or frame, or a HUGE flag on a 4 KiB page).
fn map_list(rng: &mut StdRng, faulty: bool) -> Vec<MappedRegion> {
    let mut pages = Vec::new();
    let mut frame = 0x20_0000u64;
    for _ in 0..rng.gen_range(1u32..5) {
        let size = match rng.gen_range(0u32..8) {
            0 | 1 => PageSize::Size2M,
            _ => PageSize::Size4K,
        };
        let flags = FLAGS[rng.gen_range(0..FLAGS.len())];
        let site = SITES[rng.gen_range(0..SITES.len())] + rng.gen_range(0u64..4) * size.bytes();
        let start = VirtAddr::new_truncate(site).align_down(size.bytes());
        for i in 0..rng.gen_range(1u64..48) {
            frame = frame.next_multiple_of(size.bytes() >> 12);
            pages.push(MappedRegion {
                start: start.wrapping_add(i * size.bytes()),
                size,
                flags,
                phys: PhysAddr::from_frame_number(frame),
            });
            frame += size.bytes() >> 12;
        }
    }
    if faulty {
        let k = rng.gen_range(0..pages.len());
        let page = &mut pages[k];
        match rng.gen_range(0u32..3) {
            0 => page.start = page.start.wrapping_add(0x1000),
            1 => page.phys = PhysAddr::new(page.phys.as_u64() + 0x1000),
            _ => {
                page.size = PageSize::Size4K;
                page.flags |= PteFlags::HUGE;
            }
        }
    }
    pages
}

/// An ordered unmap list: runs over what `space` maps (with holes), plus
/// occasional pages that are not mapped, mapped at another size, or
/// misaligned.
fn unmap_list(rng: &mut StdRng, space: &AddressSpace) -> Vec<(VirtAddr, PageSize)> {
    let regions = space.iter_regions();
    let mut pages = Vec::new();
    let mut i = 0;
    while i < regions.len() {
        if rng.gen_range(0u32..8) != 0 {
            pages.push((regions[i].start, regions[i].size));
        }
        if rng.gen_range(0u32..40) == 0 {
            let base = regions[i].start;
            pages.push(match rng.gen_range(0u32..3) {
                0 => (base, PageSize::Size2M),
                1 => (base.wrapping_add(0x800), PageSize::Size4K),
                _ => (VirtAddr::new_truncate(0x1234_5678_9000), PageSize::Size4K),
            });
        }
        i += 1;
    }
    pages
}

/// The reference: one `map_at` per page, stopping at the first error.
fn map_one_by_one(space: &mut AddressSpace, pages: &[MappedRegion]) -> Result<(), MmuError> {
    for p in pages {
        space.map_at(p.start, p.phys, p.size, p.flags)?;
    }
    Ok(())
}

/// The reference: one `unmap` per page, stopping at the first error.
fn unmap_one_by_one(
    space: &mut AddressSpace,
    pages: &[(VirtAddr, PageSize)],
) -> Result<(), MmuError> {
    for &(va, size) in pages {
        space.unmap(va, size)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `map_pages` then `unmap_pages` on a copy-on-write clone of a
    /// random fixture ≡ the page-by-page loops on a sibling clone: same
    /// result or error, same tables, counters and sharing.
    #[test]
    fn batched_writes_equal_the_page_by_page_loop(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = fixture(&mut rng);
        let mut batch = base.clone();
        let mut reference = base.clone();

        let faulty = rng.gen_range(0u32..3) == 0;
        let pages = map_list(&mut rng, faulty);
        let got = batch.map_pages(pages.iter().copied());
        let want = map_one_by_one(&mut reference, &pages);
        prop_assert_eq!(got, want);
        assert_same_space(&batch, &reference, &base);

        let pages = unmap_list(&mut rng, &batch);
        let got = batch.unmap_pages(pages.iter().copied());
        let want = unmap_one_by_one(&mut reference, &pages);
        prop_assert_eq!(got, want);
        assert_same_space(&batch, &reference, &base);
    }

    /// `map_range` / `unmap_range` ≡ `count` calls of `map` / `unmap`,
    /// including the data-frame cursor (checked through the frame the
    /// next `map` is handed) when the range fails part-way.
    #[test]
    fn ranges_equal_the_page_by_page_loop(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a9e);
        let base = fixture(&mut rng);
        let mut batch = base.clone();
        let mut reference = base.clone();
        for _ in 0..4 {
            let size = if rng.gen_range(0u32..4) == 0 {
                PageSize::Size2M
            } else {
                PageSize::Size4K
            };
            let site = SITES[rng.gen_range(0..SITES.len())];
            let va = VirtAddr::new_truncate(site).align_down(size.bytes());
            let count = rng.gen_range(0u64..40);
            let flags = FLAGS[rng.gen_range(0..FLAGS.len())];
            if rng.gen_range(0u32..3) == 0 {
                let got = batch.unmap_range(va, count, size);
                let want = (0..count)
                    .try_for_each(|i| reference.unmap(va.wrapping_add(i * size.bytes()), size));
                prop_assert_eq!(got, want);
            } else {
                let got = batch.map_range(va, count, size, flags);
                let want = (0..count)
                    .try_for_each(|i| reference.map(va.wrapping_add(i * size.bytes()), size, flags).map(drop));
                prop_assert_eq!(got, want);
            }
            assert_same_space(&batch, &reference, &base);
            let probe = VirtAddr::new_truncate(0x3000_0000_0000);
            prop_assert_eq!(
                batch.map(probe, PageSize::Size4K, PteFlags::user_ro()),
                reference.map(probe, PageSize::Size4K, PteFlags::user_ro())
            );
            batch.unmap(probe, PageSize::Size4K).unwrap();
            reference.unmap(probe, PageSize::Size4K).unwrap();
        }
    }
}

#[test]
fn batch_errors_name_the_first_bad_page() {
    let mut space = AddressSpace::new();
    let va = VirtAddr::new_truncate(0x7f00_0000_0000);
    space
        .map_range(va, 4, PageSize::Size4K, PteFlags::user_rw())
        .unwrap();
    let pages = (2..6).map(|i| MappedRegion {
        start: va.wrapping_add(i * 0x1000),
        size: PageSize::Size4K,
        flags: PteFlags::user_rw(),
        phys: PhysAddr::new(0x40_0000 + i * 0x1000),
    });
    assert_eq!(
        space.map_pages(pages),
        Err(MmuError::AlreadyMapped {
            addr: va.as_u64() + 0x2000
        })
    );
    assert_eq!(space.mapped_pages(), 4, "nothing placed before the error");
    assert_eq!(
        space.unmap_pages([(va, PageSize::Size4K), (va, PageSize::Size4K)]),
        Err(MmuError::NotMapped { addr: va.as_u64() })
    );
    assert_eq!(space.mapped_pages(), 3, "the first unmap stays applied");
}
