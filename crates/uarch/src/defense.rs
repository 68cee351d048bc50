//! Victim-side ASLR defenses at the translation layer.
//!
//! Two defense mechanisms from the post-paper literature are modelled
//! here, both installed on a [`crate::Machine`] (never on a shared
//! fixture — a defended victim defends its *own* copy-on-write space):
//!
//! * [`AddressMask`] — an Oreo-style masked address space: the
//!   architecturally visible address the attacker issues is decoupled
//!   from the address the page-table walk actually resolves, by an
//!   involutive permutation of the randomization slots. Kernel-side
//!   accesses ([`crate::Machine::touch_as_kernel`]) keep the unmasked
//!   view, so the timing picture the attacker assembles no longer
//!   corresponds to the architectural layout.
//! * [`Rerandomizer`] — live layout re-randomization: the protected
//!   image is periodically re-slid to a fresh random slot *while the
//!   attack is running*, on a probe-count trigger. This is drift in
//!   *layout*, exactly analogous to [`crate::NoiseProfile::Drift`]'s
//!   drift in noise: a probe-indexed trigger instead of a probe-indexed
//!   sigma ramp, turning every scan into a race.
//!
//! Both draw their randomness from their own SplitMix64 streams seeded
//! at install time — never from the machine's measurement RNG — so a
//! defended machine's *noise* stream is bit-identical to an undefended
//! one's, and re-randomization timing is reproducible from the seed.

use avx_mmu::{AddressSpace, MappedRegion, PageSize, PhysAddr, PteFlags, VirtAddr};

/// SplitMix64 — the defense layer's self-contained seed expander (the
/// same mixer the campaign/fleet seed chokepoints use, duplicated here
/// because `avx-uarch` sits below `avx-channel` in the crate DAG).
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An involutive slot permutation over one randomization region:
/// addresses inside `[start, end)` have their slot index XORed with a
/// fixed secret; addresses outside pass through unchanged (totality —
/// every probe of a masked space still classifies).
///
/// The XOR key is nonzero and the slot count a power of two, so the
/// permutation is a bijection of the region onto itself and its own
/// inverse: `apply(apply(va)) == va`. Intra-slot offsets (including the
/// 4 KiB pages inside a 2 MiB slot) are preserved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddressMask {
    start: u64,
    end: u64,
    slot_shift: u32,
    xor_slots: u64,
}

impl AddressMask {
    /// Builds a mask over `[start, end)` with `slot_align`-sized slots,
    /// XOR key drawn from `seed` (never zero — a zero key would be the
    /// identity, i.e. no defense).
    ///
    /// # Panics
    ///
    /// Panics if `slot_align` is not a power of two, the region is not
    /// slot-aligned, or the slot count is not a power of two ≥ 2 (the
    /// XOR must stay inside the region).
    #[must_use]
    pub fn new(start: u64, end: u64, slot_align: u64, seed: u64) -> Self {
        assert!(slot_align.is_power_of_two(), "slot align must be 2^k");
        assert!(end > start, "empty mask region");
        let span = end - start;
        assert_eq!(span % slot_align, 0, "region must be slot-aligned");
        let slots = span / slot_align;
        assert!(
            slots.is_power_of_two() && slots >= 2,
            "slot count must be a power of two >= 2 for an in-region XOR"
        );
        let xor_slots = 1 + splitmix64(seed) % (slots - 1);
        Self {
            start,
            end,
            slot_shift: slot_align.trailing_zeros(),
            xor_slots,
        }
    }

    /// The XOR key in slots (test visibility).
    #[must_use]
    pub fn xor_slots(&self) -> u64 {
        self.xor_slots
    }

    /// Whether `va` falls inside the masked region.
    #[must_use]
    pub fn covers(&self, va: VirtAddr) -> bool {
        let raw = va.as_u64();
        raw >= self.start && raw < self.end
    }

    /// The masked view of `va`: slot-XOR inside the region, identity
    /// outside. Total — never panics, for any address.
    #[must_use]
    pub fn apply(&self, va: VirtAddr) -> VirtAddr {
        if !self.covers(va) {
            return va;
        }
        let off = va.as_u64() - self.start;
        let masked = off ^ (self.xor_slots << self.slot_shift);
        VirtAddr::new_truncate(self.start + masked)
    }
}

/// Re-draws a re-slide makes when its drawn slot collides with another
/// mapping, before the image goes back to its current base.
pub const RESLIDE_REDRAWS: u32 = 8;

/// One captured page of the protected image: offset from the image
/// base plus everything needed to re-map it elsewhere.
#[derive(Clone, Copy, Debug)]
struct CapturedPage {
    offset: u64,
    size: PageSize,
    flags: PteFlags,
    phys: PhysAddr,
}

/// Live re-randomization of one region's image: every `period` executed
/// ops, the captured pages are unmapped and re-mapped at a fresh random
/// slot inside the region (same physical frames — the "copy" is free in
/// the model), and the machine performs the TLB shootdown an OS would.
///
/// All mutation goes through [`AddressSpace::unmap_pages`] /
/// [`AddressSpace::map_pages`], the batched leaf writer, so a
/// re-randomization event bumps the space's `shape_epoch` like any other
/// mutation and the shadow translation index rebuilds itself lazily on
/// the next walk.
///
/// When the drawn slot collides with something else mapped in the
/// region (a module the victim's schedule loaded, say), the image is
/// placed by re-drawing from the same SplitMix64 stream, up to
/// [`RESLIDE_REDRAWS`] times, and otherwise goes back to its current
/// base. Either way the event counts.
#[derive(Clone, Debug)]
pub struct Rerandomizer {
    region_start: u64,
    region_end: u64,
    slot_align: u64,
    period: u64,
    seed: u64,
    layout: Vec<CapturedPage>,
    image_base: u64,
    image_span: u64,
    ops_seen: u64,
    generation: u64,
}

impl Rerandomizer {
    /// Captures the image currently mapped inside `[start, end)` of
    /// `space`. Returns `None` when the region holds no pages (nothing
    /// to re-randomize — e.g. a KPTI kernel's hidden image).
    ///
    /// # Panics
    ///
    /// Panics if `slot_align` is not a power of two or `period` is zero.
    #[must_use]
    pub fn capture(
        space: &AddressSpace,
        start: u64,
        end: u64,
        slot_align: u64,
        period: u64,
        seed: u64,
    ) -> Option<Self> {
        assert!(slot_align.is_power_of_two(), "slot align must be 2^k");
        assert!(period > 0, "re-randomization period must be positive");
        let pages: Vec<_> = space
            .iter_regions()
            .into_iter()
            .filter(|r| r.start.as_u64() >= start && r.start.as_u64() < end)
            .collect();
        let image_base = pages.iter().map(|r| r.start.as_u64()).min()?;
        let image_end = pages
            .iter()
            .map(|r| r.start.as_u64() + r.size.bytes())
            .max()?;
        let image_span = (image_end - image_base).div_ceil(slot_align) * slot_align;
        let layout = pages
            .iter()
            .map(|r| CapturedPage {
                offset: r.start.as_u64() - image_base,
                size: r.size,
                flags: r.flags,
                phys: r.phys,
            })
            .collect();
        Some(Self {
            region_start: start,
            region_end: end,
            slot_align,
            period,
            seed,
            layout,
            image_base,
            image_span,
            ops_seen: 0,
            generation: 0,
        })
    }

    /// Current base of the protected image (moves on every firing).
    #[must_use]
    pub fn image_base(&self) -> u64 {
        self.image_base
    }

    /// Completed re-randomization events.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Probe-count trigger period.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Counts one executed op; when the trigger fires, re-slides the
    /// image inside `space` and returns `true` (the caller performs the
    /// TLB shootdown). Deterministic in (`seed`, firing index); draws
    /// nothing from any shared RNG.
    pub fn tick(&mut self, space: &mut AddressSpace) -> bool {
        self.ops_seen += 1;
        if !self.ops_seen.is_multiple_of(self.period) {
            return false;
        }
        let mut draw = splitmix64(self.seed ^ splitmix64(self.generation.wrapping_add(1)));
        let mut target = self.slot_base(draw);
        self.generation += 1;
        if target == self.image_base {
            // Same slot drawn: the event still happened (epoch bump +
            // shootdown), the slide just happens to be identity.
            return true;
        }
        space
            .unmap_pages(self.pages_at(self.image_base).map(|p| (p.start, p.size)))
            .expect("captured pages are mapped");
        for _ in 0..=RESLIDE_REDRAWS {
            if self.place(space, target) {
                self.image_base = target;
                return true;
            }
            draw = splitmix64(draw);
            target = self.slot_base(draw);
        }
        let restored = self.place(space, self.image_base);
        assert!(restored, "the image's own slots were just vacated");
        true
    }

    /// The slot a draw selects for the image.
    fn slot_base(&self, draw: u64) -> u64 {
        let slots = (self.region_end - self.region_start - self.image_span) / self.slot_align;
        self.region_start + (draw % (slots + 1)) * self.slot_align
    }

    /// The image's pages with its base at `base`.
    fn pages_at(&self, base: u64) -> impl Iterator<Item = MappedRegion> + '_ {
        self.layout.iter().map(move |page| MappedRegion {
            start: VirtAddr::new_truncate(base + page.offset),
            size: page.size,
            flags: page.flags,
            phys: page.phys,
        })
    }

    /// Maps the image at `base`. If that collides with another mapping,
    /// removes the pages it placed and returns `false`.
    fn place(&self, space: &mut AddressSpace, base: u64) -> bool {
        let before = space.mapped_pages();
        if space.map_pages(self.pages_at(base)).is_ok() {
            return true;
        }
        let placed = space.mapped_pages() - before;
        space
            .unmap_pages(self.pages_at(base).take(placed).map(|p| (p.start, p.size)))
            .expect("the pages this placement mapped are mapped");
        false
    }
}

/// The defenses installed on one victim machine. Absent (`None` on the
/// machine) means the bit-exact undefended path — the container itself
/// is only constructed when at least one mechanism is active.
#[derive(Clone, Debug, Default)]
pub struct VictimDefense {
    /// Masked-translation layers, one per protected region (regions
    /// must be disjoint; the first covering mask wins).
    pub masks: Vec<AddressMask>,
    /// Live re-randomizers, one per protected image.
    pub rerandomizers: Vec<Rerandomizer>,
    /// Completed re-randomization events across all images.
    pub rerandomizations: u64,
}

impl VictimDefense {
    /// A defense with no mechanisms (useful as a builder base).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a masked-translation layer.
    #[must_use]
    pub fn with_mask(mut self, mask: AddressMask) -> Self {
        self.masks.push(mask);
        self
    }

    /// Adds a live re-randomizer.
    #[must_use]
    pub fn with_rerandomizer(mut self, r: Rerandomizer) -> Self {
        self.rerandomizers.push(r);
        self
    }

    /// Whether any mechanism is active (an empty container is a no-op
    /// and need not be installed at all).
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.masks.is_empty() || !self.rerandomizers.is_empty()
    }

    /// The masked view of `va` under the first covering mask (identity
    /// when none covers it).
    #[must_use]
    pub fn masked(&self, va: VirtAddr) -> VirtAddr {
        for mask in &self.masks {
            if mask.covers(va) {
                return mask.apply(va);
            }
        }
        va
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REGION_START: u64 = 0xffff_ffff_8000_0000;
    const REGION_END: u64 = 0xffff_ffff_c000_0000;
    const ALIGN: u64 = 0x20_0000;

    fn mask() -> AddressMask {
        AddressMask::new(REGION_START, REGION_END, ALIGN, 7)
    }

    #[test]
    fn mask_is_an_involution_over_the_region() {
        let m = mask();
        for slot in [0u64, 1, 7, 255, 511] {
            for intra in [0u64, 0x1000, 0x1f_f000] {
                let va = VirtAddr::new_truncate(REGION_START + slot * ALIGN + intra);
                let masked = m.apply(va);
                assert!(m.covers(masked), "mask stays in-region");
                assert_eq!(m.apply(masked), va, "involution");
                assert_eq!(
                    masked.as_u64() & (ALIGN - 1),
                    intra,
                    "intra-slot offset preserved"
                );
            }
        }
    }

    #[test]
    fn mask_is_identity_outside_the_region() {
        let m = mask();
        for raw in [0u64, 0x5555_5555_4000, REGION_START - 0x1000, REGION_END] {
            let va = VirtAddr::new_truncate(raw);
            assert_eq!(m.apply(va), va);
        }
    }

    #[test]
    fn mask_key_is_never_zero_and_seed_dependent() {
        for seed in 0..64u64 {
            let m = AddressMask::new(REGION_START, REGION_END, ALIGN, seed);
            assert!(m.xor_slots() > 0 && m.xor_slots() < 512);
        }
        let a = AddressMask::new(REGION_START, REGION_END, ALIGN, 1);
        let b = AddressMask::new(REGION_START, REGION_END, ALIGN, 2);
        assert_ne!(a.xor_slots(), b.xor_slots());
    }

    #[test]
    fn mask_is_a_bijection_of_the_slots() {
        let m = mask();
        let mut seen = std::collections::HashSet::new();
        for slot in 0..512u64 {
            let va = VirtAddr::new_truncate(REGION_START + slot * ALIGN);
            assert!(seen.insert(m.apply(va).as_u64()), "no collisions");
        }
        assert_eq!(seen.len(), 512);
    }

    fn image_space(base_slot: u64, slots: u64) -> AddressSpace {
        let mut space = AddressSpace::new();
        for s in 0..slots {
            space
                .map(
                    VirtAddr::new_truncate(REGION_START + (base_slot + s) * ALIGN),
                    PageSize::Size2M,
                    PteFlags::kernel_rx(),
                )
                .unwrap();
        }
        space
    }

    #[test]
    fn rerandomizer_moves_the_image_and_bumps_epochs() {
        let mut space = image_space(8, 4);
        let shape_before = space.shape_epoch();
        let mut r = Rerandomizer::capture(&space, REGION_START, REGION_END, ALIGN, 3, 42).unwrap();
        assert_eq!(r.image_base(), REGION_START + 8 * ALIGN);

        assert!(!r.tick(&mut space));
        assert!(!r.tick(&mut space));
        assert!(r.tick(&mut space), "fires on the period boundary");
        assert_eq!(r.generation(), 1);
        assert!(space.shape_epoch() > shape_before, "mutation bumps epoch");
        // The image is whole at its new base, gone from the old one.
        let new_base = r.image_base();
        for s in 0..4u64 {
            assert!(space
                .lookup(VirtAddr::new_truncate(new_base + s * ALIGN))
                .is_some());
        }
        if new_base != REGION_START + 8 * ALIGN {
            assert!(space
                .lookup(VirtAddr::new_truncate(REGION_START + 8 * ALIGN))
                .is_none());
        }
        assert_eq!(space.mapped_pages(), 4, "page count conserved");
    }

    #[test]
    fn rerandomizer_preserves_physical_frames() {
        let mut space = image_space(0, 2);
        let phys0 = space
            .lookup(VirtAddr::new_truncate(REGION_START))
            .unwrap()
            .phys;
        let mut r = Rerandomizer::capture(&space, REGION_START, REGION_END, ALIGN, 1, 9).unwrap();
        for _ in 0..8 {
            assert!(r.tick(&mut space));
        }
        let now = space
            .lookup(VirtAddr::new_truncate(r.image_base()))
            .unwrap()
            .phys;
        assert_eq!(now, phys0, "re-randomization moves, never reallocates");
    }

    #[test]
    fn rerandomizer_is_deterministic_in_seed_and_schedule() {
        let trajectory = |seed: u64| {
            let mut space = image_space(100, 20);
            let mut r =
                Rerandomizer::capture(&space, REGION_START, REGION_END, ALIGN, 2, seed).unwrap();
            let mut bases = Vec::new();
            for _ in 0..20 {
                if r.tick(&mut space) {
                    bases.push(r.image_base());
                }
            }
            bases
        };
        assert_eq!(trajectory(5), trajectory(5), "same seed, same walk");
        assert_ne!(trajectory(5), trajectory(6), "different seed diverges");
        assert_eq!(trajectory(5).len(), 10, "every period boundary fires");
    }

    #[test]
    fn rerandomizer_never_slides_onto_another_mapping() {
        // A 2-slot image in an 8-slot region whose other slots are
        // taken (except slots 6..8 in the first space): colliding draws
        // are re-drawn, and with no free window the image stays put.
        let region_end = REGION_START + 8 * ALIGN;
        for free_tail in [true, false] {
            let mut space = image_space(0, 2);
            let obstacles = if free_tail { 2..6 } else { 2..8 };
            for slot in obstacles.clone() {
                space
                    .map(
                        VirtAddr::new_truncate(REGION_START + slot * ALIGN),
                        PageSize::Size2M,
                        PteFlags::kernel_rw(),
                    )
                    .unwrap();
            }
            // Capture just the image, then let it slide over all 8 slots.
            let mut r =
                Rerandomizer::capture(&space, REGION_START, REGION_START + 2 * ALIGN, ALIGN, 1, 3)
                    .unwrap();
            r.region_end = region_end;
            let pages = space.mapped_pages();
            for _ in 0..32 {
                assert!(r.tick(&mut space), "every firing counts");
                let base = r.image_base();
                assert!(free_tail || base == REGION_START, "nowhere else to go");
                for s in 0..2 {
                    let page = space
                        .lookup(VirtAddr::new_truncate(base + s * ALIGN))
                        .unwrap();
                    assert_eq!(
                        page.flags,
                        PteFlags::kernel_rx() | PteFlags::HUGE,
                        "image whole"
                    );
                }
                for slot in obstacles.clone() {
                    let page = space
                        .lookup(VirtAddr::new_truncate(REGION_START + slot * ALIGN))
                        .unwrap();
                    assert!(page.flags.is_writable(), "obstacle {slot} untouched");
                }
                assert_eq!(space.mapped_pages(), pages, "page count conserved");
            }
            assert_eq!(r.generation(), 32);
        }
    }

    #[test]
    fn rerandomizer_capture_of_empty_region_is_none() {
        let space = AddressSpace::new();
        assert!(Rerandomizer::capture(&space, REGION_START, REGION_END, ALIGN, 4, 0).is_none());
    }

    #[test]
    fn victim_defense_routing() {
        let d = VictimDefense::new();
        assert!(!d.is_active());
        let va = VirtAddr::new_truncate(REGION_START + 3 * ALIGN);
        assert_eq!(d.masked(va), va, "no mask: identity");
        let d = d.with_mask(mask());
        assert!(d.is_active());
        assert_ne!(d.masked(va), va, "mask engaged in-region");
        assert_eq!(
            d.masked(VirtAddr::new_truncate(0x1000)),
            VirtAddr::new_truncate(0x1000),
            "out-of-region identity"
        );
    }
}
