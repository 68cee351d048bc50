//! The execution engine: one simulated core running masked ops.
//!
//! [`Machine`] owns an [`AddressSpace`] plus the translation caches and
//! counters, and executes [`MaskedOp`]s with the timing semantics the
//! paper measures:
//!
//! * valid, accessible, TLB-hit access → base cost only (Fig. 2 USER-M),
//! * invalid or inaccessible translation → microcode assist, faults
//!   suppressed for masked-out lanes (P1), retried walks for non-present
//!   pages (Fig. 2 PMC column),
//! * masked store to a clean writable page → dirty-bit assist whose cost
//!   equals the kernel-mapped load cost (the §IV-B calibration identity),
//! * TLB hit vs miss and walk depth modulate latency (P2–P4),
//! * masked stores run ~16–18 cycles faster than loads under assist (P6).

use avx_mmu::{
    AddressSpace, Level, PagingStructureCache, ShadowIndex, ShadowWalk, Tlb, TlbEntry, TlbLookup,
    VirtAddr, WalkOutcome, Walker,
};

use crate::defense::VictimDefense;
use crate::lines::PteLineCache;
use crate::masked::{ElemWidth, Fault, MaskedOp, OpKind};
use crate::memory::SparseMemory;
use crate::noise::{NoiseModel, NoiseSchedule};
use crate::observables::ObservablesVersion;
use crate::pmc::{Event, PmcBank};
use crate::profile::CpuProfile;
use crate::sched::VictimSchedule;
use crate::stream::{quantize_cycles, NoiseStream};

/// Noise-block length of the v2 batched path: how many consecutive
/// probes share one precomputed block of noise samples. Pinned equal to
/// the probe pipeline's batch tile (`ProbeStrategy::BATCH_TILE` in
/// `avx-channel`, asserted by a cross-crate test there) so blocks align
/// with `AddrRange::tiles()` and every sweep engine fills whole blocks.
pub const NOISE_BLOCK: usize = 16;

/// Footprint of the probe ops built by `MaskedOp::probe_load` /
/// `probe_store`: 8 dword lanes, so the last lane starts 28 bytes past
/// the base address.
const PROBE_LAST_LANE_OFFSET: u64 = 7 * ElemWidth::Dword.bytes();

/// Result of executing one masked operation.
#[derive(Clone, Debug)]
pub struct MaskedOutcome {
    /// Measured latency in cycles (noise included).
    pub cycles: u64,
    /// Architecturally delivered fault, if any unmasked lane touched a
    /// bad page. `None` for suppressed (masked-out) problems.
    pub fault: Option<Fault>,
    /// A microcode assist fired (invalid/inaccessible translation).
    pub assist: bool,
    /// The dirty-bit assist fired (store to a clean writable page).
    pub dirty_assist: bool,
    /// Completed page-table walks during this op.
    pub walks_completed: u8,
    /// TLB outcome for the first touched page (`None` = miss/bypass).
    pub tlb_hit: Option<TlbLookup>,
    /// Walk-termination level for the first touched page, when a walk ran.
    pub terminal_level: Option<Level>,
    /// Loaded bytes (loads only): `lanes × width` bytes, zeros in
    /// masked-out lanes, zeros for suppressed pages.
    pub data: Option<Vec<u8>>,
}

/// Per-page translation verdict, internal to the engine.
struct PageVerdict {
    present: bool,
    user: bool,
    writable: bool,
    dirty: bool,
    phys_frame: Option<u64>,
    tlb_hit: Option<TlbLookup>,
    terminal_level: Option<Level>,
    walks: u8,
    cycles: f64,
}

/// Running per-op accounting shared by the scalar ([`Machine::execute`])
/// and batched ([`Machine::execute_batch`]) paths — one source of truth
/// for the timing/PMC/assist semantics, so the two paths cannot drift.
struct OpAccounting {
    cycles: f64,
    assist: bool,
    dirty_assist: bool,
    walks_total: u8,
    user_nonpresent: bool,
    primary_tlb: Option<TlbLookup>,
    primary_level: Option<Level>,
    first_page_seen: bool,
}

impl OpAccounting {
    fn new(base_cycles: f64) -> Self {
        Self {
            cycles: base_cycles,
            assist: false,
            dirty_assist: false,
            walks_total: 0,
            user_nonpresent: false,
            primary_tlb: None,
            primary_level: None,
            first_page_seen: false,
        }
    }
}

/// One simulated core: address space + TLB + PSC + PTE-line cache +
/// counters + clock.
///
/// ```
/// use avx_uarch::{CpuProfile, Machine, MaskedOp};
/// use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};
///
/// # fn main() -> Result<(), avx_mmu::MmuError> {
/// let mut space = AddressSpace::new();
/// let page = VirtAddr::new(0x5555_5555_4000)?;
/// space.map(page, PageSize::Size4K, PteFlags::user_rw())?;
///
/// let mut m = Machine::new(CpuProfile::ice_lake_i7_1065g7(), space, 42);
/// let out = m.execute(MaskedOp::probe_load(page));
/// assert!(out.fault.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Machine {
    profile: CpuProfile,
    space: AddressSpace,
    tlb: Tlb,
    psc: PagingStructureCache,
    lines: PteLineCache,
    walker: Walker,
    /// Epoch-cached shadow translation index; rebuilt lazily whenever
    /// the address space's *walk shape* mutates (keyed on
    /// [`AddressSpace::shape_epoch`] — flags-only PTE rewrites such as
    /// A/D-bit settling deliberately do not invalidate it, because the
    /// index reads entry values live).
    shadow: Option<ShadowIndex>,
    /// Interval cursor of the last shadow lookup — sweeps touch
    /// consecutive intervals, making the common lookup O(1).
    shadow_hint: usize,
    /// `false` forces the reference walker (the bit-exactness property
    /// suites compare the two paths).
    shadow_enabled: bool,
    pmc: PmcBank,
    mem: SparseMemory,
    /// Measurement noise: model, drift trajectory, probe index,
    /// observables regime and RNG. Translation never touches it, which
    /// is what lets [`Machine::cost_batch_into`] compute the same costs
    /// without drawing.
    noise: NoiseStream,
    /// Victim-side ASLR defenses ([`crate::defense`]). `None` — the
    /// default — is the bit-exact undefended engine: no per-op check
    /// beyond one `Option` discriminant read, no RNG interaction, no
    /// translation rewriting.
    defense: Option<VictimDefense>,
    /// Event-driven victim environment ([`crate::sched`]). `None` —
    /// the default — is the bit-exact open-loop engine: no clock
    /// reads, no per-op work beyond one `Option` discriminant read.
    sched: Option<VictimSchedule>,
    tsc: u64,
}

impl Machine {
    /// Creates a machine over `space` with the profile's caches and noise.
    #[must_use]
    pub fn new(profile: CpuProfile, space: AddressSpace, seed: u64) -> Self {
        let tlb = Tlb::new(profile.tlb);
        let psc = PagingStructureCache::new(profile.psc);
        let noise = NoiseStream::new(&profile.timing, seed);
        Self {
            profile,
            space,
            tlb,
            psc,
            lines: PteLineCache::default(),
            walker: Walker::new(),
            shadow: None,
            shadow_hint: 0,
            shadow_enabled: true,
            pmc: PmcBank::new(),
            mem: SparseMemory::new(),
            noise,
            defense: None,
            sched: None,
            tsc: 0,
        }
    }

    /// The CPU profile in use.
    #[must_use]
    pub fn profile(&self) -> &CpuProfile {
        &self.profile
    }

    /// Read access to the address space.
    #[must_use]
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Mutable access to the address space (OS-model surgery). Note that
    /// changing mappings does **not** flush the TLB — exactly like
    /// hardware; call [`Machine::invlpg`] as an OS would.
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// The performance counters.
    #[must_use]
    pub fn pmc(&self) -> &PmcBank {
        &self.pmc
    }

    /// Mutable counters (reset between experiments).
    pub fn pmc_mut(&mut self) -> &mut PmcBank {
        &mut self.pmc
    }

    /// Cumulative cycle count of executed operations.
    #[must_use]
    pub fn elapsed_cycles(&self) -> u64 {
        self.tsc
    }

    /// Advances the clock without executing anything (models attack loop
    /// overhead around the timed instruction).
    pub fn spend_cycles(&mut self, cycles: u64) {
        self.tsc += cycles;
    }

    /// Replaces the noise model (tests use [`NoiseModel::none`]) and
    /// clears any drift schedule: an explicit model is stationary.
    pub fn set_noise(&mut self, noise: NoiseModel) {
        self.noise.set_model(noise);
    }

    /// The active stationary noise model (for a drifting environment,
    /// the model in effect before the ramp's onset).
    #[must_use]
    pub fn noise(&self) -> NoiseModel {
        self.noise.model()
    }

    /// Installs (or clears) a probe-indexed noise trajectory. The
    /// schedule interpolates on the machine's op counter, so a freshly
    /// built victim drifts at the same point of every identically-seeded
    /// attack run.
    pub fn set_noise_schedule(&mut self, schedule: Option<NoiseSchedule>) {
        self.noise.set_schedule(schedule);
    }

    /// The installed noise trajectory, if the environment drifts.
    #[must_use]
    pub fn noise_schedule(&self) -> Option<NoiseSchedule> {
        self.noise.schedule()
    }

    /// The machine's measurement-noise state. Clone it to measure
    /// recorded costs exactly as this machine would have
    /// ([`Machine::cost_batch_into`]).
    #[must_use]
    pub fn noise_stream(&self) -> &NoiseStream {
        &self.noise
    }

    /// Replaces the whole measurement-noise state — model, drift,
    /// observables regime and RNG position.
    pub fn set_noise_stream(&mut self, noise: NoiseStream) {
        self.noise = noise;
    }

    /// Selects the noise-observables regime. V1 (the construction
    /// default) is the bit-exact historical stream; V2 is the batched
    /// ziggurat kernel — same distribution, different (cheaper) draws.
    /// Switching mid-run is supported but changes the stream from that
    /// point on, so campaigns set it once at machine construction.
    pub fn set_observables(&mut self, observables: ObservablesVersion) {
        self.noise.set_observables(observables);
    }

    /// The active noise-observables regime.
    #[must_use]
    pub fn observables(&self) -> ObservablesVersion {
        self.noise.observables()
    }

    /// Switches to a named noise environment: the preset's factors are
    /// applied to this machine's profile baseline anchors. A
    /// [`crate::NoiseProfile::Drift`] profile additionally installs its
    /// probe-indexed [`NoiseSchedule`] (see
    /// [`Machine::set_noise_schedule`]); stationary presets clear it.
    ///
    /// ```
    /// use avx_mmu::AddressSpace;
    /// use avx_uarch::{CpuProfile, Machine, NoiseProfile};
    ///
    /// let mut machine = Machine::new(
    ///     CpuProfile::alder_lake_i5_12400f(),
    ///     AddressSpace::new(),
    ///     7,
    /// );
    /// machine.set_noise_profile(NoiseProfile::LaptopDvfs);
    /// assert_eq!(
    ///     machine.noise(),
    ///     NoiseProfile::LaptopDvfs.model_for(&machine.profile().timing),
    /// );
    /// ```
    pub fn set_noise_profile(&mut self, profile: crate::noise::NoiseProfile) {
        self.noise.set_profile(profile, &self.profile.timing);
    }

    /// Installs (or removes) the victim-side defense layer. Installing
    /// `None` — or never calling this — is the bit-exact undefended
    /// engine; a defended machine defends its *own* address space (the
    /// campaign layer hands every machine a copy-on-write snapshot, so
    /// shared fixtures are never touched).
    pub fn set_defense(&mut self, defense: Option<VictimDefense>) {
        self.defense = defense.filter(VictimDefense::is_active);
    }

    /// The installed defense layer, if any.
    #[must_use]
    pub fn defense(&self) -> Option<&VictimDefense> {
        self.defense.as_ref()
    }

    /// Completed live re-randomization events across all protected
    /// images (0 without a [`crate::defense::Rerandomizer`]).
    #[must_use]
    pub fn rerandomizations(&self) -> u64 {
        self.defense.as_ref().map_or(0, |d| d.rerandomizations)
    }

    /// The defense's view of an attacker-issued page address: masked
    /// translation rewrites it, everything else (and the undefended
    /// machine) is identity.
    #[inline]
    fn defended_page(&self, page: VirtAddr) -> VirtAddr {
        match &self.defense {
            Some(d) => d.masked(page),
            None => page,
        }
    }

    /// Advances every live re-randomizer by one executed op; on a
    /// firing, performs the TLB shootdown an OS would after moving the
    /// image (non-global flush + paging-structure caches). Runs before
    /// the op's translations, so a firing is visible to the very op
    /// that triggered it — the mid-scan race the defense creates.
    #[inline]
    fn defense_tick(&mut self) {
        let Some(defense) = &mut self.defense else {
            return;
        };
        if defense.rerandomizers.is_empty() {
            return;
        }
        let mut fired = false;
        for r in &mut defense.rerandomizers {
            if r.tick(&mut self.space) {
                defense.rerandomizations += 1;
                fired = true;
            }
        }
        if fired {
            self.tlb.flush(false);
            self.psc.flush_all();
        }
    }

    /// Installs (or removes) the victim's event schedule. Installing
    /// `None` — or never calling this, or installing a schedule with
    /// an empty queue — is the bit-exact open-loop engine: the per-op
    /// hook reduces to one `Option` discriminant read and the machine
    /// never reads the virtual wall clock at all.
    pub fn set_victim_schedule(&mut self, sched: Option<VictimSchedule>) {
        self.sched = sched.filter(VictimSchedule::is_active);
    }

    /// The installed victim schedule, if the environment is
    /// event-driven.
    #[must_use]
    pub fn victim_schedule(&self) -> Option<&VictimSchedule> {
        self.sched.as_ref()
    }

    /// Advances the victim's wall clock by one observed op and applies
    /// any due events. Runs before [`Machine::defense_tick`] at every
    /// op site (scalar and both batch paths): environment events are
    /// the world the op executes in, defenses react inside that world.
    #[inline]
    fn sched_tick(&mut self) {
        if self.sched.is_some() {
            self.sched_advance();
        }
    }

    /// The out-of-line slow path of [`Machine::sched_tick`]: pops all
    /// due events in `(tick, insertion-seq)` order and routes their
    /// effects through the existing chokepoints — noise-shaped events
    /// re-resolve the stationary model via [`Machine::set_noise`] (the
    /// same swap site every preset change uses), space-shaped events
    /// mutate [`Machine::space`] through `map_range`/`unmap_range` (the
    /// batched leaf writer) followed by the same TLB shootdown a defense
    /// firing performs.
    fn sched_advance(&mut self) {
        let due = self.sched.as_mut().is_some_and(VictimSchedule::advance_op);
        if !due {
            return;
        }
        let mut sched = self.sched.take().expect("checked due above");
        let mut noise_dirty = false;
        let mut space_dirty = false;
        while let Some(event) = sched.pop_due() {
            noise_dirty |= sched.apply_env_event(event);
            space_dirty |= sched.apply_space_event(event, &mut self.space);
        }
        if noise_dirty {
            let model = sched.effective_model(&self.profile.timing);
            self.set_noise(model);
        }
        if space_dirty {
            self.tlb.flush(false);
            self.psc.flush_all();
        }
        self.sched = Some(sched);
    }

    /// Flushes the whole TLB (CR3 reload). Global entries survive when
    /// `keep_global`.
    pub fn flush_tlb(&mut self, keep_global: bool) {
        self.tlb.flush(keep_global);
        if !keep_global {
            self.psc.flush_all();
        }
    }

    /// `INVLPG`: invalidates the TLB entry and paging-structure-cache
    /// entries for `va`. PTE lines stay in the data caches (they are
    /// ordinary memory), matching the §III-B P3 experiment setup.
    pub fn invlpg(&mut self, va: VirtAddr) {
        self.tlb.invlpg(va);
        self.psc.invlpg(va);
    }

    /// User-level eviction of the translation for `va` (Gras-style): the
    /// attacker touches thousands of own pages, which as a side effect
    /// also thrashes the paging-structure caches and the cached PTE
    /// lines. This is the "TLB eviction to reduce noise" of the paper's
    /// TLB attack (P4) and produces the *cold-walk* timings (381 cycles
    /// in §III-B, the ≈430-cycle idle band of Fig. 6).
    pub fn evict_translation(&mut self, va: VirtAddr) {
        // The eviction targets the translation the attacker's probes
        // actually exercise — under masked translation, the masked one.
        let va = self.defended_page(va);
        self.tlb.evict_address(va);
        self.psc.flush_all();
        self.lines.flush();
    }

    /// Disables (or re-enables) the shadow translation index, forcing
    /// every walk through the reference [`Walker`]. The two paths are
    /// observably identical — this switch exists so the property suites
    /// can *prove* that by running both against the same op sequence.
    pub fn set_shadow_enabled(&mut self, enabled: bool) {
        self.shadow_enabled = enabled;
    }

    /// One page-table walk through the shadow fast path (rebuilding the
    /// index if the space mutated) or the reference walker.
    fn walk_shadowed(&mut self, va: VirtAddr, use_psc: bool) -> WalkOutcome {
        if self.shadow_enabled {
            let current = matches!(&self.shadow, Some(s) if s.is_current(&self.space));
            if !current {
                self.shadow = Some(ShadowIndex::build(&self.space));
            }
            let shadow = self.shadow.as_ref().expect("just built");
            let psc = if use_psc { Some(&mut self.psc) } else { None };
            shadow.walk_hinted(&self.space, va, psc, &mut self.shadow_hint)
        } else if use_psc {
            self.walker.walk_with_psc(&self.space, va, &mut self.psc)
        } else {
            self.walker.walk(&self.space, va)
        }
    }

    /// Accessed/Dirty maintenance after a successful translation. The
    /// slow path re-walks to the leaf on every probe; in steady state
    /// the bits are already set, so consult the shadow index's terminal
    /// slot first and skip the (no-op) write entirely.
    fn mark_accessed_shadowed(&mut self, page: VirtAddr, write: bool) {
        if self.shadow_enabled {
            if let Some(shadow) = self.shadow.as_ref().filter(|s| s.is_current(&self.space)) {
                let (table, idx) = shadow.terminal_slot(page, &mut self.shadow_hint);
                let entry = self.space.table(table).entry(idx);
                let mut need = avx_mmu::PteFlags::ACCESSED;
                if write {
                    need |= avx_mmu::PteFlags::DIRTY;
                }
                if entry.is_present() && entry.flags().contains(need) {
                    return; // already set: the write below would no-op
                }
            }
        }
        let _ = self.space.mark_accessed(page, write);
    }

    /// Simulates the *kernel itself* using the page at `va` (syscall,
    /// interrupt handler, driver code): the translation is walked and
    /// cached in the shared TLB with its true (supervisor) permissions.
    /// Drives the Fig. 6 user-behaviour signal and the FLARE bypass.
    pub fn touch_as_kernel(&mut self, va: VirtAddr) {
        let walk = self.walk_shadowed(va, true);
        for (table, idx) in walk.accesses.iter() {
            let _ = self.lines.touch(table, idx);
        }
        if let Some(mapping) = walk.mapping {
            self.tlb.insert(TlbEntry {
                vpn: va.as_u64() >> mapping.size.shift(),
                size: mapping.size,
                pfn: mapping.phys.frame_number(),
                perms: walk.perms,
            });
        }
    }

    /// Convenience probe: executes an all-zero-mask op and returns the
    /// measured cycles. This is the attack's innermost loop.
    pub fn probe(&mut self, kind: OpKind, addr: VirtAddr) -> u64 {
        let op = match kind {
            OpKind::Load => MaskedOp::probe_load(addr),
            OpKind::Store => MaskedOp::probe_store(addr),
        };
        self.execute(op).cycles
    }

    /// Batched probe: executes one all-zero-mask op per address and
    /// returns the measured cycles in input order.
    ///
    /// Observably identical to calling [`Machine::probe`] once per
    /// address — same translation-cache evolution, same performance
    /// counters, same noise stream — but the per-op bookkeeping of
    /// [`Machine::execute`] is amortized away: no [`MaskedOutcome`] is
    /// materialized and no lane-transfer buffer is allocated (an
    /// all-zero mask moves no data), which is what makes large
    /// Fig. 4/5/7-style sweeps fast.
    pub fn execute_batch(&mut self, kind: OpKind, addrs: &[VirtAddr]) -> Vec<u64> {
        let mut out = Vec::with_capacity(addrs.len());
        self.execute_batch_into(kind, addrs, &mut out);
        out
    }

    /// Allocation-free variant of [`Machine::execute_batch`]: appends
    /// one measurement per address to `out`, reusing its capacity.
    /// Sweep engines thread one scratch buffer through every tile, so
    /// the steady-state probe loop performs no heap allocation at all.
    pub fn execute_batch_into(&mut self, kind: OpKind, addrs: &[VirtAddr], out: &mut Vec<u64>) {
        if self.noise.observables() == ObservablesVersion::V2 {
            return self.execute_batch_into_v2(kind, addrs, out);
        }
        self.pmc.add(Self::retired_event(kind), addrs.len() as u64);
        out.reserve(addrs.len());
        for &addr in addrs {
            let cost = self.probe_cost(kind, addr);
            let measured = self.noise.measure(cost);
            self.tsc += measured;
            out.push(measured);
        }
    }

    /// The v2 batched hot path: probes are processed in
    /// [`NOISE_BLOCK`]-sized chunks, each chunk's noise pre-drawn into
    /// one stack block by the ziggurat kernel ([`NoiseStream::fill_block`])
    /// before the translation loop consumes it. Translation never
    /// touches the RNG, so pre-drawing preserves the per-sample stream:
    /// a v2 batch is bit-identical to the same probes run through the
    /// v2 scalar path (asserted by `execute_batch_matches_scalar_*`).
    fn execute_batch_into_v2(&mut self, kind: OpKind, addrs: &[VirtAddr], out: &mut Vec<u64>) {
        self.pmc.add(Self::retired_event(kind), addrs.len() as u64);
        out.reserve(addrs.len());
        let mut block = [0.0f64; NOISE_BLOCK];
        for chunk in addrs.chunks(NOISE_BLOCK) {
            let noise = &mut block[..chunk.len()];
            self.noise.fill_block(noise);
            for (&addr, &n) in chunk.iter().zip(noise.iter()) {
                let measured = quantize_cycles(self.probe_cost(kind, addr) + n);
                self.tsc += measured;
                out.push(measured);
            }
        }
    }

    /// The noise-free half of [`Machine::execute_batch_into`]: runs the
    /// identical translation for every probe — schedule and defense
    /// ticks, TLB/PSC/PTE-line evolution, performance counters, A-bit
    /// updates — and appends each probe's deterministic pre-noise cost
    /// to `out`. Draws no noise and does not advance the clock, so
    /// measuring the costs through a clone of [`Machine::noise_stream`]
    /// reproduces `execute_batch_into`'s readings exactly.
    ///
    /// ```
    /// use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};
    /// use avx_uarch::{CpuProfile, Machine, OpKind};
    ///
    /// # fn main() -> Result<(), avx_mmu::MmuError> {
    /// let mut space = AddressSpace::new();
    /// let kernel = VirtAddr::new(0xffff_ffff_a1e0_0000)?;
    /// space.map(kernel, PageSize::Size2M, PteFlags::kernel_rx())?;
    /// let addrs = [kernel, kernel, kernel.wrapping_add(0x20_0000)];
    ///
    /// let mut simulated = Machine::new(CpuProfile::alder_lake_i5_12400f(), space.clone(), 5);
    /// let mut costed = Machine::new(CpuProfile::alder_lake_i5_12400f(), space, 5);
    /// let mut noise = costed.noise_stream().clone();
    /// let mut costs = Vec::new();
    /// costed.cost_batch_into(OpKind::Load, &addrs, &mut costs);
    /// let mut replayed = Vec::new();
    /// noise.measure_batch_into(&costs, &mut replayed);
    /// assert_eq!(replayed, simulated.execute_batch(OpKind::Load, &addrs));
    /// assert_eq!(costed.elapsed_cycles(), 0, "costing leaves the clock alone");
    /// # Ok(())
    /// # }
    /// ```
    pub fn cost_batch_into(&mut self, kind: OpKind, addrs: &[VirtAddr], out: &mut Vec<f64>) {
        self.pmc.add(Self::retired_event(kind), addrs.len() as u64);
        out.reserve(addrs.len());
        for &addr in addrs {
            let cost = self.probe_cost(kind, addr);
            out.push(cost);
        }
    }

    /// The retired-op counter of a probe kind.
    fn retired_event(kind: OpKind) -> Event {
        match kind {
            OpKind::Load => Event::MaskedLoadRetired,
            OpKind::Store => Event::MaskedStoreRetired,
        }
    }

    /// The per-probe translation body shared by the v1, v2 and cost
    /// loops: advances the victim schedule and defenses by one op,
    /// translates the all-zero-mask probe's pages and returns its
    /// deterministic cycle cost. Retired-op counting is left to the
    /// loops, which bump it once per batch — batch callers have no
    /// mid-batch observation point, so the post-batch counters are
    /// unchanged.
    #[inline(always)]
    fn probe_cost(&mut self, kind: OpKind, addr: VirtAddr) -> f64 {
        self.sched_tick();
        self.defense_tick();
        let (walk_event, base) = match kind {
            OpKind::Load => (Event::DtlbLoadWalkCompleted, self.profile.timing.base_load),
            OpKind::Store => (
                Event::DtlbStoreWalkCompleted,
                self.profile.timing.base_store,
            ),
        };
        let mut acc = OpAccounting::new(base);
        // The zero mask means no lane is unmasked, so `visit_page` can
        // never report a fault on this path.
        let first_page = addr.align_down(4096);
        let last_page = addr.wrapping_add(PROBE_LAST_LANE_OFFSET).align_down(4096);
        let _ = self.visit_page(kind, first_page, false, &mut acc, None);
        if last_page != first_page {
            let _ = self.visit_page(kind, last_page, false, &mut acc, None);
        }
        if acc.user_nonpresent && kind == OpKind::Load {
            acc.cycles += self.profile.timing.user_nonpresent_load_extra;
        }
        self.pmc.add(walk_event, u64::from(acc.walks_total));
        acc.cycles
    }

    /// Translates and accounts one touched page of a masked op — the
    /// shared per-page core of [`Machine::execute`] and
    /// [`Machine::execute_batch`]. Returns the fault to deliver when an
    /// *unmasked* lane touched a bad page.
    fn visit_page(
        &mut self,
        kind: OpKind,
        page: VirtAddr,
        has_unmasked: bool,
        acc: &mut OpAccounting,
        ok_pages: Option<&mut Vec<(VirtAddr, u64)>>,
    ) -> Option<Fault> {
        // The single defense chokepoint of every attacker-issued op:
        // scalar, v1-batch and v2-batch paths all translate through
        // here, so masked translation rewrites the walked (and
        // TLB-/shadow-indexed) address in one place. Kernel-side
        // accesses (`touch_as_kernel`) keep the unmasked view.
        let page = self.defended_page(page);
        let t = self.profile.timing;
        let verdict = self.translate_page(page);
        acc.cycles += verdict.cycles;
        acc.walks_total += verdict.walks;
        if !acc.first_page_seen {
            acc.first_page_seen = true;
            acc.primary_tlb = verdict.tlb_hit;
            acc.primary_level = verdict.terminal_level;
        }

        let accessible =
            verdict.present && verdict.user && (kind == OpKind::Load || verdict.writable);
        if accessible {
            if kind == OpKind::Store && !verdict.dirty && !acc.dirty_assist {
                // First store to a clean page: dirty-bit microcode
                // assist, regardless of the mask (the assist must
                // inspect the mask to know whether D may be set).
                acc.dirty_assist = true;
                acc.cycles += self.profile.dirty_assist();
                self.pmc.bump(Event::AssistsAny);
            }
            if let (Some(ok_pages), Some(frame)) = (ok_pages, verdict.phys_frame) {
                ok_pages.push((page, frame));
            }
            // A-bit maintenance; D only when lanes actually store.
            let writes = kind == OpKind::Store && has_unmasked;
            self.mark_accessed_shadowed(page, writes);
            if writes {
                self.tlb.set_dirty(page);
            }
            None
        } else if has_unmasked {
            // An unmasked lane touches a bad page: deliver #PF.
            Some(Fault {
                addr: page,
                write: kind == OpKind::Store,
                protection: verdict.present,
            })
        } else {
            // Bad page, all lanes masked: suppression via assist.
            if !acc.assist {
                acc.assist = true;
                acc.cycles += match kind {
                    OpKind::Load => t.assist_load,
                    OpKind::Store => t.assist_store,
                };
                self.pmc.bump(Event::AssistsAny);
            }
            if !verdict.present && !page.is_kernel_half() {
                acc.user_nonpresent = true;
            }
            self.pmc.bump(Event::SuppressedFault);
            None
        }
    }

    /// Executes one masked operation, advancing the clock.
    pub fn execute(&mut self, op: MaskedOp) -> MaskedOutcome {
        self.sched_tick();
        self.defense_tick();
        let retired_event = match op.kind {
            OpKind::Load => Event::MaskedLoadRetired,
            OpKind::Store => Event::MaskedStoreRetired,
        };
        self.pmc.bump(retired_event);

        let t = self.profile.timing;
        let mut acc = OpAccounting::new(match op.kind {
            OpKind::Load => t.base_load,
            OpKind::Store => t.base_store,
        });

        let pages = op.touched_pages();
        let mut fault: Option<Fault> = None;
        let mut ok_pages: Vec<(VirtAddr, u64)> = Vec::with_capacity(pages.len());

        for &(page, has_unmasked) in pages.iter() {
            let page_fault =
                self.visit_page(op.kind, page, has_unmasked, &mut acc, Some(&mut ok_pages));
            if fault.is_none() {
                fault = page_fault;
            }
        }

        if acc.user_nonpresent && op.kind == OpKind::Load {
            acc.cycles += t.user_nonpresent_load_extra;
        }

        if let Some(f) = fault {
            acc.cycles += t.fault_cost;
            self.pmc.bump(Event::PageFault);
            let measured = self.noise.measure(acc.cycles);
            self.tsc += measured;
            return MaskedOutcome {
                cycles: measured,
                fault: Some(f),
                assist: acc.assist,
                dirty_assist: acc.dirty_assist,
                walks_completed: acc.walks_total,
                tlb_hit: acc.primary_tlb,
                terminal_level: acc.primary_level,
                data: None,
            };
        }

        let walk_event = match op.kind {
            OpKind::Load => Event::DtlbLoadWalkCompleted,
            OpKind::Store => Event::DtlbStoreWalkCompleted,
        };
        self.pmc.add(walk_event, u64::from(acc.walks_total));

        // Move the data for unmasked lanes on good pages.
        let data = self.transfer(&op, &ok_pages);

        let measured = self.noise.measure(acc.cycles);
        self.tsc += measured;
        MaskedOutcome {
            cycles: measured,
            fault: None,
            assist: acc.assist,
            dirty_assist: acc.dirty_assist,
            walks_completed: acc.walks_total,
            tlb_hit: acc.primary_tlb,
            terminal_level: acc.primary_level,
            data,
        }
    }

    /// Translates one page, charging cycles for TLB/walk behaviour and
    /// updating the caches.
    fn translate_page(&mut self, page: VirtAddr) -> PageVerdict {
        let t = self.profile.timing;
        let bypass = self.profile.kernel_walks_uncached() && page.is_kernel_half();

        if !bypass {
            if let Some((entry, lookup)) = self.tlb.lookup(page) {
                self.pmc.bump(match lookup {
                    TlbLookup::L1 => Event::TlbHitL1,
                    TlbLookup::L2 => Event::TlbHitL2,
                });
                let extra = match lookup {
                    TlbLookup::L1 => 0.0,
                    TlbLookup::L2 => t.stlb_hit_extra,
                };
                return PageVerdict {
                    present: true,
                    user: entry.perms.user,
                    writable: entry.perms.writable,
                    dirty: entry.perms.dirty,
                    phys_frame: Some(entry.pfn),
                    tlb_hit: Some(lookup),
                    terminal_level: None,
                    walks: 0,
                    cycles: extra,
                };
            }
            self.pmc.bump(Event::TlbMiss);
        }

        // Walk. Non-present translations are re-walked while the assist
        // decides suppression (Fig. 2: 2 completed walks per probe).
        let (walk, mut cycles) = self.perform_walk(page, bypass);
        let mut walks: u8 = 1;

        if !walk.present_leaf {
            // Intel's suppression assist re-walks the translation
            // (Fig. 2: 2 completed walks). AMD shows no such retry —
            // mapped and unmapped kernel pages time identically (§IV-B).
            if !bypass {
                for _ in 1..t.nonpresent_retries.max(1) {
                    if walk.clean_replay {
                        // The first walk ran through the clean shadow
                        // replay, so the retry is fully determined (see
                        // `ShadowWalk::clean_replay`): it resumes from
                        // the deepest intermediate the first walk left
                        // in the PSC and re-reads only the terminal
                        // entry, whose line the first walk just made
                        // warm. A PML4-terminated walk has no resume
                        // point, so it alone pays the level extras.
                        // PSC/line replacement *order* is untouched —
                        // the retry would only refresh the entry that
                        // is already the most recent of its array.
                        cycles += t.walk_step_warm;
                        if walk.terminal_level == Level::Pml4 {
                            cycles += t.level_extra_pml4;
                        }
                    } else {
                        let retry = self.perform_walk(page, bypass);
                        cycles += retry.1;
                    }
                    walks += 1;
                }
            }
            return PageVerdict {
                present: false,
                user: false,
                writable: false,
                dirty: false,
                phys_frame: None,
                tlb_hit: None,
                terminal_level: Some(walk.terminal_level),
                walks,
                cycles,
            };
        }

        if !bypass {
            // Present translations are cached even when the permission
            // check will fail — the observable that keeps KERNEL-M at
            // zero walks in Fig. 2.
            self.tlb.insert(TlbEntry {
                vpn: page.as_u64() >> walk.page_size.shift(),
                size: walk.page_size,
                pfn: walk.frame_number,
                perms: walk.perms,
            });
        }
        PageVerdict {
            present: true,
            user: walk.perms.user,
            writable: walk.perms.writable,
            dirty: walk.perms.dirty,
            phys_frame: Some(walk.frame_number),
            tlb_hit: None,
            terminal_level: Some(walk.terminal_level),
            walks,
            cycles,
        }
    }

    /// One page-table walk with cycle accounting.
    ///
    /// The shadow path streams structure accesses straight into the
    /// line-cache cost model (no access-list or [`WalkOutcome`]
    /// materialization); the reference path produces the full outcome
    /// and charges the identical costs from its access list.
    fn perform_walk(&mut self, page: VirtAddr, bypass_psc: bool) -> (ShadowWalk, f64) {
        let t = self.profile.timing;
        let mut cycles = 0.0;

        let walk: ShadowWalk = if self.shadow_enabled {
            let current = matches!(&self.shadow, Some(s) if s.is_current(&self.space));
            if !current {
                self.shadow = Some(ShadowIndex::build(&self.space));
            }
            let shadow = self.shadow.as_ref().expect("just built");
            let lines = &mut self.lines;
            let mut on_access = |table, idx| {
                let warm = if bypass_psc {
                    // AMD kernel walks re-fetch structures each time.
                    false_warm_for_amd(lines, table, idx)
                } else {
                    lines.touch(table, idx)
                };
                cycles += if warm {
                    t.walk_step_warm
                } else {
                    t.walk_step_cold
                };
            };
            let psc = if bypass_psc {
                None
            } else {
                Some(&mut self.psc)
            };
            shadow.walk_costed(
                &self.space,
                page,
                psc,
                &mut self.shadow_hint,
                &mut on_access,
            )
        } else {
            let outcome = if bypass_psc {
                self.walker.walk(&self.space, page)
            } else {
                self.walker.walk_with_psc(&self.space, page, &mut self.psc)
            };
            for (table, idx) in outcome.accesses.iter() {
                let warm = if bypass_psc {
                    false_warm_for_amd(&mut self.lines, table, idx)
                } else {
                    self.lines.touch(table, idx)
                };
                cycles += if warm {
                    t.walk_step_warm
                } else {
                    t.walk_step_cold
                };
            }
            ShadowWalk::from(&outcome)
        };

        // Termination-level extras apply to root walks only (see
        // `TimingParams::level_extra_pt` and DESIGN.md §5).
        if !walk.resumed || bypass_psc {
            cycles += match walk.terminal_level {
                Level::Pt => t.level_extra_pt,
                Level::Pd => t.level_extra_pd,
                Level::Pdpt => t.level_extra_pdpt,
                Level::Pml4 => t.level_extra_pml4,
            };
        }
        (walk, cycles)
    }

    /// Moves bytes for unmasked lanes whose pages translated fine.
    fn transfer(&mut self, op: &MaskedOp, ok_pages: &[(VirtAddr, u64)]) -> Option<Vec<u8>> {
        let width = op.width.bytes() as usize;
        let mut data = match op.kind {
            OpKind::Load => Some(vec![0u8; usize::from(op.mask.lanes()) * width]),
            OpKind::Store => None,
        };
        for lane in op.mask.set_lanes() {
            let la = op.lane_addr(lane);
            let page = self.defended_page(la.align_down(4096));
            let Some(&(_, frame)) = ok_pages.iter().find(|(p, _)| *p == page) else {
                continue; // suppressed page: lane dropped (loads read 0)
            };
            let pa = avx_mmu::PhysAddr::from_frame_number(frame).wrapping_add(la.as_u64() & 0xfff);
            match (&mut data, op.kind) {
                (Some(buf), OpKind::Load) => {
                    let off = usize::from(lane) * width;
                    self.mem.read(pa, &mut buf[off..off + width]);
                }
                (None, OpKind::Store) => {
                    // Stores write a recognizable lane pattern.
                    let pattern = [0xa5u8; 8];
                    self.mem.write(pa, &pattern[..width]);
                }
                _ => unreachable!("data buffer existence tracks op kind"),
            }
        }
        data
    }

    /// Writes bytes into simulated physical memory behind `va` (test and
    /// example setup). Pages must be mapped.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not mapped.
    pub fn poke(&mut self, va: VirtAddr, bytes: &[u8]) {
        let mapping = self.space.lookup(va).expect("poke target must be mapped");
        let offset = va.as_u64() - mapping.start.as_u64();
        let pa = mapping.phys.wrapping_add(offset);
        self.mem.write(pa, bytes);
    }

    /// Reads bytes from simulated physical memory behind `va`.
    ///
    /// Allocates a fresh buffer per call; assertion loops that peek in
    /// a hot path should reuse one via [`Machine::peek_into`].
    ///
    /// # Panics
    ///
    /// Panics if `va` is not mapped.
    #[must_use]
    pub fn peek(&mut self, va: VirtAddr, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.peek_into(va, &mut buf);
        buf
    }

    /// Reads `buf.len()` bytes from simulated physical memory behind
    /// `va` into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `va` is not mapped.
    pub fn peek_into(&mut self, va: VirtAddr, buf: &mut [u8]) {
        let mapping = self.space.lookup(va).expect("peek target must be mapped");
        let offset = va.as_u64() - mapping.start.as_u64();
        let pa = mapping.phys.wrapping_add(offset);
        self.mem.read(pa, buf);
    }
}

/// AMD kernel walks bypass cached structures; still record the touch so
/// user-half behaviour stays realistic.
fn false_warm_for_amd(lines: &mut PteLineCache, table: avx_mmu::FrameId, idx: usize) -> bool {
    let _ = lines.touch(table, idx);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masked::{ElemWidth, Mask};
    use avx_mmu::{PageSize, PteFlags};

    fn va(raw: u64) -> VirtAddr {
        VirtAddr::new_truncate(raw)
    }

    /// USER-M, USER-U, KERNEL-M, KERNEL-U pages as in Fig. 2.
    fn fig2_machine() -> Machine {
        let mut space = AddressSpace::new();
        space
            .map(va(0x5555_5555_4000), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        // USER-U: adjacent VMA exists but page non-present.
        space
            .map(va(0x5555_5555_5000), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        space
            .protect(
                va(0x5555_5555_5000),
                PageSize::Size4K,
                PteFlags::none_guard(),
            )
            .unwrap();
        space
            .map(
                va(0xffff_ffff_a1e0_0000),
                PageSize::Size2M,
                PteFlags::kernel_rx(),
            )
            .unwrap();
        let mut m = Machine::new(CpuProfile::ice_lake_i7_1065g7(), space, 1);
        m.set_noise(NoiseModel::none());
        m
    }

    const USER_M: u64 = 0x5555_5555_4000;
    const USER_U: u64 = 0x5555_5555_5000;
    const KERNEL_M: u64 = 0xffff_ffff_a1e0_0000;
    const KERNEL_U: u64 = 0xffff_ffff_a1a0_0000; // unmapped 2 MiB slot nearby

    /// Steady-state probe: run twice, report the second (paper §IV-B).
    fn steady(m: &mut Machine, kind: OpKind, addr: u64) -> MaskedOutcome {
        let op = match kind {
            OpKind::Load => MaskedOp::probe_load(va(addr)),
            OpKind::Store => MaskedOp::probe_store(va(addr)),
        };
        let _ = m.execute(op);
        m.execute(op)
    }

    #[test]
    fn fig2_user_mapped_is_base_cost() {
        let mut m = fig2_machine();
        let out = steady(&mut m, OpKind::Load, USER_M);
        assert_eq!(out.cycles, 13);
        assert!(!out.assist);
        assert_eq!(out.walks_completed, 0);
        assert_eq!(out.tlb_hit, Some(TlbLookup::L1));
    }

    #[test]
    fn fig2_kernel_mapped_is_assist_no_walk() {
        let mut m = fig2_machine();
        let out = steady(&mut m, OpKind::Load, KERNEL_M);
        assert_eq!(out.cycles, 93);
        assert!(out.assist);
        assert_eq!(out.walks_completed, 0, "translation cached in TLB");
        assert!(out.fault.is_none(), "fault suppressed");
    }

    #[test]
    fn fig2_kernel_unmapped_walks_twice() {
        let mut m = fig2_machine();
        let out = steady(&mut m, OpKind::Load, KERNEL_U);
        assert_eq!(out.cycles, 107);
        assert!(out.assist);
        assert_eq!(out.walks_completed, 2);
    }

    #[test]
    fn fig2_user_unmapped_slightly_above_kernel_unmapped() {
        let mut m = fig2_machine();
        let ku = steady(&mut m, OpKind::Load, KERNEL_U).cycles;
        let uu = steady(&mut m, OpKind::Load, USER_U).cycles;
        assert_eq!(uu, 110);
        assert_eq!(uu - ku, 3);
    }

    #[test]
    fn fig2_pmc_pattern_matches_paper() {
        let mut m = fig2_machine();
        // Warm up all four page types, then measure one probe each.
        for addr in [USER_M, USER_U, KERNEL_M, KERNEL_U] {
            let _ = m.execute(MaskedOp::probe_load(va(addr)));
        }
        let mut assists = Vec::new();
        let mut walks = Vec::new();
        for addr in [USER_M, USER_U, KERNEL_M, KERNEL_U] {
            let snap = m.pmc().snapshot();
            let _ = m.execute(MaskedOp::probe_load(va(addr)));
            let d = m.pmc().delta(&snap);
            assists.push(d.get(Event::AssistsAny));
            walks.push(d.get(Event::DtlbLoadWalkCompleted));
        }
        assert_eq!(assists, vec![0, 1, 1, 1], "Fig. 2 ASSISTS.ANY");
        assert_eq!(walks, vec![0, 2, 0, 2], "Fig. 2 WALK_COMPLETED");
    }

    #[test]
    fn p6_kernel_store_faster_than_load() {
        let mut m = fig2_machine();
        let load = steady(&mut m, OpKind::Load, KERNEL_M).cycles;
        let store = steady(&mut m, OpKind::Store, KERNEL_M).cycles;
        assert_eq!(load, 93);
        assert_eq!(store, 76);
        assert!((16..=18).contains(&(load - store)));
    }

    #[test]
    fn fault_suppression_all_zero_mask_never_faults() {
        let mut m = fig2_machine();
        for addr in [USER_U, KERNEL_M, KERNEL_U, 0x10_0000_0000] {
            let out = m.execute(MaskedOp::probe_load(va(addr)));
            assert!(out.fault.is_none(), "addr {addr:#x}");
        }
    }

    #[test]
    fn unmasked_lane_on_bad_page_faults() {
        let mut m = fig2_machine();
        let op = MaskedOp {
            kind: OpKind::Load,
            addr: va(USER_U),
            mask: Mask::new(0b1, 8),
            width: ElemWidth::Dword,
        };
        let out = m.execute(op);
        let fault = out.fault.expect("must fault");
        assert!(!fault.protection, "non-present fault");
        assert!(!fault.write);
    }

    #[test]
    fn fig1_cross_page_cases() {
        // Fig. 1: access straddling a mapped(low)/unmapped(high) boundary.
        let mut m = fig2_machine();
        let base = va(USER_M + 0xff0); // last 16 bytes of USER_M page
                                       // Case A/B: an unmasked lane on the unmapped page → #PF.
        let faulting = MaskedOp {
            kind: OpKind::Load,
            addr: base,
            mask: Mask::new(0b1111_0001, 8),
            width: ElemWidth::Dword,
        };
        assert!(m.execute(faulting).fault.is_some());
        // Case C/D: lanes on the unmapped page are masked → suppressed.
        let suppressed = MaskedOp {
            kind: OpKind::Load,
            addr: base,
            mask: Mask::new(0b0000_0111, 8),
            width: ElemWidth::Dword,
        };
        let out = m.execute(suppressed);
        assert!(out.fault.is_none());
        assert!(out.assist);
    }

    #[test]
    fn store_dirty_assist_matches_kernel_mapped_load() {
        let mut m = fig2_machine();
        // Fresh writable page, D=0. Warm translation with a load first.
        let _ = m.execute(MaskedOp::probe_load(va(USER_M)));
        let kernel = steady(&mut m, OpKind::Load, KERNEL_M).cycles;
        let clean_store = m.execute(MaskedOp::probe_store(va(USER_M))).cycles;
        assert_eq!(
            clean_store, kernel,
            "§IV-B calibration identity: clean-store == kernel-mapped load"
        );
    }

    #[test]
    fn zero_mask_store_never_sets_dirty_so_assist_repeats() {
        let mut m = fig2_machine();
        let _ = m.execute(MaskedOp::probe_load(va(USER_M)));
        let first = m.execute(MaskedOp::probe_store(va(USER_M)));
        let second = m.execute(MaskedOp::probe_store(va(USER_M)));
        assert!(first.dirty_assist);
        assert!(second.dirty_assist, "no lane stored, D stays clear");
        assert_eq!(first.cycles, second.cycles);
    }

    #[test]
    fn real_store_sets_dirty_and_becomes_fast() {
        let mut m = fig2_machine();
        let op = MaskedOp {
            kind: OpKind::Store,
            addr: va(USER_M),
            mask: Mask::all_set(8),
            width: ElemWidth::Dword,
        };
        let first = m.execute(op);
        assert!(first.dirty_assist);
        let second = m.execute(op);
        assert!(!second.dirty_assist);
        assert_eq!(second.cycles, 12, "base store cost after D is set");
    }

    #[test]
    fn load_transfers_unmasked_lanes_only() {
        let mut m = fig2_machine();
        m.poke(va(USER_M), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let op = MaskedOp {
            kind: OpKind::Load,
            addr: va(USER_M),
            mask: Mask::new(0b0000_0001, 8),
            width: ElemWidth::Dword,
        };
        let out = m.execute(op);
        let data = out.data.unwrap();
        assert_eq!(&data[..4], &[1, 2, 3, 4], "lane 0 transferred");
        assert_eq!(&data[4..8], &[0, 0, 0, 0], "lane 1 masked out");
    }

    #[test]
    fn suppressed_cross_page_load_still_transfers_valid_lanes() {
        let mut m = fig2_machine();
        let base = va(USER_M + 0xff8); // 2 dword lanes fit, rest on USER_U
        m.poke(base, &[9, 9, 9, 9]);
        let op = MaskedOp {
            kind: OpKind::Load,
            addr: base,
            mask: Mask::new(0b0000_0011, 8), // lanes 0,1 valid page only
            width: ElemWidth::Dword,
        };
        let out = m.execute(op);
        assert!(out.fault.is_none());
        let data = out.data.unwrap();
        assert_eq!(&data[..4], &[9, 9, 9, 9]);
    }

    #[test]
    fn tlb_eviction_makes_next_probe_cold() {
        let mut m = fig2_machine();
        let warm = steady(&mut m, OpKind::Load, KERNEL_M).cycles;
        m.evict_translation(va(KERNEL_M));
        let cold = m.execute(MaskedOp::probe_load(va(KERNEL_M))).cycles;
        assert!(
            cold > warm + 100,
            "cold walk must be much slower: warm={warm} cold={cold}"
        );
    }

    #[test]
    fn p4_coffee_lake_hit_miss_anchors() {
        let mut space = AddressSpace::new();
        space
            .map(va(KERNEL_M), PageSize::Size2M, PteFlags::kernel_rx())
            .unwrap();
        let mut m = Machine::new(CpuProfile::coffee_lake_i9_9900(), space, 3);
        m.set_noise(NoiseModel::none());
        // Warm up, then evict: first probe cold, second probe hit.
        let _ = m.execute(MaskedOp::probe_load(va(KERNEL_M)));
        m.evict_translation(va(KERNEL_M));
        let miss = m.execute(MaskedOp::probe_load(va(KERNEL_M))).cycles;
        let hit = m.execute(MaskedOp::probe_load(va(KERNEL_M))).cycles;
        assert_eq!(miss, 381, "3 cold steps + assist + base");
        assert_eq!(hit, 147);
    }

    #[test]
    fn touch_as_kernel_fills_tlb_for_user_probe() {
        let mut m = fig2_machine();
        m.evict_translation(va(KERNEL_M));
        m.touch_as_kernel(va(KERNEL_M));
        let out = m.execute(MaskedOp::probe_load(va(KERNEL_M)));
        assert_eq!(out.tlb_hit, Some(TlbLookup::L1));
        assert_eq!(out.cycles, 93);
    }

    #[test]
    fn amd_kernel_probes_always_walk() {
        let mut space = AddressSpace::new();
        space
            .map(va(KERNEL_M), PageSize::Size2M, PteFlags::kernel_rx())
            .unwrap();
        let mut m = Machine::new(CpuProfile::zen3_ryzen5_5600x(), space, 4);
        m.set_noise(NoiseModel::none());
        let first = m.execute(MaskedOp::probe_load(va(KERNEL_M)));
        let second = m.execute(MaskedOp::probe_load(va(KERNEL_M)));
        assert!(first.walks_completed >= 1);
        assert!(second.walks_completed >= 1, "no TLB shortcut on AMD");
        assert_eq!(first.cycles, second.cycles, "steady and identical");
    }

    #[test]
    fn amd_mapped_and_unmapped_kernel_indistinguishable_but_4k_visible() {
        let mut space = AddressSpace::new();
        space
            .map(va(KERNEL_M), PageSize::Size2M, PteFlags::kernel_rx())
            .unwrap();
        // A 4 KiB kernel page in the same PDPT.
        space
            .map(
                va(0xffff_ffff_a1c0_0000),
                PageSize::Size4K,
                PteFlags::kernel_ro(),
            )
            .unwrap();
        let mut m = Machine::new(CpuProfile::zen3_ryzen5_5600x(), space, 5);
        m.set_noise(NoiseModel::none());
        let mapped_2m = m.execute(MaskedOp::probe_load(va(KERNEL_M))).cycles;
        let unmapped = m.execute(MaskedOp::probe_load(va(KERNEL_U))).cycles;
        let mapped_4k = m
            .execute(MaskedOp::probe_load(va(0xffff_ffff_a1c0_0000)))
            .cycles;
        assert_eq!(mapped_2m, unmapped, "P-bit invisible on AMD");
        assert!(
            mapped_4k > mapped_2m + 20,
            "PT-terminated walks stand out: {mapped_4k} vs {mapped_2m}"
        );
    }

    #[test]
    fn user_half_on_amd_still_uses_tlb() {
        let mut space = AddressSpace::new();
        space
            .map(va(USER_M), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        let mut m = Machine::new(CpuProfile::zen3_ryzen5_5600x(), space, 6);
        m.set_noise(NoiseModel::none());
        let _ = m.execute(MaskedOp::probe_load(va(USER_M)));
        let out = m.execute(MaskedOp::probe_load(va(USER_M)));
        assert_eq!(out.tlb_hit, Some(TlbLookup::L1));
        assert_eq!(out.walks_completed, 0);
    }

    #[test]
    fn permission_fig3_pattern() {
        let mut space = AddressSpace::new();
        let ro = va(0x7f00_0000_0000);
        let rx = va(0x7f00_0000_1000);
        let rw = va(0x7f00_0000_2000);
        let none = va(0x7f00_0000_3000);
        space
            .map(ro, PageSize::Size4K, PteFlags::user_ro())
            .unwrap();
        space
            .map(rx, PageSize::Size4K, PteFlags::user_rx())
            .unwrap();
        space
            .map(rw, PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        // PROT_NONE: map then drop present, like mprotect(PROT_NONE).
        space
            .map(none, PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        space
            .protect(none, PageSize::Size4K, PteFlags::none_guard())
            .unwrap();

        let mut m = Machine::new(CpuProfile::generic_desktop(), space, 7);
        m.set_noise(NoiseModel::none());
        // Warm up translations + dirty bits with real accesses.
        for page in [ro, rx, rw] {
            let _ = m.execute(MaskedOp::probe_load(page));
        }
        let write_all = MaskedOp {
            kind: OpKind::Store,
            addr: rw,
            mask: Mask::all_set(8),
            width: ElemWidth::Dword,
        };
        let _ = m.execute(write_all);

        // Masked load: 16 / 16 / 16 / 115.
        assert_eq!(m.execute(MaskedOp::probe_load(ro)).cycles, 16);
        assert_eq!(m.execute(MaskedOp::probe_load(rx)).cycles, 16);
        assert_eq!(m.execute(MaskedOp::probe_load(rw)).cycles, 16);
        let _ = m.execute(MaskedOp::probe_load(none));
        assert_eq!(m.execute(MaskedOp::probe_load(none)).cycles, 115);

        // Masked store: 82 / 82 / 16 / 96.
        assert_eq!(m.execute(MaskedOp::probe_store(ro)).cycles, 82);
        assert_eq!(m.execute(MaskedOp::probe_store(rx)).cycles, 82);
        assert_eq!(m.execute(write_all).cycles, 16);
        assert_eq!(m.execute(MaskedOp::probe_store(none)).cycles, 96);
    }

    #[test]
    fn p3_level_ordering_with_invlpg() {
        // Kernel pages terminating at PT, PD, PDPT plus an empty PML4
        // slot; INVLPG before each probe → root walks with level extras.
        let mut space = AddressSpace::new();
        let pt_page = va(0xffff_ffff_c012_3000);
        let pd_page = va(0xffff_ffff_a1e0_0000);
        let pdpt_page = va(0xffff_c000_0000_0000);
        let pml4_hole = va(0xffff_9000_0000_0000);
        space
            .map(pt_page, PageSize::Size4K, PteFlags::kernel_rx())
            .unwrap();
        space
            .map(pd_page, PageSize::Size2M, PteFlags::kernel_rx())
            .unwrap();
        space
            .map(pdpt_page, PageSize::Size1G, PteFlags::kernel_rw())
            .unwrap();

        let mut m = Machine::new(CpuProfile::coffee_lake_i9_9900(), space, 8);
        m.set_noise(NoiseModel::none());
        let mut measure = |addr: VirtAddr| {
            // Warm lines first so the signal is the level pattern, not
            // cold-line noise.
            let _ = m.execute(MaskedOp::probe_load(addr));
            m.invlpg(addr);
            let _ = m.execute(MaskedOp::probe_load(addr));
            m.invlpg(addr);
            m.execute(MaskedOp::probe_load(addr)).cycles
        };
        let t_pd = measure(pd_page);
        let t_pdpt = measure(pdpt_page);
        let t_pml4 = measure(pml4_hole);
        let t_pt = measure(pt_page);
        assert!(t_pd < t_pdpt, "PD {t_pd} < PDPT {t_pdpt}");
        assert!(t_pdpt < t_pml4, "PDPT {t_pdpt} < PML4 {t_pml4}");
        assert!(t_pt > t_pd, "PT off the line: {t_pt} > {t_pd}");
    }

    #[test]
    fn clock_advances_with_execution() {
        let mut m = fig2_machine();
        assert_eq!(m.elapsed_cycles(), 0);
        let out = m.execute(MaskedOp::probe_load(va(USER_M)));
        assert_eq!(m.elapsed_cycles(), out.cycles);
        m.spend_cycles(100);
        assert_eq!(m.elapsed_cycles(), out.cycles + 100);
    }

    #[test]
    fn poke_peek_round_trip() {
        let mut m = fig2_machine();
        m.poke(va(USER_M + 8), &[0xde, 0xad]);
        assert_eq!(m.peek(va(USER_M + 8), 2), vec![0xde, 0xad]);
    }

    #[test]
    fn execute_batch_matches_scalar_probes_exactly() {
        // Two identically-built machines: one runs the batched fast
        // path, the other the scalar loop. Cycles, clock and PMCs must
        // agree bit for bit — including a page-straddling probe.
        let addrs: Vec<VirtAddr> = [USER_M, USER_U, KERNEL_M, KERNEL_U, USER_M + 0xff0]
            .iter()
            .map(|&a| va(a))
            .collect();
        for kind in [OpKind::Load, OpKind::Store] {
            let mut scalar = fig2_machine();
            let mut batched = fig2_machine();
            let batch = batched.execute_batch(kind, &addrs);
            let looped: Vec<u64> = addrs.iter().map(|&a| scalar.probe(kind, a)).collect();
            assert_eq!(batch, looped, "{kind}");
            assert_eq!(scalar.elapsed_cycles(), batched.elapsed_cycles());
            for event in [
                Event::AssistsAny,
                Event::SuppressedFault,
                Event::DtlbLoadWalkCompleted,
                Event::DtlbStoreWalkCompleted,
                Event::TlbMiss,
                Event::TlbHitL1,
            ] {
                assert_eq!(
                    scalar.pmc().read(event),
                    batched.pmc().read(event),
                    "{kind}: {event:?}"
                );
            }
        }
    }

    #[test]
    fn drift_schedule_widens_noise_mid_run() {
        use crate::noise::NoiseProfile;
        let mut space = AddressSpace::new();
        space
            .map(va(KERNEL_M), PageSize::Size2M, PteFlags::kernel_rx())
            .unwrap();
        let mut m = Machine::new(CpuProfile::alder_lake_i5_12400f(), space, 21);
        m.set_noise_profile(NoiseProfile::drift_with(
            NoiseProfile::Quiet,
            NoiseProfile::LaptopDvfs,
            64,
            64,
        ));
        assert!(m.noise_schedule().is_some());
        let probe = MaskedOp::probe_load(va(KERNEL_M));
        let _ = m.execute(probe); // warm the translation
        let spread = |m: &mut Machine, n: usize| {
            let samples: Vec<f64> = (0..n).map(|_| m.execute(probe).cycles as f64).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            (samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64).sqrt()
        };
        let early = spread(&mut m, 60); // probes 1..61: quiet phase
        for _ in 0..64 {
            let _ = m.execute(probe); // cross the step
        }
        let late = spread(&mut m, 200); // fully drifted
        assert!(
            late > early * 2.0,
            "post-step spread must widen: early {early:.2} vs late {late:.2}"
        );
        // set_noise clears the trajectory again (stationary override).
        m.set_noise(NoiseModel::none());
        assert!(m.noise_schedule().is_none());
        assert_eq!(m.execute(probe).cycles, m.execute(probe).cycles);
    }

    #[test]
    fn execute_batch_matches_scalar_under_noise() {
        // With the full noise model the two paths must also consume the
        // RNG stream identically (same draws in the same order).
        let addrs: Vec<VirtAddr> = (0..64)
            .map(|i| va(0xffff_ffff_a000_0000 + i * 0x20_0000))
            .collect();
        let mut scalar = fig2_machine();
        let mut batched = fig2_machine();
        scalar.set_noise(NoiseModel::new(1.3, 0.05, (200.0, 900.0)));
        batched.set_noise(NoiseModel::new(1.3, 0.05, (200.0, 900.0)));
        let batch = batched.execute_batch(OpKind::Load, &addrs);
        let looped: Vec<u64> = addrs
            .iter()
            .map(|&a| scalar.probe(OpKind::Load, a))
            .collect();
        assert_eq!(batch, looped);
    }

    #[test]
    fn v2_batch_matches_v2_scalar_under_noise() {
        // The v2 block path pre-draws noise per chunk; because
        // translation never consumes RNG, its stream must equal the v2
        // scalar path's draw-per-probe stream — including a tail chunk
        // shorter than NOISE_BLOCK (69 = 4×16 + 5) and PMC totals.
        use crate::observables::ObservablesVersion;
        let addrs: Vec<VirtAddr> = (0..69)
            .map(|i| va(0xffff_ffff_a000_0000 + i * 0x20_0000))
            .collect();
        for kind in [OpKind::Load, OpKind::Store] {
            let mut scalar = fig2_machine();
            let mut batched = fig2_machine();
            for m in [&mut scalar, &mut batched] {
                m.set_noise(NoiseModel::new(1.3, 0.05, (200.0, 900.0)));
                m.set_observables(ObservablesVersion::V2);
            }
            assert_eq!(batched.observables(), ObservablesVersion::V2);
            let batch = batched.execute_batch(kind, &addrs);
            let looped: Vec<u64> = addrs.iter().map(|&a| scalar.probe(kind, a)).collect();
            assert_eq!(batch, looped, "{kind}");
            assert_eq!(scalar.elapsed_cycles(), batched.elapsed_cycles());
            for event in [
                Event::MaskedLoadRetired,
                Event::MaskedStoreRetired,
                Event::AssistsAny,
                Event::SuppressedFault,
                Event::DtlbLoadWalkCompleted,
                Event::DtlbStoreWalkCompleted,
                Event::TlbMiss,
                Event::TlbHitL1,
            ] {
                assert_eq!(
                    scalar.pmc().read(event),
                    batched.pmc().read(event),
                    "{kind}: {event:?}"
                );
            }
        }
    }

    #[test]
    fn v2_drift_schedule_indexes_blocks_per_probe() {
        // Under a drifting schedule the v2 block fill resolves the
        // model per probe index, so batch and scalar agree even when a
        // block straddles the ramp onset (onset 40 inside the 3rd
        // 16-probe block).
        use crate::noise::NoiseProfile;
        use crate::observables::ObservablesVersion;
        let addrs: Vec<VirtAddr> = (0..96)
            .map(|i| va(0xffff_ffff_a000_0000 + i * 0x20_0000))
            .collect();
        let drift = NoiseProfile::drift_with(NoiseProfile::Quiet, NoiseProfile::LaptopDvfs, 40, 72);
        let mut scalar = fig2_machine();
        let mut batched = fig2_machine();
        for m in [&mut scalar, &mut batched] {
            m.set_noise_profile(drift);
            m.set_observables(ObservablesVersion::V2);
        }
        let batch = batched.execute_batch(OpKind::Load, &addrs);
        let looped: Vec<u64> = addrs
            .iter()
            .map(|&a| scalar.probe(OpKind::Load, a))
            .collect();
        assert_eq!(batch, looped);
    }

    #[test]
    fn v1_default_stream_is_unchanged_by_the_dispatch() {
        // The observables dispatch must leave the default (v1) stream
        // bit-exact: a machine that never calls set_observables produces
        // the same cycles as one explicitly set to V1.
        use crate::observables::ObservablesVersion;
        let addrs: Vec<VirtAddr> = (0..32)
            .map(|i| va(0xffff_ffff_a000_0000 + i * 0x20_0000))
            .collect();
        let mut default = fig2_machine();
        let mut explicit = fig2_machine();
        default.set_noise(NoiseModel::new(1.3, 0.05, (200.0, 900.0)));
        explicit.set_noise(NoiseModel::new(1.3, 0.05, (200.0, 900.0)));
        assert_eq!(default.observables(), ObservablesVersion::V1);
        explicit.set_observables(ObservablesVersion::V1);
        assert_eq!(
            default.execute_batch(OpKind::Load, &addrs),
            explicit.execute_batch(OpKind::Load, &addrs)
        );
    }
}
