//! Event-driven victims: a deterministic discrete-event scheduler.
//!
//! Real victim noise is *event-shaped*, not probe-indexed: DVFS duty
//! cycles, co-tenant arrival/departure, and module load/unload happen
//! on a wall clock the attacker does not control. The
//! [`crate::NoiseProfile::Drift`] ramp models one environment change
//! per scan; [`VictimSchedule`] generalizes that to an arbitrary event
//! *timeline* — a virtual wall clock advancing per victim-observed op
//! at a configurable ops-per-tick rate, driving a binary-heap event
//! queue with stable FIFO tie-breaking.
//!
//! The [`SchedEvent`] menu covers the three environment axes a real
//! host exercises:
//!
//! * **DVFS duty cycles** — [`SchedEvent::NoiseSwap`] replaces the
//!   machine's noise preset through the existing stationary-swap site
//!   ([`crate::Machine::set_noise`]), so a square wave is just two
//!   recurring swaps offset by half a period,
//! * **co-tenant bursts** — [`SchedEvent::TenantArrive`] /
//!   [`SchedEvent::TenantDepart`] scale the active preset's σ and
//!   spike rate by an additive per-tenant multiplier,
//! * **module churn** — [`SchedEvent::ModuleLoad`] /
//!   [`SchedEvent::ModuleUnload`] / [`SchedEvent::ProcessSpawn`]
//!   mutate the trial's own machine clone through
//!   [`avx_mmu::AddressSpace::map_range`] / `unmap_range` (i.e. through
//!   the batched leaf writer, bumping the shape epoch like any OS
//!   mutation and feeding the re-randomizing-defense machinery).
//!
//! Like the [`crate::defense`] layer, the scheduler draws randomness
//! from its own SplitMix64 stream seeded at install time — never from
//! the machine's measurement RNG — so a scheduled machine's noise
//! stream before the first firing is bit-identical to an unscheduled
//! one's, and the whole timeline replays from the seed. A machine with
//! no schedule installed performs **no clock reads at all**: the per-op
//! hook is a single `Option` discriminant check.
//!
//! ```
//! use avx_uarch::sched::{SchedEvent, VictimSchedule};
//! use avx_uarch::NoiseProfile;
//!
//! // A square-wave DVFS duty cycle: laptop preset from tick 4,
//! // back to quiet at tick 10, repeating every 12 ticks.
//! let sched = VictimSchedule::new(64, 7)
//!     .with_base(NoiseProfile::Quiet)
//!     .every(4, 12, SchedEvent::NoiseSwap(NoiseProfile::LaptopDvfs))
//!     .every(10, 12, SchedEvent::NoiseSwap(NoiseProfile::Quiet));
//! assert_eq!(sched.ops_per_tick(), 64);
//! assert_eq!(sched.pending(), 2);
//! ```

use core::cmp::Ordering;
use core::fmt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};

use crate::defense::splitmix64;
use crate::noise::{NoiseModel, NoiseProfile};
use crate::profile::TimingParams;

/// One region of the victim's address space a schedule may map images
/// into (module area, user mmap area). The uarch layer stays
/// layout-agnostic: the OS model supplies the concrete bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedRegion {
    /// First byte of the region.
    pub start: u64,
    /// One past the last byte of the region.
    pub end: u64,
    /// Slot granularity images are placed on (power of two).
    pub slot_align: u64,
}

impl SchedRegion {
    /// Builds a region.
    ///
    /// # Panics
    ///
    /// Panics if `slot_align` is not a power of two or the region is
    /// empty or not slot-aligned.
    #[must_use]
    pub fn new(start: u64, end: u64, slot_align: u64) -> Self {
        assert!(slot_align.is_power_of_two(), "slot align must be 2^k");
        assert!(end > start, "empty schedule region");
        assert_eq!((end - start) % slot_align, 0, "region must be slot-aligned");
        Self {
            start,
            end,
            slot_align,
        }
    }
}

/// One environment event on the victim's timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchedEvent {
    /// The environment switches to this noise preset (a DVFS
    /// transition, a governor decision). Routed through the machine's
    /// stationary-swap site; co-tenant multipliers keep applying on
    /// top of the new preset.
    NoiseSwap(NoiseProfile),
    /// A co-tenant lands on the core: the active preset's σ and spike
    /// rate scale up by one tenant weight.
    TenantArrive,
    /// A co-tenant leaves (no-op at zero tenants).
    TenantDepart,
    /// The OS loads a kernel module: `pages` fresh 4 KiB kernel pages
    /// are mapped at a seed-drawn slot of the module region.
    ModuleLoad {
        /// Image size in 4 KiB pages.
        pages: u64,
    },
    /// The most recently schedule-loaded module is unloaded (its pages
    /// unmapped). Never touches the fixture's own modules; a no-op
    /// when the schedule has loaded nothing.
    ModuleUnload,
    /// A process spawns: `pages` fresh 4 KiB user pages are mapped at
    /// a seed-drawn slot of the spawn region.
    ProcessSpawn {
        /// Image size in 4 KiB pages.
        pages: u64,
    },
}

impl fmt::Display for SchedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedEvent::NoiseSwap(p) => write!(f, "noise {}", p.name()),
            SchedEvent::TenantArrive => f.pad("tenant-arrive"),
            SchedEvent::TenantDepart => f.pad("tenant-depart"),
            SchedEvent::ModuleLoad { pages } => write!(f, "module-load {pages}"),
            SchedEvent::ModuleUnload => f.pad("module-unload"),
            SchedEvent::ProcessSpawn { pages } => write!(f, "process-spawn {pages}"),
        }
    }
}

/// One queued occurrence: an event pinned to a tick, plus its
/// insertion sequence number — the FIFO tie-breaker for simultaneous
/// events — and an optional recurrence interval.
#[derive(Clone, Debug)]
struct Queued {
    tick: u64,
    seq: u64,
    event: SchedEvent,
    every: Option<u64>,
}

// Ordering is (tick, seq) only: two occurrences never compare equal
// (seq is unique), so heap order is total and insertion-stable.
impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.tick == other.tick && self.seq == other.seq
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.tick, self.seq).cmp(&(other.tick, other.seq))
    }
}

/// A deterministic discrete-event schedule for one victim machine.
///
/// The virtual wall clock advances one tick per
/// [`VictimSchedule::ops_per_tick`] victim-observed ops; every op, the
/// machine pops all due events in `(tick, insertion-seq)` order and
/// applies them through its existing chokepoints. Built with the
/// [`VictimSchedule::at`] / [`VictimSchedule::every`] builders or
/// parsed from a trace file ([`VictimSchedule::from_trace`]).
#[derive(Clone, Debug)]
pub struct VictimSchedule {
    ops_per_tick: u64,
    ops_seen: u64,
    queue: BinaryHeap<Reverse<Queued>>,
    seq: u64,
    fired: u64,
    /// The preset the environment is currently in (initially the
    /// base the schedule was installed over).
    profile: NoiseProfile,
    tenants: u32,
    tenant_weight: f64,
    draw_state: u64,
    module_region: Option<SchedRegion>,
    spawn_region: Option<SchedRegion>,
    /// Schedule-loaded module images as `(base, pages)`, unload order
    /// LIFO — the schedule only ever unloads what it loaded.
    loaded: Vec<(u64, u64)>,
}

/// Default additive noise multiplier contributed by each co-tenant:
/// `n` tenants scale σ and spike rate by `1 + n × weight`.
pub const DEFAULT_TENANT_WEIGHT: f64 = 2.0;

impl VictimSchedule {
    /// An empty schedule ticking every `ops_per_tick` ops, with its
    /// SplitMix64 draw stream seeded from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `ops_per_tick` is zero.
    #[must_use]
    pub fn new(ops_per_tick: u64, seed: u64) -> Self {
        assert!(ops_per_tick > 0, "ops-per-tick must be positive");
        Self {
            ops_per_tick,
            ops_seen: 0,
            queue: BinaryHeap::new(),
            seq: 0,
            fired: 0,
            profile: NoiseProfile::Quiet,
            tenants: 0,
            tenant_weight: DEFAULT_TENANT_WEIGHT,
            draw_state: splitmix64(seed ^ 0x5ced_00e5_ca1e_cafe),
            module_region: None,
            spawn_region: None,
            loaded: Vec::new(),
        }
    }

    /// Sets the base noise preset — what [`SchedEvent::TenantArrive`]
    /// multipliers apply over until the first
    /// [`SchedEvent::NoiseSwap`]. Campaigns pass their noise axis.
    #[must_use]
    pub fn with_base(mut self, base: NoiseProfile) -> Self {
        self.profile = base;
        self
    }

    /// Sets the per-tenant noise multiplier weight
    /// (default [`DEFAULT_TENANT_WEIGHT`]).
    #[must_use]
    pub fn with_tenant_weight(mut self, weight: f64) -> Self {
        self.tenant_weight = weight;
        self
    }

    /// Sets the region [`SchedEvent::ModuleLoad`] maps images into.
    /// Without one, module events are skipped (they still fire).
    #[must_use]
    pub fn with_module_region(mut self, region: SchedRegion) -> Self {
        self.module_region = Some(region);
        self
    }

    /// Sets the region [`SchedEvent::ProcessSpawn`] maps images into.
    /// Without one, spawn events are skipped (they still fire).
    #[must_use]
    pub fn with_spawn_region(mut self, region: SchedRegion) -> Self {
        self.spawn_region = Some(region);
        self
    }

    /// Queues `event` once at `tick`. Events sharing a tick fire in
    /// insertion order (stable FIFO tie-break).
    #[must_use]
    pub fn at(mut self, tick: u64, event: SchedEvent) -> Self {
        self.push(tick, event, None);
        self
    }

    /// Queues `event` at `first`, then every `interval` ticks forever.
    /// A recurrence re-enters the queue behind anything else already
    /// scheduled for its tick.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn every(mut self, first: u64, interval: u64, event: SchedEvent) -> Self {
        assert!(interval > 0, "recurrence interval must be positive");
        self.push(first, event, Some(interval));
        self
    }

    fn push(&mut self, tick: u64, event: SchedEvent, every: Option<u64>) {
        self.seq += 1;
        self.queue.push(Reverse(Queued {
            tick,
            seq: self.seq,
            event,
            every,
        }));
    }

    /// The wall-clock rate: victim-observed ops per tick.
    #[must_use]
    pub fn ops_per_tick(&self) -> u64 {
        self.ops_per_tick
    }

    /// Victim-observed ops so far.
    #[must_use]
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// The current wall-clock tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.ops_seen / self.ops_per_tick
    }

    /// Events fired so far.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Queued occurrences not yet fired (recurring events count once).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Co-tenants currently resident.
    #[must_use]
    pub fn tenants(&self) -> u32 {
        self.tenants
    }

    /// The noise preset the environment is currently in.
    #[must_use]
    pub fn profile(&self) -> NoiseProfile {
        self.profile
    }

    /// Module images loaded by the schedule and not yet unloaded.
    #[must_use]
    pub fn loaded_modules(&self) -> usize {
        self.loaded.len()
    }

    /// Whether the schedule can ever fire (an empty queue is a no-op
    /// and need not be installed at all).
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Counts one victim-observed op and reports whether any event is
    /// now due — the machine's per-op fast path (one increment, one
    /// heap peek).
    pub fn advance_op(&mut self) -> bool {
        self.ops_seen += 1;
        let now = self.now();
        self.queue.peek().is_some_and(|Reverse(q)| q.tick <= now)
    }

    /// Pops the next due event in `(tick, insertion-seq)` order,
    /// re-queueing recurrences. `None` once the current tick is drained.
    pub fn pop_due(&mut self) -> Option<SchedEvent> {
        let now = self.now();
        if self.queue.peek().is_none_or(|Reverse(q)| q.tick > now) {
            return None;
        }
        let Reverse(q) = self.queue.pop().expect("peeked above");
        if let Some(interval) = q.every {
            self.push(q.tick + interval, q.event, Some(interval));
        }
        self.fired += 1;
        Some(q.event)
    }

    /// The noise model the current environment induces on `timing`:
    /// the active preset's model with σ and spike rate scaled by
    /// `1 + tenants × weight` (spike rate capped at 0.5 like every
    /// preset; spike magnitudes are interrupt-length, not
    /// contention-scaled). This is what the machine feeds its
    /// stationary-swap site after any noise-shaped event.
    #[must_use]
    pub fn effective_model(&self, timing: &TimingParams) -> NoiseModel {
        let base = self.profile.model_for(timing);
        let m = 1.0 + f64::from(self.tenants) * self.tenant_weight;
        NoiseModel::new(
            base.sigma * m,
            (base.spike_prob * m).min(0.5),
            base.spike_range,
        )
    }

    /// Applies a noise-shaped event to the environment state. Returns
    /// `true` when the effective model changed and the machine must
    /// re-resolve it (the space-shaped events return `false` here and
    /// go through [`VictimSchedule::apply_space_event`] instead).
    pub fn apply_env_event(&mut self, event: SchedEvent) -> bool {
        match event {
            SchedEvent::NoiseSwap(p) => {
                self.profile = p;
                true
            }
            SchedEvent::TenantArrive => {
                self.tenants += 1;
                true
            }
            SchedEvent::TenantDepart if self.tenants > 0 => {
                self.tenants -= 1;
                true
            }
            _ => false,
        }
    }

    /// Applies a space-shaped event to `space`, routing every mutation
    /// through [`AddressSpace::map_range`] / [`AddressSpace::unmap_range`]
    /// (the batched leaf writer). Returns `true` when the space mutated —
    /// the caller performs the TLB shootdown an OS would.
    pub fn apply_space_event(&mut self, event: SchedEvent, space: &mut AddressSpace) -> bool {
        match event {
            SchedEvent::ModuleLoad { pages } => {
                let Some(region) = self.module_region else {
                    return false;
                };
                self.map_image(space, region, pages, PteFlags::kernel_rx())
                    .map(|base| self.loaded.push((base, pages)))
                    .is_some()
            }
            SchedEvent::ModuleUnload => {
                let Some((base, pages)) = self.loaded.pop() else {
                    return false;
                };
                space
                    .unmap_range(VirtAddr::new_truncate(base), pages, PageSize::Size4K)
                    .expect("schedule-loaded pages are mapped");
                true
            }
            SchedEvent::ProcessSpawn { pages } => {
                let Some(region) = self.spawn_region else {
                    return false;
                };
                self.map_image(space, region, pages, PteFlags::user_ro())
                    .is_some()
            }
            _ => false,
        }
    }

    /// Draws a free slot of `region` and maps `pages` 4 KiB pages
    /// there. Up to 8 draws are tried before the event is skipped
    /// (a full region is a full region — real `insmod` fails too).
    fn map_image(
        &mut self,
        space: &mut AddressSpace,
        region: SchedRegion,
        pages: u64,
        flags: PteFlags,
    ) -> Option<u64> {
        let slots = (region.end - region.start) / region.slot_align;
        let bytes = pages * 4096;
        for _ in 0..8 {
            self.draw_state = splitmix64(self.draw_state);
            let base = region.start + (self.draw_state % slots) * region.slot_align;
            if base + bytes > region.end {
                continue;
            }
            let free = (0..pages).all(|i| {
                space
                    .lookup(VirtAddr::new_truncate(base + i * 4096))
                    .is_none()
            });
            if !free {
                continue;
            }
            space
                .map_range(VirtAddr::new_truncate(base), pages, PageSize::Size4K, flags)
                .expect("checked free above");
            return Some(base);
        }
        None
    }

    /// Parses a schedule from the trace-file format (see
    /// `docs/VICTIMS.md`): `#` comments, optional `ops-per-tick <n>` /
    /// `tenant-weight <f>` / `base <preset>` headers, then one event
    /// per line — `at <tick> <event>` or `every <first> <interval>
    /// <event>` with events `noise <preset>`, `tenant-arrive`,
    /// `tenant-depart`, `module-load <pages>`, `module-unload`,
    /// `process-spawn <pages>`.
    ///
    /// ```
    /// use avx_uarch::sched::VictimSchedule;
    ///
    /// let sched = VictimSchedule::from_trace(
    ///     "ops-per-tick 32\n\
    ///      every 4 8 noise laptop\n\
    ///      every 8 8 noise quiet\n\
    ///      at 16 tenant-arrive\n",
    ///     7,
    /// )
    /// .unwrap();
    /// assert_eq!(sched.ops_per_tick(), 32);
    /// assert_eq!(sched.pending(), 3);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a line-tagged message on any token the grammar does not
    /// accept.
    pub fn from_trace(text: &str, seed: u64) -> Result<Self, String> {
        let mut sched = Self::new(64, seed);
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("trace line {}: {what}: {raw:?}", idx + 1);
            let mut tok = line.split_whitespace();
            let head = tok.next().expect("non-empty line has a head token");
            match head {
                "ops-per-tick" => {
                    let n: u64 = tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| err("expected a positive integer"))?;
                    sched.ops_per_tick = n;
                }
                "tenant-weight" => {
                    let w: f64 = tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|w: &f64| w.is_finite() && *w >= 0.0)
                        .ok_or_else(|| err("expected a non-negative number"))?;
                    sched.tenant_weight = w;
                }
                "base" => {
                    let p = tok
                        .next()
                        .and_then(NoiseProfile::parse)
                        .ok_or_else(|| err("unknown noise preset"))?;
                    sched.profile = p;
                }
                "at" => {
                    let tick: u64 = tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("expected a tick number"))?;
                    let event = parse_event(&mut tok).map_err(|e| err(&e))?;
                    sched.push(tick, event, None);
                }
                "every" => {
                    let first: u64 = tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("expected a first-tick number"))?;
                    let interval: u64 = tok
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| err("expected a positive interval"))?;
                    let event = parse_event(&mut tok).map_err(|e| err(&e))?;
                    sched.push(first, event, Some(interval));
                }
                _ => return Err(err("unknown directive")),
            }
            if tok.next().is_some() {
                return Err(err("trailing tokens"));
            }
        }
        Ok(sched)
    }
}

/// Parses one event tail (`noise laptop`, `module-load 16`, ...).
fn parse_event<'a, I: Iterator<Item = &'a str>>(tok: &mut I) -> Result<SchedEvent, String> {
    match tok.next() {
        Some("noise") => tok
            .next()
            .and_then(NoiseProfile::parse)
            .map(SchedEvent::NoiseSwap)
            .ok_or_else(|| "unknown noise preset".to_string()),
        Some("tenant-arrive") => Ok(SchedEvent::TenantArrive),
        Some("tenant-depart") => Ok(SchedEvent::TenantDepart),
        Some("module-load") => tok
            .next()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .map(|pages| SchedEvent::ModuleLoad { pages })
            .ok_or_else(|| "expected a positive page count".to_string()),
        Some("module-unload") => Ok(SchedEvent::ModuleUnload),
        Some("process-spawn") => tok
            .next()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .map(|pages| SchedEvent::ProcessSpawn { pages })
            .ok_or_else(|| "expected a positive page count".to_string()),
        _ => Err("unknown event".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_tick(s: &mut VictimSchedule) -> Vec<SchedEvent> {
        let mut out = Vec::new();
        while let Some(e) = s.pop_due() {
            out.push(e);
        }
        out
    }

    #[test]
    fn clock_advances_at_the_configured_rate() {
        let mut s = VictimSchedule::new(4, 0).at(2, SchedEvent::TenantArrive);
        for _ in 0..7 {
            assert!(!s.advance_op(), "tick 2 starts at op 8");
        }
        assert!(s.advance_op(), "op 8 reaches tick 2");
        assert_eq!(s.now(), 2);
        assert_eq!(drain_tick(&mut s), vec![SchedEvent::TenantArrive]);
        assert_eq!(s.fired(), 1);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut s = VictimSchedule::new(1, 0)
            .at(3, SchedEvent::NoiseSwap(NoiseProfile::LaptopDvfs))
            .at(3, SchedEvent::TenantArrive)
            .at(3, SchedEvent::NoiseSwap(NoiseProfile::Quiet))
            .at(1, SchedEvent::TenantDepart);
        for _ in 0..3 {
            let _ = s.advance_op();
        }
        assert_eq!(
            drain_tick(&mut s),
            vec![
                SchedEvent::TenantDepart,
                SchedEvent::NoiseSwap(NoiseProfile::LaptopDvfs),
                SchedEvent::TenantArrive,
                SchedEvent::NoiseSwap(NoiseProfile::Quiet),
            ],
            "ticks ascend, ties break FIFO"
        );
    }

    #[test]
    fn recurrences_requeue_behind_same_tick_events() {
        let mut s = VictimSchedule::new(1, 0)
            .every(2, 2, SchedEvent::TenantArrive)
            .at(4, SchedEvent::TenantDepart);
        for _ in 0..2 {
            let _ = s.advance_op();
        }
        assert_eq!(drain_tick(&mut s), vec![SchedEvent::TenantArrive]);
        for _ in 0..2 {
            let _ = s.advance_op();
        }
        // The tick-4 one-shot was queued before the recurrence re-entered.
        assert_eq!(
            drain_tick(&mut s),
            vec![SchedEvent::TenantDepart, SchedEvent::TenantArrive]
        );
        assert_eq!(s.pending(), 1, "the recurrence lives on");
    }

    #[test]
    fn replay_is_bit_deterministic() {
        let run = |seed: u64| {
            let mut s = VictimSchedule::new(3, seed)
                .every(1, 2, SchedEvent::NoiseSwap(NoiseProfile::LaptopDvfs))
                .every(2, 2, SchedEvent::NoiseSwap(NoiseProfile::Quiet))
                .at(5, SchedEvent::TenantArrive);
            let mut log = Vec::new();
            for op in 0..64u64 {
                if s.advance_op() {
                    for e in drain_tick(&mut s) {
                        log.push((op, format!("{e}")));
                    }
                }
            }
            log
        };
        assert_eq!(run(9), run(9), "same seed, same timeline");
    }

    #[test]
    fn tenants_scale_the_effective_model_additively() {
        let timing = crate::profile::CpuProfile::alder_lake_i5_12400f().timing;
        let mut s = VictimSchedule::new(1, 0).with_tenant_weight(2.0);
        let base = s.effective_model(&timing);
        assert_eq!(base, NoiseProfile::Quiet.model_for(&timing));
        assert!(s.apply_env_event(SchedEvent::TenantArrive));
        let one = s.effective_model(&timing);
        assert_eq!(one.sigma, base.sigma * 3.0, "1 + 1×2 multiplier");
        assert_eq!(one.spike_range, base.spike_range, "magnitudes untouched");
        assert!(s.apply_env_event(SchedEvent::TenantDepart));
        assert_eq!(s.effective_model(&timing), base, "departure restores");
        assert!(
            !s.apply_env_event(SchedEvent::TenantDepart),
            "no underflow at zero tenants"
        );
    }

    #[test]
    fn noise_swap_rebases_the_tenant_multiplier() {
        let timing = crate::profile::CpuProfile::alder_lake_i5_12400f().timing;
        let mut s = VictimSchedule::new(1, 0).with_tenant_weight(1.0);
        assert!(s.apply_env_event(SchedEvent::TenantArrive));
        assert!(s.apply_env_event(SchedEvent::NoiseSwap(NoiseProfile::LaptopDvfs)));
        let m = s.effective_model(&timing);
        let laptop = NoiseProfile::LaptopDvfs.model_for(&timing);
        assert_eq!(m.sigma, laptop.sigma * 2.0, "tenant rides the new preset");
    }

    #[test]
    fn module_churn_maps_and_unmaps_through_the_space() {
        let region = SchedRegion::new(0xffff_ffff_c000_0000, 0xffff_ffff_c400_0000, 0x10_0000);
        let mut s = VictimSchedule::new(1, 7).with_module_region(region);
        let mut space = AddressSpace::new();
        let epoch0 = space.shape_epoch();

        assert!(s.apply_space_event(SchedEvent::ModuleLoad { pages: 16 }, &mut space));
        assert_eq!(s.loaded_modules(), 1);
        assert_eq!(space.mapped_pages(), 16);
        assert!(space.shape_epoch() > epoch0, "mutation bumps the epoch");

        assert!(s.apply_space_event(SchedEvent::ModuleUnload, &mut space));
        assert_eq!(s.loaded_modules(), 0);
        assert_eq!(space.mapped_pages(), 0, "only its own pages unmapped");
        assert!(
            !s.apply_space_event(SchedEvent::ModuleUnload, &mut space),
            "nothing left to unload"
        );
    }

    #[test]
    fn spawn_without_a_region_is_skipped() {
        let mut s = VictimSchedule::new(1, 7);
        let mut space = AddressSpace::new();
        assert!(!s.apply_space_event(SchedEvent::ProcessSpawn { pages: 4 }, &mut space));
        assert!(!s.apply_space_event(SchedEvent::ModuleLoad { pages: 4 }, &mut space));
        assert_eq!(space.mapped_pages(), 0);
    }

    #[test]
    fn image_draws_are_seed_deterministic_and_collision_free() {
        let region = SchedRegion::new(0x7f00_0000_0000, 0x7f00_0100_0000, 0x10_0000);
        let bases = |seed: u64| {
            let mut s = VictimSchedule::new(1, seed).with_module_region(region);
            let mut space = AddressSpace::new();
            let mut bases = Vec::new();
            for _ in 0..8 {
                assert!(s.apply_space_event(SchedEvent::ModuleLoad { pages: 4 }, &mut space));
                bases.push(s.loaded.last().copied().unwrap());
            }
            bases
        };
        assert_eq!(bases(3), bases(3), "same seed, same slots");
        assert_ne!(bases(3), bases(4), "different seed diverges");
        let drawn = bases(3);
        let unique: std::collections::HashSet<_> = drawn.iter().map(|&(b, _)| b).collect();
        assert_eq!(unique.len(), drawn.len(), "no slot collisions");
    }

    #[test]
    fn trace_round_trips_the_full_grammar() {
        let text = "\
            # a DVFS duty cycle with churn\n\
            ops-per-tick 32\n\
            tenant-weight 1.5\n\
            base laptop\n\
            every 4 8 noise quiet   # swap back\n\
            at 6 tenant-arrive\n\
            at 6 tenant-depart\n\
            at 10 module-load 16\n\
            at 12 module-unload\n\
            at 14 process-spawn 8\n";
        let s = VictimSchedule::from_trace(text, 7).unwrap();
        assert_eq!(s.ops_per_tick(), 32);
        assert_eq!(s.tenant_weight, 1.5);
        assert_eq!(s.profile(), NoiseProfile::LaptopDvfs);
        assert_eq!(s.pending(), 6);
        assert!(s.is_active());
    }

    #[test]
    fn trace_errors_are_line_tagged() {
        for (text, what) in [
            ("ops-per-tick 0\n", "positive integer"),
            ("at x noise quiet\n", "tick number"),
            ("every 4 0 noise quiet\n", "positive interval"),
            ("at 4 noise loudest\n", "noise preset"),
            ("at 4 module-load 0\n", "page count"),
            ("warp 4\n", "unknown directive"),
            ("at 4 tenant-arrive extra\n", "trailing tokens"),
        ] {
            let err = VictimSchedule::from_trace(text, 0).unwrap_err();
            assert!(err.contains("line 1"), "{err}");
            assert!(err.contains(what), "{err} should mention {what}");
        }
    }

    #[test]
    fn empty_schedule_is_inactive() {
        assert!(!VictimSchedule::new(64, 0).is_active());
        assert!(VictimSchedule::from_trace("# only comments\n", 0)
            .unwrap()
            .is_active()
            .eq(&false));
    }
}
