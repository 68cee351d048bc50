//! The schedule axis — event-driven victims as the fifth campaign knob.
//!
//! The drift ramp from [`avx_uarch::NoiseProfile::Drift`] advances per
//! probe, but a real victim's environment changes on a wall clock the
//! attacker does not control: DVFS duty cycles, co-tenant arrival and
//! departure, module load/unload. [`ScheduleKind`] packages the three
//! canonical event shapes as named presets over
//! [`avx_uarch::VictimSchedule`], the discrete-event scheduler the
//! victim side of [`Machine`] owns. An installed schedule's events all
//! route through existing chokepoints — noise swaps through the
//! [`Machine::set_noise`] site, layout churn through the batched
//! page-table writer — so the closed-loop recalibrator sees them
//! through [`crate::recal::DriftMonitor::check`] alone (invariant 8:
//! no new trigger sites).
//!
//! * [`ScheduleKind::None`] — the bit-exact historical victim.
//!   Installing it does nothing at all (invariant 13: no schedule ⇒
//!   no clock reads), so every pre-schedule golden row is unchanged by
//!   construction.
//! * [`ScheduleKind::DvfsSquare`] — a square-wave DVFS duty cycle:
//!   the victim core oscillates between the campaign's base noise
//!   preset and [`NoiseProfile::LaptopDvfs`] on a fixed period.
//! * [`ScheduleKind::CoTenantBurst`] — co-tenant arrival/departure
//!   bursts: two tenants arrive back-to-back, linger, then depart,
//!   each scaling the victim's noise model additively.
//! * [`ScheduleKind::ModuleChurn`] — mid-scan layout churn: kernel
//!   modules load and unload in the module region and short-lived
//!   processes spawn in user space, mutating the trial's own machine
//!   clone through the batched page-table writer.
//!
//! Installation is per-machine and per-trial, after the defense axis
//! and before the first probe; the schedule's randomness is derived
//! from the trial seed through its own SplitMix64 stream, never from
//! the machine's measurement RNG.
//!
//! ```
//! use avx_channel::attacks::campaign::{CampaignConfig, Scenario};
//! use avx_channel::schedule::ScheduleKind;
//! use avx_uarch::CpuProfile;
//!
//! let config = CampaignConfig::new(2, 0).with_schedule(ScheduleKind::CoTenantBurst);
//! let row = Scenario::KernelBase.campaign(&CpuProfile::alder_lake_i5_12400f(), config);
//! assert_eq!(row.schedule, "cotenant-burst");
//! ```

use core::fmt;

use avx_os::linux::{MODULE_ALIGN, MODULE_REGION_END, MODULE_REGION_START};
use avx_uarch::defense::splitmix64;
use avx_uarch::{Machine, NoiseProfile, SchedEvent, SchedRegion, VictimSchedule};

/// Virtual-clock rate of every schedule preset: one tick per 64
/// victim-observed ops. At 2 probes per scanned slot this makes a tick
/// span 32 slots — coarse enough that whole probe tiles land inside
/// one environment phase, fine enough that every preset fires well
/// within a single 512-slot kernel-base scan.
pub const DEFAULT_OPS_PER_TICK: u64 = 64;

/// Start of the user-space region [`ScheduleKind::ModuleChurn`] spawns
/// short-lived process images into. Deliberately far from both the
/// campaign calibration page (`0x5400_0000_0000`) and the library
/// regions the user-space scanner sweeps (`0x7f3e_...`), so spawned
/// images never shadow an attack target.
pub const SPAWN_REGION_START: u64 = 0x6000_0000_0000;

/// End (exclusive) of the process-spawn region: 1024 pages.
pub const SPAWN_REGION_END: u64 = 0x6000_0040_0000;

/// The schedule menu — the fifth campaign axis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ScheduleKind {
    /// No schedule: the bit-exact historical victim.
    #[default]
    None,
    /// Square-wave DVFS duty cycle between the base noise preset and
    /// [`NoiseProfile::LaptopDvfs`].
    DvfsSquare,
    /// Co-tenant arrival/departure bursts scaling the noise model
    /// additively.
    CoTenantBurst,
    /// Mid-scan module load/unload plus process spawns mutating the
    /// victim's address space.
    ModuleChurn,
}

impl ScheduleKind {
    /// All schedules, grid order.
    pub const ALL: [ScheduleKind; 4] = [
        ScheduleKind::None,
        ScheduleKind::DvfsSquare,
        ScheduleKind::CoTenantBurst,
        ScheduleKind::ModuleChurn,
    ];

    /// The row/CLI label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScheduleKind::None => "none",
            ScheduleKind::DvfsSquare => "dvfs-square",
            ScheduleKind::CoTenantBurst => "cotenant-burst",
            ScheduleKind::ModuleChurn => "module-churn",
        }
    }

    /// Parses a CLI/env name (`--schedule <name>` / `AVX_SCHEDULE`).
    #[must_use]
    pub fn parse(name: &str) -> Option<ScheduleKind> {
        match name {
            "none" | "off" => Some(ScheduleKind::None),
            "dvfs-square" | "dvfs" | "square" => Some(ScheduleKind::DvfsSquare),
            "cotenant-burst" | "cotenant" | "burst" => Some(ScheduleKind::CoTenantBurst),
            "module-churn" | "churn" => Some(ScheduleKind::ModuleChurn),
            _ => None,
        }
    }

    /// Builds the preset's [`VictimSchedule`] over the campaign's base
    /// noise preset, with event randomness derived from `seed` through
    /// a dedicated SplitMix64 stream. `None` builds nothing.
    ///
    /// `base` matters because [`Machine`] stores the *resolved*
    /// [`avx_uarch::NoiseModel`], not the preset: the DVFS square wave
    /// needs the preset name to swap back to, and the tenant
    /// multiplier rebases on whatever preset is current.
    #[must_use]
    pub fn build(self, base: NoiseProfile, seed: u64) -> Option<VictimSchedule> {
        let sched_seed = splitmix64(seed ^ 0x5c4e_d7ab_1e00_cafe);
        match self {
            ScheduleKind::None => None,
            // Laptop phase ticks 4..10, base phase ticks 10..16, then
            // repeat: a 768-op period whose first edge (op 256) lines
            // up with the drift ramp's default onset, so the PR 5
            // closed-loop machinery faces the same "world moved after
            // calibration" shape — now event-driven.
            ScheduleKind::DvfsSquare => Some(
                VictimSchedule::new(DEFAULT_OPS_PER_TICK, sched_seed)
                    .with_base(base)
                    .every(4, 12, SchedEvent::NoiseSwap(NoiseProfile::LaptopDvfs))
                    .every(10, 12, SchedEvent::NoiseSwap(base)),
            ),
            // Two tenants arrive back-to-back, linger for half the
            // 1024-op period, then depart in order — a sawtooth of
            // multipliers 1 → 3 → 5 → 3 → 1 over the base model.
            ScheduleKind::CoTenantBurst => Some(
                VictimSchedule::new(DEFAULT_OPS_PER_TICK, sched_seed)
                    .with_base(base)
                    .every(4, 16, SchedEvent::TenantArrive)
                    .every(8, 16, SchedEvent::TenantArrive)
                    .every(12, 16, SchedEvent::TenantDepart)
                    .every(16, 16, SchedEvent::TenantDepart),
            ),
            // A 16-page module loads every 512 ops and unloads 256 ops
            // later (LIFO), with a small process image spawning on a
            // slower period — steady-state churn through the batched
            // page-table writer.
            ScheduleKind::ModuleChurn => Some(
                VictimSchedule::new(DEFAULT_OPS_PER_TICK, sched_seed)
                    .with_base(base)
                    .with_module_region(SchedRegion::new(
                        MODULE_REGION_START,
                        MODULE_REGION_END,
                        MODULE_ALIGN,
                    ))
                    .with_spawn_region(SchedRegion::new(
                        SPAWN_REGION_START,
                        SPAWN_REGION_END,
                        0x1000,
                    ))
                    .every(4, 8, SchedEvent::ModuleLoad { pages: 16 })
                    .every(8, 8, SchedEvent::ModuleUnload)
                    .every(6, 16, SchedEvent::ProcessSpawn { pages: 4 }),
            ),
        }
    }

    /// Installs this schedule on `machine`. The single installation
    /// chokepoint every campaign trial goes through, mirroring
    /// [`crate::defense::DefenseKind::install`]. `None` is
    /// architecturally silent: the machine keeps its empty schedule
    /// slot and never reads the virtual clock.
    pub fn install(self, machine: &mut Machine, base: NoiseProfile, seed: u64) {
        machine.set_victim_schedule(self.build(base, seed));
    }
}

impl fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for kind in ScheduleKind::ALL {
            assert_eq!(ScheduleKind::parse(kind.name()), Some(kind), "{kind}");
        }
        assert_eq!(ScheduleKind::parse("dvfs"), Some(ScheduleKind::DvfsSquare));
        assert_eq!(
            ScheduleKind::parse("burst"),
            Some(ScheduleKind::CoTenantBurst)
        );
        assert_eq!(
            ScheduleKind::parse("churn"),
            Some(ScheduleKind::ModuleChurn)
        );
        assert_eq!(ScheduleKind::parse("off"), Some(ScheduleKind::None));
        assert_eq!(ScheduleKind::parse("bogus"), None);
    }

    #[test]
    fn none_builds_nothing() {
        assert!(ScheduleKind::None.build(NoiseProfile::Quiet, 7).is_none());
    }

    #[test]
    fn presets_build_active_schedules_with_the_campaign_base() {
        for kind in [
            ScheduleKind::DvfsSquare,
            ScheduleKind::CoTenantBurst,
            ScheduleKind::ModuleChurn,
        ] {
            let sched = kind.build(NoiseProfile::SmtSibling, 7).expect("preset");
            assert!(sched.is_active(), "{kind}");
            assert_eq!(sched.profile(), NoiseProfile::SmtSibling, "{kind}");
            assert_eq!(sched.ops_per_tick(), DEFAULT_OPS_PER_TICK, "{kind}");
        }
    }

    #[test]
    fn build_is_seed_deterministic() {
        let a = ScheduleKind::ModuleChurn
            .build(NoiseProfile::Quiet, 41)
            .expect("preset");
        let b = ScheduleKind::ModuleChurn
            .build(NoiseProfile::Quiet, 41)
            .expect("preset");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn spawn_region_avoids_attack_targets() {
        // The campaign calibration page and the user-space scanner's
        // library sweep must never collide with spawned images.
        let calibration_page = 0x5400_0000_0000u64;
        let library_sweep_floor = 0x7f00_0000_0000u64;
        assert!(SPAWN_REGION_END < library_sweep_floor);
        assert!(SPAWN_REGION_START > calibration_page + 0x1000);
    }
}
