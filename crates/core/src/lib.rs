//! # avx-channel — the AVX timing side-channel attack library
//!
//! A faithful reproduction of *AVX Timing Side-Channel Attacks against
//! Address Space Layout Randomization* (Choi, Kim, Shin — DAC 2023).
//!
//! The AVX/AVX2 masked load/store instructions (`VMASKMOV`,
//! `VPMASKMOV`) suppress page faults for masked-out lanes, yet their
//! *latency* still depends on the translation of the probed address:
//! present vs non-present, TLB-cached vs not, walk depth, page
//! permissions. This crate packages those observations as three
//! reusable primitives and the paper's complete set of end-to-end
//! attacks:
//!
//! | Attack | Paper section | Entry point |
//! |---|---|---|
//! | Kernel base (Intel) | §IV-B, Fig. 4 | [`attacks::KernelBaseFinder`] |
//! | Kernel base (AMD) | §IV-B | [`attacks::AmdKernelBaseFinder`] |
//! | Module identification | §IV-C, Fig. 5 | [`attacks::ModuleScanner`] |
//! | KPTI trampoline | §IV-D | [`attacks::KptiAttack`] |
//! | Behaviour inference | §IV-E, Fig. 6 | [`attacks::TlbSpy`] |
//! | User-space / SGX | §IV-F, Fig. 7 | [`attacks::UserSpaceScanner`] |
//! | Windows 10 / KVAS | §IV-G | [`attacks::WindowsKaslrAttack`] |
//! | Cloud guests | §IV-H | [`attacks::run_scenario`] under an [`attacks::CampaignConfig`] |
//! | Defense analysis | §V | [`defense`], [`defense::point_checks`] |
//!
//! Attacks are generic over [`Prober`]; [`SimProber`] runs them against
//! the deterministic microarchitectural simulator, while the `avx-hw`
//! crate provides the same interface over real AVX2 hardware.
//!
//! ## Quick start
//!
//! ```
//! use avx_channel::{KernelBaseFinder, SimProber, Threshold};
//! use avx_os::linux::{LinuxConfig, LinuxSystem};
//! use avx_uarch::CpuProfile;
//!
//! // A KASLR-randomized Linux machine...
//! let system = LinuxSystem::build(LinuxConfig::seeded(42));
//! let (machine, truth) = system.into_machine(CpuProfile::alder_lake_i5_12400f(), 7);
//!
//! // ...attacked from an unprivileged process:
//! let mut prober = SimProber::new(machine);
//! let threshold = Threshold::calibrate(&mut prober, truth.user.calibration, 16);
//! let scan = KernelBaseFinder::new(threshold).scan(&mut prober);
//!
//! assert_eq!(scan.base, Some(truth.kernel_base));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod adaptive;
pub mod attacks;
pub mod calibrate;
pub mod decision;
pub mod defense;
pub mod fleet;
pub mod primitives;
pub mod prober;
pub mod recal;
pub mod report;
pub mod schedule;
pub mod stats;
pub mod sweep;
pub mod tape;

pub use adaptive::{AdaptiveConfig, AdaptiveMinFilter, AdaptiveSampler, Sampling};
pub use attacks::{
    AmdKernelBaseFinder, KernelBaseFinder, KptiAttack, KptiConfidence, ModuleClassifier,
    ModuleScanner, TlbSpy, UserSpaceScanner, WindowsKaslrAttack,
};
pub use calibrate::{CalibrationFit, Calibrator, CalibratorKind, Threshold};
pub use decision::{ConfirmConfig, Confirmation, Confirmer, FirstConfirmed, RunTracker, SlotSprt};
pub use defense::{
    Defense, DefenseKind, DefenseRegion, MaskedTranslation, NoDefense, Rerandomizing,
};
pub use fleet::{victim_seed, Fleet, FleetConfig, FleetReducer, FleetReport};
pub use primitives::{
    LevelAttack, PageTableAttack, PermissionAttack, ProbedPerm, TlbAttack, TlbState,
};
pub use prober::{ProbeStrategy, Prober, SimProber};
pub use recal::{DriftMonitor, DriftSignal, RecalConfig, RecalEvent, Recalibrating};
pub use schedule::ScheduleKind;
pub use sweep::AddrRange;
pub use tape::{CostTape, TapeProber, TapeRecorder};
