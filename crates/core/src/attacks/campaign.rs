//! Accuracy/runtime campaigns — the Table I methodology as an engine.
//!
//! The paper's Table I reruns each attack over n = 10000 freshly
//! randomized systems ("we rebooted Linux 10 times…", §IV-B) and
//! reports average probing/total runtime plus accuracy. This module
//! generalizes that loop to *every* attack of §IV: a [`Scenario`] knows
//! how to build one fresh victim system, run one attack against it and
//! score the outcome; a [`Campaign`] fans a scenario × CPU-profile ×
//! noise-profile matrix out over seed-numbered trials — in parallel via
//! rayon, since trials are independent by construction — and aggregates
//! each cell into one Table I-style [`CampaignRow`], including the
//! probes-per-address budget the cell actually spent.
//!
//! ```
//! use avx_channel::attacks::campaign::{Campaign, CampaignConfig, Scenario};
//! use avx_uarch::CpuProfile;
//!
//! let row = Scenario::KernelBase.campaign(
//!     &CpuProfile::alder_lake_i5_12400f(),
//!     CampaignConfig::new(4, 1),
//! );
//! assert_eq!(row.accuracy.total, 4);
//! assert!(row.probes_per_address > 0.0);
//! let _ = Campaign::full(CampaignConfig::new(2, 0));
//! ```

use core::fmt;

use rayon::prelude::*;

use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};
use avx_os::activity::{apply_activity, ActivityTimeline, Behaviour};
use avx_os::cloud::CloudScenario;
use avx_os::linux::{LinuxConfig, LinuxSystem, KERNEL_SLOTS, KPTI_TRAMPOLINE_OFFSET, MODULE_SLOTS};
use avx_os::process::{build_process, ImageSignature};
use avx_os::windows::{WindowsConfig, WindowsSystem};
use avx_uarch::{
    CpuProfile, Machine, NoiseModel, NoiseProfile, NoiseStream, ObservablesVersion, Vendor,
};

use crate::adaptive::{AdaptiveSampler, Sampling};
use crate::calibrate::{CalibrationFit, CalibratorKind, Threshold};
use crate::decision::ConfirmConfig;
use crate::defense::{DefenseKind, DefenseRegion};
use crate::fleet::{legacy_trial_seed, machine_seed};
use crate::primitives::{PermissionAttack, TlbAttack};
use crate::prober::{Prober, SimProber};
use crate::recal::RecalConfig;
use crate::report::fmt_seconds;
use crate::schedule::ScheduleKind;
use crate::stats::Trials;
use crate::tape::{CostTape, TapeProber, TapeRecorder};

use super::behavior::{SpyConfig, TlbSpy};
use super::cloud::run_scenario;
use super::kaslr::{AmdKernelBaseFinder, KernelBaseFinder};
use super::kpti::KptiAttack;
use super::modules::ModuleScanner;
use super::userspace::{LibraryMatcher, UserSpaceScanner};
use super::windows::WindowsKaslrAttack;

/// Campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Fresh systems to attack (the paper uses 10000).
    pub trials: u64,
    /// First layout seed; trial *i* uses `seed0 + i`.
    pub seed0: u64,
    /// Noise environment the victim machines run in.
    pub noise: NoiseProfile,
    /// Probe-budget policy of the attacks.
    pub sampling: Sampling,
    /// Threshold estimator the attacks calibrate with. The default,
    /// [`CalibratorKind::Legacy`], is bit-exact with the historical
    /// calibration — golden rows only move when this is changed
    /// deliberately.
    pub calibrator: CalibratorKind,
    /// Closed-loop recalibration of the sweep attacks
    /// ([`crate::recal::Recalibrating`]). `None` — the default — is the
    /// paper's one-shot calibration; every pre-recalibration golden row
    /// is unchanged by construction.
    pub recal: Option<RecalConfig>,
    /// Confirmation decision layer of the needle-in-haystack scans
    /// ([`crate::decision`]). `None` — the default — keeps the
    /// historical first-mapped-wins detection rules bit-exact; every
    /// pre-confirmation golden row is unchanged by construction.
    pub confirm: Option<ConfirmConfig>,
    /// Noise-observables regime of the victim machines. The default,
    /// [`ObservablesVersion::V1`], is the bit-exact per-sample stream
    /// every pre-versioning golden row assumes;
    /// [`ObservablesVersion::V2`] runs the batched ziggurat kernel
    /// (distribution-equivalent, re-goldened once, tagged separately).
    pub observables: ObservablesVersion,
    /// Victim-side defense the trial machines run under
    /// ([`crate::defense`]). The default, [`DefenseKind::None`], is
    /// architecturally silent — every pre-defense golden row is
    /// bit-exact by construction.
    pub defense: DefenseKind,
    /// Event schedule the victim machines run under
    /// ([`crate::schedule`]). The default, [`ScheduleKind::None`], is
    /// architecturally silent (no schedule ⇒ no clock reads) — every
    /// pre-schedule golden row is bit-exact by construction.
    pub schedule: ScheduleKind,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            trials: 100,
            seed0: 0,
            noise: NoiseProfile::Quiet,
            sampling: Sampling::Fixed,
            calibrator: CalibratorKind::Legacy,
            recal: None,
            confirm: None,
            observables: ObservablesVersion::V1,
            defense: DefenseKind::None,
            schedule: ScheduleKind::None,
        }
    }
}

impl CampaignConfig {
    /// A quiet-host, fixed-sampling config — the paper's setup.
    #[must_use]
    pub fn new(trials: u64, seed0: u64) -> Self {
        Self {
            trials,
            seed0,
            ..Self::default()
        }
    }

    /// Same config under a different noise environment.
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseProfile) -> Self {
        self.noise = noise;
        self
    }

    /// Same config under a different probe-budget policy.
    #[must_use]
    pub fn with_sampling(mut self, sampling: Sampling) -> Self {
        self.sampling = sampling;
        self
    }

    /// Same config under a different threshold estimator.
    #[must_use]
    pub fn with_calibrator(mut self, calibrator: CalibratorKind) -> Self {
        self.calibrator = calibrator;
        self
    }

    /// Same config with closed-loop recalibration enabled for every
    /// sweep-shaped attack (what `repro --recalibrate` selects).
    #[must_use]
    pub fn with_recalibration(mut self, recal: RecalConfig) -> Self {
        self.recal = Some(recal);
        self
    }

    /// Same config with the confirmation decision layer enabled for
    /// every needle-in-haystack scan (what `repro --confirm` selects).
    #[must_use]
    pub fn with_confirmation(mut self, confirm: ConfirmConfig) -> Self {
        self.confirm = Some(confirm);
        self
    }

    /// Same config under a different observables regime (what
    /// `repro --observables v2` selects).
    #[must_use]
    pub fn with_observables(mut self, observables: ObservablesVersion) -> Self {
        self.observables = observables;
        self
    }

    /// Same config against a defended victim (what `repro --defense`
    /// selects).
    #[must_use]
    pub fn with_defense(mut self, defense: DefenseKind) -> Self {
        self.defense = defense;
        self
    }

    /// Same config against an event-driven victim (what
    /// `repro --schedule` selects).
    #[must_use]
    pub fn with_schedule(mut self, schedule: ScheduleKind) -> Self {
        self.schedule = schedule;
        self
    }

    /// Whether an attack under this config is open-loop against an
    /// inert victim: the op sequence is fixed in advance (fixed or
    /// fixed-budget sampling, no recalibration, no confirmation) and
    /// the victim never changes its own translations (no defense, no
    /// event schedule). Noise preset, drift, observables regime and
    /// calibrator are free: they move readings, never ops. Under such a
    /// config a trial's translation costs are a function of its layout
    /// alone, which is what lets the fleet replay cost tapes
    /// ([`crate::tape`]).
    #[must_use]
    pub fn is_open_loop(&self) -> bool {
        matches!(self.sampling, Sampling::Fixed | Sampling::FixedBudget(_))
            && self.recal.is_none()
            && self.confirm.is_none()
            && self.defense == DefenseKind::None
            && self.schedule == ScheduleKind::None
    }

    /// The noise stream of the victim machine a trial seeded `seed`
    /// runs on `profile` — the one definition of a victim's noise, used
    /// by the simulated machine and by a cost-tape replay alike.
    #[must_use]
    pub fn victim_noise(&self, profile: &CpuProfile, seed: u64) -> NoiseStream {
        let mut noise = NoiseStream::new(&profile.timing, machine_seed(seed));
        noise.set_profile(self.noise, &profile.timing);
        noise.set_observables(self.observables);
        noise
    }

    /// The adaptive sampler this config induces for a calibration fit
    /// on `profile`: [`Sampling::sampler_for_calibration`] with this
    /// config's estimator and the profile's oracle σ.
    #[must_use]
    pub fn sampler_for(
        &self,
        profile: &CpuProfile,
        fit: &CalibrationFit,
    ) -> Option<AdaptiveSampler> {
        self.sampling.sampler_for_calibration(
            self.calibrator,
            fit,
            self.noise.effective_sigma(&profile.timing),
        )
    }
}

/// One Table I row: averaged runtimes, the probe budget and the success
/// rate of one attack × CPU × noise cell.
#[derive(Clone, Debug)]
pub struct CampaignRow {
    /// CPU description.
    pub cpu: String,
    /// Attack target label ("Base", "Modules", …).
    pub target: &'static str,
    /// Noise environment the cell ran in.
    pub noise: NoiseProfile,
    /// Probe-budget policy label ("fixed", "fixed-budget", "adaptive").
    pub sampling: &'static str,
    /// Threshold-estimator label ("legacy", "trimmed", "bimodal",
    /// "noise-aware") the cell calibrated with.
    pub calibrator: &'static str,
    /// Observables-regime label ("v1", "v2") the cell's machines ran
    /// under.
    pub observables: &'static str,
    /// Defense label ("none", "masked", "rerandomizing") the cell's
    /// victims ran under.
    pub defense: &'static str,
    /// Schedule label ("none", "dvfs-square", "cotenant-burst",
    /// "module-churn") the cell's victims ran under.
    pub schedule: &'static str,
    /// Mean seconds inside the timed masked ops.
    pub probing_seconds: f64,
    /// Mean seconds including overhead.
    pub total_seconds: f64,
    /// Independent trials the cell ran.
    pub trials: u64,
    /// Raw probes issued across all trials of the cell.
    pub probes: u64,
    /// Mean raw probes per candidate address — the budget metric the
    /// adaptive engine economizes.
    pub probes_per_address: f64,
    /// Success tracker; what one record means is scenario-specific
    /// (per trial for bases, per module/library/sample otherwise).
    pub accuracy: Trials,
}

impl fmt::Display for CampaignRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Undefended rows keep the historical 4-part tag so every
        // pre-defense consumer (and golden assertion) is unchanged;
        // defended cells append their defense label and event-driven
        // cells their schedule label.
        let defense_tag = if self.defense == "none" {
            String::new()
        } else {
            format!("/{}", self.defense)
        };
        let schedule_tag = if self.schedule == "none" {
            String::new()
        } else {
            format!("/{}", self.schedule)
        };
        write!(
            f,
            "{} {} [{}/{}/{}/{}{}{}]: {} probing / {} total / {:.1} probes/addr / {:.2} %",
            self.cpu,
            self.target,
            self.noise,
            self.sampling,
            self.calibrator,
            self.observables,
            defense_tag,
            schedule_tag,
            fmt_seconds(self.probing_seconds),
            fmt_seconds(self.total_seconds),
            self.probes_per_address,
            self.accuracy.percent()
        )
    }
}

/// Result of one scenario trial against one fresh system.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrialOutcome {
    /// Seconds inside the timed masked ops.
    pub probing_seconds: f64,
    /// Seconds including overhead.
    pub total_seconds: f64,
    /// Raw probes the trial issued (calibration included).
    pub probes: u64,
    /// Candidate addresses the trial's sweeps covered.
    pub addresses: u64,
    /// Success records of this trial (one per trial for base attacks,
    /// one per module/library/sample for the others).
    pub accuracy: Trials,
    /// Confirmation-layer confidence tag of the trial's scan, for
    /// scenarios whose scan reports one (KPTI today). `None` elsewhere;
    /// the fleet reducer histograms these.
    pub confidence: Option<super::KptiConfidence>,
}

/// A prebuilt victim system for one (scenario, seed) pair.
///
/// Trial layouts depend only on the scenario's config and the trial
/// seed — not on the CPU profile or the noise environment — so a
/// campaign builds each layout **once** and every (profile, noise) cell
/// runs its trials against copy-on-write snapshots
/// ([`avx_mmu::AddressSpace`] clones share the paging-structure arena
/// until first write). A fixture-driven trial is bit-exact with one
/// that builds its own system: the snapshot is structurally identical
/// to a fresh build from the same seed.
#[derive(Clone, Debug)]
pub enum TrialFixture {
    /// A Linux victim (kernel base, modules, KPTI, behaviour).
    Linux(LinuxSystem),
    /// A Windows victim (§IV-G).
    Windows(WindowsSystem),
    /// A user-space process image (§IV-F).
    Process {
        /// The process address space (pre-attacker mappings).
        space: AddressSpace,
        /// Layout ground truth.
        truth: avx_os::ProcessTruth,
    },
    /// The scenario builds its own systems per trial (cloud chains).
    Inline,
}

/// The eight end-to-end attacks of §IV as campaign scenarios.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scenario {
    /// §IV-B: Intel kernel-base derandomization (mapped/unmapped scan).
    KernelBase,
    /// §IV-B: AMD kernel base via walk-termination levels.
    AmdKernelBase,
    /// §IV-C: module detection (per-module exact base+size accuracy).
    Modules,
    /// §IV-D: KASLR break through the KPTI trampoline.
    Kpti,
    /// §IV-E: behaviour inference (per-sample spy/ground-truth
    /// agreement).
    Behaviour,
    /// §IV-F: user-space scan + library fingerprinting (per-library
    /// accuracy).
    UserSpace,
    /// §IV-G: Windows 10 18-bit region scan.
    WindowsKaslr,
    /// §IV-H: the three cloud-provider chains (per-provider accuracy).
    Cloud,
}

impl Scenario {
    /// All eight scenarios in paper order.
    pub const ALL: [Scenario; 8] = [
        Scenario::KernelBase,
        Scenario::AmdKernelBase,
        Scenario::Modules,
        Scenario::Kpti,
        Scenario::Behaviour,
        Scenario::UserSpace,
        Scenario::WindowsKaslr,
        Scenario::Cloud,
    ];

    /// The Table I-style target label of the scenario.
    #[must_use]
    pub fn target(self) -> &'static str {
        match self {
            Scenario::KernelBase | Scenario::AmdKernelBase => "Base",
            Scenario::Modules => "Modules",
            Scenario::Kpti => "KPTI",
            Scenario::Behaviour => "Behaviour",
            Scenario::UserSpace => "User space",
            Scenario::WindowsKaslr => "Windows",
            Scenario::Cloud => "Cloud",
        }
    }

    /// Whether the scenario's probing primitive works on `profile`.
    /// The mapped/unmapped signal (P2) needs Intel's cached kernel
    /// translations; the level signal (P3) is the AMD path.
    #[must_use]
    pub fn supported_on(self, profile: &CpuProfile) -> bool {
        match self {
            Scenario::AmdKernelBase => profile.vendor == Vendor::Amd,
            _ => profile.vendor == Vendor::Intel,
        }
    }

    /// Seed-space salt so different scenarios attack different layout
    /// populations (mirrors the historical per-campaign offsets).
    #[must_use]
    pub fn seed_salt(self) -> u64 {
        match self {
            Scenario::KernelBase => 0,
            Scenario::Modules => 1000,
            Scenario::AmdKernelBase => 2000,
            Scenario::Kpti => 3000,
            Scenario::Behaviour => 4000,
            Scenario::UserSpace => 5000,
            Scenario::WindowsKaslr => 6000,
            Scenario::Cloud => 7000,
        }
    }

    /// Per-scenario trial cap: the heavyweight sweeps (16384-page module
    /// scans, 262144-slot Windows scans, 100-sample spy sessions) cost
    /// orders of magnitude more simulated probes per trial, so campaigns
    /// bound them the way the seed code bounded module trials.
    #[must_use]
    pub fn max_trials(self) -> u64 {
        match self {
            Scenario::KernelBase | Scenario::AmdKernelBase | Scenario::Kpti => u64::MAX,
            Scenario::Modules | Scenario::UserSpace => 20,
            Scenario::Behaviour => 20,
            Scenario::WindowsKaslr => 8,
            Scenario::Cloud => 16,
        }
    }

    /// The randomization regions a victim-side defense protects for
    /// this scenario's victims ([`crate::defense`]). Linux victims
    /// defend both kernel text and the module area (the OS hardens its
    /// whole randomized address space, not just what this attack
    /// happens to target); Windows victims defend the 18-bit kernel
    /// region. User-space ASLR is process-local and outside the kernel
    /// defense menu, so [`Scenario::UserSpace`] defends nothing — its
    /// defended rows honestly equal its undefended ones. Cloud chains
    /// install per-guest regions inside the chain runner.
    #[must_use]
    pub fn defense_regions(self) -> Vec<DefenseRegion> {
        match self {
            Scenario::KernelBase
            | Scenario::AmdKernelBase
            | Scenario::Modules
            | Scenario::Kpti
            | Scenario::Behaviour => vec![
                DefenseRegion::linux_kernel_text(),
                DefenseRegion::linux_modules(),
            ],
            Scenario::WindowsKaslr => vec![DefenseRegion::windows_kernel()],
            Scenario::UserSpace | Scenario::Cloud => Vec::new(),
        }
    }

    /// Whether the scenario's probing loop is sweep-shaped and honors
    /// the campaign's [`Sampling`] policy. The Fig. 6 TLB spy is the
    /// exception: its per-sample evict/trigger/probe schedule is fixed
    /// by the behaviour-inference protocol, so its rows always report
    /// the fixed policy.
    #[must_use]
    pub fn honors_sampling(self) -> bool {
        !matches!(self, Scenario::Behaviour)
    }

    /// Builds the victim system one trial of this scenario attacks —
    /// the expensive, profile- and noise-independent part of a trial.
    #[must_use]
    pub fn build_fixture(self, seed: u64) -> TrialFixture {
        match self {
            Scenario::KernelBase
            | Scenario::AmdKernelBase
            | Scenario::Modules
            | Scenario::Behaviour => {
                TrialFixture::Linux(LinuxSystem::build(LinuxConfig::seeded(seed)))
            }
            Scenario::Kpti => TrialFixture::Linux(LinuxSystem::build(LinuxConfig {
                kpti: true,
                ..LinuxConfig::seeded(seed)
            })),
            Scenario::UserSpace => {
                let mut space = AddressSpace::new();
                let truth = build_process(
                    &mut space,
                    &ImageSignature::fig7_app(),
                    &ImageSignature::standard_set(),
                    seed,
                );
                TrialFixture::Process { space, truth }
            }
            Scenario::WindowsKaslr => TrialFixture::Windows(WindowsSystem::build(WindowsConfig {
                seed,
                ..WindowsConfig::default()
            })),
            Scenario::Cloud => TrialFixture::Inline,
        }
    }

    /// Runs one trial against a freshly randomized system under the
    /// config's noise environment and sampling policy.
    #[must_use]
    pub fn run_trial(
        self,
        profile: &CpuProfile,
        seed: u64,
        config: CampaignConfig,
    ) -> TrialOutcome {
        self.run_trial_with(profile, &self.build_fixture(seed), seed, config)
    }

    /// Runs one trial against a prebuilt fixture (obtained from
    /// [`Scenario::build_fixture`] with the same seed). The fixture is
    /// only snapshotted (copy-on-write), never mutated, so one fixture
    /// serves arbitrarily many (profile, noise) cells.
    ///
    /// # Panics
    ///
    /// Panics when the fixture kind does not match the scenario.
    #[must_use]
    pub fn run_trial_with(
        self,
        profile: &CpuProfile,
        fixture: &TrialFixture,
        seed: u64,
        config: CampaignConfig,
    ) -> TrialOutcome {
        match (self, fixture) {
            (Scenario::KernelBase, TrialFixture::Linux(sys)) => {
                kernel_base_trial(profile, sys, seed, config)
            }
            (Scenario::AmdKernelBase, TrialFixture::Linux(sys)) => {
                amd_base_trial(profile, sys, seed, config)
            }
            (Scenario::Modules, TrialFixture::Linux(sys)) => {
                modules_trial(profile, sys, seed, config)
            }
            (Scenario::Kpti, TrialFixture::Linux(sys)) => kpti_trial(profile, sys, seed, config),
            (Scenario::Behaviour, TrialFixture::Linux(sys)) => {
                behaviour_trial(profile, sys, seed, config)
            }
            (Scenario::UserSpace, TrialFixture::Process { space, truth }) => {
                userspace_trial(profile, space, truth, seed, config)
            }
            (Scenario::WindowsKaslr, TrialFixture::Windows(sys)) => {
                windows_trial(profile, sys, seed, config)
            }
            (Scenario::Cloud, TrialFixture::Inline) => cloud_trial(seed, config),
            (scenario, _) => panic!("fixture kind does not match scenario {scenario}"),
        }
    }

    /// Whether this scenario's trials under `config` can be replayed
    /// from a per-layout [`CostTape`]: the kernel-base scan under an
    /// open-loop config ([`CampaignConfig::is_open_loop`]).
    #[must_use]
    pub fn replays(self, config: &CampaignConfig) -> bool {
        self == Scenario::KernelBase && config.is_open_loop()
    }

    /// Records the cost tape of `fixture`: the trial's attack body run
    /// once on a noise-free snapshot machine. Every trial against this
    /// fixture on `profile` under `config` issues exactly this op
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics unless [`Scenario::replays`] holds for `config`, or when
    /// the fixture kind does not match the scenario.
    #[must_use]
    pub fn record_tape(
        self,
        profile: &CpuProfile,
        fixture: &TrialFixture,
        config: CampaignConfig,
    ) -> CostTape {
        assert!(
            self.replays(&config),
            "{self} trials under this config are not open-loop"
        );
        let TrialFixture::Linux(sys) = fixture else {
            panic!("fixture kind does not match scenario {self}");
        };
        let (mut machine, truth) = sys.machine(profile.clone(), 0);
        machine.set_noise(NoiseModel::none());
        let mut recorder = TapeRecorder::new(machine);
        let _ = kernel_base_attack(&mut recorder, profile, &truth, config);
        recorder.into_tape()
    }

    /// [`Scenario::run_trial_with`] by replay: `tape` (recorded by
    /// [`Scenario::record_tape`] from the same fixture, profile and
    /// config) measured under the trial's own noise stream. Returns
    /// the identical outcome without simulating translation.
    ///
    /// # Panics
    ///
    /// Panics when the trial's op stream differs from the tape's, or
    /// when the fixture kind does not match the scenario.
    #[must_use]
    pub fn replay_trial(
        self,
        profile: &CpuProfile,
        fixture: &TrialFixture,
        tape: &CostTape,
        seed: u64,
        config: CampaignConfig,
    ) -> TrialOutcome {
        let TrialFixture::Linux(sys) = fixture else {
            panic!("fixture kind does not match scenario {self}");
        };
        let mut p = TapeProber::new(tape, config.victim_noise(profile, seed), profile);
        let outcome = kernel_base_attack(&mut p, profile, sys.truth(), config);
        p.finish();
        outcome
    }

    /// Runs the scenario's full campaign against one CPU profile:
    /// `config.trials` rayon-parallel trials, aggregated into one row.
    /// The trial count is honored exactly (paper-scale n = 10000 is the
    /// caller's prerogative); [`Campaign::run`] is the layer that caps
    /// heavyweight scenarios via [`Scenario::max_trials`].
    #[must_use]
    pub fn campaign(self, profile: &CpuProfile, config: CampaignConfig) -> CampaignRow {
        Cell {
            scenario: self,
            profile,
            config,
            pool: None,
        }
        .run()
    }

    /// [`Scenario::campaign`] against prebuilt fixtures: `fixtures[i]`
    /// must come from [`Scenario::build_fixture`] with seed
    /// `config.seed0 + seed_salt() + i`. Identical results to
    /// [`Scenario::campaign`] — the fixtures only hoist system
    /// construction out of the (profile, noise) cells.
    #[must_use]
    pub fn campaign_with(
        self,
        profile: &CpuProfile,
        config: CampaignConfig,
        fixtures: &[TrialFixture],
    ) -> CampaignRow {
        Cell {
            scenario: self,
            profile,
            config,
            pool: Some(fixtures),
        }
        .run()
    }

    /// Folds one cell's trial outcomes, in trial order, into its row.
    fn aggregate(
        self,
        profile: &CpuProfile,
        config: CampaignConfig,
        outcomes: &[TrialOutcome],
    ) -> CampaignRow {
        let trials = (outcomes.len() as u64).max(1);
        let mut accuracy = Trials::new();
        let (mut probing, mut total) = (0.0f64, 0.0f64);
        let (mut probes, mut addresses) = (0u64, 0u64);
        for outcome in outcomes {
            probing += outcome.probing_seconds;
            total += outcome.total_seconds;
            probes += outcome.probes;
            addresses += outcome.addresses;
            accuracy.successes += outcome.accuracy.successes;
            accuracy.total += outcome.accuracy.total;
        }
        CampaignRow {
            // The §IV-H cloud presets pin their own host CPUs, so that
            // row is labeled after the presets, not the probing profile.
            cpu: if self == Scenario::Cloud {
                "Cloud presets (EC2/GCE/Azure)".to_string()
            } else {
                profile.model.to_string()
            },
            target: self.target(),
            noise: config.noise,
            sampling: if self.honors_sampling() {
                config.sampling.name()
            } else {
                Sampling::Fixed.name()
            },
            calibrator: config.calibrator.name(),
            observables: config.observables.name(),
            defense: config.defense.name(),
            schedule: config.schedule.name(),
            probing_seconds: probing / trials as f64,
            total_seconds: total / trials as f64,
            trials,
            probes,
            probes_per_address: if addresses == 0 {
                0.0
            } else {
                probes as f64 / addresses as f64
            },
            accuracy,
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.target())
    }
}

/// A scenario × profile × noise × defense × schedule campaign matrix.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// CPU profiles to attack on.
    pub profiles: Vec<CpuProfile>,
    /// Scenarios to run.
    pub scenarios: Vec<Scenario>,
    /// Noise environments to run each cell under.
    pub noises: Vec<NoiseProfile>,
    /// Victim-side defenses to run each cell against.
    pub defenses: Vec<DefenseKind>,
    /// Event schedules to run each cell's victims under.
    pub schedules: Vec<ScheduleKind>,
    /// Trial parameters.
    pub config: CampaignConfig,
}

impl Campaign {
    /// A campaign over an explicit matrix (single noise environment:
    /// the config's).
    #[must_use]
    pub fn new(
        profiles: Vec<CpuProfile>,
        scenarios: Vec<Scenario>,
        config: CampaignConfig,
    ) -> Self {
        Self {
            profiles,
            scenarios,
            noises: vec![config.noise],
            defenses: vec![config.defense],
            schedules: vec![config.schedule],
            config,
        }
    }

    /// Replaces the noise axis of the matrix.
    #[must_use]
    pub fn with_noises(mut self, noises: Vec<NoiseProfile>) -> Self {
        assert!(!noises.is_empty(), "noise axis must be non-empty");
        self.noises = noises;
        self
    }

    /// Replaces the defense axis of the matrix.
    #[must_use]
    pub fn with_defenses(mut self, defenses: Vec<DefenseKind>) -> Self {
        assert!(!defenses.is_empty(), "defense axis must be non-empty");
        self.defenses = defenses;
        self
    }

    /// Replaces the schedule axis of the matrix.
    #[must_use]
    pub fn with_schedules(mut self, schedules: Vec<ScheduleKind>) -> Self {
        assert!(!schedules.is_empty(), "schedule axis must be non-empty");
        self.schedules = schedules;
        self
    }

    /// The full 4-axis attack × CPU × noise × defense grid:
    /// [`Campaign::noise_grid`] repeated against every
    /// [`DefenseKind`].
    #[must_use]
    pub fn defense_grid(config: CampaignConfig) -> Self {
        Self::noise_grid(config).with_defenses(DefenseKind::ALL.to_vec())
    }

    /// The attack × CPU × noise × schedule grid:
    /// [`Campaign::noise_grid`] repeated against every
    /// [`ScheduleKind`]. Its `schedule=none` rows are bit-equal to
    /// [`Campaign::noise_grid`]'s by invariant 13.
    #[must_use]
    pub fn schedule_grid(config: CampaignConfig) -> Self {
        Self::noise_grid(config).with_schedules(ScheduleKind::ALL.to_vec())
    }

    /// The full paper evaluation: all eight §IV attacks across the two
    /// Intel desktop/mobile parts and the AMD part (each scenario runs
    /// on every profile its probing primitive supports).
    #[must_use]
    pub fn full(config: CampaignConfig) -> Self {
        Self::new(
            vec![
                CpuProfile::alder_lake_i5_12400f(),
                CpuProfile::ice_lake_i7_1065g7(),
                CpuProfile::zen3_ryzen5_5600x(),
            ],
            Scenario::ALL.to_vec(),
            config,
        )
    }

    /// The full attack × CPU × noise grid: [`Campaign::full`] repeated
    /// across every [`NoiseProfile`] preset.
    ///
    /// The whole paper evaluation, one line:
    ///
    /// ```
    /// use avx_channel::attacks::campaign::{Campaign, CampaignConfig};
    ///
    /// let grid = Campaign::noise_grid(CampaignConfig::new(1, 0));
    /// assert_eq!(grid.noises.len(), 4, "quiet/smt/laptop/cloud");
    /// assert_eq!(grid.scenarios.len(), 8, "all §IV attacks");
    /// // `grid.run()` yields 14 rows per noise preset.
    /// ```
    #[must_use]
    pub fn noise_grid(config: CampaignConfig) -> Self {
        Self::full(config).with_noises(NoiseProfile::ALL.to_vec())
    }

    /// Runs every supported noise × defense × schedule × scenario ×
    /// profile cell; rows come back noise-major, then defense-major,
    /// then schedule-major, then scenario-major in the order of
    /// `self.scenarios`.
    ///
    /// Trial layouts depend only on (scenario, seed), so each
    /// scenario's victim systems are built **once** up front and every
    /// (noise, defense, profile) cell runs against copy-on-write
    /// snapshots of that pool — the cells differ only in the machine
    /// they wrap around the snapshot, not in the layout. Defenses never
    /// touch the shared pool either: a defended trial installs its
    /// defense on the trial's own machine, and a re-randomizing victim
    /// re-randomizes its copy-on-write clone (invariant 12).
    ///
    /// Both stages run as one grid-wide job list: every fixture of
    /// every pool, then every (cell, trial) pair of the whole matrix,
    /// each go through a single rayon pass whose workers claim the
    /// next job as they free up, so a long Windows or cloud trial
    /// never idles a core until its cell's other trials finish. Each
    /// cell then folds its outcomes in trial order, so rows are
    /// bit-identical to running the cells one by one
    /// ([`Scenario::campaign_with`]).
    ///
    /// Heavyweight scenarios are bounded to [`Scenario::max_trials`]
    /// trials per cell (call [`Scenario::campaign`] directly for
    /// uncapped paper-scale runs). [`Scenario::Cloud`] runs once per
    /// campaign noise, not once per profile — its presets pin their own
    /// host CPUs, so per-profile repetition would duplicate identical
    /// work.
    #[must_use]
    pub fn run(&self) -> Vec<CampaignRow> {
        // One fixture pool per scenario, shared across the whole grid.
        // Scenarios no profile of this campaign supports produce no
        // rows, so their (expensive) fixtures are never built.
        let pool_size = |scenario: Scenario| {
            if self.profiles.iter().any(|p| scenario.supported_on(p)) {
                self.config.trials.clamp(1, scenario.max_trials())
            } else {
                0
            }
        };
        let builds: Vec<(Scenario, u64)> = self
            .scenarios
            .iter()
            .flat_map(|&scenario| (0..pool_size(scenario)).map(move |i| (scenario, i)))
            .collect();
        let mut fixtures = builds
            .into_par_iter()
            .map(|(scenario, i)| {
                scenario.build_fixture(legacy_trial_seed(
                    self.config.seed0,
                    scenario.seed_salt(),
                    i,
                ))
            })
            .collect::<Vec<TrialFixture>>()
            .into_iter();
        let pools: Vec<Vec<TrialFixture>> = self
            .scenarios
            .iter()
            .map(|&scenario| {
                fixtures
                    .by_ref()
                    .take(pool_size(scenario) as usize)
                    .collect()
            })
            .collect();

        let mut cells = Vec::new();
        for &noise in &self.noises {
            for &defense in &self.defenses {
                for &schedule in &self.schedules {
                    for (&scenario, pool) in self.scenarios.iter().zip(&pools) {
                        let config = CampaignConfig {
                            trials: pool.len() as u64,
                            noise,
                            defense,
                            schedule,
                            ..self.config
                        };
                        let profiles = self.profiles.iter().filter(|p| scenario.supported_on(p));
                        // Cloud presets pin their own host CPUs: one row.
                        let rows = if scenario == Scenario::Cloud {
                            1
                        } else {
                            usize::MAX
                        };
                        cells.extend(profiles.take(rows).map(|profile| Cell {
                            scenario,
                            profile,
                            config,
                            pool: Some(pool),
                        }));
                    }
                }
            }
        }
        run_cells(&cells)
    }
}

/// One campaign cell: a scenario's trials against one CPU profile under
/// one configuration, aggregated into one row.
struct Cell<'a> {
    scenario: Scenario,
    profile: &'a CpuProfile,
    config: CampaignConfig,
    /// Prebuilt fixtures, one per trial; without a pool each trial
    /// builds its own victim system and the cell runs
    /// `config.trials.max(1)` trials.
    pool: Option<&'a [TrialFixture]>,
}

impl Cell<'_> {
    fn trials(&self) -> u64 {
        self.pool
            .map_or(self.config.trials.max(1), |pool| pool.len() as u64)
    }

    fn run_trial(&self, i: u64) -> TrialOutcome {
        let seed = legacy_trial_seed(self.config.seed0, self.scenario.seed_salt(), i);
        match self.pool {
            Some(pool) => {
                self.scenario
                    .run_trial_with(self.profile, &pool[i as usize], seed, self.config)
            }
            None => self.scenario.run_trial(self.profile, seed, self.config),
        }
    }

    fn run(self) -> CampaignRow {
        run_cells(&[self]).remove(0)
    }
}

/// The campaign engine's one trial fan-out: every (cell, trial) pair
/// runs in a single rayon pass, then each cell folds its own outcomes
/// in trial order. A trial is a pure function of its cell and index, so
/// the rows do not depend on which thread ran which trial.
fn run_cells(cells: &[Cell<'_>]) -> Vec<CampaignRow> {
    let jobs: Vec<(&Cell<'_>, u64)> = cells
        .iter()
        .flat_map(|cell| (0..cell.trials()).map(move |i| (cell, i)))
        .collect();
    let outcomes: Vec<TrialOutcome> = jobs
        .into_par_iter()
        .map(|(cell, i)| cell.run_trial(i))
        .collect();
    let mut rest = outcomes.as_slice();
    cells
        .iter()
        .map(|cell| {
            let (own, tail) = rest.split_at(cell.trials() as usize);
            rest = tail;
            cell.scenario.aggregate(cell.profile, cell.config, own)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Per-scenario trial implementations.

/// The regions a defended Linux victim protects — kernel text plus the
/// module area, matching [`Scenario::defense_regions`].
fn linux_defense_regions() -> [DefenseRegion; 2] {
    [
        DefenseRegion::linux_kernel_text(),
        DefenseRegion::linux_modules(),
    ]
}

/// The victim machine of one trial: a copy-on-write snapshot of a
/// prebuilt Linux system running under the campaign's noise
/// environment, defense and event schedule. The defense and schedule
/// are installed before the first probe (so a re-randomizing victim or
/// churning schedule only ever mutates its clone), and before
/// calibration (the attacker calibrates against the defended,
/// event-driven victim, like on real silicon).
fn linux_machine(
    profile: &CpuProfile,
    sys: &LinuxSystem,
    seed: u64,
    config: CampaignConfig,
) -> (Machine, avx_os::LinuxTruth) {
    let (mut machine, truth) = sys.machine(profile.clone(), machine_seed(seed));
    machine.set_noise_stream(config.victim_noise(profile, seed));
    config
        .defense
        .install(&mut machine, &linux_defense_regions(), seed);
    config.schedule.install(&mut machine, config.noise, seed);
    (machine, truth)
}

/// Calibrates with the campaign's estimator on the attacker's own
/// calibration page (§IV-B).
fn calibrate<P: Prober + ?Sized>(
    p: &mut P,
    truth: &avx_os::LinuxTruth,
    config: CampaignConfig,
) -> CalibrationFit {
    Threshold::calibrate_with(p, truth.user.calibration, 16, config.calibrator)
}

/// [`linux_machine`] plus a calibrated prober over it.
fn linux_prober(
    profile: &CpuProfile,
    sys: &LinuxSystem,
    seed: u64,
    config: CampaignConfig,
) -> (SimProber, avx_os::LinuxTruth, CalibrationFit) {
    let (machine, truth) = linux_machine(profile, sys, seed, config);
    let mut p = SimProber::new(machine);
    let fit = calibrate(&mut p, &truth, config);
    (p, truth, fit)
}

fn seconds(profile_ghz: f64, cycles: u64) -> f64 {
    cycles as f64 / (profile_ghz * 1e9)
}

fn kernel_base_trial(
    profile: &CpuProfile,
    sys: &LinuxSystem,
    seed: u64,
    config: CampaignConfig,
) -> TrialOutcome {
    let (machine, truth) = linux_machine(profile, sys, seed, config);
    kernel_base_attack(&mut SimProber::new(machine), profile, &truth, config)
}

/// The kernel-base attack body — calibration, scan, scoring — against
/// an installed victim. One definition serves the simulated trial
/// ([`SimProber`]), the tape recording ([`TapeRecorder`]) and the
/// replayed trial ([`TapeProber`]).
fn kernel_base_attack<P: Prober + ?Sized>(
    p: &mut P,
    profile: &CpuProfile,
    truth: &avx_os::LinuxTruth,
    config: CampaignConfig,
) -> TrialOutcome {
    let fit = calibrate(p, truth, config);
    let mut finder = KernelBaseFinder::new(fit.threshold);
    if let Some(sampler) = config.sampler_for(profile, &fit) {
        finder = finder.with_adaptive(sampler);
    }
    if let Some(strategy) = config.sampling.strategy_override() {
        finder = finder.with_strategy(strategy);
    }
    if let Some(recal) = config.recal {
        finder = finder.with_recalibration(recal);
    }
    if let Some(confirm) = config.confirm {
        finder = finder.with_confirmation(confirm);
    }
    let scan = finder.scan(p);
    let mut accuracy = Trials::new();
    accuracy.record(scan.base == Some(truth.kernel_base));
    TrialOutcome {
        probing_seconds: seconds(p.clock_ghz(), scan.probing_cycles),
        total_seconds: seconds(p.clock_ghz(), scan.total_cycles),
        probes: p.probes_issued(),
        addresses: KERNEL_SLOTS,
        accuracy,
        confidence: None,
    }
}

fn amd_base_trial(
    profile: &CpuProfile,
    sys: &LinuxSystem,
    seed: u64,
    config: CampaignConfig,
) -> TrialOutcome {
    let (machine, truth) = linux_machine(profile, sys, seed, config);
    let mut p = SimProber::new(machine);
    let mut finder = AmdKernelBaseFinder::for_default_kernel();
    if let Some(filter) = config.sampling.min_filter() {
        finder = finder.with_early_stop(filter);
    }
    if let Sampling::FixedBudget(n) = config.sampling {
        finder = finder.with_repeats(n.max(1));
    }
    if let Some(recal) = config.recal {
        finder = finder.with_recalibration(recal);
    }
    let scan = finder.scan(&mut p);
    let mut accuracy = Trials::new();
    accuracy.record(scan.base == Some(truth.kernel_base));
    TrialOutcome {
        probing_seconds: seconds(p.clock_ghz(), scan.probing_cycles),
        total_seconds: seconds(p.clock_ghz(), scan.total_cycles),
        probes: p.probes_issued(),
        addresses: KERNEL_SLOTS,
        accuracy,
        confidence: None,
    }
}

fn modules_trial(
    profile: &CpuProfile,
    sys: &LinuxSystem,
    seed: u64,
    config: CampaignConfig,
) -> TrialOutcome {
    let (mut p, truth, fit) = linux_prober(profile, sys, seed, config);
    let mut scanner = ModuleScanner::new(fit.threshold);
    if let Some(sampler) = config.sampler_for(profile, &fit) {
        scanner = scanner.with_adaptive(sampler);
    }
    if let Some(strategy) = config.sampling.strategy_override() {
        scanner = scanner.with_strategy(strategy);
    }
    if let Some(recal) = config.recal {
        scanner = scanner.with_recalibration(recal);
    }
    if let Some(confirm) = config.confirm {
        scanner = scanner.with_confirmation(confirm);
    }
    let scan = scanner.scan(&mut p);
    let mut accuracy = Trials::new();
    for m in &truth.modules {
        accuracy.record(
            scan.detected
                .iter()
                .any(|d| d.base == m.base && d.size == m.spec.size),
        );
    }
    TrialOutcome {
        probing_seconds: seconds(p.clock_ghz(), scan.probing_cycles),
        total_seconds: seconds(p.clock_ghz(), scan.total_cycles),
        probes: p.probes_issued(),
        addresses: MODULE_SLOTS,
        accuracy,
        confidence: None,
    }
}

fn kpti_trial(
    profile: &CpuProfile,
    sys: &LinuxSystem,
    seed: u64,
    config: CampaignConfig,
) -> TrialOutcome {
    let (mut p, truth, fit) = linux_prober(profile, sys, seed, config);
    let mut attack = KptiAttack::new(fit.threshold, KPTI_TRAMPOLINE_OFFSET);
    if let Some(sampler) = config.sampler_for(profile, &fit) {
        attack = attack.with_adaptive(sampler);
    }
    if let Some(strategy) = config.sampling.strategy_override() {
        attack = attack.with_strategy(strategy);
    }
    if let Some(recal) = config.recal {
        attack = attack.with_recalibration(recal);
    }
    if let Some(confirm) = config.confirm {
        attack = attack.with_confirmation(confirm);
    }
    let scan = attack.scan(&mut p);
    let mut accuracy = Trials::new();
    accuracy.record(scan.base == Some(truth.kernel_base));
    TrialOutcome {
        probing_seconds: seconds(p.clock_ghz(), scan.probing_cycles),
        total_seconds: seconds(p.clock_ghz(), scan.total_cycles),
        probes: p.probes_issued(),
        addresses: KERNEL_SLOTS,
        accuracy,
        confidence: Some(scan.confidence),
    }
}

/// Spy observation length per behaviour trial (seconds at 1 Hz). Shorter
/// than the paper's 100 s plot window to keep campaign trials cheap.
const BEHAVIOUR_TRIAL_SECONDS: f64 = 30.0;

fn behaviour_trial(
    profile: &CpuProfile,
    sys: &LinuxSystem,
    seed: u64,
    config: CampaignConfig,
) -> TrialOutcome {
    let (mut p, truth, fit) = linux_prober(profile, sys, seed, config);
    let th = fit.threshold;
    let timeline =
        ActivityTimeline::random(Behaviour::BluetoothAudio, BEHAVIOUR_TRIAL_SECONDS, 3, seed);
    let module = truth
        .module(timeline.behaviour.module_name())
        .expect("default module set loads the bluetooth module");
    let (base, pages) = (module.base, module.spec.pages());
    let tlb = TlbAttack::from_threshold(&th);
    let spy = TlbSpy::new(
        SpyConfig {
            duration_s: BEHAVIOUR_TRIAL_SECONDS,
            ..SpyConfig::default()
        },
        tlb,
    );
    let probing_before = p.probing_cycles();
    let total_before = p.total_cycles();
    let trace = spy.monitor(&mut p, base, |p, t| {
        apply_activity(p.machine_mut(), &timeline, base, pages, t);
    });
    let probing = p.probing_cycles() - probing_before;
    let total = p.total_cycles() - total_before;

    let detected = trace.detect_active(tlb.hit_boundary);
    let mut accuracy = Trials::new();
    for (sample, hit) in trace.samples.iter().zip(detected) {
        accuracy.record(hit == timeline.active_at(sample.t));
    }
    TrialOutcome {
        probing_seconds: seconds(p.clock_ghz(), probing),
        total_seconds: seconds(p.clock_ghz(), total),
        // Whole-prober count, calibration included — the same metric
        // every other scenario reports.
        probes: p.probes_issued(),
        addresses: trace.samples.len() as u64,
        accuracy,
        confidence: None,
    }
}

fn userspace_trial(
    profile: &CpuProfile,
    space: &AddressSpace,
    truth: &avx_os::ProcessTruth,
    seed: u64,
    config: CampaignConfig,
) -> TrialOutcome {
    // Copy-on-write snapshot of the prebuilt process image; the
    // attacker's own calibration page is mapped into the snapshot only.
    let mut space = space.clone();
    let own = VirtAddr::new_truncate(0x5400_0000_0000);
    space
        .map(own, PageSize::Size4K, PteFlags::user_ro())
        .expect("calibration page free");
    let mut machine = Machine::new(profile.clone(), space, machine_seed(seed));
    machine.set_noise_stream(config.victim_noise(profile, seed));
    config.schedule.install(&mut machine, config.noise, seed);
    let mut p = SimProber::new(machine);
    let (perm, fit) = PermissionAttack::calibrate_with(&mut p, own, config.calibrator);
    let mut scanner = UserSpaceScanner::new(perm);
    // The permission scanner centers its own hypotheses on the load
    // boundary; only the σ policy and budgets come from the shared
    // sampler selection.
    if let Some(sampler) = config.sampler_for(profile, &fit) {
        scanner = scanner.with_adaptive(sampler.sigma, sampler.config);
    }
    if let Some(strategy) = config.sampling.strategy_override() {
        scanner.permission.strategy = strategy;
    }
    if let Some(confirm) = config.confirm {
        scanner = scanner.with_confirmation(confirm);
    }

    let first = truth.libraries.first().expect("standard set non-empty");
    let last = truth.libraries.last().expect("standard set non-empty");
    let span = last.base.as_u64() + last.signature.span() + 0x10_0000 - first.base.as_u64();

    let probing_before = p.probing_cycles();
    let total_before = p.total_cycles();
    let map = scanner.scan(&mut p, first.base, span / 4096);
    let probing = p.probing_cycles() - probing_before;
    let total = p.total_cycles() - total_before;

    let matches = LibraryMatcher::new(ImageSignature::standard_set()).find_all(&map);
    let mut accuracy = Trials::new();
    for lib in &truth.libraries {
        accuracy.record(
            matches
                .iter()
                .any(|m| m.name == lib.signature.name && m.base == lib.base),
        );
    }
    TrialOutcome {
        probing_seconds: seconds(p.clock_ghz(), probing),
        total_seconds: seconds(p.clock_ghz(), total),
        // Whole-prober count, calibration included — the same metric
        // every other scenario reports.
        probes: p.probes_issued(),
        addresses: span / 4096,
        accuracy,
        confidence: None,
    }
}

fn windows_trial(
    profile: &CpuProfile,
    sys: &WindowsSystem,
    seed: u64,
    config: CampaignConfig,
) -> TrialOutcome {
    let (mut machine, truth) = sys.machine(profile.clone(), machine_seed(seed));
    machine.set_noise_stream(config.victim_noise(profile, seed));
    config
        .defense
        .install(&mut machine, &[DefenseRegion::windows_kernel()], seed);
    config.schedule.install(&mut machine, config.noise, seed);
    let mut p = SimProber::new(machine);
    let fit = Threshold::calibrate_with(&mut p, truth.user_scratch, 16, config.calibrator);
    let mut attack = WindowsKaslrAttack::new(fit.threshold);
    if let Some(sampler) = config.sampler_for(profile, &fit) {
        attack = attack.with_adaptive(sampler);
    }
    if let Some(strategy) = config.sampling.strategy_override() {
        attack = attack.with_strategy(strategy);
    }
    if let Some(recal) = config.recal {
        attack = attack.with_recalibration(recal);
    }
    if let Some(confirm) = config.confirm {
        attack = attack.with_confirmation(confirm);
    }
    let scan = attack.find_kernel_region(&mut p);
    let mut accuracy = Trials::new();
    accuracy.record(scan.base == Some(truth.kernel_base));
    TrialOutcome {
        probing_seconds: seconds(p.clock_ghz(), scan.probing_cycles),
        total_seconds: seconds(p.clock_ghz(), scan.total_cycles),
        probes: p.probes_issued(),
        addresses: scan.candidates,
        accuracy,
        confidence: None,
    }
}

fn cloud_trial(seed: u64, config: CampaignConfig) -> TrialOutcome {
    let mut accuracy = Trials::new();
    let (mut probing, mut total) = (0.0f64, 0.0f64);
    let (mut probes, mut addresses) = (0u64, 0u64);
    for scenario in CloudScenario::all(seed) {
        let report = run_scenario(&scenario, machine_seed(seed), &config);
        accuracy.record(report.base_correct);
        probing += report.probing_seconds;
        total += report.base_seconds + report.modules_seconds.unwrap_or(0.0);
        probes += report.probes;
        addresses += report.addresses;
    }
    TrialOutcome {
        probing_seconds: probing,
        total_seconds: total,
        probes,
        addresses,
        accuracy,
        confidence: None,
    }
}

// ---------------------------------------------------------------------
// The historical single-scenario entry points, now thin wrappers over
// the engine (kept because benches, the repro binary and downstream
// users call them directly).

/// Runs the Intel kernel-base attack over fresh systems.
#[must_use]
pub fn intel_base_campaign(profile: &CpuProfile, config: CampaignConfig) -> CampaignRow {
    Scenario::KernelBase.campaign(profile, config)
}

/// Runs the module detection attack; accuracy is per true module
/// exactly detected (base and size), as in §IV-C.
#[must_use]
pub fn intel_modules_campaign(profile: &CpuProfile, config: CampaignConfig) -> CampaignRow {
    Scenario::Modules.campaign(profile, config)
}

/// Runs the AMD level-based base attack over fresh systems.
#[must_use]
pub fn amd_base_campaign(config: CampaignConfig) -> CampaignRow {
    Scenario::AmdKernelBase.campaign(&CpuProfile::zen3_ryzen5_5600x(), config)
}

/// The full Table I: the five paper rows in order (12400F base/modules,
/// 1065G7 base/modules, 5600X base). Module rows cap trials at 20 —
/// each trial probes 16384 slots.
#[must_use]
pub fn table1(config: CampaignConfig) -> Vec<CampaignRow> {
    let module_config = CampaignConfig {
        trials: config.trials.min(Scenario::Modules.max_trials()),
        ..config
    };
    vec![
        intel_base_campaign(&CpuProfile::alder_lake_i5_12400f(), config),
        intel_modules_campaign(&CpuProfile::alder_lake_i5_12400f(), module_config),
        intel_base_campaign(&CpuProfile::ice_lake_i7_1065g7(), config),
        intel_modules_campaign(&CpuProfile::ice_lake_i7_1065g7(), module_config),
        amd_base_campaign(config),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignConfig {
        CampaignConfig::new(6, 77)
    }

    #[test]
    fn intel_base_campaign_reports_sane_numbers() {
        let row = intel_base_campaign(&CpuProfile::alder_lake_i5_12400f(), small());
        assert_eq!(row.accuracy.total, 6);
        assert!(row.accuracy.rate() > 0.8);
        assert!(row.probing_seconds > 0.0);
        assert!(row.total_seconds > row.probing_seconds);
        assert!(row.total_seconds < 0.01, "sub-10ms attack");
    }

    #[test]
    fn module_campaign_counts_per_module() {
        let row =
            intel_modules_campaign(&CpuProfile::ice_lake_i7_1065g7(), CampaignConfig::new(2, 3));
        assert_eq!(row.accuracy.total, 2 * 125);
        assert!(row.accuracy.rate() > 0.95);
    }

    #[test]
    fn amd_campaign_slower_than_intel_desktop() {
        let amd = amd_base_campaign(small());
        let intel = intel_base_campaign(&CpuProfile::alder_lake_i5_12400f(), small());
        assert!(amd.total_seconds > intel.total_seconds);
        assert!(amd.accuracy.rate() > 0.8);
    }

    #[test]
    fn table1_has_five_rows_in_paper_order() {
        let rows = table1(CampaignConfig::new(2, 0));
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].target, "Base");
        assert_eq!(rows[1].target, "Modules");
        assert!(rows[4].cpu.contains("5600X"));
        // Display is informative.
        assert!(rows[0].to_string().contains("%"));
    }

    #[test]
    fn every_scenario_succeeds_on_a_supported_profile() {
        let config = CampaignConfig::new(2, 11);
        for scenario in Scenario::ALL {
            let profile = if scenario == Scenario::AmdKernelBase {
                CpuProfile::zen3_ryzen5_5600x()
            } else {
                CpuProfile::alder_lake_i5_12400f()
            };
            let row = scenario.campaign(&profile, config);
            assert!(row.accuracy.total > 0, "{scenario}: no records");
            assert!(
                row.accuracy.rate() > 0.8,
                "{scenario}: accuracy {} too low",
                row.accuracy
            );
            assert!(row.total_seconds >= row.probing_seconds, "{scenario}");
            assert!(row.probing_seconds > 0.0, "{scenario}");
        }
    }

    #[test]
    fn full_campaign_covers_all_scenarios_and_three_profiles() {
        let campaign = Campaign::full(CampaignConfig::new(1, 5));
        let rows = campaign.run();
        // Six Intel-only scenarios run on 2 profiles, AMD base on 1,
        // Cloud once per campaign: 6 × 2 + 1 + 1 rows.
        assert_eq!(rows.len(), 14);
        let cpus: std::collections::HashSet<&str> = rows.iter().map(|r| r.cpu.as_str()).collect();
        assert_eq!(
            cpus.len(),
            4,
            "three probing profiles + the cloud-preset label"
        );
        assert!(cpus.contains("Cloud presets (EC2/GCE/Azure)"));
        assert_eq!(
            rows.iter().filter(|r| r.target == "Cloud").count(),
            1,
            "cloud presets pin their own CPUs, so one row only"
        );
        let targets: std::collections::HashSet<&str> = rows.iter().map(|r| r.target).collect();
        // All eight scenarios appear (Base covers both vendors' rows).
        assert_eq!(targets.len(), 7);
        for row in &rows {
            assert!(row.accuracy.total > 0, "{}: empty row", row.target);
        }
    }

    #[test]
    fn direct_campaign_calls_honor_the_exact_trial_count() {
        // Paper-scale n is the caller's choice: Scenario::campaign must
        // not silently cap (Campaign::run is the capping layer).
        let row = Scenario::Modules.campaign(
            &CpuProfile::alder_lake_i5_12400f(),
            CampaignConfig::new(Scenario::Modules.max_trials() + 2, 9),
        );
        assert_eq!(
            row.accuracy.total,
            (Scenario::Modules.max_trials() + 2) * 125
        );
        let capped = Campaign::new(
            vec![CpuProfile::alder_lake_i5_12400f()],
            vec![Scenario::WindowsKaslr],
            CampaignConfig::new(1000, 9),
        )
        .run();
        assert_eq!(
            capped[0].accuracy.total,
            Scenario::WindowsKaslr.max_trials(),
            "Campaign::run bounds heavyweight scenarios"
        );
    }

    #[test]
    fn unsupported_pairs_are_skipped() {
        assert!(!Scenario::KernelBase.supported_on(&CpuProfile::zen3_ryzen5_5600x()));
        assert!(!Scenario::AmdKernelBase.supported_on(&CpuProfile::alder_lake_i5_12400f()));
        assert!(Scenario::Cloud.supported_on(&CpuProfile::alder_lake_i5_12400f()));
        let campaign = Campaign::new(
            vec![CpuProfile::zen3_ryzen5_5600x()],
            vec![Scenario::KernelBase],
            CampaignConfig::new(1, 0),
        );
        assert!(campaign.run().is_empty());
    }

    #[test]
    fn rows_report_probes_per_address() {
        let row = intel_base_campaign(&CpuProfile::alder_lake_i5_12400f(), small());
        // Fixed second-of-two on 512 slots plus the 17 calibration
        // probes per trial: a little above 2 probes per address.
        assert!(row.probes > 0);
        assert!(
            row.probes_per_address > 2.0 && row.probes_per_address < 2.2,
            "ppa {}",
            row.probes_per_address
        );
        assert_eq!(row.noise, NoiseProfile::Quiet);
        assert_eq!(row.sampling, "fixed");
        assert!(row.to_string().contains("probes/addr"));
    }

    #[test]
    fn adaptive_campaign_keeps_accuracy_and_beats_the_robust_budget() {
        // The acceptance claim: same quiet-profile campaign accuracy as
        // the fixed-repetition (noise-robust) path, ≥2x fewer probes.
        let base = small();
        let fixed = intel_base_campaign(
            &CpuProfile::alder_lake_i5_12400f(),
            base.with_sampling(Sampling::fixed_budget()),
        );
        let adaptive = intel_base_campaign(
            &CpuProfile::alder_lake_i5_12400f(),
            base.with_sampling(Sampling::adaptive()),
        );
        assert_eq!(adaptive.accuracy.rate(), fixed.accuracy.rate());
        assert!(adaptive.accuracy.rate() > 0.8);
        assert!(
            adaptive.probes * 2 <= fixed.probes,
            "adaptive {} vs fixed-budget {}",
            adaptive.probes,
            fixed.probes
        );
        assert_eq!(adaptive.sampling, "adaptive");
        assert_eq!(fixed.sampling, "fixed-budget");
    }

    #[test]
    fn noisy_cell_spends_more_probes_per_address_than_quiet() {
        let base = CampaignConfig::new(6, 19).with_sampling(Sampling::adaptive());
        let quiet = intel_base_campaign(&CpuProfile::alder_lake_i5_12400f(), base);
        let noisy = intel_base_campaign(
            &CpuProfile::alder_lake_i5_12400f(),
            base.with_noise(NoiseProfile::LaptopDvfs),
        );
        assert!(
            noisy.probes_per_address > quiet.probes_per_address,
            "adaptive engine must buy more evidence in noise: {} vs {}",
            noisy.probes_per_address,
            quiet.probes_per_address
        );
        assert_eq!(noisy.noise, NoiseProfile::LaptopDvfs);
    }

    #[test]
    fn noise_grid_covers_every_preset() {
        let campaign = Campaign::new(
            vec![CpuProfile::alder_lake_i5_12400f()],
            vec![Scenario::KernelBase],
            CampaignConfig::new(1, 3),
        )
        .with_noises(NoiseProfile::ALL.to_vec());
        let rows = campaign.run();
        assert_eq!(rows.len(), NoiseProfile::ALL.len());
        let noises: Vec<NoiseProfile> = rows.iter().map(|r| r.noise).collect();
        assert_eq!(noises, NoiseProfile::ALL.to_vec());
        let grid = Campaign::noise_grid(CampaignConfig::new(1, 3));
        assert_eq!(grid.noises, NoiseProfile::ALL.to_vec());
        assert_eq!(grid.scenarios.len(), 8);
    }

    #[test]
    fn defense_axis_produces_grid_rows_with_ordered_efficacy() {
        let campaign = Campaign::new(
            vec![CpuProfile::alder_lake_i5_12400f()],
            vec![Scenario::KernelBase],
            CampaignConfig::new(4, 5),
        )
        .with_defenses(DefenseKind::ALL.to_vec());
        let rows = campaign.run();
        assert_eq!(rows.len(), DefenseKind::ALL.len());
        let labels: Vec<&str> = rows.iter().map(|r| r.defense).collect();
        assert_eq!(labels, vec!["none", "masked", "rerandomizing"]);
        // Efficacy: the undefended scan works; the masked victim is
        // (near-)immune; the re-randomizing victim turns it into a race.
        assert!(rows[0].accuracy.rate() > 0.9, "{}", rows[0]);
        assert!(
            rows[1].accuracy.rate() < rows[0].accuracy.rate(),
            "mask must cost accuracy: {} vs {}",
            rows[1],
            rows[0]
        );
        assert!(
            rows[2].accuracy.rate() < rows[0].accuracy.rate(),
            "re-randomization must cost accuracy: {} vs {}",
            rows[2],
            rows[0]
        );
    }

    #[test]
    fn defended_rows_tag_their_defense_and_undefended_rows_do_not() {
        let none = intel_base_campaign(&CpuProfile::alder_lake_i5_12400f(), small());
        let masked = intel_base_campaign(
            &CpuProfile::alder_lake_i5_12400f(),
            small().with_defense(DefenseKind::MaskedTranslation),
        );
        assert_eq!(none.defense, "none");
        assert_eq!(masked.defense, "masked");
        assert!(
            !none.to_string().contains("none"),
            "the undefended tag stays the historical 4-part one: {none}"
        );
        assert!(masked.to_string().contains("/masked]"), "{masked}");
    }

    #[test]
    fn defense_grid_is_the_full_four_axis_matrix() {
        let grid = Campaign::defense_grid(CampaignConfig::new(1, 3));
        assert_eq!(grid.noises, NoiseProfile::ALL.to_vec());
        assert_eq!(grid.defenses, DefenseKind::ALL.to_vec());
        assert_eq!(grid.scenarios.len(), 8);
    }

    #[test]
    fn scheduled_rows_tag_their_schedule_and_unscheduled_rows_do_not() {
        let none = intel_base_campaign(&CpuProfile::alder_lake_i5_12400f(), small());
        let burst = intel_base_campaign(
            &CpuProfile::alder_lake_i5_12400f(),
            small().with_schedule(ScheduleKind::CoTenantBurst),
        );
        assert_eq!(none.schedule, "none");
        assert_eq!(burst.schedule, "cotenant-burst");
        assert!(
            !none.to_string().contains("none"),
            "the unscheduled tag stays the historical 4-part one: {none}"
        );
        assert!(burst.to_string().contains("/cotenant-burst]"), "{burst}");
    }

    #[test]
    fn schedule_axis_produces_grid_rows_in_menu_order() {
        let campaign = Campaign::new(
            vec![CpuProfile::alder_lake_i5_12400f()],
            vec![Scenario::KernelBase],
            CampaignConfig::new(3, 7),
        )
        .with_schedules(ScheduleKind::ALL.to_vec());
        let rows = campaign.run();
        assert_eq!(rows.len(), ScheduleKind::ALL.len());
        let labels: Vec<&str> = rows.iter().map(|r| r.schedule).collect();
        assert_eq!(
            labels,
            vec!["none", "dvfs-square", "cotenant-burst", "module-churn"]
        );
        assert!(rows[0].accuracy.rate() > 0.9, "{}", rows[0]);
        for row in &rows {
            assert!(row.accuracy.total > 0, "{row}: empty cell");
        }
    }

    #[test]
    fn schedule_grid_is_the_full_noise_by_schedule_matrix() {
        let grid = Campaign::schedule_grid(CampaignConfig::new(1, 3));
        assert_eq!(grid.noises, NoiseProfile::ALL.to_vec());
        assert_eq!(grid.schedules, ScheduleKind::ALL.to_vec());
        assert_eq!(grid.defenses, vec![DefenseKind::None]);
        assert_eq!(grid.scenarios.len(), 8);
    }

    #[test]
    fn userspace_defended_row_equals_undefended_row() {
        // User-space ASLR is outside the kernel defense menu:
        // Scenario::UserSpace defends nothing, and its rows say so
        // honestly by not moving at all.
        let config = CampaignConfig::new(2, 21);
        let plain = Scenario::UserSpace.campaign(&CpuProfile::alder_lake_i5_12400f(), config);
        let defended = Scenario::UserSpace.campaign(
            &CpuProfile::alder_lake_i5_12400f(),
            config.with_defense(DefenseKind::Rerandomizing),
        );
        assert!(Scenario::UserSpace.defense_regions().is_empty());
        assert_eq!(plain.accuracy.rate(), defended.accuracy.rate());
        assert_eq!(plain.probes, defended.probes);
    }

    #[test]
    fn v2_observables_campaign_is_accurate_and_tagged() {
        let v1 = intel_base_campaign(&CpuProfile::alder_lake_i5_12400f(), small());
        let v2 = intel_base_campaign(
            &CpuProfile::alder_lake_i5_12400f(),
            small().with_observables(ObservablesVersion::V2),
        );
        assert_eq!(v1.observables, "v1");
        assert_eq!(v2.observables, "v2");
        assert!(v1.to_string().contains("/v1]"), "{v1}");
        assert!(v2.to_string().contains("/v2]"), "{v2}");
        // The regimes are distribution-equivalent: the attack succeeds
        // under both, with the same probe accounting structure.
        assert!(v2.accuracy.rate() > 0.8, "{v2}");
        assert_eq!(v2.accuracy.total, v1.accuracy.total);
        assert!(v2.probes > 0);
    }

    #[test]
    fn cloud_campaign_threads_the_observables_regime() {
        let config = CampaignConfig::new(1, 11).with_observables(ObservablesVersion::V2);
        let row = Scenario::Cloud.campaign(&CpuProfile::alder_lake_i5_12400f(), config);
        assert_eq!(row.observables, "v2");
        assert!(row.accuracy.rate() > 0.6, "{row}");
    }

    #[test]
    fn campaign_trials_run_in_parallel_and_stay_deterministic() {
        let config = CampaignConfig::new(8, 42);
        let a = Scenario::KernelBase.campaign(&CpuProfile::alder_lake_i5_12400f(), config);
        let b = Scenario::KernelBase.campaign(&CpuProfile::alder_lake_i5_12400f(), config);
        assert_eq!(a.accuracy, b.accuracy);
        assert!((a.probing_seconds - b.probing_seconds).abs() < 1e-12);
        assert!((a.total_seconds - b.total_seconds).abs() < 1e-12);
    }
}
