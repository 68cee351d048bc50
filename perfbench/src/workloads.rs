//! The three workloads: `grid`, `fleet` and `churn`.
//!
//! Each runs one closed loop in this process: a pass starts only after
//! the previous one finished, and every pass does the same deterministic
//! work. The untraced pass calls the library's top-level entry point
//! (`Campaign::run`, `Fleet::run`, `Scenario::campaign`). The traced
//! pass re-drives the same work from here through the public calls one
//! layer down, with a span around each, and must reproduce the untraced
//! pass bit for bit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rayon::prelude::*;

use avx_channel::attacks::campaign::{
    Campaign, CampaignConfig, CampaignRow, Scenario, TrialFixture, TrialOutcome,
};
use avx_channel::fleet::{legacy_trial_seed, machine_seed, victim_seed, Checkpoint};
use avx_channel::{
    CalibratorKind, ConfirmConfig, DefenseKind, Fleet, FleetConfig, FleetReducer, KernelBaseFinder,
    Prober, RecalConfig, Sampling, ScheduleKind, SimProber, Threshold,
};
use avx_os::LinuxSystem;
use avx_uarch::{CpuProfile, Event, NoiseProfile, ObservablesVersion};

use crate::host;
use crate::trace::Spans;

/// Trials per grid cell: the size both grid probe-count canaries are
/// pinned at.
const GRID_TRIALS: u64 = 2;
/// The v1 grid probe-count canary at `GRID_TRIALS` and `seed0 = 0`.
const GRID_V1_CANARY: u64 = 10_850_014;
/// Fleet population per pass: eight default-size shards, four per
/// worker on two CPUs.
const FLEET_VICTIMS: u64 = 8 * FleetConfig::DEFAULT_SHARD_SIZE;
/// Trials per churn row.
const CHURN_TRIALS: u64 = 96;
/// Calibration stores per Linux trial (what every campaign trial path
/// calibrates with).
const CALIBRATION_SAMPLES: usize = 16;

/// Result of one pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pass {
    /// Host wall seconds.
    pub wall_s: f64,
    /// Host CPU seconds of the whole process during the pass.
    pub cpu_s: f64,
    /// Trials (fleet: victims) completed.
    pub trials: u64,
    /// Simulated probes issued.
    pub probes: u64,
    /// Accuracy records that matched ground truth.
    pub hits: u64,
    /// Accuracy records.
    pub records: u64,
    /// Simulated probes per candidate address (mean over rows).
    pub probes_per_addr: f64,
    /// Ground-truth accuracy, percent (mean over rows: one Table I cell
    /// counts once, whatever its record unit).
    pub accuracy_pct: f64,
    /// Digest of every deterministic simulated output of the pass.
    pub digest: u64,
}

/// Deterministic work counts of one traced pass, read from the
/// decomposed kernel-base trials (the only trials whose machine the
/// benchmark holds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub calibrate_probes: u64,
    pub scan_probes: u64,
    pub refits: u64,
    pub reslides: u64,
    pub tlb_hit_l1: u64,
    pub tlb_hit_l2: u64,
    pub tlb_miss: u64,
    pub walks: u64,
    pub shape_writes: u64,
    pub checkpoints: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.calibrate_probes += o.calibrate_probes;
        self.scan_probes += o.scan_probes;
        self.refits += o.refits;
        self.reslides += o.reslides;
        self.tlb_hit_l1 += o.tlb_hit_l1;
        self.tlb_hit_l2 += o.tlb_hit_l2;
        self.tlb_miss += o.tlb_miss;
        self.walks += o.walks;
        self.shape_writes += o.shape_writes;
        self.checkpoints += o.checkpoints;
    }
}

/// A traced pass: its result, its spans, its work counts and the host
/// time of its trials per scenario (indexed like [`Scenario::ALL`]).
pub struct Traced {
    pub pass: Pass,
    pub spans: Spans,
    pub counters: Counters,
    pub trial_ns: [u64; 8],
}

/// One workload.
pub trait Workload {
    /// Builds the workload's fixtures once, as the untraced pass would.
    fn setup(&self);
    /// One untraced pass through the library's top-level entry point.
    fn run(&self) -> Result<Pass, String>;
    /// One traced pass. With `verify`, every decomposed kernel-base
    /// trial is also re-run through `Scenario::run_trial_with` on the
    /// same fixture and seed, and must match it.
    fn run_traced(&self, verify: bool) -> Result<Traced, String>;
    /// Ground-truth floor and canary checks of a pass at any seed.
    fn check(&self, pass: &Pass) -> Result<(), String>;
    /// The pinned pass digest, when the workload runs at the default
    /// seed.
    fn pinned_digest(&self) -> Option<u64>;
}

/// The seed every digest is pinned at.
const DEFAULT_SEED: u64 = 0;

/// Grid and churn variants per run. One n=2 grid attacks only two
/// layouts per scenario, and the Windows and cloud scans stop where they
/// find the kernel, so one grid's work moves ±15 % with its seed; churn
/// trials against a re-randomizing victim are heavy-tailed. A run cycles
/// through this many passes, each on its own layouts, so that its
/// throughput depends on the seed far less than one pass's does.
const VARIANTS: u64 = 8;

/// Pass digests at the default seed, per variant.
const GRID_DIGESTS: [u64; VARIANTS as usize] = [
    0xbf31_7c81_bbb0_f546,
    0x8638_92dc_1585_99b6,
    0x91a2_8012_85f5_6b32,
    0x5ad7_bbcd_aa3d_4bd1,
    0xbfe8_05c6_20af_b98b,
    0x2d3a_28b9_9bd3_267d,
    0x533b_cd41_214c_23cc,
    0x1575_3059_ecef_a833,
];
const FLEET_DIGEST: u64 = 0x8a09_2dc4_5ab7_0dd9;
const CHURN_DIGESTS: [u64; VARIANTS as usize] = [
    0xacdc_f6d3_b174_48d0,
    0xf258_4bf1_41db_d857,
    0x2b2f_4aeb_03ce_8a4a,
    0x40f8_a669_706c_1ebf,
    0xa341_9415_b8d9_912a,
    0xeaea_e81b_906b_7613,
    0x289a_9a4a_4158_ec4d,
    0x2fd2_b314_ac03_28e6,
];

/// Builds the variants of workload `name` from the benchmark's seed
/// argument; a run cycles through them pass by pass. Grid and churn
/// trials use layout seeds `seed0 + salt + i` with
/// `seed0 = (seed × VARIANTS + variant) × 10⁶` (salts stay below
/// 10⁴ and trial indices below 10⁵, so no two variants or seeds share a
/// layout); the fleet's per-victim streams derive from
/// `campaign_seed = seed`.
pub fn build(name: &str, seed: u64, scratch: PathBuf) -> Result<Vec<Box<dyn Workload>>, String> {
    let seed0 = |variant: u64| {
        seed.checked_mul(VARIANTS)
            .and_then(|s| s.checked_add(variant))
            .and_then(|s| s.checked_mul(1_000_000))
            .ok_or_else(|| format!("--seed {seed} is too large"))
    };
    let pinned = |digest: u64| (seed == DEFAULT_SEED).then_some(digest);
    match name {
        "grid" => (0..VARIANTS)
            .map(|v| {
                Ok(Box::new(Grid {
                    seed0: seed0(v)?,
                    pinned: pinned(GRID_DIGESTS[v as usize]),
                }) as Box<dyn Workload>)
            })
            .collect(),
        "fleet" => Ok(vec![Box::new(FleetWorkload {
            campaign_seed: seed,
            pinned: pinned(FLEET_DIGEST),
            scratch,
            reference: Mutex::new(None),
        })]),
        "churn" => (0..VARIANTS)
            .map(|v| {
                Ok(Box::new(Churn {
                    seed0: seed0(v)?,
                    pinned: pinned(CHURN_DIGESTS[v as usize]),
                }) as Box<dyn Workload>)
            })
            .collect(),
        other => Err(format!("unknown workload {other:?} (grid, fleet, churn)")),
    }
}

// ---------------------------------------------------------------------
// Shared pieces.

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One campaign row's deterministic outputs.
#[derive(Clone, Copy, Debug)]
struct RowSum {
    trials: u64,
    probes: u64,
    hits: u64,
    records: u64,
    probing_s: f64,
    total_s: f64,
    probes_per_addr: f64,
}

impl From<&CampaignRow> for RowSum {
    fn from(row: &CampaignRow) -> Self {
        Self {
            trials: row.trials,
            probes: row.probes,
            hits: row.accuracy.successes,
            records: row.accuracy.total,
            probing_s: row.probing_seconds,
            total_s: row.total_seconds,
            probes_per_addr: row.probes_per_address,
        }
    }
}

impl RowSum {
    /// Aggregates trial outcomes with the same arithmetic, in the same
    /// order, as the campaign engine's row aggregation.
    fn of(outcomes: &[TrialOutcome]) -> Self {
        let trials = outcomes.len().max(1) as u64;
        let (mut probing, mut total) = (0.0f64, 0.0f64);
        let (mut probes, mut addresses, mut hits, mut records) = (0u64, 0u64, 0u64, 0u64);
        for o in outcomes {
            probing += o.probing_seconds;
            total += o.total_seconds;
            probes += o.probes;
            addresses += o.addresses;
            hits += o.accuracy.successes;
            records += o.accuracy.total;
        }
        Self {
            trials,
            probes,
            hits,
            records,
            probing_s: probing / trials as f64,
            total_s: total / trials as f64,
            probes_per_addr: if addresses == 0 {
                0.0
            } else {
                probes as f64 / addresses as f64
            },
        }
    }
}

/// A pass made of campaign rows; its digest covers each row's probes,
/// accuracy records and simulated cycles (as mean seconds).
fn rows_pass(rows: &[RowSum], wall_s: f64, cpu_s: f64) -> Pass {
    let mut digest = Digest::new();
    let mut pass = Pass {
        wall_s,
        cpu_s,
        ..Pass::default()
    };
    for r in rows {
        for w in [
            r.trials,
            r.probes,
            r.hits,
            r.records,
            r.probing_s.to_bits(),
            r.total_s.to_bits(),
            r.probes_per_addr.to_bits(),
        ] {
            digest.word(w);
        }
        pass.trials += r.trials;
        pass.probes += r.probes;
        pass.hits += r.hits;
        pass.records += r.records;
        pass.probes_per_addr += r.probes_per_addr;
        pass.accuracy_pct += 100.0 * r.hits as f64 / r.records.max(1) as f64;
    }
    pass.probes_per_addr /= rows.len().max(1) as f64;
    pass.accuracy_pct /= rows.len().max(1) as f64;
    pass.digest = digest.0;
    pass
}

/// Times `f` in host wall and process CPU seconds.
fn timed<R>(f: impl FnOnce() -> R) -> Result<(R, f64, f64), String> {
    let cpu0 = host::cpu_seconds()?;
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    Ok((out, wall, host::cpu_seconds()? - cpu0))
}

static NEXT_TRIAL: AtomicU64 = AtomicU64::new(0);

/// A fresh span trial id (ids only label spans, so relaxed suffices).
fn trial_id() -> u64 {
    NEXT_TRIAL.fetch_add(1, Ordering::Relaxed)
}

/// Builds `scenario`'s fixtures for `seeds` in parallel, one `os.build`
/// span each.
fn build_traced(scenario: Scenario, seeds: Vec<u64>, spans: &mut Spans) -> Vec<TrialFixture> {
    let built: Vec<(TrialFixture, Spans)> = seeds
        .into_par_iter()
        .map(|seed| {
            let mut local = Spans::new();
            let fixture = local.time("os.build", None, trial_id(), || {
                scenario.build_fixture(seed)
            });
            (fixture, local)
        })
        .collect();
    built
        .into_iter()
        .map(|(fixture, local)| {
            spans.append(local);
            fixture
        })
        .collect()
}

/// One traced trial.
struct TrialRecord {
    outcome: TrialOutcome,
    spans: Spans,
    counters: Counters,
    scenario: Scenario,
    ns: u64,
}

/// Runs one trial in a `core.trial` span. `fixture: None` builds it
/// inside the trial (an `os.build` child), as `Scenario::run_trial`
/// does. Kernel-base trials are decomposed into their layers; every
/// other scenario is timed as one `Scenario::run_trial_with` call.
fn traced_trial(
    scenario: Scenario,
    profile: &CpuProfile,
    fixture: Option<&TrialFixture>,
    seed: u64,
    config: CampaignConfig,
    verify: bool,
) -> Result<TrialRecord, String> {
    let mut spans = Spans::new();
    let mut counters = Counters::default();
    let id = trial_id();
    let root = spans.open("core.trial", None, id);
    let built;
    let fixture = match fixture {
        Some(f) => f,
        None => {
            built = spans.time("os.build", Some(root), id, || scenario.build_fixture(seed));
            &built
        }
    };
    let outcome = match (scenario, fixture) {
        (Scenario::KernelBase, TrialFixture::Linux(sys)) => kernel_base_decomposed(
            &mut spans,
            root,
            id,
            &mut counters,
            profile,
            sys,
            seed,
            config,
        ),
        _ => scenario.run_trial_with(profile, fixture, seed, config),
    };
    spans.close(root);
    let ns = spans.duration_ns(root);
    if verify && scenario == Scenario::KernelBase {
        let reference = scenario.run_trial_with(profile, fixture, seed, config);
        if !same_outcome(&outcome, &reference) {
            return Err(format!(
                "decomposed kernel-base trial (seed {seed}) diverges from \
                 Scenario::run_trial_with: {outcome:?} vs {reference:?}"
            ));
        }
    }
    Ok(TrialRecord {
        outcome,
        spans,
        counters,
        scenario,
        ns,
    })
}

fn same_outcome(a: &TrialOutcome, b: &TrialOutcome) -> bool {
    a.probes == b.probes
        && a.addresses == b.addresses
        && a.accuracy == b.accuracy
        && a.probing_seconds.to_bits() == b.probing_seconds.to_bits()
        && a.total_seconds.to_bits() == b.total_seconds.to_bits()
        && a.confidence == b.confidence
}

/// A kernel-base trial split the way the campaign engine's trial runs
/// it: machine install (`uarch.install`), threshold calibration
/// (`core.calibrate`), then the scan (`core.scan`), each a child of the
/// trial span `parent`.
#[allow(clippy::too_many_arguments)]
fn kernel_base_decomposed(
    spans: &mut Spans,
    parent: usize,
    id: u64,
    counters: &mut Counters,
    profile: &CpuProfile,
    sys: &LinuxSystem,
    seed: u64,
    config: CampaignConfig,
) -> TrialOutcome {
    let span = spans.open("uarch.install", Some(parent), id);
    let (mut machine, truth) = sys.machine(profile.clone(), machine_seed(seed));
    let epoch0 = machine.space().shape_epoch();
    machine.set_noise_profile(config.noise);
    machine.set_observables(config.observables);
    config
        .defense
        .install(&mut machine, &Scenario::KernelBase.defense_regions(), seed);
    config.schedule.install(&mut machine, config.noise, seed);
    let mut p = SimProber::new(machine);
    spans.close(span);

    let fit = spans.time("core.calibrate", Some(parent), id, || {
        Threshold::calibrate_with(
            &mut p,
            truth.user.calibration,
            CALIBRATION_SAMPLES,
            config.calibrator,
        )
    });
    let calibrate_probes = p.probes_issued();

    let scan = spans.time("core.scan", Some(parent), id, || {
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
        finder.scan(&mut p)
    });

    let machine = p.machine();
    let pmc = machine.pmc();
    counters.add(&Counters {
        calibrate_probes,
        scan_probes: p.probes_issued() - calibrate_probes,
        refits: u64::from(scan.refits),
        reslides: machine.rerandomizations(),
        tlb_hit_l1: pmc.read(Event::TlbHitL1),
        tlb_hit_l2: pmc.read(Event::TlbHitL2),
        tlb_miss: pmc.read(Event::TlbMiss),
        walks: pmc.read(Event::DtlbLoadWalkCompleted) + pmc.read(Event::DtlbStoreWalkCompleted),
        shape_writes: machine.space().shape_epoch() - epoch0,
        checkpoints: 0,
    });

    let ghz = p.clock_ghz();
    let seconds = |cycles: u64| cycles as f64 / (ghz * 1e9);
    let mut accuracy = avx_channel::stats::Trials::new();
    accuracy.record(scan.base == Some(truth.kernel_base));
    TrialOutcome {
        probing_seconds: seconds(scan.probing_cycles),
        total_seconds: seconds(scan.total_cycles),
        probes: p.probes_issued(),
        addresses: avx_os::linux::KERNEL_SLOTS,
        accuracy,
        confidence: None,
    }
}

/// Folds traced trial records of one row into the pass's spans and
/// counters; returns the row's outcomes in trial order.
fn absorb(records: Vec<TrialRecord>, traced: &mut Traced) -> Vec<TrialOutcome> {
    records
        .into_iter()
        .map(|r| {
            traced.spans.append(r.spans);
            traced.counters.add(&r.counters);
            let slot = Scenario::ALL
                .iter()
                .position(|&s| s == r.scenario)
                .expect("every scenario is in Scenario::ALL");
            traced.trial_ns[slot] += r.ns;
            r.outcome
        })
        .collect()
}

fn new_traced() -> Traced {
    Traced {
        pass: Pass::default(),
        spans: Spans::new(),
        counters: Counters::default(),
        trial_ns: [0; 8],
    }
}

// ---------------------------------------------------------------------
// grid: the full attack × CPU × noise matrix, observables v1.

struct Grid {
    seed0: u64,
    pinned: Option<u64>,
}

impl Grid {
    fn campaign(&self) -> Campaign {
        Campaign::noise_grid(CampaignConfig::new(GRID_TRIALS, self.seed0))
    }

    /// Layout seeds of each scenario's fixture pool, as `Campaign::run`
    /// derives them.
    fn pool_seeds(&self, scenario: Scenario) -> Vec<u64> {
        (0..GRID_TRIALS.clamp(1, scenario.max_trials()))
            .map(|i| legacy_trial_seed(self.seed0, scenario.seed_salt(), i))
            .collect()
    }
}

impl Workload for Grid {
    fn setup(&self) {
        for scenario in self.campaign().scenarios {
            let pool: Vec<TrialFixture> = self
                .pool_seeds(scenario)
                .into_par_iter()
                .map(|seed| scenario.build_fixture(seed))
                .collect();
            std::hint::black_box(pool);
        }
    }

    fn run(&self) -> Result<Pass, String> {
        let campaign = self.campaign();
        let (rows, wall, cpu) = timed(|| campaign.run())?;
        let rows: Vec<RowSum> = rows.iter().map(RowSum::from).collect();
        Ok(rows_pass(&rows, wall, cpu))
    }

    fn run_traced(&self, verify: bool) -> Result<Traced, String> {
        let campaign = self.campaign();
        let mut traced = new_traced();
        let start = Instant::now();
        // Mirrors `Campaign::run`: one fixture pool per scenario, then
        // noise-major cells whose trials run in parallel.
        let pools: Vec<Vec<TrialFixture>> = campaign
            .scenarios
            .iter()
            .map(|&s| build_traced(s, self.pool_seeds(s), &mut traced.spans))
            .collect();
        let mut rows = Vec::new();
        for &noise in &campaign.noises {
            for (&scenario, pool) in campaign.scenarios.iter().zip(&pools) {
                let config = CampaignConfig {
                    trials: pool.len() as u64,
                    noise,
                    ..campaign.config
                };
                let supported = campaign
                    .profiles
                    .iter()
                    .filter(|p| scenario.supported_on(p));
                // Cloud presets pin their own host CPUs: one row.
                let take = if scenario == Scenario::Cloud {
                    1
                } else {
                    usize::MAX
                };
                for profile in supported.take(take) {
                    let records = (0..pool.len())
                        .into_par_iter()
                        .map(|i| {
                            let seed = legacy_trial_seed(
                                campaign.config.seed0,
                                scenario.seed_salt(),
                                i as u64,
                            );
                            traced_trial(scenario, profile, Some(&pool[i]), seed, config, verify)
                        })
                        .collect::<Result<Vec<_>, String>>()?;
                    rows.push(RowSum::of(&absorb(records, &mut traced)));
                }
            }
        }
        traced.pass = rows_pass(&rows, start.elapsed().as_secs_f64(), 0.0);
        Ok(traced)
    }

    fn check(&self, pass: &Pass) -> Result<(), String> {
        if self.seed0 == 0 && pass.probes != GRID_V1_CANARY {
            return Err(format!(
                "grid issued {} probes, the v1 canary is {GRID_V1_CANARY}",
                pass.probes
            ));
        }
        floor("grid", pass, 40.0)
    }

    fn pinned_digest(&self) -> Option<u64> {
        self.pinned
    }
}

/// Sanity floor on ground-truth accuracy: far below what the attacks
/// reach, so only a broken pipeline trips it.
fn floor(name: &str, pass: &Pass, min_pct: f64) -> Result<(), String> {
    if pass.records == 0 || pass.accuracy_pct < min_pct {
        return Err(format!(
            "{name}: accuracy {:.2} % over {} records, floor {min_pct} %",
            pass.accuracy_pct, pass.records
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// fleet: quiet kernel-base victims over the default pool and sharding.

struct FleetWorkload {
    campaign_seed: u64,
    pinned: Option<u64>,
    scratch: PathBuf,
    /// Aggregate of the last untraced `Fleet::run`, which the traced
    /// merge must equal.
    reference: Mutex<Option<FleetReducer>>,
}

impl FleetWorkload {
    fn fleet(&self, checkpoint: &str) -> Fleet {
        Fleet::new(
            Scenario::KernelBase,
            CpuProfile::alder_lake_i5_12400f(),
            CampaignConfig::default(),
            FleetConfig::new(FLEET_VICTIMS)
                .with_seed(self.campaign_seed)
                .with_checkpoint(self.scratch.join(checkpoint)),
        )
    }

    /// Removes a previous pass's checkpoint so the pass runs every
    /// shard instead of resuming.
    fn fresh(fleet: &Fleet) -> Result<(), String> {
        let path = fleet.config.checkpoint.as_ref().expect("fleet checkpoints");
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(format!("remove {}: {e}", path.display())),
        }
    }
}

/// Digest of a fleet aggregate: its exact checkpoint serialization.
fn reducer_digest(reducer: &FleetReducer) -> u64 {
    let json = Checkpoint {
        fingerprint: 0,
        completed: Vec::new(),
        reducer: *reducer,
    }
    .to_json();
    let mut digest = Digest::new();
    for byte in json.bytes() {
        digest.word(u64::from(byte));
    }
    digest.0
}

fn fleet_pass(aggregate: &FleetReducer, wall_s: f64, cpu_s: f64) -> Pass {
    Pass {
        wall_s,
        cpu_s,
        trials: aggregate.victims,
        probes: aggregate.probes,
        hits: aggregate.hits,
        records: aggregate.records,
        probes_per_addr: aggregate.probes as f64 / aggregate.addresses.max(1) as f64,
        accuracy_pct: aggregate.accuracy().percent(),
        digest: reducer_digest(aggregate),
    }
}

impl Workload for FleetWorkload {
    fn setup(&self) {
        std::hint::black_box(self.fleet("setup.ckpt").build_pool());
    }

    fn run(&self) -> Result<Pass, String> {
        let fleet = self.fleet("fleet.ckpt");
        Self::fresh(&fleet)?;
        let (report, wall, cpu) = timed(|| fleet.run())?;
        let report = report?;
        if !report.complete || report.shards_resumed != 0 {
            return Err(format!(
                "fleet pass incomplete: {} of {} shards run, {} resumed",
                report.shards_run, report.shards, report.shards_resumed
            ));
        }
        *self.reference.lock().expect("reference lock poisoned") = Some(report.aggregate);
        Ok(fleet_pass(&report.aggregate, wall, cpu))
    }

    fn run_traced(&self, verify: bool) -> Result<Traced, String> {
        let fleet = self.fleet("traced.ckpt");
        Self::fresh(&fleet)?;
        let salt = fleet.scenario.seed_salt();
        let seed = fleet.config.campaign_seed;
        let path = fleet.config.checkpoint.clone().expect("fleet checkpoints");
        let fingerprint = fleet.fingerprint();
        let shards = fleet.config.shard_count();
        let mut traced = new_traced();
        let start = Instant::now();

        // `Fleet::build_pool`, one fixture per span.
        let pool_seeds = (0..fleet.config.pool_size())
            .map(|i| victim_seed(seed, salt, i))
            .collect();
        let pool = build_traced(fleet.scenario, pool_seeds, &mut traced.spans);

        // `Fleet::run`'s shard loop: each shard streams its victims
        // (`Fleet::run_shard`), then merges and checkpoints under the
        // fleet lock.
        struct State {
            completed: Vec<bool>,
            aggregate: FleetReducer,
            spans: Spans,
            counters: Counters,
            trial_ns: u64,
            error: Result<(), String>,
        }
        let state = Mutex::new(State {
            completed: vec![false; shards as usize],
            aggregate: FleetReducer::new(),
            spans: Spans::new(),
            counters: Counters::default(),
            trial_ns: 0,
            error: Ok(()),
        });
        (0..shards).into_par_iter().for_each(|shard| {
            let mut spans = Spans::new();
            let mut counters = Counters::default();
            let mut trial_ns = 0;
            let mut local = FleetReducer::new();
            let mut error = Ok(());
            let root = spans.open("core.fleet.shard", None, shard);
            let (lo, hi) = fleet.shard_range(shard);
            for idx in lo..hi {
                let fixture = &pool[(idx % pool.len() as u64) as usize];
                let victim = victim_seed(seed, salt, idx);
                match traced_trial(
                    fleet.scenario,
                    &fleet.profile,
                    Some(fixture),
                    victim,
                    fleet.campaign,
                    verify,
                ) {
                    Ok(record) => {
                        spans.append_under(record.spans, Some(root));
                        counters.add(&record.counters);
                        trial_ns += record.ns;
                        local.push(&record.outcome);
                    }
                    Err(e) => error = Err(e),
                }
            }
            spans.close(root);
            let mut guard = state.lock().expect("fleet state lock poisoned");
            let st = &mut *guard;
            st.completed[shard as usize] = true;
            st.spans.time("core.fleet.merge", None, shard, || {
                st.aggregate.merge(&local)
            });
            let checkpoint = Checkpoint {
                fingerprint,
                completed: st.completed.clone(),
                reducer: st.aggregate,
            };
            let stored = st.spans.time("core.fleet.checkpoint", None, shard, || {
                checkpoint.store(&path)
            });
            st.counters.checkpoints += 1;
            st.spans.append(spans);
            st.counters.add(&counters);
            st.trial_ns += trial_ns;
            if let Err(e) = error.and(stored) {
                st.error = Err(e);
            }
        });
        let wall = start.elapsed().as_secs_f64();
        let st = state.into_inner().expect("fleet state lock poisoned");
        st.error?;
        traced.spans.append(st.spans);
        traced.counters.add(&st.counters);
        // Slot 0 of `Scenario::ALL` is the kernel-base scenario.
        traced.trial_ns[0] = st.trial_ns;
        if let Some(reference) = *self.reference.lock().expect("reference lock poisoned") {
            if reference != st.aggregate {
                return Err(format!(
                    "traced fleet merge {} differs from Fleet::run's aggregate {reference}",
                    st.aggregate
                ));
            }
        }
        traced.pass = fleet_pass(&st.aggregate, wall, 0.0);
        Ok(traced)
    }

    fn check(&self, pass: &Pass) -> Result<(), String> {
        if pass.trials != FLEET_VICTIMS {
            return Err(format!(
                "fleet swept {} of {FLEET_VICTIMS} victims",
                pass.trials
            ));
        }
        floor("fleet", pass, 90.0)
    }

    fn pinned_digest(&self) -> Option<u64> {
        self.pinned
    }
}

// ---------------------------------------------------------------------
// churn: the closed-loop attacker against victims that rewrite their
// page tables mid-scan, observables v2.

struct Churn {
    seed0: u64,
    pinned: Option<u64>,
}

impl Churn {
    /// The rows of one pass: the re-randomizing defense under laptop
    /// DVFS noise, then the module-churn schedule, each on both Intel
    /// profiles.
    fn rows(&self) -> Vec<(CpuProfile, CampaignConfig)> {
        let attacker = CampaignConfig::new(CHURN_TRIALS, self.seed0)
            .with_observables(ObservablesVersion::V2)
            .with_sampling(Sampling::adaptive())
            .with_calibrator(CalibratorKind::NoiseAware)
            .with_recalibration(RecalConfig::default())
            .with_confirmation(ConfirmConfig::default());
        let victims = [
            attacker
                .with_noise(NoiseProfile::LaptopDvfs)
                .with_defense(DefenseKind::Rerandomizing),
            attacker.with_schedule(ScheduleKind::ModuleChurn),
        ];
        let profiles = [
            CpuProfile::alder_lake_i5_12400f(),
            CpuProfile::ice_lake_i7_1065g7(),
        ];
        victims
            .iter()
            .flat_map(|&config| profiles.iter().map(move |p| (p.clone(), config)))
            .collect()
    }

    fn seeds(&self) -> Vec<u64> {
        (0..CHURN_TRIALS)
            .map(|i| legacy_trial_seed(self.seed0, Scenario::KernelBase.seed_salt(), i))
            .collect()
    }
}

impl Workload for Churn {
    fn setup(&self) {
        let pool: Vec<TrialFixture> = self
            .seeds()
            .into_par_iter()
            .map(|seed| Scenario::KernelBase.build_fixture(seed))
            .collect();
        std::hint::black_box(pool);
    }

    fn run(&self) -> Result<Pass, String> {
        let rows = self.rows();
        let (rows, wall, cpu) = timed(|| {
            rows.iter()
                .map(|(profile, config)| {
                    RowSum::from(&Scenario::KernelBase.campaign(profile, *config))
                })
                .collect::<Vec<_>>()
        })?;
        Ok(rows_pass(&rows, wall, cpu))
    }

    fn run_traced(&self, verify: bool) -> Result<Traced, String> {
        let mut traced = new_traced();
        let start = Instant::now();
        let mut rows = Vec::new();
        // Mirrors `Scenario::campaign`: each trial builds its own
        // fixture, trials of a row run in parallel.
        for (profile, config) in self.rows() {
            let records = self
                .seeds()
                .into_par_iter()
                .map(|seed| {
                    traced_trial(Scenario::KernelBase, &profile, None, seed, config, verify)
                })
                .collect::<Result<Vec<_>, String>>()?;
            rows.push(RowSum::of(&absorb(records, &mut traced)));
        }
        traced.pass = rows_pass(&rows, start.elapsed().as_secs_f64(), 0.0);
        Ok(traced)
    }

    fn check(&self, pass: &Pass) -> Result<(), String> {
        if pass.records != 4 * CHURN_TRIALS {
            return Err(format!("churn recorded {} trials", pass.records));
        }
        // Half the rows face a defense built to defeat the attack; a
        // miss there is a correct output, so the floor is loose.
        floor("churn", pass, 30.0)
    }

    fn pinned_digest(&self) -> Option<u64> {
        self.pinned
    }
}
