//! Fleet campaign engine — streaming population sweeps at 10⁵–10⁶
//! victims.
//!
//! The classic [`crate::attacks::campaign::Campaign`] runs a fixed
//! trial grid and collects every
//! [`crate::attacks::campaign::CampaignRow`] in memory; attack
//! feasibility at production scale must instead be judged over very
//! large measurement *populations* (NetSpectre-style: single-digit-n
//! cells carry ±4 pp binomial noise). This module is the scale-out
//! layer:
//!
//! * **Deterministic per-victim RNG streams.** Every seed a fleet uses
//!   is derived through one SplitMix64 chokepoint, [`victim_seed`], so
//!   any shard — and any single victim — is independently reproducible
//!   in isolation ([`Fleet::run_victim`]). The historical campaign
//!   derivations stay bit-compatible through the [`legacy_trial_seed`]
//!   / [`machine_seed`] shims, which the classic campaign paths now
//!   route through.
//! * **Sharded work-stealing execution.** Victims are partitioned into
//!   contiguous shards (default [`FleetConfig::DEFAULT_SHARD_SIZE`])
//!   fanned out over rayon. All shards share one copy-on-write
//!   [`TrialFixture`] pool: the PR 3 snapshot machinery makes each
//!   per-victim address space an O(1) clone of a pooled layout, so a
//!   million victims never build a million systems. Fixtures are never
//!   mutated (ARCHITECTURE.md invariant 5).
//! * **Simulate each layout once.** Under an open-loop config
//!   ([`Scenario::replays`]) a victim differs from the other victims of
//!   its layout only in its noise stream, so [`Fleet::run`] records one
//!   [`CostTape`] per pooled layout and replays every victim through
//!   its own stream instead of re-simulating translation — bit-identical
//!   to the full simulation [`Fleet::run_victim`] (ARCHITECTURE.md
//!   invariant 15). Every other config simulates each victim.
//! * **Streaming incremental aggregation.** Each shard folds its
//!   victims into a [`FleetReducer`] — hits, probes, per-victim
//!   probe-count moments, accuracy, and the confirmation
//!   confidence-tag histogram — whose [`FleetReducer::merge`] is
//!   associative *and* commutative to the bit (the moments ride on
//!   exact integer sums, see [`MomentSum`]). Memory is O(shards),
//!   never O(victims); no per-victim row is ever collected.
//! * **Checkpoint/resume.** With [`FleetConfig::checkpoint`] set, the
//!   merged reducer state plus the completed-shard bitmap is written
//!   to a versioned JSON file (atomic rename) after every shard, so a
//!   killed multi-hour run resumes where it stopped — and because the
//!   merge is order-independent and exact, a kill-and-resume run
//!   produces a **bit-identical** final aggregate.
//!
//! ```
//! use avx_channel::attacks::campaign::{CampaignConfig, Scenario};
//! use avx_channel::fleet::{Fleet, FleetConfig};
//! use avx_uarch::CpuProfile;
//!
//! let fleet = Fleet::new(
//!     Scenario::KernelBase,
//!     CpuProfile::alder_lake_i5_12400f(),
//!     CampaignConfig::default(),
//!     FleetConfig::new(64).with_shards(4),
//! );
//! let report = fleet.run().unwrap();
//! assert_eq!(report.aggregate.victims, 64);
//! assert!(report.aggregate.accuracy().rate() > 0.8);
//! ```

use core::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use rayon::prelude::*;

use avx_uarch::CpuProfile;

use crate::attacks::campaign::{CampaignConfig, Scenario, TrialFixture, TrialOutcome};
use crate::attacks::KptiConfidence;
use crate::stats::Trials;
use crate::tape::CostTape;

// ---------------------------------------------------------------------
// Seed derivation — the single chokepoint.

/// SplitMix64 increment (Weyl constant), also the stream-mixing salt.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 output step: finalizes `state + γ` through the
/// Stafford mix. Deterministic, stateless, and well-distributed even
/// for sequential inputs — which is exactly what per-victim indices
/// are.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fleet seed-derivation chokepoint: the layout/trial seed of
/// victim `victim_idx` in scenario stream `scenario_id` of the
/// campaign seeded `campaign_seed`.
///
/// Two SplitMix64 finalizations — one keying the (campaign, scenario)
/// stream, one keying the victim index into it — so neighbouring
/// victim indices land in decorrelated RNG streams while any single
/// victim's seed is recomputable from the three coordinates alone.
/// Scenarios use [`Scenario::seed_salt`] as their stream id.
#[must_use]
pub fn victim_seed(campaign_seed: u64, scenario_id: u64, victim_idx: u64) -> u64 {
    let stream = splitmix64(campaign_seed ^ scenario_id.wrapping_mul(SPLITMIX_GAMMA));
    splitmix64(stream ^ victim_idx)
}

/// Bit-compatibility shim for the historical campaign derivation:
/// trial *i* of a scenario uses layout seed `seed0 + salt + i`. Every
/// pre-fleet golden row is a function of this exact arithmetic, so the
/// classic [`Scenario::campaign`] paths route through it verbatim
/// (wrapping, like the original release-mode arithmetic).
#[must_use]
pub fn legacy_trial_seed(seed0: u64, scenario_salt: u64, trial_idx: u64) -> u64 {
    seed0.wrapping_add(scenario_salt).wrapping_add(trial_idx)
}

/// Bit-compatibility shim for the historical machine-seed derivation:
/// the per-trial machine (noise RNG) seed is the trial seed XOR
/// `0xabcd`. Kept in one place so the layout-seed and noise-seed
/// streams can never silently diverge between the fleet and the
/// classic campaign paths.
#[must_use]
pub fn machine_seed(trial_seed: u64) -> u64 {
    trial_seed ^ 0xabcd
}

// ---------------------------------------------------------------------
// Exact-merge moment accumulator.

/// Welford-style running moments over `u64` samples, carried as exact
/// integer sums so that [`MomentSum::merge`] is associative and
/// commutative *to the bit* — the property the fleet's shard-count
/// invariance and checkpoint/resume bit-identity rest on. (A floating
/// Welford merge is only approximately associative; `Σx` and `Σx²` in
/// `u128` are exact up to 10⁶ victims × 10⁶ probes each, far beyond
/// any fleet this engine runs.) Mean and σ are derived on demand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MomentSum {
    n: u64,
    sum: u128,
    sumsq: u128,
    min: u64,
    max: u64,
}

impl Default for MomentSum {
    fn default() -> Self {
        Self {
            n: 0,
            sum: 0,
            sumsq: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl MomentSum {
    /// Empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: u64) {
        self.n += 1;
        self.sum += u128::from(x);
        self.sumsq += u128::from(x) * u128::from(x);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator in — exact, order-independent.
    pub fn merge(&mut self, other: &Self) {
        self.n += other.n;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Population variance (0 with < 2 samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sumsq as f64 / self.n as f64 - mean * mean).max(0.0)
    }

    /// Population standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.n > 0).then_some(self.max)
    }
}

// ---------------------------------------------------------------------
// The streaming reducer.

/// Incremental aggregate of a victim population — the only aggregation
/// site of the fleet engine (ARCHITECTURE.md invariant 11). All fields
/// are integers, so [`FleetReducer::merge`] is exact, associative and
/// commutative: N victims reduced on one shard, K shards, or across a
/// kill-and-resume boundary produce bit-identical state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetReducer {
    /// Victims swept.
    pub victims: u64,
    /// Successful accuracy records across the population.
    pub hits: u64,
    /// Total accuracy records (per victim for base attacks, per
    /// module/library/sample otherwise — same semantics as
    /// [`crate::attacks::campaign::CampaignRow`]).
    pub records: u64,
    /// Raw probes issued across the population (calibration included).
    pub probes: u64,
    /// Candidate addresses covered across the population.
    pub addresses: u64,
    /// Per-victim probe-count moments (mean/σ/min/max of what one
    /// victim costs), exact-merge via [`MomentSum`].
    pub probe_moments: MomentSum,
    /// Confidence-tag histogram of the confirmation decision layer, in
    /// [`KptiConfidence`] declaration order (no-candidate / unique /
    /// guessed-first / confirmed). All zero unless the scenario
    /// reports confidence and `--confirm` is on.
    pub confidence: [u64; 4],
}

impl FleetReducer {
    /// Empty reducer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Histogram slot of a confidence tag (declaration order).
    #[must_use]
    pub fn confidence_slot(confidence: KptiConfidence) -> usize {
        match confidence {
            KptiConfidence::NoCandidate => 0,
            KptiConfidence::Unique => 1,
            KptiConfidence::GuessedFirst => 2,
            KptiConfidence::Confirmed => 3,
        }
    }

    /// Folds one victim's trial outcome in.
    pub fn push(&mut self, outcome: &TrialOutcome) {
        self.victims += 1;
        self.hits += outcome.accuracy.successes;
        self.records += outcome.accuracy.total;
        self.probes += outcome.probes;
        self.addresses += outcome.addresses;
        self.probe_moments.push(outcome.probes);
        if let Some(confidence) = outcome.confidence {
            self.confidence[Self::confidence_slot(confidence)] += 1;
        }
    }

    /// Merges another reducer in — exact, associative, commutative.
    pub fn merge(&mut self, other: &Self) {
        self.victims += other.victims;
        self.hits += other.hits;
        self.records += other.records;
        self.probes += other.probes;
        self.addresses += other.addresses;
        self.probe_moments.merge(&other.probe_moments);
        for (slot, count) in self.confidence.iter_mut().zip(other.confidence) {
            *slot += count;
        }
    }

    /// Population accuracy as a [`Trials`] tracker.
    #[must_use]
    pub fn accuracy(&self) -> Trials {
        Trials {
            successes: self.hits,
            total: self.records,
        }
    }
}

impl fmt::Display for FleetReducer {
    /// The canonical aggregate line. Deterministic formatting of
    /// deterministic state: two runs with bit-identical reducers print
    /// byte-identical lines (the CI resume smoke diffs them).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "victims={} accuracy={} probes={} probes/victim={:.2}±{:.2} [{}..{}] confidence={:?}",
            self.victims,
            self.accuracy(),
            self.probes,
            self.probe_moments.mean(),
            self.probe_moments.stddev(),
            self.probe_moments.min().unwrap_or(0),
            self.probe_moments.max().unwrap_or(0),
            self.confidence,
        )
    }
}

// ---------------------------------------------------------------------
// Configuration.

/// Population-sweep parameters of a [`Fleet`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetConfig {
    /// Victims to sweep.
    pub victims: u64,
    /// Victims per contiguous shard.
    pub shard_size: u64,
    /// Distinct victim layouts in the shared copy-on-write fixture
    /// pool. Victim `v` attacks layout `v % pool` under its own
    /// [`victim_seed`] noise stream — layouts repeat, measurement
    /// populations never do.
    pub pool: u64,
    /// Campaign seed every per-victim stream derives from.
    pub campaign_seed: u64,
    /// Checkpoint file for shard-granular resume (`None`: no
    /// checkpointing).
    pub checkpoint: Option<PathBuf>,
    /// At most this many pending shards are executed per
    /// [`Fleet::run`] call (`None`: all). The kill-and-resume lever:
    /// CI's resume smoke runs one shard, "dies", then resumes.
    pub max_shards: Option<u64>,
}

impl FleetConfig {
    /// Default victims per shard.
    pub const DEFAULT_SHARD_SIZE: u64 = 1024;
    /// Default fixture-pool size.
    pub const DEFAULT_POOL: u64 = 64;

    /// A fleet of `victims` with default sharding and pooling.
    #[must_use]
    pub fn new(victims: u64) -> Self {
        Self {
            victims,
            shard_size: Self::DEFAULT_SHARD_SIZE,
            pool: Self::DEFAULT_POOL,
            campaign_seed: 0,
            checkpoint: None,
            max_shards: None,
        }
    }

    /// Same fleet with an explicit shard size.
    #[must_use]
    pub fn with_shard_size(mut self, shard_size: u64) -> Self {
        self.shard_size = shard_size.max(1);
        self
    }

    /// Same fleet partitioned into (about) `shards` contiguous shards.
    #[must_use]
    pub fn with_shards(self, shards: u64) -> Self {
        let victims = self.victims.max(1);
        self.with_shard_size(victims.div_ceil(shards.max(1)))
    }

    /// Same fleet with an explicit fixture-pool size.
    #[must_use]
    pub fn with_pool(mut self, pool: u64) -> Self {
        self.pool = pool.max(1);
        self
    }

    /// Same fleet under a different campaign seed.
    #[must_use]
    pub fn with_seed(mut self, campaign_seed: u64) -> Self {
        self.campaign_seed = campaign_seed;
        self
    }

    /// Same fleet with shard-granular checkpointing to `path`.
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Same fleet executing at most `shards` pending shards per run.
    #[must_use]
    pub fn with_max_shards(mut self, shards: u64) -> Self {
        self.max_shards = Some(shards);
        self
    }

    /// Number of shards the victim population partitions into.
    #[must_use]
    pub fn shard_count(&self) -> u64 {
        self.victims.div_ceil(self.shard_size.max(1))
    }

    /// Effective fixture-pool size (never larger than the population).
    #[must_use]
    pub fn pool_size(&self) -> u64 {
        self.pool.clamp(1, self.victims.max(1))
    }
}

// ---------------------------------------------------------------------
// The fleet driver.

/// A long-running population sweep: one scenario × CPU × campaign
/// config, executed over [`FleetConfig::victims`] deterministic
/// per-victim streams.
#[derive(Clone, Debug)]
pub struct Fleet {
    /// Scenario under attack.
    pub scenario: Scenario,
    /// CPU profile the attacks probe on.
    pub profile: CpuProfile,
    /// Noise / sampling / calibrator / decision configuration.
    /// `trials` and `seed0` are ignored — the fleet's population and
    /// seeding live in [`FleetConfig`].
    pub campaign: CampaignConfig,
    /// Population-sweep parameters.
    pub config: FleetConfig,
}

/// Result of one [`Fleet::run`] invocation.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Merged population aggregate (resumed shards included).
    pub aggregate: FleetReducer,
    /// Total shards of the population.
    pub shards: u64,
    /// Shards executed by this invocation.
    pub shards_run: u64,
    /// Shards restored from the checkpoint instead of re-run.
    pub shards_resumed: u64,
    /// Whether every shard of the population is now complete.
    pub complete: bool,
    /// Victims executed by this invocation (excludes resumed ones).
    pub victims_run: u64,
    /// Probes issued by this invocation (excludes resumed ones).
    pub probes_run: u64,
    /// Wall-clock seconds of this invocation.
    pub wall_seconds: f64,
}

impl FleetReport {
    /// Victims per wall-clock second of this invocation.
    #[must_use]
    pub fn victims_per_sec(&self) -> f64 {
        self.victims_run as f64 / self.wall_seconds.max(1e-9)
    }

    /// Probes per wall-clock second of this invocation.
    #[must_use]
    pub fn probes_per_sec(&self) -> f64 {
        self.probes_run as f64 / self.wall_seconds.max(1e-9)
    }
}

impl Fleet {
    /// Builds a fleet.
    ///
    /// # Panics
    ///
    /// Panics when the scenario's probing primitive does not work on
    /// `profile` (same contract as [`Scenario::supported_on`]).
    #[must_use]
    pub fn new(
        scenario: Scenario,
        profile: CpuProfile,
        campaign: CampaignConfig,
        config: FleetConfig,
    ) -> Self {
        assert!(
            scenario.supported_on(&profile),
            "scenario {scenario} unsupported on {}",
            profile.model
        );
        Self {
            scenario,
            profile,
            campaign,
            config,
        }
    }

    /// Configuration fingerprint a checkpoint is bound to: resuming
    /// under a different population, sharding, seed, scenario or
    /// attack configuration is refused rather than silently merging
    /// incompatible aggregates.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix64(0xf1ee7);
        for word in [
            self.config.victims,
            self.config.shard_size,
            self.config.pool_size(),
            self.config.campaign_seed,
            self.scenario.seed_salt(),
        ] {
            h = splitmix64(h ^ word);
        }
        // Defense and schedule are fieldless enums: the name is the
        // whole value.
        let labels = format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}",
            self.profile.model,
            self.campaign.noise,
            self.campaign.sampling.name(),
            self.campaign.calibrator.name(),
            self.campaign.observables.name(),
            self.campaign.confirm.is_some(),
            self.campaign.recal.is_some(),
            self.campaign.defense.name(),
            self.campaign.schedule.name(),
        );
        for byte in labels.bytes() {
            h = splitmix64(h ^ u64::from(byte));
        }
        h
    }

    /// Builds the shared copy-on-write fixture pool: layout `i` comes
    /// from `victim_seed(campaign_seed, salt, i)` — identical to the
    /// layout seed of victim `i` itself, so the first `pool` victims
    /// attack "their own" fresh systems and later victims re-visit
    /// pooled layouts under fresh noise streams.
    #[must_use]
    pub fn build_pool(&self) -> Vec<TrialFixture> {
        let salt = self.scenario.seed_salt();
        let seed = self.config.campaign_seed;
        (0..self.config.pool_size())
            .into_par_iter()
            .map(|i| self.scenario.build_fixture(victim_seed(seed, salt, i)))
            .collect()
    }

    /// Records one [`CostTape`] per pooled layout, in parallel, when
    /// the fleet's trials replay ([`Scenario::replays`]); `None` when
    /// they must be simulated. `tapes[i]` belongs to `pool[i]`.
    #[must_use]
    pub fn record_tapes(&self, pool: &[TrialFixture]) -> Option<Vec<CostTape>> {
        self.scenario.replays(&self.campaign).then(|| {
            pool.into_par_iter()
                .map(|fixture| {
                    self.scenario
                        .record_tape(&self.profile, fixture, self.campaign)
                })
                .collect()
        })
    }

    /// Runs victim `idx` against the pooled fixtures by full
    /// simulation — the reference the replayed fleet is tested
    /// against. The trial seed is the victim's own [`victim_seed`]; the
    /// layout is `pool[idx % pool.len()]`.
    #[must_use]
    pub fn run_victim_in(&self, pool: &[TrialFixture], idx: u64) -> TrialOutcome {
        self.run_victim_with(pool, None, idx)
    }

    /// Runs victim `idx` the way [`Fleet::run`] does: replayed from its
    /// layout's tape when `tapes` (from [`Fleet::record_tapes`] over
    /// the same pool) is given, simulated otherwise. Either way the
    /// outcome equals [`Fleet::run_victim_in`]'s.
    #[must_use]
    pub fn run_victim_with(
        &self,
        pool: &[TrialFixture],
        tapes: Option<&[CostTape]>,
        idx: u64,
    ) -> TrialOutcome {
        let salt = self.scenario.seed_salt();
        let seed = victim_seed(self.config.campaign_seed, salt, idx);
        let layout = (idx % pool.len() as u64) as usize;
        match tapes {
            Some(tapes) => self.scenario.replay_trial(
                &self.profile,
                &pool[layout],
                &tapes[layout],
                seed,
                self.campaign,
            ),
            None => self
                .scenario
                .run_trial_with(&self.profile, &pool[layout], seed, self.campaign),
        }
    }

    /// Reruns victim `idx` in complete isolation — rebuilding only its
    /// pooled layout — and reproduces its in-fleet outcome exactly
    /// (the per-victim reproducibility contract).
    #[must_use]
    pub fn run_victim(&self, idx: u64) -> TrialOutcome {
        let salt = self.scenario.seed_salt();
        let layout = victim_seed(
            self.config.campaign_seed,
            salt,
            idx % self.config.pool_size(),
        );
        let fixture = self.scenario.build_fixture(layout);
        let seed = victim_seed(self.config.campaign_seed, salt, idx);
        self.scenario
            .run_trial_with(&self.profile, &fixture, seed, self.campaign)
    }

    /// Victim index range `[start, end)` of shard `shard`.
    #[must_use]
    pub fn shard_range(&self, shard: u64) -> (u64, u64) {
        let start = shard * self.config.shard_size;
        (
            start,
            (start + self.config.shard_size).min(self.config.victims),
        )
    }

    /// Streams one shard's victims ([`Fleet::run_victim_with`]) into a
    /// fresh reducer.
    #[must_use]
    pub fn run_shard(
        &self,
        pool: &[TrialFixture],
        tapes: Option<&[CostTape]>,
        shard: u64,
    ) -> FleetReducer {
        let (start, end) = self.shard_range(shard);
        let mut reducer = FleetReducer::new();
        for idx in start..end {
            reducer.push(&self.run_victim_with(pool, tapes, idx));
        }
        reducer
    }

    /// Runs the fleet: resumes from the checkpoint when one exists,
    /// executes every still-pending shard (bounded by
    /// [`FleetConfig::max_shards`]) rayon-parallel, checkpoints after
    /// each shard completion, and returns the merged aggregate. The
    /// fixture pool is built, and its cost tapes recorded
    /// ([`Fleet::record_tapes`]), only when a shard is pending.
    ///
    /// # Errors
    ///
    /// Returns a message when the checkpoint file is unreadable,
    /// corrupt, or was recorded under a different fleet configuration
    /// (fingerprint mismatch), or when a checkpoint write fails.
    pub fn run(&self) -> Result<FleetReport, String> {
        let start = Instant::now();
        let shards = self.config.shard_count();
        let mut completed = vec![false; shards as usize];
        let mut restored = FleetReducer::new();
        if let Some(path) = &self.config.checkpoint {
            if path.exists() {
                let checkpoint = Checkpoint::load(path)?;
                if checkpoint.fingerprint != self.fingerprint() {
                    return Err(format!(
                        "checkpoint {} was recorded under a different fleet \
                         configuration (fingerprint {:016x}, expected {:016x})",
                        path.display(),
                        checkpoint.fingerprint,
                        self.fingerprint()
                    ));
                }
                if checkpoint.completed.len() != shards as usize {
                    return Err(format!(
                        "checkpoint {} holds {} shards, fleet has {shards}",
                        path.display(),
                        checkpoint.completed.len()
                    ));
                }
                completed = checkpoint.completed;
                restored = checkpoint.reducer;
            }
        }
        let shards_resumed = completed.iter().filter(|&&done| done).count() as u64;

        let mut pending: Vec<u64> = (0..shards).filter(|&s| !completed[s as usize]).collect();
        if let Some(max) = self.config.max_shards {
            pending.truncate(max as usize);
        }
        let shards_run = pending.len() as u64;
        let victims_run: u64 = pending
            .iter()
            .map(|&s| {
                let (lo, hi) = self.shard_range(s);
                hi - lo
            })
            .sum();

        let (pool, tapes) = if pending.is_empty() {
            (Vec::new(), None)
        } else {
            let pool = self.build_pool();
            let tapes = self.record_tapes(&pool);
            (pool, tapes)
        };
        let fingerprint = self.fingerprint();
        let state = Mutex::new((completed, restored, Ok::<(), String>(())));
        pending.into_par_iter().for_each(|shard| {
            let local = self.run_shard(&pool, tapes.as_deref(), shard);
            let mut guard = state.lock().expect("fleet state lock");
            let (completed, aggregate, io_status) = &mut *guard;
            completed[shard as usize] = true;
            aggregate.merge(&local);
            if let Some(path) = &self.config.checkpoint {
                let checkpoint = Checkpoint {
                    fingerprint,
                    completed: completed.clone(),
                    reducer: *aggregate,
                };
                if let Err(err) = checkpoint.store(path) {
                    *io_status = Err(err);
                }
            }
        });

        let (completed, aggregate, io_status) = state.into_inner().expect("fleet state lock");
        io_status?;
        let complete = completed.iter().all(|&done| done);
        Ok(FleetReport {
            probes_run: aggregate.probes - restored.probes,
            aggregate,
            shards,
            shards_run,
            shards_resumed,
            complete,
            victims_run,
            wall_seconds: start.elapsed().as_secs_f64(),
        })
    }
}

// ---------------------------------------------------------------------
// Checkpoint serialization (hand-rolled JSON; the build is air-gapped,
// so no serde).

/// Checkpoint schema identifier; bump on incompatible format changes.
pub const FLEET_CHECKPOINT_SCHEMA: &str = "avx-aslr/fleet-checkpoint/v1";

/// Shard-granular resume state of a fleet run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// [`Fleet::fingerprint`] of the configuration that recorded it.
    pub fingerprint: u64,
    /// Completed-shard bitmap (index = shard number).
    pub completed: Vec<bool>,
    /// Merged reducer state over every completed shard.
    pub reducer: FleetReducer,
}

impl Checkpoint {
    /// Serializes to the versioned JSON checkpoint format.
    #[must_use]
    pub fn to_json(&self) -> String {
        let bits: String = self
            .completed
            .iter()
            .map(|&done| if done { '1' } else { '0' })
            .collect();
        let r = &self.reducer;
        format!(
            "{{\n  \"schema\": \"{FLEET_CHECKPOINT_SCHEMA}\",\n  \
             \"fingerprint\": \"{:016x}\",\n  \"shards\": {},\n  \
             \"completed\": \"{bits}\",\n  \"reducer\": {{\n    \
             \"victims\": {},\n    \"hits\": {},\n    \"records\": {},\n    \
             \"probes\": {},\n    \"addresses\": {},\n    \
             \"probe_n\": {},\n    \"probe_sum\": \"{}\",\n    \
             \"probe_sumsq\": \"{}\",\n    \"probe_min\": {},\n    \
             \"probe_max\": {},\n    \"confidence\": [{}, {}, {}, {}]\n  }}\n}}\n",
            self.fingerprint,
            self.completed.len(),
            r.victims,
            r.hits,
            r.records,
            r.probes,
            r.addresses,
            r.probe_moments.n,
            r.probe_moments.sum,
            r.probe_moments.sumsq,
            r.probe_moments.min,
            r.probe_moments.max,
            r.confidence[0],
            r.confidence[1],
            r.confidence[2],
            r.confidence[3],
        )
    }

    /// Parses the versioned JSON checkpoint format.
    ///
    /// # Errors
    ///
    /// Returns a message on schema mismatch or any missing/malformed
    /// field.
    pub fn from_json(src: &str) -> Result<Self, String> {
        let schema = json_str(src, "schema").ok_or("checkpoint: missing schema")?;
        if schema != FLEET_CHECKPOINT_SCHEMA {
            return Err(format!(
                "checkpoint: schema {schema:?}, expected {FLEET_CHECKPOINT_SCHEMA:?}"
            ));
        }
        let fingerprint = json_str(src, "fingerprint")
            .and_then(|hex| u64::from_str_radix(&hex, 16).ok())
            .ok_or("checkpoint: bad fingerprint")?;
        let shards = json_u64(src, "shards").ok_or("checkpoint: missing shards")? as usize;
        let bits = json_str(src, "completed").ok_or("checkpoint: missing completed bitmap")?;
        if bits.len() != shards || bits.bytes().any(|b| b != b'0' && b != b'1') {
            return Err("checkpoint: completed bitmap does not match shard count".into());
        }
        let completed: Vec<bool> = bits.bytes().map(|b| b == b'1').collect();
        let confidence =
            json_u64_array::<4>(src, "confidence").ok_or("checkpoint: bad confidence histogram")?;
        let reducer = FleetReducer {
            victims: json_u64(src, "victims").ok_or("checkpoint: missing victims")?,
            hits: json_u64(src, "hits").ok_or("checkpoint: missing hits")?,
            records: json_u64(src, "records").ok_or("checkpoint: missing records")?,
            probes: json_u64(src, "probes").ok_or("checkpoint: missing probes")?,
            addresses: json_u64(src, "addresses").ok_or("checkpoint: missing addresses")?,
            probe_moments: MomentSum {
                n: json_u64(src, "probe_n").ok_or("checkpoint: missing probe_n")?,
                sum: json_u128_str(src, "probe_sum").ok_or("checkpoint: bad probe_sum")?,
                sumsq: json_u128_str(src, "probe_sumsq").ok_or("checkpoint: bad probe_sumsq")?,
                min: json_u64(src, "probe_min").ok_or("checkpoint: missing probe_min")?,
                max: json_u64(src, "probe_max").ok_or("checkpoint: missing probe_max")?,
            },
            confidence,
        };
        Ok(Self {
            fingerprint,
            completed,
            reducer,
        })
    }

    /// Writes the checkpoint atomically: serialize to `<path>.tmp`
    /// (the full file name plus `.tmp`), then rename over `path`, so a
    /// kill mid-write never leaves a truncated checkpoint behind.
    ///
    /// # Errors
    ///
    /// Returns a message when the temporary write or the rename fails.
    pub fn store(&self, path: &Path) -> Result<(), String> {
        let tmp = temp_path(path);
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| format!("checkpoint write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("checkpoint rename {}: {e}", path.display()))
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns a message when the file is unreadable or malformed.
    pub fn load(path: &Path) -> Result<Self, String> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("checkpoint read {}: {e}", path.display()))?;
        Self::from_json(&src).map_err(|e| format!("checkpoint {}: {e}", path.display()))
    }
}

/// The temporary file [`Checkpoint::store`] writes before renaming:
/// `.tmp` appended to the whole file name, so it never equals `path`
/// (`x.tmp` → `x.tmp.tmp`) and checkpoints that differ only in their
/// extension (`a.json`, `a.ckpt`) never share one.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Raw token after `"key":` — the digits of a number, or the contents
/// of a quoted string, or the bracketed body of an array.
fn json_token<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    let quoted = format!("\"{key}\"");
    let at = src.find(&quoted)? + quoted.len();
    let rest = src[at..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    if let Some(body) = rest.strip_prefix('"') {
        return body.split('"').next();
    }
    if let Some(body) = rest.strip_prefix('[') {
        return body.split(']').next();
    }
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

fn json_str(src: &str, key: &str) -> Option<String> {
    json_token(src, key).map(str::to_string)
}

fn json_u64(src: &str, key: &str) -> Option<u64> {
    json_token(src, key)?.parse().ok()
}

fn json_u128_str(src: &str, key: &str) -> Option<u128> {
    json_token(src, key)?.parse().ok()
}

fn json_u64_array<const N: usize>(src: &str, key: &str) -> Option<[u64; N]> {
    let body = json_token(src, key)?;
    let mut out = [0u64; N];
    let mut parts = body.split(',');
    for slot in &mut out {
        *slot = parts.next()?.trim().parse().ok()?;
    }
    parts.next().is_none().then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable_and_mixes() {
        // Pin the derivation: golden fleets depend on these streams.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(victim_seed(0, 0, 0), victim_seed(0, 0, 1));
        assert_ne!(victim_seed(0, 0, 0), victim_seed(0, 1000, 0));
        assert_ne!(victim_seed(0, 0, 0), victim_seed(1, 0, 0));
    }

    #[test]
    fn victim_seed_has_no_collisions_over_a_large_window() {
        let mut seen: Vec<u64> = (0..100_000u64).map(|i| victim_seed(7, 3000, i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 100_000, "seed stream collided");
    }

    #[test]
    fn legacy_shims_reproduce_the_historical_arithmetic() {
        assert_eq!(legacy_trial_seed(5, 3000, 7), 5 + 3000 + 7);
        assert_eq!(machine_seed(0x1234), 0x1234 ^ 0xabcd);
        // Wrapping, like release-mode `+` did.
        assert_eq!(legacy_trial_seed(u64::MAX, 0, 1), 0);
    }

    #[test]
    fn moment_sum_matches_naive_and_merge_is_exact() {
        let xs = [2u64, 4, 4, 4, 5, 5, 7, 9];
        let mut m = MomentSum::new();
        for &x in &xs {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(m.min(), Some(2));
        assert_eq!(m.max(), Some(9));
        // Split anywhere, merge: bit-identical.
        for split in 0..=xs.len() {
            let (a, b) = xs.split_at(split);
            let mut ma = MomentSum::new();
            let mut mb = MomentSum::new();
            a.iter().for_each(|&x| ma.push(x));
            b.iter().for_each(|&x| mb.push(x));
            ma.merge(&mb);
            assert_eq!(ma, m, "split at {split}");
        }
        // Empty edge cases.
        let empty = MomentSum::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.stddev(), 0.0);
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
    }

    #[test]
    fn reducer_display_is_deterministic() {
        let mut r = FleetReducer::new();
        r.push(&TrialOutcome {
            probes: 1100,
            addresses: 512,
            accuracy: Trials {
                successes: 1,
                total: 1,
            },
            ..TrialOutcome::default()
        });
        let line = r.to_string();
        assert!(line.contains("victims=1"), "{line}");
        assert!(line.contains("probes=1100"), "{line}");
        assert_eq!(line, r.to_string());
    }

    #[test]
    fn checkpoint_json_roundtrips() {
        let mut reducer = FleetReducer::new();
        for i in 0..5u64 {
            reducer.push(&TrialOutcome {
                probes: 1000 + i * 37,
                addresses: 512,
                accuracy: Trials {
                    successes: u64::from(i != 3),
                    total: 1,
                },
                confidence: Some(KptiConfidence::Confirmed),
                ..TrialOutcome::default()
            });
        }
        let checkpoint = Checkpoint {
            fingerprint: 0xdead_beef_0bad_f00d,
            completed: vec![true, false, true],
            reducer,
        };
        let json = checkpoint.to_json();
        assert!(json.contains(FLEET_CHECKPOINT_SCHEMA));
        let back = Checkpoint::from_json(&json).expect("roundtrip");
        assert_eq!(back, checkpoint);
    }

    #[test]
    fn checkpoint_rejects_corrupt_input() {
        assert!(Checkpoint::from_json("{}").is_err());
        assert!(Checkpoint::from_json("not json at all").is_err());
        let mut reducer = FleetReducer::new();
        reducer.push(&TrialOutcome::default());
        let good = Checkpoint {
            fingerprint: 1,
            completed: vec![true],
            reducer,
        }
        .to_json();
        // Wrong schema is refused.
        let wrong = good.replace("fleet-checkpoint/v1", "fleet-checkpoint/v9");
        assert!(Checkpoint::from_json(&wrong).is_err());
        // Bitmap length disagreeing with the shard count is refused.
        let wrong = good.replace("\"shards\": 1", "\"shards\": 2");
        assert!(Checkpoint::from_json(&wrong).is_err());
    }

    #[test]
    fn checkpoint_temp_file_appends_to_the_whole_name() {
        // A checkpoint named `x.tmp` must not be its own temp file...
        assert_eq!(
            temp_path(Path::new("run/x.tmp")),
            PathBuf::from("run/x.tmp.tmp")
        );
        // ...and names that differ only in extension must not share one.
        assert_ne!(
            temp_path(Path::new("run/a.json")),
            temp_path(Path::new("run/a.ckpt"))
        );
        assert_eq!(temp_path(Path::new("ck")), PathBuf::from("ck.tmp"));

        let dir = std::env::temp_dir().join(format!("fleet-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let checkpoint = Checkpoint {
            fingerprint: 9,
            completed: vec![true, false],
            reducer: FleetReducer::new(),
        };
        for name in ["x.tmp", "a.json", "a.ckpt"] {
            let path = dir.join(name);
            checkpoint.store(&path).expect("store");
            assert_eq!(Checkpoint::load(&path).expect("load"), checkpoint, "{name}");
            assert!(!temp_path(&path).exists(), "{name}: temp file left behind");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_token_scanner_handles_the_format() {
        let src = "{\"a\": 12, \"b\": \"xyz\", \"c\": [1, 2], \"ab\": 9}";
        assert_eq!(json_u64(src, "a"), Some(12));
        assert_eq!(json_str(src, "b").as_deref(), Some("xyz"));
        assert_eq!(json_u64_array::<2>(src, "c"), Some([1, 2]));
        assert_eq!(json_u64(src, "ab"), Some(9));
        assert_eq!(json_u64(src, "missing"), None);
        assert_eq!(json_u64_array::<3>(src, "c"), None, "arity is checked");
    }
}
