//! Measurement-noise model and the named noise-scenario presets.
//!
//! Real `rdtsc`-based timing of a single instruction carries two noise
//! components: small Gaussian jitter (pipeline state, clock domain
//! crossings) and rare large positive spikes (interrupts, SMIs,
//! frequency transitions). Both matter for reproducing the paper's
//! *accuracy* numbers: without spikes the simulated attacks would be a
//! flat 100 % instead of the reported 99.3–99.8 %.
//!
//! [`NoiseProfile`] promotes the raw [`NoiseModel`] parameters into a
//! small set of *named environments* — quiet host, SMT-contended
//! sibling, frequency-scaling laptop, noisy-neighbor cloud — so that
//! campaigns can treat "how noisy is the machine" as a first-class
//! scenario axis (NetSpectre showed the required probe budget moves by
//! orders of magnitude with exactly this axis).
//!
//! ```
//! use avx_uarch::{CpuProfile, NoiseProfile};
//!
//! let timing = CpuProfile::alder_lake_i5_12400f().timing;
//! let laptop = NoiseProfile::parse("laptop").unwrap();
//! // The preset is a fixed multiplier over the profile's baseline σ...
//! assert_eq!(laptop.effective_sigma(&timing), timing.noise_sigma * 6.0);
//! // ...and induces a concrete generator for the machine to sample.
//! let model = laptop.model_for(&timing);
//! assert_eq!(model.sigma, laptop.effective_sigma(&timing));
//! ```

use core::fmt;

use rand::Rng;

use crate::profile::TimingParams;

/// Gaussian + spike noise generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseModel {
    /// Standard deviation of the Gaussian jitter (cycles).
    pub sigma: f64,
    /// Per-sample probability of an interrupt-style spike.
    pub spike_prob: f64,
    /// Uniform spike magnitude range (cycles).
    pub spike_range: (f64, f64),
}

impl NoiseModel {
    /// Creates a noise model.
    #[must_use]
    pub fn new(sigma: f64, spike_prob: f64, spike_range: (f64, f64)) -> Self {
        Self {
            sigma,
            spike_prob,
            spike_range,
        }
    }

    /// A noiseless model, for deterministic tests.
    #[must_use]
    pub fn none() -> Self {
        Self {
            sigma: 0.0,
            spike_prob: 0.0,
            spike_range: (0.0, 0.0),
        }
    }

    /// Draws one noise sample (may be negative; spikes are positive).
    ///
    /// This is the **v1 observables** path: the exact historical draw
    /// sequence (Box–Muller Gaussian, then an `f64` spike-decision
    /// uniform, then the spike magnitude), pinned bit-for-bit by the
    /// golden suites. The v2 path ([`NoiseModel::sample_v2`]) produces
    /// the same distribution from a different, cheaper stream.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut noise = if self.sigma > 0.0 {
            gaussian(rng) * self.sigma
        } else {
            0.0
        };
        if self.spike_prob > 0.0 && rng.gen::<f64>() < self.spike_prob {
            noise += self.spike_magnitude(rng);
        }
        noise
    }

    /// Applies noise to a deterministic cycle cost, clamping at 1 cycle.
    pub fn perturb<R: Rng + ?Sized>(&self, rng: &mut R, cycles: f64) -> u64 {
        crate::stream::quantize_cycles(cycles + self.sample(rng))
    }

    /// Draws the magnitude of one spike — the single source of truth
    /// shared by the v1 per-sample path and the v2 block path (only the
    /// spike *decision* differs between regimes; the magnitude draw is
    /// identical, which `noise_props.rs` pins by property test).
    fn spike_magnitude<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (lo, hi) = self.spike_range;
        if hi > lo {
            rng.gen_range(lo..hi)
        } else {
            lo
        }
    }

    /// The v2 spike-decision threshold: `spike_prob` mapped onto the
    /// full `u64` range so the per-sample decision is one integer
    /// compare against a raw RNG word instead of an `f64` conversion.
    /// Kept in `u128` so `spike_prob >= 1.0` saturates to *always*
    /// rather than losing the top probability ulp.
    fn spike_threshold(&self) -> u128 {
        if self.spike_prob <= 0.0 {
            0
        } else {
            (self.spike_prob * 18_446_744_073_709_551_616.0) as u128
        }
    }

    /// Draws one noise sample under the **v2 observables** regime: a
    /// ziggurat Gaussian (single RNG word in the common case) and a
    /// fixed-point spike decision. Distribution-equivalent to
    /// [`NoiseModel::sample`]; bit-identical only to itself.
    pub fn sample_v2<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_v2_with(crate::ziggurat::tables(), self.spike_threshold(), rng)
    }

    /// The shared v2 draw: `tables` and `threshold` are hoisted by the
    /// block path so the per-sample work is the draw alone.
    #[inline]
    fn sample_v2_with<R: Rng + ?Sized>(
        &self,
        tables: &crate::ziggurat::Tables,
        threshold: u128,
        rng: &mut R,
    ) -> f64 {
        let mut noise = if self.sigma > 0.0 {
            tables.sample(rng) * self.sigma
        } else {
            0.0
        };
        if threshold != 0 && u128::from(rng.next_u64()) < threshold {
            noise += self.spike_magnitude(rng);
        }
        noise
    }

    /// Fills `out` with consecutive v2 noise samples — the per-tile
    /// noise block of the batched probe path. The samples are drawn in
    /// order, so the RNG stream is identical to `out.len()` scalar
    /// [`NoiseModel::sample_v2`] calls (the scalar/batch bit-equality
    /// the engine property tests assert); the ziggurat tables and the
    /// spike threshold are resolved once per block.
    pub fn fill_block<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        let tables = crate::ziggurat::tables();
        let threshold = self.spike_threshold();
        for slot in out.iter_mut() {
            *slot = self.sample_v2_with(tables, threshold, rng);
        }
    }
}

/// One standard-normal sample via the Box–Muller transform — the v1
/// observables Gaussian.
///
/// `rand` is in the dependency set, `rand_distr` deliberately is not; a
/// two-line Box–Muller keeps the footprint minimal.
///
/// Interval conventions, pinned here because the v1 golden suites
/// depend on the exact draw sequence:
///
/// * `u1` is drawn from the **open-at-zero** interval
///   `[f64::MIN_POSITIVE, 1.0)` — `ln(0)` must never be reached, so the
///   radius term is always finite.
/// * `u2` is drawn from the standard **half-open** `[0, 1)` uniform.
///   `cos(TAU·u2)` is total and periodic, so the closed-at-zero
///   endpoint is harmless (`u2 = 0` gives `cos(0) = 1`, a valid angle);
///   widening it to an open interval would change the bit-exact v1
///   stream for no numerical benefit, which the v1 bit-exactness pin in
///   `noise_props.rs` forbids. The v2 regime does not use this
///   function at all (see [`crate::ziggurat`]).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// A named noise environment: fixed multipliers applied on top of a CPU
/// profile's baseline [`TimingParams`] noise anchors.
///
/// The four *static* presets are *pinned distributions*, not free-form
/// config blobs: each maps a profile's `(noise_sigma, spike_prob,
/// spike_range)` to a concrete [`NoiseModel`] through constant factors,
/// and the unit tests assert the resulting moments, so a preset cannot
/// silently drift.
///
/// | preset | σ factor | spike-rate factor | spike-magnitude factor |
/// |---|---|---|---|
/// | [`NoiseProfile::Quiet`] | 1 | 1 | 1 |
/// | [`NoiseProfile::SmtSibling`] | 3 | 6 | 0.5 |
/// | [`NoiseProfile::LaptopDvfs`] | 6 | 3 | 2 |
/// | [`NoiseProfile::NoisyNeighbor`] | 4 | 12 | 1.5 |
///
/// [`NoiseProfile::Drift`] is the non-stationary exception: the
/// environment *ramps* from one static preset to another mid-scan
/// (probe-indexed, see [`DriftRamp`]) — the DVFS-transition /
/// co-tenant-arrival scenario in which a one-shot calibration silently
/// goes stale.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum NoiseProfile {
    /// A quiescent host — the paper's measurement setup. Baseline
    /// profile noise, unscaled.
    #[default]
    Quiet,
    /// An SMT sibling hammering the shared core: persistent extra
    /// pipeline jitter and frequent small preemption spikes.
    SmtSibling,
    /// A frequency-scaling laptop: DVFS transitions smear the cycle
    /// scale (wide Gaussian) and add long transition stalls.
    LaptopDvfs,
    /// A noisy-neighbor cloud tenant: scheduler steal time makes
    /// interrupt-style spikes an order of magnitude more frequent.
    NoisyNeighbor,
    /// A mid-scan environment ramp between two static presets (e.g.
    /// quiet → laptop when DVFS kicks in). Built via
    /// [`NoiseProfile::drift`]; the victim machine interpolates the two
    /// induced models over the ramp's probe-index span.
    Drift(DriftRamp),
}

/// Probe index at which the default [`NoiseProfile::drift`] ramp starts
/// leaving its `from` preset. 256 probes sits safely after the §IV-B
/// calibration series (17 probes) but early enough that the bulk of a
/// 512-slot sweep runs in the drifted environment.
pub const DRIFT_DEFAULT_ONSET: u64 = 256;

/// Probe index at which the default [`NoiseProfile::drift`] ramp has
/// fully reached its `to` preset.
pub const DRIFT_DEFAULT_FULL: u64 = 512;

/// The probe-indexed ramp of a [`NoiseProfile::Drift`] environment.
///
/// Endpoints are two *static* presets; the ramp linearly interpolates
/// their induced [`NoiseModel`]s between the `onset`-th and `full`-th
/// probe the victim machine executes (`onset == full` is a step).
/// Probe-indexed rather than wall-clock so campaign trials stay
/// deterministic and independent of the sampling policy's runtime.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DriftRamp {
    /// Index of the starting preset in [`NoiseProfile::ALL`].
    from: u8,
    /// Index of the target preset in [`NoiseProfile::ALL`].
    to: u8,
    /// Probe index where the environment starts leaving `from`.
    onset: u64,
    /// Probe index from which `to` fully applies.
    full: u64,
}

impl DriftRamp {
    /// The static preset the environment starts in.
    #[must_use]
    pub fn from_profile(self) -> NoiseProfile {
        NoiseProfile::ALL[self.from as usize]
    }

    /// The static preset the environment ramps to.
    #[must_use]
    pub fn to_profile(self) -> NoiseProfile {
        NoiseProfile::ALL[self.to as usize]
    }

    /// Probe index where the ramp starts.
    #[must_use]
    pub fn onset(self) -> u64 {
        self.onset
    }

    /// Probe index from which the target preset fully applies.
    #[must_use]
    pub fn full(self) -> u64 {
        self.full
    }
}

/// A probe-indexed noise trajectory: the concrete per-machine form of a
/// [`DriftRamp`] (endpoint presets already resolved against one CPU's
/// timing anchors).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseSchedule {
    /// Model in effect before `onset`.
    pub from: NoiseModel,
    /// Model in effect from `full` on.
    pub to: NoiseModel,
    /// Probe index where interpolation starts.
    pub onset: u64,
    /// Probe index where `to` fully applies.
    pub full: u64,
}

impl NoiseSchedule {
    /// The noise model in effect for the `probe_index`-th probe:
    /// `from` before `onset`, `to` from `full` on, linear interpolation
    /// of σ, spike rate and spike magnitudes in between.
    #[must_use]
    pub fn model_at(&self, probe_index: u64) -> NoiseModel {
        if probe_index < self.onset {
            return self.from;
        }
        if probe_index >= self.full {
            return self.to;
        }
        let t = (probe_index - self.onset) as f64 / (self.full - self.onset) as f64;
        let lerp = |a: f64, b: f64| a + (b - a) * t;
        NoiseModel::new(
            lerp(self.from.sigma, self.to.sigma),
            lerp(self.from.spike_prob, self.to.spike_prob),
            (
                lerp(self.from.spike_range.0, self.to.spike_range.0),
                lerp(self.from.spike_range.1, self.to.spike_range.1),
            ),
        )
    }
}

impl NoiseProfile {
    /// The four static presets, quietest first. [`NoiseProfile::Drift`]
    /// is deliberately absent: it is a scenario *modifier* built from
    /// two of these, not a fifth stationary environment — grid code
    /// iterating `ALL` keeps its historical row counts.
    pub const ALL: [NoiseProfile; 4] = [
        NoiseProfile::Quiet,
        NoiseProfile::SmtSibling,
        NoiseProfile::LaptopDvfs,
        NoiseProfile::NoisyNeighbor,
    ];

    /// A drifting environment ramping from one static preset to another
    /// over the default probe-index span
    /// ([`DRIFT_DEFAULT_ONSET`]..[`DRIFT_DEFAULT_FULL`]).
    ///
    /// ```
    /// use avx_uarch::{CpuProfile, NoiseProfile};
    ///
    /// let timing = CpuProfile::alder_lake_i5_12400f().timing;
    /// let drift = NoiseProfile::drift(NoiseProfile::Quiet, NoiseProfile::LaptopDvfs);
    /// // One-shot calibration (the first ~17 probes) sees the quiet σ...
    /// assert_eq!(drift.effective_sigma(&timing), timing.noise_sigma);
    /// // ...but the machine's schedule ends on the laptop model.
    /// let schedule = drift.schedule_for(&timing).unwrap();
    /// assert_eq!(schedule.model_at(0), NoiseProfile::Quiet.model_for(&timing));
    /// assert_eq!(
    ///     schedule.model_at(u64::MAX),
    ///     NoiseProfile::LaptopDvfs.model_for(&timing),
    /// );
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is itself a drift (ramps do not nest).
    #[must_use]
    pub fn drift(from: NoiseProfile, to: NoiseProfile) -> Self {
        Self::drift_with(from, to, DRIFT_DEFAULT_ONSET, DRIFT_DEFAULT_FULL)
    }

    /// [`NoiseProfile::drift`] with an explicit probe-index ramp;
    /// `onset == full` models an abrupt step (e.g. a co-tenant landing
    /// on the core).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is a drift or `full < onset`.
    #[must_use]
    pub fn drift_with(from: NoiseProfile, to: NoiseProfile, onset: u64, full: u64) -> Self {
        let index = |p: NoiseProfile| {
            Self::ALL
                .iter()
                .position(|&s| s == p)
                .expect("drift endpoints must be static presets") as u8
        };
        assert!(full >= onset, "ramp must not end before it starts");
        NoiseProfile::Drift(DriftRamp {
            from: index(from),
            to: index(to),
            onset,
            full,
        })
    }

    /// The pinned drifting-noise scenario of the campaign matrix: a
    /// quiet host whose environment ramps to the laptop-DVFS preset
    /// mid-scan (what `repro --noise drift` selects).
    #[must_use]
    pub fn drift_quiet_to_laptop() -> Self {
        Self::drift(NoiseProfile::Quiet, NoiseProfile::LaptopDvfs)
    }

    /// `(sigma, spike_prob, spike_magnitude)` multipliers of the preset.
    /// For [`NoiseProfile::Drift`] these are the *starting* preset's
    /// factors — what the environment looks like while the attacker
    /// calibrates.
    #[must_use]
    pub const fn factors(self) -> (f64, f64, f64) {
        match self {
            NoiseProfile::Quiet => (1.0, 1.0, 1.0),
            NoiseProfile::SmtSibling => (3.0, 6.0, 0.5),
            NoiseProfile::LaptopDvfs => (6.0, 3.0, 2.0),
            NoiseProfile::NoisyNeighbor => (4.0, 12.0, 1.5),
            // One level of recursion at most: ALL holds only static
            // presets (DriftRamp endpoints are constructed from it),
            // so the table above is the single source of the factors.
            NoiseProfile::Drift(ramp) => Self::ALL[ramp.from as usize].factors(),
        }
    }

    /// Stable identifier (also what [`NoiseProfile::parse`] accepts).
    /// All drift ramps report `"drift"`; the endpoints show up in
    /// [`fmt::Display`].
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            NoiseProfile::Quiet => "quiet",
            NoiseProfile::SmtSibling => "smt",
            NoiseProfile::LaptopDvfs => "laptop",
            NoiseProfile::NoisyNeighbor => "cloud",
            NoiseProfile::Drift(_) => "drift",
        }
    }

    /// Parses a preset name (`quiet`, `smt`, `laptop`, `cloud`, plus
    /// the long aliases `smt-sibling`, `dvfs`, `noisy-neighbor`, and
    /// `drift` for the pinned quiet→laptop ramp).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "quiet" => Some(NoiseProfile::Quiet),
            "smt" | "smt-sibling" => Some(NoiseProfile::SmtSibling),
            "laptop" | "dvfs" => Some(NoiseProfile::LaptopDvfs),
            "cloud" | "noisy-neighbor" => Some(NoiseProfile::NoisyNeighbor),
            "drift" | "quiet-laptop" => Some(NoiseProfile::drift_quiet_to_laptop()),
            _ => None,
        }
    }

    /// The concrete noise model this preset induces on a CPU whose
    /// baseline anchors are `timing`. Spike probability is capped at
    /// 0.5 — past that the "spike" is the common case and the model
    /// stops being a spike model. For [`NoiseProfile::Drift`] this is
    /// the *starting* model; [`NoiseProfile::schedule_for`] carries the
    /// trajectory.
    #[must_use]
    pub fn model_for(self, timing: &TimingParams) -> NoiseModel {
        if let NoiseProfile::Drift(ramp) = self {
            return ramp.from_profile().model_for(timing);
        }
        let (sigma_f, spike_f, magnitude_f) = self.factors();
        let (lo, hi) = timing.spike_range;
        NoiseModel::new(
            timing.noise_sigma * sigma_f,
            (timing.spike_prob * spike_f).min(0.5),
            (lo * magnitude_f, hi * magnitude_f),
        )
    }

    /// The probe-indexed noise trajectory this profile induces: `None`
    /// for the stationary presets, the resolved ramp for
    /// [`NoiseProfile::Drift`].
    #[must_use]
    pub fn schedule_for(self, timing: &TimingParams) -> Option<NoiseSchedule> {
        match self {
            NoiseProfile::Drift(ramp) => Some(NoiseSchedule {
                from: ramp.from_profile().model_for(timing),
                to: ramp.to_profile().model_for(timing),
                onset: ramp.onset,
                full: ramp.full,
            }),
            _ => None,
        }
    }

    /// Effective Gaussian σ of this preset on `timing` — what the
    /// adaptive sampler's likelihood model should assume. For
    /// [`NoiseProfile::Drift`] this is the *starting* σ: exactly what a
    /// one-shot calibration phase observes (and why it goes stale — the
    /// closed-loop recalibration engine in `avx-channel` exists to
    /// re-estimate it mid-scan).
    #[must_use]
    pub fn effective_sigma(self, timing: &TimingParams) -> f64 {
        timing.noise_sigma * self.factors().0
    }
}

impl fmt::Display for NoiseProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseProfile::Drift(ramp) => f.pad(&format!(
                "drift({}→{})",
                ramp.from_profile().name(),
                ramp.to_profile().name()
            )),
            _ => f.pad(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = NoiseModel::none();
        for _ in 0..100 {
            assert_eq!(m.perturb(&mut rng, 93.0), 93);
        }
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = NoiseModel::new(2.0, 0.0, (0.0, 0.0));
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| m.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd {}", var.sqrt());
    }

    #[test]
    fn spikes_appear_at_expected_rate_and_are_positive() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = NoiseModel::new(0.0, 0.05, (500.0, 1000.0));
        let n = 40_000;
        let spikes = (0..n)
            .map(|_| m.sample(&mut rng))
            .filter(|&x| x > 0.0)
            .count();
        let rate = spikes as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn spike_magnitude_in_range() {
        let mut rng = StdRng::seed_from_u64(13);
        let m = NoiseModel::new(0.0, 1.0, (500.0, 1000.0));
        for _ in 0..1000 {
            let s = m.sample(&mut rng);
            assert!((500.0..1000.0).contains(&s), "spike {s}");
        }
    }

    #[test]
    fn perturb_never_returns_zero() {
        let mut rng = StdRng::seed_from_u64(17);
        let m = NoiseModel::new(50.0, 0.0, (0.0, 0.0));
        for _ in 0..1000 {
            assert!(m.perturb(&mut rng, 1.0) >= 1);
        }
    }

    #[test]
    fn degenerate_spike_range_uses_lower_bound() {
        let mut rng = StdRng::seed_from_u64(19);
        let m = NoiseModel::new(0.0, 1.0, (250.0, 250.0));
        assert_eq!(m.sample(&mut rng), 250.0);
    }

    #[test]
    fn v2_moments_match_v1_distribution() {
        let mut rng = StdRng::seed_from_u64(23);
        let m = NoiseModel::new(2.0, 0.0, (0.0, 0.0));
        let n = 30_000;
        let samples: Vec<f64> = (0..n).map(|_| m.sample_v2(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd {}", var.sqrt());
    }

    #[test]
    fn v2_spike_rate_matches_the_probability() {
        let mut rng = StdRng::seed_from_u64(29);
        let m = NoiseModel::new(0.0, 0.05, (500.0, 1000.0));
        let n = 40_000;
        let spikes = (0..n)
            .map(|_| m.sample_v2(&mut rng))
            .filter(|&x| x > 0.0)
            .count();
        let rate = spikes as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn v2_certain_spike_always_fires() {
        // spike_prob = 1.0 saturates the u128 threshold to "always":
        // the fixed-point compare must not lose the top probability ulp.
        let mut rng = StdRng::seed_from_u64(31);
        let m = NoiseModel::new(0.0, 1.0, (500.0, 1000.0));
        for _ in 0..1000 {
            let s = m.sample_v2(&mut rng);
            assert!((500.0..1000.0).contains(&s), "spike {s}");
        }
    }

    #[test]
    fn fill_block_is_the_scalar_v2_stream() {
        // The block path must consume the RNG exactly like consecutive
        // scalar sample_v2 calls — that equality is what makes the v2
        // batched machine bit-identical to the v2 scalar machine.
        let m = NoiseModel::new(1.3, 0.05, (200.0, 900.0));
        let mut block_rng = StdRng::seed_from_u64(37);
        let mut scalar_rng = StdRng::seed_from_u64(37);
        let mut block = [0.0; 16];
        for _ in 0..64 {
            m.fill_block(&mut block_rng, &mut block);
            for &b in &block {
                assert_eq!(b, m.sample_v2(&mut scalar_rng));
            }
        }
    }

    #[test]
    fn v2_none_model_draws_nothing() {
        // A noiseless model must not consume RNG words in either regime.
        use rand::RngCore;
        let m = NoiseModel::none();
        let mut rng = StdRng::seed_from_u64(41);
        let mut reference = StdRng::seed_from_u64(41);
        assert_eq!(m.sample_v2(&mut rng), 0.0);
        let mut block = [1.0; 8];
        m.fill_block(&mut rng, &mut block);
        assert_eq!(block, [0.0; 8]);
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    /// Baseline anchors the preset moment tests scale from.
    fn reference_timing() -> TimingParams {
        TimingParams {
            base_load: 13.0,
            base_store: 12.0,
            assist_load: 80.0,
            assist_store: 64.0,
            stlb_hit_extra: 6.0,
            walk_step_warm: 7.0,
            walk_step_cold: 65.0,
            level_extra_pt: 18.0,
            level_extra_pd: 0.0,
            level_extra_pdpt: 12.0,
            level_extra_pml4: 24.0,
            nonpresent_retries: 2,
            user_nonpresent_load_extra: 3.0,
            fault_cost: 1500.0,
            noise_sigma: 1.0,
            spike_prob: 0.002,
            spike_range: (200.0, 1500.0),
        }
    }

    #[test]
    fn profile_factors_are_pinned() {
        // The presets are distributions, not tunables: changing a factor
        // must be a deliberate, test-visible act.
        assert_eq!(NoiseProfile::Quiet.factors(), (1.0, 1.0, 1.0));
        assert_eq!(NoiseProfile::SmtSibling.factors(), (3.0, 6.0, 0.5));
        assert_eq!(NoiseProfile::LaptopDvfs.factors(), (6.0, 3.0, 2.0));
        assert_eq!(NoiseProfile::NoisyNeighbor.factors(), (4.0, 12.0, 1.5));
    }

    #[test]
    fn quiet_profile_is_the_baseline_model() {
        let t = reference_timing();
        let m = NoiseProfile::Quiet.model_for(&t);
        assert_eq!(
            m,
            NoiseModel::new(t.noise_sigma, t.spike_prob, t.spike_range)
        );
        assert_eq!(NoiseProfile::Quiet.effective_sigma(&t), 1.0);
    }

    #[test]
    fn preset_moments_match_their_factors() {
        // Fixed-seed empirical moment check per preset: the Gaussian σ
        // and the spike rate of the induced model must land on the
        // factor-scaled baseline within sampling tolerance.
        let t = reference_timing();
        for (i, profile) in NoiseProfile::ALL.into_iter().enumerate() {
            let (sigma_f, spike_f, magnitude_f) = profile.factors();
            let m = profile.model_for(&t);

            // σ, isolated from spikes.
            let jitter = NoiseModel::new(m.sigma, 0.0, (0.0, 0.0));
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            let n = 30_000;
            let samples: Vec<f64> = (0..n).map(|_| jitter.sample(&mut rng)).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
            let expect_sigma = t.noise_sigma * sigma_f;
            assert!(mean.abs() < 0.15, "{profile}: jitter mean {mean}");
            assert!(
                (var.sqrt() - expect_sigma).abs() < 0.15 * expect_sigma.max(1.0),
                "{profile}: σ {} vs expected {expect_sigma}",
                var.sqrt()
            );

            // Spike rate, isolated from jitter.
            let spikes_only = NoiseModel::new(0.0, m.spike_prob, m.spike_range);
            let mut rng = StdRng::seed_from_u64(200 + i as u64);
            let n = 200_000;
            let spikes = (0..n)
                .map(|_| spikes_only.sample(&mut rng))
                .filter(|&x| x > 0.0)
                .count();
            let rate = spikes as f64 / n as f64;
            let expect_rate = (t.spike_prob * spike_f).min(0.5);
            assert!(
                (rate - expect_rate).abs() < 0.35 * expect_rate,
                "{profile}: spike rate {rate} vs expected {expect_rate}"
            );

            // Spike magnitude window scales with the preset.
            assert_eq!(m.spike_range.0, t.spike_range.0 * magnitude_f, "{profile}");
            assert_eq!(m.spike_range.1, t.spike_range.1 * magnitude_f, "{profile}");
        }
    }

    #[test]
    fn spike_probability_is_capped() {
        let mut t = reference_timing();
        t.spike_prob = 0.2;
        let m = NoiseProfile::NoisyNeighbor.model_for(&t); // 0.2 × 12 = 2.4
        assert_eq!(m.spike_prob, 0.5);
    }

    #[test]
    fn names_round_trip_through_parse() {
        for profile in NoiseProfile::ALL {
            assert_eq!(NoiseProfile::parse(profile.name()), Some(profile));
            assert_eq!(profile.to_string(), profile.name());
        }
        assert_eq!(
            NoiseProfile::parse("SMT-Sibling"),
            Some(NoiseProfile::SmtSibling)
        );
        assert_eq!(NoiseProfile::parse("dvfs"), Some(NoiseProfile::LaptopDvfs));
        assert_eq!(
            NoiseProfile::parse("noisy-neighbor"),
            Some(NoiseProfile::NoisyNeighbor)
        );
        assert_eq!(NoiseProfile::parse("bogus"), None);
        assert_eq!(NoiseProfile::default(), NoiseProfile::Quiet);
    }

    #[test]
    fn drift_ramp_interpolates_between_its_endpoints() {
        let t = reference_timing();
        let drift =
            NoiseProfile::drift_with(NoiseProfile::Quiet, NoiseProfile::LaptopDvfs, 100, 300);
        let schedule = drift.schedule_for(&t).expect("drift has a schedule");
        let quiet = NoiseProfile::Quiet.model_for(&t);
        let laptop = NoiseProfile::LaptopDvfs.model_for(&t);
        assert_eq!(schedule.model_at(0), quiet);
        assert_eq!(schedule.model_at(99), quiet);
        assert_eq!(schedule.model_at(300), laptop);
        assert_eq!(schedule.model_at(u64::MAX), laptop);
        // Halfway through the ramp the σ sits halfway between.
        let mid = schedule.model_at(200);
        assert!((mid.sigma - (quiet.sigma + laptop.sigma) / 2.0).abs() < 1e-12);
        assert!(mid.spike_prob > quiet.spike_prob && mid.spike_prob < laptop.spike_prob);
        // The profile's one-shot view is the starting preset.
        assert_eq!(drift.model_for(&t), quiet);
        assert_eq!(drift.effective_sigma(&t), quiet.sigma);
        assert_eq!(drift.name(), "drift");
        assert_eq!(drift.to_string(), "drift(quiet→laptop)");
    }

    #[test]
    fn drift_step_switches_at_the_onset() {
        let t = reference_timing();
        let step = NoiseProfile::drift_with(NoiseProfile::Quiet, NoiseProfile::LaptopDvfs, 50, 50);
        let schedule = step.schedule_for(&t).unwrap();
        assert_eq!(schedule.model_at(49), NoiseProfile::Quiet.model_for(&t));
        assert_eq!(
            schedule.model_at(50),
            NoiseProfile::LaptopDvfs.model_for(&t)
        );
    }

    #[test]
    fn drift_parses_and_static_presets_have_no_schedule() {
        let t = reference_timing();
        assert_eq!(
            NoiseProfile::parse("drift"),
            Some(NoiseProfile::drift_quiet_to_laptop())
        );
        let drift = NoiseProfile::drift_quiet_to_laptop();
        let NoiseProfile::Drift(ramp) = drift else {
            panic!("drift constructor must build the Drift variant");
        };
        assert_eq!(ramp.from_profile(), NoiseProfile::Quiet);
        assert_eq!(ramp.to_profile(), NoiseProfile::LaptopDvfs);
        assert_eq!(ramp.onset(), DRIFT_DEFAULT_ONSET);
        assert_eq!(ramp.full(), DRIFT_DEFAULT_FULL);
        for profile in NoiseProfile::ALL {
            assert_eq!(profile.schedule_for(&t), None, "{profile}");
        }
    }

    #[test]
    #[should_panic(expected = "static presets")]
    fn nested_drift_endpoints_are_rejected() {
        let inner = NoiseProfile::drift_quiet_to_laptop();
        let _ = NoiseProfile::drift(inner, NoiseProfile::Quiet);
    }

    #[test]
    fn presets_order_by_effective_sigma_above_quiet() {
        let t = reference_timing();
        let quiet = NoiseProfile::Quiet.effective_sigma(&t);
        for profile in [
            NoiseProfile::SmtSibling,
            NoiseProfile::LaptopDvfs,
            NoiseProfile::NoisyNeighbor,
        ] {
            assert!(
                profile.effective_sigma(&t) > quiet,
                "{profile} must be noisier than quiet"
            );
        }
    }
}
