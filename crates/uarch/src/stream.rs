//! A victim's measurement-noise state, split from the translation
//! engine.
//!
//! A probe's measured latency is its deterministic translation cost
//! plus one noise draw. [`NoiseStream`] owns everything the draw
//! depends on — the stationary [`NoiseModel`], the optional drift
//! [`NoiseSchedule`], the probe index that schedule interpolates on,
//! the [`ObservablesVersion`] regime and the RNG — so the two halves
//! can run apart: the [`crate::Machine`] applies its own stream to
//! every op it executes, and a cost-tape replayer applies a victim's
//! stream to costs recorded once on another machine
//! ([`crate::Machine::cost_batch_into`]). Both draw through the same
//! per-sample v1 and v2 paths ([`NoiseStream::measure`],
//! [`NoiseStream::measure_batch_into`]), so they consume the RNG
//! identically.
//!
//! ```
//! use avx_uarch::{CpuProfile, NoiseProfile, NoiseStream, ObservablesVersion};
//!
//! let timing = CpuProfile::alder_lake_i5_12400f().timing;
//! let mut a = NoiseStream::new(&timing, 7);
//! a.set_profile(NoiseProfile::SmtSibling, &timing);
//! a.set_observables(ObservablesVersion::V2);
//! let mut b = a.clone();
//! // One stream, two consumers: scalar and batched draws agree.
//! let scalar: Vec<u64> = [93.0, 107.0, 93.0].iter().map(|&c| a.measure(c)).collect();
//! let mut batched = Vec::new();
//! b.measure_batch_into(&[93.0, 107.0, 93.0], &mut batched);
//! assert_eq!(scalar, batched);
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::machine::NOISE_BLOCK;
use crate::noise::{NoiseModel, NoiseProfile, NoiseSchedule};
use crate::observables::ObservablesVersion;
use crate::profile::TimingParams;

/// Rounds a noisy cycle count to the measured integer, clamping at one
/// cycle — the quantization every regime applies to `cost + noise`.
#[inline]
#[must_use]
pub fn quantize_cycles(cycles: f64) -> u64 {
    cycles.round().max(1.0) as u64
}

/// The noise half of a probe measurement: model, drift trajectory,
/// probe index, observables regime and RNG.
#[derive(Clone, Debug)]
pub struct NoiseStream {
    model: NoiseModel,
    /// Probe-indexed noise trajectory ([`NoiseProfile::Drift`]): when
    /// set, each draw uses [`NoiseSchedule::model_at`] instead of the
    /// stationary model.
    schedule: Option<NoiseSchedule>,
    /// Draws made so far — the index the schedule interpolates on.
    probe_seq: u64,
    observables: ObservablesVersion,
    rng: StdRng,
}

impl NoiseStream {
    /// The stream a freshly built machine starts with: the profile's
    /// baseline noise anchors, no drift, the v1 regime, and an RNG
    /// seeded with `seed`.
    #[must_use]
    pub fn new(timing: &TimingParams, seed: u64) -> Self {
        Self {
            model: NoiseModel::new(timing.noise_sigma, timing.spike_prob, timing.spike_range),
            schedule: None,
            probe_seq: 0,
            observables: ObservablesVersion::V1,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The stationary noise model (for a drifting environment, the
    /// model in effect before the ramp's onset).
    #[must_use]
    pub(crate) fn model(&self) -> NoiseModel {
        self.model
    }

    /// Replaces the noise model and clears any drift schedule: an
    /// explicit model is stationary.
    pub(crate) fn set_model(&mut self, model: NoiseModel) {
        self.model = model;
        self.schedule = None;
    }

    /// The installed noise trajectory, if the environment drifts.
    #[must_use]
    pub(crate) fn schedule(&self) -> Option<NoiseSchedule> {
        self.schedule
    }

    /// Installs (or clears) a probe-indexed noise trajectory.
    pub(crate) fn set_schedule(&mut self, schedule: Option<NoiseSchedule>) {
        self.schedule = schedule;
    }

    /// Switches to a named noise environment resolved against `timing`:
    /// the preset's stationary model plus, for a drift profile, its
    /// trajectory (stationary presets clear it).
    pub fn set_profile(&mut self, profile: NoiseProfile, timing: &TimingParams) {
        self.model = profile.model_for(timing);
        self.schedule = profile.schedule_for(timing);
    }

    /// The active noise-observables regime.
    #[must_use]
    pub(crate) fn observables(&self) -> ObservablesVersion {
        self.observables
    }

    /// Selects the noise-observables regime.
    pub fn set_observables(&mut self, observables: ObservablesVersion) {
        self.observables = observables;
    }

    /// The model for the next draw, advancing the probe index. With no
    /// schedule this is exactly the stationary model.
    #[inline]
    fn next_model(&mut self) -> NoiseModel {
        let model = match &self.schedule {
            Some(s) => s.model_at(self.probe_seq),
            None => self.model,
        };
        self.probe_seq += 1;
        model
    }

    /// Measures one probe of deterministic cost `cost` — the single
    /// v1/v2 dispatch point of a scalar measurement.
    #[inline]
    pub fn measure(&mut self, cost: f64) -> u64 {
        let model = self.next_model();
        match self.observables {
            ObservablesVersion::V1 => model.perturb(&mut self.rng, cost),
            ObservablesVersion::V2 => quantize_cycles(cost + model.sample_v2(&mut self.rng)),
        }
    }

    /// Fills one v2 noise block in per-sample order, advancing the
    /// probe index by the block length. A drifting schedule resolves
    /// its model per probe index, so block boundaries never quantize
    /// the ramp and the samples equal `out.len()` consecutive scalar v2
    /// draws.
    pub(crate) fn fill_block(&mut self, out: &mut [f64]) {
        match self.schedule {
            None => self.model.fill_block(&mut self.rng, out),
            Some(s) => {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = s
                        .model_at(self.probe_seq + i as u64)
                        .sample_v2(&mut self.rng);
                }
            }
        }
        self.probe_seq += out.len() as u64;
    }

    /// Measures a run of probes of deterministic costs `costs`,
    /// appending one reading per cost to `out`. Bit-identical to
    /// calling [`NoiseStream::measure`] once per cost; v2 draws its
    /// noise in [`NOISE_BLOCK`]-sized blocks like the machine's batch
    /// path.
    pub fn measure_batch_into(&mut self, costs: &[f64], out: &mut Vec<u64>) {
        out.reserve(costs.len());
        match self.observables {
            ObservablesVersion::V1 => {
                for &cost in costs {
                    let reading = self.measure(cost);
                    out.push(reading);
                }
            }
            ObservablesVersion::V2 => {
                let mut block = [0.0f64; NOISE_BLOCK];
                for chunk in costs.chunks(NOISE_BLOCK) {
                    let noise = &mut block[..chunk.len()];
                    self.fill_block(noise);
                    out.extend(
                        chunk
                            .iter()
                            .zip(noise.iter())
                            .map(|(&cost, &n)| quantize_cycles(cost + n)),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CpuProfile;

    #[test]
    fn batch_equals_scalar_in_every_regime_and_drift() {
        let timing = CpuProfile::alder_lake_i5_12400f().timing;
        let costs: Vec<f64> = (0..53).map(|i| 90.0 + f64::from(i % 7) * 3.0).collect();
        for profile in [
            NoiseProfile::Quiet,
            NoiseProfile::LaptopDvfs,
            NoiseProfile::drift_with(NoiseProfile::Quiet, NoiseProfile::LaptopDvfs, 5, 30),
        ] {
            for observables in ObservablesVersion::ALL {
                let mut scalar = NoiseStream::new(&timing, 11);
                scalar.set_profile(profile, &timing);
                scalar.set_observables(observables);
                let mut batched = scalar.clone();
                let one: Vec<u64> = costs.iter().map(|&c| scalar.measure(c)).collect();
                let mut many = Vec::new();
                // Uneven batch boundaries: drift and blocks must not care.
                for part in costs.chunks(20) {
                    batched.measure_batch_into(part, &mut many);
                }
                assert_eq!(one, many, "{profile} {observables:?}");
            }
        }
    }

    #[test]
    fn a_noiseless_stream_is_the_quantized_cost() {
        let timing = CpuProfile::alder_lake_i5_12400f().timing;
        let mut s = NoiseStream::new(&timing, 3);
        s.set_model(NoiseModel::none());
        assert_eq!(s.measure(92.6), 93);
        assert_eq!(s.measure(0.2), 1, "clamped at one cycle");
    }
}
