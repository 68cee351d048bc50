//! Cloud KASLR breaks (§IV-H): one driver per provider preset.
//!
//! Composes the Linux/Windows attacks against the EC2/GCE/Azure guest
//! models and scores the result against ground truth, reproducing the
//! §IV-H narrative: EC2 via the KPTI trampoline (offset `0xe00000`),
//! GCE via the direct mapped/unmapped scan plus module identification,
//! Azure via the 18-bit Windows region scan.

use core::fmt;

use avx_mmu::VirtAddr;
use avx_os::cloud::{CloudProvider, CloudScenario, GuestOs};
use avx_os::linux::{LinuxSystem, KERNEL_SLOTS, MODULE_SLOTS};
use avx_os::windows::WindowsSystem;

use crate::calibrate::Threshold;
use crate::defense::DefenseRegion;
use crate::prober::{Prober, SimProber};

use super::campaign::CampaignConfig;
use super::kaslr::KernelBaseFinder;
use super::kpti::KptiAttack;
use super::modules::ModuleScanner;
use super::windows::WindowsKaslrAttack;

/// Outcome of attacking one cloud guest.
#[derive(Clone, Debug)]
pub struct CloudBreakReport {
    /// Which provider.
    pub provider: CloudProvider,
    /// Recovered kernel base.
    pub base: Option<VirtAddr>,
    /// `true` when the base matches ground truth.
    pub base_correct: bool,
    /// Wall-clock seconds spent recovering the base (total accounting).
    pub base_seconds: f64,
    /// Seconds spent inside the timed masked ops across the whole
    /// attack chain ("Probing" in the Table I sense).
    pub probing_seconds: f64,
    /// Detected kernel modules, when the guest exposes them.
    pub modules_detected: Option<usize>,
    /// Seconds spent on the module scan.
    pub modules_seconds: Option<f64>,
    /// Raw probes issued across the whole chain (calibration included).
    pub probes: u64,
    /// Candidate addresses the chain's sweeps covered.
    pub addresses: u64,
    /// Human-readable method description.
    pub method: &'static str,
}

impl fmt::Display for CloudBreakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: base {} ({}) in {:.3} ms via {}",
            self.provider,
            self.base
                .map_or("not found".to_string(), |b| format!("{b}")),
            if self.base_correct {
                "correct"
            } else {
                "WRONG"
            },
            self.base_seconds * 1e3,
            self.method
        )?;
        if let (Some(n), Some(s)) = (self.modules_detected, self.modules_seconds) {
            write!(f, "; {n} modules in {:.3} ms", s * 1e3)?;
        }
        Ok(())
    }
}

/// Runs the full attack chain against one provider preset under the
/// campaign knobs of `config`: noise, sampling, calibrator,
/// recalibration, confirmation, observables, defense and schedule
/// (`trials` and `seed0` are not read; the campaign's cloud leg calls
/// this once per guest). [`CampaignConfig::default`] is the paper's
/// quiet host with the fixed probe schedule.
///
/// Each guest installs the defense over its own kernel's randomization
/// regions — the Linux guests defend kernel text plus the module area,
/// the Windows guest its 18-bit region — and then the victim schedule,
/// before the chain's first probe, so the virtual wall clock covers
/// calibration and every sweep. With `recal` set every sweep of the
/// chain (KPTI trampoline, GCE base + modules, Azure region scan) runs
/// under [`crate::recal::Recalibrating`]; with `confirm` set every
/// needle-in-haystack scan re-tests its candidates through
/// [`crate::decision`] before committing to an answer.
#[must_use]
pub fn run_scenario(
    scenario: &CloudScenario,
    machine_seed: u64,
    config: &CampaignConfig,
) -> CloudBreakReport {
    let CampaignConfig {
        noise,
        sampling,
        calibrator,
        recal,
        confirm,
        observables,
        defense,
        schedule,
        ..
    } = *config;
    let sigma = noise.effective_sigma(&scenario.cpu.timing);
    match &scenario.guest {
        GuestOs::Linux(cfg) => {
            let sys = LinuxSystem::build(cfg.clone());
            let (mut machine, truth) = sys.into_machine(scenario.cpu.clone(), machine_seed);
            machine.set_noise_profile(noise);
            machine.set_observables(observables);
            defense.install(
                &mut machine,
                &[
                    DefenseRegion::linux_kernel_text(),
                    DefenseRegion::linux_modules(),
                ],
                machine_seed,
            );
            schedule.install(&mut machine, noise, machine_seed);
            let mut p = SimProber::new(machine);
            let fit = Threshold::calibrate_with(&mut p, truth.user.calibration, 16, calibrator);
            let th = fit.threshold;
            let sampler = sampling.sampler_for_calibration(calibrator, &fit, sigma);

            if cfg.kpti {
                let mut attack = KptiAttack::new(th, cfg.trampoline_offset);
                if let Some(sampler) = sampler {
                    attack = attack.with_adaptive(sampler);
                }
                if let Some(strategy) = sampling.strategy_override() {
                    attack = attack.with_strategy(strategy);
                }
                if let Some(recal) = recal {
                    attack = attack.with_recalibration(recal);
                }
                if let Some(confirm) = confirm {
                    attack = attack.with_confirmation(confirm);
                }
                let scan = attack.scan(&mut p);
                let seconds = scan.total_cycles as f64 / (p.clock_ghz() * 1e9);
                CloudBreakReport {
                    provider: scenario.provider,
                    base: scan.base,
                    base_correct: scan.base == Some(truth.kernel_base),
                    base_seconds: seconds,
                    probing_seconds: scan.probing_cycles as f64 / (p.clock_ghz() * 1e9),
                    // KPTI unmaps the module area from the user page
                    // table; our model therefore reports no modules here
                    // (see EXPERIMENTS.md for the deviation note).
                    modules_detected: None,
                    modules_seconds: None,
                    probes: p.probes_issued(),
                    addresses: KERNEL_SLOTS,
                    method: "KPTI trampoline",
                }
            } else {
                let mut base_finder = KernelBaseFinder::new(th);
                let mut module_scanner = ModuleScanner::new(th);
                if let Some(sampler) = sampler {
                    base_finder = base_finder.with_adaptive(sampler);
                    module_scanner = module_scanner.with_adaptive(sampler);
                }
                if let Some(strategy) = sampling.strategy_override() {
                    base_finder = base_finder.with_strategy(strategy);
                    module_scanner = module_scanner.with_strategy(strategy);
                }
                if let Some(recal) = recal {
                    base_finder = base_finder.with_recalibration(recal);
                    module_scanner = module_scanner.with_recalibration(recal);
                }
                if let Some(confirm) = confirm {
                    base_finder = base_finder.with_confirmation(confirm);
                    module_scanner = module_scanner.with_confirmation(confirm);
                }
                let scan = base_finder.scan(&mut p);
                let base_seconds = scan.total_cycles as f64 / (p.clock_ghz() * 1e9);
                let module_scan = module_scanner.scan(&mut p);
                let modules_seconds = module_scan.total_cycles as f64 / (p.clock_ghz() * 1e9);
                CloudBreakReport {
                    provider: scenario.provider,
                    base: scan.base,
                    base_correct: scan.base == Some(truth.kernel_base),
                    base_seconds,
                    probing_seconds: (scan.probing_cycles + module_scan.probing_cycles) as f64
                        / (p.clock_ghz() * 1e9),
                    modules_detected: Some(module_scan.detected.len()),
                    modules_seconds: Some(modules_seconds),
                    probes: p.probes_issued(),
                    addresses: KERNEL_SLOTS + MODULE_SLOTS,
                    method: "mapped/unmapped scan",
                }
            }
        }
        GuestOs::Windows(cfg) => {
            let sys = WindowsSystem::build(cfg.clone());
            let (mut machine, truth) = sys.into_machine(scenario.cpu.clone(), machine_seed);
            machine.set_noise_profile(noise);
            machine.set_observables(observables);
            defense.install(
                &mut machine,
                &[DefenseRegion::windows_kernel()],
                machine_seed,
            );
            schedule.install(&mut machine, noise, machine_seed);
            let mut p = SimProber::new(machine);
            let fit = Threshold::calibrate_with(&mut p, truth.user_scratch, 16, calibrator);
            let mut attack = WindowsKaslrAttack::new(fit.threshold);
            if let Some(sampler) = sampling.sampler_for_calibration(calibrator, &fit, sigma) {
                attack = attack.with_adaptive(sampler);
            }
            if let Some(strategy) = sampling.strategy_override() {
                attack = attack.with_strategy(strategy);
            }
            if let Some(recal) = recal {
                attack = attack.with_recalibration(recal);
            }
            if let Some(confirm) = confirm {
                attack = attack.with_confirmation(confirm);
            }
            let scan = attack.find_kernel_region(&mut p);
            let seconds = scan.total_cycles as f64 / (p.clock_ghz() * 1e9);
            CloudBreakReport {
                provider: scenario.provider,
                base: scan.base,
                base_correct: scan.base == Some(truth.kernel_base),
                base_seconds: seconds,
                probing_seconds: scan.probing_cycles as f64 / (p.clock_ghz() * 1e9),
                modules_detected: None,
                modules_seconds: None,
                probes: p.probes_issued(),
                addresses: scan.candidates,
                method: "18-bit Windows region scan",
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::Sampling;

    #[test]
    fn ec2_breaks_via_trampoline() {
        let report = run_scenario(
            &CloudScenario::amazon_ec2(11),
            1,
            &CampaignConfig::default(),
        );
        assert!(report.base_correct, "{report}");
        assert_eq!(report.method, "KPTI trampoline");
        assert!(report.modules_detected.is_none(), "KPTI hides modules");
    }

    #[test]
    fn gce_breaks_directly_and_sees_modules() {
        let report = run_scenario(
            &CloudScenario::google_gce(12),
            2,
            &CampaignConfig::default(),
        );
        assert!(report.base_correct, "{report}");
        assert_eq!(report.method, "mapped/unmapped scan");
        assert_eq!(report.modules_detected, Some(125));
        assert!(report.modules_seconds.unwrap() > 0.0);
    }

    #[test]
    fn azure_derandomizes_18_bits() {
        let report = run_scenario(
            &CloudScenario::microsoft_azure(13),
            3,
            &CampaignConfig::default(),
        );
        assert!(report.base_correct, "{report}");
        assert_eq!(report.method, "18-bit Windows region scan");
    }

    #[test]
    fn runtimes_ordered_like_the_paper() {
        // EC2/GCE kernel-base runtimes are sub-millisecond-ish; Azure's
        // 18-bit scan is orders of magnitude longer (paper: 2.06 s).
        let ec2 = run_scenario(
            &CloudScenario::amazon_ec2(21),
            4,
            &CampaignConfig::default(),
        );
        let gce = run_scenario(
            &CloudScenario::google_gce(22),
            5,
            &CampaignConfig::default(),
        );
        let azure = run_scenario(
            &CloudScenario::microsoft_azure(23),
            6,
            &CampaignConfig::default(),
        );
        assert!(ec2.base_seconds < 0.1, "{}", ec2.base_seconds);
        assert!(gce.base_seconds < 0.1, "{}", gce.base_seconds);
        assert!(
            azure.base_seconds > gce.base_seconds,
            "18-bit scan dominates"
        );
    }

    #[test]
    fn adaptive_cloud_chain_stays_correct_and_spends_fewer_probes() {
        // The comparator is the noise-robust fixed budget: what the
        // fixed path must spend per address to survive noisy profiles.
        let run = |sampling| {
            let config = CampaignConfig::default().with_sampling(sampling);
            run_scenario(&CloudScenario::google_gce(41), 8, &config)
        };
        let fixed = run(Sampling::fixed_budget());
        let adaptive = run(Sampling::adaptive());
        assert!(fixed.base_correct, "{fixed}");
        assert!(adaptive.base_correct, "{adaptive}");
        assert_eq!(adaptive.modules_detected, fixed.modules_detected);
        assert_eq!(adaptive.addresses, fixed.addresses);
        assert!(
            adaptive.probes * 2 <= fixed.probes,
            "adaptive {} vs fixed-budget {}",
            adaptive.probes,
            fixed.probes
        );
    }

    #[test]
    fn report_display_is_informative() {
        let report = run_scenario(
            &CloudScenario::google_gce(31),
            7,
            &CampaignConfig::default(),
        );
        let text = report.to_string();
        assert!(text.contains("Google GCE"));
        assert!(text.contains("correct"));
        assert!(text.contains("modules"));
    }
}
