//! End-to-end campaign throughput measurement.
//!
//! The paper's headline numbers are wall-clock (Table I, Fig. 4/5
//! sweeps), so *simulator* throughput — probes per second and trials per
//! second of the full attack × CPU × noise grid — is what gates scaling
//! the campaign matrix. This module is the standardized measurement the
//! `campaign_throughput` bench, the `repro --bench-json` flag and the CI
//! throughput smoke all share, so every recorded number is comparable
//! across PRs.

use std::time::Instant;

use avx_channel::attacks::campaign::{Campaign, CampaignConfig, Scenario};
use avx_channel::fleet::{Fleet, FleetConfig};
use avx_channel::{
    CalibratorKind, KernelBaseFinder, Prober, RecalConfig, Sampling, ScheduleKind, Threshold,
};
use avx_uarch::{CpuProfile, NoiseProfile, ObservablesVersion};

/// One end-to-end measurement of the full noise-grid campaign.
#[derive(Clone, Copy, Debug)]
pub struct CampaignThroughput {
    /// Observables regime the grid ran under.
    pub observables: ObservablesVersion,
    /// Requested trials per cell (heavyweight cells are capped by
    /// [`avx_channel::attacks::campaign::Scenario::max_trials`]).
    pub trials_per_cell: u64,
    /// Wall-clock seconds of the whole grid run.
    pub wall_seconds: f64,
    /// Campaign rows produced.
    pub rows: usize,
    /// Raw simulated probes issued across all rows.
    pub probes: u64,
    /// Trials executed across all rows (success records of the base
    /// scenarios; per-module/sample records count their trial once).
    pub trials: u64,
    /// Probes per wall-clock second — the headline throughput metric.
    pub probes_per_sec: f64,
    /// Trials per wall-clock second.
    pub trials_per_sec: f64,
}

/// Runs the full attack × CPU × noise grid once under the default
/// (v1, bit-exact) observables regime and reports throughput.
#[must_use]
pub fn measure_noise_grid(trials: u64) -> CampaignThroughput {
    measure_noise_grid_with(trials, ObservablesVersion::V1)
}

/// [`measure_noise_grid`] under an explicit observables regime — the
/// v2 measurement is the perf target the batched ziggurat kernel is
/// accountable to.
#[must_use]
pub fn measure_noise_grid_with(trials: u64, observables: ObservablesVersion) -> CampaignThroughput {
    let campaign =
        Campaign::noise_grid(CampaignConfig::new(trials, 0).with_observables(observables));
    let start = Instant::now();
    let rows = campaign.run();
    let wall_seconds = start.elapsed().as_secs_f64();
    let probes: u64 = rows.iter().map(|r| r.probes).sum();
    // The rows report their own trial counts, so the metric can never
    // drift from the engine's cell-selection/clamping rules.
    let trials_total: u64 = rows.iter().map(|r| r.trials).sum();
    CampaignThroughput {
        observables,
        trials_per_cell: trials,
        wall_seconds,
        rows: rows.len(),
        probes,
        trials: trials_total,
        probes_per_sec: probes as f64 / wall_seconds.max(1e-9),
        trials_per_sec: trials_total as f64 / wall_seconds.max(1e-9),
    }
}

/// One measurement of the quiet-profile Fig. 4 sweep (the paper's
/// 512 × 2 MiB kernel scan), repeated until ~`min_probes` probes ran.
#[derive(Clone, Copy, Debug)]
pub struct SweepThroughput {
    /// Observables regime the sweep ran under.
    pub observables: ObservablesVersion,
    /// Raw probes issued.
    pub probes: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Probes per wall-clock second.
    pub probes_per_sec: f64,
}

/// Measures the quiet-profile Fig. 4 sweep throughput: one fresh system,
/// then repeated full 512-slot scans until at least `min_probes` raw
/// probes have been issued.
#[must_use]
pub fn measure_fig4_sweep(min_probes: u64) -> SweepThroughput {
    measure_fig4_sweep_with(min_probes, ObservablesVersion::V1)
}

/// [`measure_fig4_sweep`] under an explicit observables regime. The
/// sweep runs noise-free either way (quiet prober), so this isolates
/// the batched block plumbing's overhead from the sampler speedup.
#[must_use]
pub fn measure_fig4_sweep_with(
    min_probes: u64,
    observables: ObservablesVersion,
) -> SweepThroughput {
    let (mut p, truth) = crate::quiet_linux_prober(CpuProfile::alder_lake_i5_12400f(), 4);
    p.machine_mut().set_observables(observables);
    let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
    let finder = KernelBaseFinder::new(th);
    let start = Instant::now();
    let before = p.probes_issued();
    let mut scans = 0u64;
    while p.probes_issued() - before < min_probes {
        let scan = finder.scan(&mut p);
        assert_eq!(
            scan.base,
            Some(truth.kernel_base),
            "sweep must stay correct"
        );
        scans += 1;
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    let probes = p.probes_issued() - before;
    let _ = scans;
    SweepThroughput {
        observables,
        probes,
        wall_seconds,
        probes_per_sec: probes as f64 / wall_seconds.max(1e-9),
    }
}

/// One measurement of the drifting-noise recalibration row: the
/// kernel-base campaign under the quiet→laptop ramp with the
/// closed-loop driver on — the tentpole scenario of the recalibration
/// engine, recorded so its cost (the loop re-probes its drift window
/// after a refit) stays on the perf trajectory.
#[derive(Clone, Copy, Debug)]
pub struct DriftRowThroughput {
    /// Observables regime the row ran under.
    pub observables: ObservablesVersion,
    /// Trials the row ran.
    pub trials: u64,
    /// Raw probes issued (calibration + rescans included).
    pub probes: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Probes per wall-clock second.
    pub probes_per_sec: f64,
    /// Accuracy of the closed-loop row, percent.
    pub accuracy_pct: f64,
}

/// Measures the closed-loop drift row (`repro --noise drift --adaptive
/// --calibrator noise-aware --recalibrate` as a campaign cell).
#[must_use]
pub fn measure_drift_row(trials: u64) -> DriftRowThroughput {
    measure_drift_row_with(trials, ObservablesVersion::V1)
}

/// [`measure_drift_row`] under an explicit observables regime. The
/// drift ramp is resolved per probe index in both regimes (v2 blocks
/// never quantize the ramp), so accuracy is comparable across them.
#[must_use]
pub fn measure_drift_row_with(trials: u64, observables: ObservablesVersion) -> DriftRowThroughput {
    let config = CampaignConfig::new(trials, 0)
        .with_noise(NoiseProfile::drift_quiet_to_laptop())
        .with_sampling(Sampling::adaptive())
        .with_calibrator(CalibratorKind::NoiseAware)
        .with_recalibration(RecalConfig::default())
        .with_observables(observables);
    let start = Instant::now();
    let row = Scenario::KernelBase.campaign(&CpuProfile::alder_lake_i5_12400f(), config);
    let wall_seconds = start.elapsed().as_secs_f64();
    DriftRowThroughput {
        observables,
        trials,
        probes: row.probes,
        wall_seconds,
        probes_per_sec: row.probes as f64 / wall_seconds.max(1e-9),
        accuracy_pct: row.accuracy.percent(),
    }
}

/// One measurement of the event-driven-victim row: the kernel-base
/// campaign against the square-wave DVFS victim with the closed-loop
/// driver on — the tentpole scenario of the schedule axis, recorded so
/// the cost of re-fitting against a victim that swaps noise presets on
/// its own wall clock stays on the perf trajectory.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleRowThroughput {
    /// Observables regime the row ran under.
    pub observables: ObservablesVersion,
    /// Victim schedule the row ran against.
    pub schedule: &'static str,
    /// Trials the row ran.
    pub trials: u64,
    /// Raw probes issued (calibration + rescans included).
    pub probes: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Probes per wall-clock second.
    pub probes_per_sec: f64,
    /// Accuracy of the closed-loop row, percent.
    pub accuracy_pct: f64,
}

/// Measures the closed-loop schedule row (`repro --schedule dvfs-square
/// --adaptive --calibrator noise-aware --recalibrate` as a campaign
/// cell).
#[must_use]
pub fn measure_schedule_row(trials: u64) -> ScheduleRowThroughput {
    measure_schedule_row_with(trials, ObservablesVersion::V1)
}

/// [`measure_schedule_row`] under an explicit observables regime. The
/// schedule's virtual clock ticks per victim-observed op in both
/// regimes, so accuracy is comparable across them.
#[must_use]
pub fn measure_schedule_row_with(
    trials: u64,
    observables: ObservablesVersion,
) -> ScheduleRowThroughput {
    let config = CampaignConfig::new(trials, 0)
        .with_schedule(ScheduleKind::DvfsSquare)
        .with_sampling(Sampling::adaptive())
        .with_calibrator(CalibratorKind::NoiseAware)
        .with_recalibration(RecalConfig::default())
        .with_observables(observables);
    let start = Instant::now();
    let row = Scenario::KernelBase.campaign(&CpuProfile::alder_lake_i5_12400f(), config);
    let wall_seconds = start.elapsed().as_secs_f64();
    ScheduleRowThroughput {
        observables,
        schedule: row.schedule,
        trials,
        probes: row.probes,
        wall_seconds,
        probes_per_sec: row.probes as f64 / wall_seconds.max(1e-9),
        accuracy_pct: row.accuracy.percent(),
    }
}

/// One measurement of the streaming fleet engine at population scale:
/// kernel-base victims under the default quiet/fixed/legacy/v1 config,
/// swept by [`avx_channel::fleet::Fleet`] with default sharding — the
/// scale-out row the defense-arena populations will be judged on.
#[derive(Clone, Copy, Debug)]
pub struct FleetThroughput {
    /// Observables regime the fleet ran under.
    pub observables: ObservablesVersion,
    /// Victims swept.
    pub victims: u64,
    /// Shards the population partitioned into.
    pub shards: u64,
    /// Raw probes issued across the population.
    pub probes: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Victims per wall-clock second — the fleet's headline metric.
    pub victims_per_sec: f64,
    /// Probes per wall-clock second.
    pub probes_per_sec: f64,
    /// Population accuracy, percent.
    pub accuracy_pct: f64,
}

/// Measures the streaming fleet at `victims` population size
/// (`repro --fleet N` as a standardized measurement; the recorded
/// trajectory row uses N = 10⁵).
#[must_use]
pub fn measure_fleet(victims: u64) -> FleetThroughput {
    let fleet = Fleet::new(
        Scenario::KernelBase,
        CpuProfile::alder_lake_i5_12400f(),
        CampaignConfig::default(),
        FleetConfig::new(victims),
    );
    let report = fleet.run().expect("checkpoint-free fleet run");
    FleetThroughput {
        observables: ObservablesVersion::V1,
        victims: report.aggregate.victims,
        shards: report.shards,
        probes: report.aggregate.probes,
        wall_seconds: report.wall_seconds,
        victims_per_sec: report.victims_per_sec(),
        probes_per_sec: report.probes_per_sec(),
        accuracy_pct: report.aggregate.accuracy().percent(),
    }
}

/// The full standardized measurement set: every workload under both
/// observables regimes. The v1 entries are what every pre-v3 record
/// held; the v2 entries are the batched-ziggurat counterparts.
#[derive(Clone, Copy, Debug)]
pub struct BenchMeasurements {
    /// Noise-grid campaign, v1 regime.
    pub grid: CampaignThroughput,
    /// Fig. 4 sweep, v1 regime.
    pub sweep: SweepThroughput,
    /// Closed-loop drift row, v1 regime.
    pub drift: DriftRowThroughput,
    /// Noise-grid campaign, v2 regime.
    pub grid_v2: CampaignThroughput,
    /// Fig. 4 sweep, v2 regime.
    pub sweep_v2: SweepThroughput,
    /// Closed-loop drift row, v2 regime.
    pub drift_v2: DriftRowThroughput,
    /// Streaming fleet at N = 10⁵ victims, v1 regime.
    pub fleet: FleetThroughput,
    /// Closed-loop square-wave-DVFS schedule row, v1 regime.
    pub schedule_row: ScheduleRowThroughput,
}

fn grid_json(grid: &CampaignThroughput) -> String {
    format!(
        "{{\n    \"observables\": \"{}\",\n    \"trials_per_cell\": {},\n    \
         \"rows\": {},\n    \"trials\": {},\n    \"probes\": {},\n    \
         \"wall_seconds\": {:.6},\n    \"probes_per_sec\": {:.1},\n    \
         \"trials_per_sec\": {:.3}\n  }}",
        grid.observables,
        grid.trials_per_cell,
        grid.rows,
        grid.trials,
        grid.probes,
        grid.wall_seconds,
        grid.probes_per_sec,
        grid.trials_per_sec,
    )
}

fn sweep_json(sweep: &SweepThroughput) -> String {
    format!(
        "{{\n    \"observables\": \"{}\",\n    \"probes\": {},\n    \
         \"wall_seconds\": {:.6},\n    \"probes_per_sec\": {:.1}\n  }}",
        sweep.observables, sweep.probes, sweep.wall_seconds, sweep.probes_per_sec,
    )
}

fn drift_json(drift: &DriftRowThroughput) -> String {
    format!(
        "{{\n    \"observables\": \"{}\",\n    \"trials\": {},\n    \
         \"probes\": {},\n    \"wall_seconds\": {:.6},\n    \
         \"probes_per_sec\": {:.1},\n    \"accuracy_pct\": {:.2}\n  }}",
        drift.observables,
        drift.trials,
        drift.probes,
        drift.wall_seconds,
        drift.probes_per_sec,
        drift.accuracy_pct,
    )
}

fn fleet_json(fleet: &FleetThroughput) -> String {
    format!(
        "{{\n    \"observables\": \"{}\",\n    \"victims\": {},\n    \
         \"shards\": {},\n    \"probes\": {},\n    \"wall_seconds\": {:.6},\n    \
         \"victims_per_sec\": {:.1},\n    \"probes_per_sec\": {:.1},\n    \
         \"accuracy_pct\": {:.2}\n  }}",
        fleet.observables,
        fleet.victims,
        fleet.shards,
        fleet.probes,
        fleet.wall_seconds,
        fleet.victims_per_sec,
        fleet.probes_per_sec,
        fleet.accuracy_pct,
    )
}

fn schedule_json(row: &ScheduleRowThroughput) -> String {
    format!(
        "{{\n    \"observables\": \"{}\",\n    \"schedule\": \"{}\",\n    \
         \"trials\": {},\n    \"probes\": {},\n    \"wall_seconds\": {:.6},\n    \
         \"probes_per_sec\": {:.1},\n    \"accuracy_pct\": {:.2}\n  }}",
        row.observables,
        row.schedule,
        row.trials,
        row.probes,
        row.wall_seconds,
        row.probes_per_sec,
        row.accuracy_pct,
    )
}

/// Serializes the measurements as the machine-readable
/// `BENCH_campaign.json` record (hand-rolled JSON; the build is
/// air-gapped, so no serde). Schema v5: every entry carries its
/// observables tag, the historical `grid`/`fig4_sweep`/`drift_row`
/// keys stay the v1 regime, the `*_v2` keys hold the batched ziggurat
/// counterparts, `fleet_row` records the streaming fleet at N = 10⁵
/// victims, and `schedule_row` the closed-loop campaign against the
/// square-wave-DVFS event-driven victim.
#[must_use]
pub fn bench_json(m: &BenchMeasurements) -> String {
    format!(
        "{{\n  \"schema\": \"avx-aslr/campaign-throughput/v5\",\n  \
         \"grid\": {},\n  \"fig4_sweep\": {},\n  \"drift_row\": {},\n  \
         \"grid_v2\": {},\n  \"fig4_sweep_v2\": {},\n  \"drift_row_v2\": {},\n  \
         \"fleet_row\": {},\n  \"schedule_row\": {}\n}}\n",
        grid_json(&m.grid),
        sweep_json(&m.sweep),
        drift_json(&m.drift),
        grid_json(&m.grid_v2),
        sweep_json(&m.sweep_v2),
        drift_json(&m.drift_v2),
        fleet_json(&m.fleet),
        schedule_json(&m.schedule_row),
    )
}

/// Runs the standardized throughput measurement and writes the JSON
/// record to `path` (the `repro --bench-json` entry point). Returns the
/// measurements for console reporting.
pub fn run_bench_json(path: &std::path::Path) -> std::io::Result<BenchMeasurements> {
    let m = BenchMeasurements {
        grid: measure_noise_grid(2),
        sweep: measure_fig4_sweep(64 * 1024),
        drift: measure_drift_row(8),
        grid_v2: measure_noise_grid_with(2, ObservablesVersion::V2),
        sweep_v2: measure_fig4_sweep_with(64 * 1024, ObservablesVersion::V2),
        drift_v2: measure_drift_row_with(8, ObservablesVersion::V2),
        fleet: measure_fleet(100_000),
        schedule_row: measure_schedule_row(8),
    };
    std::fs::write(path, bench_json(&m))?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_measurement_reports_positive_throughput() {
        let sweep = measure_fig4_sweep(1024);
        assert!(sweep.probes >= 1024);
        assert!(sweep.probes_per_sec > 0.0);
    }

    fn fake_measurements() -> BenchMeasurements {
        let grid = CampaignThroughput {
            observables: ObservablesVersion::V1,
            trials_per_cell: 2,
            wall_seconds: 1.5,
            rows: 56,
            probes: 1_000_000,
            trials: 100,
            probes_per_sec: 666_666.7,
            trials_per_sec: 66.7,
        };
        let sweep = SweepThroughput {
            observables: ObservablesVersion::V1,
            probes: 2048,
            wall_seconds: 0.01,
            probes_per_sec: 204_800.0,
        };
        let drift = DriftRowThroughput {
            observables: ObservablesVersion::V1,
            trials: 8,
            probes: 20_000,
            wall_seconds: 0.02,
            probes_per_sec: 1_000_000.0,
            accuracy_pct: 100.0,
        };
        BenchMeasurements {
            grid,
            sweep,
            drift,
            grid_v2: CampaignThroughput {
                observables: ObservablesVersion::V2,
                ..grid
            },
            sweep_v2: SweepThroughput {
                observables: ObservablesVersion::V2,
                ..sweep
            },
            drift_v2: DriftRowThroughput {
                observables: ObservablesVersion::V2,
                ..drift
            },
            fleet: FleetThroughput {
                observables: ObservablesVersion::V1,
                victims: 100_000,
                shards: 98,
                probes: 104_100_000,
                wall_seconds: 12.0,
                victims_per_sec: 8_333.3,
                probes_per_sec: 8_675_000.0,
                accuracy_pct: 99.8,
            },
            schedule_row: ScheduleRowThroughput {
                observables: ObservablesVersion::V1,
                schedule: "dvfs-square",
                trials: 8,
                probes: 25_000,
                wall_seconds: 0.02,
                probes_per_sec: 1_250_000.0,
                accuracy_pct: 100.0,
            },
        }
    }

    #[test]
    fn bench_json_is_well_formed() {
        let json = bench_json(&fake_measurements());
        assert!(json.contains("\"probes_per_sec\""));
        assert!(json.contains("campaign-throughput/v5"));
        assert!(json.contains("\"drift_row\""));
        assert!(json.contains("\"accuracy_pct\""));
        // Both regimes appear, each tagged with its observables name.
        assert!(json.contains("\"grid_v2\""));
        assert!(json.contains("\"fig4_sweep_v2\""));
        assert!(json.contains("\"drift_row_v2\""));
        assert!(json.contains("\"observables\": \"v1\""));
        assert!(json.contains("\"observables\": \"v2\""));
        // The fleet row carries the population-scale metrics.
        assert!(json.contains("\"fleet_row\""));
        assert!(json.contains("\"victims_per_sec\""));
        // The schedule row tags the victim schedule it ran against.
        assert!(json.contains("\"schedule_row\""));
        assert!(json.contains("\"schedule\": \"dvfs-square\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("\"observables\"").count(), 8);
    }

    #[test]
    fn fleet_measurement_reports_positive_throughput() {
        let fleet = measure_fleet(128);
        assert_eq!(fleet.victims, 128);
        assert_eq!(fleet.shards, 1);
        assert!(fleet.probes > 0);
        assert!(fleet.victims_per_sec > 0.0);
        assert!(fleet.probes_per_sec > 0.0);
        assert!(fleet.accuracy_pct >= 90.0, "{}", fleet.accuracy_pct);
    }

    #[test]
    fn v2_sweep_measurement_reports_positive_throughput() {
        let sweep = measure_fig4_sweep_with(1024, ObservablesVersion::V2);
        assert_eq!(sweep.observables, ObservablesVersion::V2);
        assert!(sweep.probes >= 1024);
        assert!(sweep.probes_per_sec > 0.0);
    }

    #[test]
    fn schedule_row_measurement_recovers_and_reports_throughput() {
        let row = measure_schedule_row(2);
        assert_eq!(row.trials, 2);
        assert_eq!(row.schedule, "dvfs-square");
        assert!(row.probes > 0);
        assert!(row.probes_per_sec > 0.0);
        assert!(row.accuracy_pct >= 50.0, "{}", row.accuracy_pct);
    }

    #[test]
    fn drift_row_measurement_recovers_and_reports_throughput() {
        let drift = measure_drift_row(2);
        assert_eq!(drift.trials, 2);
        assert!(drift.probes > 0);
        assert!(drift.probes_per_sec > 0.0);
        assert!(drift.accuracy_pct >= 50.0, "{}", drift.accuracy_pct);
    }
}
