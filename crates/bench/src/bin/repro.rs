//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! cargo run -p avx-bench --release --bin repro            # default trials
//! AVX_TRIALS=10000 cargo run -p avx-bench --release --bin repro   # paper-scale n
//! cargo run -p avx-bench --release --bin repro -- --noise smt --adaptive
//! ```
//!
//! `--noise quiet|smt|laptop|cloud|drift` selects the victim's noise
//! environment for the campaign sections (`drift` is the quiet→laptop
//! mid-scan ramp), `--adaptive` / `--fixed-budget` select the
//! probe-budget policy, `--recalibrate` runs every sweep attack
//! under the closed-loop recalibration driver, `--confirm` layers the
//! confirmation decision policy over every needle-in-haystack scan,
//! `--observables v1|v2` selects the noise-observables regime (v1
//! is the bit-exact paper stream, v2 the batched ziggurat kernel),
//! `--defense none|masked|rerandomizing` runs the campaign sections
//! against a defended victim (see `docs/DEFENSES.md`), and
//! `--schedule none|dvfs-square|cotenant-burst|module-churn` runs them
//! against an event-driven victim whose environment changes on a
//! virtual wall clock mid-scan — a non-preset `--schedule` value is
//! read as a trace file in the grammar of `docs/VICTIMS.md` — together
//! they reproduce the probes-per-address numbers of the noise-scenario
//! matrix and the drifting-noise recovery row. The output of this
//! binary is what `EXPERIMENTS.md` records.

use avx_bench::{figures, linux_prober, Options};
use avx_channel::attacks::campaign::{Campaign, CampaignConfig, Scenario};
use avx_channel::report::{fmt_seconds, Table};
use avx_channel::{
    CalibratorKind, ConfirmConfig, DefenseKind, KernelBaseFinder, Prober, RecalConfig, Sampling,
    ScheduleKind, Threshold,
};
use avx_uarch::{CpuProfile, NoiseProfile, VictimSchedule};

fn heading(text: &str) {
    println!("\n## {text}\n");
}

fn main() {
    let o = Options::from_process().unwrap_or_else(|err| {
        eprintln!("repro: {err}");
        std::process::exit(2)
    });

    // `repro --bench-json <path>`: standardized end-to-end throughput
    // measurement only (probes/sec + trials/sec of the full noise grid,
    // plus the Fig. 4 sweep), written as machine-readable JSON so the
    // perf trajectory is tracked across PRs in `BENCH_campaign.json`.
    if let Some(path) = &o.bench_json {
        let m = avx_bench::throughput::run_bench_json(path).expect("write bench json");
        println!(
            "campaign throughput: {:.0} probes/s, {:.1} trials/s over {} rows in {:.2} s; \
             fig4 sweep {:.0} probes/s; drift row {:.0} probes/s at {:.1} % → {}",
            m.grid.probes_per_sec,
            m.grid.trials_per_sec,
            m.grid.rows,
            m.grid.wall_seconds,
            m.sweep.probes_per_sec,
            m.drift.probes_per_sec,
            m.drift.accuracy_pct,
            path.display()
        );
        println!(
            "observables v2: grid {:.0} probes/s in {:.2} s; fig4 sweep {:.0} probes/s; \
             drift row {:.0} probes/s at {:.1} %",
            m.grid_v2.probes_per_sec,
            m.grid_v2.wall_seconds,
            m.sweep_v2.probes_per_sec,
            m.drift_v2.probes_per_sec,
            m.drift_v2.accuracy_pct,
        );
        return;
    }

    // `repro --fleet N [--fleet-shards K] [--fleet-checkpoint <path>]`:
    // streaming population sweep via the fleet engine — constant-memory
    // sharded reducers with checkpoint/resume instead of the figure
    // sections.
    if let Some(victims) = o.fleet {
        fleet(&o, victims);
        return;
    }

    println!("# AVX timing side-channel reproduction — full experiment run");
    println!("(simulated substrate; see DESIGN.md for the substitution statement)");

    for artefact in &figures::ALL {
        print!("{}", (artefact.run)(&o.campaign));
    }
    adaptive_economy(&o);
    calibration_menu(&o);
    recalibration(&o);
    confirmation(&o);
    defense_arena(&o);
    schedules(&o);
    full_campaign(&o);
    println!("\ndone.");
}

/// `--fleet N`: the streaming kernel-base population sweep
/// ([`avx_channel::fleet`]) under the campaign flags — sharded
/// constant-memory reducers, optional checkpoint/resume. Prints the
/// canonical `fleet aggregate:` line (bit-identical across shardings
/// and kill-and-resume boundaries; CI diffs it) and a `victims/sec`
/// throughput line.
fn fleet(o: &Options, victims: u64) {
    use avx_channel::fleet::{Fleet, FleetConfig};

    heading("Fleet campaign — kernel-base population sweep");
    let mut config = FleetConfig::new(victims);
    if let Some(shards) = o.fleet_shards {
        config = config.with_shards(shards);
    }
    if let Some(path) = &o.fleet_checkpoint {
        config = config.with_checkpoint(path.clone());
    }
    if let Some(max) = o.fleet_max_shards {
        config = config.with_max_shards(max);
    }
    let fleet = Fleet::new(
        Scenario::KernelBase,
        CpuProfile::alder_lake_i5_12400f(),
        o.campaign,
        config,
    );
    println!(
        "fleet config: victims={} shards={} shard_size={} pool={} noise={} sampling={} \
         calibrator={} observables={} defense={} schedule={} confirm={} recal={} seed={}",
        fleet.config.victims,
        fleet.config.shard_count(),
        fleet.config.shard_size,
        fleet.config.pool_size(),
        fleet.campaign.noise,
        fleet.campaign.sampling.name(),
        fleet.campaign.calibrator.name(),
        fleet.campaign.observables.name(),
        fleet.campaign.defense.name(),
        fleet.campaign.schedule.name(),
        if fleet.campaign.confirm.is_some() {
            "on"
        } else {
            "off"
        },
        if fleet.campaign.recal.is_some() {
            "on"
        } else {
            "off"
        },
        fleet.config.campaign_seed,
    );
    let report = match fleet.run() {
        Ok(report) => report,
        Err(err) => {
            eprintln!("fleet error: {err}");
            std::process::exit(1);
        }
    };
    if report.shards_resumed > 0 {
        println!(
            "fleet resume: {} of {} shards restored from checkpoint",
            report.shards_resumed, report.shards
        );
    }
    println!("fleet aggregate: {}", report.aggregate);
    println!(
        "fleet throughput: {:.1} victims/sec, {:.0} probes/sec ({} victims over {} shards \
         in {:.2} s{})",
        report.victims_per_sec(),
        report.probes_per_sec(),
        report.victims_run,
        report.shards_run,
        report.wall_seconds,
        if report.complete {
            ""
        } else {
            "; population incomplete — rerun with the same checkpoint to resume"
        },
    );
}

/// The defense arena: the kernel-base cell against every entry of the
/// defense menu, quiet and laptop hosts — the per-row efficacy picture
/// `docs/DEFENSES.md` documents.
fn defense_arena(o: &Options) {
    let trials = o.campaign.trials.min(12);
    heading(&format!(
        "Defense arena — kernel-base attack vs the defense menu (n={trials})"
    ));
    let profile = CpuProfile::alder_lake_i5_12400f();
    let mut table = Table::new(["Noise", "Defense", "p/addr", "Accuracy"]);
    for noise in [NoiseProfile::Quiet, NoiseProfile::LaptopDvfs] {
        for defense in DefenseKind::ALL {
            let row = Scenario::KernelBase.campaign(
                &profile,
                CampaignConfig::new(trials, 0)
                    .with_noise(noise)
                    .with_sampling(o.campaign.sampling)
                    .with_calibrator(o.campaign.calibrator)
                    .with_observables(o.campaign.observables)
                    .with_defense(defense),
            );
            table.row([
                noise.to_string(),
                row.defense.to_string(),
                format!("{:.2}", row.probes_per_address),
                format!("{:.2} %", row.accuracy.percent()),
            ]);
        }
    }
    println!("{table}");
    println!("  (select per run: repro --defense <none|masked|rerandomizing>)");
}

/// The event-driven-victim story: the kernel-base cell against every
/// entry of the schedule menu, one-shot vs closed-loop calibration.
/// The square-wave DVFS victim is the motivating pair: its mid-scan
/// noise-preset swaps go stale against a one-shot threshold, and the
/// closed loop recovers through `DriftMonitor::check` alone (see
/// `docs/VICTIMS.md` for the per-row helps-vs-hurts picture).
fn schedules(o: &Options) {
    let trials = o.campaign.trials.min(12);
    heading(&format!(
        "Event-driven victims — schedule menu (n={trials}, adaptive sampling)"
    ));
    let profile = CpuProfile::alder_lake_i5_12400f();
    let base = CampaignConfig::new(trials, 0)
        .with_sampling(Sampling::adaptive())
        .with_calibrator(CalibratorKind::NoiseAware)
        .with_observables(o.campaign.observables);
    let mut table = Table::new(["Schedule", "Calibration", "p/addr", "Accuracy"]);
    for schedule in ScheduleKind::ALL {
        for (label, config) in [
            ("one-shot", base.with_schedule(schedule)),
            (
                "closed-loop",
                base.with_schedule(schedule)
                    .with_recalibration(RecalConfig::default()),
            ),
        ] {
            let row = Scenario::KernelBase.campaign(&profile, config);
            table.row([
                row.schedule.to_string(),
                label.to_string(),
                format!("{:.2}", row.probes_per_address),
                format!("{:.2} %", row.accuracy.percent()),
            ]);
        }
    }
    println!("{table}");
    println!(
        "  (select per run: repro --schedule <none|dvfs-square|cotenant-burst|module-churn> \
         or --schedule <trace-file>)"
    );
    trace_demo(o);
}

/// `--schedule <trace-file>`: one demonstration scan against a
/// user-authored victim schedule (the trace grammar of
/// `docs/VICTIMS.md`), reported alongside the preset menu.
fn trace_demo(o: &Options) {
    let Some((spec, text)) = &o.schedule_trace else {
        return;
    };
    let sched = VictimSchedule::from_trace(text, 77).expect("trace checked by Options::parse");
    let profile = CpuProfile::alder_lake_i5_12400f();
    let (mut p, truth) = linux_prober(profile.clone(), 77);
    // Mirror the campaign install order and attacker tooling: the
    // victim's baseline noise environment is the trace's `base` preset
    // (the events perturb it), and the attacker runs under the session
    // knobs — sampling policy, calibrator, recalibration.
    let base = sched.profile();
    p.machine_mut().set_noise_profile(base);
    p.machine_mut().set_observables(o.campaign.observables);
    p.machine_mut().set_victim_schedule(Some(sched));
    let config = CampaignConfig {
        noise: base,
        ..o.campaign
    };
    let fit = Threshold::calibrate_with(&mut p, truth.user.calibration, 16, config.calibrator);
    let mut finder = KernelBaseFinder::new(fit.threshold);
    if let Some(sampler) = config.sampler_for(&profile, &fit) {
        finder = finder.with_adaptive(sampler);
    }
    if let Some(strategy) = config.sampling.strategy_override() {
        finder = finder.with_strategy(strategy);
    }
    if let Some(recal) = o.campaign.recal {
        finder = finder.with_recalibration(recal);
    }
    let scan = finder.scan(&mut p);
    let fired = p.machine().victim_schedule().map_or(0, |s| s.fired());
    println!(
        "  trace demo {spec:?}: base {} (truth {}, {}), {fired} events fired over {} probes",
        scan.base.map_or("-".into(), |b| b.to_string()),
        truth.kernel_base,
        if scan.base == Some(truth.kernel_base) {
            "recovered"
        } else {
            "missed — try --adaptive --calibrator noise-aware --recalibrate"
        },
        p.probes_issued(),
    );
}

/// The generalized Table I: every §IV attack scenario across the three
/// evaluated desktop/mobile parts, trials parallelized via rayon.
fn full_campaign(o: &Options) {
    let config = CampaignConfig {
        trials: o.campaign.trials.min(12),
        ..o.campaign
    };
    heading(&format!(
        "Full campaign — all 8 attacks x 3 CPUs (n={}, noise={}, sampling={}, calibrator={}, recalibrate={}, confirm={}, observables={}, defense={}, schedule={}, rayon-parallel)",
        config.trials,
        config.noise,
        config.sampling.name(),
        config.calibrator,
        if config.recal.is_some() { "on" } else { "off" },
        if config.confirm.is_some() { "on" } else { "off" },
        config.observables,
        config.defense,
        config.schedule,
    ));
    let campaign = Campaign::full(config);
    let mut table = Table::new([
        "CPU", "Target", "Probing", "Total", "p/addr", "Accuracy", "Records",
    ]);
    for row in campaign.run() {
        table.row([
            row.cpu.clone(),
            row.target.to_string(),
            fmt_seconds(row.probing_seconds),
            fmt_seconds(row.total_seconds),
            format!("{:.2}", row.probes_per_address),
            format!("{:.2} %", row.accuracy.percent()),
            format!("{}", row.accuracy.total),
        ]);
    }
    println!("{table}");
}

/// The adaptive engine's probe economy: the kernel-base cell across
/// every noise preset, fixed vs fixed-budget vs adaptive.
fn adaptive_economy(o: &Options) {
    let trials = o.campaign.trials.min(8);
    heading(&format!(
        "Adaptive vs fixed — probes/address x accuracy across the noise matrix (n={trials})"
    ));
    let profile = CpuProfile::alder_lake_i5_12400f();
    let mut table = Table::new(["Noise", "Sampling", "p/addr", "Accuracy"]);
    for noise in NoiseProfile::ALL {
        for sampling in [
            Sampling::Fixed,
            Sampling::fixed_budget(),
            Sampling::adaptive(),
        ] {
            let row = Scenario::KernelBase.campaign(
                &profile,
                CampaignConfig::new(trials, 0)
                    .with_noise(noise)
                    .with_sampling(sampling)
                    .with_calibrator(o.campaign.calibrator)
                    .with_observables(o.campaign.observables),
            );
            table.row([
                noise.to_string(),
                row.sampling.to_string(),
                format!("{:.2}", row.probes_per_address),
                format!("{:.2} %", row.accuracy.percent()),
            ]);
        }
    }
    println!("{table}");
    println!(
        "  (reproduce under any environment: repro --noise <quiet|smt|laptop|cloud> [--adaptive])"
    );
}

/// The calibration-estimator menu on the row that motivated it: the
/// laptop-DVFS kernel-base cell under adaptive sampling, where the
/// min-pulled legacy floor drifts ≈ 8 cycles low and caps accuracy
/// regardless of the probe budget. Quiet rows ride along to show the
/// robust estimators cost nothing when the host is quiet.
fn calibration_menu(o: &Options) {
    let trials = o.campaign.trials.min(12);
    heading(&format!(
        "Calibration estimators — noise-aware floor fitting (n={trials}, adaptive sampling)"
    ));
    let profile = CpuProfile::alder_lake_i5_12400f();
    let mut table = Table::new(["Noise", "Calibrator", "p/addr", "Accuracy"]);
    for noise in [NoiseProfile::Quiet, NoiseProfile::LaptopDvfs] {
        for calibrator in CalibratorKind::ALL {
            let row = Scenario::KernelBase.campaign(
                &profile,
                CampaignConfig::new(trials, 0)
                    .with_noise(noise)
                    .with_sampling(Sampling::adaptive())
                    .with_calibrator(calibrator)
                    .with_observables(o.campaign.observables),
            );
            table.row([
                noise.to_string(),
                row.calibrator.to_string(),
                format!("{:.2}", row.probes_per_address),
                format!("{:.2} %", row.accuracy.percent()),
            ]);
        }
    }
    println!("{table}");
    println!("  (select per run: repro --calibrator <legacy|trimmed|bimodal|noise-aware>)");
}

/// The closed-loop story: the kernel-base cell under the quiet→laptop
/// drift ramp, one-shot calibration vs the self-recalibrating scan.
/// One-shot calibration goes stale mid-sweep (the SPRT keeps trusting
/// the quiet-phase σ); the closed loop detects the dispersion shift,
/// re-fits via the EM threshold re-fit and recovers.
fn recalibration(o: &Options) {
    let trials = o.campaign.trials.min(12);
    heading(&format!(
        "Closed-loop recalibration — quiet→laptop drift mid-scan (n={trials}, adaptive sampling)"
    ));
    let profile = CpuProfile::alder_lake_i5_12400f();
    let base = CampaignConfig::new(trials, 0)
        .with_noise(NoiseProfile::drift_quiet_to_laptop())
        .with_sampling(Sampling::adaptive())
        .with_calibrator(CalibratorKind::NoiseAware)
        .with_observables(o.campaign.observables);
    let mut table = Table::new(["Calibration", "p/addr", "Accuracy"]);
    for (label, config) in [
        ("one-shot", base),
        (
            "closed-loop",
            base.with_recalibration(RecalConfig::default()),
        ),
    ] {
        let row = Scenario::KernelBase.campaign(&profile, config);
        table.row([
            label.to_string(),
            format!("{:.2}", row.probes_per_address),
            format!("{:.2} %", row.accuracy.percent()),
        ]);
    }
    println!("{table}");
    println!(
        "  (reproduce: repro --noise drift --adaptive --calibrator noise-aware [--recalibrate])"
    );
}

/// The confirmation-policy story: the KPTI trampoline cell under
/// laptop-DVFS noise, first-mapped-slot-wins vs confirmed decisions.
/// Laptop jitter sprays false-positive slots below the trampoline and
/// the legacy first-wins rule latches onto them; the confirmation
/// layer re-tests every candidate with an escalated budget and a
/// slot-level sequential test before committing.
fn confirmation(o: &Options) {
    let trials = o.campaign.trials.min(12);
    heading(&format!(
        "Confirmation policy — KPTI trampoline under laptop DVFS (n={trials}, adaptive sampling)"
    ));
    let profile = CpuProfile::alder_lake_i5_12400f();
    let base = CampaignConfig::new(trials, 0)
        .with_noise(NoiseProfile::LaptopDvfs)
        .with_sampling(Sampling::adaptive())
        .with_calibrator(CalibratorKind::NoiseAware)
        .with_observables(o.campaign.observables);
    let mut table = Table::new(["Decision", "p/addr", "Accuracy"]);
    for (label, config) in [
        ("confirm=off (first-wins)", base),
        (
            "confirm=on (re-tested)",
            base.with_confirmation(ConfirmConfig::default()),
        ),
    ] {
        let row = Scenario::Kpti.campaign(&profile, config);
        table.row([
            label.to_string(),
            format!("{:.2}", row.probes_per_address),
            format!("{:.2} %", row.accuracy.percent()),
        ]);
    }
    println!("{table}");
    println!("  (reproduce: repro --noise laptop --adaptive --calibrator noise-aware [--confirm])");
}
